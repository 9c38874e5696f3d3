//! Frozen scalar-reference oracles for the bit-parallel dense path.
//!
//! [`BehavioralSwitchRef`] and [`PipelinedSwitchRef`] are verbatim copies
//! of the models as they stood *before* the bit-parallel dense-path
//! rework: per-stage `for` loops, queue-walking arbitration scans, no
//! packed wave words. They are deliberately not maintained for speed —
//! their job is to be obviously equivalent to the published cycle-level
//! semantics so that:
//!
//! * the differential property test (`tests/bitparallel_diff.rs`) can pin
//!   the optimized models **byte-identical** to them — departures,
//!   drop/fault counters and the full probe event stream — across all
//!   memory organizations and a seeded load grid;
//! * the perf harness can measure the before/after dense-path speedup
//!   in-process, machine-portably, instead of trusting a committed
//!   baseline measured on different silicon.
//!
//! Any behavioral divergence between a model and its `*Ref` twin is a
//! bug in the optimized path, never in the reference: fix the model.

use crate::arbiter::{Arbiter, Decision, ReadReq, WriteReq};
use crate::behavioral::BehavioralDeparture;
use crate::bufmgr::BufferManager;
use crate::config::SwitchConfig;
use crate::events::{IntegrityReason, SwitchCounters};
use crate::policy::{AdmitDecision, PolicyEngine, PolicyView};
use crate::rtl::{drop_reason, integrity_checksum, Seal, StageCtrl};
use membank::bank::{PortKind, SramBank};
use simkernel::cell::Packet;
use simkernel::ids::{Addr, Cycle, PortId};
use std::collections::VecDeque;
use telemetry::{ArbOutcome, DropReason, FaultTag, GaugeKind, ProbeEvent, ProbeHandle, WaveDir};

// ---------------------------------------------------------------------------
// Behavioral reference
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct BhvPacket {
    id: u64,
    input: usize,
    dsts: u32,
    refs: u32,
    birth: Cycle,
    write_start: Option<Cycle>,
    output_was_idle: bool,
}

#[derive(Debug, Clone)]
struct PendingArrival {
    slot: usize,
    eligible: Cycle,
    deadline: Cycle,
}

/// The pre-rework cell-level model: scalar per-queue arbitration scans,
/// exactly as `BehavioralSwitch` executed them before the bit-parallel
/// dense path landed. See the module docs for why this copy exists.
#[derive(Debug)]
pub struct BehavioralSwitchRef {
    cfg: SwitchConfig,
    stages: usize,
    packets: Vec<Option<BhvPacket>>,
    free_slab: Vec<usize>,
    buf_used: usize,
    pending: Vec<VecDeque<PendingArrival>>,
    arriving: Vec<usize>,
    queues: Vec<VecDeque<usize>>,
    out_next_init: Vec<Cycle>,
    arb: Arbiter,
    cycle: Cycle,
    /// Packets dropped because the buffer pool was full.
    pub dropped: u64,
    /// Packets lost to latch overrun (must remain 0).
    pub overruns: u64,
    /// Packets accepted.
    pub arrived: u64,
    /// Packets rejected by a non-static sharing policy.
    pub policy_drops: u64,
    /// Buffered packets evicted by the sharing policy for an arrival.
    pub policy_preempts: u64,
    policy: PolicyEngine,
    policy_static: bool,
    departures: Vec<BehavioralDeparture>,
    in_tx: Vec<BehavioralDeparture>,
    probe: Option<ProbeHandle>,
    last_occ: u64,
    scratch_masks: Vec<Option<u32>>,
    scratch_done: Vec<BehavioralDeparture>,
    scratch_reads: Vec<ReadReq>,
    scratch_writes: Vec<WriteReq>,
}

impl BehavioralSwitchRef {
    /// Build from a configuration (same struct as the live models).
    pub fn new(cfg: SwitchConfig) -> Self {
        cfg.validate();
        let stages = cfg.stages();
        BehavioralSwitchRef {
            stages,
            packets: Vec::new(),
            free_slab: Vec::new(),
            buf_used: 0,
            pending: vec![VecDeque::new(); cfg.n_in],
            arriving: vec![0; cfg.n_in],
            queues: vec![VecDeque::new(); cfg.n_out],
            out_next_init: vec![0; cfg.n_out],
            arb: Arbiter::new(cfg.arbiter),
            cycle: 0,
            dropped: 0,
            overruns: 0,
            arrived: 0,
            policy_drops: 0,
            policy_preempts: 0,
            policy: cfg.policy.engine(cfg.n_out, stages),
            policy_static: cfg.policy.is_static(),
            departures: Vec::new(),
            in_tx: Vec::new(),
            probe: None,
            last_occ: 0,
            scratch_masks: Vec::with_capacity(cfg.n_in),
            scratch_done: Vec::new(),
            scratch_reads: Vec::with_capacity(cfg.n_out),
            scratch_writes: Vec::with_capacity(cfg.n_in),
            cfg,
        }
    }

    /// Attach a probe sink (same event stream as the live model).
    pub fn attach_probe(&mut self, probe: ProbeHandle) {
        self.probe = Some(probe);
    }

    /// True when an arrival can be offered on input `i` this cycle.
    pub fn input_free(&self, i: usize) -> bool {
        self.arriving[i] == 0
    }

    /// Advance one cycle; see `BehavioralSwitch::tick`.
    pub fn tick(&mut self, arrivals: &[Option<usize>]) -> &[BehavioralDeparture] {
        let mut masks = std::mem::take(&mut self.scratch_masks);
        masks.clear();
        masks.extend(arrivals.iter().map(|a| a.map(|d| 1u32 << d)));
        self.advance(&masks);
        self.scratch_masks = masks;
        &self.scratch_done
    }

    /// Advance one cycle with destination bitmasks.
    pub fn tick_masks(&mut self, arrivals: &[Option<u32>]) -> &[BehavioralDeparture] {
        self.advance(arrivals);
        &self.scratch_done
    }

    fn advance(&mut self, arrivals: &[Option<u32>]) {
        assert_eq!(arrivals.len(), self.cfg.n_in);
        let c = self.cycle;
        let s = self.stages as Cycle;

        // 1. Completed transmissions.
        let done = &mut self.scratch_done;
        done.clear();
        self.in_tx.retain(|d| {
            if d.done == c {
                done.push(*d);
                false
            } else {
                true
            }
        });
        self.departures.extend(done.iter().copied());
        if let Some(p) = &self.probe {
            for d in done.iter() {
                p.emit(
                    c,
                    ProbeEvent::Departed {
                        output: d.output,
                        id: d.id,
                        birth: d.birth,
                        latency: c - d.birth,
                    },
                );
            }
        }

        // 2. Arrivals.
        for (i, a) in arrivals.iter().enumerate() {
            if self.arriving[i] > 0 {
                assert!(a.is_none(), "arrival offered mid-packet on input {i}");
                self.arriving[i] -= 1;
                continue;
            }
            if let Some(mask) = a {
                let excess = mask.checked_shr(self.cfg.n_out as u32).unwrap_or(0);
                assert!(*mask != 0 && excess == 0, "bad destination mask {mask:#x}");
                self.arriving[i] = self.stages - 1;
                if self.policy_static {
                    if self.buf_used == self.cfg.slots {
                        self.dropped += 1;
                        if let Some(p) = &self.probe {
                            p.emit(
                                c,
                                ProbeEvent::Drop {
                                    id: 0,
                                    reason: DropReason::BufferFull,
                                },
                            );
                        }
                        continue;
                    }
                } else if !self.policy_admit(*mask, c) {
                    continue;
                }
                self.arrived += 1;
                self.buf_used += 1;
                let id = self.arrived;
                let primary = mask.trailing_zeros() as usize;
                let output_was_idle = mask.count_ones() == 1
                    && self.queues[primary].is_empty()
                    && self.out_next_init[primary] <= c + 1;
                let pkt = BhvPacket {
                    id,
                    input: i,
                    dsts: *mask,
                    refs: mask.count_ones(),
                    birth: c,
                    write_start: None,
                    output_was_idle,
                };
                if let Some(p) = &self.probe {
                    p.emit(
                        c,
                        ProbeEvent::HeaderArrived {
                            input: i,
                            id,
                            dst: primary,
                        },
                    );
                }
                let slot = match self.free_slab.pop() {
                    Some(sl) => {
                        self.packets[sl] = Some(pkt);
                        sl
                    }
                    None => {
                        self.packets.push(Some(pkt));
                        self.packets.len() - 1
                    }
                };
                for j in 0..self.cfg.n_out {
                    if mask & (1 << j) != 0 {
                        self.queues[j].push_back(slot);
                    }
                }
                self.pending[i].push_back(PendingArrival {
                    slot,
                    eligible: c + 1,
                    deadline: c + s,
                });
            }
        }

        // 3. Latch-overrun sweep.
        for i in 0..self.cfg.n_in {
            while let Some(front) = self.pending[i].front() {
                if front.deadline >= c {
                    break;
                }
                let slot = front.slot;
                self.pending[i].pop_front();
                let p = self.packets[slot].take().expect("live packet");
                for j in 0..self.cfg.n_out {
                    if p.dsts & (1 << j) != 0 {
                        self.queues[j].retain(|&sl| sl != slot);
                    }
                }
                self.free_slab.push(slot);
                self.buf_used -= 1;
                self.overruns += 1;
                if let Some(probe) = &self.probe {
                    probe.emit(
                        c,
                        ProbeEvent::Drop {
                            id: p.id,
                            reason: DropReason::LatchOverrun,
                        },
                    );
                }
            }
        }

        // 4. Arbitration (scalar scans).
        let mut reads = std::mem::take(&mut self.scratch_reads);
        reads.clear();
        for j in 0..self.cfg.n_out {
            if c < self.out_next_init[j] {
                continue;
            }
            if let Some(&slot) = self.queues[j].front() {
                let p = self.packets[slot].as_ref().expect("queued packet live");
                let ready = match p.write_start {
                    None => false,
                    Some(ws) => {
                        if self.cfg.cut_through {
                            ws < c
                        } else {
                            c >= ws + s
                        }
                    }
                };
                if ready {
                    reads.push(ReadReq {
                        port: simkernel::ids::PortId(j),
                    });
                }
            }
        }
        let mut writes = std::mem::take(&mut self.scratch_writes);
        writes.clear();
        for (i, q) in self.pending.iter().enumerate() {
            if let Some(front) = q.front() {
                if front.eligible <= c {
                    writes.push(WriteReq {
                        port: simkernel::ids::PortId(i),
                        deadline: front.deadline,
                    });
                }
            }
        }
        let decision = self.arb.decide(&reads, &writes);
        if !reads.is_empty() || !writes.is_empty() {
            if let Some(p) = &self.probe {
                let outcome = match decision {
                    Decision::Read(_) => ArbOutcome::Read,
                    Decision::Write(_) => ArbOutcome::Write,
                    Decision::Idle => ArbOutcome::Idle,
                };
                p.emit(
                    c,
                    ProbeEvent::Arbitration {
                        reads: reads.len(),
                        writes: writes.len(),
                        outcome,
                    },
                );
            }
        }
        match decision {
            Decision::Read(j) => self.start_read(j.index(), c, false),
            Decision::Write(i) => {
                let pw = self.pending[i.index()].pop_front().expect("granted");
                let (dsts, fusable);
                {
                    let p = self.packets[pw.slot].as_mut().expect("live");
                    p.write_start = Some(c);
                    dsts = p.dsts;
                    fusable = self.cfg.fused_cut_through;
                }
                if let Some(p) = &self.probe {
                    p.emit(
                        c,
                        ProbeEvent::WriteWave {
                            input: i.index(),
                            addr: pw.slot,
                        },
                    );
                }
                if fusable {
                    for j in 0..self.cfg.n_out {
                        if dsts & (1 << j) == 0 {
                            continue;
                        }
                        if c >= self.out_next_init[j] && self.queues[j].front() == Some(&pw.slot) {
                            self.start_read(j, c, true);
                            break;
                        }
                    }
                }
            }
            Decision::Idle => {}
        }
        self.scratch_reads = reads;
        self.scratch_writes = writes;

        if let Some(p) = &self.probe {
            let occ = self.buf_used as u64;
            if occ != self.last_occ {
                self.last_occ = occ;
                p.emit(
                    c,
                    ProbeEvent::Gauge {
                        gauge: GaugeKind::Occupancy,
                        index: 0,
                        value: occ,
                    },
                );
            }
        }
        self.cycle = c + 1;
    }

    /// One non-static admission decision (scalar twin of the live
    /// model's `policy_admit`; same view, same evictability rule).
    fn policy_admit(&mut self, mask: u32, c: Cycle) -> bool {
        let dst = mask.trailing_zeros() as usize;
        let qlens: Vec<usize> = self.queues.iter().map(|q| q.len()).collect();
        let decision = self.policy.admit(&PolicyView {
            occupancy: self.buf_used,
            capacity: self.cfg.slots,
            dst,
            qlens: &qlens,
        });
        let admitted = match decision {
            AdmitDecision::Accept => true,
            AdmitDecision::Reject => false,
            AdmitDecision::Preempt { victim } => self.evict_rearmost(victim, c),
        };
        if !admitted {
            self.policy_drops += 1;
            if let Some(p) = &self.probe {
                p.emit(
                    c,
                    ProbeEvent::Drop {
                        id: 0,
                        reason: DropReason::AdmissionPolicy,
                    },
                );
            }
        }
        admitted
    }

    /// Evict the rearmost evictable packet of queue `victim` (write wave
    /// fully retired, no copy in transmission); see the live model.
    fn evict_rearmost(&mut self, victim: usize, c: Cycle) -> bool {
        let s = self.stages as Cycle;
        let mut found = None;
        for idx in (0..self.queues[victim].len()).rev() {
            let slot = self.queues[victim][idx];
            let p = self.packets[slot].as_ref().expect("queued slot is live");
            if p.write_start.is_none_or(|ws| c < ws + s) {
                continue;
            }
            if p.refs != p.dsts.count_ones() {
                continue;
            }
            found = Some(slot);
            break;
        }
        let Some(slot) = found else {
            return false;
        };
        let p = self.packets[slot].take().expect("live packet");
        for j in 0..self.cfg.n_out {
            if p.dsts & (1 << j) != 0 {
                self.queues[j].retain(|&sl| sl != slot);
            }
        }
        self.free_slab.push(slot);
        self.buf_used -= 1;
        self.policy_preempts += 1;
        if let Some(pr) = &self.probe {
            pr.emit(
                c,
                ProbeEvent::Drop {
                    id: p.id,
                    reason: DropReason::Preempted,
                },
            );
        }
        true
    }

    fn start_read(&mut self, j: usize, c: Cycle, fused: bool) {
        let slot = self.queues[j].pop_front().expect("read from empty queue");
        let dep = {
            let p = self.packets[slot].as_mut().expect("live packet");
            debug_assert!(p.refs > 0);
            p.refs -= 1;
            BehavioralDeparture {
                id: p.id,
                input: p.input,
                output: j,
                birth: p.birth,
                read_start: c,
                done: c + self.stages as Cycle,
                output_was_idle: p.output_was_idle,
            }
        };
        if let Some(p) = &self.probe {
            p.emit(
                c,
                ProbeEvent::ReadWave {
                    output: j,
                    addr: slot,
                    fused,
                },
            );
            let ws = self.packets[slot]
                .as_ref()
                .and_then(|p| p.write_start)
                .unwrap_or(c);
            if fused || (self.cfg.cut_through && c < ws + self.stages as Cycle) {
                p.emit(
                    c,
                    ProbeEvent::CutThrough {
                        output: j,
                        id: dep.id,
                        fused,
                    },
                );
            }
            if !fused {
                let earliest = if self.cfg.cut_through {
                    ws + 1
                } else {
                    ws + self.stages as Cycle
                };
                if c > earliest {
                    p.emit(
                        c,
                        ProbeEvent::StaggeredStart {
                            output: j,
                            id: dep.id,
                        },
                    );
                }
            }
        }
        if !self.policy_static {
            // BShare queueing-delay signal: birth-to-read latency.
            self.policy.on_read(j, c - dep.birth);
        }
        if self.packets[slot].as_ref().expect("live").refs == 0 {
            self.packets[slot] = None;
            self.free_slab.push(slot);
            self.buf_used -= 1;
        }
        self.out_next_init[j] = c + self.stages as Cycle;
        self.in_tx.push(dep);
    }

    /// All departures so far (accumulating).
    pub fn departures(&self) -> &[BehavioralDeparture] {
        &self.departures
    }

    /// True when the switch holds nothing.
    pub fn is_quiescent(&self) -> bool {
        self.buf_used == 0 && self.in_tx.is_empty() && self.arriving.iter().all(|&a| a == 0)
    }
}

// ---------------------------------------------------------------------------
// RTL (word-level) reference
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct OutBinding {
    out: PortId,
    id: u64,
    birth: Cycle,
}

#[derive(Debug, Clone)]
struct ActiveWave {
    start: Cycle,
    addr: Addr,
    write_from: Option<PortId>,
    read_to: Option<OutBinding>,
}

#[derive(Debug, Clone, Copy)]
struct OutWord {
    link: PortId,
    word: u64,
    tail_of: Option<(u64, Cycle)>,
}

#[derive(Debug, Clone)]
struct PendingWrite {
    addr: Addr,
    eligible: Cycle,
    deadline: Cycle,
}

#[derive(Debug, Clone, Default)]
struct InputState {
    k: usize,
    pending: VecDeque<PendingWrite>,
    addr: Option<Addr>,
    cur_id: u64,
    chk: u64,
    expected_id: Option<u64>,
    corrupt: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct OutVerify {
    id: u64,
    k: usize,
    corrupt: bool,
}

/// The pre-rework word-level model: per-stage bank sweeps via a wave
/// `Vec` + `retain`, eager `begin_cycle` over every bank, scalar
/// arbitration scans. See the module docs for why this copy exists.
#[derive(Debug)]
pub struct PipelinedSwitchRef {
    cfg: SwitchConfig,
    stages: usize,
    banks: Vec<SramBank>,
    latches: Vec<Vec<u64>>,
    latch_loads: Vec<(usize, usize, u64)>,
    inputs: Vec<InputState>,
    outreg_cur: Vec<Option<OutWord>>,
    outreg_next: Vec<Option<OutWord>>,
    out_next_init: Vec<Cycle>,
    out_verify: Vec<OutVerify>,
    stuck_write: Option<(usize, Cycle)>,
    mgr: BufferManager<Seal>,
    policy: PolicyEngine,
    policy_static: bool,
    arb: Arbiter,
    waves: Vec<ActiveWave>,
    cycle: Cycle,
    counters: SwitchCounters,
    probe: Option<ProbeHandle>,
    last_occ: u64,
    last_qdepth: Vec<u64>,
    last_controls: Vec<StageCtrl>,
    wire_out: Vec<Option<u64>>,
    scratch_reads: Vec<ReadReq>,
    scratch_writes: Vec<WriteReq>,
    scratch_dsts: Vec<PortId>,
}

impl PipelinedSwitchRef {
    /// Build a switch from a validated configuration.
    pub fn new(cfg: SwitchConfig) -> Self {
        cfg.validate();
        let stages = cfg.stages();
        let banks = (0..stages)
            .map(|_| SramBank::new(cfg.slots, 64, PortKind::SinglePort))
            .collect();
        PipelinedSwitchRef {
            stages,
            banks,
            latches: vec![vec![0; stages]; cfg.n_in],
            latch_loads: Vec::new(),
            inputs: vec![InputState::default(); cfg.n_in],
            outreg_cur: vec![None; stages],
            outreg_next: vec![None; stages],
            out_next_init: vec![0; cfg.n_out],
            out_verify: vec![OutVerify::default(); cfg.n_out],
            stuck_write: None,
            mgr: BufferManager::new(cfg.slots, cfg.n_out),
            policy: cfg.policy.engine(cfg.n_out, stages),
            policy_static: cfg.policy.is_static(),
            arb: Arbiter::new(cfg.arbiter),
            waves: Vec::new(),
            cycle: 0,
            counters: SwitchCounters::default(),
            probe: None,
            last_occ: 0,
            last_qdepth: vec![0; cfg.n_out],
            last_controls: vec![StageCtrl::Nop; stages],
            wire_out: vec![None; cfg.n_out],
            scratch_reads: Vec::with_capacity(cfg.n_out),
            scratch_writes: Vec::with_capacity(cfg.n_in),
            scratch_dsts: Vec::with_capacity(cfg.n_out),
            cfg,
        }
    }

    /// One non-static admission decision, scalar form (fresh queue-length
    /// `Vec` each call — the reference is deliberately not maintained for
    /// speed). Mirrors `PipelinedSwitch::policy_admit` decision for
    /// decision, including the evictability rule.
    #[allow(clippy::too_many_arguments)] // associated fn over disjoint field borrows
    fn policy_admit(
        policy: &mut PolicyEngine,
        mgr: &mut BufferManager<Seal>,
        counters: &mut SwitchCounters,
        probe: &Option<ProbeHandle>,
        n_out: usize,
        slots: usize,
        stages: usize,
        dst: usize,
        c: Cycle,
    ) -> bool {
        let s = stages as Cycle;
        let qlens: Vec<usize> = (0..n_out).map(|j| mgr.queue_len(j)).collect();
        let decision = policy.admit(&PolicyView {
            occupancy: mgr.occupancy(),
            capacity: slots,
            dst,
            qlens: &qlens,
        });
        match decision {
            AdmitDecision::Accept => true,
            AdmitDecision::Reject => false,
            AdmitDecision::Preempt { victim } => match mgr.rearmost_evictable(victim, c, s) {
                Some(slot) => {
                    let d = mgr.release(slot);
                    counters.policy_preempts += 1;
                    if let Some(p) = probe {
                        p.emit(
                            c,
                            ProbeEvent::Drop {
                                id: d.id,
                                reason: DropReason::Preempted,
                            },
                        );
                    }
                    true
                }
                None => false,
            },
        }
    }

    /// Attach a probe sink (same event stream as the live model).
    pub fn attach_probe(&mut self, probe: ProbeHandle) {
        self.probe = Some(probe);
    }

    /// Aggregate counters.
    pub fn counters(&self) -> SwitchCounters {
        self.counters
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.cycle
    }

    fn banks_checksum(&self, addr: Addr) -> u64 {
        integrity_checksum(self.banks.iter().map(|b| b.peek(addr)))
    }

    /// True if the switch holds no packets and no waves are in flight.
    pub fn is_quiescent(&self) -> bool {
        self.mgr.occupancy() == 0
            && self.waves.is_empty()
            && self.outreg_cur.iter().all(Option::is_none)
            && self.inputs.iter().all(|s| s.k == 0 && s.pending.is_empty())
    }

    /// The next cycle with work: none once quiescent, else this one (the
    /// scalar twin never skips).
    pub fn next_event(&self) -> Option<Cycle> {
        if self.is_quiescent() {
            None
        } else {
            Some(self.cycle)
        }
    }

    /// Advance one clock cycle; see `PipelinedSwitch::tick`.
    pub fn tick(&mut self, wire_in: &[Option<u64>]) -> &[Option<u64>] {
        assert_eq!(wire_in.len(), self.cfg.n_in, "one word slot per input");
        let c = self.cycle;
        let s = self.stages;

        // 1. Output links driven by the register row committed last cycle.
        let mut wire_out = std::mem::take(&mut self.wire_out);
        wire_out.clear();
        wire_out.resize(self.cfg.n_out, None);
        for ow in self.outreg_cur.iter().flatten() {
            let j = ow.link.index();
            assert!(
                wire_out[j].is_none(),
                "two output registers drove link {j} in cycle {c}"
            );
            wire_out[j] = Some(ow.word);
            if self.cfg.integrity.payload_check {
                let v = &mut self.out_verify[j];
                if v.k == 0 {
                    let (mask, id) = Packet::decode_header_any(ow.word);
                    v.id = id;
                    v.corrupt = mask & (1 << j) == 0;
                } else if ow.word != Packet::payload_word(v.id, v.k) {
                    v.corrupt = true;
                }
                v.k += 1;
            }
            if let Some((id, birth)) = ow.tail_of {
                self.counters.departed += 1;
                if let Some(p) = &self.probe {
                    p.emit(
                        c,
                        ProbeEvent::Departed {
                            output: j,
                            id,
                            birth,
                            latency: c - birth,
                        },
                    );
                }
                if self.cfg.integrity.payload_check {
                    if self.out_verify[j].corrupt {
                        self.counters.corrupt_delivered += 1;
                        if let Some(p) = &self.probe {
                            p.emit(
                                c,
                                ProbeEvent::Fault {
                                    id,
                                    kind: FaultTag::CorruptDelivered,
                                },
                            );
                        }
                    }
                    self.out_verify[j] = OutVerify::default();
                }
            }
        }

        // 2. Input arrivals.
        self.latch_loads.clear();
        for (i, w) in wire_in.iter().enumerate() {
            let st = &mut self.inputs[i];
            match w {
                Some(word) => {
                    if st.k == 0 {
                        let (mask, id) = Packet::decode_header_any(*word);
                        st.addr = None;
                        st.chk = 0;
                        st.corrupt = false;
                        st.expected_id = None;
                        let bad = mask == 0 || (mask >> self.cfg.n_out) != 0;
                        if bad && self.cfg.integrity.harden {
                            self.counters.arrived += 1;
                            self.counters.corrupt_drops += 1;
                            if let Some(p) = &self.probe {
                                p.emit(
                                    c,
                                    ProbeEvent::Drop {
                                        id,
                                        reason: DropReason::BadHeader,
                                    },
                                );
                            }
                        } else {
                            assert!(
                                !bad,
                                "packet {id} on input {i} addressed nonexistent outputs                              (mask {mask:#x}, {} outputs)",
                                self.cfg.n_out
                            );
                            let dst = mask.trailing_zeros() as usize;
                            self.counters.arrived += 1;
                            if let Some(p) = &self.probe {
                                p.emit(c, ProbeEvent::HeaderArrived { input: i, id, dst });
                            }
                            st.expected_id = self.cfg.integrity.payload_check.then_some(id);
                            st.cur_id = id;
                            let refused = !self.policy_static
                                && !Self::policy_admit(
                                    &mut self.policy,
                                    &mut self.mgr,
                                    &mut self.counters,
                                    &self.probe,
                                    self.cfg.n_out,
                                    self.cfg.slots,
                                    self.stages,
                                    dst,
                                    c,
                                );
                            if refused {
                                self.counters.policy_drops += 1;
                                if let Some(p) = &self.probe {
                                    p.emit(
                                        c,
                                        ProbeEvent::Drop {
                                            id,
                                            reason: DropReason::AdmissionPolicy,
                                        },
                                    );
                                }
                            } else if self.mgr.full() {
                                self.counters.dropped_buffer_full += 1;
                                if let Some(p) = &self.probe {
                                    p.emit(
                                        c,
                                        ProbeEvent::Drop {
                                            id,
                                            reason: DropReason::BufferFull,
                                        },
                                    );
                                }
                            } else {
                                let addr = Addr(self.mgr.alloc(id, i, mask, c, Seal::default()));
                                st.addr = Some(addr);
                                st.pending.push_back(PendingWrite {
                                    addr,
                                    eligible: c + 1,
                                    deadline: c + s as Cycle,
                                });
                            }
                        }
                    } else if let Some(id) = st.expected_id {
                        if *word != Packet::payload_word(id, st.k) {
                            st.corrupt = true;
                        }
                    }
                    st.chk = st.chk.rotate_left(1) ^ *word;
                    self.latch_loads.push((i, st.k, *word));
                    if let Some(p) = &self.probe {
                        p.emit(
                            c,
                            ProbeEvent::LatchLoad {
                                input: i,
                                stage: st.k,
                            },
                        );
                    }
                    st.k += 1;
                    if st.k == s {
                        st.k = 0;
                        if let Some(addr) = st.addr.take() {
                            let still_ours = self
                                .mgr
                                .get(addr.index())
                                .is_some_and(|d| d.id == st.cur_id);
                            if still_ours {
                                let seal = self.mgr.tag_mut(addr.index());
                                if st.corrupt {
                                    seal.poisoned = Some(IntegrityReason::PayloadMismatch);
                                }
                                if self.cfg.integrity.checksum {
                                    seal.checksum = Some(st.chk);
                                }
                            }
                        }
                        st.expected_id = None;
                    }
                }
                None => {
                    if st.k != 0 && self.cfg.integrity.harden {
                        if let Some(addr) = st.addr.take() {
                            if let Some(pos) = st.pending.iter().position(|p| p.addr == addr) {
                                st.pending.remove(pos);
                                let d = self.mgr.release(addr.index());
                                self.counters.corrupt_drops += 1;
                                if let Some(p) = &self.probe {
                                    p.emit(
                                        c,
                                        ProbeEvent::Drop {
                                            id: d.id,
                                            reason: DropReason::Truncated,
                                        },
                                    );
                                }
                            } else if self
                                .mgr
                                .get(addr.index())
                                .is_some_and(|d| d.id == st.cur_id)
                            {
                                self.mgr.tag_mut(addr.index()).poisoned =
                                    Some(IntegrityReason::TruncatedPacket);
                            }
                        }
                        st.k = 0;
                        st.chk = 0;
                        st.corrupt = false;
                        st.expected_id = None;
                    } else {
                        assert!(
                            st.k == 0,
                            "link protocol violation: idle cycle inside a packet on input {i}"
                        );
                    }
                }
            }
        }

        // 3. Latch-overrun sweep.
        for i in 0..self.cfg.n_in {
            while let Some(front) = self.inputs[i].pending.front() {
                if front.deadline >= c {
                    break;
                }
                let addr = front.addr;
                self.inputs[i].pending.pop_front();
                let d = self.mgr.release(addr.index());
                self.counters.latch_overruns += 1;
                if let Some(p) = &self.probe {
                    p.emit(
                        c,
                        ProbeEvent::Drop {
                            id: d.id,
                            reason: DropReason::LatchOverrun,
                        },
                    );
                }
            }
        }

        // 4. Arbitration (scalar scans).
        let mut reads = std::mem::take(&mut self.scratch_reads);
        reads.clear();
        for j in 0..self.cfg.n_out {
            if c < self.out_next_init[j] {
                continue;
            }
            if let Some(head) = self.mgr.head(j) {
                let ready = match self.mgr.write_start(head) {
                    None => false,
                    Some(ws) => {
                        if self.cfg.cut_through {
                            ws < c
                        } else {
                            c >= ws + s as Cycle
                        }
                    }
                };
                if ready {
                    reads.push(ReadReq { port: PortId(j) });
                }
            }
        }
        let mut writes = std::mem::take(&mut self.scratch_writes);
        writes.clear();
        for (i, st) in self.inputs.iter().enumerate() {
            if let Some(front) = st.pending.front() {
                if front.eligible <= c {
                    writes.push(WriteReq {
                        port: PortId(i),
                        deadline: front.deadline,
                    });
                }
            }
        }
        let had_work = !reads.is_empty() || !writes.is_empty();
        if !reads.is_empty() && !writes.is_empty() {
            self.counters.rw_collisions += 1;
        }
        let decision = self.arb.decide(&reads, &writes);
        if had_work {
            if let Some(p) = &self.probe {
                let outcome = match decision {
                    Decision::Read(_) => ArbOutcome::Read,
                    Decision::Write(_) => ArbOutcome::Write,
                    Decision::Idle => ArbOutcome::Idle,
                };
                p.emit(
                    c,
                    ProbeEvent::Arbitration {
                        reads: reads.len(),
                        writes: writes.len(),
                        outcome,
                    },
                );
            }
        }
        match decision {
            Decision::Read(j) => {
                let (slot, d, freed) = self.mgr.pop(j.index());
                let (addr, write_start) = (Addr(slot), self.mgr.write_start(slot));
                let scrub_fail = self.cfg.integrity.checksum
                    && write_start.is_some_and(|ws| c >= ws + s as Cycle)
                    && d.tag
                        .checksum
                        .is_some_and(|sum| self.banks_checksum(addr) != sum);
                if d.tag.poisoned.is_some() || scrub_fail {
                    if freed {
                        self.counters.corrupt_drops += 1;
                        if let Some(p) = &self.probe {
                            p.emit(
                                c,
                                ProbeEvent::Drop {
                                    id: d.id,
                                    reason: drop_reason(
                                        d.tag.poisoned.unwrap_or(IntegrityReason::ChecksumMismatch),
                                    ),
                                },
                            );
                        }
                    }
                } else {
                    self.out_next_init[j.index()] = c + s as Cycle;
                    if !self.policy_static {
                        self.policy.on_read(j.index(), c - d.birth);
                    }
                    if let Some(p) = &self.probe {
                        p.emit(
                            c,
                            ProbeEvent::ReadWave {
                                output: j.index(),
                                addr: addr.index(),
                                fused: false,
                            },
                        );
                        let earliest = write_start.map(|ws| {
                            if self.cfg.cut_through {
                                ws + 1
                            } else {
                                ws + s as Cycle
                            }
                        });
                        if earliest.is_some_and(|e| c > e) {
                            p.emit(
                                c,
                                ProbeEvent::StaggeredStart {
                                    output: j.index(),
                                    id: d.id,
                                },
                            );
                        }
                        if write_start.is_some_and(|ws| c < ws + s as Cycle) {
                            p.emit(
                                c,
                                ProbeEvent::CutThrough {
                                    output: j.index(),
                                    id: d.id,
                                    fused: false,
                                },
                            );
                        }
                    }
                    self.waves.push(ActiveWave {
                        start: c,
                        addr,
                        write_from: None,
                        read_to: Some(OutBinding {
                            out: j,
                            id: d.id,
                            birth: d.birth,
                        }),
                    });
                }
            }
            Decision::Write(i) => {
                let pw = self.inputs[i.index()]
                    .pending
                    .pop_front()
                    .expect("arbiter granted a write with no pending request");
                self.mgr.start_write(pw.addr.index(), c);
                if let Some(p) = &self.probe {
                    p.emit(
                        c,
                        ProbeEvent::WriteWave {
                            input: i.index(),
                            addr: pw.addr.index(),
                        },
                    );
                }
                let mut wave = ActiveWave {
                    start: c,
                    addr: pw.addr,
                    write_from: Some(i),
                    read_to: None,
                };
                let d = self.mgr.entry(pw.addr.index());
                if self.cfg.fused_cut_through && d.tag.poisoned.is_none() {
                    let (id, birth) = (d.id, d.birth);
                    let mut dsts = std::mem::take(&mut self.scratch_dsts);
                    dsts.clear();
                    dsts.extend(simkernel::bits(d.dsts).map(PortId));
                    for &dst in &dsts {
                        if c < self.out_next_init[dst.index()] {
                            continue;
                        }
                        if self.mgr.head(dst.index()) != Some(pw.addr.index()) {
                            continue;
                        }
                        let (addr2, d2, _freed) = self.mgr.pop(dst.index());
                        debug_assert_eq!(addr2, pw.addr.index());
                        debug_assert_eq!(d2.id, id);
                        self.out_next_init[dst.index()] = c + s as Cycle;
                        if !self.policy_static {
                            self.policy.on_read(dst.index(), c - d2.birth);
                        }
                        self.counters.fused_reads += 1;
                        if let Some(p) = &self.probe {
                            p.emit(
                                c,
                                ProbeEvent::ReadWave {
                                    output: dst.index(),
                                    addr: pw.addr.index(),
                                    fused: true,
                                },
                            );
                            p.emit(
                                c,
                                ProbeEvent::CutThrough {
                                    output: dst.index(),
                                    id,
                                    fused: true,
                                },
                            );
                        }
                        wave.read_to = Some(OutBinding {
                            out: dst,
                            id,
                            birth,
                        });
                        break;
                    }
                    self.scratch_dsts = dsts;
                }
                self.waves.push(wave);
            }
            Decision::Idle => {
                if had_work {
                    self.counters.idle_with_work += 1;
                }
            }
        }
        self.scratch_reads = reads;
        self.scratch_writes = writes;

        // 5. Stage execution (eager begin_cycle over every bank).
        for b in &mut self.banks {
            b.begin_cycle(c);
        }
        for ctrl in self.last_controls.iter_mut() {
            *ctrl = StageCtrl::Nop;
        }
        for w in &self.waves {
            let k = (c - w.start) as usize;
            debug_assert!(k < s);
            let bank = &mut self.banks[k];
            let bus_value = match w.write_from {
                Some(i) => {
                    let v = self.latches[i.index()][k];
                    let stuck = self
                        .stuck_write
                        .is_some_and(|(ks, until)| ks == k && c <= until);
                    if stuck {
                        self.counters.writes_suppressed += 1;
                    } else {
                        bank.write(w.addr, v)
                            .expect("wave stagger guarantees bank availability");
                    }
                    Some(v)
                }
                None => None,
            };
            if let Some(rb) = &w.read_to {
                let v = match bus_value {
                    Some(v) => v,
                    None => bank
                        .read(w.addr)
                        .expect("wave stagger guarantees bank availability"),
                };
                debug_assert!(
                    self.outreg_next[k].is_none(),
                    "two waves loaded output register {k} in cycle {c}"
                );
                self.outreg_next[k] = Some(OutWord {
                    link: rb.out,
                    word: v,
                    tail_of: (k + 1 == s).then_some((rb.id, rb.birth)),
                });
            }
            self.last_controls[k] = match (&w.write_from, &w.read_to) {
                (Some(i), None) => StageCtrl::Write {
                    addr: w.addr,
                    link: *i,
                },
                (None, Some(rb)) => StageCtrl::Read {
                    addr: w.addr,
                    link: rb.out,
                },
                (Some(i), Some(rb)) => StageCtrl::Fused {
                    addr: w.addr,
                    input: *i,
                    output: rb.out,
                },
                (None, None) => unreachable!("wave with no operation"),
            };
            if let Some(p) = &self.probe {
                let op = match (&w.write_from, &w.read_to) {
                    (Some(_), None) => WaveDir::Write,
                    (None, Some(_)) => WaveDir::Read,
                    _ => WaveDir::Fused,
                };
                p.emit(
                    c,
                    ProbeEvent::BankAccess {
                        stage: k,
                        addr: w.addr.index(),
                        op,
                        input: w.write_from.map(PortId::index),
                        output: w.read_to.as_ref().map(|rb| rb.out.index()),
                    },
                );
            }
        }

        // 6. Clock edge.
        for &(i, k, word) in &self.latch_loads {
            self.latches[i][k] = word;
        }
        std::mem::swap(&mut self.outreg_cur, &mut self.outreg_next);
        for o in self.outreg_next.iter_mut() {
            *o = None;
        }
        self.waves.retain(|w| ((c - w.start) as usize) + 1 < s);
        if let Some(p) = &self.probe {
            let occ = self.mgr.occupancy() as u64;
            if occ != self.last_occ {
                self.last_occ = occ;
                p.emit(
                    c,
                    ProbeEvent::Gauge {
                        gauge: GaugeKind::Occupancy,
                        index: 0,
                        value: occ,
                    },
                );
            }
            for j in 0..self.cfg.n_out {
                let depth = self.mgr.queue_len(j) as u64;
                if depth != self.last_qdepth[j] {
                    self.last_qdepth[j] = depth;
                    p.emit(
                        c,
                        ProbeEvent::Gauge {
                            gauge: GaugeKind::QueueDepth,
                            index: j,
                            value: depth,
                        },
                    );
                }
            }
        }
        self.cycle = c + 1;
        self.wire_out = wire_out;
        &self.wire_out
    }
}
