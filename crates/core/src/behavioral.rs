//! Cell-level behavioral model of the pipelined shared-buffer switch.
//!
//! Same initiation semantics as the RTL model — one wave per cycle, read
//! priority, EDF writes, automatic cut-through, per-output FIFO service,
//! shared buffer pool — but packets are descriptors, not words, so a
//! million-cycle statistical run costs microseconds per thousand cycles
//! instead of full bank sweeps. Experiments E3/E6/E15 run on this model;
//! an integration test pins its departure timing to the RTL model's,
//! cycle for cycle, on randomized workloads.
//!
//! ## Model of time
//!
//! The clock is the word clock of the RTL model. A packet is `S = n_in +
//! n_out` words; a packet arriving on input `i` occupies that link for
//! cycles `[a, a+S-1]`; a packet departing on output `j` occupies it for
//! `[rs+1, rs+S]` where `rs` is its read-wave initiation cycle.
//!
//! ## The bit-parallel dense path
//!
//! The per-cycle hot loop never walks the output queues or the packet
//! slab. Instead the model maintains three flat arrays — `ready_at[j]`
//! (earliest read-initiation cycle for output `j`'s current head,
//! `Cycle::MAX` when none), `welig_at[i]` / `wdead_at[i]` (eligibility
//! and latch deadline of input `i`'s front pending write) — and each
//! cycle folds them into packed `u64` request masks with branchless
//! compares. The masks feed [`Arbiter::decide_dense`]; popcounts feed
//! the arbitration probe event. The arrays are refreshed only at the
//! control points where the underlying state can change (queue push,
//! write grant, read initiation, overrun), so a steady-state cycle costs
//! a handful of word operations instead of pointer-chasing scans. The
//! scalar-reference twin ([`crate::reference::BehavioralSwitchRef`]) and
//! the differential property test pin this path byte-identical —
//! departures, counters, and probe streams — to the pre-rework model.

use crate::arbiter::{Arbiter, Decision, ReadReq, WriteReq};
use crate::config::SwitchConfig;
use crate::ctl::{Arrival, ControlPlane};
use crate::recovery::RecoveryConfig;
use simkernel::ids::Cycle;
use std::collections::VecDeque;
use telemetry::{ArbOutcome, DropReason, ProbeEvent};

/// A departed packet, as reported by the behavioral model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BehavioralDeparture {
    /// Packet id.
    pub id: u64,
    /// Input of arrival.
    pub input: usize,
    /// Output of departure.
    pub output: usize,
    /// Cycle the header arrived.
    pub birth: Cycle,
    /// Cycle the read wave initiated (first word on the wire at `rs+1`).
    pub read_start: Cycle,
    /// Cycle the tail word was transmitted (`rs + S`).
    pub done: Cycle,
    /// True if, at header arrival, the destination output was idle and
    /// its queue empty — a pure cut-through candidate. §3.4's staggered-
    /// initiation analysis applies exactly to these packets: any delay
    /// beyond `read_start = birth + 1` came from losing initiation slots
    /// to other waves, not from ordinary output queueing.
    pub output_was_idle: bool,
}

impl BehavioralDeparture {
    /// Cut-through latency: first word out minus header in.
    /// The uncontended minimum is 2 (write wave at `a+1`, fused read).
    pub fn head_latency(&self) -> u64 {
        (self.read_start + 1).saturating_sub(self.birth)
    }

    /// Full-packet latency: tail out minus header in.
    pub fn tail_latency(&self) -> u64 {
        self.done.saturating_sub(self.birth)
    }
}

#[derive(Debug, Clone)]
struct BhvPacket {
    id: u64,
    input: usize,
    /// Destination bitmask (one bit per output; unicast = one bit).
    dsts: u32,
    /// Copies not yet claimed by a read initiation.
    refs: u32,
    birth: Cycle,
    output_was_idle: bool,
}

#[derive(Debug, Clone, Copy)]
struct PendingArrival {
    /// Index into `packets` slab.
    slot: usize,
    eligible: Cycle,
    deadline: Cycle,
}

/// Fixed-capacity ring of pending writes per input. Arrivals are spaced
/// `S` cycles apart and a pending write lives at most `S` cycles before
/// it is granted or swept, so the queue never holds more than three
/// entries (two steady-state, three transiently on an overrun cycle).
#[derive(Debug, Clone)]
struct PendingRing {
    buf: [PendingArrival; 4],
    head: u8,
    len: u8,
}

impl PendingRing {
    fn new() -> Self {
        PendingRing {
            buf: [PendingArrival {
                slot: 0,
                eligible: 0,
                deadline: 0,
            }; 4],
            head: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    fn front(&self) -> Option<&PendingArrival> {
        (self.len > 0).then(|| &self.buf[self.head as usize])
    }

    fn push_back(&mut self, p: PendingArrival) {
        assert!(self.len < 4, "pending ring overflow");
        self.buf[(self.head as usize + self.len as usize) & 3] = p;
        self.len += 1;
    }

    fn pop_front(&mut self) -> Option<PendingArrival> {
        (self.len > 0).then(|| {
            let p = self.buf[self.head as usize];
            self.head = (self.head + 1) & 3;
            self.len -= 1;
            p
        })
    }
}

/// The behavioral switch.
#[derive(Debug)]
pub struct BehavioralSwitch {
    cfg: SwitchConfig,
    stages: usize,
    /// Slab of live packets (slot reuse via free list).
    packets: Vec<Option<BhvPacket>>,
    /// Write-wave start cycle per slab slot (`Cycle::MAX` until the
    /// write wave is granted) — kept outside the slab so the hot
    /// readiness refresh reads one word, not a packet struct.
    wstart: Vec<Cycle>,
    free_slab: Vec<usize>,
    /// Buffer slots in use (≤ cfg.slots).
    buf_used: usize,
    /// Per-input: pending write requests.
    pending: Vec<PendingRing>,
    /// Per-input: cycles remaining of the packet currently on the wire.
    arriving: Vec<usize>,
    /// Per-output FIFO of slab indices.
    queues: Vec<VecDeque<usize>>,
    /// Per-output: earliest next read initiation.
    out_next_init: Vec<Cycle>,
    /// Bit-parallel dense-path state: earliest cycle output `j` could
    /// initiate a read for its current queue head (`Cycle::MAX` when the
    /// queue is empty or the head's write wave has not started). Already
    /// folds `out_next_init`.
    ready_at: Vec<Cycle>,
    /// Eligibility cycle of each input's front pending write
    /// (`Cycle::MAX` when none).
    welig_at: Vec<Cycle>,
    /// Latch deadline of each input's front pending write (`Cycle::MAX`
    /// when none) — doubles as the overrun-sweep guard.
    wdead_at: Vec<Cycle>,
    /// Earliest `done` cycle among in-flight transmissions (`Cycle::MAX`
    /// when none).
    tx_next_done: Cycle,
    /// More ports than a machine word: fall back to slice-based
    /// arbitration (cold; no shipped configuration hits this).
    wide_ports: bool,
    /// Cycles from write-wave start to head readiness: 1 under
    /// cut-through, `S` store-and-forward (precomputed from `cfg`).
    ready_base: Cycle,
    arb: Arbiter,
    cycle: Cycle,
    /// Counters, probe and sharing policy — the control plane the
    /// word-level organizations own too (DESIGN.md §14). There are no
    /// memory words here, so its recovery ladder stays disarmed.
    ctl: ControlPlane,
    /// Packets accepted so far; the next one's id is `accepted + 1`.
    accepted: u64,
    /// Every departure, written once at read initiation. One initiation
    /// per cycle and `done = rs + S` make done cycles strictly increasing
    /// in push order, so `departures[..committed]` is exactly the
    /// completed set and `departures[committed..]` the in-flight
    /// transmissions, in completion order.
    departures: Vec<BehavioralDeparture>,
    /// Departures whose tail word has been transmitted.
    committed: usize,
    /// Index into `departures` where this cycle's completions start —
    /// `tick` returns `&departures[dep_mark..committed]`.
    dep_mark: usize,
    /// Reusable per-cycle scratch (hot path: one `tick` per simulated
    /// cycle, millions per experiment — these must not allocate).
    scratch_masks: Vec<Option<u32>>,
    scratch_reads: Vec<ReadReq>,
    scratch_writes: Vec<WriteReq>,
}

impl BehavioralSwitch {
    /// Build from a configuration (same struct as the RTL model).
    pub fn new(cfg: SwitchConfig) -> Self {
        cfg.validate();
        let stages = cfg.stages();
        BehavioralSwitch {
            stages,
            packets: Vec::new(),
            wstart: Vec::new(),
            free_slab: Vec::new(),
            buf_used: 0,
            pending: vec![PendingRing::new(); cfg.n_in],
            arriving: vec![0; cfg.n_in],
            queues: vec![VecDeque::new(); cfg.n_out],
            out_next_init: vec![0; cfg.n_out],
            ready_at: vec![Cycle::MAX; cfg.n_out],
            welig_at: vec![Cycle::MAX; cfg.n_in],
            wdead_at: vec![Cycle::MAX; cfg.n_in],
            tx_next_done: Cycle::MAX,
            wide_ports: cfg.n_in > 64, // `validate` caps `n_out` at 32
            ready_base: if cfg.cut_through { 1 } else { stages as Cycle },
            arb: Arbiter::new(cfg.arbiter),
            cycle: 0,
            ctl: ControlPlane::new(cfg.n_out, stages, cfg.policy, RecoveryConfig::default(), 0),
            accepted: 0,
            departures: Vec::new(),
            committed: 0,
            dep_mark: 0,
            scratch_masks: Vec::with_capacity(cfg.n_in),
            scratch_reads: Vec::with_capacity(cfg.n_out),
            scratch_writes: Vec::with_capacity(cfg.n_in),
            cfg,
        }
    }

    /// Packet slots currently occupied.
    pub fn occupancy(&self) -> usize {
        self.buf_used
    }

    /// Packet size in words (the quantum, `n_in + n_out`).
    pub fn packet_words(&self) -> usize {
        self.stages
    }

    /// True when an arrival can be offered on input `i` this cycle (the
    /// link is not mid-packet).
    pub fn input_free(&self, i: usize) -> bool {
        self.arriving[i] == 0
    }

    /// Packets queued for output `j` (including one mid-transmission).
    pub fn queue_len(&self, j: usize) -> usize {
        self.queues[j].len()
    }

    /// Advance one cycle. `arrivals[i] = Some(dst)` offers a new packet
    /// header on input `i` (only when [`BehavioralSwitch::input_free`];
    /// offering mid-packet panics — the caller owns link pacing, exactly
    /// as with the RTL model). `id` tagging is internal.
    ///
    /// Returns the packets whose tail word completed this cycle. The
    /// slice borrows internal scratch and is valid until the next tick.
    pub fn tick(&mut self, arrivals: &[Option<usize>]) -> &[BehavioralDeparture] {
        // Reuse the mask buffer across cycles; `mem::take` sidesteps the
        // simultaneous borrow of the buffer and `&mut self`.
        let mut masks = std::mem::take(&mut self.scratch_masks);
        masks.clear();
        masks.extend(arrivals.iter().map(|a| a.map(|d| 1u32 << d)));
        self.dispatch_advance(&masks);
        self.scratch_masks = masks;
        &self.departures[self.dep_mark..self.committed]
    }

    /// Like [`BehavioralSwitch::tick`] but arrivals carry destination
    /// bitmasks (multicast parity with the RTL model).
    pub fn tick_masks(&mut self, arrivals: &[Option<u32>]) -> &[BehavioralDeparture] {
        self.dispatch_advance(arrivals);
        &self.departures[self.dep_mark..self.committed]
    }

    /// Monomorphization split: the probe is attached once (or never),
    /// so the per-cycle kernel is compiled twice — with every call that
    /// only emits folded away, and with them live — and the `PROBED`
    /// branch is taken once per entry instead of several times per cycle.
    /// What also counts (`departed`, `drop`) is called in both, and pays
    /// the control plane's one predictable branch per packet.
    #[inline]
    fn dispatch_advance(&mut self, arrivals: &[Option<u32>]) {
        if self.ctl.probed() {
            self.advance::<true>(arrivals);
        } else {
            self.advance::<false>(arrivals);
        }
    }

    /// One cycle of the model; this cycle's completed departures are
    /// `departures[dep_mark..committed]` afterwards.
    fn advance<const PROBED: bool>(&mut self, arrivals: &[Option<u32>]) {
        assert_eq!(arrivals.len(), self.cfg.n_in);
        let c = self.cycle;
        let s = self.stages as Cycle;
        self.dep_mark = self.committed;

        // 1. Completed transmission.
        self.complete_tx(c);

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
                let primary = mask.trailing_zeros() as usize;
                // Every offered header counts as arrived (the RTL's
                // convention); only an accepted one is announced, below.
                // A refusal precedes the id, which numbers accepted
                // packets: its drop event says 0, "no id".
                self.ctl.counters.arrived += 1;
                // The static pool never consults the policy, and the
                // call stays out of line: inlined, the policy path costs
                // the dense loop 3–5 % (the dense floors of `expt bench`).
                if !self.cfg.policy.is_static() && !self.admitted_by_policy(primary, c) {
                    continue;
                }
                if self.buf_used == self.cfg.slots {
                    self.ctl.drop(c, 0, DropReason::BufferFull);
                    continue;
                }
                self.accepted += 1;
                self.buf_used += 1;
                let id = self.accepted;
                let output_was_idle = mask.count_ones() == 1
                    && self.queues[primary].is_empty()
                    && self.out_next_init[primary] <= c + 1;
                let pkt = BhvPacket {
                    id,
                    input: i,
                    dsts: *mask,
                    refs: mask.count_ones(),
                    birth: c,
                    output_was_idle,
                };
                if PROBED {
                    let (input, dst) = (i, primary);
                    let event = ProbeEvent::HeaderArrived { input, id, dst };
                    self.ctl.emit(c, event);
                }
                let slot = match self.free_slab.pop() {
                    Some(sl) => {
                        self.packets[sl] = Some(pkt);
                        self.wstart[sl] = Cycle::MAX;
                        sl
                    }
                    None => {
                        self.packets.push(Some(pkt));
                        self.wstart.push(Cycle::MAX);
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
                if self.pending[i].len() == 1 {
                    self.welig_at[i] = c + 1;
                    self.wdead_at[i] = c + s;
                }
                // No `ready_at` refresh: a fresh queue head has no write
                // wave yet, so its readiness stays `Cycle::MAX` either way.
            }
        }

        // 3. Latch-overrun sweep; 4. arbitration.
        self.sweep_if_overdue(c);
        self.arbitrate::<PROBED>(c);
        if PROBED {
            self.ctl.gauge_occupancy(c, self.buf_used);
        }
        self.cycle = c + 1;
    }

    /// Run `n` input-idle cycles as one fused batch — the bit-parallel
    /// kernel's multi-cycle entry point. Identical observable behavior
    /// to `n` calls of [`BehavioralSwitch::tick`] with all-`None`
    /// arrivals (same grants, probes, counters, departures), but the
    /// per-tick wrapper, the arrival scan, and the per-cycle link-pacing
    /// decrements are hoisted out of the loop: control can only change
    /// at arbitration decisions, so everything else fuses.
    ///
    /// Afterwards this batch's completed departures are
    /// `departures[dep_mark..committed]` (also the window
    /// [`BehavioralSwitch::tick`] would return).
    pub fn tick_idle_batch(&mut self, n: u64) {
        if self.ctl.probed() {
            self.idle_batch_impl::<true>(n);
        } else {
            self.idle_batch_impl::<false>(n);
        }
    }

    fn idle_batch_impl<const PROBED: bool>(&mut self, n: u64) {
        self.dep_mark = self.committed;
        let end = self.cycle + n;
        while self.cycle < end {
            let c = self.cycle;
            self.complete_tx(c);
            self.sweep_if_overdue(c);
            self.arbitrate::<PROBED>(c);
            if PROBED {
                self.ctl.gauge_occupancy(c, self.buf_used);
            }
            self.cycle = c + 1;
        }
        // Link pacing: under idle input the `arriving` counters only
        // drain, so the per-cycle decrements collapse to one subtract.
        let n = usize::try_from(n).unwrap_or(usize::MAX);
        for a in &mut self.arriving {
            *a = a.saturating_sub(n);
        }
    }

    /// Step 1: completed transmission — the cached next done-cycle turns
    /// the common nothing-completes cycle into one compare. Read
    /// initiations are unique per cycle, so done cycles are globally
    /// distinct: at most one transmission completes per cycle, and it is
    /// always the next uncommitted departure.
    #[inline]
    fn complete_tx(&mut self, c: Cycle) {
        if self.tx_next_done == c {
            let d = &self.departures[self.committed];
            self.ctl.departed(c, d.output, d.id, d.birth);
            self.committed += 1;
            self.tx_next_done = self
                .departures
                .get(self.committed)
                .map_or(Cycle::MAX, |d| d.done);
        }
    }

    /// Step 3: latch-overrun sweep (diagnostic; unreachable under
    /// shipped policies) — guarded by the cached front deadlines, so
    /// the steady state pays one compare per input.
    #[inline]
    fn sweep_if_overdue(&mut self, c: Cycle) {
        let mut overdue = false;
        for &d in &self.wdead_at {
            overdue |= d < c;
        }
        if overdue {
            for i in 0..self.cfg.n_in {
                while let Some(front) = self.pending[i].front() {
                    if front.deadline >= c {
                        break;
                    }
                    let slot = front.slot;
                    self.pending[i].pop_front();
                    let id = self.remove_packet(slot);
                    self.ctl.drop(c, id, DropReason::LatchOverrun);
                }
            }
            // Queue heads and pending fronts moved arbitrarily: rebuild
            // the flat request state (cold path).
            self.rebuild_request_state();
        }
    }

    /// Step 4: arbitration — fold the flat readiness arrays into packed
    /// request masks (one branchless compare per port), let the arbiter
    /// pick from the machine words, and execute the grant.
    #[inline]
    fn arbitrate<const PROBED: bool>(&mut self, c: Cycle) {
        let decision;
        if self.wide_ports {
            // Cold fallback for >64-port fabrics: same flat arrays,
            // slice-based requests.
            let mut reads = std::mem::take(&mut self.scratch_reads);
            reads.clear();
            for (j, &r) in self.ready_at.iter().enumerate() {
                if r <= c {
                    reads.push(ReadReq {
                        port: simkernel::ids::PortId(j),
                    });
                }
            }
            let mut writes = std::mem::take(&mut self.scratch_writes);
            writes.clear();
            for (i, &e) in self.welig_at.iter().enumerate() {
                if e <= c {
                    writes.push(WriteReq {
                        port: simkernel::ids::PortId(i),
                        deadline: self.wdead_at[i],
                    });
                }
            }
            decision = self.arb.decide(&reads, &writes);
            if PROBED && (!reads.is_empty() || !writes.is_empty()) {
                self.probe_arbitration(c, reads.len(), writes.len(), decision);
            }
            self.scratch_reads = reads;
            self.scratch_writes = writes;
        } else {
            let mut read_mask = 0u64;
            for (j, &r) in self.ready_at.iter().enumerate() {
                read_mask |= ((r <= c) as u64) << j;
            }
            let mut write_mask = 0u64;
            for (i, &e) in self.welig_at.iter().enumerate() {
                write_mask |= ((e <= c) as u64) << i;
            }
            // No requests → the arbiter idles without touching its state;
            // skip the call on the (low-load) common path. The popcounts
            // feed only the probe event, so they live in its branch.
            if read_mask | write_mask == 0 {
                decision = Decision::Idle;
            } else {
                decision = self.arb.decide_dense(read_mask, write_mask, &self.wdead_at);
                if PROBED {
                    let (reads, writes) = (read_mask.count_ones(), write_mask.count_ones());
                    self.probe_arbitration(c, reads as usize, writes as usize, decision);
                }
            }
        }
        match decision {
            Decision::Read(j) => self.start_read::<PROBED>(j.index(), c, false),
            Decision::Write(i) => {
                let i = i.index();
                let pw = self.pending[i].pop_front().expect("granted");
                match self.pending[i].front() {
                    None => {
                        self.welig_at[i] = Cycle::MAX;
                        self.wdead_at[i] = Cycle::MAX;
                    }
                    Some(f) => {
                        self.welig_at[i] = f.eligible;
                        self.wdead_at[i] = f.deadline;
                    }
                }
                self.wstart[pw.slot] = c;
                let dsts = self.packets[pw.slot].as_ref().expect("live").dsts;
                let fusable = self.cfg.fused_cut_through;
                if PROBED {
                    self.ctl.write_wave(c, i, pw.slot);
                }
                // The write wave makes this packet readable wherever it
                // heads a destination queue; the first idle such output
                // (ascending) fuses a read onto the write wave.
                let head_ready = c + self.ready_base;
                let mut fused_done = false;
                let mut m = dsts;
                while m != 0 {
                    let j = m.trailing_zeros() as usize;
                    m &= m - 1;
                    if self.queues[j].front() == Some(&pw.slot) {
                        self.ready_at[j] = head_ready.max(self.out_next_init[j]);
                        if fusable && !fused_done && c >= self.out_next_init[j] {
                            self.start_read::<PROBED>(j, c, true);
                            fused_done = true;
                        }
                    }
                }
            }
            Decision::Idle => {}
        }
    }

    /// Does the sharing policy let an arrival for output `dst` in? The
    /// shared control plane decides, charges and announces a refusal,
    /// and on a preemption evicts the rearmost *evictable* packet of the
    /// victim queue.
    #[cold]
    fn admitted_by_policy(&mut self, dst: usize, c: Cycle) -> bool {
        let s = self.stages as Cycle;
        let arrival = Arrival {
            c,
            id: 0,
            dst,
            occupancy: self.buf_used,
            capacity: self.cfg.slots,
        };
        // The eviction closure only names the victim's slab slot (both
        // closures read the queues); it is reclaimed once `admit` is back.
        let mut evicted = None;
        let admitted = self.ctl.admit(
            arrival,
            &mut evicted,
            |_, j| self.queues[j].len(),
            |evicted, victim| {
                // Evictable: the write wave has fully retired (`c ≥ ws +
                // S` — freeing a slot mid-write would let the reallocated
                // address collide with the in-flight wave on the RTL
                // model) and no copy is in transmission (`refs` still
                // equals the fanout; reads pop their queue entry at
                // initiation, so queued entries can only lose refs
                // through other queues of a multicast).
                let (slot, id) = self.queues[victim].iter().rev().find_map(|&slot| {
                    let ws = self.wstart[slot];
                    let p = self.packets[slot].as_ref().expect("queued slot is live");
                    let evictable =
                        ws != Cycle::MAX && c >= ws + s && p.refs == p.dsts.count_ones();
                    evictable.then_some((slot, p.id))
                })?;
                *evicted = Some(slot);
                Some(id)
            },
        );
        if let Some(slot) = evicted {
            self.remove_packet(slot);
        }
        admitted
    }

    /// Packet `slot` is lost (evicted by the sharing policy, or swept as
    /// a latch overrun): it leaves *all* its queues and frees its slot.
    /// Returns its id.
    fn remove_packet(&mut self, slot: usize) -> u64 {
        let p = self.packets[slot].take().expect("live packet");
        for j in 0..self.cfg.n_out {
            if p.dsts & (1 << j) != 0 {
                self.queues[j].retain(|&sl| sl != slot);
                self.refresh_ready(j);
            }
        }
        self.free_slab.push(slot);
        self.buf_used -= 1;
        p.id
    }

    /// Telemetry for one arbitration (probed instantiation only).
    fn probe_arbitration(&self, c: Cycle, reads: usize, writes: usize, decision: Decision) {
        let outcome = match decision {
            Decision::Read(_) => ArbOutcome::Read,
            Decision::Write(_) => ArbOutcome::Write,
            Decision::Idle => ArbOutcome::Idle,
        };
        let event = ProbeEvent::Arbitration {
            reads,
            writes,
            outcome,
        };
        self.ctl.emit(c, event);
    }

    fn start_read<const PROBED: bool>(&mut self, j: usize, c: Cycle, fused: bool) {
        let slot = self.queues[j].pop_front().expect("read from empty queue");
        let (dep, free) = {
            let p = self.packets[slot].as_mut().expect("live packet");
            debug_assert!(p.refs > 0);
            p.refs -= 1;
            (
                BehavioralDeparture {
                    id: p.id,
                    input: p.input,
                    output: j,
                    birth: p.birth,
                    read_start: c,
                    done: c + self.stages as Cycle,
                    output_was_idle: p.output_was_idle,
                },
                p.refs == 0,
            )
        };
        if PROBED {
            self.probe_read(j, c, fused, slot, &dep);
        }
        // BShare queueing-delay signal: birth-to-read latency.
        self.ctl.on_read(j, c - dep.birth);
        if free {
            self.packets[slot] = None;
            self.free_slab.push(slot);
            self.buf_used -= 1;
        }
        self.out_next_init[j] = c + self.stages as Cycle;
        self.tx_next_done = self.tx_next_done.min(dep.done);
        self.departures.push(dep);
        self.refresh_ready(j);
    }

    /// Telemetry for a read initiation (only compiled into the probed
    /// instantiation of the kernel).
    #[cold]
    fn probe_read(&self, j: usize, c: Cycle, fused: bool, slot: usize, dep: &BehavioralDeparture) {
        // A fused read starts on the write wave itself; an unfused one
        // measures its stagger against the packet's write start (`c` for
        // heads granted their read before any write wave — impossible
        // today, but kept defensive).
        let ws = self.wstart[slot];
        let ws = if ws == Cycle::MAX { c } else { ws };
        self.ctl.read_wave(c, j, slot, fused);
        // Cut-through: the read overlaps the write wave still
        // depositing this packet (always true for the fused form).
        if fused || (self.cfg.cut_through && c < ws + self.stages as Cycle) {
            self.ctl.cut_through(c, j, dep.id, fused);
        }
        if !fused {
            let earliest = if self.cfg.cut_through {
                ws + 1
            } else {
                ws + self.stages as Cycle
            };
            if c > earliest {
                let event = ProbeEvent::StaggeredStart {
                    output: j,
                    id: dep.id,
                };
                self.ctl.emit(c, event);
            }
        }
    }

    /// Recompute `ready_at[j]` from output `j`'s queue head — control-
    /// point maintenance of the dense-path arrays.
    fn refresh_ready(&mut self, j: usize) {
        self.ready_at[j] = match self.queues[j].front() {
            None => Cycle::MAX,
            Some(&slot) => {
                let ws = self.wstart[slot];
                if ws == Cycle::MAX {
                    Cycle::MAX
                } else {
                    (ws + self.ready_base).max(self.out_next_init[j])
                }
            }
        };
    }

    /// Full rebuild of the dense-path request arrays. Cold path: only an
    /// overrun sweep rearranges queues arbitrarily enough to need it.
    fn rebuild_request_state(&mut self) {
        for j in 0..self.cfg.n_out {
            self.refresh_ready(j);
        }
        for i in 0..self.cfg.n_in {
            match self.pending[i].front() {
                None => {
                    self.welig_at[i] = Cycle::MAX;
                    self.wdead_at[i] = Cycle::MAX;
                }
                Some(f) => {
                    self.welig_at[i] = f.eligible;
                    self.wdead_at[i] = f.deadline;
                }
            }
        }
    }

    /// All departures so far (accumulating).
    pub fn departures(&self) -> &[BehavioralDeparture] {
        &self.departures[..self.committed]
    }

    /// Discard every *completed* departure record, keeping only the
    /// scheduled-but-unfinished tail. The departure log otherwise grows
    /// for the lifetime of the switch — fine for a single-switch
    /// experiment, unbounded for a long-lived fabric element that
    /// forwards millions of cells. Callers must have consumed
    /// [`BehavioralSwitch::departures`] first; afterwards the log (and
    /// the slice a subsequent `tick` returns) restarts from empty.
    pub fn forget_departures(&mut self) {
        if self.committed == 0 {
            return;
        }
        self.departures.drain(..self.committed);
        // `tx_next_done` caches a cycle, not an index, and the next
        // pending entry (if any) now sits at index 0 == `committed`.
        self.committed = 0;
        self.dep_mark = 0;
    }

    /// True when the switch holds nothing.
    pub fn is_quiescent(&self) -> bool {
        self.buf_used == 0
            && self.tx_next_done == Cycle::MAX
            && self.arriving.iter().all(|&a| a == 0)
    }

    /// Run idle cycles until quiescent, appending completed departures to
    /// `out`. Fast-forwards across dead time via the event-horizon
    /// kernel; `limit` caps the drain (watchdog).
    pub fn drain_into(
        &mut self,
        limit: u64,
        out: &mut Vec<BehavioralDeparture>,
    ) -> Result<Cycle, simkernel::SimError> {
        // The idle-arrival mask is all-None every cycle; reuse the mask
        // scratch shape via `tick_masks` on a cleared `scratch_masks`.
        let n_in = self.cfg.n_in;
        simkernel::horizon::drain(self, limit, "behavioral drain", |sw| {
            let mut masks = std::mem::take(&mut sw.scratch_masks);
            masks.clear();
            masks.resize(n_in, None);
            sw.dispatch_advance(&masks);
            sw.scratch_masks = masks;
            out.extend_from_slice(&sw.departures[sw.dep_mark..sw.committed]);
        })
    }
}

impl simkernel::Horizon for BehavioralSwitch {
    fn now(&self) -> Cycle {
        self.cycle
    }

    /// Event derivation (see `simkernel::horizon` for the contract).
    /// Under idle input the only state transitions are: a transmission
    /// completing (`tx_next_done`), a pending write becoming
    /// eligible, and a queued packet becoming read-ready at its output's
    /// next initiation slot. Everything else — the `arriving` link
    /// counters — is pure bookkeeping that `jump_to` replays in O(1).
    fn next_event(&self) -> Option<Cycle> {
        if self.is_quiescent() {
            return None;
        }
        // The dense-path arrays already hold every schedulable event:
        // `tx_next_done` (a transmission completing), `welig_at` (a
        // pending write becoming eligible — heads with write_start ==
        // None are covered here), `ready_at` (a queued head becoming
        // read-ready, `out_next_init` folded in).
        let now = self.cycle;
        let mut ev = self.tx_next_done;
        for &e in &self.welig_at {
            ev = ev.min(e);
        }
        for &r in &self.ready_at {
            ev = ev.min(r);
        }
        if ev != Cycle::MAX {
            return Some(ev);
        }
        // No scheduled event but not quiescent: either only the
        // `arriving` link counters are still draining (skippable —
        // the "event" is quiescence itself), or something is live
        // that we failed to account for (conservative dense tick).
        if self.buf_used == 0 && self.tx_next_done == Cycle::MAX {
            let max_arr = self.arriving.iter().copied().max().unwrap_or(0) as Cycle;
            Some(now + max_arr)
        } else {
            Some(now)
        }
    }

    fn jump_to(&mut self, target: Cycle) {
        debug_assert!(target >= self.cycle, "jump_to moves time forward only");
        let delta = (target - self.cycle) as usize;
        for a in &mut self.arriving {
            *a = a.saturating_sub(delta);
        }
        // Dense idle ticking through a dead span leaves last cycle's
        // completion window empty; match that.
        self.dep_mark = self.committed;
        self.cycle = target;
    }
}

impl simkernel::BatchTick for BehavioralSwitch {
    fn tick_idle_batch(&mut self, n: u64) {
        BehavioralSwitch::tick_idle_batch(self, n);
    }
}

crate::word::switch!(BehavioralSwitch);

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg2() -> SwitchConfig {
        SwitchConfig::symmetric(2, 16)
    }

    fn drain(sw: &mut BehavioralSwitch) -> Vec<BehavioralDeparture> {
        let mut out = Vec::new();
        sw.drain_into(200, &mut out)
            .expect("switch failed to drain");
        assert!(sw.is_quiescent(), "switch failed to drain");
        out
    }

    #[test]
    fn single_packet_cut_through_timing() {
        let mut sw = BehavioralSwitch::new(cfg2());
        let d = {
            let mut out = sw.tick(&[Some(1), None]).to_vec();
            out.extend(drain(&mut sw));
            out
        };
        assert_eq!(d.len(), 1);
        // Header at 0, fused write+read at 1, head latency 2, tail at 1+4.
        assert_eq!(d[0].birth, 0);
        assert_eq!(d[0].read_start, 1);
        assert_eq!(d[0].head_latency(), 2);
        assert_eq!(d[0].done, 5);
    }

    #[test]
    fn forget_departures_preserves_future_completions() {
        // Two packets to the same output: forget after the first tail
        // completes, and the second must still complete on schedule with
        // identical timing to an un-forgotten run.
        let run = |forget: bool| {
            let mut sw = BehavioralSwitch::new(cfg2());
            sw.tick(&[Some(1), None]);
            sw.tick(&[None, Some(1)]);
            let mut done = Vec::new();
            for _ in 0..40 {
                done.extend(sw.tick(&[None, None]).iter().map(|d| (d.id, d.done)));
                if forget && done.len() == 1 {
                    sw.forget_departures();
                    assert!(sw.departures().is_empty());
                }
            }
            done
        };
        assert_eq!(run(false), run(true));
        assert_eq!(run(false).len(), 2);
    }

    #[test]
    fn simultaneous_arrivals_are_staggered() {
        // §3.4: two heads in the same cycle to different outputs — one
        // initiates at a+1, the other at a+2 (one initiation per cycle).
        let mut sw = BehavioralSwitch::new(cfg2());
        let mut d = sw.tick(&[Some(0), Some(1)]).to_vec();
        d.extend(drain(&mut sw));
        assert_eq!(d.len(), 2);
        let mut starts: Vec<Cycle> = d.iter().map(|x| x.read_start).collect();
        starts.sort_unstable();
        assert_eq!(starts, vec![1, 2], "staggered initiation");
    }

    #[test]
    fn same_output_service_is_fifo_and_back_to_back() {
        let mut sw = BehavioralSwitch::new(cfg2());
        let mut d = sw.tick(&[Some(0), Some(0)]).to_vec();
        d.extend(drain(&mut sw));
        assert_eq!(d.len(), 2);
        // Output 0 transmits [rs1+1, rs1+4] then [rs2+1, rs2+4] with
        // rs2 = rs1 + 4 (back to back).
        let rs: Vec<Cycle> = d.iter().map(|x| x.read_start).collect();
        assert_eq!((rs[0] as i64 - rs[1] as i64).abs(), 4);
    }

    #[test]
    fn buffer_full_drops() {
        let mut cfg = cfg2();
        cfg.slots = 1;
        let mut sw = BehavioralSwitch::new(cfg);
        sw.tick(&[Some(0), Some(0)]);
        assert_eq!(sw.counters().dropped_buffer_full, 1);
        drain(&mut sw);
    }

    #[test]
    fn full_load_all_outputs_busy_no_loss() {
        // Permutation traffic at 100 % load: input i → output i, packets
        // back to back. The switch must carry everything without drops or
        // overruns.
        let n = 4;
        let mut cfg = SwitchConfig::symmetric(n, 64);
        cfg.fused_cut_through = true;
        let s = cfg.stages();
        let mut sw = BehavioralSwitch::new(cfg);
        let mut arr = vec![None; n];
        let cycles = 10_000u64;
        for c in 0..cycles {
            for (i, a) in arr.iter_mut().enumerate() {
                *a = (c % s as u64 == 0).then_some(i);
            }
            sw.tick(&arr);
        }
        let d = sw.departures().len() as u64;
        let ctr = sw.counters();
        assert_eq!(ctr.dropped_buffer_full, 0, "no drops at full load");
        assert_eq!(ctr.latch_overruns, 0, "no overruns ever");
        // Each output should have carried ~cycles/s packets.
        let expect = (cycles / s as u64) * n as u64;
        assert!(
            d >= expect - 2 * n as u64,
            "carried {d}, expected about {expect}"
        );
    }

    #[test]
    fn uniform_full_load_no_overruns() {
        // Worst-case initiation pressure: every input at 100 % load,
        // uniform random outputs. Buffer drops are legitimate (finite
        // pool), latch overruns are not.
        let n = 8;
        let cfg = SwitchConfig::symmetric(n, 32);
        let _s = cfg.stages();
        let mut sw = BehavioralSwitch::new(cfg);
        let mut rng = simkernel::SplitMix64::new(99);
        let mut arr = vec![None; n];
        for _ in 0..50_000u64 {
            for (i, a) in arr.iter_mut().enumerate() {
                *a = sw.input_free(i).then(|| rng.below_usize(n));
            }
            sw.tick(&arr);
        }
        assert_eq!(
            sw.counters().latch_overruns,
            0,
            "latch overruns must be impossible"
        );
        assert!(sw.departures().len() > 10_000);
    }

    #[test]
    fn conservation_arrived_equals_departed_plus_dropped() {
        let n = 4;
        let cfg = SwitchConfig::symmetric(n, 8);
        let mut sw = BehavioralSwitch::new(cfg);
        let mut rng = simkernel::SplitMix64::new(5);
        let mut arr = vec![None; n];
        for _ in 0..20_000u64 {
            for (i, a) in arr.iter_mut().enumerate() {
                *a = (sw.input_free(i) && rng.chance(0.7)).then(|| rng.below_usize(n));
            }
            sw.tick(&arr);
        }
        drain(&mut sw);
        let ctr = sw.counters();
        assert_eq!(
            ctr.arrived - ctr.dropped_buffer_full,
            sw.departures().len() as u64,
            "every accepted packet departs"
        );
        assert_eq!(ctr.departed, sw.departures().len() as u64);
        assert_eq!(ctr.in_flight(), 0);
        assert!(ctr.arrived > 5_000);
        assert_eq!(ctr.latch_overruns, 0);
    }

    #[test]
    fn store_and_forward_adds_stages_latency() {
        let mut cfg = cfg2();
        cfg.cut_through = false;
        cfg.fused_cut_through = false;
        let mut sw = BehavioralSwitch::new(cfg);
        let mut d = sw.tick(&[Some(1), None]).to_vec();
        d.extend(drain(&mut sw));
        // ws = 1, rs = ws + S = 5, head latency = 6 = 2 + S.
        assert_eq!(d[0].read_start, 5);
        assert_eq!(d[0].head_latency(), 6);
    }
}

#[cfg(test)]
mod wide_port_tests {
    use super::*;

    #[test]
    fn works_at_32_ports() {
        // Regression: mask validation used `mask >> n_out`, which wraps
        // for n_out = 32 on a u32 (caught by the behavioral bench).
        let n = 32;
        let mut sw = BehavioralSwitch::new(SwitchConfig::symmetric(n, 64));
        let mut arr = vec![None; n];
        arr[0] = Some(2); // output 2 (the 0x4 mask of the crash)
        sw.tick(&arr);
        let mut out = Vec::new();
        sw.drain_into(300, &mut out).expect("drain");
        assert_eq!(sw.departures().len(), 1);
        assert_eq!(sw.counters().latch_overruns, 0);
    }
}
