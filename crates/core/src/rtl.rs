//! The word-level RTL model of the pipelined-memory shared-buffer switch.
//!
//! This model contains, as explicit state, every datapath element of
//! figures 4 and 5 of the paper:
//!
//! * one **input latch row** per incoming link (`stages` word latches per
//!   link, written cyclically as words arrive — *no double buffering*);
//! * the **pipelined memory**: `stages` single-ported SRAM banks behind
//!   the wave ring of control words, with their spare columns and ECC
//!   (one [`membank::PipelinedMemory`]: a second access to a stage's port
//!   in a cycle panics). The memory walks the live waves by stage; this
//!   model supplies each stage's one port access — latch fetch, write
//!   bus, output-register load — and reports every recovery outcome the
//!   memory returns through the control plane;
//! * one shared **output register row** (`stages` registers; a register
//!   loaded at cycle `c` drives its bound outgoing link at `c + 1`);
//! * **automatic cut-through**, including the fused form where the output
//!   register samples the write bus in the very cycle the write wave
//!   begins.
//!
//! Which wave initiates each cycle, and which packets the buffer keeps,
//! is the packet control shared with the cell-level model
//! (`sched::PacketCore`, DESIGN.md §6); this model carries its grants out
//! on the datapath and tags each buffered packet with its integrity
//! verdicts (`Seal`). The public interface is one
//! [`PipelinedSwitch::tick`] per clock cycle (a kernel compiled once with
//! a probe attached and once without): words in on every input link,
//! words out on every output link; [`OutputCollector`] reassembles them.

use crate::config::SwitchConfig;
use crate::ctl::ControlPlane;
use crate::events::IntegrityReason;
use crate::sched::{PacketCore, ReadGrant, Tag};
use membank::pipelined::{PipelinedMemory, Wave, NO_PORT};
use simkernel::bits;
use simkernel::cell::Packet;
use simkernel::ids::{Addr, Cycle, PortId};
use telemetry::{DropReason, FaultTag, ProbeEvent, WaveDir};

/// Map an integrity verdict onto the probe stream's drop vocabulary.
pub(crate) fn drop_reason(r: IntegrityReason) -> DropReason {
    match r {
        IntegrityReason::BadHeader => DropReason::BadHeader,
        IntegrityReason::TruncatedPacket => DropReason::Truncated,
        IntegrityReason::ChecksumMismatch => DropReason::Checksum,
        IntegrityReason::PayloadMismatch => DropReason::Payload,
    }
}

/// What one memory stage is doing in a given cycle (the fig. 5 control
/// signals, reconstructed per stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StageCtrl {
    /// No operation.
    #[default]
    Nop,
    /// Writing `addr` from input link `link`.
    Write {
        /// Slot written.
        addr: Addr,
        /// Source input link.
        link: PortId,
    },
    /// Reading `addr` for output link `link`.
    Read {
        /// Slot read.
        addr: Addr,
        /// Destination output link.
        link: PortId,
    },
    /// Fused write+cut-through: writing from `input` while the output
    /// register for `output` samples the bus.
    Fused {
        /// Slot written.
        addr: Addr,
        /// Source input link.
        input: PortId,
        /// Destination output link.
        output: PortId,
    },
}

/// What stage `k` does when it obeys control word `w`.
impl From<Wave> for StageCtrl {
    fn from(w: Wave) -> Self {
        let addr = w.addr();
        let (i, j) = (PortId(w.write_from.into()), PortId(w.read_to.into()));
        match (w.write_from, w.read_to) {
            (NO_PORT, NO_PORT) => StageCtrl::Nop,
            (_, NO_PORT) => StageCtrl::Write { addr, link: i },
            (NO_PORT, _) => StageCtrl::Read { addr, link: j },
            _ => StageCtrl::Fused {
                addr,
                input: i,
                output: j,
            },
        }
    }
}

/// The probe stream's name for what control word `w` does at a bank.
fn wave_dir(w: Wave) -> WaveDir {
    match (w.write_from, w.read_to) {
        (_, NO_PORT) => WaveDir::Write,
        (NO_PORT, _) => WaveDir::Read,
        _ => WaveDir::Fused,
    }
}

/// The integrity verdicts a buffered packet carries: the RTL's tag in the
/// packet store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Seal {
    /// Checksum computed at ingress once the tail word arrived (the value
    /// the read-time scrub re-derives from the banks).
    pub checksum: Option<u64>,
    /// Set when ingress integrity machinery condemned the packet while it
    /// was still buffered (truncation, ingress payload mismatch); the
    /// read-side scan drops it instead of transmitting, recording why.
    pub poisoned: Option<IntegrityReason>,
}

/// A packet condemned at ingress must not fuse: the read side drops it.
impl Tag for Seal {
    fn may_fuse(&self) -> bool {
        self.poisoned.is_none()
    }
    const STAGGER_FIRST: bool = true;
}

/// One output register: the word and the link it drives next cycle. Which
/// packet it belongs to is the link's business ([`PipelinedSwitch::out_bind`]);
/// the register of the last stage holds the tail.
#[derive(Debug, Clone, Copy, Default)]
struct OutWord {
    word: u64,
    link: u8,
}

#[derive(Debug, Clone, Default)]
struct InputState {
    /// Words of the current packet received so far (0 = between packets).
    k: usize,
    /// Slot of the packet currently arriving (`None` once the tail is in,
    /// or if the packet was dropped at ingress).
    slot: Option<usize>,
    /// Id of the packet currently arriving, to guard tail-time seal
    /// updates: under cut-through the slot may already have been freed
    /// *and reallocated* to a later packet.
    cur_id: u64,
    /// Running ingress checksum over the words received so far.
    chk: u64,
    /// Id to verify payload words against (ingress payload check only).
    expected_id: Option<u64>,
    /// A payload word deviated from the synthesis rule.
    corrupt: bool,
}

/// Per-output egress-verification state (the modeled link CRC).
#[derive(Debug, Clone, Copy, Default)]
struct OutVerify {
    id: u64,
    k: usize,
    corrupt: bool,
}

/// The checksum rule of the integrity scrub: fold words with
/// rotate-and-xor. Any single-bit flip anywhere in the packet flips
/// exactly one bit of the result, so single-event upsets are always
/// detected; word transpositions are caught by the rotation.
pub fn integrity_checksum(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0u64, |c, w| c.rotate_left(1) ^ w)
}

/// The pipelined-memory shared-buffer switch, word-accurate.
#[derive(Debug)]
pub struct PipelinedSwitch {
    cfg: SwitchConfig,
    /// The banks, their spares and the wave ring: §3.2's memory, which
    /// this model drives word by word.
    mem: PipelinedMemory,
    /// Committed input latch values, flat row-major: entry
    /// `input * stages + stage`. One contiguous allocation keeps the
    /// per-wave latch fetch a single indexed load.
    latches: Vec<u64>,
    /// Latch loads `(input, stage, word)`, one entry per input: a prefix.
    latch_loads: Vec<(usize, usize, u64)>,
    inputs: Vec<InputState>,
    /// The output register row driving the links this cycle, and the row
    /// the stage walk is loading for the next: two plain arrays swapped at
    /// the clock edge. `outreg_mask` alone says which entries of the
    /// current row are live, so neither row is ever cleared.
    outreg_cur: Vec<OutWord>,
    outreg_next: Vec<OutWord>,
    /// `(id, birth)` of the packet each output link is reading, set at
    /// read initiation and consumed when the tail word leaves. One per
    /// link is enough: a link admits one read per `stages` cycles, and the
    /// tail's egress (phase 1) precedes the next initiation (phase 4) of
    /// the same tick.
    out_bind: Vec<(u64, Cycle)>,
    /// Egress payload-verification state per output link.
    out_verify: Vec<OutVerify>,
    /// Injected stuck-stage-control fault: `(stage, until_cycle)` — bank
    /// writes at that stage are suppressed through `until_cycle`.
    stuck_write: Option<(usize, Cycle)>,
    /// Set once spares are exhausted and a bank is over threshold: the
    /// occupancy ceiling new admissions are then permanently held to.
    degraded_cap: Option<usize>,
    /// Stage whose bank crossed the correction threshold mid-wave; the
    /// failover runs after the stage walk (the walk borrows the banks).
    pending_failover: Option<usize>,
    /// The packet control: store, requests, arbiter and control plane.
    core: PacketCore<Seal>,
    /// Live entries of `outreg_cur`: bit `k` set when stage `k`'s
    /// register holds a word.
    outreg_mask: u128,
    cycle: Cycle,
    /// Reusable per-cycle scratch (hot path: one `tick` per simulated
    /// cycle — these must not allocate in steady state).
    wire_out: Vec<Option<u64>>,
    /// The all-idle input row [`simkernel::BatchTick`] ticks with.
    idle_wire: Vec<Option<u64>>,
}

/// The mask of the ports `0..n` that `set` holds for — what a kept mask
/// is checked against.
pub(crate) fn mask_where(n: usize, set: impl Fn(usize) -> bool) -> u128 {
    (0..n).filter(|&p| set(p)).fold(0, |m, p| m | 1 << p)
}

/// The bank of `stage` crossed its correction threshold in cycle `c` and
/// the memory promoted a spare (`Some(spares left)`): admission pauses for
/// a settle window. With none left, the switch degrades for good: admission
/// capacity halves, trading throughput for conservation and per-flow FIFO.
#[cold]
fn bank_failed(
    ctl: &mut ControlPlane,
    degraded_cap: &mut Option<usize>,
    slots: usize,
    c: Cycle,
    stage: usize,
    spares_left: Option<usize>,
) {
    if let Some(left) = spares_left {
        let settle = ctl.failover(c, stage, left);
        ctl.degraded_enter(c, stage, settle);
    } else if degraded_cap.is_none() {
        let cap = (slots / 2).max(1);
        *degraded_cap = Some(cap);
        ctl.degraded_enter(c, stage, cap as u64);
    }
}

impl PipelinedSwitch {
    /// Build a switch from a validated configuration.
    pub fn new(cfg: SwitchConfig) -> Self {
        cfg.validate();
        let stages = cfg.stages();
        // The output register row keeps its occupancy in one `u128`, as
        // the memory's wave ring does.
        assert!(
            stages <= 128,
            "the word-level RTL models at most 128 pipeline stages \
             (n_in + n_out), this configuration has {stages}"
        );
        assert!(
            cfg.n_in <= 64,
            "the RTL keeps its write requests in one u64: at most 64 inputs, not {}",
            cfg.n_in
        );
        // Banks carry full 64-bit payload words; `cfg.word_bits` is the
        // physical width used for capacity/throughput accounting (and by
        // `vlsimodel`), not a functional truncation — truncating payloads
        // would only obscure data-integrity checks.
        let mut mem =
            PipelinedMemory::new_with_spares(stages, cfg.slots, 64, cfg.recovery.spare_banks);
        if cfg.recovery.ecc {
            mem.enable_ecc();
        }
        PipelinedSwitch {
            mem,
            latches: vec![0; cfg.n_in * stages],
            latch_loads: vec![(0, 0, 0); cfg.n_in],
            inputs: vec![InputState::default(); cfg.n_in],
            outreg_cur: vec![OutWord::default(); stages],
            outreg_next: vec![OutWord::default(); stages],
            out_bind: vec![(0, 0); cfg.n_out],
            out_verify: vec![OutVerify::default(); cfg.n_out],
            stuck_write: None,
            degraded_cap: None,
            pending_failover: None,
            // Natural settle time of one failover: the spare copies one
            // slot per cycle — a full column sweep.
            core: PacketCore::new(&cfg, cfg.recovery, cfg.slots as u64),
            outreg_mask: 0,
            cycle: 0,
            wire_out: vec![None; cfg.n_out],
            idle_wire: vec![None; cfg.n_in],
            cfg,
        }
    }

    /// The configuration this switch was built with.
    pub fn config(&self) -> &SwitchConfig {
        &self.cfg
    }

    /// Buffer occupancy in packets.
    pub fn occupancy(&self) -> usize {
        self.core.store.occupancy()
    }

    /// Packet size in words (= pipeline stages).
    pub fn packet_words(&self) -> usize {
        self.mem.stages()
    }

    /// The per-stage control signals of the most recently executed cycle
    /// (the fig. 5 table row), read off the wave ring: stage `k` executed
    /// the control word stage 0 received `k` cycles earlier, if any.
    pub fn stage_controls(&self) -> Vec<StageCtrl> {
        (0..self.mem.stages() as Cycle)
            .map(|k| {
                self.cycle
                    .checked_sub(1 + k)
                    .and_then(|start| self.mem.wave_started(start))
                    .map_or(StageCtrl::Nop, StageCtrl::from)
            })
            .collect()
    }

    /// Fault injection (testbench only): flip `mask` bits in bank
    /// `stage` at buffer address `addr`, as a single-event upset would.
    /// The fault-injection suite uses this to prove the end-to-end
    /// integrity checks detect storage corruption.
    ///
    /// Returns `Some(packet_id)` when the flipped word is *live* packet
    /// data — already deposited by a buffered packet's write wave, or
    /// still ahead of an in-flight read wave — i.e. the upset can reach a
    /// reader. Upsets landing in unoccupied or already-consumed storage
    /// are harmless and return `None`; campaigns use this to compute
    /// detection coverage over *effective* faults only.
    pub fn inject_bank_fault(&mut self, stage: usize, addr: Addr, mask: u64) -> Option<u64> {
        self.mem.inject_fault(stage, addr, mask);
        if let Some(d) = self.core.store.get(addr.index()) {
            // The write wave touches `stage` at cycle `ws + stage`; the
            // word is in the bank once that cycle has executed.
            if self
                .core
                .store
                .write_start(addr.index())
                .is_some_and(|ws| ws + (stage as Cycle) < self.cycle)
            {
                return Some(d.id);
            }
        }
        // Slot already freed at read initiation, possibly reallocated
        // since: the waves still on their way to this stage decide, oldest
        // first. A read wave puts the struck word on the wire. A write
        // wave overwrites it, which shields every younger wave — and a
        // fused one takes its own word off the write bus, not the bank.
        self.mem
            .live_waves(self.cycle)
            .find(|w| w.addr() == addr && w.start + stage as Cycle >= self.cycle)
            .filter(|w| w.write_from == NO_PORT)
            .map(|w| self.out_bind[w.read_to as usize].0)
    }

    /// [`Self::inject_bank_fault`] in the organization-neutral
    /// coordinates of [`WordSwitch`](crate::WordSwitch): word `word` of
    /// buffer slot `slot`. True when the upset struck live data.
    pub fn inject_upset(&mut self, slot: usize, word: usize, mask: u64) -> bool {
        self.inject_bank_fault(word, Addr(slot), mask).is_some()
    }

    /// Fault injection (testbench only): stick the write-control signal
    /// of `stage` low through cycle `until` — bank writes at that stage
    /// are suppressed (counted in `writes_suppressed`), leaving a stale
    /// word in every slot written while the fault is active.
    pub fn force_stuck_write(&mut self, stage: usize, until: Cycle) {
        assert!(stage < self.mem.stages(), "no such stage");
        self.stuck_write = Some((stage, until));
    }

    /// Is the switch in permanent degraded mode (spares exhausted,
    /// admission capped)?
    pub fn is_degraded(&self) -> bool {
        self.degraded_cap.is_some()
    }

    /// Spare bank columns still in reserve.
    pub fn spares_remaining(&self) -> usize {
        self.mem.spares_remaining()
    }

    /// True if the switch holds no packets and no waves are in flight
    /// (safe to stop feeding idle cycles).
    pub fn is_quiescent(&self) -> bool {
        self.core.store.occupancy() == 0
            && self.mem.in_flight() == 0
            && self.outreg_mask == 0
            && self.inputs.iter().all(|s| s.k == 0)
            && self.core.requests.no_writes()
    }

    /// Drive stage `k`'s committed output register onto its link.
    #[inline(always)]
    fn egress_word(&mut self, c: Cycle, k: usize) {
        let OutWord { word, link } = self.outreg_cur[k];
        let j = link as usize;
        assert!(
            self.wire_out[j].is_none(),
            "two output registers drove link {j} in cycle {c}"
        );
        self.wire_out[j] = Some(word);
        if self.cfg.integrity.payload_check {
            // Egress verification (the modeled link CRC): every word
            // on the wire is checked against the synthesis rule.
            let v = &mut self.out_verify[j];
            if v.k == 0 {
                let (mask, id) = Packet::decode_header_any(word);
                v.id = id;
                v.corrupt = mask & (1 << j) == 0;
            } else if word != Packet::payload_word(v.id, v.k) {
                v.corrupt = true;
            }
            v.k += 1;
        }
    }

    /// The last stage's register drove a tail: departure and egress verdict.
    #[inline(never)]
    fn depart(&mut self, c: Cycle) {
        let j = self.outreg_cur[self.mem.stages() - 1].link as usize;
        let (id, birth) = self.out_bind[j];
        self.core.ctl.departed(c, j, id, birth);
        if self.cfg.integrity.payload_check {
            if self.out_verify[j].corrupt {
                self.core.ctl.counters.corrupt_delivered += 1;
                self.core.ctl.emit(
                    c,
                    ProbeEvent::Fault {
                        id,
                        kind: FaultTag::CorruptDelivered,
                    },
                );
            }
            self.out_verify[j] = OutVerify::default();
        }
    }

    /// Advance one clock cycle.
    ///
    /// `wire_in[i]` is the word on input link `i` during this cycle.
    /// Returns the words on the output links during this cycle; the
    /// slice borrows internal scratch and is valid until the next tick.
    ///
    /// Packets must be contiguous on each input link (the paper's links
    /// have no mid-packet idles); a `None` inside a packet panics.
    pub fn tick(&mut self, wire_in: &[Option<u64>]) -> &[Option<u64>] {
        assert_eq!(wire_in.len(), self.cfg.n_in, "one word slot per input");
        if self.core.ctl.probed() {
            self.step::<true>(wire_in);
        } else {
            self.step::<false>(wire_in);
        }
        &self.wire_out
    }

    /// One clock cycle, compiled twice like the behavioral model's kernel:
    /// unprobed, every emission no counter is tied to folds away.
    fn step<const PROBED: bool>(&mut self, wire_in: &[Option<u64>]) {
        let c = self.cycle;
        let s = self.mem.stages();

        // ------------------------------------------------------------------
        // 1. Output links driven by the register row committed last cycle.
        // ------------------------------------------------------------------
        // Only the occupied registers are visited, in stage order; the
        // last stage's holds a tail.
        self.wire_out.fill(None);
        for k in bits(self.outreg_mask) {
            self.egress_word(c, k);
        }
        if self.outreg_mask >> (s - 1) & 1 != 0 {
            self.depart(c);
        }

        // ------------------------------------------------------------------
        // 2. Input arrivals: framing, header decode, slot allocation,
        //    latch-load scheduling. A header, a tail and an idle inside a
        //    packet are handled out of line.
        // ------------------------------------------------------------------
        // Only the inputs with a word or inside a packet are visited.
        let active = (wire_in.iter().zip(&self.inputs).enumerate())
            .fold(0u64, |m, (i, (w, st))| {
                m | u64::from(w.is_some() | (st.k != 0)) << i
            });
        let mut loads = 0;
        for i in bits(active) {
            let (present, word) = (wire_in[i].is_some(), wire_in[i].unwrap_or(0));
            let k = self.inputs[i].k;
            // The two rare cases in one compare: a header, or an idle
            // cycle inside a packet.
            if present == (k == 0) {
                if present {
                    self.header(c, i, word);
                } else {
                    self.idle_mid_packet(c, i);
                }
            }
            let st = &mut self.inputs[i];
            if let Some(id) = st.expected_id {
                st.corrupt |= present & (k != 0) & (word != Packet::payload_word(id, k));
            }
            st.chk = st.chk.rotate_left(u32::from(present)) ^ word;
            st.k += usize::from(present);
            self.latch_loads[loads] = (i, k, word);
            loads += usize::from(present);
            if PROBED && present {
                self.core
                    .ctl
                    .emit(c, ProbeEvent::LatchLoad { input: i, stage: k });
            }
            if self.inputs[i].k == s {
                self.seal(i);
            }
        }

        // ------------------------------------------------------------------
        // 3. Initiation: the core's grant for this cycle (at most one wave,
        //    DESIGN.md §6), carried out on the datapath.
        // ------------------------------------------------------------------
        self.initiate::<PROBED>(c);

        // ------------------------------------------------------------------
        // 4. Stage execution: the memory walks the live waves oldest first
        //    (descending stage), each at its stage's single-ported bank.
        // ------------------------------------------------------------------
        // One port access per wave, a write from the latch or a read, and
        // an output register load that only a reading wave marks live.
        let mut outreg_next_mask: u128 = 0;
        self.mem.walk(c, |mut stage, w, k| {
            let (writes, reads) = (w.write_from != NO_PORT, w.read_to != NO_PORT);
            let latch = usize::from(w.write_from) * s + k;
            let bus = self.latches[if writes { latch } else { 0 }];
            let stuck = writes & self.stuck_write.is_some_and(|(ks, u)| ks == k && c <= u);
            let ctl = &mut self.core.ctl;
            let word = if stuck {
                // Stuck stage control: the word never lands in the bank,
                // but the bus still carries it to a fused output register;
                // the checksum scrub catches the stale slot at read time.
                ctl.counters.writes_suppressed += 1;
                bus
            } else {
                // ECC at the moment of access: a cut-through read reaches
                // banks the initiation-time scrub could not (the slot was
                // not fully written yet).
                if ctl.ecc_on() && !writes && reads {
                    let outcome = stage.scrub();
                    if ctl.ecc(c, k, outcome, u64::from(w.addr))
                        && ctl.over_threshold(stage.corrections())
                    {
                        self.pending_failover = Some(k);
                    }
                }
                stage.port(writes, bus)
            };
            debug_assert!(
                !reads || outreg_next_mask & (1 << k) == 0,
                "two waves loaded output register {k} in cycle {c}"
            );
            // Fused: the output register samples the write bus.
            self.outreg_next[k] = OutWord {
                word: if writes { bus } else { word },
                link: w.read_to,
            };
            outreg_next_mask |= u128::from(reads) << k;
            if PROBED {
                let port = |p: u8| (p != NO_PORT).then_some(p as usize);
                ctl.emit(
                    c,
                    ProbeEvent::BankAccess {
                        stage: k,
                        addr: w.addr as usize,
                        op: wave_dir(w),
                        input: port(w.write_from),
                        output: port(w.read_to),
                    },
                );
            }
        });

        // A bank crossed its correction threshold during the stage walk:
        // hot-swap it now, before the clock edge (the spare takes over
        // the bank's contents, so in-flight slots survive the swap).
        if let Some(k) = self.pending_failover.take() {
            let spares_left = self.mem.fail_over(k);
            bank_failed(
                &mut self.core.ctl,
                &mut self.degraded_cap,
                self.cfg.slots,
                c,
                k,
                spares_left,
            );
        }

        // ------------------------------------------------------------------
        // 5. Clock edge: commit latches and output registers; the memory
        //    moves its waves on a stage; time advances.
        // ------------------------------------------------------------------
        for &(i, k, word) in &self.latch_loads[..loads] {
            self.latches[i * s + k] = word;
        }
        std::mem::swap(&mut self.outreg_cur, &mut self.outreg_next);
        self.outreg_mask = outreg_next_mask;
        self.mem.retire();
        if PROBED {
            let core = &mut self.core;
            core.ctl.gauge_occupancy(c, core.store.occupancy());
            for j in 0..self.cfg.n_out {
                core.ctl.gauge_queue_depth(c, j, core.store.queue_len(j));
            }
        }
        #[cfg(debug_assertions)]
        self.core.assert_holds(c);
        self.cycle = c + 1;
    }

    /// A header word on input `i`: decode, framing check, admission.
    #[inline(never)]
    fn header(&mut self, c: Cycle, i: usize, word: u64) {
        let (mask, id) = Packet::decode_header_any(word);
        // A tail or a mid-packet idle left the input's state at its default.
        let st = &mut self.inputs[i];
        let bad = mask == 0 || (mask >> self.cfg.n_out) != 0;
        if bad && self.cfg.integrity.harden {
            // Hardened framing: a header addressing no valid output is
            // counted and the packet swallowed (no slot allocated; the
            // remaining words fall on the floor at the tail).
            self.core.ctl.counters.arrived += 1;
            self.core.ctl.drop(c, id, DropReason::BadHeader);
            return;
        }
        assert!(
            !bad,
            "packet {id} on input {i} addressed nonexistent outputs \
             (mask {mask:#x}, {} outputs)",
            self.cfg.n_out
        );
        let primary = mask.trailing_zeros() as usize;
        self.core.ctl.header(c, i, id, primary);
        st.expected_id = self.cfg.integrity.payload_check.then_some(id);
        st.cur_id = id;
        // Degraded-mode admission: inside a failover settle window (or
        // permanently, with spares exhausted and occupancy at the reduced
        // cap) new packets are shed at the door instead of risking the
        // settling spare — conservation and FIFO hold, throughput drops.
        // Otherwise the core admits.
        let core = &mut self.core;
        let capped = self
            .degraded_cap
            .is_some_and(|cap| core.store.occupancy() >= cap);
        if core.ctl.shed(c, capped) {
            core.ctl.counters.recovery_shed += 1;
            core.ctl.drop(c, id, DropReason::BufferFull);
        } else if core.admit(c, id, primary) {
            st.slot = Some(core.enqueue(id, i, mask, c, Seal::default()));
        }
    }

    /// Input `i`'s tail arrived: seal the slot with its checksum (and
    /// poison it if the ingress check tripped), if the slot still holds
    /// the packet — under cut-through it may already hold a later one.
    #[inline(never)]
    fn seal(&mut self, i: usize) {
        let st = std::mem::take(&mut self.inputs[i]);
        if let Some(slot) = st.slot {
            if self.core.store.get(slot).is_some_and(|d| d.id == st.cur_id) {
                let seal = self.core.store.tag_mut(slot);
                if st.corrupt {
                    seal.poisoned = Some(IntegrityReason::PayloadMismatch);
                }
                if self.cfg.integrity.checksum {
                    seal.checksum = Some(st.chk);
                }
            }
        }
    }

    /// Input `i` idled inside a packet: hardened framing condemns the
    /// packet, whose tail will never arrive.
    #[cold]
    #[inline(never)]
    fn idle_mid_packet(&mut self, c: Cycle, i: usize) {
        assert!(
            self.cfg.integrity.harden,
            "link protocol violation: idle cycle inside a packet on input {i}"
        );
        let st = std::mem::take(&mut self.inputs[i]);
        if let Some(slot) = st.slot {
            // Write wave not yet granted: the core reclaims the slot
            // outright. Already streaming stale latch words: poison so the
            // read side drops it (counted there). If the slot was already
            // freed by a cut-through read, the damage is on the wire — the
            // egress check is the remaining line of defense.
            let core = &mut self.core;
            if !core.withdraw_write(c, i, slot)
                && core.store.get(slot).is_some_and(|d| d.id == st.cur_id)
            {
                core.store.tag_mut(slot).poisoned = Some(IntegrityReason::TruncatedPacket);
            }
        }
    }

    /// Carry out the core's grant for cycle `c`: a read wave, unless the
    /// read-time integrity checks spend its slot, and a write wave with
    /// the output register row its fused read loads.
    #[inline]
    fn initiate<const PROBED: bool>(&mut self, c: Cycle) {
        let g = self.core.grant::<PROBED>(c);
        if let Some(r) = g.read {
            self.read::<PROBED>(c, r);
        }
        if let Some(w) = g.write {
            if let Some(j) = w.fused {
                self.out_bind[j] = (w.p.id, w.p.birth);
            }
            self.mem.launch(Wave {
                start: c,
                addr: w.slot as u32,
                write_from: w.i as u8,
                read_to: w.fused.map_or(NO_PORT, |j| j as u8),
            });
        }
    }

    /// The granted read of output `r.j`'s head: scrubbed and verified if
    /// fully written, then launched or, condemned, spent.
    fn read<const PROBED: bool>(&mut self, c: Cycle, r: ReadGrant<Seal>) {
        let addr = Addr(r.slot);
        let s = self.mem.stages() as Cycle;
        let ws = self.core.store.write_start(r.slot);
        let fully_written = ws.is_some_and(|ws| c >= ws + s);
        // With ECC armed, correct single-bit upsets in place *before* the
        // checksum verdict: a corrected slot passes the scrub and is
        // delivered instead of dropped.
        if self.core.ctl.ecc_on() && fully_written {
            // Stage by stage: a bank that accumulates corrections past the
            // failover threshold is hot-swapped for a spare before the
            // next stage is scrubbed.
            let (ctl, cap, slots) = (&mut self.core.ctl, &mut self.degraded_cap, self.cfg.slots);
            self.mem.scrub_slot(addr, |mem, k, outcome| {
                let fails =
                    ctl.ecc(c, k, outcome, r.slot as u64) && ctl.over_threshold(mem.corrections(k));
                if fails {
                    let spares_left = mem.spares_remaining().checked_sub(1);
                    bank_failed(ctl, cap, slots, c, k, spares_left);
                }
                fails
            });
        }
        // Integrity scrub at read initiation (the ECC check a real bank
        // performs): only a fully written slot can be verified —
        // cut-through reads start mid-write and rely on the egress check
        // instead.
        let seal = r.p.tag;
        let scrub_fail = self.cfg.integrity.checksum
            && fully_written
            && seal.checksum.is_some_and(|sum| {
                integrity_checksum(self.mem.peek_slot(addr).iter().copied()) != sum
            });
        if seal.poisoned.is_some() || scrub_fail {
            let why = seal.poisoned.unwrap_or(IntegrityReason::ChecksumMismatch);
            self.core.spend_read(c, &r, drop_reason(why));
            return;
        }
        self.core.start_read::<PROBED>(c, &r);
        self.out_bind[r.j] = (r.p.id, r.p.birth);
        self.mem.launch(Wave {
            start: c,
            addr: r.slot as u32,
            write_from: NO_PORT,
            read_to: r.j as u8,
        });
    }
}

crate::word::word_switch!(PipelinedSwitch, core.ctl);

impl simkernel::Horizon for PipelinedSwitch {
    fn now(&self) -> Cycle {
        self.cycle
    }

    /// The word-level model keeps too much intertwined per-cycle state
    /// (latch rows, bank port checks, egress verification) to derive a
    /// fine-grained horizon safely, so it reports the coarsest correct
    /// one: quiescent-forever or event-now. That still buys the big win —
    /// the conformance driver's inter-burst gaps, where the switch sits
    /// completely empty.
    fn next_event(&self) -> Option<Cycle> {
        if self.is_quiescent() {
            None
        } else {
            Some(self.cycle)
        }
    }

    fn jump_to(&mut self, target: Cycle) {
        debug_assert!(target >= self.cycle, "jump_to moves time forward only");
        debug_assert!(
            self.is_quiescent(),
            "the RTL model only skips quiescent spans"
        );
        // A quiescent switch ticking idle input changes nothing but the
        // clock; mirror what dense idle ticks would leave behind.
        // (The stage controls need nothing: every ring entry is older than
        // `target - stages`, so the view reads all-Nop.)
        self.wire_out.fill(None);
        self.cycle = target;
    }
}

impl simkernel::BatchTick for PipelinedSwitch {
    /// The word-level model has no fused multi-cycle kernel (every
    /// cycle touches latch rows and bank ports), so the batch entry is
    /// a plain idle-tick loop: the driver-side win (no per-cycle
    /// horizon query) still applies, the model-side fusion does not.
    fn tick_idle_batch(&mut self, n: u64) {
        let idle = std::mem::take(&mut self.idle_wire);
        for _ in 0..n {
            self.tick(&idle);
        }
        self.idle_wire = idle;
    }
}

/// A packet reassembled from an output link by [`OutputCollector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveredPacket {
    /// Output link it emerged on.
    pub output: PortId,
    /// Packet id decoded from the delivered header.
    pub id: u64,
    /// Primary (lowest) destination decoded from the delivered header;
    /// for unicast packets this should equal `output` (asserted by
    /// tests), for multicast `output` is some member of `dsts_mask`.
    pub dst: PortId,
    /// Full destination bitmask decoded from the header.
    pub dsts_mask: u32,
    /// All `stages` words as delivered.
    pub words: Vec<u64>,
    /// Cycle the first word appeared on the link.
    pub first_cycle: Cycle,
    /// Cycle the tail word appeared on the link.
    pub last_cycle: Cycle,
}

impl DeliveredPacket {
    /// Check the payload against the deterministic synthesis rule of
    /// [`Packet::synth`]/[`Packet::synth_multicast`] — detects any
    /// datapath corruption or word misordering — and that this copy
    /// emerged on a link the header actually addressed.
    pub fn verify_payload(&self) -> bool {
        let (mask, id) = Packet::decode_header_any(self.words[0]);
        mask & (1 << self.output.index()) != 0
            && id == self.id
            && self.words[1..]
                .iter()
                .enumerate()
                .all(|(i, &w)| w == Packet::payload_word(self.id, i + 1))
    }
}

/// Reassembles the word streams of the output links into packets.
#[derive(Debug)]
pub struct OutputCollector {
    packet_words: usize,
    partial: Vec<Vec<(Cycle, u64)>>,
    done: Vec<DeliveredPacket>,
}

impl OutputCollector {
    /// A collector for `n_out` links carrying `packet_words`-word packets.
    pub fn new(n_out: usize, packet_words: usize) -> Self {
        OutputCollector {
            packet_words,
            partial: vec![Vec::new(); n_out],
            done: Vec::new(),
        }
    }

    /// Feed the output words of one cycle.
    pub fn observe(&mut self, cycle: Cycle, wire_out: &[Option<u64>]) {
        for (j, w) in wire_out.iter().enumerate() {
            match w {
                Some(word) => {
                    self.partial[j].push((cycle, *word));
                    if self.partial[j].len() == self.packet_words {
                        let words: Vec<u64> = self.partial[j].iter().map(|&(_, w)| w).collect();
                        let (mask, id) = Packet::decode_header_any(words[0]);
                        let first_cycle = self.partial[j][0].0;
                        let last_cycle = self.partial[j].last().expect("non-empty").0;
                        self.done.push(DeliveredPacket {
                            output: PortId(j),
                            id,
                            dst: PortId(mask.trailing_zeros() as usize),
                            dsts_mask: mask,
                            words,
                            first_cycle,
                            last_cycle,
                        });
                        self.partial[j].clear();
                    }
                }
                None => {
                    assert!(
                        self.partial[j].is_empty(),
                        "output link {j} idled mid-packet at cycle {cycle}"
                    );
                }
            }
        }
    }

    /// Completed packets so far (drains).
    pub fn take(&mut self) -> Vec<DeliveredPacket> {
        std::mem::take(&mut self.done)
    }

    /// Completed packets so far (borrow).
    pub fn delivered(&self) -> &[DeliveredPacket] {
        &self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WordSwitch as _;
    use simkernel::cell::Packet;

    /// Drive a 2×2 switch (4 stages, 4-word packets) with one packet and
    /// return (delivered packets, trace copy, counters).
    fn run_single_packet(cfg: SwitchConfig) -> (Vec<DeliveredPacket>, PipelinedSwitch) {
        let mut sw = PipelinedSwitch::new(cfg);
        let s = sw.config().stages();
        let p = Packet::synth(7, 0, 1, s, 0);
        let mut col = OutputCollector::new(sw.config().n_out, s);
        // Feed the packet on input 0, then idle until quiescent.
        for k in 0..s {
            let mut wire = vec![None; sw.config().n_in];
            wire[0] = Some(p.words[k]);
            let c = sw.now();
            let out = sw.tick(&wire);
            col.observe(c, out);
        }
        for _ in 0..4 * s {
            let c = sw.now();
            let out = sw.tick(&vec![None; sw.config().n_in]);
            col.observe(c, out);
        }
        let pkts = col.take();
        (pkts, sw)
    }

    #[test]
    fn single_packet_delivered_intact() {
        let (pkts, sw) = run_single_packet(SwitchConfig::symmetric(2, 8));
        assert_eq!(pkts.len(), 1);
        let d = &pkts[0];
        assert_eq!(d.output, PortId(1));
        assert_eq!(d.id, 7);
        assert!(d.verify_payload(), "payload corrupted: {:?}", d.words);
        let ctr = sw.counters();
        assert_eq!(ctr.arrived, 1);
        assert_eq!(ctr.departed, 1);
        assert_eq!(ctr.latch_overruns, 0);
        assert!(sw.is_quiescent());
    }

    #[test]
    fn fused_cut_through_latency_is_two_cycles() {
        // Paper §3.3: header arrives at a (here 0), write wave at a+1
        // fuses the read; first word leaves "in the very next cycle",
        // a+2.
        let (pkts, sw) = run_single_packet(SwitchConfig::symmetric(2, 8));
        assert_eq!(pkts[0].first_cycle, 2, "cut-through first word at a+2");
        assert_eq!(sw.counters().fused_reads, 1);
    }

    #[test]
    fn unfused_cut_through_latency_is_three_cycles() {
        let mut cfg = SwitchConfig::symmetric(2, 8);
        cfg.fused_cut_through = false;
        let (pkts, sw) = run_single_packet(cfg);
        // Write wave at 1, read wave at 2, first word out at 3.
        assert_eq!(pkts[0].first_cycle, 3);
        assert_eq!(sw.counters().fused_reads, 0);
    }

    #[test]
    fn store_and_forward_latency() {
        let mut cfg = SwitchConfig::symmetric(2, 8);
        cfg.cut_through = false;
        cfg.fused_cut_through = false;
        let (pkts, _) = run_single_packet(cfg);
        // Write wave at ws=1 completes its tail at ws+S-1 = 4; the read
        // may initiate at ws+S = 5; first word out at 6 = 2 + S.
        let s = 4;
        assert_eq!(pkts[0].first_cycle, (2 + s) as u64);
    }

    #[test]
    fn tail_never_sent_before_it_arrived() {
        // The §3.3 safety property: transmission of the tail is attempted
        // only after the tail has been written into the rightmost input
        // latch. With fused cut-through the tail departs exactly 2 cycles
        // after it arrives.
        let (pkts, _) = run_single_packet(SwitchConfig::symmetric(2, 8));
        let s = 4u64;
        let tail_arrival = s - 1; // word k arrives at cycle k
        assert_eq!(pkts[0].last_cycle, tail_arrival + 2);
        assert!(pkts[0].last_cycle > tail_arrival);
    }

    #[test]
    fn contending_packets_both_delivered_in_fifo_order() {
        // Two packets to the same output, arriving simultaneously on
        // different inputs: one cuts through, the other queues behind it.
        let mut sw = PipelinedSwitch::new(SwitchConfig::symmetric(2, 8));
        let s = 4;
        let p0 = Packet::synth(10, 0, 0, s, 0);
        let p1 = Packet::synth(11, 1, 0, s, 0);
        let mut col = OutputCollector::new(2, s);
        for k in 0..s {
            let wire = vec![Some(p0.words[k]), Some(p1.words[k])];
            let c = sw.now();
            let out = sw.tick(&wire);
            col.observe(c, out);
        }
        for _ in 0..6 * s {
            let c = sw.now();
            let out = sw.tick(&[None, None]);
            col.observe(c, out);
        }
        let pkts = col.take();
        assert_eq!(pkts.len(), 2);
        assert!(pkts.iter().all(|p| p.verify_payload()));
        // Output 0 transmits them back to back: the second starts right
        // after the first ends.
        assert_eq!(pkts[1].first_cycle, pkts[0].last_cycle + 1);
        assert_eq!(sw.counters().departed, 2);
        assert_eq!(sw.counters().latch_overruns, 0);
    }

    #[test]
    fn buffer_full_drops_and_recovers() {
        // 1-slot buffer, two simultaneous arrivals: the second is dropped,
        // the first is delivered, and the switch keeps working.
        let mut sw = PipelinedSwitch::new(SwitchConfig::symmetric(2, 1));
        let s = 4;
        let p0 = Packet::synth(1, 0, 0, s, 0);
        let p1 = Packet::synth(2, 1, 1, s, 0);
        let mut col = OutputCollector::new(2, s);
        for k in 0..s {
            let wire = vec![Some(p0.words[k]), Some(p1.words[k])];
            let c = sw.now();
            let out = sw.tick(&wire);
            col.observe(c, out);
        }
        for _ in 0..6 * s {
            let c = sw.now();
            let out = sw.tick(&[None, None]);
            col.observe(c, out);
        }
        let pkts = col.take();
        assert_eq!(pkts.len(), 1);
        assert_eq!(sw.counters().dropped_buffer_full, 1);
        assert_eq!(sw.counters().departed, 1);
        // A later packet still goes through.
        let p2 = Packet::synth(3, 1, 0, s, 0);
        for k in 0..s {
            let wire = vec![None, Some(p2.words[k])];
            let c = sw.now();
            let out = sw.tick(&wire);
            col.observe(c, out);
        }
        for _ in 0..6 * s {
            let c = sw.now();
            let out = sw.tick(&[None, None]);
            col.observe(c, out);
        }
        let pkts = col.take();
        assert_eq!(pkts.len(), 1);
        assert!(pkts[0].verify_payload());
    }

    #[test]
    fn stage_controls_report_wave_progression() {
        let mut sw = PipelinedSwitch::new(SwitchConfig::symmetric(2, 8));
        let s = 4;
        let p = Packet::synth(7, 0, 1, s, 0);
        // Cycle 0: header arrives, nothing initiated yet.
        let mut wire = vec![Some(p.words[0]), None];
        sw.tick(&wire);
        assert_eq!(sw.stage_controls()[0], StageCtrl::Nop);
        // Cycle 1: fused write+cut-through initiates at stage 0.
        wire[0] = Some(p.words[1]);
        sw.tick(&wire);
        assert!(matches!(sw.stage_controls()[0], StageCtrl::Fused { .. }));
        // Cycle 2: the wave is at stage 1.
        wire[0] = Some(p.words[2]);
        sw.tick(&wire);
        assert!(matches!(sw.stage_controls()[1], StageCtrl::Fused { .. }));
        assert_eq!(sw.stage_controls()[0], StageCtrl::Nop);
    }

    #[test]
    fn stage_controls_are_delayed_copies_of_stage_0() {
        // Fig. 5 / §3.3: the controls of stage k are "delayed versions" of
        // stage 0's. Every cycle, each stage k ≥ 1 must execute what stage
        // 0 executed k cycles earlier (`history[k − 1]`), under heavy
        // random traffic — with fused cut-through, store-and-forward,
        // multicast headers, and ECC armed with an upset struck into a
        // buffered packet.
        let n = 4;
        let base = SwitchConfig::symmetric(n, 16);
        let mut store_and_forward = base.clone();
        store_and_forward.cut_through = false;
        store_and_forward.fused_cut_through = false;
        let mut ecc = store_and_forward.clone();
        ecc.recovery = crate::recovery::RecoveryConfig::ecc_only();
        for (what, cfg, multicast, upset_at) in [
            ("cut-through", base.clone(), false, None),
            ("store-and-forward", store_and_forward, false, None),
            ("multicast", base, true, None),
            ("ecc", ecc, false, Some(1_000)),
        ] {
            let s = cfg.stages();
            let mut sw = PipelinedSwitch::new(cfg);
            let mut history = std::collections::VecDeque::from(vec![StageCtrl::Nop; s - 1]);
            let mut rng = simkernel::SplitMix64::new(3);
            let mut current: Vec<Option<(Packet, usize)>> = vec![None; n];
            let mut next_id = 1u64;
            let mut wire = vec![None; n];
            for t in 0..5_000u64 {
                let now = sw.now();
                for i in 0..n {
                    if current[i].is_none() && rng.chance(0.7) {
                        let p = if multicast {
                            let mask = 1 + rng.below_usize((1 << n) - 1) as u16;
                            Packet::synth_multicast(next_id, i, mask, s, now)
                        } else {
                            Packet::synth(next_id, i, rng.below_usize(n), s, now)
                        };
                        next_id += 1;
                        current[i] = Some((p, 0));
                    }
                    wire[i] = current[i].as_mut().map(|(p, k)| {
                        let w = p.words[*k];
                        *k += 1;
                        w
                    });
                    if current[i].as_ref().is_some_and(|(p, k)| *k == p.size_words) {
                        current[i] = None;
                    }
                }
                sw.tick(&wire);
                let row = sw.stage_controls();
                for k in 1..s {
                    assert_eq!(
                        row[k],
                        history[k - 1],
                        "{what}, cycle {t}: stage {k} is not stage 0 of {k} cycles earlier"
                    );
                }
                history.pop_back();
                history.push_front(row[0]);
                if upset_at == Some(t) {
                    let live = (0..16).any(|a| sw.inject_bank_fault(s - 1, Addr(a), 1).is_some());
                    assert!(live, "{what}: no buffered packet to strike");
                }
            }
            assert!(sw.counters().departed > 1_000, "{what}");
            if upset_at.is_some() {
                assert!(sw.counters().ecc_corrected > 0, "{what}: upset never met");
            }
        }
    }

    /// Feed `packets` word-streams back to back on input 0, then idle to
    /// quiescence; returns delivered packets and the switch.
    fn feed_and_drain(
        mut sw: PipelinedSwitch,
        words: &[u64],
    ) -> (Vec<DeliveredPacket>, PipelinedSwitch) {
        let s = sw.config().stages();
        let mut col = OutputCollector::new(sw.config().n_out, s);
        for &w in words {
            let c = sw.now();
            let out = sw.tick(&[Some(w), None]);
            col.observe(c, out);
        }
        for _ in 0..8 * s {
            let c = sw.now();
            let out = sw.tick(&[None, None]);
            col.observe(c, out);
        }
        (col.take(), sw)
    }

    #[test]
    fn hardened_bad_header_is_swallowed_and_flow_continues() {
        let mut cfg = SwitchConfig::symmetric(2, 8);
        cfg.integrity.harden = true;
        let sw = PipelinedSwitch::new(cfg);
        let s = 4;
        let bad = Packet::encode_header(5, 1); // output 5 of a 2×2
        let good = Packet::synth(9, 0, 1, s, 0);
        let mut words = vec![bad, 0, 0, 0];
        words.extend_from_slice(&good.words);
        let (pkts, sw) = feed_and_drain(sw, &words);
        assert_eq!(pkts.len(), 1, "only the good packet emerges");
        assert_eq!(pkts[0].id, 9);
        assert!(pkts[0].verify_payload());
        let ctr = sw.counters();
        assert_eq!(ctr.corrupt_drops, 1);
        assert_eq!(ctr.departed, 1);
        assert!(sw.is_quiescent());
    }

    #[test]
    fn hardened_truncation_is_dropped_and_flow_continues() {
        let mut cfg = SwitchConfig::symmetric(2, 8);
        cfg.integrity.harden = true;
        let mut sw = PipelinedSwitch::new(cfg);
        let s = 4;
        let cut = Packet::synth(3, 0, 0, s, 0);
        let mut col = OutputCollector::new(2, s);
        // Two words of the packet, then the link goes dead mid-packet.
        for k in 0..2 {
            let c = sw.now();
            let out = sw.tick(&[Some(cut.words[k]), None]);
            col.observe(c, out);
        }
        for _ in 0..8 * s {
            let c = sw.now();
            let out = sw.tick(&[None, None]);
            col.observe(c, out);
        }
        // A fused read may already be streaming the truncated packet when
        // the link dies; its copy is poisoned and dropped at read time
        // only if the read had not launched. Either way the switch
        // settles, counts the loss, and keeps working.
        let good = Packet::synth(4, 0, 1, s, 0);
        for k in 0..s {
            let c = sw.now();
            let out = sw.tick(&[Some(good.words[k]), None]);
            col.observe(c, out);
        }
        for _ in 0..8 * s {
            let c = sw.now();
            let out = sw.tick(&[None, None]);
            col.observe(c, out);
        }
        let delivered: Vec<_> = col.take();
        assert!(delivered.iter().any(|p| p.id == 4 && p.verify_payload()));
        assert!(sw.is_quiescent());
        assert_eq!(sw.counters().in_flight(), 0, "loss is fully accounted");
    }

    #[test]
    fn a_truncated_packet_leaves_its_queue() {
        // Header for output 1 at 0, then the link idles: the packet is
        // dropped at 1, before its write grant, and with it goes its
        // entry in output 1's queue — the queue-depth gauge returns to 0
        // with the occupancy gauge.
        use telemetry::{GaugeKind, Recorder, Shared};
        let mut cfg = SwitchConfig::symmetric(2, 8);
        cfg.integrity.harden = true;
        let mut sw = PipelinedSwitch::new(cfg);
        let rec = Shared::new(Recorder::unbounded());
        sw.attach_probe(rec.handle());
        let header = Packet::synth(3, 0, 1, 4, 0).words[0];
        sw.tick(&[Some(header), None]);
        for _ in 0..8 {
            sw.tick(&[None, None]);
        }
        assert!(sw.is_quiescent());
        assert_eq!(sw.counters().in_flight(), 0);
        let last = |kind: GaugeKind, j: usize| {
            rec.with(|r| {
                r.iter()
                    .filter_map(|e| match e.event {
                        ProbeEvent::Gauge {
                            gauge,
                            index,
                            value,
                        } if gauge == kind && index == j => Some((e.cycle, value)),
                        _ => None,
                    })
                    .last()
            })
        };
        assert_eq!(last(GaugeKind::Occupancy, 0), Some((1, 0)));
        assert_eq!(last(GaugeKind::QueueDepth, 1), Some((1, 0)));
    }

    #[test]
    fn tampered_payload_dropped_in_store_and_forward() {
        let mut cfg = SwitchConfig::symmetric(2, 8);
        cfg.cut_through = false;
        cfg.fused_cut_through = false;
        cfg.integrity.payload_check = true;
        let sw = PipelinedSwitch::new(cfg);
        let s = 4;
        let mut p = Packet::synth(7, 0, 1, s, 0);
        p.words[2] ^= 1; // corrupt on the input wire
        let (pkts, sw) = feed_and_drain(sw, &p.words);
        assert!(pkts.is_empty(), "condemned before the read launches");
        assert_eq!(sw.counters().corrupt_drops, 1);
        assert!(sw.is_quiescent());
    }

    #[test]
    fn tampered_payload_flagged_at_egress_under_cut_through() {
        // With fused cut-through the read wave is already streaming when
        // the ingress check trips — too late to drop; the egress check
        // (the modeled link CRC) flags the delivery instead.
        let mut cfg = SwitchConfig::symmetric(2, 8);
        cfg.integrity.payload_check = true;
        let sw = PipelinedSwitch::new(cfg);
        let s = 4;
        let mut p = Packet::synth(7, 0, 1, s, 0);
        p.words[2] ^= 1;
        let (pkts, sw) = feed_and_drain(sw, &p.words);
        assert_eq!(pkts.len(), 1, "already on the wire");
        assert!(!pkts[0].verify_payload());
        assert_eq!(sw.counters().corrupt_delivered, 1);
        assert_eq!(sw.counters().corrupt_drops, 0);
    }

    #[test]
    fn bank_upset_caught_by_scrub_and_liveness_reported() {
        let mut cfg = SwitchConfig::symmetric(2, 8);
        cfg.cut_through = false;
        cfg.fused_cut_through = false;
        let mut sw = PipelinedSwitch::new(cfg);
        let s = 4;
        let p = Packet::synth(7, 0, 1, s, 0);
        for k in 0..s {
            sw.tick(&[Some(p.words[k]), None]);
        }
        // Packet fully buffered, read not yet launched: flip one bit of
        // its stage-2 word wherever it lives.
        let mut hit = None;
        for a in 0..8 {
            if let Some(id) = sw.inject_bank_fault(2, Addr(a), 1) {
                hit = Some(id);
            }
        }
        assert_eq!(hit, Some(7), "exactly one slot held live data");
        let mut col = OutputCollector::new(2, s);
        for _ in 0..8 * s {
            let c = sw.now();
            let out = sw.tick(&[None, None]);
            col.observe(c, out);
        }
        assert!(col.take().is_empty(), "scrub dropped the packet");
        assert_eq!(sw.counters().corrupt_drops, 1);
        assert!(sw.is_quiescent());
    }

    #[test]
    fn ecc_corrects_bank_upset_and_delivers_the_packet() {
        // Same strike as bank_upset_caught_by_scrub…, but with recovery
        // armed: the single-bit upset is corrected in place and the
        // packet departs intact instead of being condemned.
        let mut cfg = SwitchConfig::symmetric(2, 8);
        cfg.cut_through = false;
        cfg.fused_cut_through = false;
        cfg.recovery = crate::recovery::RecoveryConfig::ecc_only();
        let mut sw = PipelinedSwitch::new(cfg);
        let s = 4;
        let p = Packet::synth(7, 0, 1, s, 0);
        for k in 0..s {
            sw.tick(&[Some(p.words[k]), None]);
        }
        let mut hit = None;
        for a in 0..8 {
            if let Some(id) = sw.inject_bank_fault(2, Addr(a), 1) {
                hit = Some(id);
            }
        }
        assert_eq!(hit, Some(7));
        let mut col = OutputCollector::new(2, s);
        for _ in 0..8 * s {
            let c = sw.now();
            let out = sw.tick(&[None, None]);
            col.observe(c, out);
        }
        let pkts = col.take();
        assert_eq!(pkts.len(), 1, "corrected, not dropped");
        assert!(pkts[0].verify_payload());
        let ctr = sw.counters();
        assert_eq!(ctr.ecc_corrected, 1);
        assert_eq!(ctr.corrupt_drops, 0);
        assert_eq!(ctr.departed, 1);
        assert!(sw.is_quiescent());
    }

    #[test]
    fn repeated_upsets_trigger_spare_failover_then_degraded_mode() {
        let mut cfg = SwitchConfig::symmetric(2, 2);
        cfg.cut_through = false;
        cfg.fused_cut_through = false;
        cfg.recovery = crate::recovery::RecoveryConfig::full(1, 2);
        cfg.recovery.degrade_window = 3;
        let mut sw = PipelinedSwitch::new(cfg);
        let s = 4;
        assert_eq!(sw.spares_remaining(), 1);
        // Strike stage 2 once per buffered packet; every read scrubs and
        // corrects, and the second correction crosses the threshold.
        for round in 0..4u64 {
            let p = Packet::synth(round, 0, 1, s, 0);
            for k in 0..s {
                sw.tick(&[Some(p.words[k]), None]);
            }
            for a in 0..2 {
                sw.inject_bank_fault(2, Addr(a), 1);
            }
            for _ in 0..8 * s {
                sw.tick(&[None, None]);
            }
        }
        let ctr = sw.counters();
        assert_eq!(ctr.bank_failovers, 1, "spare consumed at the threshold");
        assert_eq!(sw.spares_remaining(), 0);
        assert!(
            sw.is_degraded(),
            "second threshold crossing with no spare left degrades"
        );
        assert!(sw.recovery_windows().count() >= 1);
        // Every corrected packet still departed; conservation holds.
        assert_eq!(ctr.in_flight(), 0);
        assert!(sw.is_quiescent());
    }

    #[test]
    fn admission_pauses_inside_a_failover_window() {
        let mut cfg = SwitchConfig::symmetric(2, 8);
        cfg.cut_through = false;
        cfg.fused_cut_through = false;
        cfg.recovery = crate::recovery::RecoveryConfig::full(1, 1);
        cfg.recovery.degrade_window = 200;
        let mut sw = PipelinedSwitch::new(cfg);
        let s = 4;
        // Buffer a packet, upset it: its read crosses the threshold
        // immediately (threshold 1) and opens a 200-cycle window.
        let p = Packet::synth(1, 0, 1, s, 0);
        for k in 0..s {
            sw.tick(&[Some(p.words[k]), None]);
        }
        for a in 0..8 {
            sw.inject_bank_fault(2, Addr(a), 1);
        }
        for _ in 0..8 * s {
            sw.tick(&[None, None]);
        }
        assert_eq!(sw.counters().bank_failovers, 1);
        assert!(sw.recovery_windows().active(sw.now()));
        // A packet offered during the settle window is shed at the door.
        let q = Packet::synth(2, 0, 1, s, 0);
        for k in 0..s {
            sw.tick(&[Some(q.words[k]), None]);
        }
        for _ in 0..8 * s {
            sw.tick(&[None, None]);
        }
        let ctr = sw.counters();
        assert_eq!(ctr.recovery_shed, 1);
        assert_eq!(ctr.dropped_buffer_full, 1, "shed counts as buffer-full");
        assert_eq!(ctr.in_flight(), 0, "conservation through the shed");
        assert!(sw.is_quiescent());
    }

    #[test]
    fn stuck_write_detected_by_scrub() {
        let mut cfg = SwitchConfig::symmetric(2, 8);
        cfg.cut_through = false;
        cfg.fused_cut_through = false;
        let mut sw = PipelinedSwitch::new(cfg);
        let s = 4;
        sw.force_stuck_write(2, 1_000);
        let p = Packet::synth(7, 0, 1, s, 3);
        let (pkts, sw) = feed_and_drain(sw, &p.words);
        assert!(pkts.is_empty(), "stale word condemned the packet");
        let ctr = sw.counters();
        assert_eq!(ctr.corrupt_drops, 1);
        assert!(ctr.writes_suppressed >= 1);
        assert!(sw.is_quiescent());
    }

    #[test]
    fn a_stuck_write_leaves_the_fused_copy_intact() {
        // §3.3's fused cut-through: the output register samples the write
        // bus, not the bank. With stage 2's write stuck the slot keeps a
        // stale word, yet the copy on the wire is the packet as sent.
        let mut sw = PipelinedSwitch::new(SwitchConfig::symmetric(2, 8));
        sw.force_stuck_write(2, 1_000);
        let p = Packet::synth(7, 0, 1, 4, 0);
        let (pkts, sw) = feed_and_drain(sw, &p.words);
        assert_eq!(pkts.len(), 1);
        assert!(
            pkts[0].verify_payload(),
            "fused copy came off the write bus"
        );
        let ctr = sw.counters();
        assert_eq!((ctr.fused_reads, ctr.writes_suppressed), (1, 1));
    }

    /// Tick `sw` up to cycle `until`, driving each `(header cycle, packet)`
    /// on its source link.
    fn drive(
        sw: &mut PipelinedSwitch,
        col: &mut OutputCollector,
        packets: &[(Cycle, Packet)],
        until: Cycle,
    ) {
        while sw.now() < until {
            let c = sw.now();
            let mut wire = vec![None; sw.config().n_in];
            for (at, p) in packets {
                if (*at..*at + p.size_words as Cycle).contains(&c) {
                    wire[p.src.index()] = Some(p.words[(c - at) as usize]);
                }
            }
            col.observe(c, sw.tick(&wire));
        }
    }

    /// Which of the delivered packets arrived intact, by id.
    fn intact(col: &mut OutputCollector) -> Vec<(u64, bool)> {
        let mut v: Vec<_> = col
            .take()
            .iter()
            .map(|d| (d.id, d.verify_payload()))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn upset_verdict_follows_wave_age_not_ring_slot() {
        // One slot, 8 stages. Packet 1's read wave starts at cycle 6 and
        // frees the slot; packet 2 takes it at 7 and its write wave starts
        // at 8 — ring slot 0, *before* the read wave's slot 6. After cycle
        // 8, stage 3 holds packet 1's word (written at 8), the read wave
        // samples it at 9, and packet 2 overwrites it only at 11.
        let mut cfg = SwitchConfig::symmetric(4, 1);
        cfg.fused_cut_through = false;
        let mut sw = PipelinedSwitch::new(cfg);
        let mut col = OutputCollector::new(4, 8);
        let packets = [
            (4, Packet::synth(1, 0, 0, 8, 4)),
            (7, Packet::synth(2, 1, 1, 8, 7)),
        ];
        drive(&mut sw, &mut col, &packets, 9);
        assert_eq!(sw.inject_bank_fault(3, Addr(0), 1), Some(1));
        drive(&mut sw, &mut col, &packets, 60);
        assert_eq!(intact(&mut col), [(1, false), (2, true)]);
    }

    #[test]
    fn upset_under_a_trailing_fused_wave_is_harmless() {
        // Packet 10 keeps output 0 busy so packet 1 reads unfused at 14;
        // packet 2 then reuses the slot with a fused wave at 16 (ring slot
        // 0, the read wave sits in 6). Packet 2's words come off the write
        // bus, never from the bank: behind the read wave the upset is
        // overwritten unread, ahead of it it strikes packet 1.
        let mut sw = PipelinedSwitch::new(SwitchConfig::symmetric(4, 1));
        let mut col = OutputCollector::new(4, 8);
        let packets = [
            (5, Packet::synth(10, 2, 0, 8, 5)),
            (7, Packet::synth(1, 0, 0, 8, 7)),
            (15, Packet::synth(2, 1, 1, 8, 15)),
        ];
        drive(&mut sw, &mut col, &packets, 17);
        assert_eq!(sw.counters().fused_reads, 2);
        assert_eq!(sw.inject_bank_fault(1, Addr(0), 1), None);
        assert_eq!(sw.inject_bank_fault(5, Addr(0), 1), Some(1));
        drive(&mut sw, &mut col, &packets, 80);
        assert_eq!(intact(&mut col), [(1, false), (2, true), (10, true)]);
    }

    #[test]
    #[should_panic(expected = "at most 128 pipeline stages")]
    fn more_than_128_stages_are_rejected() {
        // Asymmetric: 32 outputs is the ceiling of the destination mask.
        let mut cfg = SwitchConfig::symmetric(29, 4);
        cfg.n_in = 100;
        PipelinedSwitch::new(cfg);
    }

    // Each of the next four reaches one refresh site of the kept request
    // state; a debug build also rescans it after every tick.

    #[test]
    fn a_write_request_truncated_before_its_grant_is_withdrawn() {
        // Headers on both inputs at 0 for output 1: input 0 wins the
        // write grant at 1 (EDF tie, lowest port) and cuts through, and
        // input 1's link idles at 1, dropping its packet before its
        // grant. A write request left standing would be granted at 2
        // with nothing pending.
        let mut cfg = SwitchConfig::symmetric(2, 8);
        cfg.integrity.harden = true;
        let mut sw = PipelinedSwitch::new(cfg);
        let mut col = OutputCollector::new(2, 4);
        let a = [(0, Packet::synth(1, 0, 1, 4, 0))];
        let b = Packet::synth(2, 1, 1, 4, 0);
        col.observe(0, sw.tick(&[Some(a[0].1.words[0]), Some(b.words[0])]));
        drive(&mut sw, &mut col, &a, 2);
        assert_eq!(sw.core.requests.welig_at, [Cycle::MAX; 2]);
        drive(&mut sw, &mut col, &a, 20);
        assert_eq!(intact(&mut col), [(1, true)]);
        assert_eq!(sw.counters().in_flight(), 0);
        assert!(sw.is_quiescent());
    }

    #[test]
    fn pushing_out_a_queue_head_withdraws_its_read_request() {
        // The behavioral model's push-out case, word for word: 3 x 1,
        // S = 4, two slots. A and P arrive together, X two cycles later;
        // A cuts through, P is read at 5, and X — written at 3 — heads
        // the queue, readable at 9. At 7, Y fills the pool and D pushes
        // out the rearmost evictable packet: X, the head. A read request
        // left standing would start Y's read at 9, before its write.
        let mut cfg = SwitchConfig::symmetric(3, 2).with_policy(crate::PolicyKind::PushOut);
        cfg.n_out = 1;
        let mut sw = PipelinedSwitch::new(cfg);
        let mut col = OutputCollector::new(1, 4);
        let packets = [
            (0, Packet::synth(1, 0, 0, 4, 0)),
            (0, Packet::synth(2, 1, 0, 4, 0)),
            (2, Packet::synth(3, 2, 0, 4, 2)),
            (7, Packet::synth(4, 0, 0, 4, 7)),
            (7, Packet::synth(5, 1, 0, 4, 7)),
        ];
        drive(&mut sw, &mut col, &packets, 7);
        assert_eq!(sw.core.requests.ready_at[0], 9, "X heads the queue");
        drive(&mut sw, &mut col, &packets, 8);
        assert_eq!(sw.counters().policy_preempts, 1);
        assert_eq!(sw.core.requests.ready_at[0], Cycle::MAX, "Y is unwritten");
        drive(&mut sw, &mut col, &packets, 60);
        assert_eq!(
            intact(&mut col),
            [(1, true), (2, true), (4, true), (5, true)]
        );
    }

    #[test]
    fn a_poisoned_read_spends_its_slot_and_moves_the_head() {
        // Store-and-forward, one input, both packets for output 1. The
        // first is tampered with on the wire: it is written at 1, its
        // read at 5 spends the initiation slot without a wave, and the
        // second — header at 4, written at 6 — reads at 6 + S = 10. A
        // read request left standing would win cycle 6 over that write
        // and read the second packet before it was written.
        let mut cfg = SwitchConfig::symmetric(2, 8);
        cfg.cut_through = false;
        cfg.fused_cut_through = false;
        cfg.integrity.payload_check = true;
        let mut sw = PipelinedSwitch::new(cfg);
        let mut col = OutputCollector::new(2, 4);
        let mut bad = Packet::synth(1, 0, 1, 4, 0);
        bad.words[2] ^= 1;
        let packets = [(0, bad), (4, Packet::synth(2, 0, 1, 4, 4))];
        drive(&mut sw, &mut col, &packets, 6);
        assert_eq!(sw.counters().corrupt_drops, 1);
        assert_eq!(
            sw.core.requests.req,
            [0, 1],
            "only the second packet's write"
        );
        drive(&mut sw, &mut col, &packets, 40);
        let got: Vec<_> = col.take().iter().map(|d| (d.id, d.first_cycle)).collect();
        assert_eq!(got, [(2, 11)]);
    }

    #[test]
    fn a_fused_multicast_copy_leaves_the_other_copy_requesting() {
        // One packet for outputs 0 and 1: its write wave at 1 fuses the
        // read of output 0, and the same grant makes output 1's copy
        // readable at 2.
        let mut sw = PipelinedSwitch::new(SwitchConfig::symmetric(2, 8));
        let mut col = OutputCollector::new(2, 4);
        let packets = [(0, Packet::synth_multicast(1, 0, 0b11, 4, 0))];
        drive(&mut sw, &mut col, &packets, 2);
        assert_eq!(sw.core.requests.ready_at, [Cycle::MAX, 2]);
        drive(&mut sw, &mut col, &packets, 20);
        let mut got: Vec<_> = col
            .take()
            .iter()
            .map(|d| (d.output.index(), d.first_cycle, d.verify_payload()))
            .collect();
        got.sort_unstable();
        assert_eq!(got, [(0, 2, true), (1, 3, true)]);
        assert_eq!(sw.counters().fused_reads, 1);
    }

    #[test]
    #[should_panic(expected = "at most 64 inputs")]
    fn more_than_64_inputs_are_rejected() {
        let mut cfg = SwitchConfig::symmetric(2, 4);
        cfg.n_in = 65;
        PipelinedSwitch::new(cfg);
    }

    #[test]
    #[should_panic(expected = "link protocol violation")]
    fn idle_mid_packet_panics() {
        let mut sw = PipelinedSwitch::new(SwitchConfig::symmetric(2, 8));
        let p = Packet::synth(7, 0, 1, 4, 0);
        sw.tick(&[Some(p.words[0]), None]);
        sw.tick(&[None, None]);
    }

    #[test]
    #[should_panic(expected = "addressed nonexistent outputs (mask 0x20, 2 outputs)")]
    fn bad_destination_panics() {
        let mut sw = PipelinedSwitch::new(SwitchConfig::symmetric(2, 8));
        let header = Packet::encode_header(5, 1); // output 5 of a 2×2
        sw.tick(&[Some(header), None]);
    }
}
