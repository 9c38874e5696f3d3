//! Word-level switch model over the interleaved (one-packet-per-bank)
//! shared buffer — the PRIZMA-style organization of §3.1/§5.3
//! (\[DeEI95\]) that `membank::interleaved` provides the memory for.
//!
//! Structure:
//!
//! * `M` single-ported banks, each holding exactly one packet
//!   ([`membank::interleaved::InterleavedMemory`]); a free bank is
//!   claimed at header arrival and the packet streams into it one word
//!   per cycle;
//! * per-output FIFO descriptor queues (service order is packet arrival
//!   order, as in the pipelined organization);
//! * **store-and-forward only**: the bank port that is busy accepting
//!   word `k` cannot concurrently source word `0` for the output link,
//!   so transmission starts at `a + S` at the earliest — the latency
//!   cost this organization pays that the pipelined memory's cut-through
//!   avoids (§3.3), which the conformance fuzzer's latency oracle relies
//!   on;
//! * a checksum **scrub at transmission start** (the per-bank ECC check):
//!   a stored-word upset is detected while the packet is still
//!   droppable, mirroring the pipelined model's read-initiation scrub
//!   and the wide model's fetch scrub.
//!
//! Unlike the single wide memory or the single wave-initiation port,
//! nothing serializes *between* banks here: all inputs can write and all
//! outputs can read in the same cycle, provided they touch distinct
//! banks (which one-packet-per-bank guarantees). The price, per §5.3, is
//! the `n×M` router/selector crossbars — `vlsimodel` does that
//! accounting; this model pins the behavior.

use crate::ctl::{Arrival, ControlPlane};
use crate::policy::PolicyKind;
use crate::recovery::RecoveryConfig;
use crate::rtl::{integrity_checksum, mask_where};
use membank::interleaved::{BankId, InterleavedMemory};
use simkernel::ids::Cycle;
use simkernel::{bits, cell::Packet};
use std::collections::VecDeque;
use telemetry::DropReason;

/// Configuration of the interleaved-bank switch.
#[derive(Debug, Clone)]
pub struct InterleavedSwitchConfig {
    /// Inputs (= outputs).
    pub n: usize,
    /// Banks (= packet slots `M`).
    pub banks: usize,
    /// Fault-recovery machinery. One packet per bank makes this the most
    /// natural failover organization: a bank whose cumulative ECC
    /// corrections cross the threshold is retired from the allocation
    /// pool (draining its in-flight packet first) and a spare bank
    /// promoted in its place; with the reserve dry, capacity degrades by
    /// one bank per retirement.
    pub recovery: RecoveryConfig,
    /// Buffer-sharing policy governing bank admission/preemption
    /// (DESIGN.md §12). Decided at header time; queue lengths see only
    /// fully stored packets (descriptors are queued at tail time).
    pub policy: PolicyKind,
}

impl InterleavedSwitchConfig {
    /// Symmetric `n×n` switch with `banks` one-packet banks — the
    /// configuration the conformance fuzzer drives.
    pub fn symmetric(n: usize, banks: usize) -> Self {
        InterleavedSwitchConfig {
            n,
            banks,
            recovery: RecoveryConfig::default(),
            policy: PolicyKind::Static,
        }
    }

    /// The same configuration with the given recovery policy armed.
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = recovery;
        self
    }

    /// The same configuration with the given buffer-sharing policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Packet size in words (kept equal to the pipelined quantum `2n` so
    /// the organizations are directly comparable).
    pub fn packet_words(&self) -> usize {
        2 * self.n
    }
}

/// A packet streaming into its bank from input `i`.
#[derive(Debug, Clone)]
struct Arriving {
    /// `None` when the packet was dropped at header (no free bank): the
    /// remaining words still occupy the link but go nowhere.
    bank: Option<BankId>,
    dst: usize,
    id: u64,
    birth: Cycle,
    /// Next word index.
    k: usize,
    /// Checksum accumulated as words stream in (stamped into the
    /// descriptor at tail time; the scrub recomputes it from the bank).
    sum: u64,
}

/// A fully stored packet waiting its turn on an output link.
#[derive(Debug, Clone, Copy)]
struct Stored {
    bank: BankId,
    id: u64,
    birth: Cycle,
    sum: u64,
    /// Earliest cycle the bank port is free for reads (tail write + 1).
    ready: Cycle,
}

/// The interleaved one-packet-per-bank shared-buffer switch.
///
/// Which inputs are in mid-packet, which outputs transmit and which have
/// a packet queued are kept as `u128` masks beside `arriving`, `tx` and
/// `queues`, so a cycle visits the outputs that have work.
#[derive(Debug)]
pub struct InterleavedSwitch {
    cfg: InterleavedSwitchConfig,
    mem: InterleavedMemory,
    arriving: Vec<Option<Arriving>>,
    arriving_mask: u128,
    queues: Vec<VecDeque<Stored>>,
    /// Outputs whose queue is non-empty.
    queued: u128,
    /// Per output: (bank, next word index, id, birth) of the packet in
    /// transmission.
    tx: Vec<Option<(BankId, usize, u64, Cycle)>>,
    tx_mask: u128,
    cycle: Cycle,
    /// Counters, probe, sharing policy and recovery ledger.
    ctl: ControlPlane,
    /// Reusable per-cycle scratch (hot path: must not allocate).
    wire_out: Vec<Option<u64>>,
    scratch_freed: Vec<BankId>,
}

impl InterleavedSwitch {
    /// Build the switch.
    pub fn new(cfg: InterleavedSwitchConfig) -> Self {
        assert!(cfg.n >= 1 && cfg.banks >= 1);
        assert!(
            cfg.n <= 128,
            "the interleaved model keeps its port sets in `u128` masks: \
             at most 128 ports, this configuration has {}",
            cfg.n
        );
        let s = cfg.packet_words();
        let mut mem =
            InterleavedMemory::new_with_spares(cfg.banks, cfg.recovery.spare_banks, s, 64);
        if cfg.recovery.ecc {
            mem.enable_ecc();
        }
        InterleavedSwitch {
            mem,
            arriving: vec![None; cfg.n],
            arriving_mask: 0,
            queues: vec![VecDeque::new(); cfg.n],
            queued: 0,
            tx: vec![None; cfg.n],
            tx_mask: 0,
            cycle: 0,
            // Natural settle time of one failover: one packet time.
            ctl: ControlPlane::new(cfg.n, s, cfg.policy, cfg.recovery, s as u64),
            wire_out: vec![None; cfg.n],
            scratch_freed: Vec::with_capacity(cfg.n),
            cfg,
        }
    }

    /// Banks currently holding (or receiving) a packet.
    pub fn occupancy(&self) -> usize {
        self.mem.occupied_count()
    }

    /// Packet size in words.
    pub fn packet_words(&self) -> usize {
        self.cfg.packet_words()
    }

    /// True when nothing is buffered or in flight.
    #[inline]
    pub fn is_quiescent(&self) -> bool {
        self.mem.occupied_count() == 0 && (self.arriving_mask | self.tx_mask | self.queued) == 0
    }

    /// Every mask equals a rescan of the state it summarizes.
    fn masks_hold(&self) -> bool {
        let n = self.cfg.n;
        self.arriving_mask == mask_where(n, |i| self.arriving[i].is_some())
            && self.tx_mask == mask_where(n, |j| self.tx[j].is_some())
            && self.queued == mask_where(n, |j| !self.queues[j].is_empty())
    }

    /// ECC-scrub every word of bank `b`; retire the bank when its
    /// cumulative corrections cross the failover threshold.
    fn scrub_bank(&mut self, b: BankId, c: Cycle) {
        for k in 0..self.cfg.packet_words() {
            let outcome = self.mem.scrub_word(b, k);
            self.ctl.ecc(c, b.0, outcome, k as u64);
        }
        if self.ctl.over_threshold(self.mem.bank_corrections(b)) {
            let before = self.mem.failovers();
            let spare = self.mem.retire(b);
            if self.mem.failovers() > before {
                self.ctl.failover(c, b.0, self.mem.spares_remaining());
                if spare.is_none() {
                    self.ctl.degraded_enter(c, b.0, self.mem.banks() as u64);
                }
            }
        }
    }

    /// True once retirements have outrun the spare pool and bank
    /// capacity dropped below the configured count.
    pub fn is_degraded(&self) -> bool {
        self.mem.banks() < self.cfg.banks
    }

    /// Spare banks still in reserve.
    pub fn spares_remaining(&self) -> usize {
        self.mem.spares_remaining()
    }

    /// Fault injection (testbench only): flip the bits of `mask` in word
    /// `word` of bank `slot`. Returns `true` when the bank currently
    /// holds a fully stored, not-yet-transmitting packet — i.e. the upset
    /// can reach the transmission-start scrub.
    pub fn inject_upset(&mut self, slot: usize, word: usize, mask: u64) -> bool {
        self.mem.inject_fault(BankId(slot), word, mask);
        self.queues
            .iter()
            .any(|q| q.iter().any(|st| st.bank == BankId(slot)))
    }

    /// Advance one cycle: words in on every input link, words out on
    /// every output link. The returned slice borrows internal scratch
    /// and is valid until the next tick.
    pub fn tick(&mut self, wire_in: &[Option<u64>]) -> &[Option<u64>] {
        assert_eq!(wire_in.len(), self.cfg.n);
        let c = self.cycle;
        let s = self.cfg.packet_words();
        let n = self.cfg.n;
        self.mem.begin_cycle(c);

        // ------------------------------------------------------------------
        // 1. Output links: start and continue transmissions. Each output
        //    reads its own bank — banks never conflict across outputs.
        //    Banks vacated this cycle return to the free pool at end of
        //    tick: the tail read already used the bank's port, so a
        //    same-cycle reallocation could not legally write it.
        // ------------------------------------------------------------------
        self.scratch_freed.clear();
        self.wire_out.fill(None);
        for j in bits(self.tx_mask | self.queued) {
            if self.tx_mask >> j & 1 == 0 {
                let head = *self.queues[j].front().expect("queued bit set");
                if head.ready <= c {
                    self.queues[j].pop_front();
                    if self.queues[j].is_empty() {
                        self.queued &= !(1 << j);
                    }
                    // ECC pass over the bank before the checksum
                    // samples it: single-bit upsets are corrected in
                    // place, and a bank failing repeatedly is retired
                    // (it drains this packet first, then leaves the
                    // pool on release).
                    if self.ctl.ecc_on() {
                        self.scrub_bank(head.bank, c);
                    }
                    let stored = self.mem.peek_packet(head.bank);
                    if integrity_checksum(stored.iter().copied()) != head.sum {
                        // Detect-and-drop: the initiation slot is
                        // spent; the bank is freed immediately.
                        self.scratch_freed.push(head.bank);
                        self.ctl.drop(c, head.id, DropReason::Checksum);
                    } else {
                        self.tx[j] = Some((head.bank, 0, head.id, head.birth));
                        self.tx_mask |= 1 << j;
                        // BShare queueing-delay signal:
                        // birth-to-transmission-start.
                        self.ctl.on_read(j, c - head.birth);
                        self.ctl.read_wave(c, j, head.bank.0, false);
                    }
                }
            }
            if let Some((bank, k, id, birth)) = self.tx[j].as_mut() {
                let w = self
                    .mem
                    .read_word(*bank, *k)
                    .expect("output owns its bank's port");
                self.wire_out[j] = Some(w);
                *k += 1;
                if *k == s {
                    let (b, id, birth) = (*bank, *id, *birth);
                    self.tx[j] = None;
                    self.tx_mask &= !(1 << j);
                    self.scratch_freed.push(b);
                    self.ctl.departed(c, j, id, birth);
                }
            }
        }

        // ------------------------------------------------------------------
        // 2. Input links: header decode, bank allocation, word streaming.
        //    All packets are S words, so tail order equals header order —
        //    pushing descriptors at tail time preserves per-output FIFO.
        // ------------------------------------------------------------------
        for (i, w) in wire_in.iter().enumerate() {
            let Some(word) = w else {
                assert!(
                    self.arriving[i].is_none(),
                    "link protocol violation: idle inside a packet on input {i}"
                );
                continue;
            };
            if self.arriving[i].is_none() {
                let (dst, id) = Packet::decode_header(*word);
                assert!(dst < n, "bad destination {dst}");
                self.ctl.header(c, i, id, dst);
                // Queued packets are fully stored and not in transmission
                // (transmission pops the queue), so push-out may take the
                // rearmost entry of the victim queue whose bank port is
                // idle: a packet stored this very cycle used its bank's
                // write port this cycle, and the single-ported bank
                // cannot take the preemptor's header word too
                // (`ready <= c`: the last write retired earlier).
                let admitted = self.ctl.admit(
                    Arrival {
                        c,
                        id,
                        dst,
                        occupancy: self.mem.occupied_count(),
                        capacity: self.mem.banks(),
                    },
                    &mut (&mut self.queues, &mut self.mem, &mut self.queued),
                    |(queues, ..), j| queues[j].len(),
                    |(queues, mem, queued), victim| {
                        let ix = queues[victim].iter().rposition(|st| st.ready <= c)?;
                        let st = queues[victim].remove(ix)?;
                        if queues[victim].is_empty() {
                            **queued &= !(1 << victim);
                        }
                        mem.release(st.bank);
                        Some(st.id)
                    },
                );
                let bank = if admitted { self.mem.allocate() } else { None };
                match bank {
                    Some(b) => self.ctl.write_wave(c, i, b.0),
                    None if admitted => self.ctl.drop(c, id, DropReason::BufferFull),
                    None => {}
                }
                self.arriving[i] = Some(Arriving {
                    bank,
                    dst,
                    id,
                    birth: c,
                    k: 0,
                    sum: 0,
                });
                self.arriving_mask |= 1 << i;
            }
            let ar = self.arriving[i].as_mut().expect("header just decoded");
            if let Some(bank) = ar.bank {
                self.mem
                    .write_word(bank, ar.k, *word)
                    .expect("input owns its bank's port");
                ar.sum = ar.sum.rotate_left(1) ^ *word;
            }
            ar.k += 1;
            if ar.k == s {
                let ar = self.arriving[i].take().expect("tail of a live packet");
                self.arriving_mask &= !(1 << i);
                if let Some(bank) = ar.bank {
                    self.queued |= 1 << ar.dst;
                    self.queues[ar.dst].push_back(Stored {
                        bank,
                        id: ar.id,
                        birth: ar.birth,
                        sum: ar.sum,
                        ready: c + 1,
                    });
                }
            }
        }

        for &b in &self.scratch_freed {
            self.mem.release(b);
        }

        if self.ctl.probed() {
            self.ctl.gauge_occupancy(c, self.mem.occupied_count());
            for j in 0..n {
                self.ctl.gauge_queue_depth(c, j, self.queues[j].len());
            }
        }

        debug_assert!(self.masks_hold(), "a port mask drifted from its state");

        self.cycle = c + 1;
        &self.wire_out
    }
}

crate::word::word_switch!(InterleavedSwitch, ctl);

impl simkernel::Horizon for InterleavedSwitch {
    fn now(&self) -> Cycle {
        self.cycle
    }

    /// Under idle input the only future event is a queued packet's bank
    /// port becoming readable (`Stored::ready`); active transmissions
    /// and mid-stream arrivals touch state every cycle and force dense
    /// stepping.
    fn next_event(&self) -> Option<Cycle> {
        if self.is_quiescent() {
            return None;
        }
        if (self.tx_mask | self.arriving_mask) != 0 {
            return Some(self.cycle);
        }
        bits(self.queued)
            .filter_map(|j| self.queues[j].front())
            .map(|head| head.ready.max(self.cycle))
            .min()
            // Not quiescent yet nothing queued, transmitting, or
            // arriving: unaccounted activity — conservative dense tick.
            .or(Some(self.cycle))
    }

    fn jump_to(&mut self, target: Cycle) {
        debug_assert!(target >= self.cycle, "jump_to moves time forward only");
        for w in &mut self.wire_out {
            *w = None;
        }
        self.cycle = target;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtl::OutputCollector;
    use crate::word::testkit::random_traffic;
    use crate::WordSwitch as _;

    fn run_schedule(
        cfg: InterleavedSwitchConfig,
        packets: &[(usize, Packet)],
        extra: usize,
    ) -> (Vec<crate::rtl::DeliveredPacket>, InterleavedSwitch) {
        let s = cfg.packet_words();
        let n = cfg.n;
        let mut sw = InterleavedSwitch::new(cfg);
        let mut col = OutputCollector::new(n, s);
        let horizon = packets
            .iter()
            .map(|(start, _)| start + s)
            .max()
            .unwrap_or(0)
            + extra;
        for t in 0..horizon {
            let mut wire = vec![None; n];
            for (start, p) in packets {
                if t >= *start && t < start + s {
                    let i = p.src.index();
                    assert!(wire[i].is_none(), "two packets on input {i}");
                    wire[i] = Some(p.words[t - start]);
                }
            }
            let now = sw.now();
            let out = sw.tick(&wire);
            col.observe(now, out);
        }
        (col.take(), sw)
    }

    #[test]
    fn store_and_forward_timing() {
        // Header at 0, tail written at S-1, transmission from S at the
        // earliest: the latency this organization pays for its
        // single-ported one-packet banks (no cut-through possible).
        let cfg = InterleavedSwitchConfig::symmetric(2, 8);
        let s = cfg.packet_words();
        let p = Packet::synth(1, 0, 1, s, 0);
        let (pkts, sw) = run_schedule(cfg, &[(0, p)], 30);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].first_cycle, s as u64, "first word at a + S");
        assert!(pkts[0].verify_payload());
        assert_eq!(sw.counters().departed, 1);
        assert!(sw.is_quiescent());
    }

    #[test]
    fn same_output_service_is_fifo() {
        let cfg = InterleavedSwitchConfig::symmetric(2, 8);
        let s = cfg.packet_words();
        let a = Packet::synth(1, 0, 0, s, 0);
        let b = Packet::synth(2, 1, 0, s, 0);
        let c = Packet::synth(3, 0, 0, s, 0);
        let (pkts, _) = run_schedule(cfg, &[(0, a), (1, b), (s, c)], 60);
        assert_eq!(pkts.len(), 3);
        let ids: Vec<u64> = pkts
            .iter()
            .filter(|p| p.output.index() == 0)
            .map(|p| p.id)
            .collect();
        assert_eq!(ids, vec![1, 2, 3], "arrival order preserved");
        // Transmissions on one link must not overlap.
        assert!(pkts[1].first_cycle > pkts[0].last_cycle);
    }

    #[test]
    fn capacity_is_bank_count() {
        // 2 banks, 3 simultaneous arrivals: exactly one is dropped at
        // header time (no free bank), the others deliver.
        let cfg = InterleavedSwitchConfig::symmetric(4, 2);
        let s = cfg.packet_words();
        let pkts: Vec<(usize, Packet)> = (0..3)
            .map(|i| (0usize, Packet::synth(i as u64 + 1, i, 3, s, 0)))
            .collect();
        let (delivered, sw) = run_schedule(cfg, &pkts, 80);
        assert_eq!(sw.counters().dropped_buffer_full, 1);
        assert_eq!(delivered.len(), 2);
        assert!(sw.is_quiescent());
    }

    #[test]
    fn stored_upset_caught_by_scrub() {
        let cfg = InterleavedSwitchConfig::symmetric(2, 4);
        let s = cfg.packet_words();
        let mut sw = InterleavedSwitch::new(cfg);
        let mut col = OutputCollector::new(2, s);
        let p = Packet::synth(5, 0, 1, s, 0);
        for k in 0..s {
            let now = sw.now();
            let out = sw.tick(&[Some(p.words[k]), None]);
            col.observe(now, out);
        }
        // Fully stored, not yet transmitting: flip a bit in every bank;
        // exactly one holds the live packet.
        let live: Vec<usize> = (0..4).filter(|&b| sw.inject_upset(b, 2, 1)).collect();
        assert_eq!(live.len(), 1, "one bank holds the packet");
        simkernel::run_until_quiescent(100, "interleaved scrub drain", |_| {
            if sw.is_quiescent() {
                return true;
            }
            let now = sw.now();
            let out = sw.tick(&[None, None]);
            col.observe(now, out);
            false
        })
        .expect("drain hung");
        assert!(col.take().is_empty(), "corrupted packet must not deliver");
        assert_eq!(sw.counters().corrupt_drops, 1);
        assert_eq!(sw.occupancy(), 0, "condemned bank freed");
    }

    /// Store one packet, upset its live bank, drain; returns delivered
    /// packets and the drained switch.
    fn run_one_with_upset(
        cfg: InterleavedSwitchConfig,
    ) -> (Vec<crate::rtl::DeliveredPacket>, InterleavedSwitch) {
        let s = cfg.packet_words();
        let n = cfg.n;
        let total = cfg.banks + cfg.recovery.spare_banks;
        let mut sw = InterleavedSwitch::new(cfg);
        let mut col = OutputCollector::new(n, s);
        let p = Packet::synth(5, 0, 1, s, 0);
        for k in 0..s {
            let now = sw.now();
            let out = sw.tick(&[Some(p.words[k]), None]);
            col.observe(now, out);
        }
        let live = (0..total).filter(|&b| sw.inject_upset(b, 2, 1)).count();
        assert_eq!(live, 1, "one bank holds the packet");
        simkernel::run_until_quiescent(100, "ecc drain", |_| {
            if sw.is_quiescent() {
                return true;
            }
            let now = sw.now();
            let out = sw.tick(&[None, None]);
            col.observe(now, out);
            false
        })
        .expect("drain hung");
        (col.take(), sw)
    }

    #[test]
    fn ecc_corrects_bank_upset_and_delivers() {
        // Same strike as `stored_upset_caught_by_scrub`, but with ECC
        // armed the transmission-start scrub repairs the bit and the
        // packet delivers intact.
        let cfg =
            InterleavedSwitchConfig::symmetric(2, 4).with_recovery(RecoveryConfig::ecc_only());
        let (pkts, sw) = run_one_with_upset(cfg);
        assert_eq!(pkts.len(), 1, "corrected packet delivers");
        assert!(pkts[0].verify_payload());
        assert_eq!(sw.counters().corrupt_drops, 0);
        assert_eq!(sw.counters().ecc_corrected, 1);
        assert!(!sw.is_degraded());
    }

    #[test]
    fn occamy_refuses_arrivals_once_every_bank_is_retired() {
        // One bank, no spare, threshold 1: the struck bank drains its
        // packet and leaves the pool, so capacity reaches 0. The next
        // arrival is a policy drop, not a watermark underflow.
        let cfg = InterleavedSwitchConfig::symmetric(2, 1)
            .with_recovery(RecoveryConfig::full(0, 1))
            .with_policy(PolicyKind::Occamy);
        let (pkts, mut sw) = run_one_with_upset(cfg);
        assert_eq!(pkts.len(), 1, "retiring bank still drains its packet");
        assert_eq!(sw.mem.banks(), 0, "the only bank is retired");
        let s = sw.packet_words();
        let p = Packet::synth(6, 0, 1, s, sw.now());
        for k in 0..s {
            sw.tick(&[Some(p.words[k]), None]);
        }
        for _ in 0..2 * s {
            sw.tick(&[None, None]);
        }
        assert_eq!(sw.counters().policy_drops, 1);
        assert_eq!(sw.counters().dropped_buffer_full, 0);
        assert!(sw.is_quiescent());
    }

    #[test]
    fn repeated_corrections_retire_the_bank_spare_first() {
        // Threshold 1: the first correction retires the struck bank. The
        // retired bank drains its packet, then leaves the pool; the
        // spare keeps capacity whole.
        let cfg =
            InterleavedSwitchConfig::symmetric(2, 4).with_recovery(RecoveryConfig::full(1, 1));
        let (pkts, sw) = run_one_with_upset(cfg);
        assert_eq!(pkts.len(), 1, "retiring bank still drains its packet");
        assert_eq!(sw.counters().bank_failovers, 1);
        assert_eq!(sw.spares_remaining(), 0, "spare promoted into service");
        assert!(!sw.is_degraded(), "spare kept capacity whole");
        assert_eq!(sw.recovery_windows().count(), 1, "one settle window");
        assert!(sw.is_quiescent());

        // No reserve: the same strike shrinks capacity by one bank.
        let cfg =
            InterleavedSwitchConfig::symmetric(2, 4).with_recovery(RecoveryConfig::full(0, 1));
        let (_, sw) = run_one_with_upset(cfg);
        assert_eq!(sw.counters().bank_failovers, 1);
        assert!(sw.is_degraded(), "no spare: capacity shrinks");
        assert!(sw.is_quiescent());
    }

    #[test]
    fn conservation_under_random_traffic() {
        let cfg = InterleavedSwitchConfig::symmetric(4, 16);
        let (pkts, sw) = random_traffic(InterleavedSwitch::new(cfg), 4, 17, 20_000);
        let ctr = sw.counters();
        assert!(pkts.iter().all(|p| p.verify_payload()));
        assert_eq!(
            ctr.arrived,
            pkts.len() as u64 + ctr.dropped_buffer_full,
            "conservation violated"
        );
        assert!(pkts.len() > 3_000);
    }

    #[test]
    fn masks_follow_the_queues_through_push_out_and_drain() {
        // Eight banks under more traffic than they hold: push-out removes
        // entries from inside a queue — the one place a queue empties
        // outside transmission start — and the drain then empties
        // everything. `tick` re-derives every mask from the state it
        // summarizes in a debug build, so the 3000 cycles are 3000 checks.
        let cfg = InterleavedSwitchConfig::symmetric(4, 8).with_policy(PolicyKind::PushOut);
        let (pkts, sw) = random_traffic(InterleavedSwitch::new(cfg), 4, 33, 3_000);
        let ctr = sw.counters();
        assert!(ctr.policy_preempts > 0, "nothing was ever pushed out");
        assert!(pkts.iter().all(|p| p.verify_payload()));
        assert_eq!(ctr.departed, pkts.len() as u64);
        assert_eq!(ctr.in_flight(), 0, "conservation violated: {ctr:?}");
        assert!(sw.is_quiescent() && sw.masks_hold());
    }

    #[test]
    #[should_panic(expected = "at most 128 ports")]
    fn more_than_128_ports_are_rejected() {
        InterleavedSwitch::new(InterleavedSwitchConfig::symmetric(129, 8));
    }
}
