//! PRIZMA-style interleaved shared buffer (§3.1, §5.3, \[DeEI95\], \[Turn93\]).
//!
//! `M` small independent single-ported banks; **each packet is stored
//! entirely within one bank, and each bank holds exactly one packet**. A
//! packet streams into its bank one word per cycle (the bank's port allows
//! it), and different banks operate concurrently, so aggregate throughput
//! scales with the number of banks — the scalability property \[DeEI95\]
//! chose this organization for. The cost, which §5.3 quantifies and
//! `vlsimodel::compare` reproduces, is the `n×M` router/selector crossbars
//! and the per-bank address decoders.

use crate::bank::{EccOutcome, PortKind, PortViolation, SramBank};
use simkernel::ids::{Addr, Cycle};

/// Identifies one bank (= one packet slot) of the interleaved buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BankId(pub usize);

/// The interleaved (one-packet-per-bank) shared buffer.
#[derive(Debug, Clone)]
pub struct InterleavedMemory {
    banks: Vec<SramBank>,
    occupied: Vec<bool>,
    /// Set entries of `occupied`.
    in_use: usize,
    free: Vec<BankId>,
    packet_words: usize,
    /// Banks masked out by hot failover: never allocated again.
    retired: Vec<bool>,
    /// Spare banks not yet promoted into the allocation pool.
    spare_pool: Vec<BankId>,
    /// Banks retired so far: the set entries of `retired`.
    failovers: u64,
    /// The open cycle. A bank hears of it at its next access, not at
    /// [`InterleavedMemory::begin_cycle`]: a cycle costs what it touches.
    cycle: Cycle,
}

impl InterleavedMemory {
    /// `m` banks, each sized for exactly one packet of `packet_words`
    /// words of `word_bits` bits.
    pub fn new(m: usize, packet_words: usize, word_bits: u32) -> Self {
        Self::new_with_spares(m, 0, packet_words, word_bits)
    }

    /// Like [`InterleavedMemory::new`], plus `spares` extra banks held in
    /// reserve for hot failover: nominal capacity stays `m`, and a bank
    /// retired by [`InterleavedMemory::retire`] is replaced from the
    /// reserve (while one lasts) without losing capacity.
    pub fn new_with_spares(m: usize, spares: usize, packet_words: usize, word_bits: u32) -> Self {
        assert!(m >= 1 && packet_words >= 1);
        let total = m + spares;
        InterleavedMemory {
            banks: (0..total)
                .map(|_| SramBank::new(packet_words, word_bits, PortKind::SinglePort))
                .collect(),
            occupied: vec![false; total],
            in_use: 0,
            free: (0..m).rev().map(BankId).collect(),
            packet_words,
            retired: vec![false; total],
            spare_pool: (m..total).map(BankId).collect(),
            failovers: 0,
            cycle: 0,
        }
    }

    /// Number of banks in the nominal allocation pool (= packet capacity
    /// `M`); spares in reserve are not counted until promoted.
    pub fn banks(&self) -> usize {
        let retired = self.failovers as usize;
        debug_assert_eq!(retired, self.retired.iter().filter(|&&r| r).count());
        self.banks.len() - self.spare_pool.len() - retired
    }

    /// Banks currently holding a packet.
    pub fn occupied_count(&self) -> usize {
        debug_assert_eq!(self.in_use, self.occupied.iter().filter(|&&o| o).count());
        self.in_use
    }

    /// Claim a free bank for an incoming packet; `None` when full (the
    /// arriving packet is lost — the loss event of the \[HlKa88\]-style
    /// experiments).
    pub fn allocate(&mut self) -> Option<BankId> {
        let b = self.free.pop()?;
        self.occupied[b.0] = true;
        self.in_use += 1;
        Some(b)
    }

    /// Release a bank after its packet fully departed. A bank retired
    /// while its last packet was in flight leaves the pool here.
    pub fn release(&mut self, b: BankId) {
        assert!(self.occupied[b.0], "releasing a free bank");
        self.occupied[b.0] = false;
        self.in_use -= 1;
        if !self.retired[b.0] {
            self.free.push(b);
        }
    }

    /// Hot failover: mask bank `b` out of the allocation pool and promote
    /// a spare in its place (while one lasts). An occupied bank drains
    /// its in-flight packet first and retires on release. Returns the
    /// promoted spare, or `None` when the reserve is exhausted (capacity
    /// then degrades by one bank).
    pub fn retire(&mut self, b: BankId) -> Option<BankId> {
        if self.retired[b.0] {
            return None;
        }
        self.retired[b.0] = true;
        self.failovers += 1;
        self.free.retain(|&f| f != b);
        let spare = self.spare_pool.pop();
        if let Some(s) = spare {
            // The spare inherits ECC protection if the pool runs it.
            if self.banks[b.0].ecc_enabled() {
                self.banks[s.0].enable_ecc();
            }
            self.free.push(s);
        }
        spare
    }

    /// Banks masked out by failover so far.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Spare banks still in reserve.
    pub fn spares_remaining(&self) -> usize {
        self.spare_pool.len()
    }

    /// Attach SEC-DED check codes to every bank (idempotent).
    pub fn enable_ecc(&mut self) {
        for b in &mut self.banks {
            b.enable_ecc();
        }
    }

    /// Scrub word `k` of bank `b` against its SEC-DED code, correcting a
    /// single-bit upset in place (no port-budget cost; see
    /// [`SramBank::scrub`]).
    pub fn scrub_word(&mut self, b: BankId, k: usize) -> EccOutcome {
        assert!(k < self.packet_words);
        self.banks[b.0].scrub(Addr(k))
    }

    /// Cumulative single-bit corrections in bank `b`.
    pub fn bank_corrections(&self, b: BankId) -> u64 {
        self.banks[b.0].ecc_corrections()
    }

    /// Open a new cycle on all banks.
    #[inline]
    pub fn begin_cycle(&mut self, cycle: Cycle) {
        self.cycle = cycle;
    }

    /// Bank `b`, told the open cycle: its port budget is that cycle's.
    #[inline]
    fn clocked(&mut self, b: BankId) -> &mut SramBank {
        let bank = &mut self.banks[b.0];
        bank.begin_cycle(self.cycle);
        bank
    }

    /// Stream word `k` of the packet into bank `b` (one per cycle per bank).
    #[inline]
    pub fn write_word(&mut self, b: BankId, k: usize, w: u64) -> Result<(), PortViolation> {
        assert!(k < self.packet_words);
        self.clocked(b).write(Addr(k), w)
    }

    /// Stream word `k` of the packet out of bank `b`.
    #[inline]
    pub fn read_word(&mut self, b: BankId, k: usize) -> Result<u64, PortViolation> {
        assert!(k < self.packet_words);
        self.clocked(b).read(Addr(k))
    }

    /// Observe word `k` of bank `b` without consuming the bank's port —
    /// the side-channel a checksum scrub uses: real ECC logic reads the
    /// stored bits on dedicated sense lines as part of the (single)
    /// scheduled access, so the check must not count as a second port
    /// operation against the model's discipline.
    pub fn peek_word(&self, b: BankId, k: usize) -> u64 {
        assert!(k < self.packet_words);
        self.banks[b.0].peek(Addr(k))
    }

    /// All `packet_words` words of bank `b` on the same side channel.
    #[inline]
    pub fn peek_packet(&self, b: BankId) -> &[u64] {
        self.banks[b.0].peek_all()
    }

    /// Fault injection (testbench only): flip the bits of `mask` in word
    /// `k` of bank `b`, bypassing the port discipline — a single-event
    /// upset strikes regardless of the access schedule.
    pub fn inject_fault(&mut self, b: BankId, k: usize, mask: u64) {
        assert!(k < self.packet_words);
        self.banks[b.0].inject_fault(Addr(k), mask);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_roundtrip() {
        let mut m = InterleavedMemory::new(4, 3, 16);
        let b = m.allocate().unwrap();
        for (c, w) in [(0u64, 10u64), (1, 20), (2, 30)] {
            m.begin_cycle(c);
            m.write_word(b, c as usize, w).unwrap();
        }
        for (i, c) in (3u64..6).enumerate() {
            m.begin_cycle(c);
            assert_eq!(m.read_word(b, i).unwrap(), (i as u64 + 1) * 10);
        }
    }

    #[test]
    fn different_banks_concurrent_same_bank_not() {
        let mut m = InterleavedMemory::new(4, 4, 16);
        let a = m.allocate().unwrap();
        let b = m.allocate().unwrap();
        m.begin_cycle(0);
        m.write_word(a, 0, 1).unwrap();
        m.write_word(b, 0, 2).unwrap(); // concurrent: different banks
        assert!(m.write_word(a, 1, 3).is_err(), "same bank twice in a cycle");
    }

    #[test]
    fn peek_does_not_consume_the_port() {
        let mut m = InterleavedMemory::new(2, 2, 16);
        let b = m.allocate().unwrap();
        m.begin_cycle(0);
        m.write_word(b, 0, 0x77).unwrap();
        // Peeking after the write must neither fail nor block the next
        // cycle's scheduled access.
        assert_eq!(m.peek_word(b, 0), 0x77);
        m.begin_cycle(1);
        assert_eq!(m.read_word(b, 0).unwrap(), 0x77);
    }

    #[test]
    fn a_bank_learns_the_cycle_at_its_next_access() {
        let one_access_only = |m: &mut InterleavedMemory, b: BankId| {
            m.write_word(b, 0, 1).unwrap();
            assert!(m.read_word(b, 0).is_err(), "second access in one cycle");
            assert!(m.write_word(b, 1, 2).is_err(), "second access in one cycle");
        };
        let mut m = InterleavedMemory::new_with_spares(2, 1, 4, 16);
        let (a, b) = (m.allocate().unwrap(), m.allocate().unwrap());
        m.begin_cycle(0);
        one_access_only(&mut m, a);
        // `b` sat out cycles 0..=6, `a` 1..=6: each is good for exactly
        // one access in cycle 7, whatever it did or did not do before.
        m.begin_cycle(7);
        one_access_only(&mut m, b);
        one_access_only(&mut m, a);
        assert_eq!(m.peek_packet(a), [1, 0, 0, 0]);
        // A spare promoted by `retire` has never been clocked at all.
        let spare = m.retire(a).expect("one spare in reserve");
        assert_eq!(m.allocate(), Some(spare));
        one_access_only(&mut m, spare);
        m.begin_cycle(8);
        assert_eq!(m.read_word(spare, 0).unwrap(), 1);
    }

    #[test]
    fn injected_fault_flips_stored_bits() {
        let mut m = InterleavedMemory::new(2, 2, 16);
        let b = m.allocate().unwrap();
        m.begin_cycle(0);
        m.write_word(b, 0, 0xAB).unwrap();
        m.inject_fault(b, 0, 1);
        m.begin_cycle(1);
        assert_eq!(m.read_word(b, 0).unwrap(), 0xAA);
    }

    #[test]
    fn allocation_exhausts_at_m() {
        let mut m = InterleavedMemory::new(2, 4, 16);
        assert!(m.allocate().is_some());
        assert!(m.allocate().is_some());
        assert!(m.allocate().is_none(), "M packets is the hard capacity");
        assert_eq!(m.occupied_count(), 2);
    }

    #[test]
    fn release_recycles() {
        let mut m = InterleavedMemory::new(1, 4, 16);
        let b = m.allocate().unwrap();
        assert!(m.allocate().is_none());
        m.release(b);
        assert!(m.allocate().is_some());
    }

    #[test]
    fn retire_promotes_a_spare_without_losing_capacity() {
        let mut m = InterleavedMemory::new_with_spares(2, 1, 4, 16);
        m.enable_ecc();
        assert_eq!(m.banks(), 2);
        let a = m.allocate().unwrap();
        m.begin_cycle(0);
        m.write_word(a, 0, 0xF0).unwrap();
        m.inject_fault(a, 0, 1);
        assert!(matches!(m.scrub_word(a, 0), EccOutcome::Corrected { .. }));
        assert_eq!(m.bank_corrections(a), 1);
        // Retire the flaky bank while its packet is still resident: the
        // spare joins the pool now, the bank itself drains first.
        let spare = m.retire(a).expect("one spare in reserve");
        assert_eq!(m.failovers(), 1);
        assert_eq!(m.spares_remaining(), 0);
        assert_eq!(m.banks(), 2, "capacity preserved through failover");
        m.begin_cycle(1);
        assert_eq!(m.read_word(a, 0).unwrap(), 0xF0, "in-flight data survives");
        m.release(a);
        // Two allocations must still succeed, and neither is the retiree.
        let b1 = m.allocate().unwrap();
        let b2 = m.allocate().unwrap();
        assert!(b1 != a && b2 != a, "retired bank never allocated again");
        assert!(b1 == spare || b2 == spare, "spare entered the pool");
        assert!(m.allocate().is_none());
    }

    #[test]
    fn retire_without_spares_degrades_capacity() {
        let mut m = InterleavedMemory::new(2, 4, 16);
        assert!(m.retire(BankId(0)).is_none());
        assert_eq!(m.banks(), 1);
        assert!(m.allocate().is_some());
        assert!(m.allocate().is_none(), "one bank masked out");
    }

    #[test]
    #[should_panic(expected = "releasing a free bank")]
    fn double_release_panics() {
        let mut m = InterleavedMemory::new(2, 4, 16);
        let b = m.allocate().unwrap();
        m.release(b);
        m.release(b);
    }
}
