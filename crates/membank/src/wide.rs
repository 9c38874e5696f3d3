//! The wide-memory organization (§3.1, \[KaSC91\]).
//!
//! One memory word = one whole packet (`stages` link words side by side).
//! A single operation per cycle moves an entire packet. The organizational
//! consequences the paper draws (§3.2) — input double-buffering because a
//! packet can only be stored once fully assembled and the memory may be
//! busy at that exact cycle, and a separate cut-through bypass path —
//! live in `switch_core::widemem`; this module is just the memory.

use crate::bank::{ecc_code, scrub_word, EccOutcome, PortKind, PortViolation, SramBank};
use simkernel::ids::{Addr, Cycle};

/// ECC sidecar for the wide organization: one SEC-DED code per link word
/// of every slot, laid out like the data. Allocated only by
/// [`WideMemory::enable_ecc`].
#[derive(Debug, Clone)]
struct WideEcc {
    codes: Vec<u8>,
    corrections: u64,
    uncorrectable: u64,
}

/// A wide memory: `depth` slots, each holding one `packet_words`-word
/// packet, accessed whole-packet-at-a-time, one access per cycle.
#[derive(Debug, Clone)]
pub struct WideMemory {
    /// One logical array; we model the port budget with a 1-word bank and
    /// keep packet data alongside (the discipline, not the bits, is what
    /// the single `SramBank` enforces).
    gate: SramBank,
    /// Slot `a` is words `a * packet_words ..` of one flat array: storing
    /// or fetching a packet moves words, never an allocation.
    rows: Vec<u64>,
    packet_words: usize,
    word_bits: u32,
    ecc: Option<Box<WideEcc>>,
}

impl WideMemory {
    /// A wide memory of `depth` packet slots, each `packet_words` link
    /// words of `word_bits` bits.
    pub fn new(depth: usize, packet_words: usize, word_bits: u32) -> Self {
        assert!(packet_words >= 1);
        WideMemory {
            gate: SramBank::new(depth, 1, PortKind::SinglePort),
            rows: vec![0; depth * packet_words],
            packet_words,
            word_bits,
            ecc: None,
        }
    }

    /// Attach SEC-DED check codes to every link word of every slot.
    /// Idempotent; a memory without ECC pays nothing on the data path.
    pub fn enable_ecc(&mut self) {
        if self.ecc.is_none() {
            self.ecc = Some(Box::new(WideEcc {
                codes: self.rows.iter().map(|&w| ecc_code(w)).collect(),
                corrections: 0,
                uncorrectable: 0,
            }));
        }
    }

    /// Is the array ECC-protected?
    pub fn ecc_enabled(&self) -> bool {
        self.ecc.is_some()
    }

    /// Single-bit upsets corrected in place so far.
    pub fn ecc_corrections(&self) -> u64 {
        self.ecc.as_ref().map_or(0, |e| e.corrections)
    }

    /// Words found corrupted beyond single-error correction.
    pub fn ecc_uncorrectable(&self) -> u64 {
        self.ecc.as_ref().map_or(0, |e| e.uncorrectable)
    }

    /// Where slot `addr` lies in the flat arrays.
    #[inline]
    fn span(&self, addr: Addr) -> std::ops::Range<usize> {
        let at = addr.index() * self.packet_words;
        at..at + self.packet_words
    }

    /// Scrub every link word of slot `addr` against its code, correcting
    /// single-bit upsets in place. Rides the sense amplifiers of a
    /// scheduled access, so it does not consume the port budget. Returns
    /// `(corrected, uncorrectable)` word counts for this slot.
    pub fn scrub_packet(&mut self, addr: Addr) -> (u32, u32) {
        let span = self.span(addr);
        let Some(ecc) = &mut self.ecc else {
            return (0, 0);
        };
        let (mut fixed, mut dead) = (0u32, 0u32);
        for (w, c) in self.rows[span.clone()].iter_mut().zip(&ecc.codes[span]) {
            match scrub_word(*w, *c) {
                (EccOutcome::Clean, _) => {}
                (EccOutcome::Corrected { .. }, repaired) => {
                    *w = repaired;
                    fixed += 1;
                }
                (EccOutcome::Uncorrectable, _) => dead += 1,
            }
        }
        ecc.corrections += u64::from(fixed);
        ecc.uncorrectable += u64::from(dead);
        (fixed, dead)
    }

    /// Packet slots.
    pub fn depth(&self) -> usize {
        self.gate.depth()
    }

    /// Link words per packet (the memory's width in link words).
    pub fn packet_words(&self) -> usize {
        self.packet_words
    }

    /// Total capacity in bits.
    pub fn capacity_bits(&self) -> u64 {
        self.rows.len() as u64 * self.word_bits as u64
    }

    /// Open a new cycle.
    #[inline]
    pub fn begin_cycle(&mut self, cycle: Cycle) {
        self.gate.begin_cycle(cycle);
    }

    /// The bits a `word_bits`-wide array stores of each link word.
    #[inline]
    fn word_mask(&self) -> u64 {
        if self.word_bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.word_bits) - 1
        }
    }

    /// Store a whole packet at `addr` (one cycle, one access).
    #[inline]
    pub fn write_packet(&mut self, addr: Addr, words: &[u64]) -> Result<(), PortViolation> {
        assert_eq!(
            words.len(),
            self.packet_words,
            "wide memory stores whole packets only"
        );
        self.gate.write(addr, 0)?; // consume the port budget
        let (span, mask) = (self.span(addr), self.word_mask());
        let row = &mut self.rows[span.clone()];
        for (stored, &w) in row.iter_mut().zip(words) {
            *stored = w & mask;
        }
        if let Some(ecc) = &mut self.ecc {
            for (c, &w) in ecc.codes[span].iter_mut().zip(row.iter()) {
                *c = ecc_code(w);
            }
        }
        Ok(())
    }

    /// Retrieve a whole packet from `addr` (one cycle, one access). The
    /// words are the memory's own row, valid until its next access.
    #[inline]
    pub fn read_packet(&mut self, addr: Addr) -> Result<&[u64], PortViolation> {
        self.gate.read(addr)?;
        Ok(&self.rows[self.span(addr)])
    }

    /// Fault injection (testbench only): flip the bits of `mask` in link
    /// word `word_k` of slot `addr`, bypassing the port discipline — a
    /// single-event upset strikes regardless of the access schedule. The
    /// flipped value stays masked to the memory's word width, as a real
    /// upset in a `word_bits`-wide array would be.
    pub fn inject_fault(&mut self, addr: Addr, word_k: usize, mask: u64) {
        assert!(word_k < self.packet_words);
        let at = self.span(addr).start + word_k;
        self.rows[at] = (self.rows[at] ^ mask) & self.word_mask();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_packet_roundtrip() {
        let mut m = WideMemory::new(8, 4, 16);
        m.begin_cycle(0);
        m.write_packet(Addr(2), &[1, 2, 3, 0x1FFFF]).unwrap();
        m.begin_cycle(1);
        assert_eq!(m.read_packet(Addr(2)).unwrap(), [1, 2, 3, 0xFFFF]);
    }

    #[test]
    fn one_access_per_cycle() {
        let mut m = WideMemory::new(8, 4, 16);
        m.begin_cycle(0);
        m.write_packet(Addr(0), &[0; 4]).unwrap();
        assert!(m.read_packet(Addr(0)).is_err());
        assert!(m.write_packet(Addr(1), &[0; 4]).is_err());
        m.begin_cycle(1);
        assert!(m.read_packet(Addr(0)).is_ok());
    }

    #[test]
    #[should_panic(expected = "whole packets")]
    fn partial_packet_rejected() {
        let mut m = WideMemory::new(8, 4, 16);
        m.begin_cycle(0);
        let _ = m.write_packet(Addr(0), &[1, 2]);
    }

    #[test]
    fn injected_fault_flips_stored_bits() {
        let mut m = WideMemory::new(8, 4, 16);
        m.begin_cycle(0);
        m.write_packet(Addr(3), &[1, 2, 3, 4]).unwrap();
        m.inject_fault(Addr(3), 1, 0b100);
        m.begin_cycle(1);
        assert_eq!(m.read_packet(Addr(3)).unwrap(), [1, 6, 3, 4]);
    }

    #[test]
    fn ecc_scrub_repairs_single_bit_slot_upsets() {
        let mut m = WideMemory::new(8, 4, 16);
        m.enable_ecc();
        m.begin_cycle(0);
        m.write_packet(Addr(5), &[0xA, 0xB, 0xC, 0xD]).unwrap();
        m.inject_fault(Addr(5), 2, 0b1000);
        assert_eq!(m.scrub_packet(Addr(5)), (1, 0));
        m.begin_cycle(1);
        assert_eq!(m.read_packet(Addr(5)).unwrap(), [0xA, 0xB, 0xC, 0xD]);
        assert_eq!(m.ecc_corrections(), 1);
        // A double upset in one word is detected, not repaired.
        m.inject_fault(Addr(5), 0, 0b11);
        assert_eq!(m.scrub_packet(Addr(5)), (0, 1));
        assert_eq!(m.ecc_uncorrectable(), 1);
    }

    #[test]
    fn capacity_matches_pipelined_equivalent() {
        // Same geometry as the Telegraphos III pipelined buffer.
        let m = WideMemory::new(256, 16, 16);
        assert_eq!(m.capacity_bits(), 65_536);
    }
}
