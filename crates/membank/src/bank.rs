//! A single SRAM array with port-discipline checking.
//!
//! Everything in this crate reduces to arrays of these. The discipline is
//! the physical constraint the paper's organizations are designed around:
//! a single-ported array performs **at most one access per cycle**; a
//! dual-ported array performs at most one read *and* one write — and costs
//! roughly twice the area per bit (see `vlsimodel`).

use simkernel::ids::{Addr, Cycle};
use std::fmt;

/// How many concurrent accesses per cycle the array supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortKind {
    /// One access (read or write) per cycle.
    SinglePort,
    /// One read and one write per cycle (two-port register-file style).
    DualPort,
}

/// A port-discipline violation: the access pattern issued in one cycle is
/// not implementable by the declared array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortViolation {
    /// Cycle of the violation.
    pub cycle: Cycle,
    /// Human-readable description of what was attempted.
    pub detail: String,
}

impl fmt::Display for PortViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port violation at cycle {}: {}", self.cycle, self.detail)
    }
}

impl std::error::Error for PortViolation {}

/// Result of an ECC scrub of one stored word (see [`SramBank::scrub`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccOutcome {
    /// Stored word matched its check code.
    Clean,
    /// A single-bit upset was corrected in place.
    Corrected {
        /// Which data bit was flipped back.
        bit: u32,
    },
    /// The word fails its code in a way single-error correction cannot
    /// repair (an even number of flipped bits, or an impossible syndrome).
    Uncorrectable,
}

/// Per-array ECC state: one SEC-DED check code per word plus correction
/// counters. Allocated only when [`SramBank::enable_ecc`] is called, so a
/// plain bank pays nothing (the recovery subsystem's zero-cost-when-
/// disabled doctrine).
#[derive(Debug, Clone)]
struct EccState {
    /// Check code per word: bits 0..=6 the Hamming syndrome, bit 7 the
    /// overall data parity (the SEC-DED double-error detector).
    code: Vec<u8>,
    corrections: u64,
    uncorrectable: u64,
}

/// `SYNDROME[k][b]`: the syndrome of byte value `b` as byte `k` of a word,
/// the XOR of `8k + j + 1` over its set bits `j`. Each entry extends the
/// one without its lowest set bit.
const SYNDROME: [[u8; 256]; 8] = {
    let mut table = [[0u8; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let mut b = 1usize;
        while b < 256 {
            let column = (8 * k + b.trailing_zeros() as usize + 1) as u8;
            table[k][b] = table[k][b & (b - 1)] ^ column;
            b += 1;
        }
        k += 1;
    }
    table
};

/// The Hamming syndrome of a data word: XOR of the check columns of its
/// set bits. Column for data bit `i` is `i + 1` (distinct and non-zero
/// for all 64 positions, so any single flip yields a unique syndrome).
/// The XOR splits by byte, so it is eight lookups in [`SYNDROME`].
pub(crate) fn ecc_syndrome(word: u64) -> u8 {
    let bytes = word.to_le_bytes();
    (0..8).fold(0, |s, k| s ^ SYNDROME[k][usize::from(bytes[k])])
}

/// Full SEC-DED check code: syndrome in the low 7 bits, overall parity in
/// bit 7.
pub(crate) fn ecc_code(word: u64) -> u8 {
    ecc_syndrome(word) | (((word.count_ones() & 1) as u8) << 7)
}

/// Scrub one `(word, stored_code)` pair outside an [`SramBank`] (the wide
/// and pipelined organizations keep their words in flat arrays).
/// Returns the outcome and the possibly-corrected word.
pub(crate) fn scrub_word(word: u64, stored: u8) -> (EccOutcome, u64) {
    let fresh = ecc_code(word);
    if fresh == stored {
        return (EccOutcome::Clean, word);
    }
    let syndrome = (fresh ^ stored) & 0x7F;
    let parity_flip = (fresh ^ stored) & 0x80 != 0;
    if parity_flip && (1..=64).contains(&syndrome) {
        let bit = u32::from(syndrome) - 1;
        (EccOutcome::Corrected { bit }, word ^ (1u64 << bit))
    } else {
        (EccOutcome::Uncorrectable, word)
    }
}

/// One SRAM array of `depth` words of `width_bits` bits each.
///
/// Callers must advance the bank's notion of time with
/// [`SramBank::begin_cycle`] before issuing accesses for that cycle; the
/// bank rejects access patterns its ports cannot sustain.
#[derive(Debug, Clone)]
pub struct SramBank {
    data: Vec<u64>,
    width_bits: u32,
    ports: PortKind,
    cycle: Cycle,
    reads_this_cycle: u32,
    writes_this_cycle: u32,
    ecc: Option<Box<EccState>>,
}

impl SramBank {
    /// A bank of `depth` words, `width_bits ≤ 64` bits wide, zero-filled.
    pub fn new(depth: usize, width_bits: u32, ports: PortKind) -> Self {
        assert!(depth > 0, "bank needs at least one word");
        assert!(
            (1..=64).contains(&width_bits),
            "model stores words in u64; width must be 1..=64 bits"
        );
        SramBank {
            data: vec![0; depth],
            width_bits,
            ports,
            cycle: 0,
            reads_this_cycle: 0,
            writes_this_cycle: 0,
            ecc: None,
        }
    }

    /// Attach SEC-DED check codes to every word. The code array rides on
    /// the array's sense amplifiers: it is read and updated as part of the
    /// scheduled access, never as a second port operation. Idempotent.
    pub fn enable_ecc(&mut self) {
        if self.ecc.is_none() {
            self.ecc = Some(Box::new(EccState {
                code: self.data.iter().map(|&w| ecc_code(w)).collect(),
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
    #[inline]
    pub fn ecc_corrections(&self) -> u64 {
        self.ecc.as_ref().map_or(0, |e| e.corrections)
    }

    /// Words found corrupted beyond single-error correction.
    pub fn ecc_uncorrectable(&self) -> u64 {
        self.ecc.as_ref().map_or(0, |e| e.uncorrectable)
    }

    /// Check the word at `addr` against its SEC-DED code, correcting a
    /// single flipped bit in place. Models the transparent correction
    /// logic on the array's read path, so it does not consume the port
    /// budget. No-op ([`EccOutcome::Clean`]) on a bank without ECC.
    #[inline]
    pub fn scrub(&mut self, addr: Addr) -> EccOutcome {
        let Some(ecc) = &mut self.ecc else {
            return EccOutcome::Clean;
        };
        let word = self.data[addr.index()];
        let stored = ecc.code[addr.index()];
        let (outcome, fixed) = scrub_word(word, stored);
        match outcome {
            EccOutcome::Clean => {}
            EccOutcome::Corrected { .. } => {
                self.data[addr.index()] = fixed;
                ecc.corrections += 1;
            }
            EccOutcome::Uncorrectable => ecc.uncorrectable += 1,
        }
        outcome
    }

    /// Number of words.
    pub fn depth(&self) -> usize {
        self.data.len()
    }

    /// Mask a value to the declared width (what the physical array would
    /// actually store).
    #[inline]
    fn mask(&self, v: u64) -> u64 {
        if self.width_bits == 64 {
            v
        } else {
            v & ((1u64 << self.width_bits) - 1)
        }
    }

    /// Open a new cycle; must be monotonically non-decreasing.
    #[inline]
    pub fn begin_cycle(&mut self, cycle: Cycle) {
        debug_assert!(cycle >= self.cycle, "time must not run backwards");
        if cycle != self.cycle {
            self.cycle = cycle;
            self.reads_this_cycle = 0;
            self.writes_this_cycle = 0;
        }
    }

    /// The violation report, kept out of line: the access path the
    /// switches cross every cycle inlines down to the port test alone.
    #[cold]
    #[inline(never)]
    fn violation(&self, what: &str) -> PortViolation {
        PortViolation {
            cycle: self.cycle,
            detail: format!(
                "{what} rejected ({:?}: {} reads, {} writes already this cycle)",
                self.ports, self.reads_this_cycle, self.writes_this_cycle
            ),
        }
    }

    #[inline]
    fn check_read(&self) -> Result<(), PortViolation> {
        let ok = match self.ports {
            PortKind::SinglePort => self.reads_this_cycle + self.writes_this_cycle < 1,
            PortKind::DualPort => self.reads_this_cycle < 1,
        };
        if ok {
            Ok(())
        } else {
            Err(self.violation("read"))
        }
    }

    #[inline]
    fn check_write(&self) -> Result<(), PortViolation> {
        let ok = match self.ports {
            PortKind::SinglePort => self.reads_this_cycle + self.writes_this_cycle < 1,
            PortKind::DualPort => self.writes_this_cycle < 1,
        };
        if ok {
            Ok(())
        } else {
            Err(self.violation("write"))
        }
    }

    /// Read the word at `addr` in the current cycle.
    #[inline]
    pub fn read(&mut self, addr: Addr) -> Result<u64, PortViolation> {
        self.check_read()?;
        let v = *self
            .data
            .get(addr.index())
            .unwrap_or_else(|| panic!("address {addr} out of range 0..{}", self.depth()));
        self.reads_this_cycle += 1;
        Ok(v)
    }

    /// Write `value` (masked to width) at `addr` in the current cycle.
    #[inline]
    pub fn write(&mut self, addr: Addr, value: u64) -> Result<(), PortViolation> {
        self.check_write()?;
        let masked = self.mask(value);
        let depth = self.depth();
        let slot = self
            .data
            .get_mut(addr.index())
            .unwrap_or_else(|| panic!("address {addr} out of range 0..{depth}"));
        *slot = masked;
        if let Some(ecc) = &mut self.ecc {
            ecc.code[addr.index()] = ecc_code(masked);
        }
        self.writes_this_cycle += 1;
        Ok(())
    }

    /// Debug peek that bypasses the port discipline (testbench only).
    #[inline]
    pub fn peek(&self, addr: Addr) -> u64 {
        self.data[addr.index()]
    }

    /// Every stored word at once, bypassing the port discipline like
    /// [`SramBank::peek`] — what a checksum over the whole array folds.
    #[inline]
    pub fn peek_all(&self) -> &[u64] {
        &self.data
    }

    /// Fault injection: flip the bits of `mask` at `addr`, bypassing the
    /// port discipline. Testbench-only — used by the fault-injection
    /// suite to prove that the end-to-end integrity checks detect real
    /// storage corruption (an SEU, a weak cell) rather than vacuously
    /// passing.
    pub fn inject_fault(&mut self, addr: Addr, mask: u64) {
        self.data[addr.index()] ^= mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::SplitMix64;

    /// The syndrome's definition, one set bit at a time.
    fn syndrome_by_bits(word: u64) -> u8 {
        let mut s = 0u8;
        let mut w = word;
        while w != 0 {
            s ^= w.trailing_zeros() as u8 + 1;
            w &= w - 1;
        }
        s
    }

    #[test]
    fn byte_tables_equal_the_bit_loop() {
        for i in 0..64 {
            assert_eq!(ecc_syndrome(1 << i), syndrome_by_bits(1 << i), "bit {i}");
            for j in i + 1..64 {
                let w = (1 << i) | (1 << j);
                assert_eq!(ecc_syndrome(w), syndrome_by_bits(w), "bits {i}, {j}");
            }
        }
        let mut rng = SplitMix64::new(0x5EC_DED);
        for _ in 0..100_000 {
            let w = rng.next_u64();
            assert_eq!(ecc_syndrome(w), syndrome_by_bits(w), "word {w:#018x}");
        }
        assert_eq!(ecc_syndrome(0), 0);
        assert_eq!(ecc_syndrome(u64::MAX), syndrome_by_bits(u64::MAX));
    }

    #[test]
    fn scrub_word_corrects_every_single_flip_of_random_words() {
        let mut rng = SplitMix64::new(0xF11B);
        for _ in 0..256 {
            let w = rng.next_u64();
            let code = ecc_code(w);
            let parity = (w.count_ones() as u8 & 1) << 7;
            assert_eq!(code, syndrome_by_bits(w) | parity, "word {w:#018x}");
            assert_eq!(scrub_word(w, code), (EccOutcome::Clean, w));
            for bit in 0..64 {
                let hit = w ^ (1 << bit);
                let fixed = (EccOutcome::Corrected { bit }, w);
                assert_eq!(scrub_word(hit, code), fixed, "word {w:#018x} bit {bit}");
            }
            let double = w ^ 0b11 << rng.below(63);
            assert_eq!(
                scrub_word(double, code),
                (EccOutcome::Uncorrectable, double)
            );
        }
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut b = SramBank::new(16, 16, PortKind::SinglePort);
        b.begin_cycle(0);
        b.write(Addr(3), 0xBEEF).unwrap();
        b.begin_cycle(1);
        assert_eq!(b.read(Addr(3)).unwrap(), 0xBEEF);
    }

    #[test]
    fn width_masking() {
        let mut b = SramBank::new(4, 8, PortKind::SinglePort);
        b.begin_cycle(0);
        b.write(Addr(0), 0x1FF).unwrap();
        assert_eq!(b.peek(Addr(0)), 0xFF);
        let mut b64 = SramBank::new(4, 64, PortKind::SinglePort);
        b64.begin_cycle(0);
        b64.write(Addr(0), u64::MAX).unwrap();
        assert_eq!(b64.peek(Addr(0)), u64::MAX);
    }

    #[test]
    fn single_port_rejects_second_access() {
        let mut b = SramBank::new(4, 16, PortKind::SinglePort);
        b.begin_cycle(0);
        b.read(Addr(0)).unwrap();
        assert!(b.read(Addr(1)).is_err());
        assert!(b.write(Addr(1), 1).is_err());
        // New cycle clears the budget.
        b.begin_cycle(1);
        assert!(b.write(Addr(1), 1).is_ok());
    }

    #[test]
    fn dual_port_allows_read_plus_write() {
        let mut b = SramBank::new(4, 16, PortKind::DualPort);
        b.begin_cycle(0);
        b.write(Addr(0), 7).unwrap();
        // Same-cycle read sees the array as of this cycle's write in this
        // functional model (write-first); the RTL models never rely on it.
        b.read(Addr(1)).unwrap();
        assert!(b.read(Addr(2)).is_err(), "second read must fail");
        assert!(b.write(Addr(2), 1).is_err(), "second write must fail");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut b = SramBank::new(4, 16, PortKind::SinglePort);
        b.begin_cycle(0);
        let _ = b.read(Addr(4));
    }

    #[test]
    fn begin_cycle_same_cycle_keeps_budget() {
        let mut b = SramBank::new(4, 16, PortKind::SinglePort);
        b.begin_cycle(5);
        b.read(Addr(0)).unwrap();
        b.begin_cycle(5); // idempotent
        assert!(b.read(Addr(0)).is_err());
    }

    #[test]
    fn ecc_corrects_any_single_bit_upset() {
        let mut b = SramBank::new(4, 64, PortKind::SinglePort);
        b.enable_ecc();
        b.begin_cycle(0);
        b.write(Addr(1), 0xDEAD_BEEF_0123_4567).unwrap();
        for bit in 0..64u32 {
            b.inject_fault(Addr(1), 1u64 << bit);
            assert_eq!(b.scrub(Addr(1)), EccOutcome::Corrected { bit });
            assert_eq!(b.peek(Addr(1)), 0xDEAD_BEEF_0123_4567, "bit {bit}");
        }
        assert_eq!(b.ecc_corrections(), 64);
        assert_eq!(b.ecc_uncorrectable(), 0);
        assert_eq!(b.scrub(Addr(1)), EccOutcome::Clean);
    }

    #[test]
    fn ecc_flags_double_upsets_as_uncorrectable() {
        let mut b = SramBank::new(4, 64, PortKind::SinglePort);
        b.enable_ecc();
        b.begin_cycle(0);
        b.write(Addr(0), 0x55).unwrap();
        b.inject_fault(Addr(0), 0b11); // two flipped bits
        assert_eq!(b.scrub(Addr(0)), EccOutcome::Uncorrectable);
        assert_eq!(b.ecc_uncorrectable(), 1);
        assert_eq!(b.ecc_corrections(), 0);
    }

    #[test]
    fn ecc_codes_track_writes() {
        let mut b = SramBank::new(2, 16, PortKind::SinglePort);
        b.enable_ecc();
        for c in 0..8u64 {
            b.begin_cycle(c);
            b.write(Addr(0), c.wrapping_mul(0x9E37)).unwrap();
            assert_eq!(b.scrub(Addr(0)), EccOutcome::Clean, "cycle {c}");
        }
    }

    #[test]
    fn scrub_without_ecc_is_a_clean_noop() {
        let mut b = SramBank::new(2, 16, PortKind::SinglePort);
        b.begin_cycle(0);
        b.write(Addr(0), 0xAB).unwrap();
        b.inject_fault(Addr(0), 1);
        assert_eq!(b.scrub(Addr(0)), EccOutcome::Clean);
        assert_eq!(b.peek(Addr(0)), 0xAA, "no silent correction without ECC");
    }

    #[test]
    fn violation_display() {
        let mut b = SramBank::new(4, 16, PortKind::SinglePort);
        b.begin_cycle(3);
        b.read(Addr(0)).unwrap();
        let e = b.read(Addr(0)).unwrap_err();
        let s = e.to_string();
        assert!(s.contains("cycle 3") && s.contains("read rejected"), "{s}");
    }
}
