//! The pipelined memory (§3.2): the paper's organization, and the only
//! wave ring in the tree.
//!
//! A chain of `stages` single-ported banks. One operation *wave* may be
//! initiated per cycle: stage 0 receives its control word, and stage `k`
//! obeys the same word `k` cycles later at the same address (§3.3: "the
//! control signals for subsequent stages are delayed versions of the
//! former"). Staggered initiations therefore never collide on a bank; a
//! second initiation in a cycle panics, and so does a second access to a
//! stage's single port (DESIGN.md, "The single-port check"). The banks are
//! one slot-major array with SEC-DED codes and spare columns; the memory
//! returns recovery outcomes for its owner to count. Two interfaces drive
//! the one ring: whole packets ([`PipelinedMemory::initiate`] takes a write
//! wave's data up front, [`PipelinedMemory::tick`] returns a read wave's
//! data on completion), and word by word on the caller's clock
//! ([`PipelinedMemory::launch`], [`PipelinedMemory::walk`],
//! [`PipelinedMemory::retire`]), where the caller supplies each stage's
//! access through a [`Stage`]. The `switch-core` RTL moves words between
//! its input latches, the banks and its output registers there, which is
//! where "no double buffering" and "automatic cut-through" come from.

use crate::bank::{ecc_code, scrub_word, EccOutcome};
use simkernel::bits;
use simkernel::ids::{Addr, Cycle};
use std::fmt;
use std::hint::select_unpredictable;

/// An operation wave to initiate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaveOp {
    /// Store `words[k]` into bank `k` at `addr` (k-th cycle of the wave).
    Write {
        /// Packet slot to write.
        addr: Addr,
        /// One word per stage.
        words: Vec<u64>,
    },
    /// Read the slot at `addr`; completes `stages` cycles later.
    Read {
        /// Packet slot to read.
        addr: Addr,
    },
}

/// Why an initiation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InitiateError {
    /// A wave was already initiated this cycle (the structural hazard the
    /// arbiter of §3.3 exists to prevent).
    AlreadyInitiated,
    /// A write wave supplied the wrong number of words.
    WordCount {
        /// Words supplied.
        got: usize,
        /// Words required (= number of stages).
        want: usize,
    },
}

impl fmt::Display for InitiateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InitiateError::AlreadyInitiated => {
                write!(f, "a wave was already initiated this cycle")
            }
            InitiateError::WordCount { got, want } => {
                write!(f, "write wave has {got} words, needs exactly {want}")
            }
        }
    }
}

impl std::error::Error for InitiateError {}

/// A finished read wave: the slot's contents, one word per stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedRead {
    /// The slot that was read.
    pub addr: Addr,
    /// Cycle in which the wave was initiated.
    pub initiated: Cycle,
    /// Cycle in which the last stage was read (completion).
    pub completed: Cycle,
    /// The data, `words[k]` from bank `k`.
    pub words: Vec<u64>,
}

/// "No such port" in the port fields of a [`Wave`].
pub const NO_PORT: u8 = u8::MAX;

/// Slots of the ring of control words: the most stages, a power of two.
const RING: usize = 128;

/// The control word of one wave, as stage 0 received it at `start`;
/// stage `k` obeys the same word at `start + k`. Sixteen bytes, `Copy`:
/// nothing else is stored per wave. The whole-packet interface's waves
/// name their row of words (`start % stages`) as their port.
#[derive(Debug, Clone, Copy)]
pub struct Wave {
    /// Cycle in which stage 0 received the word.
    pub start: Cycle,
    /// Slot accessed in every bank.
    pub addr: u32,
    /// Source of the words written (an input link), or [`NO_PORT`].
    pub write_from: u8,
    /// Sink of the words read (an output link), or [`NO_PORT`].
    pub read_to: u8,
}

impl Wave {
    /// What a ring slot holds before any wave has used it.
    const NONE: Wave = Wave {
        start: 0,
        addr: 0,
        write_from: NO_PORT,
        read_to: NO_PORT,
    };

    /// The slot the wave accesses.
    #[inline]
    pub fn addr(self) -> Addr {
        Addr(self.addr as usize)
    }
}

/// The pipelined shared-buffer memory.
///
/// ```
/// use membank::pipelined::{PipelinedMemory, WaveOp};
/// use simkernel::ids::Addr;
///
/// // 4 stages (4-word packets), 8 slots, 16-bit words.
/// let mut m = PipelinedMemory::new(4, 8, 16);
/// m.initiate(WaveOp::Write { addr: Addr(3), words: vec![1, 2, 3, 4] }).unwrap();
/// m.tick(); // the wave sweeps one stage per cycle…
/// m.initiate(WaveOp::Read { addr: Addr(3) }).unwrap(); // …and a read may chase it
/// let done = m.drain();
/// assert_eq!(done[0].words, vec![1, 2, 3, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct PipelinedMemory {
    stages: usize,
    /// The bits of a value a word of the bank width keeps.
    width_mask: u64,
    /// The banks, slot-major: stage `k`'s word of slot `a` is
    /// `words[a * stages + k]`. `codes` is its SEC-DED twin (empty
    /// without ECC); `corrections` and `stamps` (the cycle of the last
    /// port access) are per stage.
    words: Vec<u64>,
    codes: Vec<u8>,
    corrections: Vec<u64>,
    stamps: Vec<Cycle>,
    /// Spare bank columns held in reserve for hot failover.
    spares: usize,
    /// The control words by `start % RING`, readable until reused.
    ring: Box<[Wave; RING]>,
    /// Bit `k`: a wave is at stage `k`. The clock edge shifts it on.
    live: u128,
    cycle: Cycle,
    /// The whole-packet interface's data: one row of `stages` words per
    /// `start % stages`, a write wave's words or a read wave's words as read.
    rows: Vec<u64>,
    /// Reusable per-tick scratch.
    scratch_done: Vec<CompletedRead>,
    scratch_drain: Vec<CompletedRead>,
}

/// Stage `k`'s bank at the slot its wave addresses, opened for cycle
/// `now` of [`PipelinedMemory::walk`]: `Stage(memory, word index, k, now)`.
pub struct Stage<'a>(&'a mut PipelinedMemory, usize, usize, Cycle);

impl Stage<'_> {
    /// The bank's one port access of the cycle (a second one panics), its
    /// read/write select driven by `write` without a branch: store `data`
    /// (masked to the width, coded when ECC is armed) or read. Returns
    /// what the data lines carry, the word stored or the word read.
    #[inline]
    pub fn port(&mut self, write: bool, data: u64) -> u64 {
        let (m, at, k, now) = (&mut *self.0, self.1, self.2, self.3);
        if std::mem::replace(&mut m.stamps[k], now) == now {
            port_violation(write, k, now);
        }
        let word = select_unpredictable(write, data & m.width_mask, m.words[at]);
        m.words[at] = word;
        if let Some(code) = m.codes.get_mut(at) {
            *code = select_unpredictable(write, ecc_code(word), *code);
        }
        word
    }

    /// Correct a single flipped bit in place against the word's SEC-DED
    /// code (the read path's logic, no port cost); `Clean` without ECC.
    #[inline]
    pub fn scrub(&mut self) -> EccOutcome {
        let (m, at) = (&mut *self.0, self.1);
        let Some(&code) = m.codes.get(at) else {
            return EccOutcome::Clean;
        };
        let (outcome, fixed) = scrub_word(m.words[at], code);
        if let EccOutcome::Corrected { .. } = outcome {
            m.words[at] = fixed;
            m.corrections[self.2] += 1;
        }
        outcome
    }

    /// Corrections made so far by this stage's bank.
    #[inline]
    pub fn corrections(&self) -> u64 {
        self.0.corrections[self.2]
    }
}

/// A second port access to stage `k`'s bank in cycle `now`.
#[cold]
#[inline(never)]
fn port_violation(write: bool, k: usize, now: Cycle) -> ! {
    let what = if write { "write" } else { "read" };
    panic!("{what} rejected: stage {k}, cycle {now}")
}

impl PipelinedMemory {
    /// A pipelined memory of `stages` single-ported banks, each `depth`
    /// slots of `width_bits`-bit words. Total capacity: `depth` packets of
    /// `stages` words.
    pub fn new(stages: usize, depth: usize, width_bits: u32) -> Self {
        Self::new_with_spares(stages, depth, width_bits, 0)
    }

    /// Like [`PipelinedMemory::new`], plus `spares` bank columns held in
    /// reserve: [`PipelinedMemory::fail_over`] promotes one in place of a
    /// failing bank.
    pub fn new_with_spares(stages: usize, depth: usize, width_bits: u32, spares: usize) -> Self {
        assert!(
            (1..=RING).contains(&stages),
            "the live waves are one `u128`: at most 128 stages, not {stages}"
        );
        assert!(depth > 0 && u32::try_from(depth).is_ok(), "1 to 2^32 slots");
        assert!((1..=64).contains(&width_bits), "words are 1 to 64 bits");
        PipelinedMemory {
            stages,
            width_mask: u64::MAX >> (64 - width_bits),
            words: vec![0; depth * stages],
            codes: Vec::new(),
            corrections: vec![0; stages],
            stamps: vec![Cycle::MAX; stages],
            spares,
            ring: Box::new([Wave::NONE; RING]),
            live: 0,
            cycle: 0,
            rows: vec![0; stages * stages],
            scratch_done: Vec::new(),
            scratch_drain: Vec::new(),
        }
    }

    /// Attach SEC-DED check codes to every word (idempotent).
    pub fn enable_ecc(&mut self) {
        if self.codes.is_empty() {
            self.codes = self.words.iter().map(|&w| ecc_code(w)).collect();
        }
    }

    /// Number of pipeline stages (banks).
    #[inline]
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Number of waves currently sweeping the banks (including one
    /// initiated this cycle, before `tick`).
    pub fn in_flight(&self) -> usize {
        self.live.count_ones() as usize
    }

    /// Park the control word of a wave initiated in cycle `w.start`: it
    /// enters stage 0. A second one in the cycle panics.
    #[inline]
    pub fn launch(&mut self, w: Wave) {
        assert!(self.live & 1 == 0, "wave ring slot collision");
        self.ring[w.start as usize % RING] = w;
        self.live |= 1;
    }

    /// Execute cycle `now`'s stage accesses: `access(stage, w, k)` once
    /// per live wave `w`, oldest (deepest stage) first, with `stage` the
    /// bank of its stage `k` at its slot.
    #[inline]
    pub fn walk(&mut self, now: Cycle, mut access: impl FnMut(Stage<'_>, Wave, usize)) {
        for k in oldest_first(self.live) {
            let w = self.ring[(now as usize).wrapping_sub(k) % RING];
            debug_assert_eq!(w.start + k as Cycle, now, "the ring lost a wave");
            access(Stage(self, w.addr as usize * self.stages + k, k, now), w, k);
        }
    }

    /// The clock edge: every live wave moves on a stage, and the one that
    /// swept the last retires (its word stays for [`Self::wave_started`]).
    #[inline]
    pub fn retire(&mut self) {
        self.live = self.live << 1 & u128::MAX >> (RING - self.stages);
    }

    /// The control word stage 0 received in cycle `start`, if the ring
    /// still holds it (for at least `stages` cycles, retired or not).
    #[inline]
    pub fn wave_started(&self, start: Cycle) -> Option<Wave> {
        let w = self.ring[start as usize % RING];
        (w.start == start).then_some(w)
    }

    /// The waves live in cycle `now`, oldest first.
    #[inline]
    pub fn live_waves(&self, now: Cycle) -> impl Iterator<Item = Wave> + '_ {
        oldest_first(self.live).map(move |k| self.ring[(now as usize).wrapping_sub(k) % RING])
    }

    /// Fault injection (testbench only): flip the bits of `mask` in bank
    /// `stage` at slot `addr`, as a single-event upset would.
    pub fn inject_fault(&mut self, stage: usize, addr: Addr, mask: u64) {
        assert!(stage < self.stages, "no such stage");
        self.words[addr.index() * self.stages + stage] ^= mask;
    }

    /// The words of slot `addr` as stored, stage 0 first, bypassing the
    /// port discipline — what a checksum over the slot folds.
    #[inline]
    pub fn peek_slot(&self, addr: Addr) -> &[u64] {
        &self.words[addr.index() * self.stages..][..self.stages]
    }

    /// ECC-scrub slot `addr` stage by stage, correcting single-bit upsets
    /// in place (the read path's correction logic: no port cost).
    /// `fails(self, k, outcome)` hears each stage's outcome and returns
    /// true when bank `k` must go: it is [failed over](Self::fail_over)
    /// before the next stage is scrubbed.
    pub fn scrub_slot<F: FnMut(&Self, usize, EccOutcome) -> bool>(
        &mut self,
        addr: Addr,
        mut fails: F,
    ) {
        for k in 0..self.stages {
            let outcome = Stage(self, addr.index() * self.stages + k, k, Cycle::MAX).scrub();
            if fails(self, k, outcome) {
                self.fail_over(k);
            }
        }
    }

    /// Single-bit corrections made so far by the bank of stage `stage`.
    #[inline]
    pub fn corrections(&self, stage: usize) -> u64 {
        self.corrections[stage]
    }

    /// Spare bank columns still in reserve.
    pub fn spares_remaining(&self) -> usize {
        self.spares
    }

    /// Hot failover: a spare column takes the place and the contents of
    /// stage `stage`'s bank, with fresh check codes and no corrections.
    /// Returns the spares left, or `None` with the reserve exhausted.
    pub fn fail_over(&mut self, stage: usize) -> Option<usize> {
        self.spares = self.spares.checked_sub(1)?;
        for at in (stage..self.codes.len()).step_by(self.stages) {
            self.codes[at] = ecc_code(self.words[at]);
        }
        self.corrections[stage] = 0;
        Some(self.spares)
    }

    /// Initiate a wave in the current cycle. At most one per cycle.
    pub fn initiate(&mut self, op: WaveOp) -> Result<(), InitiateError> {
        let s = self.stages;
        if self.live & 1 != 0 {
            return Err(InitiateError::AlreadyInitiated);
        }
        // The wave's port names its row (the retired wave `s` cycles older's).
        let row = (self.cycle % s as Cycle) as usize;
        let (addr, write_from, read_to) = match op {
            WaveOp::Write { addr, words } => {
                if words.len() != s {
                    return Err(InitiateError::WordCount {
                        got: words.len(),
                        want: s,
                    });
                }
                self.rows[row * s..][..s].copy_from_slice(&words);
                (addr, row as u8, NO_PORT)
            }
            WaveOp::Read { addr } => (addr, NO_PORT, row as u8),
        };
        self.launch(Wave {
            start: self.cycle,
            addr: u32::try_from(addr.index()).expect("slot address beyond 32 bits"),
            write_from,
            read_to,
        });
        Ok(())
    }

    /// Execute the current cycle: every active wave performs its stage
    /// operation; returns read waves that completed this cycle. Advances
    /// time by one cycle. The returned slice borrows internal scratch
    /// and is valid until the next tick.
    pub fn tick(&mut self) -> &[CompletedRead] {
        let s = self.stages;
        let now = self.cycle;
        // Reuse the completion buffer across cycles; `mem::take`
        // sidesteps the simultaneous borrow of the buffers and `&mut self`.
        let mut done = std::mem::take(&mut self.scratch_done);
        done.clear();
        let mut rows = std::mem::take(&mut self.rows);
        self.walk(now, |mut stage, w, k| {
            // A wave's row is named by its one port that is not `NO_PORT`.
            let writes = w.write_from != NO_PORT;
            let row = &mut rows[usize::from(w.write_from.min(w.read_to)) * s..][..s];
            row[k] = stage.port(writes, row[k]);
            if !writes && k + 1 == s {
                done.push(CompletedRead {
                    addr: w.addr(),
                    initiated: w.start,
                    completed: now,
                    words: row.to_vec(),
                });
            }
        });
        self.rows = rows;
        self.retire();
        self.cycle += 1;
        self.scratch_done = done;
        &self.scratch_done
    }

    /// Run idle cycles until all in-flight waves complete, returning any
    /// reads that finish. Convenience for tests and examples. The slice
    /// borrows internal scratch and is valid until the next tick.
    pub fn drain(&mut self) -> &[CompletedRead] {
        let mut out = std::mem::take(&mut self.scratch_drain);
        out.clear();
        while self.in_flight() > 0 {
            self.tick();
            out.append(&mut self.scratch_done);
        }
        self.scratch_drain = out;
        &self.scratch_drain
    }
}

/// The stages set in `live`, deepest (oldest wave) first.
#[inline]
fn oldest_first(live: u128) -> impl Iterator<Item = usize> {
    bits(live.reverse_bits()).map(|b| 127 - b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(seed: u64, n: usize) -> Vec<u64> {
        (0..n as u64).map(|k| seed * 1000 + k).collect()
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut m = PipelinedMemory::new(4, 8, 16);
        let data = words(1, 4);
        m.initiate(WaveOp::Write {
            addr: Addr(3),
            words: data.clone(),
        })
        .unwrap();
        for _ in 0..4 {
            assert!(m.tick().is_empty());
        }
        m.initiate(WaveOp::Read { addr: Addr(3) }).unwrap();
        let done = m.drain();
        assert_eq!(done.len(), 1);
        // 16-bit banks mask the stored words.
        let masked: Vec<u64> = data.iter().map(|w| w & 0xFFFF).collect();
        assert_eq!(done[0].words, masked);
        assert_eq!(done[0].completed - done[0].initiated, 3);
    }

    #[test]
    fn one_initiation_per_cycle() {
        let mut m = PipelinedMemory::new(4, 8, 16);
        m.initiate(WaveOp::Read { addr: Addr(0) }).unwrap();
        let err = m.initiate(WaveOp::Read { addr: Addr(1) }).unwrap_err();
        assert_eq!(err, InitiateError::AlreadyInitiated);
        m.tick();
        // Next cycle a new wave may start.
        assert!(m.initiate(WaveOp::Read { addr: Addr(1) }).is_ok());
    }

    #[test]
    fn word_count_checked() {
        let mut m = PipelinedMemory::new(4, 8, 16);
        let err = m
            .initiate(WaveOp::Write {
                addr: Addr(0),
                words: vec![1, 2, 3],
            })
            .unwrap_err();
        assert_eq!(err, InitiateError::WordCount { got: 3, want: 4 });
    }

    #[test]
    fn back_to_back_waves_full_throughput() {
        // The headline property: one wave per cycle indefinitely, no bank
        // conflicts — the shared buffer runs at aggregate throughput
        // `stages` words/cycle.
        let stages = 8;
        let mut m = PipelinedMemory::new(stages, 64, 16);
        // Fill 32 slots, one write wave per cycle.
        for a in 0..32usize {
            m.initiate(WaveOp::Write {
                addr: Addr(a),
                words: words(a as u64, stages),
            })
            .unwrap();
            m.tick();
        }
        // Read all 32 back, one read wave per cycle.
        let mut all = Vec::new();
        for a in 0..32usize {
            m.initiate(WaveOp::Read { addr: Addr(a) }).unwrap();
            all.extend(m.tick().iter().cloned());
        }
        all.extend(m.drain().iter().cloned());
        assert_eq!(all.len(), 32);
        for r in &all {
            let seed = r.addr.index() as u64;
            let expect: Vec<u64> = words(seed, stages).iter().map(|w| w & 0xFFFF).collect();
            assert_eq!(r.words, expect, "slot {}", r.addr);
        }
    }

    #[test]
    fn interleaved_reads_and_writes() {
        // Alternate write/read waves in adjacent cycles; stagger keeps the
        // single-ported banks conflict-free.
        let mut m = PipelinedMemory::new(4, 8, 64);
        m.initiate(WaveOp::Write {
            addr: Addr(0),
            words: words(7, 4),
        })
        .unwrap();
        m.tick();
        // One cycle later, read the same slot: bank 0 was written last
        // cycle, is free this cycle — cut-through-like timing.
        m.initiate(WaveOp::Read { addr: Addr(0) }).unwrap();
        let done = m.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].words, words(7, 4));
    }

    #[test]
    fn read_latency_is_stages() {
        let mut m = PipelinedMemory::new(6, 4, 64);
        m.initiate(WaveOp::Write {
            addr: Addr(0),
            words: words(1, 6),
        })
        .unwrap();
        let _ = m.drain();
        let t0 = m.cycle;
        m.initiate(WaveOp::Read { addr: Addr(0) }).unwrap();
        let done = m.drain();
        assert_eq!(done[0].initiated, t0);
        assert_eq!(done[0].completed, t0 + 5, "last word read at t0+stages-1");
    }

    #[test]
    #[should_panic(expected = "at most 128 stages")]
    fn more_than_128_stages_are_rejected() {
        PipelinedMemory::new(129, 4, 16);
    }

    #[test]
    fn in_flight_tracking() {
        let mut m = PipelinedMemory::new(4, 4, 64);
        assert_eq!(m.in_flight(), 0);
        m.initiate(WaveOp::Read { addr: Addr(0) }).unwrap();
        assert_eq!(m.in_flight(), 1);
        m.tick();
        m.initiate(WaveOp::Read { addr: Addr(1) }).unwrap();
        assert_eq!(m.in_flight(), 2);
        m.drain();
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "write rejected")]
    fn two_waves_on_one_bank_in_one_cycle_trip_the_port_check() {
        // The stage-indexed live word cannot hold two waves at one stage,
        // so forge the second access instead: a caller that walks cycle 0
        // twice takes bank 0's port twice, and the stage's stamp refuses.
        let mut m = PipelinedMemory::new(4, 8, 64);
        m.launch(Wave {
            start: 0,
            addr: 0,
            write_from: 0,
            read_to: NO_PORT,
        });
        for _ in 0..2 {
            m.walk(0, |mut stage, _, _| {
                stage.port(true, 1);
            });
        }
    }

    #[test]
    #[should_panic(expected = "wave ring slot collision")]
    fn second_wave_in_one_cycle_is_a_ring_collision() {
        let mut m = PipelinedMemory::new(4, 8, 64);
        let w = Wave {
            start: 0,
            addr: 0,
            write_from: 0,
            read_to: NO_PORT,
        };
        m.launch(w);
        m.launch(Wave { addr: 1, ..w });
    }

    /// Stage `k`'s outcomes of one scrub of slot `addr`, no failover.
    fn scrub(m: &mut PipelinedMemory, addr: Addr) -> Vec<EccOutcome> {
        let mut seen = Vec::new();
        m.scrub_slot(addr, |_, _, outcome| {
            seen.push(outcome);
            false
        });
        seen
    }

    #[test]
    fn fail_over_rederives_the_codes_and_clears_the_count() {
        // What promoting a spare with the failing bank's contents copied
        // did: the column keeps its words, its codes are computed afresh
        // from them and its correction count starts at 0.
        let mut m = PipelinedMemory::new_with_spares(4, 8, 64, 1);
        m.enable_ecc();
        let data = words(5, 4);
        m.initiate(WaveOp::Write {
            addr: Addr(2),
            words: data.clone(),
        })
        .unwrap();
        m.drain();
        m.inject_fault(0, Addr(2), 1 << 9);
        m.inject_fault(1, Addr(2), 1 << 7);
        use EccOutcome::{Clean, Corrected, Uncorrectable};
        let fixed = [Corrected { bit: 9 }, Corrected { bit: 7 }, Clean, Clean];
        assert_eq!(scrub(&mut m, Addr(2)), fixed);
        assert_eq!((m.corrections(0), m.corrections(1)), (1, 1));
        // A double upset: beyond correction until the codes are re-derived
        // from the words as they stand.
        m.inject_fault(1, Addr(2), 0b11);
        assert_eq!(scrub(&mut m, Addr(2)), [Clean, Uncorrectable, Clean, Clean]);
        assert_eq!(m.fail_over(1), Some(0));
        assert_eq!(m.spares_remaining(), 0);
        assert_eq!((m.corrections(0), m.corrections(1)), (1, 0));
        assert_eq!(scrub(&mut m, Addr(2)), [Clean; 4]);
        let mut expect = data;
        expect[1] ^= 0b11;
        assert_eq!(
            m.peek_slot(Addr(2)),
            expect,
            "the contents survive the swap"
        );
        assert_eq!(m.fail_over(1), None, "the reserve is exhausted");
        assert_eq!(m.fail_over(0), None);
        assert_eq!(m.corrections(0), 1, "no swap, no reset");
    }

    #[test]
    fn the_word_path_masks_to_the_width() {
        // 16-bit words written and read through `walk`, with ECC armed:
        // the bank keeps the low 16 bits, and their codes match.
        let mut m = PipelinedMemory::new(4, 8, 16);
        m.enable_ecc();
        let wave = |start, write_from, read_to| Wave {
            start,
            addr: 3,
            write_from,
            read_to,
        };
        let mut seen = Vec::new();
        for c in 0..8 {
            match c {
                0 => m.launch(wave(0, 0, NO_PORT)),
                4 => m.launch(wave(4, NO_PORT, 0)),
                _ => {}
            }
            m.walk(c, |mut stage, w, k| {
                let write = w.write_from != NO_PORT;
                // Both directions: what a write stores, what a read returns.
                seen.push(stage.port(write, 0xDEAD_BEEF_0000 | (k as u64 * 0x1111)));
            });
            m.retire();
        }
        let masked: Vec<u64> = (0..4).map(|k| k * 0x1111).collect();
        assert_eq!(seen, [masked.clone(), masked.clone()].concat());
        assert_eq!(m.peek_slot(Addr(3)), masked);
        assert_eq!(scrub(&mut m, Addr(3)), [EccOutcome::Clean; 4]);
    }

    #[test]
    fn the_live_waves_are_the_ring_words_across_the_wrap() {
        // Waves at drawn cycles over many turns of a 5-slot ring: each
        // cycle, `live_waves` is the ring's word of every start still on
        // its way, oldest first, and `walk` visits the same (start, stage)
        // pairs.
        let stages = 5;
        let mut m = PipelinedMemory::new(stages, 8, 64);
        let mut rng = simkernel::SplitMix64::new(0x21);
        for now in 0..200u64 {
            if rng.chance(0.6) {
                m.launch(Wave {
                    start: now,
                    addr: rng.below(8) as u32,
                    write_from: 0,
                    read_to: NO_PORT,
                });
            }
            let ring: Vec<(Cycle, u32)> = (0..stages as Cycle)
                .rev()
                .filter_map(|k| now.checked_sub(k).and_then(|s| m.wave_started(s)))
                .filter(|w| now - w.start < stages as Cycle)
                .map(|w| (w.start, w.addr))
                .collect();
            let live: Vec<_> = m.live_waves(now).map(|w| (w.start, w.addr)).collect();
            assert_eq!(live, ring, "cycle {now}");
            assert_eq!(m.in_flight(), live.len());
            let mut walked = Vec::new();
            m.walk(now, |_, w, k| walked.push((w.start, k as Cycle)));
            let want: Vec<_> = ring.iter().map(|&(s, _)| (s, now - s)).collect();
            assert_eq!(walked, want, "cycle {now}");
            m.retire();
        }
    }
}
