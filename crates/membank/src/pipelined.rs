//! The pipelined memory (§3.2) as a standalone functional model.
//!
//! A chain of `stages` single-ported banks. One operation *wave* may be
//! initiated per cycle; a wave initiated in cycle `t` accesses bank `k` at
//! the same address in cycle `t + k`. Because every wave advances one stage
//! per cycle, staggered initiations can never collide on a bank — the model
//! asserts this by issuing real accesses to port-checked [`SramBank`]s.
//!
//! This standalone model takes a write wave's data up front and returns a
//! read wave's data on completion; the word-at-a-time interplay with input
//! latches and output registers (which is where "no double buffering" and
//! "automatic cut-through" come from) lives in the `switch-core` RTL model.
//! Use this model when you need *a* pipelined buffer, and `switch-core`
//! when you need *the switch*.

use crate::bank::{PortKind, SramBank};
use simkernel::ids::{Addr, Cycle};
use std::fmt;

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

#[derive(Debug, Clone)]
enum Body {
    Write(Vec<u64>),
    Read(Vec<u64>),
}

#[derive(Debug, Clone)]
struct ActiveWave {
    addr: Addr,
    start: Cycle,
    body: Body,
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
    banks: Vec<SramBank>,
    /// Active waves as a ring indexed by `start % stages`. A wave lives
    /// exactly `stages` cycles and at most one initiates per cycle, so
    /// live slots never collide, and a wave's body never moves while in
    /// flight (the old drain-and-rebuild shuffled every wave's word
    /// vector through memory each cycle).
    waves: Vec<Option<ActiveWave>>,
    /// Ring occupancy as a machine word: bit `s` set when `waves[s]` is
    /// live.
    live_mask: u128,
    /// Live entries in the wave ring.
    waves_live: usize,
    cycle: Cycle,
    pending: Option<ActiveWave>,
    /// Reusable per-cycle scratch (hot path: must not allocate).
    scratch_done: Vec<CompletedRead>,
    scratch_drain: Vec<CompletedRead>,
}

impl PipelinedMemory {
    /// A pipelined memory of `stages` single-ported banks, each `depth`
    /// slots of `width_bits`-bit words. Total capacity: `depth` packets of
    /// `stages` words.
    pub fn new(stages: usize, depth: usize, width_bits: u32) -> Self {
        assert!(stages >= 1);
        assert!(
            stages <= 128,
            "the pipelined memory keeps its wave ring's occupancy in a `u128`: \
             at most 128 stages, this memory has {stages}"
        );
        PipelinedMemory {
            banks: (0..stages)
                .map(|_| SramBank::new(depth, width_bits, PortKind::SinglePort))
                .collect(),
            waves: vec![None; stages],
            live_mask: 0,
            waves_live: 0,
            cycle: 0,
            pending: None,
            scratch_done: Vec::new(),
            scratch_drain: Vec::new(),
        }
    }

    /// Number of pipeline stages (banks).
    pub fn stages(&self) -> usize {
        self.banks.len()
    }

    /// Packet slots per bank.
    pub fn depth(&self) -> usize {
        self.banks[0].depth()
    }

    /// Total capacity in bits.
    pub fn capacity_bits(&self) -> u64 {
        (self.stages() * self.depth()) as u64 * self.banks[0].width_bits() as u64
    }

    /// Current cycle (the one the next `tick` will execute).
    pub fn now(&self) -> Cycle {
        self.cycle
    }

    /// Number of waves currently sweeping the banks (including one
    /// initiated this cycle, before `tick`).
    pub fn in_flight(&self) -> usize {
        self.waves_live + usize::from(self.pending.is_some())
    }

    /// Initiate a wave in the current cycle. At most one per cycle.
    pub fn initiate(&mut self, op: WaveOp) -> Result<(), InitiateError> {
        if self.pending.is_some() {
            return Err(InitiateError::AlreadyInitiated);
        }
        let wave = match op {
            WaveOp::Write { addr, words } => {
                if words.len() != self.stages() {
                    return Err(InitiateError::WordCount {
                        got: words.len(),
                        want: self.stages(),
                    });
                }
                ActiveWave {
                    addr,
                    start: self.cycle,
                    body: Body::Write(words),
                }
            }
            WaveOp::Read { addr } => ActiveWave {
                addr,
                start: self.cycle,
                body: Body::Read(Vec::with_capacity(self.stages())),
            },
        };
        self.pending = Some(wave);
        Ok(())
    }

    /// Execute the current cycle: every active wave performs its stage
    /// operation; returns read waves that completed this cycle. Advances
    /// time by one cycle. The returned slice borrows internal scratch
    /// and is valid until the next tick.
    pub fn tick(&mut self) -> &[CompletedRead] {
        let stages = self.stages();
        let now = self.cycle;
        if let Some(w) = self.pending.take() {
            let slot = (w.start % stages as Cycle) as usize;
            debug_assert!(self.waves[slot].is_none(), "wave ring slot collision");
            self.waves[slot] = Some(w);
            self.waves_live += 1;
            self.live_mask |= 1u128 << slot;
        }
        // Reuse the completion buffer across cycles; `mem::take`
        // sidesteps the simultaneous borrow of the buffer and `&mut self`.
        let mut done = std::mem::take(&mut self.scratch_done);
        done.clear();
        if self.waves_live > 0 {
            // Walk the ring oldest wave first (the wave started at
            // `now - stages + 1` sits at slot `(now + 1) % stages`), so
            // completions keep initiation order.
            let first = ((now + 1) % stages as Cycle) as usize;
            // Two ascending passes over the occupancy word — slots
            // `first..stages`, then `0..first` — visit live slots in ring
            // order without touching empty ones.
            let low = (1u128 << first) - 1;
            for mut m in [self.live_mask & !low, self.live_mask & low] {
                while m != 0 {
                    let slot = m.trailing_zeros() as usize;
                    m &= m - 1;
                    self.sweep_slot(slot, now, stages, &mut done);
                }
            }
        }
        self.cycle += 1;
        self.scratch_done = done;
        &self.scratch_done
    }

    /// Advance the wave in ring slot `slot` one stage: perform its bank
    /// access for this cycle, and retire it (pushing onto `done` if it
    /// was a read) once it has swept the last stage.
    fn sweep_slot(
        &mut self,
        slot: usize,
        now: Cycle,
        stages: usize,
        done: &mut Vec<CompletedRead>,
    ) {
        let w = self.waves[slot].as_mut().expect("sweep of empty ring slot");
        let k = (now - w.start) as usize;
        debug_assert!(k < stages, "retired wave left in ring");
        // Each live wave sits at a distinct stage, so touching only the
        // banks that live waves visit is equivalent to opening the cycle
        // on every bank.
        let bank = &mut self.banks[k];
        bank.begin_cycle(now);
        match &mut w.body {
            Body::Write(words) => {
                // The port check is the proof obligation: staggered
                // initiation must imply conflict-free banks.
                bank.write(w.addr, words[k])
                    .expect("wave stagger guarantees bank availability");
            }
            Body::Read(out) => out.push(
                bank.read(w.addr)
                    .expect("wave stagger guarantees bank availability"),
            ),
        }
        if k + 1 == stages {
            let w = self.waves[slot].take().expect("retiring wave vanished");
            self.waves_live -= 1;
            self.live_mask &= !(1u128 << slot);
            if let Body::Read(words) = w.body {
                done.push(CompletedRead {
                    addr: w.addr,
                    initiated: w.start,
                    completed: now,
                    words,
                });
            }
        }
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
        let t0 = m.now();
        m.initiate(WaveOp::Read { addr: Addr(0) }).unwrap();
        let done = m.drain();
        assert_eq!(done[0].initiated, t0);
        assert_eq!(done[0].completed, t0 + 5, "last word read at t0+stages-1");
    }

    #[test]
    fn capacity_accounting() {
        let m = PipelinedMemory::new(16, 256, 16);
        // Telegraphos III: 16 stages × 256 slots × 16 bits = 64 Kbit.
        assert_eq!(m.capacity_bits(), 65_536);
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
}
