//! The half-quantum organization of §3.5.
//!
//! The straightforward pipelined memory requires the packet size to be a
//! multiple of the full buffer width (`2n` words for an `n×n` switch). To
//! handle packets of **half** that size (`n` words), §3.5 splits the
//! buffer into *two* pipelined memories of `n` stages each:
//!
//! > "In each and every cycle, one read operation of one outgoing packet
//! > is initiated from one of the two memories — whichever the desired
//! > packet happens to be in. In the same cycle, one write operation of
//! > one incoming packet must also be initiated; this will be initiated
//! > into the other one of the two memories."
//!
//! So the per-cycle initiation budget doubles (one read **and** one
//! write), which is exactly what `n`-word packets at full link rate
//! require: `n` inputs produce one packet per `n` cycles in aggregate one
//! write per cycle, and symmetrically for reads.
//!
//! [`HalfQuantumBuffer`] wraps two [`membank::PipelinedMemory`] instances
//! and enforces the §3.5 rule: a read and a write in the same cycle must
//! target different halves.

use membank::pipelined::{CompletedRead, PipelinedMemory, WaveOp};
use simkernel::ids::Addr;
use std::fmt;

/// Which of the two half-buffers a packet lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Half {
    /// First memory.
    A,
    /// Second memory.
    B,
}

impl Half {
    /// The other memory.
    pub fn other(self) -> Half {
        match self {
            Half::A => Half::B,
            Half::B => Half::A,
        }
    }

    fn index(self) -> usize {
        match self {
            Half::A => 0,
            Half::B => 1,
        }
    }
}

/// Where a stored packet lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketHandle {
    /// The half-buffer.
    pub half: Half,
    /// The slot within that half.
    pub addr: Addr,
}

/// Why a store or fetch was refused this cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HalfQError {
    /// A write was already initiated this cycle.
    WriteBudgetSpent,
    /// A read was already initiated this cycle.
    ReadBudgetSpent,
    /// §3.5 rule: the same-cycle read and write must use different halves.
    SameHalfConflict,
    /// The half the write is constrained to has no free slot.
    HalfFull(Half),
    /// Wrong word count for this buffer's packet size.
    WordCount {
        /// Words supplied.
        got: usize,
        /// Words required.
        want: usize,
    },
}

impl fmt::Display for HalfQError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HalfQError::WriteBudgetSpent => write!(f, "write already initiated this cycle"),
            HalfQError::ReadBudgetSpent => write!(f, "read already initiated this cycle"),
            HalfQError::SameHalfConflict => {
                write!(f, "read and write must target different halves (§3.5)")
            }
            HalfQError::HalfFull(h) => write!(f, "half {h:?} has no free slot"),
            HalfQError::WordCount { got, want } => {
                write!(f, "packet has {got} words, buffer stores {want}")
            }
        }
    }
}

impl std::error::Error for HalfQError {}

/// The two-half pipelined shared buffer for half-quantum packets.
#[derive(Debug)]
pub struct HalfQuantumBuffer {
    mems: [PipelinedMemory; 2],
    free: [Vec<Addr>; 2],
    read_this_cycle: Option<Half>,
    write_this_cycle: Option<Half>,
}

impl HalfQuantumBuffer {
    /// Two pipelined memories of `n` stages each, `depth` slots per half,
    /// `width_bits`-bit words. Stores packets of exactly `n` words.
    pub fn new(n: usize, depth: usize, width_bits: u32) -> Self {
        HalfQuantumBuffer {
            mems: [
                PipelinedMemory::new(n, depth, width_bits),
                PipelinedMemory::new(n, depth, width_bits),
            ],
            free: [
                (0..depth).rev().map(Addr).collect(),
                (0..depth).rev().map(Addr).collect(),
            ],
            read_this_cycle: None,
            write_this_cycle: None,
        }
    }

    /// Packet size in words (= stages per half).
    pub fn packet_words(&self) -> usize {
        self.mems[0].stages()
    }

    fn check_write(&self, h: Half) -> Result<(), HalfQError> {
        if self.write_this_cycle.is_some() {
            return Err(HalfQError::WriteBudgetSpent);
        }
        if self.read_this_cycle == Some(h) {
            return Err(HalfQError::SameHalfConflict);
        }
        Ok(())
    }

    /// Initiate a write wave for a packet this cycle. The half is chosen
    /// automatically: the one *not* being read this cycle, preferring the
    /// emptier half when unconstrained.
    pub fn store(&mut self, words: Vec<u64>) -> Result<PacketHandle, HalfQError> {
        if words.len() != self.packet_words() {
            return Err(HalfQError::WordCount {
                got: words.len(),
                want: self.packet_words(),
            });
        }
        let half = match self.read_this_cycle {
            Some(read_half) => read_half.other(),
            None => {
                if self.free[0].len() >= self.free[1].len() {
                    Half::A
                } else {
                    Half::B
                }
            }
        };
        self.check_write(half)?;
        let addr = self.free[half.index()]
            .pop()
            .ok_or(HalfQError::HalfFull(half))?;
        self.mems[half.index()]
            .initiate(WaveOp::Write { addr, words })
            .expect("budget checked");
        self.write_this_cycle = Some(half);
        Ok(PacketHandle { half, addr })
    }

    /// Initiate a read wave for a stored packet this cycle. The slot is
    /// freed immediately (any later write wave trails the read).
    pub fn fetch(&mut self, h: PacketHandle) -> Result<(), HalfQError> {
        if self.read_this_cycle.is_some() {
            return Err(HalfQError::ReadBudgetSpent);
        }
        if self.write_this_cycle == Some(h.half) {
            return Err(HalfQError::SameHalfConflict);
        }
        self.mems[h.half.index()]
            .initiate(WaveOp::Read { addr: h.addr })
            .expect("budget checked");
        self.read_this_cycle = Some(h.half);
        self.free[h.half.index()].push(h.addr);
        Ok(())
    }

    /// Execute the cycle on both halves; returns completed reads tagged
    /// with their half.
    pub fn tick(&mut self) -> Vec<(Half, CompletedRead)> {
        self.read_this_cycle = None;
        self.write_this_cycle = None;
        let mut out = Vec::new();
        for (i, m) in self.mems.iter_mut().enumerate() {
            let half = if i == 0 { Half::A } else { Half::B };
            out.extend(m.tick().iter().map(|r| (half, r.clone())));
        }
        out
    }

    /// Idle until all waves complete.
    pub fn drain(&mut self) -> Vec<(Half, CompletedRead)> {
        let mut out = Vec::new();
        while self.mems.iter().any(|m| m.in_flight() > 0) {
            out.extend(self.tick());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(seed: u64, n: usize) -> Vec<u64> {
        (0..n as u64).map(|k| seed * 100 + k).collect()
    }

    #[test]
    fn store_then_fetch_roundtrips() {
        let mut b = HalfQuantumBuffer::new(4, 8, 64);
        let h = b.store(words(1, 4)).unwrap();
        b.tick();
        b.fetch(h).unwrap();
        let done = b.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1.words, words(1, 4));
    }

    #[test]
    fn one_read_and_one_write_per_cycle() {
        let mut b = HalfQuantumBuffer::new(4, 8, 64);
        let h = b.store(words(1, 4)).unwrap();
        b.tick();
        // Same cycle: read h AND write a new packet — the full §3.5
        // budget. The write is steered to the other half automatically.
        b.fetch(h).unwrap();
        let h2 = b.store(words(2, 4)).unwrap();
        assert_ne!(h2.half, h.half, "write must use the other half");
        // Budgets are spent.
        assert_eq!(
            b.store(words(3, 4)).unwrap_err(),
            HalfQError::WriteBudgetSpent
        );
        assert_eq!(b.fetch(h2).unwrap_err(), HalfQError::ReadBudgetSpent);
        let done = b.drain();
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn sustained_full_throughput() {
        // The §3.5 scenario: one write and one read initiation in *every*
        // cycle indefinitely — aggregate throughput 2 packets per n
        // cycles higher than the full-quantum organization could do.
        let n = 4;
        let mut b = HalfQuantumBuffer::new(n, 64, 64);
        let mut stored: std::collections::VecDeque<(PacketHandle, u64)> =
            std::collections::VecDeque::new();
        let mut seed = 0u64;
        let mut fetched = 0u64;
        let mut completed = Vec::new();
        #[allow(clippy::explicit_counter_loop)] // `seed` is payload data, not a counter
        for _ in 0..1000 {
            // Read the oldest stored packet (if any), write a new one.
            if let Some(&(h, s)) = stored.front() {
                if b.fetch(h).is_ok() {
                    stored.pop_front();
                    fetched += 1;
                    let _ = s;
                }
            }
            let h = b.store(words(seed, n)).expect("write budget available");
            stored.push_back((h, seed));
            seed += 1;
            completed.extend(b.tick());
        }
        completed.extend(b.drain());
        assert!(fetched > 990, "sustained one read per cycle, got {fetched}");
        // Data integrity of everything read back.
        for (_, r) in &completed {
            let s = r.words[0] / 100;
            assert_eq!(r.words, words(s, n));
        }
    }

    #[test]
    fn same_half_conflict_detected() {
        let mut b = HalfQuantumBuffer::new(2, 1, 64);
        // Fill half A's only slot (store prefers A when free counts tie).
        let h = b.store(words(1, 2)).unwrap();
        assert_eq!(h.half, Half::A);
        b.tick();
        // Fetch from A, then a store is forced to B. Fill B first so the
        // forced store fails with HalfFull.
        let h2 = b.store(words(2, 2)).unwrap();
        assert_eq!(h2.half, Half::B);
        b.tick();
        b.fetch(h).unwrap(); // reading A
        let err = b.store(words(3, 2)).unwrap_err();
        assert_eq!(err, HalfQError::HalfFull(Half::B));
    }

    #[test]
    fn word_count_enforced() {
        let mut b = HalfQuantumBuffer::new(4, 4, 64);
        assert_eq!(
            b.store(words(1, 3)).unwrap_err(),
            HalfQError::WordCount { got: 3, want: 4 }
        );
    }

    #[test]
    fn fetch_frees_slot_for_reuse() {
        let mut b = HalfQuantumBuffer::new(2, 1, 64);
        let h1 = b.store(words(1, 2)).unwrap();
        b.tick();
        b.fetch(h1).unwrap();
        b.tick();
        // Half A's slot is free again; with B also free, A is preferred.
        let h2 = b.store(words(2, 2)).unwrap();
        assert_eq!(h2.half, Half::A);
        let done = b.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1.words, words(1, 2));
        let _ = h2;
    }
}
