//! Shift-register packet storage — considered and rejected in §5.3.
//!
//! "Implementing the banks as shift-registers would not solve this problem,
//! because one (dynamic) shift-register bit is 4 times larger than one
//! (3-transistor dynamic) RAM bit. Shift-registers would also preclude
//! cut-through." This module implements the organization anyway so the
//! claim can be demonstrated: data is only available after traversing the
//! full register chain (no random access, hence no cut-through), and
//! `vlsimodel` carries the 4× area factor.
//!
//! The model is the chain itself: a queue of `length` word registers,
//! each holding a word or nothing, that moves one place per clock.

use simkernel::ids::Cycle;
use std::collections::VecDeque;

/// A `length`-word shift register: words pushed in one end emerge,
/// unchanged and in order, exactly `length` cycles later.
#[derive(Debug, Clone)]
pub struct ShiftRegisterBank {
    /// The chain, input end at the front; always `length` registers.
    chain: VecDeque<Option<u64>>,
    cycle: Cycle,
    shifted_this_cycle: bool,
}

impl ShiftRegisterBank {
    /// A chain of `length ≥ 1` word registers.
    pub fn new(length: usize) -> Self {
        assert!(length >= 1);
        ShiftRegisterBank {
            chain: vec![None; length].into(),
            cycle: 0,
            shifted_this_cycle: false,
        }
    }

    /// Chain length in words.
    pub fn length(&self) -> usize {
        self.chain.len()
    }

    /// Open a new cycle.
    pub fn begin_cycle(&mut self, cycle: Cycle) {
        if cycle != self.cycle {
            self.cycle = cycle;
            self.shifted_this_cycle = false;
        }
    }

    /// Shift once: optionally push a new word in; returns the word falling
    /// out of the far end, if that slot held valid data. At most one shift
    /// per cycle — a shift register has exactly one clocked movement.
    pub fn shift(&mut self, input: Option<u64>) -> Option<u64> {
        assert!(
            !self.shifted_this_cycle,
            "a shift register shifts once per cycle"
        );
        self.shifted_this_cycle = true;
        self.chain.push_front(input);
        self.chain.pop_back().expect("length >= 1")
    }

    /// Words of valid data currently in the chain.
    pub fn occupancy(&self) -> usize {
        self.chain.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_after_full_traversal() {
        let mut s = ShiftRegisterBank::new(4);
        let mut out = Vec::new();
        for c in 0..10u64 {
            s.begin_cycle(c);
            let input = (c < 6).then_some(100 + c);
            if let Some(w) = s.shift(input) {
                out.push(w);
            }
        }
        // Word pushed at cycle c emerges at cycle c + 4.
        assert_eq!(out, vec![100, 101, 102, 103, 104, 105]);
    }

    #[test]
    fn no_random_access_semantics() {
        // The point of §5.3: a word is simply not retrievable before it
        // has traversed the whole chain — the structural reason shift
        // registers preclude cut-through.
        let mut s = ShiftRegisterBank::new(8);
        s.begin_cycle(0);
        assert!(s.shift(Some(42)).is_none());
        for c in 1..8u64 {
            s.begin_cycle(c);
            assert!(s.shift(None).is_none(), "nothing out before cycle 8");
        }
        s.begin_cycle(8);
        assert_eq!(s.shift(None), Some(42));
    }

    #[test]
    #[should_panic(expected = "once per cycle")]
    fn double_shift_panics() {
        let mut s = ShiftRegisterBank::new(2);
        s.begin_cycle(0);
        s.shift(None);
        s.shift(None);
    }

    #[test]
    fn occupancy_tracks_valid() {
        let mut s = ShiftRegisterBank::new(3);
        s.begin_cycle(0);
        s.shift(Some(1));
        assert_eq!(s.occupancy(), 1);
        s.begin_cycle(1);
        s.shift(Some(2));
        assert_eq!(s.occupancy(), 2);
        s.begin_cycle(2);
        s.shift(None);
        assert_eq!(s.occupancy(), 2);
    }

    #[test]
    fn long_chain_wraps_correctly() {
        // Many multiples of the length through a long chain.
        let len = 70;
        let mut s = ShiftRegisterBank::new(len);
        let mut out = Vec::new();
        for c in 0..500u64 {
            s.begin_cycle(c);
            // Sparse input: every third cycle carries a word.
            let input = (c % 3 == 0).then_some(c);
            if let Some(w) = s.shift(input) {
                out.push(w);
            }
        }
        // Word pushed at cycle c emerges at c + len; everything pushed
        // before cycle 500 - len has emerged, in order.
        let expect: Vec<u64> = (0..500 - len as u64).filter(|c| c % 3 == 0).collect();
        assert_eq!(out, expect);
        let still_in = (500 - len as u64..500).filter(|c| c % 3 == 0).count();
        assert_eq!(s.occupancy(), still_in);
    }
}
