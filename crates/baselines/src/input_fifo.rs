//! Input FIFO queueing — the architecture of \[KaHM87\] (fig. 1, left).
//!
//! One FIFO per input; only the head-of-line (HOL) cell of each queue
//! contends for its output; contention is resolved uniformly at random
//! among the contenders (the \[KaHM87\] assumption). HOL blocking limits the
//! saturation throughput to `2 − √2 ≈ 0.586` for large `n` under uniform
//! iid traffic — the number experiment E1 regenerates.

use crate::model::{all_ports, port_bit, random_port, CellSwitch, PortMask, Row};
use simkernel::cell::Cell;
use simkernel::ids::Cycle;
use simkernel::{bits, SplitMix64};
use std::collections::VecDeque;

/// One FIFO per input with uniform-random head-of-line contention — the
/// input side of [`InputFifoSwitch`] and of the speedup fabric.
#[derive(Debug)]
pub(crate) struct HolQueues {
    queues: Vec<VecDeque<Cell>>,
    capacity: Option<usize>,
    /// Per output, the inputs whose head-of-line cell wants it; follows
    /// every push and pop.
    contenders: Vec<PortMask>,
    cells: usize,
    rng: SplitMix64,
}

impl HolQueues {
    pub(crate) fn new(n: usize, capacity: Option<usize>, seed: u64) -> Self {
        all_ports(n);
        HolQueues {
            queues: vec![VecDeque::new(); n],
            capacity,
            contenders: vec![0; n],
            cells: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// Cells queued at all inputs.
    pub(crate) fn cells(&self) -> usize {
        self.cells
    }

    /// Queue `cell` at input `i`; `false` (cell refused) when that queue
    /// is at capacity.
    pub(crate) fn push(&mut self, i: usize, cell: Cell) -> bool {
        let q = &mut self.queues[i];
        if self.capacity.is_some_and(|cap| q.len() >= cap) {
            return false;
        }
        if q.is_empty() {
            self.contenders[cell.dst.index()] |= port_bit(i);
        }
        q.push_back(cell);
        self.cells += 1;
        true
    }

    /// One contention round: every output some head-of-line cell wants
    /// takes one of them, uniformly at random; the losers stay blocked.
    /// `deliver(j, cell)` gets each winner. Returns whether any cell moved.
    pub(crate) fn round(&mut self, mut deliver: impl FnMut(usize, Cell)) -> bool {
        let mut winners: PortMask = 0;
        for (j, contenders) in self.contenders.iter_mut().enumerate() {
            if *contenders == 0 {
                continue;
            }
            let winner = random_port(*contenders, &mut self.rng);
            *contenders &= !port_bit(winner);
            winners |= port_bit(winner);
            let cell = self.queues[winner].pop_front();
            deliver(j, cell.expect("contender has a head-of-line cell"));
        }
        // The cells behind the winners reach the head of line only now:
        // they were not in this round.
        for i in bits(winners) {
            if let Some(head) = self.queues[i].front() {
                self.contenders[head.dst.index()] |= port_bit(i);
            }
        }
        self.cells -= winners.count_ones() as usize;
        winners != 0
    }
}

/// FIFO-input-queued switch.
#[derive(Debug)]
pub struct InputFifoSwitch {
    inputs: HolQueues,
    dropped: u64,
}

impl InputFifoSwitch {
    /// An `n×n` switch with per-input queue `capacity` (`None` =
    /// unbounded, the setting for saturation studies).
    pub fn new(n: usize, capacity: Option<usize>, seed: u64) -> Self {
        InputFifoSwitch {
            inputs: HolQueues::new(n, capacity, seed),
            dropped: 0,
        }
    }
}

impl CellSwitch for InputFifoSwitch {
    fn ports(&self) -> usize {
        self.inputs.queues.len()
    }

    fn tick(&mut self, _now: Cycle, arrivals: &Row, out: &mut Row) {
        out.mask = 0;
        for (i, c) in arrivals.iter() {
            self.dropped += u64::from(!self.inputs.push(i, c));
        }
        self.inputs.round(|j, cell| out.put(j, cell));
    }

    fn occupancy(&self) -> usize {
        self.inputs.cells()
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(id: u64, src: usize, dst: usize) -> Cell {
        Cell::new(id, src, dst, 0)
    }

    #[test]
    fn uncontended_cells_flow_through() {
        let mut sw = InputFifoSwitch::new(2, None, 1);
        let mut out = Row::new(2);
        sw.tick(
            0,
            &Row::from([Some(cell(1, 0, 0)), Some(cell(2, 1, 1))]),
            &mut out,
        );
        assert_eq!(out.get(0).unwrap().id.0, 1);
        assert_eq!(out.get(1).unwrap().id.0, 2);
        assert_eq!(sw.occupancy(), 0);
    }

    #[test]
    fn contention_serializes() {
        let mut sw = InputFifoSwitch::new(2, None, 1);
        let mut out = Row::new(2);
        sw.tick(
            0,
            &Row::from([Some(cell(1, 0, 0)), Some(cell(2, 1, 0))]),
            &mut out,
        );
        assert!(out.get(0).is_some() && out.get(1).is_none());
        assert_eq!(sw.occupancy(), 1);
        sw.tick(1, &Row::new(2), &mut out);
        assert!(out.get(0).is_some());
        assert_eq!(sw.occupancy(), 0);
    }

    #[test]
    fn hol_blocking_demonstrated() {
        // Input 0 queues: [→0, →1]; input 1: [→0]. Output 1 is idle but
        // input 0's second cell is blocked behind its HOL cell whenever
        // input 1 wins output 0 — the defining pathology.
        let mut blocked_seen = false;
        for seed in 0..20 {
            let mut sw = InputFifoSwitch::new(2, None, seed);
            let mut out = Row::new(2);
            sw.tick(
                0,
                &Row::from([Some(cell(1, 0, 0)), Some(cell(2, 1, 0))]),
                &mut out,
            );
            // Put →1 behind input 0's head (if it still has one queued).
            sw.tick(1, &Row::from([Some(cell(3, 0, 1)), None]), &mut out);
            if !sw.inputs.queues[0].is_empty() && out.get(1).is_none() {
                blocked_seen = true;
            }
        }
        assert!(blocked_seen, "HOL blocking never manifested across seeds");
    }

    #[test]
    fn finite_capacity_drops() {
        let mut sw = InputFifoSwitch::new(1, Some(1), 1);
        let mut out = Row::new(1);
        // Two same-slot arrivals can't happen (1 per input), so fill then
        // overflow across slots while output is blocked... with n=1 the
        // queue drains every slot; use dst contention impossible — instead
        // capacity 0-ish test: capacity 1 with two arrivals in consecutive
        // slots while HOL departs — no drop. Force drop via n=2 on same
        // output.
        let mut sw2 = InputFifoSwitch::new(2, Some(1), 1);
        let mut out2 = Row::new(2);
        sw2.tick(
            0,
            &Row::from([Some(cell(1, 0, 0)), Some(cell(2, 1, 0))]),
            &mut out2,
        );
        // Loser still queued; next arrival on its input overflows.
        let loser = if !sw2.inputs.queues[0].is_empty() {
            0
        } else {
            1
        };
        let mut arr = Row::new(2);
        arr.put(loser, cell(3, loser, 1));
        sw2.tick(1, &arr, &mut out2);
        assert_eq!(sw2.dropped(), 1);
        // silence unused warnings for the n=1 instance
        sw.tick(0, &Row::new(1), &mut out);
        assert_eq!(sw.dropped(), 0);
    }

    #[test]
    fn contender_masks_and_count_equal_a_rescan_of_the_heads() {
        let n = 5;
        let mut q = HolQueues::new(n, Some(3), 6);
        let mut rng = SplitMix64::new(17);
        let mut refused = 0;
        for now in 0..3_000u64 {
            let load = if now % 200 < 120 { 0.95 } else { 0.1 };
            for i in 0..n {
                if rng.chance(load) {
                    refused += u64::from(!q.push(i, cell(now, i, rng.below_usize(n))));
                }
            }
            // Two rounds a slot, as a speedup-2 fabric runs them.
            for _ in 0..2 {
                let mut taken: PortMask = 0;
                q.round(|j, c| {
                    assert_eq!(c.dst.index(), j);
                    taken |= port_bit(j);
                });
                for j in 0..n {
                    let rescan = (0..n)
                        .filter(|&i| q.queues[i].front().is_some_and(|h| h.dst.index() == j))
                        .fold(0, |set, i| set | port_bit(i));
                    assert_eq!(q.contenders[j], rescan, "output {j}, slot {now}");
                }
                assert_eq!(q.cells(), q.queues.iter().map(VecDeque::len).sum::<usize>());
                assert!(taken.count_ones() as usize <= n);
            }
        }
        assert!(refused > 0);
    }
}
