//! Non-FIFO input buffering: virtual output queues + crossbar scheduler.
//!
//! The "non-FIFO input buffering" architecture of §2.1: each input keeps
//! one queue per output (no HOL blocking), a scheduler computes a matching
//! every slot, and matched HOL cells traverse the crossbar. Throughput
//! approaches 100 % with a good scheduler, but latency is roughly twice
//! that of output/shared queueing at loads 0.6–0.9 (\[AOST93 fig. 3\]) —
//! experiment E4 regenerates that comparison.

use crate::model::{all_ports, port_bit, CellSwitch, PortMask, Row};
use crate::sched::Scheduler;
use simkernel::cell::Cell;
use simkernel::ids::Cycle;
use std::collections::VecDeque;

/// VOQ switch with a pluggable scheduler.
pub struct VoqSwitch<S: Scheduler> {
    n: usize,
    /// `queues[i * n + j]`: cells at input `i` destined to output `j`.
    queues: Vec<VecDeque<Cell>>,
    /// Per-input total capacity (cells across all its VOQs), `None` = ∞.
    capacity: Option<usize>,
    sched: S,
    dropped: u64,
    /// The request relation "VOQ(i, j) non-empty", by input and by
    /// output, kept current by every push and pop.
    rows: Vec<PortMask>,
    cols: Vec<PortMask>,
    /// Cells buffered at each input, and in the whole switch.
    held: Vec<usize>,
    occupancy: usize,
    matching: Vec<Option<usize>>,
}

impl<S: Scheduler> VoqSwitch<S> {
    /// An `n×n` VOQ switch.
    pub fn new(n: usize, capacity: Option<usize>, sched: S) -> Self {
        all_ports(n);
        VoqSwitch {
            n,
            queues: vec![VecDeque::new(); n * n],
            capacity,
            sched,
            dropped: 0,
            rows: vec![0; n],
            cols: vec![0; n],
            held: vec![0; n],
            occupancy: 0,
            matching: vec![None; n],
        }
    }
}

impl<S: Scheduler> CellSwitch for VoqSwitch<S> {
    fn ports(&self) -> usize {
        self.n
    }

    fn tick(&mut self, _now: Cycle, arrivals: &Row, out: &mut Row) {
        out.mask = 0;
        let n = self.n;
        for (i, c) in arrivals.iter() {
            if self.capacity.is_some_and(|cap| self.held[i] >= cap) {
                self.dropped += 1;
            } else {
                let j = c.dst.index();
                self.queues[i * n + j].push_back(c);
                self.rows[i] |= port_bit(j);
                self.cols[j] |= port_bit(i);
                self.held[i] += 1;
                self.occupancy += 1;
            }
        }
        self.sched
            .schedule(&self.rows, &self.cols, &mut self.matching);
        for (i, m) in self.matching.iter().enumerate() {
            if let Some(j) = *m {
                let q = &mut self.queues[i * n + j];
                let c = q.pop_front().expect("scheduler granted an empty VOQ");
                if q.is_empty() {
                    self.rows[i] &= !port_bit(j);
                    self.cols[j] &= !port_bit(i);
                }
                self.held[i] -= 1;
                self.occupancy -= 1;
                debug_assert!(
                    out.mask & port_bit(j) == 0,
                    "two inputs matched to one output"
                );
                out.put(j, c);
            }
        }
    }

    fn occupancy(&self) -> usize {
        self.occupancy
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{IslipScheduler, PimScheduler, Rr2dScheduler};

    fn cell(id: u64, src: usize, dst: usize) -> Cell {
        Cell::new(id, src, dst, 0)
    }

    #[test]
    fn no_hol_blocking() {
        // Input 0 holds cells for output 0 (blocked by input 1's winner in
        // input-FIFO) and output 1. With VOQ both outputs are served in
        // the same slot.
        let mut sw = VoqSwitch::new(2, None, IslipScheduler::new(2, 2));
        let mut out = Row::new(2);
        sw.tick(
            0,
            &Row::from([Some(cell(1, 0, 0)), Some(cell(2, 1, 0))]),
            &mut out,
        );
        // One of the →0 cells departed; queue the →1 cell on input 0.
        sw.tick(1, &Row::from([Some(cell(3, 0, 1)), None]), &mut out);
        assert!(out.get(1).is_some(), "output 1 must not idle under VOQ");
    }

    #[test]
    fn fifo_within_each_voq() {
        let mut sw = VoqSwitch::new(2, None, Rr2dScheduler::new());
        let mut out = Row::new(2);
        let mut ids = Vec::new();
        let mut record = |out: &Row| {
            if let Some(c) = out.get(1) {
                ids.push(c.id.0);
            }
        };
        sw.tick(0, &Row::from([Some(cell(1, 0, 1)), None]), &mut out);
        record(&out);
        sw.tick(1, &Row::from([Some(cell(2, 0, 1)), None]), &mut out);
        record(&out);
        for now in 2..6 {
            sw.tick(now, &Row::new(2), &mut out);
            record(&out);
        }
        let pos1 = ids.iter().position(|&x| x == 1);
        let pos2 = ids.iter().position(|&x| x == 2);
        assert!(pos1.is_some() && pos2.is_some(), "departures: {ids:?}");
        assert!(pos1 < pos2, "per-VOQ FIFO order violated: {ids:?}");
    }

    #[test]
    fn capacity_drops_count() {
        let mut sw = VoqSwitch::new(2, Some(1), PimScheduler::new(2, 5));
        let mut out = Row::new(2);
        // Two cells to the same output from both inputs; each input holds
        // at most 1, so nothing drops yet.
        sw.tick(
            0,
            &Row::from([Some(cell(1, 0, 0)), Some(cell(2, 1, 0))]),
            &mut out,
        );
        // The unmatched input still holds its cell; a new arrival there
        // exceeds capacity 1.
        let loser = if sw.held[0] > 0 { 0 } else { 1 };
        let mut arr = Row::new(2);
        arr.put(loser, cell(3, loser, 1));
        sw.tick(1, &arr, &mut out);
        assert_eq!(sw.dropped(), 1);
    }

    #[test]
    fn sustains_full_uniform_load() {
        // The point of VOQ + iSLIP: ~100 % throughput where input-FIFO
        // saturates at 58.6 %. Feed uniform full load and verify carried
        // throughput stays near 1.0 per port.
        let n = 8;
        let mut sw = VoqSwitch::new(n, None, IslipScheduler::new(n, 4));
        let mut rng = simkernel::SplitMix64::new(11);
        let mut out = Row::new(n);
        let mut carried = 0u64;
        let slots = 5_000u64;
        let mut id = 0;
        for now in 0..slots {
            let arr: Row = (0..n)
                .map(|i| {
                    id += 1;
                    Some(cell(id, i, rng.below_usize(n)))
                })
                .collect();
            sw.tick(now, &arr, &mut out);
            carried += u64::from(out.mask.count_ones());
        }
        let util = carried as f64 / (slots * n as u64) as f64;
        assert!(util > 0.95, "iSLIP should sustain ~100 %, got {util}");
        // Occupancy bounded (stable): queues not exploding linearly.
        assert!(
            sw.occupancy() < (slots as usize) / 4,
            "queues diverged: {}",
            sw.occupancy()
        );
    }

    #[test]
    fn masks_and_counters_equal_a_rescan_of_the_queues() {
        let n = 5;
        let mut sw = VoqSwitch::new(n, Some(3), PimScheduler::new(2, 8));
        let mut rng = simkernel::SplitMix64::new(21);
        let mut out = Row::new(n);
        for now in 0..3_000u64 {
            // Overload in bursts so queues fill, drop and drain empty.
            let load = if now % 200 < 120 { 0.95 } else { 0.1 };
            let arr: Row = (0..n)
                .map(|i| {
                    rng.chance(load)
                        .then(|| cell(now, i, rng.below_usize(n).min(3)))
                })
                .collect();
            sw.tick(now, &arr, &mut out);
            for i in 0..n {
                let lens = (0..n).map(|j| sw.queues[i * n + j].len());
                assert_eq!(sw.held[i], lens.sum::<usize>());
                for j in 0..n {
                    let backlog = !sw.queues[i * n + j].is_empty();
                    assert_eq!(
                        sw.rows[i] & port_bit(j) != 0,
                        backlog,
                        "row {i}, slot {now}"
                    );
                    assert_eq!(
                        sw.cols[j] & port_bit(i) != 0,
                        backlog,
                        "col {j}, slot {now}"
                    );
                }
            }
            let total = sw.queues.iter().map(VecDeque::len).sum::<usize>();
            assert_eq!(sw.occupancy(), total);
        }
        assert!(sw.dropped() > 0 && sw.occupancy() <= 3 * n);
    }
}
