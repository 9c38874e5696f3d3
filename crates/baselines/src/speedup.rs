//! Input queueing with internal fabric speedup (\[PaBr93\], fig. 1 middle).
//!
//! The fabric runs `s` times faster than the links: per slot, up to `s`
//! cells may leave each input queue and up to `s` may be delivered into
//! each output queue (which still transmits one per slot). §2.1: "This is
//! equivalent to input queueing operating at a reduced input load. Output
//! queues are also needed here."

use crate::input_fifo::HolQueues;
use crate::model::{CellSwitch, Row};
use simkernel::cell::Cell;
use simkernel::ids::Cycle;
use std::collections::VecDeque;

/// Speedup-`s` switch: FIFO input queues, `s` fabric passes per slot,
/// output queues.
#[derive(Debug)]
pub struct SpeedupSwitch {
    speedup: usize,
    inputs: HolQueues,
    out_q: Vec<VecDeque<Cell>>,
    out_cap: Option<usize>,
    /// Cells in the output queues.
    out_cells: usize,
    dropped: u64,
}

impl SpeedupSwitch {
    /// An `n×n` switch with internal speedup `s ≥ 1`.
    pub fn new(
        n: usize,
        speedup: usize,
        in_cap: Option<usize>,
        out_cap: Option<usize>,
        seed: u64,
    ) -> Self {
        assert!(speedup >= 1);
        SpeedupSwitch {
            speedup,
            inputs: HolQueues::new(n, in_cap, seed),
            out_q: vec![VecDeque::new(); n],
            out_cap,
            out_cells: 0,
            dropped: 0,
        }
    }
}

impl CellSwitch for SpeedupSwitch {
    fn ports(&self) -> usize {
        self.out_q.len()
    }

    fn tick(&mut self, _now: Cycle, arrivals: &Row, out: &mut Row) {
        out.mask = 0;
        for (i, c) in arrivals.iter() {
            self.dropped += u64::from(!self.inputs.push(i, c));
        }
        // `speedup` fabric passes: each pass is one HOL contention round
        // delivering at most one cell per output, so no output accepts
        // more than `speedup` deliveries per slot.
        for _ in 0..self.speedup {
            let moved = self.inputs.round(|j, cell| {
                if self.out_cap.is_some_and(|cap| self.out_q[j].len() >= cap) {
                    self.dropped += 1;
                } else {
                    self.out_q[j].push_back(cell);
                    self.out_cells += 1;
                }
            });
            if !moved {
                break;
            }
        }
        for (j, q) in self.out_q.iter_mut().enumerate() {
            if let Some(c) = q.pop_front() {
                out.put(j, c);
                self.out_cells -= 1;
            }
        }
    }

    fn occupancy(&self) -> usize {
        self.inputs.cells() + self.out_cells
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::SplitMix64;

    fn cell(id: u64, src: usize, dst: usize) -> Cell {
        Cell::new(id, src, dst, 0)
    }

    #[test]
    fn speedup_two_moves_two_to_same_output() {
        let mut sw = SpeedupSwitch::new(2, 2, None, None, 1);
        let mut out = Row::new(2);
        sw.tick(
            0,
            &Row::from([Some(cell(1, 0, 0)), Some(cell(2, 1, 0))]),
            &mut out,
        );
        // Both cells crossed the fabric; input queues are empty, one cell
        // departed, one waits at the output.
        assert!(out.get(0).is_some());
        assert_eq!(sw.inputs.cells(), 0);
        assert_eq!(sw.out_q[0].len(), 1);
    }

    #[test]
    fn speedup_one_equals_plain_input_queueing() {
        let mut sw = SpeedupSwitch::new(2, 1, None, None, 1);
        let mut out = Row::new(2);
        sw.tick(
            0,
            &Row::from([Some(cell(1, 0, 0)), Some(cell(2, 1, 0))]),
            &mut out,
        );
        // Only one cell crossed; the loser is still in its input queue.
        assert_eq!(sw.inputs.cells(), 1);
    }

    #[test]
    fn conservation() {
        let mut sw = SpeedupSwitch::new(4, 2, None, None, 2);
        let mut rng = SplitMix64::new(9);
        let mut out = Row::new(4);
        let mut offered = 0u64;
        let mut carried = 0u64;
        for now in 0..2000u64 {
            let arr: Row = (0..4)
                .map(|i| {
                    rng.chance(0.8).then(|| {
                        offered += 1;
                        cell(offered, i, rng.below_usize(4))
                    })
                })
                .collect();
            sw.tick(now, &arr, &mut out);
            carried += u64::from(out.mask.count_ones());
        }
        for now in 2000..4000u64 {
            sw.tick(now, &Row::new(4), &mut out);
            carried += u64::from(out.mask.count_ones());
        }
        assert_eq!(offered, carried + sw.dropped() + sw.occupancy() as u64);
    }
}
