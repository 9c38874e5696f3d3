//! Output queueing (fig. 2, left).
//!
//! Each output owns a FIFO able to accept, in the worst case, cells from
//! all inputs simultaneously (buffer write throughput ∝ n — the
//! "high-throughput buffer" class of §2.2). Link utilization is optimal;
//! memory utilization is worse than shared buffering because a busy
//! output cannot borrow another output's idle buffer space (\[HlKa88\] —
//! experiment E3).

use crate::model::{clear_out, CellSwitch};
use simkernel::cell::Cell;
use simkernel::ids::Cycle;
use std::collections::VecDeque;

/// Output-queued switch with per-output capacity.
#[derive(Debug)]
pub struct OutputQueuedSwitch {
    queues: Vec<VecDeque<Cell>>,
    capacity: Option<usize>,
    dropped: u64,
    occupancy: usize,
}

impl OutputQueuedSwitch {
    /// An `n×n` output-queued switch; each output queue holds at most
    /// `capacity` cells (`None` = unbounded).
    pub fn new(n: usize, capacity: Option<usize>) -> Self {
        assert!(n > 0);
        OutputQueuedSwitch {
            queues: vec![VecDeque::new(); n],
            capacity,
            dropped: 0,
            occupancy: 0,
        }
    }

    /// Length of one output queue.
    pub fn queue_len(&self, j: usize) -> usize {
        self.queues[j].len()
    }
}

impl CellSwitch for OutputQueuedSwitch {
    fn ports(&self) -> usize {
        self.queues.len()
    }

    fn tick(&mut self, _now: Cycle, arrivals: &[Option<Cell>], out: &mut [Option<Cell>]) {
        clear_out(out);
        // All arrivals transfer to their output queues in the same slot
        // (the n-fold-throughput buffer assumption).
        for a in arrivals.iter().flatten() {
            let q = &mut self.queues[a.dst.index()];
            if self.capacity.is_some_and(|cap| q.len() >= cap) {
                self.dropped += 1;
            } else {
                q.push_back(*a);
                self.occupancy += 1;
            }
        }
        for (j, q) in self.queues.iter_mut().enumerate() {
            out[j] = q.pop_front();
            self.occupancy -= usize::from(out[j].is_some());
        }
    }

    fn occupancy(&self) -> usize {
        self.occupancy
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn name(&self) -> &'static str {
        "output-queued"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(id: u64, src: usize, dst: usize) -> Cell {
        Cell::new(id, src, dst, 0)
    }

    #[test]
    fn accepts_all_simultaneous_arrivals() {
        let mut sw = OutputQueuedSwitch::new(4, None);
        let mut out = vec![None; 4];
        let arr: Vec<Option<Cell>> = (0..4).map(|i| Some(cell(i as u64, i, 0))).collect();
        sw.tick(0, &arr, &mut out);
        // One departed immediately, three remain queued.
        assert!(out[0].is_some());
        assert_eq!(sw.occupancy(), 3);
        // They drain one per slot, FIFO.
        for _ in 0..3 {
            sw.tick(1, &[None, None, None, None], &mut out);
            assert!(out[0].is_some());
        }
        assert_eq!(sw.occupancy(), 0);
    }

    #[test]
    fn per_output_capacity_drops() {
        let mut sw = OutputQueuedSwitch::new(4, Some(2));
        let mut out = vec![None; 4];
        let arr: Vec<Option<Cell>> = (0..4).map(|i| Some(cell(i as u64, i, 0))).collect();
        sw.tick(0, &arr, &mut out);
        // 4 arrivals, capacity 2: two enqueue, two drop; one of the
        // enqueued departs this slot.
        assert_eq!(sw.dropped(), 2);
        assert_eq!(sw.occupancy(), 1);
    }

    #[test]
    fn work_conserving_each_output() {
        // An output with any cell queued transmits every slot.
        let mut sw = OutputQueuedSwitch::new(2, None);
        let mut out = vec![None; 2];
        sw.tick(0, &[Some(cell(1, 0, 1)), Some(cell(2, 1, 1))], &mut out);
        assert!(out[1].is_some());
        assert!(out[0].is_none());
        sw.tick(1, &[None, None], &mut out);
        assert!(out[1].is_some());
    }
}
