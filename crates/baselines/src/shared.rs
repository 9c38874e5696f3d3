//! Shared buffering and output queueing at slot level (fig. 2).
//!
//! Both are one [`SharedBuffer`]: logically one FIFO per output. Shared
//! buffering draws every FIFO's cells from one pool — the architecture the
//! paper argues for (optimal link utilization *and* best memory
//! utilization) and the slot-level ideal of the \[HlKa88\] buffer-sizing
//! comparison (E3). Output queueing ([`output_queued`]) is the same FIFOs
//! with the capacity fence around each queue instead of around the pool,
//! and a fence inside a bounded pool is the thresholded sharing of X1.
//!
//! The wide-memory (\[KaSC91\]) and PRIZMA (\[DeEI95\]) organizations, with
//! fig. 3's cut-through crossbar, queue exactly like the shared pool at
//! their capacity — PRIZMA's is its bank count — so E15 runs them as
//! [`SharedBuffer::switch`]; what sets them apart is silicon (`vlsimodel`,
//! E13 / E14), and the wide memory *without* the crossbar is the
//! word-level `core::widemem`.

use crate::model::{clear_out, CellSwitch};
use simkernel::cell::Cell;
use simkernel::ids::Cycle;
use simkernel::SharedBuffer;

impl CellSwitch for SharedBuffer {
    fn ports(&self) -> usize {
        self.outputs()
    }

    fn tick(&mut self, _now: Cycle, arrivals: &[Option<Cell>], out: &mut [Option<Cell>]) {
        clear_out(out);
        for a in arrivals.iter().flatten() {
            self.offer(*a);
        }
        self.depart(|j, cell| out[j] = Some(cell));
    }

    fn occupancy(&self) -> usize {
        SharedBuffer::occupancy(self)
    }

    fn dropped(&self) -> u64 {
        SharedBuffer::dropped(self)
    }
}

/// Output queueing (fig. 2, left): an `n×n` switch whose outputs each own
/// a FIFO of `per_output` cells (`None` = unbounded), able to accept cells
/// from all inputs in the same slot (buffer write throughput ∝ n — the
/// "high-throughput buffer" class of §2.2). Link utilization is optimal;
/// memory utilization is worse than shared buffering's because a busy
/// output cannot borrow another output's idle space (\[HlKa88\], E3).
pub fn output_queued(n: usize, per_output: Option<usize>) -> SharedBuffer {
    SharedBuffer::switch(n, None).fenced(per_output)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(id: u64, src: usize, dst: usize, birth: Cycle) -> Cell {
        Cell::new(id, src, dst, birth)
    }

    #[test]
    fn pool_is_shared_across_outputs() {
        // Capacity 3: output 0 may hold all 3 slots even while output 1
        // holds none — the memory-utilization advantage over per-output
        // partitions.
        let mut sw = SharedBuffer::switch(2, Some(3));
        let mut out = vec![None; 2];
        sw.tick(
            0,
            &[Some(cell(1, 0, 0, 0)), Some(cell(2, 1, 0, 0))],
            &mut out,
        );
        sw.tick(
            1,
            &[Some(cell(3, 0, 0, 1)), Some(cell(4, 1, 0, 1))],
            &mut out,
        );
        // Slot 0: 2 accepted, 1 departed. Slot 1: 2 more offered, pool
        // has 1 + 2 = 3 ≤ 3 → both accepted... then one departs.
        assert_eq!(sw.dropped(), 0);
        sw.tick(
            2,
            &[Some(cell(5, 0, 0, 2)), Some(cell(6, 1, 0, 2))],
            &mut out,
        );
        // Occupancy was 2 after slot 1; two arrive → 4 > 3: one drops.
        assert_eq!(sw.dropped(), 1);
    }

    #[test]
    fn departures_fifo_per_output() {
        let mut sw = SharedBuffer::switch(2, None);
        let mut out = vec![None; 2];
        sw.tick(
            0,
            &[Some(cell(1, 0, 1, 0)), Some(cell(2, 1, 1, 0))],
            &mut out,
        );
        let first = out[1].unwrap().id.0;
        sw.tick(1, &[None, None], &mut out);
        let second = out[1].unwrap().id.0;
        assert_eq!((first, second), (1, 2));
    }

    #[test]
    fn accepts_all_simultaneous_arrivals() {
        let mut sw = output_queued(4, None);
        let mut out = vec![None; 4];
        let arr: Vec<Option<Cell>> = (0..4).map(|i| Some(cell(i as u64, i, 0, 0))).collect();
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
        let mut sw = output_queued(4, Some(2));
        let mut out = vec![None; 4];
        let arr: Vec<Option<Cell>> = (0..4).map(|i| Some(cell(i as u64, i, 0, 0))).collect();
        sw.tick(0, &arr, &mut out);
        // 4 arrivals, capacity 2: two enqueue, two drop; one of the
        // enqueued departs this slot.
        assert_eq!(sw.dropped(), 2);
        assert_eq!(sw.occupancy(), 1);
    }

    #[test]
    fn work_conserving_each_output() {
        // An output with any cell queued transmits every slot.
        let mut sw = output_queued(2, None);
        let mut out = vec![None; 2];
        sw.tick(
            0,
            &[Some(cell(1, 0, 1, 0)), Some(cell(2, 1, 1, 0))],
            &mut out,
        );
        assert!(out[1].is_some());
        assert!(out[0].is_none());
        sw.tick(1, &[None, None], &mut out);
        assert!(out[1].is_some());
    }
}
