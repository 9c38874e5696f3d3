//! Block-crosspoint buffering (§2.2, last paragraph; §3.5).
//!
//! "A mixture of crosspoint and shared buffering … a number of shared
//! buffers, each dedicated to a certain subset of incoming and outgoing
//! links. It features lower throughput-per-buffer requirements than a
//! single shared buffer, and better buffer space utilization than
//! crosspoint queueing." §3.5 offers it as the scaling path when one
//! pipelined buffer cannot cover all links.
//!
//! Model: inputs and outputs are partitioned into `g` groups of `n/g`;
//! each (input-group, output-group) pair owns one shared pool with
//! per-output FIFOs; each output serves its `g` feeding blocks round-
//! robin, one cell per slot.

use crate::model::{clear_out, CellSwitch};
use simkernel::cell::Cell;
use simkernel::ids::Cycle;
use std::collections::VecDeque;

/// Block-crosspoint switch: `g × g` blocks of shared buffers.
#[derive(Debug)]
pub struct BlockCrosspointSwitch {
    n: usize,
    g: usize,
    /// Pool occupancy per block, `blocks[bi * g + bo]`.
    pool_used: Vec<usize>,
    pool_cap: Option<usize>,
    /// One FIFO per (block, output): `queues[(bi * g + bo) * n + j]`
    /// (only the `n/g` outputs of group `bo` are used per block).
    queues: Vec<VecDeque<Cell>>,
    /// Per-output round-robin pointer over input groups.
    rr: Vec<usize>,
    dropped: u64,
    occupancy: usize,
}

impl BlockCrosspointSwitch {
    /// An `n×n` switch partitioned into `g` groups per side (`g` must
    /// divide `n`); each of the `g²` blocks holds a shared pool of
    /// `pool_cap` cells.
    pub fn new(n: usize, g: usize, pool_cap: Option<usize>) -> Self {
        assert!(n > 0 && g >= 1 && n.is_multiple_of(g), "g must divide n");
        BlockCrosspointSwitch {
            n,
            g,
            pool_used: vec![0; g * g],
            pool_cap,
            queues: vec![VecDeque::new(); g * g * n],
            rr: vec![0; n],
            dropped: 0,
            occupancy: 0,
        }
    }

    fn group_of(&self, port: usize) -> usize {
        port / (self.n / self.g)
    }

    /// Occupancy of one block's pool.
    pub fn block_occupancy(&self, bi: usize, bo: usize) -> usize {
        self.pool_used[bi * self.g + bo]
    }
}

impl CellSwitch for BlockCrosspointSwitch {
    fn ports(&self) -> usize {
        self.n
    }

    #[allow(clippy::needless_range_loop)] // per-port hardware scan
    fn tick(&mut self, _now: Cycle, arrivals: &[Option<Cell>], out: &mut [Option<Cell>]) {
        clear_out(out);
        let (n, g) = (self.n, self.g);
        for (i, a) in arrivals.iter().enumerate() {
            if let Some(c) = a {
                let bi = self.group_of(i);
                let bo = self.group_of(c.dst.index());
                let blk = bi * g + bo;
                if self.pool_cap.is_some_and(|cap| self.pool_used[blk] >= cap) {
                    self.dropped += 1;
                } else {
                    self.pool_used[blk] += 1;
                    self.occupancy += 1;
                    self.queues[blk * n + c.dst.index()].push_back(*c);
                }
            }
        }
        for j in 0..n {
            let bo = self.group_of(j);
            for k in 0..g {
                let bi = (self.rr[j] + k) % g;
                let blk = bi * g + bo;
                if let Some(c) = self.queues[blk * n + j].pop_front() {
                    self.pool_used[blk] -= 1;
                    self.occupancy -= 1;
                    out[j] = Some(c);
                    self.rr[j] = (bi + 1) % g;
                    break;
                }
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
    fn g1_behaves_as_single_shared_buffer() {
        let mut sw = BlockCrosspointSwitch::new(4, 1, Some(3));
        let mut out = vec![None; 4];
        let arr: Vec<Option<Cell>> = (0..4).map(|i| Some(cell(i as u64, i, 0))).collect();
        sw.tick(0, &arr, &mut out);
        // Pool of 3 for 4 simultaneous arrivals: one drop, one departure.
        assert_eq!(sw.dropped(), 1);
        assert!(out[0].is_some());
        assert_eq!(sw.occupancy(), 2);
    }

    #[test]
    fn gn_behaves_as_crosspoint() {
        // g = n: every block pairs exactly one input with one output.
        let mut sw = BlockCrosspointSwitch::new(2, 2, Some(1));
        let mut out = vec![None; 2];
        sw.tick(0, &[Some(cell(1, 0, 0)), Some(cell(2, 1, 0))], &mut out);
        // Both cells landed in different blocks (different input groups),
        // no drop despite pool capacity 1 per block.
        assert_eq!(sw.dropped(), 0);
        assert!(out[0].is_some());
    }

    #[test]
    fn pools_isolated_between_blocks() {
        let mut sw = BlockCrosspointSwitch::new(4, 2, Some(1));
        let mut out = vec![None; 4];
        // Inputs 0,1 (group 0) both to output 0 (group 0): same block,
        // pool 1 → one drop (minus the same-slot departure … departure
        // happens after enqueue, so second arrival finds pool full).
        sw.tick(
            0,
            &[Some(cell(1, 0, 0)), Some(cell(2, 1, 0)), None, None],
            &mut out,
        );
        assert_eq!(sw.dropped(), 1);
        // Meanwhile block (1,1) was unaffected.
        assert_eq!(sw.block_occupancy(1, 1), 0);
    }

    #[test]
    fn output_serves_blocks_round_robin() {
        let mut sw = BlockCrosspointSwitch::new(4, 2, None);
        let mut out = vec![None; 4];
        // Cells for output 0 from both input groups.
        sw.tick(
            0,
            &[Some(cell(1, 0, 0)), None, Some(cell(2, 2, 0)), None],
            &mut out,
        );
        let first_src = out[0].unwrap().src.index();
        sw.tick(1, &[None; 4], &mut out);
        let second_src = out[0].unwrap().src.index();
        assert_ne!(
            sw.group_of(first_src),
            sw.group_of(second_src),
            "outputs must alternate between feeding blocks"
        );
    }
}
