//! The slot-level shared buffer: one FIFO per output, every FIFO drawing
//! its cells from one pool.
//!
//! Output queueing and shared buffering are the same per-output FIFOs
//! (fig. 2, \[HlKa88\]); they differ only in where the capacity fence sits
//! — around each queue or around the whole pool. [`SharedBuffer`] is both:
//! `capacity` bounds the pool, `fence` bounds every queue, and `route`
//! names the queue a cell joins (its own `dst` in a switch, the local
//! output toward `dst` in a fabric element). Per slot the caller offers
//! the slot's arrivals in input-port order, then departs one cell from
//! every non-empty queue, so a cell may leave in the slot it arrived.

use crate::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;

/// Per-output FIFOs over one pool of cells, with an optional per-queue
/// fence.
#[derive(Debug)]
pub struct SharedBuffer {
    /// `route[dst]` = the queue a cell for `dst` joins.
    route: Arc<[u16]>,
    queues: Vec<VecDeque<Cell>>,
    /// Pool size in cells; `None` = unbounded.
    capacity: Option<usize>,
    /// Cells one queue may hold, even while the pool has room; `None` =
    /// unfenced sharing.
    fence: Option<usize>,
    occupancy: usize,
    accepted: u64,
    dropped: u64,
}

impl SharedBuffer {
    /// `outputs` queues over a pool of `capacity` cells (`None` =
    /// unbounded); a cell joins queue `route[cell.dst]`.
    pub fn new(outputs: usize, capacity: Option<usize>, route: Arc<[u16]>) -> Self {
        SharedBuffer {
            route,
            queues: vec![VecDeque::new(); outputs],
            capacity,
            fence: None,
            occupancy: 0,
            accepted: 0,
            dropped: 0,
        }
    }

    /// An `n×n` switch: a cell joins the queue of its own `dst`.
    pub fn switch(n: usize, capacity: Option<usize>) -> Self {
        assert!(
            (1..=1 << 16).contains(&n),
            "a shared-buffer switch takes 1..=65536 ports, got {n}"
        );
        Self::new(n, capacity, (0..n).map(|d| d as u16).collect())
    }

    /// Fence every queue at `per_output` cells (`None` = unfenced): one
    /// oversubscribed output can then never starve the others of pool
    /// space — the classic defense against buffer hogging. A pool with no
    /// capacity of its own, fenced, is output queueing.
    pub fn fenced(mut self, per_output: Option<usize>) -> Self {
        assert_ne!(per_output, Some(0), "a fence of 0 cells admits nothing");
        self.fence = per_output;
        self
    }

    /// Admit `cell` to its queue, or refuse it (counted as dropped) when
    /// the pool is full or its queue has reached the fence.
    #[inline]
    pub fn offer(&mut self, cell: Cell) -> bool {
        let pool_full = self.capacity.is_some_and(|cap| self.occupancy >= cap);
        let q = &mut self.queues[self.route[cell.dst.index()] as usize];
        if pool_full || self.fence.is_some_and(|cap| q.len() >= cap) {
            self.dropped += 1;
            return false;
        }
        q.push_back(cell);
        self.occupancy += 1;
        self.accepted += 1;
        true
    }

    /// Send one cell from every non-empty queue, in queue order, to
    /// `emit(queue, cell)`.
    #[inline]
    pub fn depart(&mut self, mut emit: impl FnMut(usize, Cell)) {
        for (j, q) in self.queues.iter_mut().enumerate() {
            if let Some(cell) = q.pop_front() {
                self.occupancy -= 1;
                emit(j, cell);
            }
        }
    }

    /// Number of queues.
    pub fn outputs(&self) -> usize {
        self.queues.len()
    }

    /// Cells buffered now.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Cells admitted since construction.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Cells refused since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn departures(buf: &mut SharedBuffer) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        buf.depart(|j, c| out.push((j, c.id.0)));
        out
    }

    #[test]
    fn queues_are_keyed_by_the_route_table() {
        // Terminals 0..4 fold onto two queues, crosswise.
        let mut buf = SharedBuffer::new(2, None, Arc::from([1u16, 0, 1, 0]));
        for (id, dst) in [(1, 0), (2, 1), (3, 2), (4, 3)] {
            assert!(buf.offer(Cell::new(id, 0, dst, 0)));
        }
        assert_eq!(departures(&mut buf), [(0, 2), (1, 1)]);
        assert_eq!(departures(&mut buf), [(0, 4), (1, 3)]);
        assert_eq!((buf.occupancy(), buf.accepted()), (0, 4));
    }

    #[test]
    fn the_fence_refuses_while_the_pool_has_room() {
        let mut buf = SharedBuffer::switch(2, Some(8)).fenced(Some(2));
        let offered: Vec<bool> = (0..3).map(|id| buf.offer(Cell::new(id, 0, 1, 0))).collect();
        assert_eq!(offered, [true, true, false], "queue 1 stops at its fence");
        assert!(buf.offer(Cell::new(3, 0, 0, 0)), "queue 0 still has room");
        assert_eq!((buf.occupancy(), buf.dropped()), (3, 1));
    }

    #[test]
    fn a_full_pool_admits_the_first_offers_in_port_order() {
        let mut buf = SharedBuffer::switch(4, Some(2));
        let offered: Vec<bool> = (0..4)
            .map(|port| buf.offer(Cell::new(port as u64, port, 3 - port, 0)))
            .collect();
        assert_eq!(offered, [true, true, false, false]);
        assert_eq!(departures(&mut buf), [(2, 1), (3, 0)]);
        assert_eq!((buf.accepted(), buf.dropped()), (2, 2));
    }

    #[test]
    #[should_panic(expected = "takes 1..=65536 ports, got 65537")]
    fn a_switch_wider_than_a_route_entry_is_rejected() {
        SharedBuffer::switch((1 << 16) + 1, None);
    }

    #[test]
    #[should_panic(expected = "a fence of 0 cells admits nothing")]
    fn a_zero_fence_is_rejected() {
        SharedBuffer::switch(2, None).fenced(Some(0));
    }
}
