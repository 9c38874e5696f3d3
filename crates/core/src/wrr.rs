//! Weighted round-robin cell multiplexing (\[KaSC91\]).
//!
//! The paper's predecessor design — "Weighted Round-Robin Cell
//! Multiplexing in a General-Purpose ATM Switch Chip" — scheduled each
//! outgoing link among its flows in proportion to configured weights;
//! the Telegraphos outgoing-link blocks (fig. 6: "the list of ready to
//! depart packets") are the descendants of that machinery. This module
//! provides the per-output scheduler as a reusable component: a
//! deficit-style weighted round robin over per-flow FIFO queues, one
//! dequeue per slot (the link transmits one cell per slot).
//!
//! Guarantees (tested):
//! * **work conservation** — the link never idles while any flow is
//!   backlogged;
//! * **proportional sharing** — continuously backlogged flows receive
//!   service proportional to their weights (within one round);
//! * **per-flow FIFO** order.

use std::collections::VecDeque;

/// One flow's state.
#[derive(Debug, Clone)]
struct Flow<T> {
    weight: u32,
    deficit: u32,
    queue: VecDeque<T>,
}

/// A weighted round-robin multiplexer over `flows` FIFO queues.
///
/// ```
/// use switch_core::wrr::WrrMux;
///
/// let mut mux: WrrMux<&str> = WrrMux::new(&[2, 1]);
/// mux.enqueue(0, "a1");
/// mux.enqueue(0, "a2");
/// mux.enqueue(1, "b1");
/// // Flow 0 (weight 2) sends two cells per round, flow 1 one.
/// assert_eq!(mux.dequeue(), Some((0, "a1")));
/// assert_eq!(mux.dequeue(), Some((0, "a2")));
/// assert_eq!(mux.dequeue(), Some((1, "b1")));
/// ```
#[derive(Debug, Clone)]
pub struct WrrMux<T> {
    flows: Vec<Flow<T>>,
    /// Round-robin scan position.
    cursor: usize,
}

impl<T> WrrMux<T> {
    /// A multiplexer with the given per-flow weights (each ≥ 1).
    pub fn new(weights: &[u32]) -> Self {
        assert!(!weights.is_empty());
        assert!(weights.iter().all(|&w| w >= 1), "weights must be ≥ 1");
        WrrMux {
            flows: weights
                .iter()
                .map(|&w| Flow {
                    weight: w,
                    deficit: 0,
                    queue: VecDeque::new(),
                })
                .collect(),
            cursor: 0,
        }
    }

    /// Enqueue a cell on a flow.
    pub fn enqueue(&mut self, flow: usize, item: T) {
        self.flows[flow].queue.push_back(item);
    }

    /// Cells queued on one flow.
    pub fn queue_len(&self, flow: usize) -> usize {
        self.flows[flow].queue.len()
    }

    /// Total cells queued.
    pub fn backlog(&self) -> usize {
        self.flows.iter().map(|f| f.queue.len()).sum()
    }

    /// Dequeue the next cell for transmission (call once per slot).
    ///
    /// Deficit round robin with cell-granularity quanta: the cursor flow
    /// spends one unit of deficit per cell; when its deficit is exhausted
    /// (or its queue empties) the cursor advances and the next flow is
    /// recharged by its weight.
    pub fn dequeue(&mut self) -> Option<(usize, T)> {
        if self.backlog() == 0 {
            return None;
        }
        let n = self.flows.len();
        // At most one full sweep: some flow is backlogged, so we find it.
        for _ in 0..=n {
            let i = self.cursor;
            let f = &mut self.flows[i];
            if f.queue.is_empty() {
                f.deficit = 0; // empty flows don't accumulate credit
                self.cursor = (i + 1) % n;
                continue;
            }
            if f.deficit == 0 {
                f.deficit = f.weight;
            }
            f.deficit -= 1;
            let item = f.queue.pop_front().expect("non-empty");
            if f.deficit == 0 || f.queue.is_empty() {
                if f.queue.is_empty() {
                    f.deficit = 0;
                }
                self.cursor = (i + 1) % n;
            }
            return Some((i, item));
        }
        unreachable!("backlogged mux failed to find a flow");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_conserving() {
        let mut m: WrrMux<u32> = WrrMux::new(&[1, 1]);
        m.enqueue(1, 10);
        // Flow 0 empty must not block the link.
        assert_eq!(m.dequeue(), Some((1, 10)));
        assert_eq!(m.dequeue(), None);
    }

    #[test]
    fn proportional_under_backlog() {
        let weights = [1u32, 2, 3];
        let mut m: WrrMux<u64> = WrrMux::new(&weights);
        // Keep all flows continuously backlogged and count service.
        let mut served = [0u64; 3];
        let mut next = 0u64;
        for f in 0..3 {
            for _ in 0..10 {
                m.enqueue(f, next);
                next += 1;
            }
        }
        for _ in 0..1200 {
            // top up
            for f in 0..3 {
                if m.queue_len(f) < 5 {
                    m.enqueue(f, next);
                    next += 1;
                }
            }
            let (f, _) = m.dequeue().expect("backlogged");
            served[f] += 1;
        }
        let total: u64 = served.iter().sum();
        for f in 0..3 {
            let share = served[f] as f64 / total as f64;
            let expect = weights[f] as f64 / 6.0;
            assert!(
                (share - expect).abs() < 0.02,
                "flow {f}: share {share:.3} vs weight share {expect:.3}"
            );
        }
    }

    #[test]
    fn per_flow_fifo() {
        let mut m: WrrMux<u32> = WrrMux::new(&[1, 4]);
        for v in 0..5 {
            m.enqueue(1, v);
        }
        let mut got = Vec::new();
        while let Some((f, v)) = m.dequeue() {
            assert_eq!(f, 1);
            got.push(v);
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_flow_accumulates_no_credit() {
        // A flow idle for a long time must not burst beyond its weight
        // when it returns (the "no banked credit" property of DRR with
        // reset-on-empty).
        let mut m: WrrMux<u32> = WrrMux::new(&[4, 4]);
        for _ in 0..100 {
            m.enqueue(0, 1);
        }
        // Serve only flow 0 for a while (flow 1 idle).
        for _ in 0..50 {
            let _ = m.dequeue();
        }
        // Flow 1 wakes with a big backlog; in the next 8 slots it may get
        // at most its weight per round, i.e. no more than ~weight+... of
        // the first 8 services.
        for _ in 0..100 {
            m.enqueue(1, 2);
        }
        let mut f1_in_first_8 = 0;
        for _ in 0..8 {
            if let Some((1, _)) = m.dequeue() {
                f1_in_first_8 += 1;
            }
        }
        assert!(
            f1_in_first_8 <= 4,
            "flow 1 must not burst past its weight: {f1_in_first_8}"
        );
    }

    #[test]
    #[should_panic(expected = "weights must be ≥ 1")]
    fn zero_weight_rejected() {
        let _: WrrMux<u32> = WrrMux::new(&[1, 0]);
    }
}
