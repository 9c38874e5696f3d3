//! The Knockout switch (\[YeHA87\], cited in §3.1).
//!
//! Output queueing with a concentrator: each output accepts at most `l`
//! of the cells arriving for it in one slot; the rest are "knocked out"
//! (dropped), on the observation that more than `l ≈ 8` simultaneous
//! arrivals for one output are rare under uniform traffic. The accepted
//! cells enter interleaved per-output buffers ("shifters"), modeled here
//! as one FIFO per output.

use crate::model::{all_ports, CellSwitch, Row};
use simkernel::cell::Cell;
use simkernel::ids::Cycle;
use simkernel::SplitMix64;
use std::collections::VecDeque;

/// Knockout switch: concentration factor `l`, per-output queue capacity.
#[derive(Debug)]
pub struct KnockoutSwitch {
    queues: Vec<VecDeque<Cell>>,
    l: usize,
    capacity: Option<usize>,
    dropped_knockout: u64,
    dropped_overflow: u64,
    rng: SplitMix64,
    occupancy: usize,
    /// Scratch: this slot's arrivals per output.
    staging: Vec<Vec<Cell>>,
}

impl KnockoutSwitch {
    /// An `n×n` knockout switch accepting at most `l` simultaneous cells
    /// per output.
    pub fn new(n: usize, l: usize, capacity: Option<usize>, seed: u64) -> Self {
        all_ports(n);
        assert!(l >= 1);
        KnockoutSwitch {
            queues: vec![VecDeque::new(); n],
            l,
            capacity,
            dropped_knockout: 0,
            dropped_overflow: 0,
            rng: SplitMix64::new(seed),
            occupancy: 0,
            staging: vec![Vec::new(); n],
        }
    }
}

impl CellSwitch for KnockoutSwitch {
    fn ports(&self) -> usize {
        self.queues.len()
    }

    fn tick(&mut self, _now: Cycle, arrivals: &Row, out: &mut Row) {
        out.mask = 0;
        for s in self.staging.iter_mut() {
            s.clear();
        }
        for (_, c) in arrivals.iter() {
            self.staging[c.dst.index()].push(c);
        }
        for (j, batch) in self.staging.iter_mut().enumerate() {
            // Concentrator: keep a uniformly random l of the batch.
            while batch.len() > self.l {
                let victim = self.rng.below_usize(batch.len());
                batch.swap_remove(victim);
                self.dropped_knockout += 1;
            }
            for c in batch.drain(..) {
                let q = &mut self.queues[j];
                if self.capacity.is_some_and(|cap| q.len() >= cap) {
                    self.dropped_overflow += 1;
                } else {
                    q.push_back(c);
                    self.occupancy += 1;
                }
            }
            if let Some(c) = self.queues[j].pop_front() {
                out.put(j, c);
                self.occupancy -= 1;
            }
        }
    }

    fn occupancy(&self) -> usize {
        self.occupancy
    }

    fn dropped(&self) -> u64 {
        self.dropped_knockout + self.dropped_overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(id: u64, src: usize, dst: usize) -> Cell {
        Cell::new(id, src, dst, 0)
    }

    #[test]
    fn accepts_up_to_l() {
        let mut sw = KnockoutSwitch::new(4, 2, None, 1);
        let mut out = Row::new(4);
        let arr: Row = (0..4).map(|i| Some(cell(i as u64, i, 0))).collect();
        sw.tick(0, &arr, &mut out);
        assert_eq!(sw.dropped_knockout, 2, "4 arrivals, l=2 → 2 knocked out");
        assert!(out.get(0).is_some());
        assert_eq!(sw.occupancy(), 1);
    }

    #[test]
    fn no_knockout_below_l() {
        let mut sw = KnockoutSwitch::new(4, 8, None, 1);
        let mut out = Row::new(4);
        let arr: Row = (0..4).map(|i| Some(cell(i as u64, i, 0))).collect();
        sw.tick(0, &arr, &mut out);
        assert_eq!(sw.dropped_knockout, 0);
    }

    #[test]
    fn knockout_loss_rare_under_uniform_traffic() {
        // The [YeHA87] design argument: with l = 8, uniform iid traffic at
        // 90 % load loses a negligible fraction. Measure it.
        let n = 16;
        let mut sw = KnockoutSwitch::new(n, 8, None, 2);
        let mut rng = SplitMix64::new(5);
        let mut out = Row::new(n);
        let mut offered = 0u64;
        for now in 0..20_000u64 {
            let arr: Row = (0..n)
                .map(|i| {
                    rng.chance(0.9).then(|| {
                        offered += 1;
                        cell(offered, i, rng.below_usize(n))
                    })
                })
                .collect();
            sw.tick(now, &arr, &mut out);
        }
        let loss = sw.dropped_knockout as f64 / offered as f64;
        assert!(loss < 1e-3, "knockout loss {loss} too high for l=8");
    }
}
