//! The fast-forward driver folds what it skips and executes into the
//! process-wide pair `ff_skipped` / `ff_executed`.
//!
//! One test, alone in this binary: the counters are process-wide, and a
//! sibling test advancing a model on another thread would perturb the
//! exact deltas asserted here.

use simkernel::horizon::{advance_to_batched, ff_executed, ff_skipped, BatchTick, Horizon};
use simkernel::ids::Cycle;

/// A toy model: one "packet" that completes at a fixed cycle.
struct Toy {
    now: Cycle,
    done_at: Option<Cycle>,
}

impl Horizon for Toy {
    fn now(&self) -> Cycle {
        self.now
    }
    fn next_event(&self) -> Option<Cycle> {
        match self.done_at {
            None => None,
            Some(d) if d > self.now => Some(d),
            Some(_) => Some(self.now),
        }
    }
    fn jump_to(&mut self, target: Cycle) {
        self.now = target;
    }
}

impl BatchTick for Toy {
    fn tick_idle_batch(&mut self, n: u64) {
        for _ in 0..n {
            if self.done_at == Some(self.now) {
                self.done_at = None;
            }
            self.now += 1;
        }
    }
}

#[test]
fn counters_accumulate() {
    let s0 = ff_skipped();
    let e0 = ff_executed();
    let mut t = Toy {
        now: 0,
        done_at: Some(10),
    };
    advance_to_batched(&mut t, 20);
    assert_eq!(ff_skipped() - s0, 19); // [0,10) and [11,20)
    assert_eq!(ff_executed() - e0, 1); // cycle 10
}
