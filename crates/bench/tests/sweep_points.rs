//! `sweep::points_run()` is one process-wide counter (it is what
//! `paper_campaign` reports as `bench.sweep.points`), so its exact count
//! can only be asserted where nothing else sweeps: this binary holds this
//! one test.

use bench_harness::sweep::{map, points_run};

#[test]
fn map_counts_points() {
    let before = points_run();
    map(&[1, 2, 3], |&p| p);
    assert_eq!(points_run() - before, 3);
}
