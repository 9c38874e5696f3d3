//! The driver counts the cycles it jumps and ticks in its own `Drive` and
//! folds them into `simkernel::horizon`'s process-wide pair once per run;
//! what reaches the pair must be what the per-tick `note_executed(1)` /
//! per-jump `note_skipped` it replaced added up to.
//!
//! One test, alone in this binary: the counters are process-wide, and a
//! sibling test running a driver would perturb the deltas.

use conformance::engine::CAMPAIGN_BASE_SEED;
use conformance::{run, Org, Scenario};
use simkernel::horizon::{ff_executed, ff_skipped};

#[test]
fn a_run_adds_the_cycles_it_skipped_and_executed_to_the_global_pair() {
    // Campaign index 14: eight ports, load 0.2, credited — every
    // organization both jumps idle gaps and ticks through credit stalls.
    // The deltas are those of the per-tick counting at commit b14a044.
    let sc = Scenario::generate(simkernel::split_seed(CAMPAIGN_BASE_SEED, 14));
    assert!(sc.credited && sc.n == 8 && sc.offers.len() == 69);
    let expected = [(124, 666), (598, 192), (104, 686), (48, 756)];
    for (org, expected) in Org::ALL.into_iter().zip(expected) {
        let before = (ff_skipped(), ff_executed());
        let r = run(&sc, org);
        let delta = (ff_skipped() - before.0, ff_executed() - before.1);
        assert_eq!(delta, expected, "{org}: (skipped, executed)");
        assert!(r.error.is_none() && r.stalls > 0, "{org}: {r:?}");
    }
}
