//! E4 — latency: scheduled input buffering vs output/shared queueing
//! (§2.2, \[AOST93 fig. 3\]).
//!
//! "Concerning latency, the simulations in [AOST93, fig. 3] showed output
//! queueing (or equivalently shared buffering) to be about twice faster
//! than input buffering, under the particular scheduling algorithm that
//! that paper uses, for link loads between 0.6 and 0.9."

use crate::{sweep, table};
use baselines::harness::run as harness_run;
use baselines::sched::PimScheduler;
use baselines::shared::output_queued;
use baselines::voq::VoqSwitch;
use traffic::{Bernoulli, DestDist};

/// One load point.
#[derive(Debug, Clone, Copy)]
pub struct E4Row {
    /// Offered load.
    pub load: f64,
    /// Mean latency, VOQ input buffering with PIM.
    pub voq_latency: f64,
    /// Mean latency, output queueing.
    pub oq_latency: f64,
    /// Ratio voq/oq.
    pub ratio: f64,
}

/// Measure both architectures at one load.
pub fn measure(n: usize, load: f64, slots: u64, seed: u64) -> E4Row {
    let voq = {
        // PIM with log2(n) iterations, as in [AOST93].
        let iters = (usize::BITS - n.leading_zeros()) as usize;
        let mut m = VoqSwitch::new(n, None, PimScheduler::new(iters, seed));
        let mut src = Bernoulli::new(n, load, DestDist::uniform(n), seed);
        harness_run(&mut m, &mut src, slots, slots / 5).mean_latency
    };
    let oq = {
        let mut m = output_queued(n, None);
        let mut src = Bernoulli::new(n, load, DestDist::uniform(n), seed);
        harness_run(&mut m, &mut src, slots, slots / 5).mean_latency
    };
    E4Row {
        load,
        voq_latency: voq,
        oq_latency: oq,
        ratio: voq / oq,
    }
}

/// Sweep loads 0.5–0.9 through the parallel engine, one point per load.
pub fn rows(quick: bool) -> Vec<E4Row> {
    let slots = if quick { 30_000 } else { 200_000 };
    sweep::map(&[0.5, 0.6, 0.7, 0.8, 0.9], |&l| measure(16, l, slots, 0xE4))
}

/// Render the report.
pub fn run(quick: bool) -> String {
    table::render(
        "E4: mean cell latency, 16x16, uniform iid — scheduled input buffering (VOQ+PIM) vs output queueing (paper §2.2 / [AOST93 fig 3])",
        &["load", "VOQ+PIM", "output-q", "ratio"],
        rows(quick).iter().map(|r| {
            vec![
                format!("{:.1}", r.load),
                format!("{:.2}", r.voq_latency),
                format!("{:.2}", r.oq_latency),
                format!("{:.2}x", r.ratio),
            ]
        }),
        "\nPaper: output/shared queueing 'about twice faster' at loads 0.6-0.9.\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_buffering_slower_at_high_load() {
        let r = measure(16, 0.8, 30_000, 5);
        assert!(
            r.ratio > 1.3,
            "VOQ must be noticeably slower than OQ at load 0.8: {r:?}"
        );
        assert!(r.ratio < 10.0, "but in the same regime: {r:?}");
    }

    #[test]
    fn latencies_positive_and_finite() {
        let r = measure(16, 0.6, 20_000, 6);
        assert!(r.voq_latency > 0.0 && r.voq_latency.is_finite());
        assert!(r.oq_latency > 0.0 && r.oq_latency.is_finite());
    }
}
