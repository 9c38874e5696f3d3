//! X1 (extension) — hotspot traffic across architectures.
//!
//! The paper's §2 comparisons assume uniform destinations. Hotspot
//! traffic (a fraction of all cells converge on one output) is the
//! classic stressor of buffer *sharing*: a shared pool donates everyone's
//! idle memory to the hot output, while partitioned organizations
//! overflow their hot partition early. This experiment quantifies that
//! advantage — the same §2.2 argument, under less friendly traffic.

use crate::{sweep, table};
use baselines::crosspoint::CrosspointSwitch;
use baselines::harness::run as harness_run;
use baselines::model::CellSwitch;
use baselines::shared::output_queued;
use simkernel::SharedBuffer;
use traffic::{Bernoulli, DestDist};

/// One (architecture, hotspot fraction) measurement.
#[derive(Debug, Clone)]
pub struct X1Row {
    /// Architecture.
    pub arch: &'static str,
    /// Fraction of traffic concentrated on output 0.
    pub hot_frac: f64,
    /// Loss with the common total budget.
    pub loss: f64,
    /// Mean latency.
    pub latency: f64,
}

/// Measure one point: total buffer budget fixed at `total` cells.
fn measure(
    arch: &'static str,
    mut model: Box<dyn CellSwitch>,
    n: usize,
    load: f64,
    hot_frac: f64,
    slots: u64,
) -> X1Row {
    let mut src = Bernoulli::new(n, load, DestDist::hotspot(n, 0, hot_frac), 0x11);
    let s = harness_run(model.as_mut(), &mut src, slots, slots / 5);
    X1Row {
        arch,
        hot_frac,
        loss: s.loss,
        latency: s.mean_latency,
    }
}

/// All rows: shared (plain and thresholded) vs output-queued vs
/// crosspoint at the same total memory (64 cells for a 16×16 switch).
///
/// Hotspot fractions are chosen around the hot output's stability point
/// (at load 0.6, n=16 the hot output saturates near hf ≈ 0.04): below it
/// sharing wins outright; above it the *unfenced* pool exhibits buffer
/// hogging — the hot queue swallows the whole pool and everyone drops —
/// which the per-output threshold repairs.
pub fn rows(quick: bool) -> Vec<X1Row> {
    let n = 16;
    let total = 64usize;
    let load = 0.6;
    let slots = if quick { 40_000 } else { 200_000 };
    // The grid is (hotspot fraction × architecture); the model is built
    // *inside* the worker so every point is a self-contained simulation.
    let mut points = Vec::new();
    for &hf in &[0.0, 0.03, 0.2] {
        for (arch, build) in ARCHS {
            points.push((arch, build, hf));
        }
    }
    sweep::map(&points, |&(arch, build, hf)| {
        measure(arch, build(n, total), n, load, hf, slots)
    })
}

/// An architecture's label and its model at `(n, total)` cells of memory.
pub(crate) type Arch = (&'static str, fn(usize, usize) -> Box<dyn CellSwitch>);

/// The architectures of the table.
pub(crate) const ARCHS: [Arch; 4] = [
    ("shared, unfenced", |n, total| {
        Box::new(SharedBuffer::switch(n, Some(total)))
    }),
    ("shared + threshold", |n, total| {
        Box::new(SharedBuffer::switch(n, Some(total)).fenced(Some(total / 4)))
    }),
    ("output-queued", |n, total| {
        Box::new(output_queued(n, Some(total / n)))
    }),
    ("crosspoint", |n, total| {
        Box::new(CrosspointSwitch::new(n, Some(total / (n * n) + 1)))
    }),
];

/// Render the report.
pub fn run(quick: bool) -> String {
    table::render(
        "X1 (extension): hotspot traffic, 16x16 @ 0.6 load, equal TOTAL memory (64 cells)",
        &["architecture", "hot frac", "loss", "latency"],
        rows(quick).iter().map(|r| {
            vec![
                r.arch.to_string(),
                format!("{:.2}", r.hot_frac),
                format!("{:.2e}", r.loss),
                format!("{:.2}", r.latency),
            ]
        }),
        "\nBelow the hot output's saturation, sharing wins: the pool donates idle\n\
         outputs' memory to the hot one. Once the hot output is OVERSUBSCRIBED\n\
         (hf = 0.2 here), the unfenced pool exhibits buffer hogging — the hot queue\n\
         swallows all 64 cells and cold traffic drops too — while per-output\n\
         thresholds (total/4 here) restore isolation at shared-memory cost. The\n\
         Telegraphos answer is different but equivalent in effect: per-link credits\n\
         bound each source's pool usage (tests/credit_flow.rs).\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(rows: &[X1Row], arch: &str, hf: f64) -> X1Row {
        rows.iter()
            .find(|r| r.arch.starts_with(arch) && (r.hot_frac - hf).abs() < 1e-9)
            .unwrap()
            .clone()
    }

    #[test]
    fn sharing_wins_below_hot_saturation() {
        let rows = rows(true);
        let sh = at(&rows, "shared, unfenced", 0.03);
        let oq = at(&rows, "output", 0.03);
        assert!(
            sh.loss <= oq.loss,
            "stable hotspot: shared ({:.2e}) must lose no more than \
             output-queued ({:.2e})",
            sh.loss,
            oq.loss
        );
    }

    #[test]
    fn hogging_appears_when_oversubscribed_and_threshold_fixes_it() {
        let rows = rows(true);
        let unfenced = at(&rows, "shared, unfenced", 0.2);
        let fenced = at(&rows, "shared + threshold", 0.2);
        let oq = at(&rows, "output", 0.2);
        assert!(
            unfenced.loss > oq.loss,
            "unfenced sharing must exhibit hogging under oversubscription"
        );
        assert!(
            fenced.loss <= oq.loss * 1.1,
            "thresholded sharing ({:.2e}) must match or beat output \
             queueing ({:.2e})",
            fenced.loss,
            oq.loss
        );
    }
}
