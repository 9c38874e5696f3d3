//! X2 (extension) — bursty on/off traffic across architectures.
//!
//! §2.1's observation that saturation "occurs sooner" when "the traffic
//! is bursty and the bursts are larger than the buffers", applied to the
//! slot-level architectures: loss vs burst length at fixed load and
//! fixed total memory.

use crate::x01::Arch;
use crate::{sweep, table};
use baselines::harness::run as harness_run;
use baselines::input_fifo::InputFifoSwitch;
use baselines::model::CellSwitch;
use traffic::{BurstyOnOff, DestDist};

/// One (architecture, burst length) measurement.
#[derive(Debug, Clone)]
pub struct X2Row {
    /// Architecture.
    pub arch: &'static str,
    /// Mean burst length in cells.
    pub mean_burst: f64,
    /// Measured loss.
    pub loss: f64,
    /// Measured p99 latency.
    pub p99: u64,
}

fn measure(
    arch: &'static str,
    mut model: Box<dyn CellSwitch>,
    n: usize,
    load: f64,
    mean_burst: f64,
    slots: u64,
) -> X2Row {
    let mut src = BurstyOnOff::new(n, load, mean_burst, DestDist::uniform(n), 0x22);
    let s = harness_run(model.as_mut(), &mut src, slots, slots / 5);
    X2Row {
        arch,
        mean_burst,
        loss: s.loss,
        p99: s.p99_latency.unwrap_or(0),
    }
}

/// Sweep burst lengths at equal total memory: the grid is
/// (burst length × architecture), models built inside the workers.
pub fn rows(quick: bool) -> Vec<X2Row> {
    let n = 16;
    let total = 128usize;
    let load = 0.6;
    let slots = if quick { 40_000 } else { 300_000 };
    let mut points = Vec::new();
    for &b in &[1.0, 8.0, 32.0] {
        for (arch, build) in ARCHS {
            points.push((arch, build, b));
        }
    }
    sweep::map(&points, |&(arch, build, b)| {
        measure(arch, build(n, total), n, load, b, slots)
    })
}

/// X1's partitioned and shared organizations, with input FIFOs in place
/// of crosspoint queues; each builds its model at `(n, total)` cells.
const ARCHS: [Arch; 4] = [
    crate::x01::ARCHS[0],
    crate::x01::ARCHS[1],
    crate::x01::ARCHS[2],
    ("input-fifo", |n, total| {
        Box::new(InputFifoSwitch::new(n, Some(total / n), 7))
    }),
];

/// Render the report.
pub fn run(quick: bool) -> String {
    table::render(
        "X2 (extension): bursty on/off traffic, 16x16 @ 0.6 load, equal TOTAL memory (128 cells)",
        &["architecture", "mean burst", "loss", "p99 latency"],
        rows(quick).iter().map(|r| {
            vec![
                r.arch.to_string(),
                format!("{:.0}", r.mean_burst),
                format!("{:.2e}", r.loss),
                r.p99.to_string(),
            ]
        }),
        "\nBursts longer than a partition are the §2.1 failure mode; the shared pool\n\
         absorbs a burst whole. But at long bursts MANY simultaneous bursts collide\n\
         and the unfenced pool is hogged by the deepest queues (cold outputs drop\n\
         too); a per-output threshold (total/4) keeps sharing's absorption while\n\
         fencing the hogs — matching or beating the partitioned designs everywhere.\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burstiness_hurts_partitions_thresholded_sharing_stays_best() {
        let rows = rows(true);
        let loss_of = |arch: &str, b: f64| {
            rows.iter()
                .find(|r| r.arch.starts_with(arch) && (r.mean_burst - b).abs() < 1e-9)
                .unwrap()
                .loss
        };
        // Loss grows with burst length for the partitioned designs.
        assert!(loss_of("output", 32.0) > loss_of("output", 1.0));
        // At short bursts plain sharing dominates.
        assert!(loss_of("shared, unfenced", 1.0) <= loss_of("output", 1.0));
        // At long bursts the fenced pool matches or beats partitions.
        assert!(
            loss_of("shared + threshold", 32.0) <= loss_of("output", 32.0) * 1.1,
            "thresholded: {:.2e}, output-queued: {:.2e}",
            loss_of("shared + threshold", 32.0),
            loss_of("output", 32.0)
        );
    }
}
