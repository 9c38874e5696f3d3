//! E15 — the full architecture sweep (figs. 1–2, §2).
//!
//! Every buffering architecture the paper surveys, run under the same
//! uniform iid workload: measured saturation throughput plus latency and
//! loss at a common operating point. This is the quantitative backdrop
//! of the paper's §2 argument in one table.

use crate::{sweep, table};
use baselines::block_crosspoint::BlockCrosspointSwitch;
use baselines::crosspoint::CrosspointSwitch;
use baselines::harness::{carried_at_load, run as harness_run, RunStats};
use baselines::input_fifo::InputFifoSwitch;
use baselines::knockout::KnockoutSwitch;
use baselines::model::CellSwitch;
use baselines::sched::{IslipScheduler, PimScheduler, Rr2dScheduler};
use baselines::shared::output_queued;
use baselines::speedup::SpeedupSwitch;
use baselines::voq::VoqSwitch;
use simkernel::SharedBuffer;
use stats::saturation_search;
use traffic::{Bernoulli, DestDist};

/// One architecture's measurements.
#[derive(Debug, Clone)]
pub struct E15Row {
    /// Architecture label.
    pub arch: String,
    /// Measured saturation throughput (unbounded buffers).
    pub saturation: f64,
    /// Mean latency at load 0.5 (slots).
    pub latency_half: f64,
    /// Loss at load 0.9 with ~4 cells/port of buffer.
    pub loss_tight: f64,
}

/// Factory closure for one architecture. `Send + Sync` so the zoo can be
/// measured in parallel, one sweep point per architecture.
type ModelFactory = Box<dyn Fn(Option<usize>) -> Box<dyn CellSwitch> + Send + Sync>;

/// The architecture zoo: name → factory(buffer-per-port-ish).
pub fn zoo(n: usize) -> Vec<(String, ModelFactory)> {
    let mk = |f: ModelFactory| f;
    vec![
        (
            "input FIFO [KaHM87]".into(),
            mk(Box::new(move |cap| {
                Box::new(InputFifoSwitch::new(n, cap, 1))
            })),
        ),
        (
            "VOQ + PIM [AOST93]".into(),
            mk(Box::new(move |cap| {
                Box::new(VoqSwitch::new(n, cap, PimScheduler::new(4, 2)))
            })),
        ),
        (
            "VOQ + iSLIP".into(),
            mk(Box::new(move |cap| {
                Box::new(VoqSwitch::new(n, cap, IslipScheduler::new(n, 4)))
            })),
        ),
        (
            "VOQ + 2DRR [LaSe95]".into(),
            mk(Box::new(move |cap| {
                Box::new(VoqSwitch::new(n, cap, Rr2dScheduler::new()))
            })),
        ),
        (
            "speedup-2 fabric [PaBr93]".into(),
            mk(Box::new(move |cap| {
                Box::new(SpeedupSwitch::new(n, 2, cap, cap, 3))
            })),
        ),
        (
            "crosspoint".into(),
            mk(Box::new(move |cap| Box::new(CrosspointSwitch::new(n, cap)))),
        ),
        (
            "output queueing".into(),
            mk(Box::new(move |cap| Box::new(output_queued(n, cap)))),
        ),
        (
            "SHARED buffering (paper)".into(),
            mk(Box::new(move |cap| {
                Box::new(SharedBuffer::switch(n, cap.map(|c| c * n)))
            })),
        ),
        (
            "block-crosspoint g=2".into(),
            mk(Box::new(move |cap| {
                Box::new(BlockCrosspointSwitch::new(n, 2, cap.map(|c| c * n / 4)))
            })),
        ),
        (
            "knockout L=8 [YeHA87]".into(),
            mk(Box::new(move |cap| {
                Box::new(KnockoutSwitch::new(n, 8, cap, 4))
            })),
        ),
        (
            "wide memory [KaSC91]".into(),
            mk(Box::new(move |cap| {
                Box::new(SharedBuffer::switch(n, cap.map(|c| c * n)))
            })),
        ),
        (
            "PRIZMA M=4n [DeEI95]".into(),
            mk(Box::new(move |_| {
                Box::new(SharedBuffer::switch(n, Some(4 * n)))
            })),
        ),
    ]
}

/// Measure one architecture.
pub fn measure(name: &str, factory: &ModelFactory, n: usize, slots: u64) -> E15Row {
    // Work-conserving architectures carry everything up to load 1.0 —
    // there is no saturation point below it to bisect for.
    let hi = 0.995;
    let carried_hi = carried_at_load(|| factory(None), n, hi, slots, 0xE15);
    let saturation = if carried_hi >= hi - 0.02 {
        hi
    } else {
        saturation_search(0.30, hi, 0.02, 0.01, |load| {
            carried_at_load(|| factory(None), n, load, slots, 0xE15)
        })
        .estimate()
    };
    let latency_half = {
        let mut m = factory(None);
        let mut src = Bernoulli::new(n, 0.5, DestDist::uniform(n), 0xE15);
        harness_run(m.as_mut(), &mut src, slots, slots / 5).mean_latency
    };
    let loss_tight = {
        let mut m = factory(Some(4));
        let mut src = Bernoulli::new(n, 0.9, DestDist::uniform(n), 0xE15);
        let s: RunStats = harness_run(m.as_mut(), &mut src, slots, slots / 5);
        s.loss
    };
    E15Row {
        arch: name.to_string(),
        saturation,
        latency_half,
        loss_tight,
    }
}

/// All rows: one parallel sweep point per architecture.
pub fn rows(quick: bool) -> Vec<E15Row> {
    let n = if quick { 8 } else { 16 };
    let slots = if quick { 15_000 } else { 80_000 };
    sweep::map(&zoo(n), |(name, f)| measure(name, f, n, slots))
}

/// Render the report.
pub fn run(quick: bool) -> String {
    let n = if quick { 8 } else { 16 };
    table::render(
        &format!(
            "E15: architecture sweep, {n}x{n}, uniform iid (figs 1-2) — saturation / latency@0.5 / loss@0.9 with ~4 cells/port"
        ),
        &["architecture", "saturation", "latency@0.5", "loss@0.9 tight"],
        rows(quick).iter().map(|r| {
            vec![
                r.arch.clone(),
                table::f3(r.saturation),
                format!("{:.2}", r.latency_half),
                format!("{:.1e}", r.loss_tight),
            ]
        }),
        "\nExpected shape (paper §2): input FIFO ~0.59-0.62; scheduled VOQ, speedup-2,\n\
         crosspoint, output and shared queueing ~1.0. NOTE: the loss column's budget\n\
         is per QUEUE, so total memory differs wildly across architectures (e.g.\n\
         crosspoint holds n^2 queues = 16x the shared pool's total here) — that is\n\
         itself the paper's §2.1 point about crosspoint memory cost. E3 is the\n\
         equal-total comparison, where shared buffering dominates.\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name_frag: &str, rows: &[E15Row]) -> E15Row {
        rows.iter()
            .find(|r| r.arch.contains(name_frag))
            .unwrap_or_else(|| panic!("{name_frag} missing"))
            .clone()
    }

    #[test]
    fn headline_shape_holds() {
        let rows = rows(true);
        let fifo = row("input FIFO", &rows);
        let shared = row("SHARED", &rows);
        let oq = row("output queueing", &rows);
        assert!(
            fifo.saturation < 0.70,
            "input FIFO saturates low: {}",
            fifo.saturation
        );
        assert!(
            shared.saturation > 0.95,
            "shared saturates ~1: {}",
            shared.saturation
        );
        assert!(
            oq.saturation > 0.95,
            "output queueing saturates ~1: {}",
            oq.saturation
        );
        // Best memory utilization: shared loses less than output queueing
        // at the same per-port budget.
        assert!(
            shared.loss_tight <= oq.loss_tight,
            "shared loss {} vs OQ {}",
            shared.loss_tight,
            oq.loss_tight
        );
    }

    #[test]
    fn voq_schedulers_beat_fifo() {
        let rows = rows(true);
        let fifo = row("input FIFO", &rows);
        for sched in ["PIM", "iSLIP", "2DRR"] {
            let v = row(sched, &rows);
            assert!(
                v.saturation > fifo.saturation + 0.1,
                "{sched} ({}) must clearly beat FIFO ({})",
                v.saturation,
                fifo.saturation
            );
        }
    }
}
