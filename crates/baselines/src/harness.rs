//! Run a model × workload pair and measure it.

use crate::model::{ports_in, CellSwitch, Row};
use simkernel::cell::Cell;
use simkernel::ids::Cycle;
use stats::LatencyStats;
use traffic::sources::CellSource;

/// Results of one measured run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Offered load per input per slot (measured, post-warmup).
    pub offered_load: f64,
    /// Carried load per output per slot (utilization).
    pub utilization: f64,
    /// Mean cell latency in slots (arrival slot → departure slot).
    pub mean_latency: f64,
    /// 99th-percentile latency.
    pub p99_latency: Option<u64>,
    /// Loss probability (drops / offered), post-warmup.
    pub loss: f64,
    /// Peak buffer occupancy observed (including warmup).
    pub peak_occupancy: usize,
    /// Occupancy at the end of the run (diagnoses instability).
    pub final_occupancy: usize,
    /// Cells measured for latency.
    pub samples: u64,
}

/// Drive `model` with `source` for `slots` slots (first `warmup` excluded
/// from measurement) and collect statistics.
///
/// Cell ids are assigned here, over each slot's arrival mask in ascending
/// input order; the source only yields destinations.
pub fn run(
    model: &mut dyn CellSwitch,
    source: &mut dyn CellSource,
    slots: Cycle,
    warmup: Cycle,
) -> RunStats {
    let n = model.ports();
    assert_eq!(source.ports(), n, "source/model port mismatch");
    let mut dests = vec![0; n];
    let mut arrivals = Row::new(n);
    let mut out = Row::new(n);
    let mut latency = LatencyStats::new(warmup, 1 << 20);
    // Totals over the measured window (slots from `warmup` on). Drops may
    // surface later than the slot their cells arrived in (e.g. input
    // smoothing drops at frame boundaries), so loss is the window's
    // dropped / offered.
    let (mut measured, mut offered, mut carried, mut dropped) = (0u64, 0u64, 0u64, 0u64);
    let mut next_id = 0u64;
    let mut peak = 0usize;
    let mut drops_before = model.dropped();

    for now in 0..slots {
        arrivals.mask = source.poll(now, &mut dests);
        for i in ports_in(arrivals.mask) {
            next_id += 1;
            arrivals.cells[i] = Cell::new(next_id, i, dests[i], now);
        }
        model.tick(now, &arrivals, &mut out);
        let drops_now = model.dropped();
        if now >= warmup {
            measured += 1;
            offered += u64::from(arrivals.mask.count_ones());
            carried += u64::from(out.mask.count_ones());
            dropped += drops_now - drops_before;
        }
        drops_before = drops_now;
        for (_, c) in out.iter() {
            latency.record(c.birth, now);
        }
        peak = peak.max(model.occupancy());
    }

    let per_port_slot = |cells: u64| {
        if measured == 0 {
            0.0
        } else {
            cells as f64 / (measured * n as u64) as f64
        }
    };
    RunStats {
        offered_load: per_port_slot(offered),
        utilization: per_port_slot(carried),
        mean_latency: latency.mean(),
        p99_latency: latency.percentile(99.0),
        loss: if offered == 0 {
            0.0
        } else {
            dropped as f64 / offered as f64
        },
        peak_occupancy: peak,
        final_occupancy: model.occupancy(),
        samples: latency.count(),
    }
}

/// Measure the carried load of `make_model` under uniform iid traffic at
/// `load`. At load 1 every input is always backlogged, so this is the
/// saturation throughput E1 and E15 report.
pub fn carried_at_load(
    mut make_model: impl FnMut() -> Box<dyn CellSwitch>,
    n: usize,
    load: f64,
    slots: Cycle,
    seed: u64,
) -> f64 {
    let mut model = make_model();
    let mut src = traffic::Bernoulli::new(n, load, traffic::DestDist::uniform(n), seed);
    let stats = run(model.as_mut(), &mut src, slots, slots / 5);
    stats.utilization
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::output_queued;
    use simkernel::SharedBuffer;
    use traffic::{Bernoulli, DestDist};

    #[test]
    fn output_queued_carries_everything_below_one() {
        let n = 8;
        let mut model = output_queued(n, None);
        let mut src = Bernoulli::new(n, 0.9, DestDist::uniform(n), 42);
        let s = run(&mut model, &mut src, 30_000, 5_000);
        assert!(
            (s.offered_load - 0.9).abs() < 0.02,
            "offered {}",
            s.offered_load
        );
        assert!(
            (s.utilization - s.offered_load).abs() < 0.02,
            "OQ must carry ≈ all offered: {} vs {}",
            s.utilization,
            s.offered_load
        );
        assert_eq!(s.loss, 0.0);
        assert!(s.samples > 100_000);
    }

    #[test]
    fn latency_grows_with_load() {
        let n = 8;
        let measure = |load: f64| {
            let mut model = SharedBuffer::switch(n, None);
            let mut src = Bernoulli::new(n, load, DestDist::uniform(n), 7);
            run(&mut model, &mut src, 20_000, 4_000).mean_latency
        };
        let l3 = measure(0.3);
        let l9 = measure(0.9);
        assert!(l9 > l3 + 1.0, "latency must grow with load: {l3} vs {l9}");
    }

    #[test]
    fn carried_at_load_monotone_until_saturation() {
        let c1 = carried_at_load(
            || Box::new(crate::input_fifo::InputFifoSwitch::new(8, None, 1)),
            8,
            0.3,
            20_000,
            1,
        );
        let c2 = carried_at_load(
            || Box::new(crate::input_fifo::InputFifoSwitch::new(8, None, 1)),
            8,
            0.9,
            20_000,
            1,
        );
        assert!((c1 - 0.3).abs() < 0.02, "below saturation all carried");
        assert!(c2 < 0.75, "input FIFO cannot carry 0.9 (HOL): {c2}");
    }
}
