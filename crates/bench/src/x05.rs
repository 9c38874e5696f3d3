//! X5 (extension) — switches as building blocks for multi-stage fabrics.
//!
//! The paper's opening sentence: switches "are used to build
//! interconnection networks for large-scale parallel computers \[and\]
//! gigabit local area networks". This experiment composes shared-buffer
//! elements into omega networks (64 terminals = 6 stages of 2×2, or 3
//! stages of 4×4) and measures delivered throughput and latency vs
//! offered load — including the effect of element buffer depth, the
//! fabric-level echo of the paper's buffer-sizing argument.
//!
//! The measurement runs on the `fabric` component-graph runtime (scalar
//! elements, link latency 1). `tests/golden/x05_rows.txt` pins every
//! field of the grid rows at 4 000 slots.

use crate::{sweep, table};
use fabric::{topo, ElementKind, Fabric};
use simkernel::cell::Cell;
use simkernel::SplitMix64;

/// One operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct X5Row {
    /// Element radix k (fabric is k^stages terminals).
    pub k: usize,
    /// Per-element pool capacity (`None` = unbounded).
    pub element_pool: Option<usize>,
    /// Offered load per terminal.
    pub offered: f64,
    /// Carried load per terminal.
    pub carried: f64,
    /// Mean end-to-end latency (slots).
    pub latency: f64,
    /// Loss fraction.
    pub loss: f64,
}

/// Post-injection drain: the run covers `slots + DRAIN - 1` windows, so
/// only cells delivered by cycle `slots + DRAIN - 1` count as carried.
const DRAIN: u64 = 200;

/// Drive one fabric at one load on the component-graph runtime.
pub fn measure(
    k: usize,
    stages: usize,
    element_pool: Option<usize>,
    load: f64,
    slots: u64,
    seed: u64,
) -> X5Row {
    let mut fab = Fabric::new(
        topo::omega(k, stages),
        ElementKind::Scalar {
            capacity: element_pool,
        },
    );
    let n = fab.topology().endpoints;
    // One generator shared across terminals, drawn per slot in
    // terminal-ascending order (injection gate, then destination).
    let mut rng = SplitMix64::new(seed);
    let mut offered = 0u64;
    let mut id = 0u64;
    let run = fab.run_with(slots + DRAIN - 1, |from, _to, inj| {
        if from < slots {
            for t in 0..n {
                if rng.chance(load) {
                    offered += 1;
                    id += 1;
                    inj.push((t, from, Cell::new(id, t, rng.below_usize(n), from)));
                }
            }
        }
    });
    debug_assert_eq!(run.offered, offered);
    X5Row {
        k,
        element_pool,
        offered: offered as f64 / (slots * n as u64) as f64,
        carried: run.delivered_total() as f64 / (slots * n as u64) as f64,
        latency: run.mean_latency(),
        loss: run.dropped as f64 / offered.max(1) as f64,
    }
}

/// The (element, stages, pool, load) grid behind the report table.
pub fn grid() -> Vec<(usize, usize, Option<usize>, f64)> {
    let mut points = Vec::new();
    for &(k, stages) in &[(2usize, 6usize), (4, 3)] {
        for &pool in &[Some(4usize), None] {
            for &load in &[0.3, 0.6, 0.9] {
                points.push((k, stages, pool, load));
            }
        }
    }
    points
}

/// Sweep loads for 64-terminal fabrics of 2×2 and 4×4 elements: the
/// (element, pool, load) grid runs through the parallel engine.
pub fn rows(quick: bool) -> Vec<X5Row> {
    let slots = if quick { 10_000 } else { 60_000 };
    sweep::map(&grid(), |&(k, stages, pool, load)| {
        measure(k, stages, pool, load, slots, 0x55)
    })
}

/// Render the report.
pub fn run(quick: bool) -> String {
    table::render(
        "X5 (extension): 64-terminal omega fabrics of shared-buffer elements (paper intro: switches as building blocks)",
        &["element", "pool", "offered", "carried", "latency", "loss"],
        rows(quick).iter().map(|r| {
            vec![
                format!("{0}x{0}", r.k),
                match r.element_pool {
                    Some(p) => p.to_string(),
                    None => "inf".into(),
                },
                format!("{:.2}", r.offered),
                format!("{:.3}", r.carried),
                format!("{:.1}", r.latency),
                format!("{:.1e}", r.loss),
            ]
        }),
        "\nLarger (4x4) elements need fewer stages -> lower latency at the same\n\
         terminal count; tiny per-element pools lose cells under internal\n\
         contention exactly as the single-switch sizing experiments (E3) predict.\n\
         Uniform traffic through an omega network concentrates internally, so\n\
         per-element buffering is what makes the composition work — the paper's\n\
         buffered-building-block thesis at fabric scale.\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_load_all_carried() {
        let r = measure(2, 6, None, 0.3, 8_000, 1);
        assert!(
            (r.carried - r.offered).abs() / r.offered < 0.05,
            "unbounded fabric must carry light load: {r:?}"
        );
        assert_eq!(r.loss, 0.0);
    }

    #[test]
    fn fewer_stages_less_latency() {
        let deep = measure(2, 6, None, 0.3, 8_000, 2);
        let shallow = measure(4, 3, None, 0.3, 8_000, 2);
        assert!(
            shallow.latency < deep.latency,
            "3-stage fabric ({}) must beat 6-stage ({})",
            shallow.latency,
            deep.latency
        );
    }

    #[test]
    fn tiny_pools_lose_under_pressure() {
        let tight = measure(2, 6, Some(1), 0.9, 8_000, 3);
        let roomy = measure(2, 6, Some(16), 0.9, 8_000, 3);
        assert!(
            tight.loss > roomy.loss,
            "1-cell elements ({}) must lose more than 16-cell ({})",
            tight.loss,
            roomy.loss
        );
    }
}
