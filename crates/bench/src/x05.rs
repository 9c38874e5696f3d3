//! X5 (extension) — switches as building blocks for multistage fabrics.
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
//! elements, link latency 1); the original scalar `OmegaNetwork` model
//! survives as its differential oracle — [`measure_legacy`] drives the
//! identical offered schedule through it, and a test pins every grid
//! row byte-identical between the two before the registry trusts the
//! fabric path.

use crate::{sweep, table};
use fabric::{topo, ElementKind, Fabric};
use netsim::multistage::OmegaNetwork;
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

/// Post-injection drain ticks (kept from the original model so the
/// fabric path reproduces its rows bit for bit: the legacy driver's last
/// tick is `slots + 199`, so cells leaving the final stage later than
/// `slots + 198` were never counted — the fabric run stops at the same
/// horizon).
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
    // One generator shared across terminals, exactly the legacy driver's
    // draw order: per slot, terminal-ascending (injection gate, then
    // destination).
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

/// The original scalar-`OmegaNetwork` measurement — the differential
/// oracle [`measure`] is pinned against.
pub fn measure_legacy(
    k: usize,
    stages: usize,
    element_pool: Option<usize>,
    load: f64,
    slots: u64,
    seed: u64,
) -> X5Row {
    let mut net = OmegaNetwork::new(k, stages, element_pool);
    let n = net.terminals();
    let mut rng = SplitMix64::new(seed);
    let mut offered = 0u64;
    let mut id = 0u64;
    let mut arr: Vec<Option<Cell>> = vec![None; n];
    for now in 0..slots {
        for (t, a) in arr.iter_mut().enumerate() {
            *a = rng.chance(load).then(|| {
                offered += 1;
                id += 1;
                Cell::new(id, t, rng.below_usize(n), now)
            });
        }
        net.tick(now, &arr);
    }
    let idle = vec![None; n];
    for now in slots..slots + DRAIN {
        net.tick(now, &idle);
    }
    let delivered = net.delivered().len() as u64;
    X5Row {
        k,
        element_pool,
        offered: offered as f64 / (slots * n as u64) as f64,
        carried: delivered as f64 / (slots * n as u64) as f64,
        latency: net.mean_latency(),
        loss: net.dropped() as f64 / offered.max(1) as f64,
    }
}

/// The (element, pool, load) grid behind the report table.
fn grid() -> Vec<(usize, usize, Option<usize>, f64)> {
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

    /// The registry-switch gate: every grid row from the fabric runtime
    /// must be byte-identical (every f64 bit) to the legacy scalar
    /// `OmegaNetwork` path under the identical offered schedule.
    #[test]
    fn fabric_rows_byte_identical_to_legacy() {
        for &(k, stages, pool, load) in &grid() {
            let f = measure(k, stages, pool, load, 4_000, 0x55);
            let l = measure_legacy(k, stages, pool, load, 4_000, 0x55);
            assert!(
                f == l
                    && f.offered.to_bits() == l.offered.to_bits()
                    && f.carried.to_bits() == l.carried.to_bits()
                    && f.latency.to_bits() == l.latency.to_bits()
                    && f.loss.to_bits() == l.loss.to_bits(),
                "fabric diverged from the scalar oracle at \
                 k={k} stages={stages} pool={pool:?} load={load}:\n  fabric {f:?}\n  legacy {l:?}"
            );
        }
    }
}
