//! E6 — staggered-initiation latency (§3.4).
//!
//! The pipelined buffer admits one wave initiation per cycle, so packet
//! heads arriving in the same cycle are served staggered. The paper's
//! analysis: the expected cut-through latency increase is
//! `(p/4)·(n−1)/n` clock cycles at link load `p` — "for 40 % load, this
//! amounts to one tenth of a clock cycle, i.e. negligible". We measure
//! the mean head latency of the behavioral switch over a load sweep and
//! compare the excess over the uncontended minimum (2 cycles) with the
//! formula.

use crate::{sweep, table};
use simkernel::cell::header_chance;
use simkernel::{advance_to_batched, SplitMix64};
use switch_core::behavioral::BehavioralSwitch;
use switch_core::config::SwitchConfig;

/// One (n, p) measurement.
#[derive(Debug, Clone, Copy)]
pub struct E6Row {
    /// Switch size.
    pub n: usize,
    /// Link load.
    pub load: f64,
    /// Measured mean extra cut-through latency (cycles beyond 2).
    pub measured_extra: f64,
    /// Paper's formula `(p/4)·(n−1)/n`.
    pub formula: f64,
}

/// Paper formula.
pub fn formula(p: f64, n: usize) -> f64 {
    (p / 4.0) * (n as f64 - 1.0) / n as f64
}

/// The arrival schedule at load `p`: each input is a renewal process —
/// free for a geometric number of cycles (the same per-idle-cycle start
/// probability `q` a dense Bernoulli drive loop would use), then busy
/// for the `s`-cycle packet. Sampling the gaps directly costs
/// O(packets), not O(cycles × n); each input draws from its own
/// seed-split stream, so the schedule is independent of input order.
/// Returns (cycle, input, destination) sorted by (cycle, input).
fn arrival_schedule(
    n: usize,
    s: usize,
    p: f64,
    cycles: u64,
    seed: u64,
) -> Vec<(u64, usize, usize)> {
    let q = header_chance(p, s);
    let mut sched = Vec::new();
    for i in 0..n {
        let mut rng = SplitMix64::stream(seed, i as u64);
        let mut t = 0u64;
        loop {
            t += rng.geometric(q);
            if t >= cycles {
                break;
            }
            sched.push((t, i, rng.below_usize(n)));
            t += s as u64;
        }
    }
    sched.sort_unstable_by_key(|&(t, i, _)| (t, i));
    sched
}

/// The §3.4 statistic: mean extra head latency of packets that found
/// their output idle, over departures past warmup.
fn extra_latency(sw: &BehavioralSwitch, cycles: u64, n: usize, p: f64) -> f64 {
    let warmup = cycles / 5;
    let (mut sum, mut count) = (0.0, 0u64);
    // §3.4 analyzes the cut-through latency of packets that would have
    // departed immediately (output idle at arrival): any excess over the
    // uncontended 2 cycles is staggered-initiation delay, not ordinary
    // output queueing. Restrict the sample accordingly.
    for d in sw.departures() {
        if d.birth >= warmup && d.output_was_idle {
            sum += d.head_latency() as f64 - 2.0;
            count += 1;
        }
    }
    assert!(count > 100, "not enough samples at n={n} p={p}");
    sum / count as f64
}

/// Measure the mean extra head latency at (n, p).
///
/// Event-driven: the arrival schedule is sampled directly (geometric
/// free gaps, O(packets)), then the model replays it with the
/// event-horizon kernel fast-forwarding the arrival-free spans.
/// Departure streams are bit-identical to a dense per-cycle replay of
/// the same schedule ([`measure_dense`]); only wall time changes (most
/// dramatic at low load, where most cycles are idle).
pub fn measure(n: usize, p: f64, cycles: u64, seed: u64) -> f64 {
    let cfg = SwitchConfig::symmetric(n, 4 * n.max(8));
    let s = cfg.stages();
    let schedule = arrival_schedule(n, s, p, cycles, seed);
    let mut sw = BehavioralSwitch::new(cfg);
    let mut arr = vec![None; n];
    let mut k = 0;
    while k < schedule.len() {
        let t = schedule[k].0;
        advance_to_batched(&mut sw, t);
        arr.fill(None);
        while k < schedule.len() && schedule[k].0 == t {
            arr[schedule[k].1] = Some(schedule[k].2);
            k += 1;
        }
        sw.tick(&arr);
    }
    advance_to_batched(&mut sw, cycles);
    extra_latency(&sw, cycles, n, p)
}

/// Dense-stepping oracle for [`measure`]: replays the *same* arrival
/// schedule one `tick` per word clock. The unit test below asserts the
/// two produce bit-identical statistics — the fast path may change wall
/// time only, never a departure cycle.
pub fn measure_dense(n: usize, p: f64, cycles: u64, seed: u64) -> f64 {
    let cfg = SwitchConfig::symmetric(n, 4 * n.max(8));
    let s = cfg.stages();
    let schedule = arrival_schedule(n, s, p, cycles, seed);
    let mut sw = BehavioralSwitch::new(cfg);
    let mut arr = vec![None; n];
    let mut k = 0;
    for t in 0..cycles {
        arr.fill(None);
        while k < schedule.len() && schedule[k].0 == t {
            arr[schedule[k].1] = Some(schedule[k].2);
            k += 1;
        }
        sw.tick(&arr);
    }
    extra_latency(&sw, cycles, n, p)
}

/// Sweep the `sizes × loads` grid, one parallel point per (n, p).
pub fn rows(quick: bool) -> Vec<E6Row> {
    let cycles = if quick { 80_000 } else { 400_000 };
    let sizes: &[usize] = if quick { &[4, 8] } else { &[2, 4, 8, 16] };
    let mut points = Vec::new();
    for &n in sizes {
        for &p in &[0.1, 0.2, 0.4] {
            points.push((n, p));
        }
    }
    sweep::map(&points, |&(n, p)| E6Row {
        n,
        load: p,
        measured_extra: measure(n, p, cycles, 0xE6),
        formula: formula(p, n),
    })
}

/// Render the report.
pub fn run(quick: bool) -> String {
    table::render(
        "E6: staggered-initiation cut-through latency increase, measured vs (p/4)(n-1)/n (paper §3.4)",
        &["n", "load", "measured", "formula"],
        rows(quick).iter().map(|r| {
            vec![
                r.n.to_string(),
                format!("{:.1}", r.load),
                format!("{:.4}", r.measured_extra),
                format!("{:.4}", r.formula),
            ]
        }),
        "\nAt 40% load the increase is about a tenth of a cycle — the paper's\n\
         'negligible'. (Measured values include second-order queueing effects the\n\
         first-order formula ignores, so they sit slightly above it at higher load.)\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_forward_replay_matches_dense_replay() {
        // The fast-forwarding `measure` must be *bit*-identical to a
        // dense per-cycle replay of the same arrival schedule: same
        // departure stream, same float accumulation.
        let (n, p, cycles, seed) = (4usize, 0.15f64, 30_000u64, 0xD5u64);
        let dense = measure_dense(n, p, cycles, seed);
        let fast = measure(n, p, cycles, seed);
        assert_eq!(
            dense.to_bits(),
            fast.to_bits(),
            "dense {dense} vs fast-forward {fast}"
        );
    }

    #[test]
    fn formula_values() {
        assert!((formula(0.4, 1000) - 0.0999).abs() < 1e-3, "≈0.1 @ 40%");
        assert_eq!(formula(0.4, 1), 0.0, "no conflicts with one input");
    }

    #[test]
    fn measured_tracks_formula_at_light_load() {
        let m = measure(8, 0.2, 60_000, 3);
        let f = formula(0.2, 8);
        // First-order agreement: within 0.06 cycles absolute.
        assert!(
            (m - f).abs() < 0.06,
            "measured {m} vs formula {f} at n=8 p=0.2"
        );
    }

    #[test]
    fn formula_holds_across_the_size_grid() {
        // §3.4 coverage grid: the measured staggered-initiation penalty
        // must match `(p/4)(n-1)/n` across switch sizes, not just at the
        // single point the light-load test pins. At 20% load the
        // first-order formula is tight; at 40% second-order queueing
        // (which the formula ignores) pushes the measurement above it,
        // so that bound is one-sided plus slack.
        for &n in &[4usize, 8, 16] {
            let m = measure(n, 0.2, 60_000, 0x34 + n as u64);
            let f = formula(0.2, n);
            assert!(
                (m - f).abs() < 0.08,
                "n={n} p=0.2: measured {m} vs formula {f}"
            );
            let m4 = measure(n, 0.4, 60_000, 0x34 + n as u64);
            let f4 = formula(0.4, n);
            assert!(
                m4 > f4 - 0.05 && m4 < f4 + 0.3,
                "n={n} p=0.4: measured {m4} vs formula {f4}"
            );
        }
    }

    #[test]
    fn extra_latency_grows_with_load() {
        let lo = measure(8, 0.1, 60_000, 4);
        let hi = measure(8, 0.4, 60_000, 4);
        assert!(
            hi > lo,
            "staggering delay must grow with load: {lo} vs {hi}"
        );
    }

    #[test]
    fn negligible_at_forty_percent() {
        // The paper's headline: ~0.1 cycles at 40% load.
        let m = measure(16, 0.4, 60_000, 5);
        assert!(m < 0.35, "must be a fraction of a cycle, got {m}");
    }
}
