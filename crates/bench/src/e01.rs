//! E1 — input FIFO queueing saturation (§2.1, \[KaHM87\]).
//!
//! "A switch with equal input and output throughput, with fixed (small)
//! packet size, and with independent, randomly destined packet traffic,
//! saturates at about 60 % of the link capacity" — precisely `2 − √2 ≈
//! 0.586` as `n → ∞` \[KaHM87\]. The known finite-`n` values (Karol et
//! al., Table I) are: n=2: 0.7500, n=4: 0.6553, n=8: 0.6184, n=16:
//! 0.6013, n=32: 0.5930, n→∞: 0.5858.
//!
//! Karol's saturation throughput is the throughput when every input is
//! always backlogged, so one run at offered load 1 measures it directly:
//! each size reports the mean carried load over four seeds and their
//! min–max.

use crate::{sweep, table};
use baselines::harness::carried_at_load;
use baselines::input_fifo::InputFifoSwitch;

/// One row of the saturation table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E1Row {
    /// Switch size.
    pub n: usize,
    /// Saturation throughput, mean over the seeds (fraction of link
    /// capacity).
    pub measured: f64,
    /// Lowest and highest per-seed reading.
    pub range: (f64, f64),
    /// \[KaHM87\] analytical value.
    pub theory: f64,
}

/// Known analytical saturation throughputs from \[KaHM87\].
pub fn karol_table(n: usize) -> f64 {
    match n {
        1 => 1.0,
        2 => 0.7500,
        3 => 0.6825,
        4 => 0.6553,
        5 => 0.6399,
        6 => 0.6302,
        7 => 0.6234,
        8 => 0.6184,
        16 => 0.6013,
        32 => 0.5930,
        _ => 2.0 - std::f64::consts::SQRT_2, // 0.5858 asymptote
    }
}

/// Carried load of an unbounded `n×n` input-FIFO switch at offered load 1.
pub fn measure(n: usize, slots: u64, seed: u64) -> f64 {
    carried_at_load(
        || Box::new(InputFifoSwitch::new(n, None, seed)),
        n,
        1.0,
        slots,
        seed,
    )
}

/// Run the experiment. Each switch size is one sweep point (all its
/// seeds), executed through the parallel engine.
pub fn rows(quick: bool) -> Vec<E1Row> {
    let (sizes, slots): (&[usize], u64) = if quick {
        (&[4, 8], 15_000)
    } else {
        (&[2, 4, 8, 16, 32], 60_000)
    };
    sweep::map(sizes, |&n| {
        let mut runs: Vec<f64> = (0xE1..=0xE4).map(|seed| measure(n, slots, seed)).collect();
        runs.sort_by(f64::total_cmp);
        E1Row {
            n,
            measured: runs.iter().sum::<f64>() / runs.len() as f64,
            range: (runs[0], runs[runs.len() - 1]),
            theory: karol_table(n),
        }
    })
}

/// Render the report.
pub fn run(quick: bool) -> String {
    table::render(
        "E1: input FIFO queueing saturation vs [KaHM87] (paper §2.1: \"saturates at about 60%\", asymptote 0.586)",
        &["n", "measured", "seed range", "theory", "err"],
        rows(quick).iter().map(|r| {
            vec![
                r.n.to_string(),
                format!("{:.4}", r.measured),
                format!("{:.4}-{:.4}", r.range.0, r.range.1),
                format!("{:.4}", r.theory),
                format!("{:+.1}%", 100.0 * (r.measured - r.theory) / r.theory),
            ]
        }),
        "\nmeasured = carried load at offered load 1 (every input backlogged), mean over\n\
         seeds 0xE1-0xE4. HOL blocking: it must fall toward 2-sqrt(2)=0.586 as n grows.\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_matches_karol(rows: &[E1Row]) {
        for r in rows {
            assert!(
                (r.measured - r.theory).abs() <= 0.005,
                "n={}: measured {} vs theory {}",
                r.n,
                r.measured,
                r.theory
            );
            assert!(r.range.0 <= r.measured && r.measured <= r.range.1);
        }
    }

    #[test]
    fn quick_run_matches_karol_within_tolerance() {
        assert_matches_karol(&rows(true));
    }

    /// Every size of the full run, n = 2 … 32 at 60 000 slots; about a
    /// second in release, so it is left to `--ignored`.
    #[test]
    #[ignore]
    fn full_depth_matches_karol() {
        let rows = rows(false);
        assert_eq!(rows.len(), 5);
        assert_matches_karol(&rows);
    }

    #[test]
    fn karol_values_decrease_toward_asymptote() {
        let mut prev = karol_table(1);
        for n in [2, 4, 8, 16, 32, 1000] {
            let v = karol_table(n);
            assert!(v < prev);
            prev = v;
        }
        assert!((karol_table(usize::MAX) - 0.5858).abs() < 1e-3);
    }
}
