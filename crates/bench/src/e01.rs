//! E1 — input FIFO queueing saturation (§2.1, \[KaHM87\]).
//!
//! "A switch with equal input and output throughput, with fixed (small)
//! packet size, and with independent, randomly destined packet traffic,
//! saturates at about 60 % of the link capacity" — precisely `2 − √2 ≈
//! 0.586` as `n → ∞` \[KaHM87\]. The known finite-`n` values (Karol et
//! al., Table I) are: n=2: 0.7500, n=4: 0.6553, n=8: 0.6184, n=16:
//! 0.6013, n=32: 0.5930, n→∞: 0.5858.

use crate::{sweep, table};
use baselines::harness::carried_at_load;
use baselines::input_fifo::InputFifoSwitch;
use stats::saturation_search;

/// One row of the saturation table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E1Row {
    /// Switch size.
    pub n: usize,
    /// Measured saturation throughput (fraction of link capacity).
    pub measured: f64,
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

/// Measure the saturation load of an `n×n` input-FIFO switch.
pub fn measure(n: usize, slots: u64, seed: u64) -> f64 {
    saturation_search(0.30, 0.99, 0.02, 0.005, |load| {
        carried_at_load(
            || Box::new(InputFifoSwitch::new(n, None, seed)),
            n,
            load,
            slots,
            seed,
        )
    })
    .estimate()
}

/// Run the experiment. Each switch size is one sweep point (a whole
/// saturation bisection), executed through the parallel engine.
pub fn rows(quick: bool) -> Vec<E1Row> {
    let (sizes, slots): (&[usize], u64) = if quick {
        (&[4, 8], 15_000)
    } else {
        (&[2, 4, 8, 16, 32], 60_000)
    };
    sweep::map(sizes, |&n| E1Row {
        n,
        measured: measure(n, slots, 0xE1),
        theory: karol_table(n),
    })
}

/// Render the report.
pub fn run(quick: bool) -> String {
    table::render(
        "E1: input FIFO queueing saturation vs [KaHM87] (paper §2.1: \"saturates at about 60%\", asymptote 0.586)",
        &["n", "measured", "theory", "err"],
        rows(quick).iter().map(|r| {
            vec![
                r.n.to_string(),
                table::f3(r.measured),
                table::f3(r.theory),
                format!("{:+.1}%", 100.0 * (r.measured - r.theory) / r.theory),
            ]
        }),
        "\nHOL blocking: the measured saturation must fall toward 2-sqrt(2)=0.586 as n grows.\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_matches_karol_within_tolerance() {
        for r in rows(true) {
            let err = (r.measured - r.theory).abs() / r.theory;
            assert!(
                err < 0.05,
                "n={}: measured {} vs theory {}",
                r.n,
                r.measured,
                r.theory
            );
        }
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
