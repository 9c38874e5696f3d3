//! E3 — buffer sizing for equal loss (§2.2, \[HlKa88\]).
//!
//! "According to \[HlKa88\], a 16×16 switch with incoming link load of 0.8
//! (uniformly distributed destinations) needs the following buffer sizes
//! in order to achieve packet loss probability of 0.001: (i) 86 packets
//! under shared buffering (5.4 per output); (ii) 178 packets under output
//! queueing (11.1 per output); and (iii) 1300 packets under input
//! smoothing (80 per input)."
//!
//! We binary-search the smallest buffer size achieving the target loss
//! for each architecture under the same workload.

use crate::{sweep, table};
use baselines::harness::run as harness_run;
use baselines::input_smoothing::InputSmoothingSwitch;
use baselines::model::CellSwitch;
use baselines::shared::output_queued;
use simkernel::SharedBuffer;
use traffic::{Bernoulli, DestDist};

/// One architecture's sizing result.
#[derive(Debug, Clone)]
pub struct E3Row {
    /// Architecture name.
    pub arch: &'static str,
    /// Smallest total buffer (cells) with loss ≤ target.
    pub total_buffer: usize,
    /// Paper's \[HlKa88\] value.
    pub paper: usize,
    /// Loss measured at that size.
    pub loss_at_size: f64,
}

fn loss_of(mut model: Box<dyn CellSwitch>, n: usize, load: f64, slots: u64, seed: u64) -> f64 {
    let mut src = Bernoulli::new(n, load, DestDist::uniform(n), seed);
    let stats = harness_run(model.as_mut(), &mut src, slots, slots / 10);
    stats.loss
}

/// Binary-search the smallest `size ∈ [lo, hi]` whose loss ≤ target.
/// `make` builds the model for a candidate size parameter.
#[allow(clippy::too_many_arguments)] // experiment parameters are explicit by design
pub fn size_for_loss(
    mut make: impl FnMut(usize) -> Box<dyn CellSwitch>,
    n: usize,
    load: f64,
    target: f64,
    mut lo: usize,
    mut hi: usize,
    slots: u64,
    seed: u64,
) -> (usize, f64) {
    assert!(
        loss_of(make(hi), n, load, slots, seed) <= target,
        "upper bracket {hi} still lossy"
    );
    let mut best_loss = f64::NAN;
    while lo < hi {
        let mid = (lo + hi) / 2;
        let l = loss_of(make(mid), n, load, slots, seed);
        if l <= target {
            hi = mid;
            best_loss = l;
        } else {
            lo = mid + 1;
        }
    }
    if best_loss.is_nan() {
        best_loss = loss_of(make(hi), n, load, slots, seed);
    }
    (hi, best_loss)
}

/// Run all three sizings.
pub fn rows(quick: bool) -> Vec<E3Row> {
    let n = 16;
    let load = 0.8;
    // The full 10^-3 target needs long runs to resolve; quick mode uses
    // 10^-2 (the ordering and rough ratios already show at that target).
    let (target, slots) = if quick {
        (1e-2, 60_000)
    } else {
        (1e-3, 600_000)
    };
    let seed = 0xE3;

    // Per architecture: label, [HlKa88]'s buffer, the search bracket of
    // its size parameter, cells per unit of that parameter, and the model
    // at a candidate size.
    type Arch = (
        &'static str,
        usize,
        (usize, usize),
        usize,
        fn(usize, usize, u64) -> Box<dyn CellSwitch>,
    );
    let archs: [Arch; 3] = [
        ("shared buffering", 86, (8, 512), 1, |n, b, _| {
            Box::new(SharedBuffer::switch(n, Some(b)))
        }),
        ("output queueing", 178, (1, 128), n, |n, b, _| {
            Box::new(output_queued(n, Some(b)))
        }),
        ("input smoothing", 1300, (2, 256), n, |n, b, seed| {
            Box::new(InputSmoothingSwitch::new(n, b, seed))
        }),
    ];
    // Each architecture's whole bisection is one (coarse) sweep point:
    // the three searches are independent and run in parallel.
    sweep::map(&archs, |&(arch, paper, (lo, hi), unit, build)| {
        let (size, loss) =
            size_for_loss(|b| build(n, b, seed), n, load, target, lo, hi, slots, seed);
        E3Row {
            arch,
            total_buffer: size * unit,
            paper,
            loss_at_size: loss,
        }
    })
}

/// Render the report.
pub fn run(quick: bool) -> String {
    let target = if quick { "1e-2 (quick)" } else { "1e-3" };
    table::render(
        &format!(
            "E3: total buffer (cells) for loss <= {target} @ 16x16, load 0.8, uniform iid (paper §2.2 / [HlKa88])"
        ),
        &["architecture", "buffer", "paper(1e-3)", "loss@size"],
        rows(quick).iter().map(|r| {
            vec![
                r.arch.to_string(),
                r.total_buffer.to_string(),
                r.paper.to_string(),
                format!("{:.1e}", r.loss_at_size),
            ]
        }),
        "\nThe ordering shared << output-queued << input-smoothing, and the\n\
         roughly 2x / 15x blowups, are the paper's argument for shared buffering.\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_ratios_hold_quick() {
        let r = rows(true);
        let shared = r[0].total_buffer;
        let output = r[1].total_buffer;
        let smoothing = r[2].total_buffer;
        assert!(
            shared < output,
            "shared ({shared}) must need less than output queueing ({output})"
        );
        assert!(
            output < smoothing,
            "output queueing ({output}) must need less than input smoothing ({smoothing})"
        );
        assert!(
            smoothing as f64 / shared as f64 > 4.0,
            "smoothing blowup too small: {smoothing}/{shared}"
        );
    }

    #[test]
    fn size_search_is_minimal() {
        // Verify minimality: one size smaller must violate the target.
        let n = 16;
        let (size, _) = size_for_loss(
            |b| Box::new(SharedBuffer::switch(n, Some(b))),
            n,
            0.8,
            1e-2,
            8,
            512,
            40_000,
            7,
        );
        let smaller = loss_of(
            Box::new(SharedBuffer::switch(n, Some(size - 1))),
            n,
            0.8,
            40_000,
            7,
        );
        assert!(smaller > 1e-2, "size {size} not minimal (loss {smaller})");
    }
}
