//! E12 — input vs shared buffering silicon (§5.1, fig. 9).
//!
//! Both designs have total buffer width `2nw`; the shared buffer needs
//! two crossbar-sized datapath blocks where input buffering needs one
//! crossbar plus a comparable scheduler; so the comparison reduces to the
//! buffer heights needed for equal performance, `H_s < H_i`. We obtain
//! the heights from the E3-style loss-equalization simulation and feed
//! them into the fig. 9 area model.

use crate::{sweep, table};
use baselines::sched::IslipScheduler;
use baselines::voq::VoqSwitch;
use simkernel::SharedBuffer;
use vlsimodel::floorplan::Fig9Comparison;

/// Buffer cells per port needed for loss ≤ target at the given load,
/// for the shared buffer and for (non-FIFO, VOQ) input buffering. The
/// two bisections are independent — one sweep point each.
pub fn heights(n: usize, load: f64, target: f64, slots: u64, seed: u64) -> (u64, u64) {
    let sizes = sweep::map(&[false, true], |&voq| {
        if voq {
            crate::e03::size_for_loss(
                |b| Box::new(VoqSwitch::new(n, Some(b), IslipScheduler::new(n, 4))),
                n,
                load,
                target,
                1,
                256,
                slots,
                seed,
            )
            .0
        } else {
            crate::e03::size_for_loss(
                |b| Box::new(SharedBuffer::switch(n, Some(b))),
                n,
                load,
                target,
                4,
                1024,
                slots,
                seed,
            )
            .0
        }
    });
    let (shared_total, per_input) = (sizes[0], sizes[1]);
    // Heights in cells per port: shared spread over 2n ports of width w…
    // fig. 9 measures height over the common 2nw width, so per-port
    // height = total / n for both sides.
    ((per_input) as u64, (shared_total / n).max(1) as u64)
}

/// Render the report.
pub fn run(quick: bool) -> String {
    let n = 16;
    let (target, slots) = if quick {
        (1e-2, 50_000)
    } else {
        (1e-3, 400_000)
    };
    let (h_i, h_s) = heights(n, 0.8, target, slots, 0xE12);
    let cmp = Fig9Comparison::new(n, 16, h_i, h_s);
    table::render(
        &format!(
            "E12: input vs shared buffering silicon at equal loss ({target:.0e} @ 16x16, load 0.8) — paper §5.1 fig 9"
        ),
        &["quantity", "input buffering", "shared buffering"],
        [
            (
                "buffer width (cells)",
                cmp.buffer_width_cells.to_string(),
                cmp.buffer_width_cells.to_string(),
            ),
            ("height H (cells)", h_i.to_string(), h_s.to_string()),
            (
                "storage area (cell units)",
                cmp.buffer_area_input().to_string(),
                cmp.buffer_area_shared().to_string(),
            ),
            (
                "crossbar-size blocks",
                format!("{} (xbar + scheduler)", cmp.blocks_input),
                format!("{} (in + out datapath)", cmp.blocks_shared),
            ),
            (
                "total area (cell units)",
                format!("{:.0}", cmp.total_area(false, 0.5)),
                format!("{:.0}", cmp.total_area(true, 0.5)),
            ),
        ]
        .map(|(quantity, input, shared)| vec![quantity.into(), input, shared]),
        "\nPaper: 'the single crossbar and the scheduler of the input buffers occupy\n\
         comparable area with the two crossbars of the shared buffer, while H_s < H_i\n\
         for similar performance. Thus shared buffering has better cost-performance.'\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_needs_less_height() {
        let (h_i, h_s) = heights(16, 0.8, 1e-2, 40_000, 3);
        assert!(
            h_s < h_i,
            "H_s ({h_s}) must be below H_i ({h_i}) for equal loss"
        );
    }

    #[test]
    fn shared_total_area_wins() {
        let (h_i, h_s) = heights(16, 0.8, 1e-2, 40_000, 3);
        let cmp = Fig9Comparison::new(16, 16, h_i, h_s);
        assert!(cmp.total_area(true, 0.5) < cmp.total_area(false, 0.5));
    }
}
