//! E9 — Telegraphos II floorplan accounting (§4.2, fig. 6).

use crate::table;
use vlsimodel::floorplan::telegraphos_ii_floorplan;

/// Render the report.
pub fn run(_quick: bool) -> String {
    let fp = telegraphos_ii_floorplan();
    table::render(
        "E9: Telegraphos II shared-buffer floorplan, 0.7um std-cell (paper §4.2 fig 6; chip 8.5x8.5 mm2)",
        &["block", "model mm2", "paper mm2"],
        [
            ("8 SRAM megacells (256x16)", fp.sram_mm2, "11"),
            ("peripheral datapath", fp.peripheral_mm2, "15"),
            ("memory-bus routing", fp.routing_mm2, "5.5"),
            ("TOTAL shared buffer", fp.total_mm2(), "32"),
        ]
        .map(|(block, model, paper)| vec![block.into(), format!("{model:.1}"), paper.into()]),
        "\nModel constants are calibrated to the compiled-SRAM macro (1.5x0.9 mm2)\nand the reported peripheral/routing areas; see vlsimodel::tech docs.\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_match_paper() {
        let fp = telegraphos_ii_floorplan();
        assert!((fp.total_mm2() - 32.0).abs() < 2.5);
    }
}
