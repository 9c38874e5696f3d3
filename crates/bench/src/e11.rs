//! E11 — Telegraphos III headline numbers (§4.4, fig. 8): 16 Gb/s,
//! 64 Kbit full-custom pipelined buffer, plus the full-custom vs
//! standard-cell "factor of 22".

use crate::e08::functional_run;
use crate::table;
use vlsimodel::periph::{peripheral_area_mm2, Organization};
use vlsimodel::tech::Technology;
use vlsimodel::telegraphos::Prototype;

/// The §4.4 comparison: full-custom 8×8 vs standard-cell 4×4.
#[derive(Debug, Clone, Copy)]
pub struct Factor22 {
    /// Links ratio (8×8 vs 4×4) = 2.
    pub links: f64,
    /// Clock ratio (40 ns / 16 ns) = 2.5.
    pub clock: f64,
    /// Peripheral area ratio (41 / 9) ≈ 4.5.
    pub area: f64,
}

impl Factor22 {
    /// Compute from the model.
    pub fn compute() -> Self {
        let fc = Technology::es2_100_full_custom();
        let sc = Technology::es2_100_std_cell();
        let fc_area = peripheral_area_mm2(Organization::Pipelined, 8, 16, 256, &fc);
        let sc_area = peripheral_area_mm2(Organization::Pipelined, 4, 16, 256, &sc);
        Factor22 {
            links: 8.0 / 4.0,
            clock: sc.cycle_worst_ns / fc.cycle_worst_ns,
            area: sc_area / fc_area,
        }
    }

    /// The combined speed×capacity×area factor (paper: "approximately a
    /// factor of 22").
    pub fn combined(&self) -> f64 {
        self.links * self.clock * self.area
    }
}

/// Render the report.
pub fn run(quick: bool) -> String {
    let p = Prototype::telegraphos_iii();
    let fc = Technology::es2_100_full_custom();
    let periph = peripheral_area_mm2(Organization::Pipelined, 8, 16, 256, &fc);
    let f = Factor22::compute();
    let cycles = if quick { 5_000 } else { 50_000 };
    let (delivered, intact, overruns) = functional_run(&p, 0.9, cycles, 0xE11);
    let factor = format!(
        "{:.1} (links {:.0}x, clock {:.1}x, area {:.1}x)",
        f.combined(),
        f.links,
        f.clock,
        f.area
    );
    table::render(
        "E11: Telegraphos III — 1.0um full-custom pipelined buffer (paper §4.4, fig 8)",
        &["quantity", "model", "paper"],
        [
            ("links", "8 in + 8 out".to_string(), "8+8"),
            (
                "buffer capacity",
                format!("{} Kbit (256 pkts x 256 b)", p.capacity_bits() / 1024),
                "64 Kbit",
            ),
            (
                "worst-case cycle",
                format!("{} ns", fc.cycle_worst_ns),
                "16 ns",
            ),
            (
                "per-link rate (worst)",
                format!("{:.1} Gb/s", p.link_gbps_worst()),
                "1 Gb/s",
            ),
            (
                "per-link rate (typ)",
                format!("{:.1} Gb/s", p.link_gbps_typ()),
                "1.6 Gb/s",
            ),
            (
                "aggregate",
                format!("{:.0} Gb/s", p.aggregate_gbps_worst()),
                "16 Gb/s (fig 8)",
            ),
            ("peripheral area", format!("{periph:.1} mm2"), "~9 mm2"),
            ("fc vs sc factor", factor, "~22 (2 x 2.5 x 4.5)"),
        ]
        .map(|(quantity, model, paper)| vec![quantity.into(), model, paper.into()]),
        &format!(
            "\nFunctional RTL run at the 8x8x16-stage geometry, load 0.9: {delivered}\n\
             packets delivered, payloads intact: {intact}, latch overruns: {overruns}.\n",
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_22_reproduced() {
        let f = Factor22::compute();
        assert!((f.links - 2.0).abs() < 1e-9);
        assert!((f.clock - 2.5).abs() < 1e-9);
        assert!((f.area - 4.5).abs() < 0.5, "area factor {}", f.area);
        assert!(
            (f.combined() - 22.0).abs() < 3.0,
            "combined factor {}",
            f.combined()
        );
    }
}
