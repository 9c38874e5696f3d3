//! E13 — pipelined vs wide-memory peripheral area (§5.2).

use crate::table;
use vlsimodel::compare::wide_vs_pipelined;
use vlsimodel::tech::Technology;

/// Render the report.
pub fn run(_quick: bool) -> String {
    let tech = Technology::es2_100_full_custom();
    let (wide, pipe, savings) = wide_vs_pipelined(8, 16, 256, &tech);
    table::render(
        "E13: peripheral circuitry area, wide vs pipelined shared buffer at Telegraphos III parameters (paper §5.2)",
        &["organization", "model mm2", "paper mm2"],
        [
            ("wide memory ([KaSC91] adjusted)", format!("{wide:.1}"), "13"),
            ("pipelined (Telegraphos III)", format!("{pipe:.1}"), "9"),
            ("pipelined savings", format!("{:.0}%", savings * 100.0), "~30%"),
        ]
        .map(|(org, model, paper)| vec![org.into(), model, paper.into()]),
        "\nThe wide organization pays for double input buffering and the cut-through\n\
         bypass; the pipelined organization eliminates both (§3.2-3.3).\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_about_thirty_percent() {
        let (_, _, savings) = wide_vs_pipelined(8, 16, 256, &Technology::es2_100_full_custom());
        assert!((0.2..0.4).contains(&savings), "savings {savings}");
    }
}
