//! E10 — word-line RC delay: pipelined vs wide memory (§4.3, fig. 7).

use crate::{sweep, table};
use vlsimodel::rc::{decoder_vs_pipe_register, word_line_delay_ns, RcLine};
use vlsimodel::tech::Technology;

/// One geometry row.
#[derive(Debug, Clone, Copy)]
pub struct E10Row {
    /// Total word-line span in storage cells.
    pub cells: usize,
    /// Unsplit delay (ns).
    pub unsplit_ns: f64,
    /// Split into per-stage blocks (ns).
    pub split_ns: f64,
}

/// Sweep word-line spans for an n×n, w-bit configuration.
pub fn rows() -> Vec<E10Row> {
    let t = Technology::es2_100_full_custom();
    let line = RcLine {
        r_ohm_per_um: t.r_ohm_per_um,
        c_ff_per_um: t.c_ff_per_um,
    };
    let w = 16usize;
    sweep::map(&[1usize, 2, 4, 8, 16], |&stages| {
        let cells = stages * w;
        E10Row {
            cells,
            unsplit_ns: word_line_delay_ns(cells, t.cell_pitch_um, line),
            split_ns: line.split_elmore_ns(cells as f64 * t.cell_pitch_um, stages),
        }
    })
}

/// Render the report.
pub fn run(_quick: bool) -> String {
    let (dec, reg) = decoder_vs_pipe_register(256);
    table::render(
        "E10: word-line Elmore delay vs span (1.0um full custom, 16-bit stages) — fig 7",
        &["cells spanned", "one line ns", "split/stage ns", "penalty"],
        rows().iter().map(|r| {
            vec![
                r.cells.to_string(),
                format!("{:.3}", r.unsplit_ns),
                format!("{:.3}", r.split_ns),
                format!("{:.0}x", r.unsplit_ns / r.split_ns.max(1e-12)),
            ]
        }),
        &format!(
            "\nWide memory's word line spans all stages (rightmost row); splitting it per\n\
             stage restores speed but costs a decoder per block — fig 7(b) replaces those\n\
             with decoded-address pipeline registers, {:.1}x smaller ({:.0} vs {:.0} units\n\
             for a 256-row bank), which is the paper's §4.4 measurement.\n",
            dec / reg,
            dec,
            reg
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penalty_is_quadratic_in_stage_count() {
        let r = rows();
        let last = r.last().unwrap();
        assert!((last.unsplit_ns / last.split_ns - 256.0).abs() < 1.0);
    }

    #[test]
    fn wide_line_material_vs_16ns_cycle() {
        let r = rows();
        assert!(r.last().unwrap().unsplit_ns > 16.0);
        assert!(r[0].unsplit_ns < 0.5);
    }
}
