//! E14 — pipelined vs PRIZMA interleaved shared buffer (§5.3).

use crate::table;
use vlsimodel::compare::{prizma_crossbar_ratio, shift_register_vs_dram3t_bit};

/// Render the report.
pub fn run(_quick: bool) -> String {
    table::render(
        "E14: PRIZMA router/selector crossbar cost (∝ n·M) vs pipelined datapath (∝ n·2n) — paper §5.3",
        &["switch", "M banks", "2n", "PRIZMA/pipelined"],
        [(8usize, 256usize), (8, 64), (8, 16), (16, 256)].map(|(n, m)| {
            vec![
                format!("{n}x{n}"),
                m.to_string(),
                format!("{}", 2 * n),
                format!("{:.1}x", prizma_crossbar_ratio(n, m)),
            ]
        }),
        &format!(
            "\nTelegraphos III geometry (2n=16, M=256): {}x — the paper's '16 times more'.\n\
             Shift-register banks would not help: one dynamic shift-register bit is {}x\n\
             a 3-transistor dynamic RAM bit, and shift registers preclude cut-through\n\
             (demonstrated executably by membank::shiftreg).\n",
            prizma_crossbar_ratio(8, 256),
            shift_register_vs_dram3t_bit()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_x_at_paper_geometry() {
        assert_eq!(prizma_crossbar_ratio(8, 256), 16.0);
    }
}
