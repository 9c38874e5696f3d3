//! E7 — the packet-size quantum (§3.5): throughput arithmetic and the
//! half-quantum dual-memory organization, demonstrated functionally.

use crate::table;
use switch_core::halfq::HalfQuantumBuffer;
use vlsimodel::quantum::quantum_table;

/// Functional demo: run the two-half buffer at one write + one read per
/// cycle for `cycles` cycles; returns (reads completed, writes stored).
pub fn halfq_demo(n: usize, cycles: u64) -> (u64, u64) {
    let mut b = HalfQuantumBuffer::new(n, 64, 64);
    let mut stored: std::collections::VecDeque<switch_core::halfq::PacketHandle> =
        std::collections::VecDeque::new();
    let mut writes = 0u64;
    let mut reads = 0u64;
    let words = |seed: u64| (0..n as u64).map(|k| seed * 1000 + k).collect::<Vec<_>>();
    for i in 0..cycles {
        if let Some(&h) = stored.front() {
            if b.fetch(h).is_ok() {
                stored.pop_front();
            }
        }
        if let Ok(h) = b.store(words(i)) {
            stored.push_back(h);
            writes += 1;
        }
        reads += b.tick().len() as u64;
    }
    reads += b.drain().len() as u64;
    (reads, writes)
}

/// Render the report.
pub fn run(quick: bool) -> String {
    let cycles = if quick { 2_000 } else { 50_000 };
    let n = 8;
    let (reads, writes) = halfq_demo(n, cycles);
    table::render(
        "E7: packet-size quantum vs buffer throughput at 5 ns cycle (paper §3.5: '50 to 200 Gbits/s')",
        &["quantum B", "width bits", "aggregate Gb/s", "per-link Gb/s (16+16)"],
        quantum_table(&[32, 64, 128], 5.0, 16).iter().map(|r| {
            vec![
                r.quantum_bytes.to_string(),
                r.buffer_width_bits.to_string(),
                format!("{:.1}", r.aggregate_gbps),
                format!("{:.2}", r.per_link_gbps),
            ]
        }),
        &format!(
            "\nHalf-quantum organization (two pipelined memories of n={n} stages,\n\
             packets of {n} words): sustained {writes} writes and {reads} reads over\n\
             {cycles} cycles — one write AND one read initiation per cycle, double the\n\
             single-memory budget, as §3.5 requires for half-size packets.\n",
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halfq_sustains_one_read_and_write_per_cycle() {
        let cycles = 3_000;
        let (reads, writes) = halfq_demo(8, cycles);
        assert!(writes as f64 > 0.99 * cycles as f64, "writes {writes}");
        assert!(reads as f64 > 0.98 * cycles as f64, "reads {reads}");
    }

    #[test]
    fn quantum_numbers_match_paper() {
        let rows = quantum_table(&[32, 128], 5.0, 16);
        assert!((rows[0].aggregate_gbps - 51.2).abs() < 0.1);
        assert!((rows[1].aggregate_gbps - 204.8).abs() < 0.1);
    }
}
