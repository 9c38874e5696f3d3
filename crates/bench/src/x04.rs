//! X4 (extension) — how far does the pipelined organization scale?
//!
//! §3.5's scalability discussion, quantified. "Since the above quantum is
//! proportional to both link throughput and number of links, some
//! designers consider this as a non-scalable architecture. However …
//! chip I/O throughput rather than memory cycle time is the bottleneck."
//! This experiment sweeps the port count and tabulates every §3.5
//! quantity: the packet-size quantum, the aggregate buffer throughput a
//! single pipelined memory must sustain, the chip I/O pin-throughput the
//! links demand, and the (quadratic) peripheral area — showing where each
//! constraint binds first.

use crate::{sweep, table};
use vlsimodel::periph::{peripheral_area_mm2, Organization};
use vlsimodel::tech::Technology;

/// One port-count row of the scaling study.
#[derive(Debug, Clone, Copy)]
pub struct X4Row {
    /// Ports per side.
    pub n: usize,
    /// Packet-size quantum in bytes (`2n·w` bits).
    pub quantum_bytes: u32,
    /// Aggregate buffer throughput at the technology's cycle, Gb/s.
    pub buffer_gbps: f64,
    /// Chip I/O throughput demanded by the links (2n links at the
    /// per-link rate), Gb/s.
    pub chip_io_gbps: f64,
    /// Peripheral datapath area, mm² (full custom).
    pub periph_mm2: f64,
    /// Half-quantum (§3.5 split) in bytes.
    pub half_quantum_bytes: u32,
}

/// Sweep `n` at Telegraphos III technology and word width.
pub fn rows() -> Vec<X4Row> {
    let tech = Technology::es2_100_full_custom();
    let w = 16u32;
    sweep::map(&[2usize, 4, 8, 16, 32], |&n| {
        let stages = 2 * n as u32;
        let quantum_bits = stages * w;
        let per_link = tech.link_gbps(w, true);
        X4Row {
            n,
            quantum_bytes: quantum_bits / 8,
            buffer_gbps: quantum_bits as f64 / tech.cycle_worst_ns,
            chip_io_gbps: 2.0 * n as f64 * per_link,
            periph_mm2: peripheral_area_mm2(Organization::Pipelined, n, w, 256, &tech),
            half_quantum_bytes: quantum_bits / 16,
        }
    })
}

/// Render the report.
pub fn run(_quick: bool) -> String {
    table::render(
        "X4 (extension): pipelined-buffer scaling at 1.0um full custom, 16-bit words (paper §3.5's scalability argument)",
        &["switch", "quantum B", "half-q B", "buffer Gb/s", "chip I/O Gb/s", "periph mm2"],
        rows().iter().map(|r| {
            vec![
                format!("{}x{}", r.n, r.n),
                r.quantum_bytes.to_string(),
                r.half_quantum_bytes.to_string(),
                format!("{:.1}", r.buffer_gbps),
                format!("{:.1}", r.chip_io_gbps),
                format!("{:.1}", r.periph_mm2),
            ]
        }),
        "\nBuffer throughput equals chip I/O demand by construction (the buffer is\n\
         sized to the links), so the memory is NEVER the binding constraint —\n\
         §3.5's point. What binds first as n grows: chip I/O pins (Gb/s column)\n\
         and the quadratic peripheral area; the quantum stays modest (the §3.5\n\
         half-quantum split keeps a 16x16 switch at a 32-byte effective quantum,\n\
         below an ATM cell). Past that, block-crosspoint partitioning (§2.2)\n\
         continues the scaling with pipelined buffers as the blocks.\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_throughput_tracks_io_demand() {
        for r in rows() {
            assert!(
                (r.buffer_gbps - r.chip_io_gbps).abs() < 1e-9,
                "buffer sized exactly to the links at n={}",
                r.n
            );
        }
    }

    #[test]
    fn quantum_linear_area_quadratic() {
        let r = rows();
        let q_ratio = r[3].quantum_bytes as f64 / r[1].quantum_bytes as f64; // 16x16 vs 4x4
        let a_ratio = r[3].periph_mm2 / r[1].periph_mm2;
        assert!((q_ratio - 4.0).abs() < 1e-9, "quantum ∝ n");
        assert!(a_ratio > 9.0, "area ≈ n²: {a_ratio}");
    }

    #[test]
    fn half_quantum_keeps_16x16_under_atm_cell() {
        let r16 = rows().into_iter().find(|r| r.n == 16).unwrap();
        assert!(u64::from(r16.half_quantum_bytes) < 53, "below an ATM cell");
    }
}
