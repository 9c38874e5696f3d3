//! ATM cell switching — the paper's §2.3/§3.5 motivation scenario.
//!
//! "We believe that high-speed networks will converge to using fixed-size
//! packets, cells, or flits … ATM, with 53-byte fixed-size cells, is a
//! big step in that direction." This example sizes a 16×16 shared-buffer
//! ATM switch: 53-byte cells pad to a 64-byte quantum (two 32-byte
//! quanta, or one with the §3.5 half-size trick), and the buffer pool is
//! dimensioned by simulation for a 10⁻³ loss target under bursty traffic.
//!
//! ```sh
//! cargo run --release --example atm_cell_switch
//! ```

use telegraphos::baselines::harness::run;
use telegraphos::baselines::shared::output_queued;
use telegraphos::simkernel::SharedBuffer;
use telegraphos::traffic::{Bernoulli, BurstyOnOff, DestDist};
use telegraphos::vlsimodel::quantum::quantum_table;

fn main() {
    let n = 16;
    let load = 0.8;
    println!("ATM switching scenario: {n}x{n} shared-buffer switch, load {load}\n");

    // §3.5 arithmetic: what buffer geometry does an ATM cell imply?
    println!("Quantum arithmetic (5 ns memory cycle, 16+16 links):");
    for row in quantum_table(&[32, 64], 5.0, 16) {
        println!(
            "  {:>3}-byte quantum -> {:>4}-bit buffer, {:>6.1} Gb/s aggregate, {:>5.2} Gb/s/link",
            row.quantum_bytes, row.buffer_width_bits, row.aggregate_gbps, row.per_link_gbps
        );
    }
    println!(
        "  A 53-byte ATM cell pads to 64 bytes = two 32-byte quanta\n\
         (or one, using the §3.5 dual-memory half-quantum trick).\n"
    );

    // Dimension the shared pool: smallest capacity with loss <= 1e-3
    // under smooth traffic, then see what bursts do to it.
    let slots_run = 400_000u64;
    let mut lo = 8usize;
    let mut hi = 512usize;
    while lo < hi {
        let mid = (lo + hi) / 2;
        let mut sw = SharedBuffer::switch(n, Some(mid));
        let mut src = Bernoulli::new(n, load, DestDist::uniform(n), 42);
        let stats = run(&mut sw, &mut src, slots_run, slots_run / 10);
        if stats.loss <= 1e-3 {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let pool = hi;
    println!(
        "Smooth (Bernoulli) traffic: pool of {pool} cells reaches loss <= 1e-3 \
         ({:.1} cells/port — [HlKa88] reports 5.4).",
        pool as f64 / n as f64
    );

    // Same pool under bursty traffic.
    for mean_burst in [4.0, 16.0] {
        let mut sw = SharedBuffer::switch(n, Some(pool));
        let mut src = BurstyOnOff::new(n, load, mean_burst, DestDist::uniform(n), 43);
        let stats = run(&mut sw, &mut src, slots_run, slots_run / 10);
        println!(
            "Bursty traffic (mean burst {mean_burst:>4.0} cells): same pool loses {:.2e} \
             (p99 latency {} slots) — bursts are what buffers are for.",
            stats.loss,
            stats.p99_latency.unwrap_or(0)
        );
    }

    // And the headline comparison: the same pool partitioned per output.
    let per_out = pool / n;
    let mut sw = output_queued(n, Some(per_out));
    let mut src = Bernoulli::new(n, load, DestDist::uniform(n), 42);
    let stats = run(&mut sw, &mut src, slots_run, slots_run / 10);
    println!(
        "\nThe same {pool} cells partitioned {per_out}/output (output queueing) \
         lose {:.2e} at the same load —\nsharing the pool is the paper's §2.2 argument.",
        stats.loss
    );
}
