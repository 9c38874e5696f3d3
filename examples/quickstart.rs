//! Quickstart: build the paper's switch, push packets through it, watch
//! the waves.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use telegraphos::simkernel::cell::Packet;
use telegraphos::switch_core::config::SwitchConfig;
use telegraphos::switch_core::rtl::{OutputCollector, PipelinedSwitch, StageCtrl};
use telegraphos::telemetry::{Recorder, Shared};

fn main() {
    // A 4×4 switch: 8 pipeline stages, 8-word packets — the Telegraphos
    // I/II geometry.
    let cfg = SwitchConfig::symmetric(4, 64);
    let stages = cfg.stages();
    let n = cfg.n_in;
    println!(
        "Pipelined-memory shared-buffer switch: {n}x{n}, {stages} stages, \
         {} packet slots, {} Kbit buffer\n",
        cfg.slots,
        cfg.capacity_bits() / 1024
    );
    let mut sw = PipelinedSwitch::new(cfg);
    let rec = Shared::new(Recorder::unbounded());
    sw.attach_probe(rec.handle());

    // Three packets: two collide on output 2, one has output 0 to itself.
    let packets = [
        Packet::synth(101, 0, 2, stages, 0),
        Packet::synth(102, 1, 2, stages, 0),
        Packet::synth(103, 3, 0, stages, 0),
    ];
    let mut col = OutputCollector::new(n, stages);

    for t in 0..5 * stages {
        let mut wire = vec![None; n];
        for p in &packets {
            if t < stages {
                wire[p.src.index()] = Some(p.words[t]);
            }
        }
        let now = sw.now();
        let out = sw.tick(&wire);
        col.observe(now, out);
        // Show the wave sweeping the banks for the first few cycles.
        if now <= 6 {
            let ctrls: Vec<String> = sw
                .stage_controls()
                .iter()
                .map(|c| match c {
                    StageCtrl::Nop => ".".into(),
                    StageCtrl::Write { .. } => "W".into(),
                    StageCtrl::Read { .. } => "R".into(),
                    StageCtrl::Fused { .. } => "F".into(),
                })
                .collect();
            println!("cycle {now:>2}: stages [{}]", ctrls.join(" "));
        }
    }

    println!("\nEvent trace (probe stream):\n{}", rec.render());
    let delivered = col.take();
    println!("Delivered {} packets:", delivered.len());
    for d in &delivered {
        println!(
            "  id {:>4} on {}: first word at cycle {:>2} (cut-through latency {}), \
             tail at {:>2}, payload intact: {}",
            d.id,
            d.output,
            d.first_cycle,
            d.first_cycle, // header arrived at 0 for all three
            d.last_cycle,
            d.verify_payload()
        );
    }
    let ctr = sw.counters();
    println!(
        "\nCounters: arrived {}, departed {}, fused cut-throughs {}, \
         drops {}, latch overruns {} (must be 0)",
        ctr.arrived, ctr.departed, ctr.fused_reads, ctr.dropped_buffer_full, ctr.latch_overruns
    );
    assert_eq!(ctr.latch_overruns, 0);
    assert!(delivered.iter().all(|d| d.verify_payload()));
    println!(
        "\nOK — see `cargo run -p bench-harness --bin expt -- --list` for the paper's experiments."
    );
}
