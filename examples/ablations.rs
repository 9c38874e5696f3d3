//! Ablations of the paper's design choices (DESIGN.md §5), as simulated
//! results: utilization and mean head latency of the behavioral switch
//! under each arbiter policy (§3.3) and each cut-through mode (§3.2).
//!
//! ```sh
//! cargo run --release --example ablations
//! ```

use telegraphos::simkernel::cell::header_chance;
use telegraphos::simkernel::SplitMix64;
use telegraphos::switch_core::arbiter::ArbiterPolicy;
use telegraphos::switch_core::behavioral::BehavioralSwitch;
use telegraphos::switch_core::config::SwitchConfig;

const CYCLES: u64 = 50_000;

/// Run the behavioral switch at moderate uniform load (0.4 — the §3.4
/// regime where policy differences are visible; at saturation every
/// policy queues identically) and return (utilization, mean head
/// latency).
fn quality(cfg: SwitchConfig) -> (f64, f64) {
    let n = cfg.n_in;
    let s = cfg.stages();
    let mut sw = BehavioralSwitch::new(cfg);
    let mut rng = SplitMix64::new(11);
    let load = 0.4;
    let q = header_chance(load, s);
    let mut arr = vec![None; n];
    for _ in 0..CYCLES {
        for (i, a) in arr.iter_mut().enumerate() {
            *a = (sw.input_free(i) && rng.chance(q)).then(|| rng.below_usize(n));
        }
        sw.tick(&arr);
    }
    let departed = sw.departures().len() as f64;
    let util = departed * s as f64 / CYCLES as f64 / n as f64;
    let lat = sw
        .departures()
        .iter()
        .map(|d| d.head_latency() as f64)
        .sum::<f64>()
        / departed.max(1.0);
    (util, lat)
}

fn main() {
    println!("8x8 behavioral switch, 64 slots, uniform load 0.4, {CYCLES} cycles\n");
    for (name, policy) in [
        ("read_priority (paper)", ArbiterPolicy::ReadPriority),
        ("write_priority", ArbiterPolicy::WritePriority),
        ("alternate", ArbiterPolicy::Alternate),
    ] {
        let mut cfg = SwitchConfig::symmetric(8, 64);
        cfg.arbiter = policy;
        let (util, lat) = quality(cfg);
        println!("arbiter      {name:<22} utilization={util:.4} head_latency={lat:.2}");
    }
    println!();
    let head_latency = [
        ("fused (paper)", true, true),
        ("unfused", true, false),
        ("store_and_forward", false, false),
    ]
    .map(|(name, cut_through, fused)| {
        let mut cfg = SwitchConfig::symmetric(8, 64);
        cfg.cut_through = cut_through;
        cfg.fused_cut_through = fused;
        let (util, lat) = quality(cfg);
        println!("cut-through  {name:<22} utilization={util:.4} head_latency={lat:.2}");
        lat
    });
    // §3.2: an unfused cut-through costs a cycle, store-and-forward a
    // whole packet time.
    assert!(
        head_latency[0] < head_latency[1] && head_latency[1] < head_latency[2],
        "head latency must order fused < unfused < store-and-forward: {head_latency:?}"
    );
}
