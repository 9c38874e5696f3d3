//! E8 — the Telegraphos prototype family (§4): configuration table plus a
//! functional run of each configuration on the RTL model.

use crate::table;
use switch_core::config::SwitchConfig;
use switch_core::rtl::{OutputCollector, PipelinedSwitch};
use traffic::{DestDist, PacketFeeder};
use vlsimodel::telegraphos::{telegraphos_table, Prototype};

/// Functional check of one prototype geometry on the word-level RTL
/// model: random traffic at `load`, returns (packets delivered, all
/// payloads intact, latch overruns).
pub fn functional_run(p: &Prototype, load: f64, cycles: u64, seed: u64) -> (usize, bool, u64) {
    let mut cfg = SwitchConfig::symmetric(p.n, p.slots.min(64));
    cfg.word_bits = p.word_bits;
    let s = cfg.stages();
    let n = cfg.n_in;
    let mut sw = PipelinedSwitch::new(cfg);
    let mut feeders: Vec<PacketFeeder> = (0..n)
        .map(|i| PacketFeeder::random(i, s, load, DestDist::uniform(n), seed, n as u64))
        .collect();
    let mut col = OutputCollector::new(n, s);
    let mut wire = vec![None; n];
    for _ in 0..cycles {
        for (i, f) in feeders.iter_mut().enumerate() {
            wire[i] = f.tick(sw.now());
        }
        let now = sw.now();
        let out = sw.tick(&wire);
        col.observe(now, out);
    }
    // Drain: stop generating, let in-flight packets finish on the wire,
    // then idle the switch until quiescent.
    for f in feeders.iter_mut() {
        f.halt();
    }
    simkernel::run_until_quiescent(10_000, "telegraphos functional drain", |_| {
        if sw.is_quiescent() {
            return true;
        }
        for (i, f) in feeders.iter_mut().enumerate() {
            wire[i] = f.tick(sw.now());
        }
        let now = sw.now();
        let out = sw.tick(&wire);
        col.observe(now, out);
        false
    })
    .expect("switch failed to drain — hang caught by the watchdog");
    let delivered = col.take();
    let intact = delivered.iter().all(|d| d.verify_payload());
    (delivered.len(), intact, sw.counters().latch_overruns)
}

/// Render the report.
pub fn run(quick: bool) -> String {
    let cycles = if quick { 5_000 } else { 50_000 };
    table::render(
        "E8: the Telegraphos prototypes (§4) — paper parameters + functional RTL run at load 0.8",
        &[
            "prototype",
            "size",
            "w",
            "stages",
            "pkt B",
            "buf Kbit",
            "Gb/s link",
            "Gb/s aggr",
            "delivered",
            "intact/overruns",
        ],
        telegraphos_table().into_iter().map(|p| {
            p.validate();
            let (delivered, intact, overruns) = functional_run(&p, 0.8, cycles, 0xE8);
            vec![
                p.name.to_string(),
                format!("{}x{}", p.n, p.n),
                format!("{}", p.word_bits),
                p.stages.to_string(),
                p.packet_bytes.to_string(),
                format!("{}", p.capacity_bits() / 1024),
                format!("{:.3}", p.link_gbps_worst()),
                format!("{:.1}", p.aggregate_gbps_worst()),
                delivered.to_string(),
                format!("{intact}/{overruns}"),
            ]
        }),
        "\nPaper rates: I = 107 Mb/s (13.3 MHz x 8b), II = 400 Mb/s (16b/40ns),\n\
         III = 1 Gb/s worst case (16b/16ns), 64 Kbit buffer. 'intact' = every\n\
         delivered payload bit-exact; 'overruns' must be 0.\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_prototypes_run_clean_on_rtl() {
        for p in telegraphos_table() {
            let (delivered, intact, overruns) = functional_run(&p, 0.8, 4_000, 7);
            assert!(delivered > 50, "{}: only {delivered} delivered", p.name);
            assert!(intact, "{}: payload corruption", p.name);
            assert_eq!(overruns, 0, "{}: latch overruns", p.name);
        }
    }

    #[test]
    fn capacity_64_kbit_for_iii() {
        let p = vlsimodel::telegraphos::Prototype::telegraphos_iii();
        assert_eq!(p.capacity_bits(), 65_536);
    }
}
