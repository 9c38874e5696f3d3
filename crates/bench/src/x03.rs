//! X3 (extension) — word-level organization shoot-out.
//!
//! The §3.2/§5.2 comparison run as *hardware behavior* rather than area
//! arithmetic: identical word schedules through the pipelined switch
//! (fig. 4) and the wide-memory switch (fig. 3), with and without the
//! wide memory's cut-through crossbar; mean head latency and the
//! machinery each needs to avoid loss.

use crate::{sweep, table};
use simkernel::cell::{header_chance, Packet};
use simkernel::SplitMix64;
use switch_core::config::SwitchConfig;
use switch_core::rtl::{OutputCollector, PipelinedSwitch};
use switch_core::widemem::{WideMemorySwitchRtl, WideSwitchConfig};
use switch_core::WordSwitch;

/// Result of one organization's run.
#[derive(Debug, Clone)]
pub struct X3Row {
    /// Organization label.
    pub org: &'static str,
    /// Packets delivered.
    pub delivered: usize,
    /// Mean first-word cycle (lower = faster; identical workloads).
    pub mean_first: f64,
    /// Drops/overruns.
    pub lost: u64,
    /// Extra hardware the organization needed (qualitative, from the
    /// model's structure).
    pub hardware: &'static str,
}

/// Shared word schedule.
#[allow(clippy::needless_range_loop)]
fn schedule(n: usize, s: usize, cycles: u64, load: f64, seed: u64) -> Vec<Vec<Option<u64>>> {
    let mut rng = SplitMix64::new(seed);
    let mut wires = vec![vec![None; n]; cycles as usize];
    let q = header_chance(load, s);
    let mut id = 1u64;
    for i in 0..n {
        let mut t = 0usize;
        while t + s <= cycles as usize {
            if rng.chance(q) {
                let p = Packet::synth(id, i, rng.below_usize(n), s, t as u64);
                id += 1;
                for (k, w) in p.words.iter().enumerate() {
                    wires[t + k][i] = Some(*w);
                }
                t += s;
            } else {
                t += 1;
            }
        }
    }
    wires
}

/// Run all three organizations on the same schedule, one parallel sweep
/// point per organization (they share the read-only word schedule).
pub fn rows(quick: bool) -> Vec<X3Row> {
    let n = 4;
    let s = 2 * n;
    let cycles = if quick { 6_000 } else { 40_000 };
    let wires = schedule(n, s, cycles, 0.5, 0x33);
    let mean_first = |pkts: &[switch_core::rtl::DeliveredPacket]| {
        pkts.iter().map(|d| d.first_cycle).sum::<u64>() as f64 / pkts.len().max(1) as f64
    };

    // Per organization: label, the switch, and the extra hardware it
    // needs (qualitative, from the model's structure).
    type Org = (&'static str, fn(usize) -> Box<dyn WordSwitch>, &'static str);
    const ORGS: [Org; 3] = [
        (
            "pipelined (fig 4, paper)",
            |n| Box::new(PipelinedSwitch::new(SwitchConfig::symmetric(n, 64))),
            "single latch row, no bypass",
        ),
        (
            "wide + cut-through xbar (fig 3)",
            |n| wide(n, true),
            "double latch rows + bypass xbar",
        ),
        ("wide, no bypass", |n| wide(n, false), "double latch rows"),
    ];
    sweep::map(&ORGS, |&(org, build, hardware)| {
        let mut sw = build(n);
        let mut col = OutputCollector::new(n, s);
        let idle = vec![None; n];
        for row in &wires {
            let now = sw.now();
            let o = sw.tick(row);
            col.observe(now, o);
        }
        let mut guard = 0;
        while !sw.is_quiescent() && guard < 10_000 {
            let now = sw.now();
            let o = sw.tick(&idle);
            col.observe(now, o);
            guard += 1;
        }
        let c = sw.counters();
        let pkts = col.take();
        X3Row {
            org,
            delivered: pkts.len(),
            mean_first: mean_first(&pkts),
            lost: c.dropped_buffer_full + c.latch_overruns,
            hardware,
        }
    })
}

/// The fig-3 wide-memory switch, with or without its cut-through crossbar.
fn wide(n: usize, crossbar: bool) -> Box<dyn WordSwitch> {
    let mut cfg = WideSwitchConfig::fig3(n, 64);
    cfg.cut_through_crossbar = crossbar;
    Box::new(WideMemorySwitchRtl::new(cfg))
}

/// Render the report.
pub fn run(quick: bool) -> String {
    let rows = rows(quick);
    let base = rows[0].mean_first;
    table::render(
        "X3 (extension): identical word schedules through the fig-3 and fig-4 organizations (4x4, load 0.5)",
        &["organization", "delivered", "mean 1st-word cyc", "vs pipelined", "lost", "extra hardware"],
        rows.iter().map(|r| {
            vec![
                r.org.to_string(),
                r.delivered.to_string(),
                format!("{:.1}", r.mean_first),
                format!("{:+.1}", r.mean_first - base),
                r.lost.to_string(),
                r.hardware.to_string(),
            ]
        }),
        "\nThe pipelined organization matches the wide memory WITH its bypass crossbar\n\
         on latency while needing neither the crossbar nor the second latch row —\n\
         §3.2's argument as a head-to-head run (silicon priced in E13).\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_conserve() {
        let rows = rows(true);
        assert_eq!(rows[0].delivered, rows[1].delivered);
        assert_eq!(rows[0].delivered, rows[2].delivered);
        assert!(rows.iter().all(|r| r.lost == 0));
    }

    #[test]
    fn pipelined_fastest_or_tied() {
        let rows = rows(true);
        assert!(rows[0].mean_first <= rows[1].mean_first + 1.0);
        assert!(
            rows[2].mean_first > rows[0].mean_first + 2.0,
            "no-bypass pays"
        );
    }
}
