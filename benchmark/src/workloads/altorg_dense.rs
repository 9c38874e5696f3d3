//! `altorg_dense`: §5's alternative organizations on `rtl_dense`'s wire
//! schedule — the wide memory of fig. 3, then one-packet-per-bank
//! interleaving. A gain for the pipelined RTL alone must leave this flat.

use super::wordswitch::{self, Spec};
use crate::harness::Pass;
use switch_core::{
    InterleavedSwitch, InterleavedSwitchConfig, PipelinedSwitch, SwitchConfig, WideMemorySwitchRtl,
    WideSwitchConfig,
};

const N: usize = 8;
const SLOTS: usize = 64;
const LOAD: f64 = 0.8;
const CYCLES_EACH: u64 = 3 << 20;

fn wide() -> WideMemorySwitchRtl {
    WideMemorySwitchRtl::new(WideSwitchConfig::fig3(N, SLOTS))
}

fn interleaved() -> InterleavedSwitch {
    InterleavedSwitch::new(InterleavedSwitchConfig::symmetric(N, SLOTS))
}

/// Everything built before the first simulated cycle.
pub fn setup(seed: u64) {
    std::hint::black_box((wide(), interleaved(), wordswitch::feeders(N, LOAD, seed)));
}

/// One pass.
pub fn run(pass: &mut Pass) {
    let cycles = pass.scaled(CYCLES_EACH, 1);
    let spec = |tick_span| Spec {
        n: N,
        load: LOAD,
        cycles,
        chunks_per_slice: 3,
        feeder_span: "traffic.feeder.ns_per_cycle",
        tick_span,
    };
    let w = wordswitch::drive(pass, wide(), &spec("core.widemem.tick_ns.n8"));
    let i = wordswitch::drive(pass, interleaved(), &spec("core.ibank.tick_ns.n8"));
    if pass.verifying() {
        // Same schedule through the pipelined switch: all three must deliver
        // the same packets (none of them drops at this load and depth).
        let sw = PipelinedSwitch::new(SwitchConfig::symmetric(N, SLOTS));
        let p = wordswitch::drive(pass, sw, &spec("reference.pipelined"));
        for (name, o) in [("wide", &w), ("interleaved", &i)] {
            let same = (o.collected, o.delivered_set) == (p.collected, p.delivered_set);
            pass.checks.check(same, || {
                format!(
                    "{name} delivered {} packets, pipelined {}: sets differ",
                    o.collected, p.collected
                )
            });
        }
    }
    for o in [w, i] {
        pass.work += cycles;
        pass.digest.mix(o.digest.0);
        pass.detail.mix(o.detail.0);
        pass.offered += o.sent;
        pass.delivered += o.counters.departed;
        pass.latencies.merge(&o.latencies);
    }
}
