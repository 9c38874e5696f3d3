//! `rtl_dense`: the paper's own organization, where `core::rtl` and
//! `membank::pipelined` do nearly all the work.

use super::wordswitch::{self, Spec};
use crate::harness::Pass;
use switch_core::{PipelinedSwitch, SwitchConfig};

const N: usize = 8;
const SLOTS: usize = 64;
const LOAD: f64 = 0.8;
const CYCLES: u64 = 4 << 20;

/// Everything built before the first simulated cycle.
pub fn setup(seed: u64) {
    std::hint::black_box((
        PipelinedSwitch::new(SwitchConfig::symmetric(N, SLOTS)),
        wordswitch::feeders(N, LOAD, seed),
    ));
}

/// One pass.
pub fn run(pass: &mut Pass) {
    let spec = Spec {
        n: N,
        load: LOAD,
        cycles: pass.scaled(CYCLES, 1),
        chunks_per_slice: 1,
        feeder_span: "traffic.feeder.ns_per_cycle",
        tick_span: "core.rtl.tick_ns.n8",
    };
    let sw = PipelinedSwitch::new(SwitchConfig::symmetric(N, SLOTS));
    let out = wordswitch::drive(pass, sw, &spec);
    let c = out.counters;
    pass.tracer.count("core.rtl.departed", c.departed);
    pass.tracer.count("core.rtl.dropped", c.dropped_buffer_full);
    pass.tracer
        .count("core.rtl.words_out", c.departed * 2 * N as u64);
    pass.work += spec.cycles;
    pass.digest.mix(out.digest.0);
    pass.detail.mix(out.detail.0);
    pass.offered += out.sent;
    pass.delivered += c.departed;
    pass.latencies = out.latencies;
}
