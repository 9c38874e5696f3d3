//! The side rungs of the per-layer ladder: single layers called directly,
//! at sizes and loads no workload runs. Together with the traced passes of
//! the workloads they give every per-layer metric.

use crate::harness::Pass;
use crate::trace::Tracer;
use crate::workloads::behavioral_loads::{self as bhv, Arrival, Schedule};
use crate::workloads::fabric as fab;
use crate::workloads::wordswitch::{self, Spec};
use bench_harness::sweep;
use fabric::{ElementKind, Fabric, Pattern, TerminalSource, Workload};
use membank::{InterleavedMemory, PipelinedMemory, PortKind, SramBank, WaveOp, WideMemory};
use simkernel::ids::Addr;
use simkernel::{Cell, SplitMix64};
use std::hint::black_box;
use switch_core::{
    BehavioralSwitch, InterleavedSwitch, InterleavedSwitchConfig, PipelinedSwitch, PolicyKind,
    SwitchConfig, WideMemorySwitchRtl, WideSwitchConfig,
};
use telemetry::{NullSink, ProbeHandle};

/// Every side rung, each in a slice of its own.
pub fn run(pass: &mut Pass) {
    membank(pass);
    word_switches(pass);
    behavioral_dense(pass);
    fabric_parts(pass);
    sweep_engine(pass);
}

/// The four memory organizations at 16 stages, as `benches/membank_orgs.rs`.
fn membank(pass: &mut Pass) {
    const STAGES: usize = 16;
    const DEPTH: usize = 256;
    let ops = pass.scaled(1 << 20, 1024);
    let words: Vec<u64> = (0..STAGES as u64).collect();
    pass.side_slice(|tr| {
        tr.span("membank.pipelined.wave_ns", ops, |_| {
            let mut m = PipelinedMemory::new(STAGES, DEPTH, 16);
            for k in 0..ops as usize {
                let addr = Addr(k % DEPTH);
                let op = if k % 2 == 0 {
                    WaveOp::Write {
                        addr,
                        words: words.clone(),
                    }
                } else {
                    WaveOp::Read { addr }
                };
                m.initiate(op).expect("one wave per cycle");
                black_box(m.tick().len());
            }
        });
        tr.span("membank.wide.packet_ns", ops, |_| {
            let mut m = WideMemory::new(DEPTH, STAGES, 16);
            for cyc in 0..ops {
                let addr = Addr((cyc / 2) as usize % DEPTH);
                m.begin_cycle(cyc);
                if cyc % 2 == 0 {
                    m.write_packet(addr, &words).expect("port free");
                } else {
                    black_box(m.read_packet(addr).expect("port free"));
                }
            }
        });
        tr.span("membank.interleaved.word_ns", ops, |_| {
            let mut m = InterleavedMemory::new(DEPTH, STAGES, 16);
            let bank = m.allocate().expect("a free bank");
            for cyc in 0..ops {
                m.begin_cycle(cyc);
                m.write_word(bank, cyc as usize % STAGES, cyc)
                    .expect("one word per bank per cycle");
            }
            black_box(m.peek_word(bank, 0));
        });
        tr.span("membank.bank.rw_ns", ops, |_| {
            let mut bank = SramBank::new(DEPTH, 16, PortKind::DualPort);
            for cyc in 0..ops {
                let addr = Addr(cyc as usize % DEPTH);
                bank.begin_cycle(cyc);
                bank.write(addr, cyc).expect("write port");
                black_box(bank.read(addr).expect("read port"));
            }
        });
    });
}

/// One tick of each word-level organization at the paper's other sizes, and
/// of the pipelined one at low load.
fn word_switches(pass: &mut Pass) {
    const SLOTS: usize = 64;
    let cycles = pass.scaled(512 << 10, 1024);
    for n in [4usize, 16] {
        let sw = PipelinedSwitch::new(SwitchConfig::symmetric(n, SLOTS));
        rung(pass, sw, &format!("core.rtl.tick_ns.n{n}"), n, 0.8, cycles);
        let sw = WideMemorySwitchRtl::new(WideSwitchConfig::fig3(n, SLOTS));
        rung(
            pass,
            sw,
            &format!("core.widemem.tick_ns.n{n}"),
            n,
            0.8,
            cycles,
        );
        let sw = InterleavedSwitch::new(InterleavedSwitchConfig::symmetric(n, SLOTS));
        rung(
            pass,
            sw,
            &format!("core.ibank.tick_ns.n{n}"),
            n,
            0.8,
            cycles,
        );
    }
    let sw = PipelinedSwitch::new(SwitchConfig::symmetric(8, SLOTS));
    rung(pass, sw, "core.rtl.tick_ns.n8.load10", 8, 0.1, cycles);
}

fn rung<S: wordswitch::WordSwitch>(
    pass: &mut Pass,
    sw: S,
    name: &str,
    n: usize,
    load: f64,
    cycles: u64,
) {
    let spec = Spec {
        n,
        load,
        cycles,
        chunks_per_slice: 2,
        feeder_span: "ladder.feeder",
        tick_span: name,
    };
    wordswitch::drive(pass, sw, &spec);
}

/// The behavioral model ticked every cycle on `behavioral_loads`' schedules
/// (what fast-forward is measured against), then at the top load under a
/// dynamic-threshold policy and at the middle load with a probe attached.
fn behavioral_dense(pass: &mut Pass) {
    let cycles = pass.scaled(2 << 20, 4096);
    let cfg = || SwitchConfig::symmetric(bhv::N, bhv::SLOTS);
    let dt = PolicyKind::DynamicThresholds {
        alpha_num: 1,
        alpha_den: 1,
    };
    let mut arrivals = Vec::new();
    for (k, point) in bhv::LOADS.iter().enumerate() {
        Schedule::new(bhv::N, point.load, pass.seed ^ (k as u64 + 1) << 56)
            .until(cycles, &mut arrivals);
        let mut variants = vec![(
            format!("core.behavioral.dense_ns_per_cycle.{}", point.tag),
            bhv::switch(cfg()),
        )];
        if point.tag == "load95" {
            variants.push((
                "core.policy.dense_ns.dt".into(),
                bhv::switch(cfg().with_policy(dt)),
            ));
        }
        if point.tag == "load50" {
            let mut probed = bhv::switch(cfg());
            probed.attach_probe(ProbeHandle::new(NullSink));
            variants.push(("telemetry.dense_ns.nullsink".into(), probed));
        }
        for (name, mut sw) in variants {
            pass.side_slice(|tr| tr.span(&name, cycles, |_| dense(&mut sw, &arrivals, cycles)));
        }
    }
}

/// One `tick` per cycle. The departure log is dropped as often as the
/// event-driven workload drops it, so both sides of `ff_speedup` pay for
/// the same memory.
fn dense(sw: &mut BehavioralSwitch, arrivals: &[Arrival], cycles: u64) {
    let mut arr = [None; bhv::N];
    let mut k = 0;
    let mut departed = 0;
    for t in 0..cycles {
        arr.fill(None);
        while k < arrivals.len() && arrivals[k].at == t {
            arr[arrivals[k].input as usize] = Some(arrivals[k].dst as usize);
            k += 1;
        }
        sw.tick(&arr);
        if (t + 1) % bhv::CHUNK == 0 {
            departed += sw.departures().len();
            sw.forget_departures();
        }
    }
    black_box(departed + sw.departures().len());
}

/// The fabric's parts on their own: terminal sources, one element of each
/// kind over a recorded inbox, and the executor with nothing to carry.
fn fabric_parts(pass: &mut Pass) {
    const ENDPOINTS: usize = 1024;
    let slots = pass.scaled(256, 8);
    let workload = Workload {
        pattern: Pattern::Uniform,
        load: 0.6,
        seed: pass.seed,
    };
    pass.side_slice(|tr| {
        tr.span("fabric.traffic.draw_ns", slots * ENDPOINTS as u64, |_| {
            let mut sources: Vec<TerminalSource> = (0..ENDPOINTS)
                .map(|t| TerminalSource::new(&workload, t))
                .collect();
            for slot in 0..slots {
                for s in &mut sources {
                    black_box(s.draw(&workload, ENDPOINTS, slot));
                }
            }
        });
    });

    let windows = pass.scaled(65_536, 64);
    for kind in [
        fab::SCALAR,
        fab::BEHAVIORAL,
        ElementKind::WordRtl { slots: 16 },
    ] {
        element_windows(pass, kind, windows);
    }

    let idle_slots = pass.scaled(2048, 8);
    let idle = Workload {
        load: 0.0,
        ..workload
    };
    pass.side_slice(|tr| {
        let mut f = Fabric::new(fab::topology(), fab::SCALAR);
        let windows = f.windows_for(idle_slots, 0);
        let elements = f.topology().elements() as u64;
        tr.span("fabric.runtime.idle_window_ns", windows * elements, |_| {
            black_box(f.run(idle_slots, 0, &idle, 1).windows);
        });
    });
}

/// One radix-4 element fed a recorded inbox at load 0.6: one cell time per
/// window, every input port drawing independently.
fn element_windows(pass: &mut Pass, kind: ElementKind, windows: u64) {
    const RADIX: usize = 4;
    const TERMINALS: usize = 16;
    let width = kind.cell_time(RADIX);
    let mut rng = SplitMix64::new(pass.seed ^ 0xE1E);
    let mut inbox = Vec::new();
    let mut bounds = vec![0usize];
    for w in 0..windows {
        for port in 0..RADIX {
            if rng.chance(0.6) {
                let cell = Cell::new(
                    inbox.len() as u64 + 1,
                    port,
                    rng.below_usize(TERMINALS),
                    w * width,
                );
                inbox.push(fabric::Arrival {
                    cycle: w * width,
                    port: port as u16,
                    cell,
                });
            }
        }
        bounds.push(inbox.len());
    }
    let route = (0..TERMINALS).map(|d| (d % RADIX) as u16).collect();
    let mut elem = kind.build(RADIX, route);
    let name = format!("fabric.element.window_ns.{}", kind.label());
    let emitted = pass.side_slice(|tr: &mut Tracer| {
        tr.span(&name, windows, |_| {
            let mut outbox = Vec::new();
            let mut emitted = 0u64;
            for w in 0..windows {
                outbox.clear();
                let due = &inbox[bounds[w as usize]..bounds[w as usize + 1]];
                elem.run_window(w * width, (w + 1) * width, due, &mut outbox);
                emitted += outbox.len() as u64;
            }
            emitted
        })
    });
    let accounted = emitted + elem.dropped() + elem.occupancy();
    pass.checks
        .check(accounted <= inbox.len() as u64 && emitted > 0, || {
            format!(
                "{name}: {} cells in, {emitted} out, {} dropped",
                inbox.len(),
                elem.dropped()
            )
        });
}

/// What `sweep::map` costs per point when the point does nothing.
fn sweep_engine(pass: &mut Pass) {
    const POINTS: u64 = 10_000;
    sweep::set_jobs(1);
    let points = vec![0u32; POINTS as usize];
    pass.side_slice(|tr| {
        tr.span("bench.sweep.empty_point_ns", POINTS, |_| {
            black_box(sweep::map(&points, |&p| black_box(p)));
        });
    });
}
