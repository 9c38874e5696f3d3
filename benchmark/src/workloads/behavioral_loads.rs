//! `behavioral_loads`: the cell-level model driven event-style at a low,
//! a middle and a near-saturating load. The low-load third is fast-forward
//! (`simkernel::horizon`), the high-load third the dense bit-parallel path
//! (`core::behavioral`); a gain for one paid for by the other shows in one
//! number.

use crate::harness::Pass;
use crate::stats::{mix64, Fnv, Latencies};
use simkernel::{advance_to_batched, SplitMix64};
use switch_core::{BehavioralSwitch, SwitchConfig};

/// Ports per side.
pub const N: usize = 8;
/// Shared-buffer depth in packets.
pub const SLOTS: usize = 64;
/// Cycles per span, and per `forget_departures`. Not a power of two: the
/// departure log then grows to a size well inside its next doubling at
/// every load, so peak memory does not flip with the seed.
pub const CHUNK: u64 = 3 << 16;
/// Cycles the final drain may take.
const DRAIN_LIMIT: u64 = 1_000_000;

/// One third of the workload.
pub struct LoadPoint {
    /// Offered link load.
    pub load: f64,
    /// Name suffix (`load10`, …).
    pub tag: &'static str,
    /// Cycles at scale 1: chosen so each load is about a third of the wall.
    pub cycles: u64,
    /// Chunks per timed slice.
    chunks_per_slice: u64,
}

/// The three loads.
pub const LOADS: [LoadPoint; 3] = [
    LoadPoint {
        load: 0.10,
        tag: "load10",
        cycles: 48 << 20,
        chunks_per_slice: 16,
    },
    LoadPoint {
        load: 0.50,
        tag: "load50",
        cycles: 12 << 20,
        chunks_per_slice: 4,
    },
    LoadPoint {
        load: 0.95,
        tag: "load95",
        cycles: 12 << 20,
        chunks_per_slice: 2,
    },
];

/// A packet header offered to the switch.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Cycle of the header.
    pub at: u64,
    /// Input link.
    pub input: u8,
    /// Destination output.
    pub dst: u8,
}

/// The benchmark's own arrival generator: per input, packets of `2n` cycles
/// separated by geometric idle gaps, so the long-run link load is `load`.
/// One RNG stream per input makes the schedule independent of how it is cut
/// into slices.
pub struct Schedule {
    /// Per input: its stream and the cycle of its next header.
    inputs: Vec<(SplitMix64, u64)>,
    start_prob: f64,
    packet_cycles: u64,
}

impl Schedule {
    /// The schedule for `seed` at `load`.
    pub fn new(n: usize, load: f64, seed: u64) -> Self {
        let s = 2.0 * n as f64;
        let start_prob = load / (load + s * (1.0 - load));
        let inputs = (0..n)
            .map(|i| {
                let mut rng = SplitMix64::stream(seed, i as u64);
                let first = rng.geometric(start_prob);
                (rng, first)
            })
            .collect();
        Schedule {
            inputs,
            start_prob,
            packet_cycles: 2 * n as u64,
        }
    }

    /// Every arrival before cycle `end` not handed out yet, by `(at, input)`.
    pub fn until(&mut self, end: u64, out: &mut Vec<Arrival>) {
        out.clear();
        let n = self.inputs.len();
        for (i, (rng, next)) in self.inputs.iter_mut().enumerate() {
            while *next < end {
                out.push(Arrival {
                    at: *next,
                    input: i as u8,
                    dst: rng.below_usize(n) as u8,
                });
                *next += self.packet_cycles + rng.geometric(self.start_prob);
            }
        }
        out.sort_unstable_by_key(|a| (a.at, a.input));
    }
}

/// A fresh switch.
pub fn switch(cfg: SwitchConfig) -> BehavioralSwitch {
    BehavioralSwitch::new(cfg)
}

/// Everything built before the first simulated cycle.
pub fn setup(_seed: u64) {
    for _ in &LOADS {
        std::hint::black_box(switch(SwitchConfig::symmetric(N, SLOTS)));
    }
}

/// Event-style drive: jump to each arrival cycle, tick it, then run on to `end`.
pub fn drive_events(sw: &mut BehavioralSwitch, arrivals: &[Arrival], end: u64) {
    let mut arr = [None; N];
    let mut k = 0;
    while k < arrivals.len() {
        let t = arrivals[k].at;
        advance_to_batched(sw, t);
        arr.fill(None);
        while k < arrivals.len() && arrivals[k].at == t {
            arr[arrivals[k].input as usize] = Some(arrivals[k].dst as usize);
            k += 1;
        }
        sw.tick(&arr);
    }
    advance_to_batched(sw, end);
}

fn arrival_hash(birth: u64, input: usize, output: usize) -> u64 {
    mix64(birth << 16 | (input as u64) << 8 | output as u64)
}

/// One pass.
pub fn run(pass: &mut Pass) {
    for (k, point) in LOADS.iter().enumerate() {
        let cycles = pass.scaled(point.cycles, 1);
        let mut sched = Schedule::new(N, point.load, pass.seed ^ (k as u64 + 1) << 56);
        let mut sw = switch(SwitchConfig::symmetric(N, SLOTS));
        let span = format!("core.behavioral.ff_ns_per_cycle.{}", point.tag);
        let (skipped0, executed0) = (
            simkernel::horizon::ff_skipped(),
            simkernel::horizon::ff_executed(),
        );
        let verifying = pass.verifying();
        let (mut offered, mut departed) = (0u64, 0u64);
        let (mut offered_set, mut departed_set) = (0u64, 0u64);
        let (mut latencies, mut detail) = (Latencies::default(), Fnv::default());
        let mut arrivals = Vec::new();
        let mut done = 0u64;
        while done < cycles {
            let slice_end = (done + CHUNK * point.chunks_per_slice).min(cycles);
            sched.until(slice_end, &mut arrivals);
            offered += arrivals.len() as u64;
            if verifying {
                for a in &arrivals {
                    offered_set = offered_set.wrapping_add(arrival_hash(
                        a.at,
                        a.input as usize,
                        a.dst as usize,
                    ));
                }
            }
            pass.slice(|tr| {
                let mut rest = &arrivals[..];
                while done < slice_end {
                    let end = (done + CHUNK).min(slice_end);
                    let (now, later) = rest.split_at(rest.partition_point(|a| a.at < end));
                    rest = later;
                    tr.span(&span, end - done, |_| {
                        drive_events(&mut sw, now, end);
                        if end == cycles {
                            let mut tail = Vec::new();
                            // A hang shows as a non-quiescent switch below.
                            let _ = sw.drain_into(DRAIN_LIMIT, &mut tail);
                        }
                        if verifying {
                            for d in sw.departures() {
                                latencies.add(d.head_latency());
                                departed_set = departed_set
                                    .wrapping_add(arrival_hash(d.birth, d.input, d.output));
                                for x in [d.id, d.read_start, d.done] {
                                    detail.mix(x);
                                }
                            }
                        }
                        departed += sw.departures().len() as u64;
                        sw.forget_departures();
                    });
                    done = end;
                }
            });
        }
        let dropped = offered - departed.min(offered);
        let tag = point.tag;
        pass.checks
            .check(sw.is_quiescent() && departed <= offered, || {
                format!(
                    "behavioral {tag}: offered {offered}, departed {departed}, quiescent {}",
                    sw.is_quiescent()
                )
            });
        if verifying && dropped == 0 {
            pass.checks.check(offered_set == departed_set, || {
                format!("behavioral {tag}: departures are not the offered packets")
            });
        }
        let skipped = simkernel::horizon::ff_skipped() - skipped0;
        let executed = simkernel::horizon::ff_executed() - executed0;
        pass.tracer
            .count(&format!("simkernel.horizon.skipped.{tag}"), skipped);
        pass.tracer
            .count(&format!("simkernel.horizon.executed.{tag}"), executed);
        pass.tracer.count("core.behavioral.departed", departed);
        pass.tracer.count("core.behavioral.dropped", dropped);
        pass.work += cycles;
        for x in [offered, departed, skipped, sw.now()] {
            pass.digest.mix(x);
        }
        pass.detail.mix(detail.0);
        pass.latencies.merge(&latencies);
        pass.offered += offered;
        pass.delivered += departed;
    }
}
