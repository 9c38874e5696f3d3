//! Tracked perf-regression harness (`expt bench [--gate]`).
//!
//! Measures the hot paths the event-horizon work optimizes — behavioral
//! and RTL cycle cost, and fast-forward vs dense stepping at 10 % / 50 %
//! / 95 % offered load — and emits the summary as `BENCH_core.json`.
//! `--gate` instead *reads* the committed `BENCH_core.json` as the
//! baseline and fails when the new numbers fall outside the tolerance
//! band. Absolute nanoseconds are machine-dependent, so the gate checks
//! only machine-portable quantities: the fast-forward speedup ratios
//! (each must stay within a wide band of the baseline, and the low-load
//! point must clear a hard 2.5× floor — backed off from the 3× number
//! the committed baseline demonstrates, to absorb CI-runner jitter),
//! the skipped-cycle fractions (deterministic given the seeds, so they
//! get a tight band), and the dense-path before/after ratios vs the
//! frozen scalar references (both legs run in-process, so the full-load
//! band gets a hard 1.5× floor and every band a no-regression floor).
//! All wall-clock numbers are best-of-N — shared-runner noise is
//! strictly additive, so the minimum estimates true cost.

use crate::e06;
use baselines::harness::run as harness_run;
use baselines::model::{clear_out, CellSwitch};
use baselines::sched::{IslipScheduler, PimScheduler, Rr2dScheduler};
use baselines::{InputFifoSwitch, OutputQueuedSwitch, SharedBufferSwitch, VoqSwitch};
use fabric::{topo, ElementKind, Fabric, Pattern, Workload};
use simkernel::SplitMix64;
use std::fmt::Write as _;
use std::time::Instant;
use switch_core::behavioral::BehavioralSwitch;
use switch_core::config::SwitchConfig;
use switch_core::reference::{BehavioralSwitchRef, PipelinedSwitchRef};
use switch_core::rtl::PipelinedSwitch;
use telemetry::{NullSink, ProbeHandle};
use traffic::{Bernoulli, DestDist, PacketFeeder};

/// One fast-forward-vs-dense measurement point.
#[derive(Debug, Clone, Copy)]
pub struct FfPoint {
    /// Offered link load.
    pub load: f64,
    /// Dense per-cycle stepping (one `tick` per cycle, no idle
    /// batching), ns per simulated cycle.
    pub dense_ns: f64,
    /// Event-horizon fast-forwarding, ns per simulated cycle.
    pub ff_ns: f64,
    /// dense_ns / ff_ns.
    pub speedup: f64,
    /// Fraction of simulated cycles the kernel skipped.
    pub skipped_fraction: f64,
}

/// One low-load E6 row timed end to end: the full size grid at one
/// offered load, run once through `e06::measure_reference` (the pre-PR
/// per-cycle implementation) and once through the event-driven
/// `e06::measure`. Bit-exactness of the fast path is asserted against
/// `e06::measure_dense` (dense replay of the same schedule) alongside.
#[derive(Debug, Clone, Copy)]
pub struct E6Wall {
    /// Offered link load.
    pub load: f64,
    /// Wall seconds for the pre-PR per-cycle implementation across the
    /// size grid.
    pub dense_secs: f64,
    /// Wall seconds for the event-driven fast-forward implementation
    /// across the size grid.
    pub ff_secs: f64,
    /// dense_secs / ff_secs.
    pub speedup: f64,
}

/// Telemetry-overhead check: the same behavioral schedule run with no
/// probe attached vs with a [`NullSink`] probe. Baseline-free — both
/// sides run in the same process on the same machine, so the ratio is
/// machine-portable where absolute nanoseconds are not.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryCheck {
    /// ns per cycle, probe field `None` (the shipped hot path).
    pub plain_ns: f64,
    /// ns per cycle with a `NullSink` attached (every emission site
    /// constructs and discards its event).
    pub null_sink_ns: f64,
    /// null_sink_ns / plain_ns.
    pub ratio: f64,
    /// Departure counts were byte-identical between the two runs.
    pub departures_match: bool,
}

/// One dense-path before/after point: the frozen scalar reference
/// (`switch_core::reference`) vs the bit-parallel model, same schedule,
/// same process. The ratio is machine-portable where absolute
/// nanoseconds are not, so the gate can put a hard floor under it.
#[derive(Debug, Clone, Copy)]
pub struct DensePoint {
    /// Offered link load.
    pub load: f64,
    /// Frozen scalar reference, ns per simulated cycle.
    pub scalar_ref_ns: f64,
    /// Bit-parallel dense path, ns per simulated cycle.
    pub bitparallel_ns: f64,
    /// scalar_ref_ns / bitparallel_ns.
    pub speedup: f64,
}

/// One RTL twin comparison point, run switch-only (the wire schedule is
/// rendered outside the timed region, so feeder RNG cost — ~25 % of the
/// feeders-in-loop number — does not dilute the ratio). Measured at low
/// load, where the wave ring and lazy bank opening replace the old
/// O(stages)-every-cycle bookkeeping, and at high load, where per-word
/// bank accesses dominate and the rework must simply not regress.
#[derive(Debug, Clone, Copy)]
pub struct RtlCompare {
    /// Offered link load.
    pub load: f64,
    /// Frozen scalar reference RTL, ns per simulated cycle.
    pub scalar_ref_ns: f64,
    /// Reworked RTL (wave ring, occupancy words), ns per cycle.
    pub bitparallel_ns: f64,
    /// scalar_ref_ns / bitparallel_ns.
    pub speedup: f64,
}

/// Fabric-runtime scaling check: the 1024-endpoint omega of behavioral
/// pipelined-memory elements run sequentially and with four worker
/// shards, same workload. Both legs run in this process, so the speedup
/// ratio is machine-portable; absolute cell rates are recorded for the
/// EXPERIMENTS.md scaling table but not gated.
#[derive(Debug, Clone, Copy)]
pub struct FabricPerf {
    /// `available_parallelism()` on the measuring machine — the gate
    /// only demands real speedup where real cores exist.
    pub cores: usize,
    /// Million cells (offered + delivered) per wall second, `jobs = 1`.
    pub seq_mcells: f64,
    /// Million cells per wall second, `jobs = 4`.
    pub par_mcells: f64,
    /// seq wall / par wall.
    pub speedup: f64,
    /// The sharded run's content digest matched the sequential run's.
    pub bit_exact: bool,
}

/// The slot-level zoo (`crates/baselines`) as a rung of the ladder: each
/// architecture driven through `baselines::harness::run` at
/// [`ZooPerf::PORTS`] ports and [`ZooPerf::LOAD`] for [`ZooPerf::SLOTS`]
/// slots, next to the same run over a model that does nothing (source,
/// statistics and the per-slot `occupancy()` poll). Recorded, not gated.
#[derive(Debug, Clone, Default)]
pub struct ZooPerf {
    /// The harness over a null model, ns per slot.
    pub null_model_ns: f64,
    /// (architecture, ns per slot, harness included).
    pub slot_ns: Vec<(&'static str, f64)>,
}

impl ZooPerf {
    /// Switch size of the rung (E15's full-depth size).
    pub const PORTS: usize = 16;
    /// Offered load per input.
    pub const LOAD: f64 = 0.8;
    /// Slots per run.
    pub const SLOTS: u64 = 30_000;
}

/// The full measurement set behind `BENCH_core.json`.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Behavioral model, ns per cycle at 50 % load (dense).
    pub behavioral_cycle_ns: f64,
    /// Pipelined RTL, ns per cycle at 80 % load (feeders in loop — the
    /// historical end-to-end number).
    pub rtl_cycle_ns: f64,
    /// Dense-path before/after at 10 % / 50 % / 95 % load.
    pub dense: Vec<DensePoint>,
    /// RTL before/after at 10 % / 80 % load, switch-only.
    pub rtl: Vec<RtlCompare>,
    /// Fast-forward points at 10 % / 50 % / 95 % load.
    pub ff: Vec<FfPoint>,
    /// E6's low-load rows (≤ 25 % offered load) timed dense vs
    /// fast-forward — the EXPERIMENTS.md runtime-table numbers.
    pub e6: Vec<E6Wall>,
    /// Telemetry-off vs NullSink overhead on the behavioral hot path.
    pub telemetry: TelemetryCheck,
    /// The slot-level comparison architectures, ns per slot.
    pub zoo: ZooPerf,
    /// Fabric-runtime sequential vs sharded scaling check.
    pub fabric: FabricPerf,
}

/// Simulated cycles per measurement (quick mode shrinks for CI smoke).
fn cycles(quick: bool) -> u64 {
    match std::env::var("BENCH_CYCLES")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(c) => c,
        None if quick => 120_000,
        None => 400_000,
    }
}

/// The e06-style arrival schedule at load `p`: per-input busy-counter
/// simulation replaying the exact RNG draw order of a dense drive loop.
fn schedule(n: usize, s: usize, p: f64, total: u64, seed: u64) -> Vec<(u64, usize, usize)> {
    let q = if p >= 1.0 {
        1.0
    } else {
        p / (p + s as f64 * (1.0 - p))
    };
    let mut rng = SplitMix64::new(seed);
    let mut busy = vec![0usize; n];
    let mut sched = Vec::new();
    for t in 0..total {
        for (i, b) in busy.iter_mut().enumerate() {
            if *b == 0 {
                if rng.chance(q) {
                    sched.push((t, i, rng.below_usize(n)));
                    *b = s - 1;
                }
            } else {
                *b -= 1;
            }
        }
    }
    sched
}

/// Dense replay: tick every cycle. Returns the departure count (a
/// black-box sink and a cross-check against the fast path).
pub fn behavioral_dense(n: usize, sched: &[(u64, usize, usize)], total: u64) -> u64 {
    behavioral_dense_probed(n, sched, total, None)
}

/// Dense replay with an optional probe attached — the telemetry-overhead
/// measurement point.
pub fn behavioral_dense_probed(
    n: usize,
    sched: &[(u64, usize, usize)],
    total: u64,
    probe: Option<ProbeHandle>,
) -> u64 {
    let mut sw = BehavioralSwitch::new(SwitchConfig::symmetric(n, 4 * n.max(8)));
    if let Some(p) = probe {
        sw.attach_probe(p);
    }
    let mut arr = vec![None; n];
    let mut k = 0;
    let mut t = 0u64;
    // Dense = execute every cycle (no horizon skipping), but idle-input
    // spans between scheduled arrivals go through the fused batch entry
    // — the bit-parallel dense path's multi-cycle kernel — instead of
    // per-cycle wrapper calls. Bit-exact by the `BatchTick` contract
    // (pinned by `tests/bitparallel_diff.rs` against the frozen scalar
    // reference).
    while t < total {
        if k < sched.len() && sched[k].0 == t {
            arr.fill(None);
            while k < sched.len() && sched[k].0 == t {
                arr[sched[k].1] = Some(sched[k].2);
                k += 1;
            }
            sw.tick(&arr);
            t += 1;
        } else {
            let next = if k < sched.len() { sched[k].0 } else { total };
            sw.tick_idle_batch(next - t);
            t = next;
        }
    }
    sw.departures().len() as u64
}

/// Fast-forward replay through the event-horizon kernel. Returns
/// (departures, cycles skipped).
pub fn behavioral_ff(n: usize, sched: &[(u64, usize, usize)], total: u64) -> (u64, u64) {
    let mut sw = BehavioralSwitch::new(SwitchConfig::symmetric(n, 4 * n.max(8)));
    let mut arr = vec![None; n];
    let mut k = 0;
    let before = simkernel::horizon::ff_skipped();
    while k < sched.len() {
        let t = sched[k].0;
        simkernel::horizon::advance_to_batched(&mut sw, t);
        arr.fill(None);
        while k < sched.len() && sched[k].0 == t {
            arr[sched[k].1] = Some(sched[k].2);
            k += 1;
        }
        sw.tick(&arr);
    }
    simkernel::horizon::advance_to_batched(&mut sw, total);
    let skipped = simkernel::horizon::ff_skipped() - before;
    (sw.departures().len() as u64, skipped)
}

/// Per-cycle dense replay of the bit-parallel model: one `tick` per
/// simulated cycle, no idle batching. This is the "dense stepping" leg
/// of the fast-forward comparison — the driver-level baseline the
/// horizon kernel is supposed to beat.
pub fn behavioral_dense_percycle(n: usize, sched: &[(u64, usize, usize)], total: u64) -> u64 {
    let mut sw = BehavioralSwitch::new(SwitchConfig::symmetric(n, 4 * n.max(8)));
    let mut arr = vec![None; n];
    let mut k = 0;
    for t in 0..total {
        arr.fill(None);
        while k < sched.len() && sched[k].0 == t {
            arr[sched[k].1] = Some(sched[k].2);
            k += 1;
        }
        sw.tick(&arr);
    }
    sw.departures().len() as u64
}

/// Scalar-reference dense replay: per-cycle ticks on the frozen pre-PR
/// model — the "before" leg of the dense-path comparison.
pub fn behavioral_dense_ref(n: usize, sched: &[(u64, usize, usize)], total: u64) -> u64 {
    let mut sw = BehavioralSwitchRef::new(SwitchConfig::symmetric(n, 4 * n.max(8)));
    let mut arr = vec![None; n];
    let mut k = 0;
    for t in 0..total {
        arr.fill(None);
        while k < sched.len() && sched[k].0 == t {
            arr[sched[k].1] = Some(sched[k].2);
            k += 1;
        }
        sw.tick(&arr);
    }
    sw.departures().len() as u64
}

/// Pre-render a feeder-driven wire schedule so the RTL comparison times
/// the switch, not the traffic generator.
fn render_wires(n: usize, s: usize, load: f64, total: u64, seed: u64) -> Vec<Vec<Option<u64>>> {
    let mut feeders: Vec<PacketFeeder> = (0..n)
        .map(|i| PacketFeeder::random(i, s, load, DestDist::uniform(n), seed, n as u64))
        .collect();
    (0..total)
        .map(|t| (0..n).map(|i| feeders[i].tick(t)).collect())
        .collect()
}

/// Replay a pre-rendered wire schedule on the reworked RTL switch.
pub fn rtl_dense(cfg: &SwitchConfig, wires: &[Vec<Option<u64>>]) -> u64 {
    let mut sw = PipelinedSwitch::new(cfg.clone());
    for w in wires {
        sw.tick(w);
    }
    sw.counters().departed
}

/// Same replay on the frozen scalar-reference RTL.
pub fn rtl_dense_ref(cfg: &SwitchConfig, wires: &[Vec<Option<u64>>]) -> u64 {
    let mut sw = PipelinedSwitchRef::new(cfg.clone());
    for w in wires {
        sw.tick(w);
    }
    sw.counters().departed
}

fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = std::hint::black_box(f());
    (t0.elapsed().as_secs_f64(), r)
}

/// Best-of-`k` timing. Shared-runner noise is strictly additive
/// (scheduler preemption, cache eviction by neighbors), so the minimum
/// is the best estimator of the true cost. Also asserts the runs agree
/// on their result — the measured code must be deterministic.
fn min_of<R: PartialEq + std::fmt::Debug>(k: usize, mut f: impl FnMut() -> (f64, R)) -> (f64, R) {
    let (mut best, first) = f();
    for _ in 1..k {
        let (secs, r) = f();
        assert_eq!(r, first, "measured code was not deterministic across runs");
        best = best.min(secs);
    }
    (best, first)
}

/// A slot-level model that buffers nothing and delivers nothing: what is
/// left of a harness run is the harness.
struct NullModel(usize);

impl CellSwitch for NullModel {
    fn ports(&self) -> usize {
        self.0
    }
    fn tick(
        &mut self,
        _now: u64,
        _arr: &[Option<simkernel::Cell>],
        out: &mut [Option<simkernel::Cell>],
    ) {
        clear_out(out);
    }
    fn occupancy(&self) -> usize {
        0
    }
    fn dropped(&self) -> u64 {
        0
    }
    fn name(&self) -> &'static str {
        "null"
    }
}

/// Measure the zoo rung (see [`ZooPerf`]).
fn measure_zoo(reps: usize) -> ZooPerf {
    type Make = fn(usize) -> Box<dyn CellSwitch>;
    let zoo: [(&'static str, Make); 6] = [
        ("input_fifo", |n| Box::new(InputFifoSwitch::new(n, None, 1))),
        ("voq_pim", |n| {
            Box::new(VoqSwitch::new(n, None, PimScheduler::new(4, 2)))
        }),
        ("voq_islip", |n| {
            Box::new(VoqSwitch::new(n, None, IslipScheduler::new(n, 4)))
        }),
        ("voq_2drr", |n| {
            Box::new(VoqSwitch::new(n, None, Rr2dScheduler::new()))
        }),
        ("output_queued", |n| {
            Box::new(OutputQueuedSwitch::new(n, None))
        }),
        ("shared", |n| Box::new(SharedBufferSwitch::new(n, None))),
    ];
    let n = ZooPerf::PORTS;
    let slot_ns = |make: Make| {
        let (secs, _) = min_of(reps, || {
            let mut model = make(n);
            let mut src = Bernoulli::new(n, ZooPerf::LOAD, DestDist::uniform(n), 0x200);
            time(|| {
                let s = harness_run(model.as_mut(), &mut src, ZooPerf::SLOTS, 0);
                (s.samples, s.final_occupancy)
            })
        });
        secs * 1e9 / ZooPerf::SLOTS as f64
    };
    ZooPerf {
        null_model_ns: slot_ns(|n| Box::new(NullModel(n))),
        slot_ns: zoo
            .iter()
            .map(|&(arch, make)| (arch, slot_ns(make)))
            .collect(),
    }
}

/// Run every measurement.
pub fn measure(quick: bool) -> PerfReport {
    let n = 4;
    let s = SwitchConfig::symmetric(n, 4 * n).stages();
    let total = cycles(quick);
    let reps = if quick { 2 } else { 3 };

    let mid = schedule(n, s, 0.5, total, 0xBE7C);
    let (behavioral_secs, _) = min_of(reps, || time(|| behavioral_dense(n, &mid, total)));

    let rtl_total = total / 4;
    let (rtl_secs, _) = min_of(reps, || {
        time(|| {
            let cfg = SwitchConfig::symmetric(n, 4 * n);
            let sw_s = cfg.stages();
            let mut sw = PipelinedSwitch::new(cfg);
            let mut feeders: Vec<PacketFeeder> = (0..n)
                .map(|i| PacketFeeder::random(i, sw_s, 0.8, DestDist::uniform(n), 3, n as u64))
                .collect();
            let mut wire = vec![None; n];
            for _ in 0..rtl_total {
                for (i, f) in feeders.iter_mut().enumerate() {
                    wire[i] = f.tick(sw.now());
                }
                sw.tick(&wire);
            }
            sw.counters().departed
        })
    });

    // Dense-path before/after: frozen scalar reference vs bit-parallel
    // model on the same schedule, in this process. Departure equality is
    // asserted on every leg — the speedup only counts if the behavior is
    // identical.
    let dense: Vec<DensePoint> = [0.10, 0.50, 0.95]
        .iter()
        .map(|&p| {
            let sched = schedule(n, s, p, total, 0xD0 + (p * 100.0) as u64);
            let (ref_secs, ref_deps) =
                min_of(reps, || time(|| behavioral_dense_ref(n, &sched, total)));
            let (new_secs, new_deps) = min_of(reps, || time(|| behavioral_dense(n, &sched, total)));
            assert_eq!(
                ref_deps, new_deps,
                "bit-parallel path diverged from scalar reference at load {p}"
            );
            let scalar_ref_ns = ref_secs * 1e9 / total as f64;
            let bitparallel_ns = new_secs * 1e9 / total as f64;
            DensePoint {
                load: p,
                scalar_ref_ns,
                bitparallel_ns,
                speedup: scalar_ref_ns / bitparallel_ns.max(1e-12),
            }
        })
        .collect();

    // RTL twins, switch-only: the same pre-rendered wire schedule
    // through both models, at an idle-dominated and a busy load point.
    let rtl: Vec<RtlCompare> = [0.10, 0.80]
        .iter()
        .map(|&p| {
            let cfg = SwitchConfig::symmetric(n, 4 * n);
            let wires = render_wires(n, cfg.stages(), p, rtl_total, 3);
            let (ref_secs, ref_deps) = min_of(reps, || time(|| rtl_dense_ref(&cfg, &wires)));
            let (new_secs, new_deps) = min_of(reps, || time(|| rtl_dense(&cfg, &wires)));
            assert_eq!(
                ref_deps, new_deps,
                "RTL rework diverged from scalar reference at load {p}"
            );
            let scalar_ref_ns = ref_secs * 1e9 / rtl_total as f64;
            let bitparallel_ns = new_secs * 1e9 / rtl_total as f64;
            RtlCompare {
                load: p,
                scalar_ref_ns,
                bitparallel_ns,
                speedup: scalar_ref_ns / bitparallel_ns.max(1e-12),
            }
        })
        .collect();

    let ff = [0.10, 0.50, 0.95]
        .iter()
        .map(|&p| {
            let sched = schedule(n, s, p, total, 0xF0 + (p * 100.0) as u64);
            let (dense_secs, dense_deps) = min_of(reps, || {
                time(|| behavioral_dense_percycle(n, &sched, total))
            });
            // `skipped` is a delta of a process-global counter, so only
            // the departure count takes part in the determinism check.
            let (ff_secs, (ff_deps, skipped)) = {
                let (s0, (d0, k0)) = time(|| behavioral_ff(n, &sched, total));
                let mut best = s0;
                for _ in 1..reps {
                    let (s1, (d1, _)) = time(|| behavioral_ff(n, &sched, total));
                    assert_eq!(d1, d0, "fast-forward replay was not deterministic");
                    best = best.min(s1);
                }
                (best, (d0, k0))
            };
            assert_eq!(
                dense_deps, ff_deps,
                "fast-forward changed the departure count at load {p}"
            );
            let dense_ns = dense_secs * 1e9 / total as f64;
            let ff_ns = ff_secs * 1e9 / total as f64;
            FfPoint {
                load: p,
                dense_ns,
                ff_ns,
                speedup: dense_ns / ff_ns.max(1e-12),
                skipped_fraction: skipped as f64 / total as f64,
            }
        })
        .collect();

    // E6's low-load rows, wall-timed over the experiment's own size grid
    // (the acceptance measurement: ≤ 25 % offered load, before vs after).
    let sizes: &[usize] = if quick { &[4, 8] } else { &[2, 4, 8, 16] };
    let e6 = [0.10, 0.20]
        .iter()
        .map(|&p| {
            let (mut dense_secs, mut ff_secs) = (0.0, 0.0);
            for &sn in sizes {
                let (ds, reference) = time(|| e06::measure_reference(sn, p, total, 0xE6));
                let (fs, fast) = time(|| e06::measure(sn, p, total, 0xE6));
                // Bit-exactness holds against a dense replay of the same
                // schedule; the pre-PR fused loop draws from a different
                // stream, so it agrees only statistically.
                let oracle = e06::measure_dense(sn, p, total, 0xE6);
                assert_eq!(
                    oracle.to_bits(),
                    fast.to_bits(),
                    "e6 fast-forward diverged at n={sn} load {p}"
                );
                assert!(
                    (reference - fast).abs() < 0.1,
                    "e6 statistic drifted at n={sn} load {p}: {reference} vs {fast}"
                );
                dense_secs += ds;
                ff_secs += fs;
            }
            E6Wall {
                load: p,
                dense_secs,
                ff_secs,
                speedup: dense_secs / ff_secs.max(1e-12),
            }
        })
        .collect();

    // Telemetry overhead: the same mid-load schedule, probe off vs a
    // NullSink. Both legs run back to back so the ratio is comparable
    // even on a noisy shared runner.
    let (plain_secs, plain_deps) = min_of(reps, || time(|| behavioral_dense(n, &mid, total)));
    let (null_secs, null_deps) = min_of(reps, || {
        time(|| behavioral_dense_probed(n, &mid, total, Some(ProbeHandle::new(NullSink))))
    });
    let plain_ns = plain_secs * 1e9 / total as f64;
    let null_sink_ns = null_secs * 1e9 / total as f64;
    let telemetry = TelemetryCheck {
        plain_ns,
        null_sink_ns,
        ratio: null_sink_ns / plain_ns.max(1e-12),
        departures_match: plain_deps == null_deps,
    };

    // Fabric scaling: the 1024-endpoint omega of behavioral elements,
    // sequential vs four conservative-window worker shards, identical
    // workload. The digest comparison makes every gated run also a
    // bit-exactness check of the sharded executor.
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let fab_slots: u64 = if quick { 96 } else { 384 };
    let fab_wl = Workload {
        pattern: Pattern::Uniform,
        load: 0.6,
        seed: 0xFAB,
    };
    let fab_leg = |jobs: usize| {
        let mut fab = Fabric::new(topo::omega(4, 5), ElementKind::Behavioral { slots: 16 });
        let run = fab.run(fab_slots, 64, &fab_wl, jobs);
        (run.offered + run.delivered_total(), run.digest())
    };
    let (seq_secs, (seq_cells, seq_digest)) = min_of(reps, || time(|| fab_leg(1)));
    let (par_secs, (_, par_digest)) = min_of(reps, || time(|| fab_leg(4)));
    let fabric = FabricPerf {
        cores,
        seq_mcells: seq_cells as f64 / seq_secs.max(1e-12) / 1e6,
        par_mcells: seq_cells as f64 / par_secs.max(1e-12) / 1e6,
        speedup: seq_secs / par_secs.max(1e-12),
        bit_exact: seq_digest == par_digest,
    };

    PerfReport {
        behavioral_cycle_ns: behavioral_secs * 1e9 / total as f64,
        rtl_cycle_ns: rtl_secs * 1e9 / rtl_total as f64,
        dense,
        rtl,
        ff,
        e6,
        telemetry,
        zoo: measure_zoo(reps),
        fabric,
    }
}

/// Render `BENCH_core.json` (hand-rolled: the workspace builds offline,
/// without serde).
pub fn to_json(r: &PerfReport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(
        s,
        "  \"behavioral_cycle_ns\": {:.1},",
        r.behavioral_cycle_ns
    );
    let _ = writeln!(s, "  \"rtl_cycle_ns\": {:.1},", r.rtl_cycle_ns);
    s.push_str("  \"dense_path\": [\n");
    for (k, p) in r.dense.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"dense_load\": {:.2}, \"scalar_ref_ns\": {:.1}, \
             \"bitparallel_ns\": {:.1}, \"dense_speedup\": {:.2}}}",
            p.load, p.scalar_ref_ns, p.bitparallel_ns, p.speedup
        );
        s.push_str(if k + 1 < r.dense.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"rtl_compare\": [\n");
    for (k, p) in r.rtl.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"rtl_load\": {:.2}, \"scalar_ref_ns\": {:.1}, \"bitparallel_ns\": {:.1}, \
             \"rtl_speedup\": {:.2}}}",
            p.load, p.scalar_ref_ns, p.bitparallel_ns, p.speedup
        );
        s.push_str(if k + 1 < r.rtl.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"fast_forward\": [\n");
    for (k, p) in r.ff.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"load\": {:.2}, \"dense_ns_per_cycle\": {:.1}, \"ff_ns_per_cycle\": {:.1}, \
             \"speedup\": {:.2}, \"skipped_fraction\": {:.4}}}",
            p.load, p.dense_ns, p.ff_ns, p.speedup, p.skipped_fraction
        );
        s.push_str(if k + 1 < r.ff.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"e6_low_load_wall\": [\n");
    for (k, w) in r.e6.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"e6_load\": {:.2}, \"dense_secs\": {:.3}, \"ff_secs\": {:.3}, \
             \"wall_speedup\": {:.2}}}",
            w.load, w.dense_secs, w.ff_secs, w.speedup
        );
        s.push_str(if k + 1 < r.e6.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"telemetry\": {{\"plain_ns\": {:.1}, \"null_sink_ns\": {:.1}, \
         \"overhead_ratio\": {:.3}, \"departures_match\": {}}},",
        r.telemetry.plain_ns,
        r.telemetry.null_sink_ns,
        r.telemetry.ratio,
        r.telemetry.departures_match
    );
    let _ = write!(
        s,
        "  \"baselines\": {{\"zoo_ports\": {}, \"zoo_load\": {:.2}, \"zoo_slots\": {}, \
         \"slot_ns\": {{\"null_model\": {:.1}",
        ZooPerf::PORTS,
        ZooPerf::LOAD,
        ZooPerf::SLOTS,
        r.zoo.null_model_ns
    );
    for (arch, ns) in &r.zoo.slot_ns {
        let _ = write!(s, ", \"{arch}\": {ns:.1}");
    }
    s.push_str("}},\n");
    let _ = writeln!(
        s,
        "  \"fabric\": {{\"cores\": {}, \"fabric_seq_mcells\": {:.2}, \
         \"fabric_par_mcells\": {:.2}, \"fabric_speedup\": {:.2}, \"fabric_bit_exact\": {}}}",
        r.fabric.cores,
        r.fabric.seq_mcells,
        r.fabric.par_mcells,
        r.fabric.speedup,
        r.fabric.bit_exact
    );
    s.push_str("}\n");
    s
}

/// Human summary.
pub fn render(r: &PerfReport) -> String {
    let mut s = String::from("perf: core hot-path benchmarks\n");
    let _ = writeln!(
        s,
        "  behavioral cycle: {:7.1} ns   rtl cycle: {:7.1} ns",
        r.behavioral_cycle_ns, r.rtl_cycle_ns
    );
    for p in &r.dense {
        let _ = writeln!(
            s,
            "  dense path @ {:>3.0}%: scalar ref {:7.1} ns/cyc -> bit-parallel {:7.1} ns/cyc \
             ({:4.2}x)",
            p.load * 100.0,
            p.scalar_ref_ns,
            p.bitparallel_ns,
            p.speedup
        );
    }
    for p in &r.rtl {
        let _ = writeln!(
            s,
            "  rtl switch-only @ {:>3.0}%: scalar ref {:7.1} ns/cyc -> reworked {:7.1} ns/cyc \
             ({:4.2}x)",
            p.load * 100.0,
            p.scalar_ref_ns,
            p.bitparallel_ns,
            p.speedup
        );
    }
    for p in &r.ff {
        let _ = writeln!(
            s,
            "  load {:>4.0}%: dense {:7.1} ns/cyc, fast-forward {:7.1} ns/cyc — \
             {:5.1}x speedup, {:5.1}% cycles skipped",
            p.load * 100.0,
            p.dense_ns,
            p.ff_ns,
            p.speedup,
            p.skipped_fraction * 100.0
        );
    }
    for w in &r.e6 {
        let _ = writeln!(
            s,
            "  e6 size grid @ load {:>3.0}%: dense {:6.2} s, fast-forward {:6.2} s — {:5.1}x wall speedup",
            w.load * 100.0,
            w.dense_secs,
            w.ff_secs,
            w.speedup
        );
    }
    let _ = writeln!(
        s,
        "  telemetry off {:7.1} ns/cyc, NullSink {:7.1} ns/cyc — {:.3}x overhead, departures {}",
        r.telemetry.plain_ns,
        r.telemetry.null_sink_ns,
        r.telemetry.ratio,
        if r.telemetry.departures_match {
            "identical"
        } else {
            "DIVERGED"
        }
    );
    let _ = write!(
        s,
        "  baselines {0}x{0} @ {1:.0}%, ns/slot under the harness: null model {2:.0}",
        ZooPerf::PORTS,
        ZooPerf::LOAD * 100.0,
        r.zoo.null_model_ns
    );
    for (arch, ns) in &r.zoo.slot_ns {
        let _ = write!(s, ", {arch} {ns:.0}");
    }
    s.push('\n');
    let _ = writeln!(
        s,
        "  fabric omega-1024 behavioral: seq {:.2} Mcells/s, 4-shard {:.2} Mcells/s — \
         {:.2}x on {} core(s), sharded run {}",
        r.fabric.seq_mcells,
        r.fabric.par_mcells,
        r.fabric.speedup,
        r.fabric.cores,
        if r.fabric.bit_exact {
            "bit-exact"
        } else {
            "DIVERGED"
        }
    );
    s
}

/// Pull `"key": <float>` out of a JSON line (the format `to_json` emits).
fn grab(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Baseline numbers parsed back out of a committed `BENCH_core.json`.
pub struct Baseline {
    /// (load, speedup, skipped_fraction) per fast-forward point.
    pub ff: Vec<(f64, f64, f64)>,
}

/// Parse the committed baseline.
pub fn parse_baseline(json: &str) -> Option<Baseline> {
    let ff: Vec<(f64, f64, f64)> = json
        .lines()
        .filter(|l| l.contains("\"load\""))
        .filter_map(|l| {
            Some((
                grab(l, "load")?,
                grab(l, "speedup")?,
                grab(l, "skipped_fraction")?,
            ))
        })
        .collect();
    (!ff.is_empty()).then_some(Baseline { ff })
}

/// Gate `fresh` against `baseline`. Returns every violation (empty =
/// pass). Bands: each speedup must reach 40 % of its baseline (wall
/// clock is noisy in CI), the 10 %-load point must additionally clear a
/// hard 2.5× floor (the committed baseline records 3.5×; the floor is
/// backed off from the 3× acceptance number only to absorb shared-runner
/// jitter), and skipped fractions — deterministic given the seeds —
/// must sit within ±0.05 of the baseline.
pub fn gate(fresh: &PerfReport, baseline: &Baseline) -> Vec<String> {
    let mut violations = Vec::new();
    // Telemetry checks are baseline-free (both legs ran in this very
    // process): with the probe off the hot path must stay the hot path,
    // and attaching a NullSink must not change behavior at all.
    if !fresh.telemetry.departures_match {
        violations.push(
            "attaching a NullSink probe changed the departure count — \
             telemetry is not behavior-neutral"
                .to_string(),
        );
    }
    if fresh.telemetry.ratio > 1.5 {
        violations.push(format!(
            "NullSink telemetry overhead {:.3}x exceeds the 1.5x bound",
            fresh.telemetry.ratio
        ));
    }
    // Dense-path floors are baseline-free too: both legs of each ratio
    // ran in this process, so the ratio is machine-portable. The full-
    // load point carries the PR's headline claim (≥ 2× measured on the
    // reference machine; the floor is backed off to absorb runner
    // jitter), the rest must simply never regress past noise.
    for p in &fresh.dense {
        let floor = if p.load > 0.9 { 1.5 } else { 0.9 };
        if p.speedup < floor {
            violations.push(format!(
                "dense path at load {:.0}%: {:.2}x vs scalar reference, below the {:.1}x floor",
                p.load * 100.0,
                p.speedup,
                floor
            ));
        }
    }
    // Fabric floors are baseline-free as well: both legs ran in this
    // process. Bit-exactness is absolute; the speedup floor scales with
    // the cores actually present — a four-shard run on a one-core box
    // only has to avoid catastrophic overhead, on four real cores it
    // must deliver genuine parallel speedup.
    if !fresh.fabric.bit_exact {
        violations.push(
            "sharded fabric run diverged from the sequential reference — \
             the conservative-window executor is not bit-exact"
                .to_string(),
        );
    }
    let fab_floor = if fresh.fabric.cores >= 4 {
        1.05
    } else if fresh.fabric.cores >= 2 {
        0.5
    } else {
        0.2
    };
    if fresh.fabric.speedup < fab_floor {
        violations.push(format!(
            "fabric 4-shard speedup {:.2}x on {} core(s), below the {:.2}x floor",
            fresh.fabric.speedup, fresh.fabric.cores, fab_floor
        ));
    }
    // The RTL against its scalar twin, which shares the banks, the buffer
    // manager and the packet helpers: under load the flat datapath must at
    // least match it; the idle-dominated point only must not regress past
    // noise.
    for p in &fresh.rtl {
        let floor = if p.load > 0.5 { 1.0 } else { 0.85 };
        if p.speedup < floor {
            violations.push(format!(
                "RTL at load {:.0}%: {:.2}x vs scalar reference ({:.1} vs {:.1} ns/cycle), \
                 below the {:.2}x floor",
                p.load * 100.0,
                p.speedup,
                p.bitparallel_ns,
                p.scalar_ref_ns,
                floor
            ));
        }
    }
    for p in &fresh.ff {
        let Some(&(_, base_speedup, base_skip)) = baseline
            .ff
            .iter()
            .find(|(l, _, _)| (l - p.load).abs() < 1e-6)
        else {
            violations.push(format!("baseline has no point at load {:.2}", p.load));
            continue;
        };
        if p.load < 0.2 && p.speedup < 2.5 {
            violations.push(format!(
                "low-load fast-forward speedup {:.2}x below the 2.5x floor",
                p.speedup
            ));
        }
        if p.speedup < 0.4 * base_speedup {
            violations.push(format!(
                "load {:.0}%: speedup {:.2}x fell below 40% of baseline {:.2}x",
                p.load * 100.0,
                p.speedup,
                base_speedup
            ));
        }
        if (p.skipped_fraction - base_skip).abs() > 0.05 {
            violations.push(format!(
                "load {:.0}%: skipped fraction {:.4} drifted from baseline {:.4}",
                p.load * 100.0,
                p.skipped_fraction,
                base_skip
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fabric section that passes every gate floor (one core, so only
    /// the catastrophic floor applies).
    fn ok_fabric() -> FabricPerf {
        FabricPerf {
            cores: 1,
            seq_mcells: 1.0,
            par_mcells: 0.5,
            speedup: 0.5,
            bit_exact: true,
        }
    }

    #[test]
    fn dense_and_ff_replay_agree() {
        let n = 4;
        let s = SwitchConfig::symmetric(n, 4 * n.max(8)).stages();
        let sched = schedule(n, s, 0.2, 30_000, 7);
        let d = behavioral_dense(n, &sched, 30_000);
        let (f, skipped) = behavioral_ff(n, &sched, 30_000);
        assert_eq!(d, f, "departure counts must match");
        assert!(skipped > 0, "low load must skip cycles");
    }

    #[test]
    fn json_roundtrips_through_the_gate_parser() {
        let r = PerfReport {
            behavioral_cycle_ns: 120.0,
            rtl_cycle_ns: 450.0,
            dense: vec![
                DensePoint {
                    load: 0.95,
                    scalar_ref_ns: 148.0,
                    bitparallel_ns: 70.0,
                    speedup: 2.11,
                },
                DensePoint {
                    load: 0.10,
                    scalar_ref_ns: 40.0,
                    bitparallel_ns: 30.0,
                    speedup: 1.33,
                },
            ],
            rtl: vec![RtlCompare {
                load: 0.80,
                scalar_ref_ns: 400.0,
                bitparallel_ns: 360.0,
                speedup: 1.11,
            }],
            ff: vec![
                FfPoint {
                    load: 0.10,
                    dense_ns: 100.0,
                    ff_ns: 10.0,
                    speedup: 10.0,
                    skipped_fraction: 0.8123,
                },
                FfPoint {
                    load: 0.95,
                    dense_ns: 100.0,
                    ff_ns: 90.0,
                    speedup: 1.11,
                    skipped_fraction: 0.01,
                },
            ],
            e6: vec![E6Wall {
                load: 0.10,
                dense_secs: 2.0,
                ff_secs: 0.5,
                speedup: 4.0,
            }],
            telemetry: TelemetryCheck {
                plain_ns: 100.0,
                null_sink_ns: 110.0,
                ratio: 1.1,
                departures_match: true,
            },
            zoo: ZooPerf {
                null_model_ns: 150.0,
                slot_ns: vec![("input_fifo", 555.5), ("voq_pim", 900.0)],
            },
            fabric: ok_fabric(),
        };
        let json = to_json(&r);
        assert!(
            json.contains(
                "\"baselines\": {\"zoo_ports\": 16, \"zoo_load\": 0.80, \"zoo_slots\": 30000, \
                 \"slot_ns\": {\"null_model\": 150.0, \"input_fifo\": 555.5, \"voq_pim\": 900.0}},\n"
            ),
            "{json}"
        );
        let b = parse_baseline(&json).expect("parses");
        assert_eq!(b.ff.len(), 2);
        assert!((b.ff[0].1 - 10.0).abs() < 1e-6);
        assert!((b.ff[0].2 - 0.8123).abs() < 1e-6);
        assert!(gate(&r, &b).is_empty(), "self-gate must pass");
    }

    #[test]
    fn gate_catches_regressions() {
        let base = Baseline {
            ff: vec![(0.10, 10.0, 0.80)],
        };
        let bad = PerfReport {
            behavioral_cycle_ns: 0.0,
            rtl_cycle_ns: 0.0,
            dense: vec![],
            rtl: vec![RtlCompare {
                load: 0.80,
                scalar_ref_ns: 400.0,
                bitparallel_ns: 400.0,
                speedup: 1.0,
            }],
            ff: vec![FfPoint {
                load: 0.10,
                dense_ns: 100.0,
                ff_ns: 50.0,
                speedup: 2.0,
                skipped_fraction: 0.30,
            }],
            e6: vec![],
            telemetry: TelemetryCheck {
                plain_ns: 100.0,
                null_sink_ns: 100.0,
                ratio: 1.0,
                departures_match: true,
            },
            zoo: ZooPerf::default(),
            fabric: ok_fabric(),
        };
        let v = gate(&bad, &base);
        assert_eq!(v.len(), 3, "floor + band + skip drift: {v:?}");
    }

    #[test]
    fn gate_catches_telemetry_regressions() {
        let base = Baseline {
            ff: vec![(0.10, 10.0, 0.80)],
        };
        let bad = PerfReport {
            behavioral_cycle_ns: 0.0,
            rtl_cycle_ns: 0.0,
            dense: vec![],
            rtl: vec![RtlCompare {
                load: 0.80,
                scalar_ref_ns: 400.0,
                bitparallel_ns: 400.0,
                speedup: 1.0,
            }],
            ff: vec![],
            e6: vec![],
            telemetry: TelemetryCheck {
                plain_ns: 100.0,
                null_sink_ns: 200.0,
                ratio: 2.0,
                departures_match: false,
            },
            zoo: ZooPerf::default(),
            fabric: ok_fabric(),
        };
        let v = gate(&bad, &base);
        assert_eq!(v.len(), 2, "overhead bound + behavior drift: {v:?}");
        assert!(v.iter().any(|m| m.contains("1.5x")));
        assert!(v.iter().any(|m| m.contains("behavior-neutral")));
    }

    #[test]
    fn gate_holds_the_dense_path_floors() {
        let base = Baseline { ff: vec![] };
        let bad = PerfReport {
            behavioral_cycle_ns: 0.0,
            rtl_cycle_ns: 0.0,
            dense: vec![
                DensePoint {
                    load: 0.95,
                    scalar_ref_ns: 148.0,
                    bitparallel_ns: 120.0,
                    speedup: 1.23, // below the 1.5x full-load floor
                },
                DensePoint {
                    load: 0.50,
                    scalar_ref_ns: 100.0,
                    bitparallel_ns: 125.0,
                    speedup: 0.8, // a regression vs the scalar reference
                },
            ],
            rtl: vec![
                RtlCompare {
                    load: 0.80,
                    scalar_ref_ns: 400.0,
                    bitparallel_ns: 420.0,
                    speedup: 0.95, // below the 1.0x floor under load
                },
                RtlCompare {
                    load: 0.10,
                    scalar_ref_ns: 80.0,
                    bitparallel_ns: 90.0,
                    speedup: 0.89, // idle-dominated: only 0.85x is asked
                },
            ],
            ff: vec![],
            e6: vec![],
            telemetry: TelemetryCheck {
                plain_ns: 100.0,
                null_sink_ns: 100.0,
                ratio: 1.0,
                departures_match: true,
            },
            zoo: ZooPerf::default(),
            fabric: ok_fabric(),
        };
        let v = gate(&bad, &base);
        assert_eq!(v.len(), 3, "two dense floors + rtl floor: {v:?}");
        assert!(v.iter().any(|m| m.contains("95%")));
        assert!(v.iter().any(|m| m.contains("50%")));
        assert!(v.iter().any(|m| m.contains("RTL at load 80%")));
    }

    #[test]
    fn gate_holds_the_fabric_floors() {
        let base = Baseline { ff: vec![] };
        let mut r = PerfReport {
            behavioral_cycle_ns: 0.0,
            rtl_cycle_ns: 0.0,
            dense: vec![],
            rtl: vec![],
            ff: vec![],
            e6: vec![],
            telemetry: TelemetryCheck {
                plain_ns: 100.0,
                null_sink_ns: 100.0,
                ratio: 1.0,
                departures_match: true,
            },
            zoo: ZooPerf::default(),
            fabric: FabricPerf {
                cores: 4,
                seq_mcells: 1.0,
                par_mcells: 0.9,
                speedup: 0.9, // four real cores must beat 1.05x
                bit_exact: false,
            },
        };
        let v = gate(&r, &base);
        assert_eq!(v.len(), 2, "divergence + speedup floor: {v:?}");
        assert!(v.iter().any(|m| m.contains("bit-exact")));
        assert!(v.iter().any(|m| m.contains("1.05x floor")));
        // The same numbers on one core only trip the catastrophic floor.
        r.fabric.cores = 1;
        r.fabric.bit_exact = true;
        assert!(gate(&r, &base).is_empty(), "one-core box: 0.9x passes");
    }
}
