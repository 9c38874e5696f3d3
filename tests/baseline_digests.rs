//! Departure-exact pins of the §2 architecture zoo (`crates/baselines`).
//!
//! The slot-level models are the comparison the paper's tables rest on;
//! their representation may change (it is the hot path of E1/E4/E12/E15),
//! their behaviour may not: every cell must leave the same output in the
//! same slot, in the same RNG order, as when the golden file was written.

mod common;

use baselines::harness;
use baselines::input_smoothing::InputSmoothingSwitch;
use baselines::model::{CellSwitch, Row};
use baselines::sched::{IslipScheduler, PimScheduler, Rr2dScheduler};
use baselines::voq::VoqSwitch;
use bench_harness::e15;
use common::{check_golden, Fnv};
use simkernel::cell::Cell;
use simkernel::SharedBuffer;
use std::fmt::Write as _;
use traffic::sources::CellSource;
use traffic::{Bernoulli, BurstyOnOff, DestDist, PermutationSource, TraceSource};

const SLOTS: u64 = 4_000;

/// One `baselines::harness::run`-style run (ids assigned per arrival,
/// `occupancy()` polled after every tick), reduced to one golden row.
fn golden_row(arch: &str, model: &mut dyn CellSwitch, load: f64, cap: Option<usize>) -> String {
    let n = model.ports();
    let mut src = Bernoulli::new(n, load, DestDist::uniform(n), 0xBA5E);
    let mut dests = vec![0; n];
    let (mut arrivals, mut out) = (Row::new(n), Row::new(n));
    let mut digest = Fnv::new();
    let (mut next_id, mut departed, mut peak) = (0u64, 0u64, 0usize);
    for now in 0..SLOTS {
        let mask = src.poll(now, &mut dests);
        arrivals.mask = 0;
        for i in (0..n).filter(|i| mask >> i & 1 == 1) {
            next_id += 1;
            arrivals.put(i, Cell::new(next_id, i, dests[i], now));
        }
        model.tick(now, &arrivals, &mut out);
        for (j, c) in out.iter() {
            assert_eq!(c.dst.index(), j, "{arch}: cell left the wrong output");
            digest.words(&[now, j as u64, c.id.0]);
            departed += 1;
        }
        peak = peak.max(model.occupancy());
    }
    let (dropped, occupancy) = (model.dropped(), model.occupancy());
    assert_eq!(
        next_id,
        departed + dropped + occupancy as u64,
        "{arch}: conservation"
    );
    let cap = cap.map_or("inf".to_string(), |c| c.to_string());
    format!(
        "{arch} | {n} {load} {cap} {departed} {dropped} {occupancy} {peak} {:#018x}",
        digest.0
    )
}

/// A refactor of `crates/baselines` must leave
/// `tests/golden/baseline_digests.txt` byte-identical; regenerate it
/// (`UPDATE_GOLDEN=1`) only when simulated behaviour is meant to change.
#[test]
fn baseline_digests_match_the_golden_file() {
    let mut doc = String::from(
        "# 4000 slots of uniform Bernoulli traffic (seed 0xBA5E), harness-style ids.\n\
         # FNV-1a of every (slot, output, id) departure in output order.\n\
         # architecture | n load capacity departed dropped occupancy peak digest\n",
    );
    let loads = [0.5, 0.9, 0.995];
    let caps = [None, Some(4)];
    for (arch, factory) in e15::zoo(8) {
        for load in loads {
            for cap in caps {
                let row = golden_row(&arch, factory(cap).as_mut(), load, cap);
                writeln!(doc, "{row}").expect("string write");
            }
        }
    }
    // Not in the zoo (E3 only), but its state is kept the same way.
    for load in loads {
        for b in [4, 16] {
            let mut model = InputSmoothingSwitch::new(8, b, 5);
            let row = golden_row("input smoothing [HlKa88]", &mut model, load, Some(b));
            writeln!(doc, "{row}").expect("string write");
        }
    }
    let n = 16;
    for load in loads {
        for cap in caps {
            let voqs: [(&str, Box<dyn CellSwitch>); 3] = [
                (
                    "VOQ + PIM",
                    Box::new(VoqSwitch::new(n, cap, PimScheduler::new(4, 2))),
                ),
                (
                    "VOQ + iSLIP",
                    Box::new(VoqSwitch::new(n, cap, IslipScheduler::new(n, 4))),
                ),
                (
                    "VOQ + 2DRR",
                    Box::new(VoqSwitch::new(n, cap, Rr2dScheduler::new())),
                ),
            ];
            for (arch, mut model) in voqs {
                let row = golden_row(arch, model.as_mut(), load, cap);
                writeln!(doc, "{row}").expect("string write");
            }
        }
    }
    // X1's fenced pool (not in the zoo): a per-output threshold `fence`
    // inside a pool of `pool` cells. Under load the fence must bite, or
    // these rows would pin nothing the unfenced pool does not.
    let digest = |row: &str| row.rsplit(' ').next().expect("digest column").to_string();
    for (pool, fence) in [(32, 8), (16, 2)] {
        let arch = format!("shared, fence {fence}");
        for load in loads {
            let mut fenced = SharedBuffer::switch(8, Some(pool)).fenced(Some(fence));
            let row = golden_row(&arch, &mut fenced, load, Some(pool));
            if load > 0.5 {
                let mut unfenced = SharedBuffer::switch(8, Some(pool));
                let plain = golden_row(&arch, &mut unfenced, load, Some(pool));
                assert_ne!(
                    digest(&row),
                    digest(&plain),
                    "{arch} in a pool of {pool} at load {load}: the fence never bit"
                );
            }
            writeln!(doc, "{row}").expect("string write");
        }
    }
    check_golden("baseline_digests.txt", &doc);
}

/// One `harness::run` of `model` under `src`, reduced to one golden row.
fn runstats_row(
    arch: &str,
    workload: &str,
    model: &mut dyn CellSwitch,
    src: &mut dyn CellSource,
    (slots, warmup): (u64, u64),
) -> String {
    let s = harness::run(model, src, slots, warmup);
    let p99 = s.p99_latency.map_or("-".to_string(), |p| p.to_string());
    format!(
        "{arch} | {workload} | {} {p99} {} {} | {:#018x} {:#018x} {:#018x} | {:.6}",
        s.samples,
        s.peak_occupancy,
        s.final_occupancy,
        s.offered_load.to_bits(),
        s.utilization.to_bits(),
        s.loss.to_bits(),
        s.mean_latency,
    )
}

/// A directed 8-port schedule of 48 slots: every input to output 0, then
/// a rotating permutation, then only the even inputs to output 7.
fn directed_trace() -> Vec<Vec<Option<usize>>> {
    (0..48)
        .map(|t| {
            (0..8)
                .map(|i| match t {
                    0..=15 => Some(0),
                    16..=31 => Some((i + t) % 8),
                    _ => (i % 2 == 0).then_some(7),
                })
                .collect()
        })
        .collect()
}

/// The rows above drive the models through their own loop; this pins what
/// `baselines::harness::run` itself measures, under every `traffic` source:
/// Bernoulli with a uniform and a hotspot destination draw, bursty on/off
/// as X2 draws it, a fixed permutation and a directed trace. Regenerate
/// `tests/golden/harness_runstats.txt` (`UPDATE_GOLDEN=1`) only when
/// simulated behaviour is meant to change.
#[test]
fn harness_runstats_match_the_golden_file() {
    let mut doc = String::from(
        "# baselines::harness::run: 4000 slots (warmup 800) of Bernoulli traffic, seed 0xBA5E.\n\
         # offered, utilization and loss are f64 bit patterns. The mean latency is printed\n\
         # at {:.6}: an exact integer sum / count and Welford's running mean of the same\n\
         # samples differ by ≈ 1e-13, so it pins the samples, not the summation order.\n\
         # architecture | dist n load capacity | samples p99 peak final | offered utilization loss | mean\n",
    );
    let window = (SLOTS, 800);
    let dists = [
        ("uniform", DestDist::uniform(8)),
        ("hotspot", DestDist::hotspot(8, 0, 0.25)),
    ];
    for (name, dist) in &dists {
        for (arch, factory) in e15::zoo(8) {
            for load in [0.5, 0.9, 0.995] {
                for cap in [None, Some(4)] {
                    let mut src = Bernoulli::new(8, load, dist.clone(), 0xBA5E);
                    let cap_name = cap.map_or("inf".to_string(), |c| c.to_string());
                    let workload = format!("{name} 8 {load} {cap_name}");
                    let row =
                        runstats_row(&arch, &workload, factory(cap).as_mut(), &mut src, window);
                    writeln!(doc, "{row}").expect("string write");
                }
            }
        }
    }
    doc.push_str(
        "# The same window under bursty on/off traffic at load 0.6 (uniform bursts, seed 0x22,\n\
         # as X2 draws it) and a fixed permutation; then 200 slots (warmup 8) of a directed\n\
         # 48-slot trace.\n\
         # architecture | source n load-or-burst capacity | samples p99 peak final | offered utilization loss | mean\n",
    );
    for (arch, factory) in e15::zoo(8) {
        for cap in [None, Some(4)] {
            let cap_name = cap.map_or("inf".to_string(), |c| c.to_string());
            for burst in [1.0, 8.0, 32.0] {
                let mut src = BurstyOnOff::new(8, 0.6, burst, DestDist::uniform(8), 0x22);
                let workload = format!("bursty 8 {burst} {cap_name}");
                let row = runstats_row(&arch, &workload, factory(cap).as_mut(), &mut src, window);
                writeln!(doc, "{row}").expect("string write");
            }
            for load in [0.5, 0.9, 0.995] {
                let perm = vec![3, 7, 0, 5, 1, 6, 2, 4];
                let mut src = PermutationSource::new(perm, load, 0xBA5E);
                let workload = format!("permutation 8 {load} {cap_name}");
                let row = runstats_row(&arch, &workload, factory(cap).as_mut(), &mut src, window);
                writeln!(doc, "{row}").expect("string write");
            }
            let mut src = TraceSource::new(8, directed_trace());
            let workload = format!("trace 8 - {cap_name}");
            let row = runstats_row(&arch, &workload, factory(cap).as_mut(), &mut src, (200, 8));
            writeln!(doc, "{row}").expect("string write");
        }
    }
    check_golden("harness_runstats.txt", &doc);
}
