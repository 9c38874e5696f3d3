//! Departure-exact pins of the §2 architecture zoo (`crates/baselines`).
//!
//! The slot-level models are the comparison the paper's tables rest on;
//! their representation may change (it is the hot path of E1/E4/E12/E15),
//! their behaviour may not: every cell must leave the same output in the
//! same slot, in the same RNG order, as when the golden file was written.

mod common;

use baselines::harness;
use baselines::input_smoothing::InputSmoothingSwitch;
use baselines::model::CellSwitch;
use baselines::sched::{IslipScheduler, PimScheduler, Rr2dScheduler};
use baselines::voq::VoqSwitch;
use bench_harness::e15;
use common::{check_golden, Fnv};
use simkernel::cell::Cell;
use simkernel::SharedBuffer;
use std::fmt::Write as _;
use traffic::sources::CellSource;
use traffic::{Bernoulli, DestDist};

const SLOTS: u64 = 4_000;

/// One `baselines::harness::run`-style run (ids assigned per arrival,
/// `occupancy()` polled after every tick), reduced to one golden row.
fn golden_row(arch: &str, model: &mut dyn CellSwitch, load: f64, cap: Option<usize>) -> String {
    let n = model.ports();
    let mut src = Bernoulli::new(n, load, DestDist::uniform(n), 0xBA5E);
    let mut dests = vec![None; n];
    let mut arrivals: Vec<Option<Cell>> = vec![None; n];
    let mut out: Vec<Option<Cell>> = vec![None; n];
    let mut digest = Fnv::new();
    let (mut next_id, mut departed, mut peak) = (0u64, 0u64, 0usize);
    for now in 0..SLOTS {
        src.poll(now, &mut dests);
        for (i, d) in dests.iter().enumerate() {
            arrivals[i] = d.map(|dst| {
                next_id += 1;
                Cell::new(next_id, i, dst, now)
            });
        }
        model.tick(now, &arrivals, &mut out);
        for (j, c) in out.iter().enumerate() {
            if let Some(c) = c {
                assert_eq!(c.dst.index(), j, "{arch}: cell left the wrong output");
                digest.words(&[now, j as u64, c.id.0]);
                departed += 1;
            }
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

/// The rows above drive the models through their own loop; this pins what
/// `baselines::harness::run` itself measures, under a uniform and a
/// hotspot destination draw. Regenerate `tests/golden/harness_runstats.txt`
/// (`UPDATE_GOLDEN=1`) only when simulated behaviour is meant to change.
#[test]
fn harness_runstats_match_the_golden_file() {
    let mut doc = String::from(
        "# baselines::harness::run: 4000 slots (warmup 800) of Bernoulli traffic, seed 0xBA5E.\n\
         # offered, utilization and loss are f64 bit patterns. The mean latency is printed\n\
         # at {:.6}: an exact integer sum / count and Welford's running mean of the same\n\
         # samples differ by ≈ 1e-13, so it pins the samples, not the summation order.\n\
         # architecture | dist n load capacity | samples p99 peak final | offered utilization loss | mean\n",
    );
    let dists = [
        ("uniform", DestDist::uniform(8)),
        ("hotspot", DestDist::hotspot(8, 0, 0.25)),
    ];
    for (name, dist) in &dists {
        for (arch, factory) in e15::zoo(8) {
            for load in [0.5, 0.9, 0.995] {
                for cap in [None, Some(4)] {
                    let mut src = Bernoulli::new(8, load, dist.clone(), 0xBA5E);
                    let s = harness::run(factory(cap).as_mut(), &mut src, SLOTS, 800);
                    let cap = cap.map_or("inf".to_string(), |c| c.to_string());
                    let p99 = s.p99_latency.map_or("-".to_string(), |p| p.to_string());
                    writeln!(
                        doc,
                        "{arch} | {name} 8 {load} {cap} | {} {p99} {} {} | {:#018x} {:#018x} {:#018x} | {:.6}",
                        s.samples,
                        s.peak_occupancy,
                        s.final_occupancy,
                        s.offered_load.to_bits(),
                        s.utilization.to_bits(),
                        s.loss.to_bits(),
                        s.mean_latency,
                    )
                    .expect("string write");
                }
            }
        }
    }
    check_golden("harness_runstats.txt", &doc);
}
