//! `fuzz_campaign`: the four organizations used the way the conformance
//! fuzzer uses them — short scenarios with construction and drain, credits,
//! fault overlays with ECC recovery, non-static sharing policies, and the
//! oracle. Catches a dense-path gain paid for in constructor, drain or
//! policy cost.

use crate::harness::{Mode, Pass};
use conformance::{driver, oracle, Coverage, Org, Scenario, SeedOutcome};
use simkernel::split_seed;
use std::collections::HashMap;
use std::hint::black_box;
use switch_core::{
    BehavioralSwitch, InterleavedSwitch, InterleavedSwitchConfig, PipelinedSwitch, SwitchConfig,
    WideMemorySwitchRtl, WideSwitchConfig,
};

const SEEDS: u64 = 4096;
const SEEDS_PER_SLICE: u64 = 64;
/// Seeds the traced pass also takes apart call by call.
const DISSECTED: u64 = 512;

/// The scenarios of the first slice and the four switches `driver::run`
/// builds for each: one scenario alone is 2 to 8 ports wide as the seed has
/// it, and its set-up time with it.
pub fn setup(seed: u64) {
    for i in 0..SEEDS_PER_SLICE {
        let sc = Scenario::generate(split_seed(seed, i));
        let cfg = SwitchConfig::symmetric(sc.n, sc.slots).with_policy(sc.policy);
        black_box((
            PipelinedSwitch::new(cfg.clone()),
            BehavioralSwitch::new(cfg),
            WideMemorySwitchRtl::new(WideSwitchConfig::fig3(sc.n, sc.slots).with_policy(sc.policy)),
            InterleavedSwitch::new(
                InterleavedSwitchConfig::symmetric(sc.n, sc.slots).with_policy(sc.policy),
            ),
            sc,
        ));
    }
}

/// One pass.
pub fn run(pass: &mut Pass) {
    let seeds = pass.scaled(SEEDS, 8);
    let base = pass.seed;
    let mut cov = Coverage::default();
    let mut done = 0;
    while done < seeds {
        let end = (done + SEEDS_PER_SLICE).min(seeds);
        let failed = pass.slice(|tr| {
            tr.span("conformance.engine.run_seed", end - done, |_| {
                (done..end)
                    .filter(|&i| {
                        let report = conformance::run_seed(base, i);
                        cov.absorb(&report);
                        matches!(report.outcome, SeedOutcome::Fail(_))
                    })
                    .count() as u64
            })
        });
        pass.checks.many(end - done, failed, || {
            format!("fuzz seeds {done}..{end} diverged")
        });
        done = end;
    }
    pass.checks.check(cov.corner_cases_reached(), || {
        format!("fuzz coverage missed a corner case:\n{}", cov.summary())
    });
    pass.work += seeds;
    pass.digest.bytes(cov.summary().as_bytes());
    match pass.mode {
        Mode::Verify => latency_population(pass, seeds),
        Mode::Traced => dissect(pass, seeds.min(DISSECTED)),
        Mode::Timed => {}
    }
}

/// Head latencies of the pipelined organization over the campaign's
/// scenarios (as generated, before `run_seed`'s fault overlay), and the
/// carried ratio of the same runs.
fn latency_population(pass: &mut Pass, seeds: u64) {
    for i in 0..seeds {
        let sc = Scenario::generate(split_seed(pass.seed, i));
        let run = driver::run(&sc, Org::Pipelined);
        let launched: HashMap<u64, u64> = run.launches.iter().map(|l| (l.id, l.at)).collect();
        for d in &run.deliveries {
            let at = launched.get(&d.id).copied();
            pass.checks.check(at.is_some(), || {
                format!("fuzz seed {i}: delivered unknown id {}", d.id)
            });
            pass.latencies.add(d.first - at.unwrap_or(d.first));
            for x in [d.id, d.output as u64, d.first, d.last] {
                pass.detail.mix(x);
            }
        }
        pass.offered += run.launches.len() as u64;
        pass.delivered += run.deliveries.len() as u64;
    }
}

/// The layers under `run_seed`, called directly on the first seeds.
fn dissect(pass: &mut Pass, seeds: u64) {
    let base = pass.seed;
    let (failures, offers, deliveries) = pass.side_slice(|tr| {
        let (mut failures, mut offers, mut deliveries) = (0, 0, 0);
        for i in 0..seeds {
            let sc = tr.span("conformance.scenario.generate_ns", 1, |_| {
                Scenario::generate(split_seed(base, i))
            });
            let runs: Vec<_> = Org::ALL
                .iter()
                .map(|&org| {
                    let name = format!("conformance.driver.run_ns.{}", org.label());
                    tr.span(&name, 1, |_| driver::run(&sc, org))
                })
                .collect();
            let verdict = tr.span("conformance.oracle.check_ns", 1, |_| {
                oracle::check_runs(&sc, &runs)
            });
            failures += u64::from(verdict.is_err());
            offers += sc.offers.len() as u64;
            deliveries += runs[0].deliveries.len() as u64;
        }
        (failures, offers, deliveries)
    });
    pass.checks.many(seeds, failures, || {
        "dissected fuzz scenarios diverged".to_string()
    });
    pass.tracer.count("conformance.engine.failures", failures);
    pass.tracer.count("conformance.engine.offers", offers);
    pass.tracer
        .count("conformance.engine.deliveries", deliveries);
}
