//! Tier-1 differential conformance: a fixed-budget fuzz campaign over
//! all four memory organizations, the seeded-fault detect-and-shrink
//! path, cross-`--jobs` determinism, and the minimal reproducer the
//! fuzzer once caught the wide-memory model with.

mod common;

use common::{check_golden, Fnv};
use conformance::engine::CAMPAIGN_BASE_SEED;
use conformance::oracle::check_runs;
use conformance::{check_scenario, run, run_seed, shrink, Offer, Org, Scenario, SeedOutcome};
use std::fmt::Write as _;

/// A fixed-budget campaign must come back clean — zero divergences —
/// while proving it reached the §3.2/§3.3 corner cases (arbitration
/// collisions, cut-through hits, same-cycle starts, full-buffer stalls)
/// and that the aggregate §3.4 latency stayed inside the formula
/// envelope. The embedded shrinker self-test seeds a bank-upset fault
/// through `faultsim` and requires it to shrink to a tiny reproducer.
#[test]
fn fixed_budget_campaign_is_clean() {
    let (report, ok) = bench_harness::fuzz::campaign(64, bench_harness::fuzz::DEFAULT_BASE);
    assert!(ok, "conformance campaign failed its gates:\n{report}");
}

/// An intentionally-seeded bank upset must be detected as a divergence
/// and shrink to a reproducer of at most four packets that still fails
/// the same way.
#[test]
fn seeded_fault_shrinks_to_a_tiny_reproducer() {
    let sc = bench_harness::fuzz::detected_fault_scenario(bench_harness::fuzz::DEFAULT_BASE)
        .expect("no detectable seeded fault found");
    let original_offers = sc.offers.len();
    let (shrunk, err) = shrink(&sc);
    assert!(
        shrunk.offers.len() <= 4,
        "reproducer kept {} of {original_offers} offers: {err}\n{shrunk}",
        shrunk.offers.len()
    );
    assert!(
        check_scenario(&shrunk).is_err(),
        "shrunk reproducer no longer fails"
    );
}

/// The campaign report is a pure function of `(base, seeds)`: sharding
/// it over 1 or 8 workers must produce byte-identical output. (CI also
/// diffs the `expt fuzz` output across `--jobs`; this covers the same
/// property without spawning processes.)
#[test]
fn campaign_report_is_byte_identical_across_jobs() {
    bench_harness::sweep::set_jobs(1);
    let (seq, _) = bench_harness::fuzz::campaign(32, 0xFEED);
    bench_harness::sweep::set_jobs(8);
    let (par, _) = bench_harness::fuzz::campaign(32, 0xFEED);
    bench_harness::sweep::set_jobs(0);
    assert_eq!(seq, par, "campaign report varies with worker count");
}

/// Regression: the 15-offer reproducer the fuzzer shrank out of seed
/// index 86 of the default campaign. Two inputs at full load, credited:
/// with absolute read priority on the wide memory's single port, a
/// transient fetch burst starved a staged write past its one-packet
/// deadline and overflowed the double buffer (a loss credits cannot
/// prevent). The urgent-write override keeps every organization
/// loss-free on this schedule.
#[test]
fn wide_memory_write_starvation_reproducer_stays_fixed() {
    let mk = |at, input, dst, id| Offer { at, input, dst, id };
    let sc = Scenario {
        seed: 0x33030a5c64c8d6aa,
        n: 2,
        slots: 8,
        credited: true,
        recovery: false,
        policy: switch_core::PolicyKind::Static,
        load: 1.0,
        offers: vec![
            mk(0, 0, 0, 11),
            mk(0, 1, 1, 12),
            mk(4, 0, 0, 13),
            mk(4, 1, 1, 14),
            mk(8, 0, 1, 15),
            mk(8, 1, 1, 16),
            mk(12, 0, 0, 17),
            mk(12, 1, 1, 18),
            mk(16, 0, 1, 19),
            mk(16, 1, 1, 20),
            mk(20, 0, 0, 21),
            mk(20, 1, 0, 22),
            mk(24, 0, 0, 23),
            mk(24, 1, 0, 24),
            mk(28, 1, 1, 26),
        ],
        horizon: 192,
        fault: None,
    };
    let stats = check_scenario(&sc).unwrap_or_else(|e| panic!("reproducer diverged again: {e}"));
    assert_eq!(stats.launched, 15);
    assert_eq!(stats.delivered, 15, "credited mode may not lose packets");
}

/// Everything the testbench reports about the first 256 campaign seeds:
/// the `Debug` rendering of each organization's whole `RunOutcome`
/// (launches, deliveries, counters, payload failures, stalls, same-cycle
/// starts, idle head latencies, error, recovery report) and of the
/// oracle's `ScenarioStats`. The driver and the oracle are bookkeeping
/// around the models: their representation may change, what they report
/// may not. Regenerate `tests/golden/conformance_digests.txt`
/// (`UPDATE_GOLDEN=1`) only when a model's behaviour is *meant* to change.
#[test]
fn conformance_digests_match_the_golden_file() {
    let mut doc = String::from(
        "# conformance::driver::run on campaign indices 0..256 of CAMPAIGN_BASE_SEED, each\n\
         # scenario as run_seed overlays it. FNV-1a of the Debug rendering of the four\n\
         # RunOutcomes and of the oracle's ScenarioStats.\n\
         # index n slots credited policy offers pipelined behavioral wide interleaved stats\n",
    );
    let (mut stalled, mut full, mut corrected, mut policy_dropped) = (false, false, false, false);
    for index in 0..256u64 {
        // The overlay of `engine::run_seed`, which keeps its scenario to
        // itself; the verdict comparison below holds the two together.
        let seed = simkernel::split_seed(CAMPAIGN_BASE_SEED, index);
        let mut sc = Scenario::generate(seed);
        if index % 4 == 3 {
            sc = sc.with_fault(0.02, seed ^ 0x0ECC).with_recovery();
            sc.credited = false;
            sc.policy = switch_core::PolicyKind::Static;
        }
        let runs: Vec<_> = Org::ALL.iter().map(|&org| run(&sc, org)).collect();
        let stats = match (
            check_runs(&sc, &runs),
            run_seed(CAMPAIGN_BASE_SEED, index).outcome,
        ) {
            (Ok(mine), SeedOutcome::Pass(theirs)) if mine == theirs => mine,
            (mine, theirs) => panic!("index {index}: {mine:?} here, {theirs:?} from run_seed"),
        };
        write!(
            doc,
            "{index} {} {} {} {} {}",
            sc.n,
            sc.slots,
            sc.credited,
            sc.policy.token(),
            sc.offers.len()
        )
        .expect("string write");
        for r in &runs {
            write!(doc, " {:#018x}", Fnv::of(r)).expect("string write");
            stalled |= r.stalls > 0;
            full |= r.counters.dropped_buffer_full > 0;
            corrected |= r.recovery.corrections > 0;
            policy_dropped |= !sc.policy.is_static() && r.counters.policy_drops > 0;
        }
        writeln!(doc, " {:#018x}", Fnv::of(&stats)).expect("string write");
    }
    assert!(
        stalled && full && corrected && policy_dropped,
        "vacuous pin: credit stall {stalled}, buffer-full drop {full}, ECC correction \
         {corrected}, non-static policy drop {policy_dropped}"
    );
    check_golden("conformance_digests.txt", &doc);
}
