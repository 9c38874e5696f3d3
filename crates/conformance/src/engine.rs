//! Campaign engine: one seed in, one verdict out — plus the coverage
//! aggregation that gates whether a campaign actually exercised the
//! corner cases it claims to have tested.
//!
//! [`run_seed`] is a pure function of `(base_seed, index)`, so a campaign
//! can be sharded across any number of workers (`sweep::map` in the bench
//! harness) and still produce bit-identical reports.

use crate::driver::{run_with, Org};
use crate::oracle::{check_scenario, ScenarioStats};
use crate::scenario::Scenario;
use crate::shrink::shrink;
use simkernel::error::SimError;
use simkernel::split_seed;
use std::fmt;
use telemetry::{flight, Recorder, Shared};

/// Cycles of probe events retained when a failing seed is replayed for
/// its post-mortem dump (the flight-recorder window).
pub const POST_MORTEM_WINDOW: usize = 256;

/// RNG stream offset separating campaign indices from the scenario
/// stream itself: scenario `k` of base seed `B` is generated from
/// `split_seed(B, k)`.
pub const CAMPAIGN_BASE_SEED: u64 = 0xC0F0_2026;

/// A failing seed, fully processed: the original divergence, the
/// scenario that produced it, and the shrunk minimal reproducer.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The divergence the full scenario produced.
    pub error: SimError,
    /// The generated scenario.
    pub scenario: Scenario,
    /// The minimal reproducer (still fails the oracle).
    pub shrunk: Scenario,
    /// The divergence the minimal reproducer produces.
    pub shrunk_error: SimError,
    /// Flight-recorder post-mortem: the last [`POST_MORTEM_WINDOW`]
    /// probe events of the shrunk reproducer replayed on the pipelined
    /// RTL (the design under test).
    pub dump: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DIVERGENCE: {}", self.error)?;
        writeln!(
            f,
            "  original: {} offers on n={} slots={} (seed {:#018x})",
            self.scenario.offers.len(),
            self.scenario.n,
            self.scenario.slots,
            self.scenario.seed
        )?;
        writeln!(
            f,
            "  shrunk reproducer ({} offers): {}",
            self.shrunk.offers.len(),
            self.shrunk_error
        )?;
        writeln!(f, "  {}", self.shrunk)?;
        write!(f, "{}", self.dump)
    }
}

/// Replay the shrunk reproducer on the pipelined RTL with a bounded
/// flight recorder attached and render the post-mortem event window.
fn record_post_mortem(shrunk: &Scenario, shrunk_error: &SimError) -> String {
    let rec = Shared::new(Recorder::bounded(POST_MORTEM_WINDOW));
    let _ = run_with(shrunk, Org::Pipelined, Some(rec.handle()));
    flight::post_mortem_shared(&format!("{shrunk_error}"), &rec)
}

/// The verdict for one campaign seed.
#[derive(Debug, Clone)]
pub enum SeedOutcome {
    /// All organizations agreed; coverage stats collected.
    Pass(ScenarioStats),
    /// A divergence, with its shrunk reproducer.
    Fail(Box<Failure>),
}

/// One seed's verdict, tagged with its campaign position.
#[derive(Debug, Clone)]
pub struct SeedReport {
    /// Campaign index (0-based).
    pub index: u64,
    /// The derived scenario seed (`split_seed(base, index)`).
    pub scenario_seed: u64,
    /// What happened.
    pub outcome: SeedOutcome,
}

/// Run campaign seed `index` of `base`: generate, replay on all four
/// organizations, check the oracle, shrink on failure. Pure function of
/// its arguments — shard it freely.
pub fn run_seed(base: u64, index: u64) -> SeedReport {
    let scenario_seed = split_seed(base, index);
    let mut scenario = Scenario::generate(scenario_seed);
    // Every fourth seed replays under an ECC-recovery overlay: a low-rate
    // upset plan the armed organizations must correct back to full
    // conformance (open-loop — an uncorrectable double-hit in credited
    // mode would leak a credit and wedge the drain, which is the e16
    // harness's resync territory, not the differential oracle's).
    if index % 4 == 3 {
        scenario = scenario
            .with_fault(0.02, scenario_seed ^ 0x0ECC)
            .with_recovery();
        scenario.credited = false;
        // Fault overlays never combine with non-static sharing policies:
        // recovery shedding takes priority over policy admission, so a
        // policy draw on these seeds would test neither subsystem cleanly.
        scenario.policy = switch_core::PolicyKind::Static;
    }
    let outcome = match check_scenario(&scenario) {
        Ok(stats) => SeedOutcome::Pass(stats),
        Err(error) => {
            let (shrunk, shrunk_error) = shrink(&scenario);
            let dump = record_post_mortem(&shrunk, &shrunk_error);
            SeedOutcome::Fail(Box::new(Failure {
                error,
                scenario,
                shrunk,
                shrunk_error,
                dump,
            }))
        }
    };
    SeedReport {
        index,
        scenario_seed,
        outcome,
    }
}

/// Campaign-wide aggregation: corner-case coverage counters and the §3.4
/// latency population.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Coverage {
    /// Scenarios checked.
    pub scenarios: u64,
    /// Scenarios that diverged.
    pub failures: u64,
    /// Total packets launched (pipelined runs).
    pub launched: u64,
    /// Total packets delivered (pipelined runs).
    pub delivered: u64,
    /// §3.2 read/write arbitration collisions reached.
    pub rw_collisions: u64,
    /// §3.3 fused cut-through reads reached.
    pub cut_through_hits: u64,
    /// Same-cycle transmission starts reached.
    pub same_cycle_starts: u64,
    /// Full-buffer backpressure events reached.
    pub full_buffer_stalls: u64,
    /// Σ (head latency − 2) over idle-output departures.
    pub idle_excess_sum: f64,
    /// Idle-output departures measured.
    pub idle_excess_count: u64,
    /// Σ §3.4 formula over the same departures.
    pub idle_formula_sum: f64,
}

impl Coverage {
    /// Fold one seed's verdict in.
    pub fn absorb(&mut self, report: &SeedReport) {
        self.scenarios += 1;
        match &report.outcome {
            SeedOutcome::Pass(s) => {
                self.launched += s.launched;
                self.delivered += s.delivered;
                self.rw_collisions += s.rw_collisions;
                self.cut_through_hits += s.cut_through_hits;
                self.same_cycle_starts += s.same_cycle_starts;
                self.full_buffer_stalls += s.full_buffer_stalls;
                self.idle_excess_sum += s.idle_excess_sum;
                self.idle_excess_count += s.idle_excess_count;
                self.idle_formula_sum += s.idle_formula_sum;
            }
            SeedOutcome::Fail(_) => self.failures += 1,
        }
    }

    /// Did the campaign reach every §3.2/§3.3 corner case at least once?
    /// A campaign that never collided a read with a write, never started
    /// two transmissions in one cycle, never filled the buffer and never
    /// cut a packet through proves much less than its seed count implies.
    pub fn corner_cases_reached(&self) -> bool {
        self.rw_collisions > 0
            && self.cut_through_hits > 0
            && self.same_cycle_starts > 0
            && self.full_buffer_stalls > 0
    }

    /// Mean extra cut-through latency over idle-output departures.
    pub fn mean_idle_excess(&self) -> f64 {
        if self.idle_excess_count == 0 {
            0.0
        } else {
            self.idle_excess_sum / self.idle_excess_count as f64
        }
    }

    /// Mean §3.4 prediction over the same population.
    pub fn mean_formula(&self) -> f64 {
        if self.idle_excess_count == 0 {
            0.0
        } else {
            self.idle_formula_sum / self.idle_excess_count as f64
        }
    }

    /// Statistical §3.4 gate: with enough samples, the measured mean
    /// extra latency must sit within a generous envelope of the formula.
    /// (The per-packet hard bound is enforced per scenario by the oracle;
    /// this catches systematic drift the hard bound would miss.)
    pub fn latency_within_formula(&self) -> bool {
        // Below this the mean is dominated by whichever load mix the few
        // scenarios happened to draw (second-order queueing noise, not
        // drift): an 8-seed campaign can sit past the envelope with no
        // model at fault. CI budgets (64+ seeds) are well above it.
        const MIN_SAMPLES: u64 = 2000;
        if self.idle_excess_count < MIN_SAMPLES {
            return true;
        }
        self.mean_idle_excess() <= 3.0 * self.mean_formula() + 0.3
    }

    /// Deterministic multi-line summary (no timestamps, no floats beyond
    /// fixed precision) — safe to diff byte-for-byte across `--jobs`.
    pub fn summary(&self) -> String {
        format!(
            "scenarios            {:>8}\n\
             divergences          {:>8}\n\
             packets launched     {:>8}\n\
             packets delivered    {:>8}\n\
             coverage: rw-arbitration collisions {:>8}\n\
             coverage: cut-through hits          {:>8}\n\
             coverage: same-cycle starts         {:>8}\n\
             coverage: full-buffer stalls        {:>8}\n\
             sec3.4: idle-output departures      {:>8}\n\
             sec3.4: mean extra latency          {:>8.4}\n\
             sec3.4: formula prediction          {:>8.4}",
            self.scenarios,
            self.failures,
            self.launched,
            self.delivered,
            self.rw_collisions,
            self.cut_through_hits,
            self.same_cycle_starts,
            self.full_buffer_stalls,
            self.idle_excess_count,
            self.mean_idle_excess(),
            self.mean_formula(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_seed_is_reproducible() {
        let a = run_seed(CAMPAIGN_BASE_SEED, 3);
        let b = run_seed(CAMPAIGN_BASE_SEED, 3);
        assert_eq!(a.scenario_seed, b.scenario_seed);
        match (&a.outcome, &b.outcome) {
            (SeedOutcome::Pass(x), SeedOutcome::Pass(y)) => assert_eq!(x, y),
            (SeedOutcome::Fail(x), SeedOutcome::Fail(y)) => {
                assert_eq!(x.shrunk, y.shrunk);
            }
            _ => panic!("verdict flipped between identical runs"),
        }
    }

    #[test]
    fn post_mortem_dump_carries_the_event_window() {
        // Any failing seed gets this dump attached; force the rendering
        // path directly on a known-good scenario.
        let sc = Scenario::generate(split_seed(CAMPAIGN_BASE_SEED, 0));
        let err = SimError::Watchdog {
            limit: 1,
            context: "forced".to_string(),
        };
        let dump = record_post_mortem(&sc, &err);
        assert!(dump.contains("post-mortem"), "headline present: {dump}");
        assert!(dump.contains("forced"), "error text in headline");
        assert!(
            dump.contains("header"),
            "the event window must show arrivals:\n{dump}"
        );
    }

    #[test]
    fn coverage_accumulates_across_seeds() {
        let mut cov = Coverage::default();
        for k in 0..12 {
            cov.absorb(&run_seed(CAMPAIGN_BASE_SEED, k));
        }
        assert_eq!(cov.scenarios, 12);
        assert_eq!(cov.failures, 0, "clean models must not diverge");
        assert!(cov.launched > 0 && cov.delivered > 0 && cov.delivered <= cov.launched);
        assert!(cov.latency_within_formula());
    }
}
