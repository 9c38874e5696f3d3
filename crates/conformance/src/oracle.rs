//! The shared oracle: what *must* hold, for every organization and
//! across organizations, when they replay the same scenario.
//!
//! Every violated property becomes a [`SimError::Divergence`] naming the
//! failed check — the value the shrinker minimizes against, so a shrunk
//! reproducer still fails the *same* check as the original.

use crate::driver::{run, Org, RunOutcome};
use crate::scenario::Scenario;
use simkernel::error::SimError;
use simkernel::ids::Cycle;

/// Per-scenario statistics the campaign aggregates: coverage counters
/// (did the schedule actually reach the §3.2 corner cases?) and the §3.4
/// latency measurement population.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScenarioStats {
    /// Packets launched (pipelined run).
    pub launched: u64,
    /// Packets delivered (pipelined run).
    pub delivered: u64,
    /// Cycles where a read wave and a write wave contended for the single
    /// initiation port (§3.2 arbitration collision).
    pub rw_collisions: u64,
    /// Reads that fused onto their packet's write wave (§3.3 cut-through).
    pub cut_through_hits: u64,
    /// Cycles where two or more inputs started transmission together.
    pub same_cycle_starts: u64,
    /// Full-buffer backpressure events: credit-starved input cycles plus
    /// buffer-full drops in open mode, summed over organizations.
    pub full_buffer_stalls: u64,
    /// Σ (head latency − 2) over idle-output behavioral departures.
    pub idle_excess_sum: f64,
    /// Number of idle-output behavioral departures.
    pub idle_excess_count: u64,
    /// Σ of the §3.4 formula `(p/4)·(n−1)/n` evaluated at this scenario's
    /// measured load, once per idle-output departure.
    pub idle_formula_sum: f64,
}

/// The §3.4 expected extra cut-through latency at load `p`, `n` ports.
pub fn staggered_initiation_formula(p: f64, n: usize) -> f64 {
    (p / 4.0) * (n as f64 - 1.0) / n as f64
}

/// Field widths of a per-flow FIFO row, most significant first: input,
/// launch's destination, first wire cycle, packet id, launch position.
const FLOW: [u32; 5] = [8, 8, 48, 32, 32];
/// Field widths of an output-framing row: output, first wire cycle, last
/// minus first, packet id (a delivered header's 56 id bits).
const FRAME: [u32; 4] = [8, 48, 16, 56];

/// `fields` as one integer whose order is their lexicographic order: each
/// takes the width beside it, the first the most significant bits.
fn pack<const N: usize>(fields: [u64; N], widths: [u32; N]) -> u128 {
    debug_assert!(widths.iter().sum::<u32>() <= 128);
    fields.iter().zip(widths).fold(0, |key, (&f, w)| {
        debug_assert!(f >> w == 0, "{f} does not fit in {w} bits");
        key << w | u128::from(f)
    })
}

/// The fields of a key [`pack`] made with the same widths.
fn unpack<const N: usize>(mut key: u128, widths: [u32; N]) -> [u64; N] {
    let mut fields = [0; N];
    for (f, w) in fields.iter_mut().zip(widths).rev() {
        *f = (key & ((1 << w) - 1)) as u64;
        key >>= w;
    }
    fields
}

fn div(check: &str, detail: String) -> SimError {
    SimError::Divergence {
        check: check.to_string(),
        detail,
    }
}

/// Run all four organizations on `sc` and check the shared oracle.
pub fn check_scenario(sc: &Scenario) -> Result<ScenarioStats, SimError> {
    let runs: Vec<RunOutcome> = Org::ALL.iter().map(|&o| run(sc, o)).collect();
    check_runs(sc, &runs)
}

/// Oracle over already-collected runs (one per organization, in
/// [`Org::ALL`] order).
pub fn check_runs(sc: &Scenario, runs: &[RunOutcome]) -> Result<ScenarioStats, SimError> {
    for r in runs {
        if let Some(e) = &r.error {
            return Err(e.clone());
        }
        check_one(sc, r)?;
    }
    let rtl = &runs[0];
    let bhv = &runs[1];
    // Declared recovery activity legitimately perturbs cross-organization
    // exactness: failover windows shed packets, and an *uncorrectable*
    // upset (a multi-bit hit beyond SEC-DED) falls back to detect-and-
    // drop, removing a packet the clean reference delivers. Corrections
    // alone excuse nothing — a corrections-only armed run still faces the
    // full oracle.
    let recovering = sc.recovery
        && runs.iter().any(|r| {
            r.recovery.windows.count() > 0
                || r.counters.recovery_shed > 0
                || r.counters.ecc_uncorrectable > 0
                || r.counters.corrupt_drops > 0
        });
    if !recovering {
        check_rtl_behavioral_exact(rtl, bhv)?;
        if sc.credited {
            check_delivered_sets_equal(runs)?;
        }
    }
    check_latency(sc, bhv)?;
    let mut stats = ScenarioStats {
        launched: rtl.launches.len() as u64,
        delivered: rtl.deliveries.len() as u64,
        rw_collisions: rtl.counters.rw_collisions,
        cut_through_hits: rtl.counters.fused_reads,
        same_cycle_starts: rtl.same_cycle_starts,
        full_buffer_stalls: runs
            .iter()
            .map(|r| r.stalls + r.counters.dropped_buffer_full)
            .sum(),
        ..ScenarioStats::default()
    };
    accumulate_latency(sc, bhv, &mut stats);
    Ok(stats)
}

/// Properties of a single organization's run.
fn check_one(sc: &Scenario, r: &RunOutcome) -> Result<(), SimError> {
    let s = sc.stages() as Cycle;
    let c = &r.counters;
    let org = r.org;
    if c.arrived != r.launches.len() as u64 {
        return Err(div(
            &format!("{org}-conservation"),
            format!(
                "launched {} but switch counted {} arrivals",
                r.launches.len(),
                c.arrived
            ),
        ));
    }
    if c.departed != r.deliveries.len() as u64 {
        return Err(div(
            &format!("{org}-conservation"),
            format!(
                "switch counted {} departures but {} packets were collected",
                c.departed,
                r.deliveries.len()
            ),
        ));
    }
    // Conservation is never excused: every arrival is delivered or shows
    // up in exactly one loss counter. Policy drops and preemptions are
    // *credited* loss — the policy declared them — but they still have
    // to balance the ledger.
    let accounted = c.departed
        + c.dropped_buffer_full
        + c.latch_overruns
        + c.corrupt_drops
        + c.policy_drops
        + c.policy_preempts;
    if c.arrived != accounted {
        return Err(div(
            &format!("{org}-conservation"),
            format!(
                "{} arrived != {} departed + {} dropped + {} overrun + {} scrubbed \
                 + {} policy-dropped + {} preempted",
                c.arrived,
                c.departed,
                c.dropped_buffer_full,
                c.latch_overruns,
                c.corrupt_drops,
                c.policy_drops,
                c.policy_preempts
            ),
        ));
    }
    // A static pool never invokes the policy counters; any count under
    // the static policy is a model bug, not credited loss.
    if sc.policy.is_static() && (c.policy_drops > 0 || c.policy_preempts > 0) {
        return Err(div(
            &format!("{org}-policy-loss"),
            format!(
                "static policy yet {} policy drops, {} preemptions",
                c.policy_drops, c.policy_preempts
            ),
        ));
    }
    // An armed run with uncorrectable residue may deliver a damaged
    // packet the egress check flags (a multi-bit hit on a cut-through
    // path, past the droppable point) — that is declared, detected
    // degradation, not a model bug.
    let uncorrectable_residue = sc.recovery && c.ecc_uncorrectable > 0;
    if r.payload_failures > 0 && !uncorrectable_residue {
        return Err(div(
            &format!("{org}-payload"),
            format!(
                "{} delivered packets failed payload verification",
                r.payload_failures
            ),
        ));
    }
    // Credited zero-loss, outside declared recovery windows: shedding at
    // admission during a window is the one sanctioned loss (it is a
    // sub-count of `dropped_buffer_full`, so conservation above already
    // covered it).
    if sc.credited && (c.dropped_buffer_full > c.recovery_shed || c.latch_overruns > 0) {
        return Err(div(
            &format!("{org}-zero-loss"),
            format!(
                "credit backpressure active yet {} buffer-full drops ({} excused as \
                 in-window recovery shed), {} overruns",
                c.dropped_buffer_full, c.recovery_shed, c.latch_overruns
            ),
        ));
    }
    // Per-flow FIFO: on every (input, dst) flow, deliveries ordered by
    // wire time must preserve launch order. Sorted rows scanned once, so
    // the violation reported is the first in (flow, wire time) order.
    // `id << 32 | launch position`, sorted (`Drive::new` bounds ids by
    // `MAX_PACKET_ID`).
    let launch_key = |(l, k): (&crate::driver::Launch, u64)| pack([l.id, k], [32, 32]) as u64;
    let mut launch_pos: Vec<u64> = r.launches.iter().zip(0..).map(launch_key).collect();
    launch_pos.sort_unstable();
    // A `FLOW` row per delivery of a launched id.
    let mut flows: Vec<u128> = r
        .deliveries
        .iter()
        .filter_map(|d| {
            let k = launch_pos.partition_point(|&e| e >> 32 < d.id);
            let pos = launch_pos.get(k).filter(|&&e| e >> 32 == d.id)? & 0xFFFF_FFFF;
            let l = &r.launches[pos as usize];
            Some(pack(
                [l.input as u64, l.dst as u64, d.first, d.id, pos],
                FLOW,
            ))
        })
        .collect();
    flows.sort_unstable();
    for w in flows.windows(2) {
        // Same (input, dst) flow, and the launch positions out of order.
        let same_flow = w[0] >> 112 == w[1] >> 112;
        if same_flow && w[1] as u32 <= w[0] as u32 {
            let [input, dst, first, id, pos] = unpack(w[1], FLOW);
            let p = w[0] as u32;
            return Err(div(
                &format!("{org}-flow-fifo"),
                format!(
                    "flow {input}->{dst}: packet {id} (launch #{pos}) delivered at \
                     cycle {first} after a later-launched packet (launch #{p})"
                ),
            ));
        }
    }
    // Output-link framing: transmissions are contiguous and never overlap.
    let mut frames: Vec<u128> = r
        .deliveries
        .iter()
        .map(|d| {
            debug_assert!(d.first <= d.last, "packet {} ends before it starts", d.id);
            pack([d.output as u64, d.first, d.last - d.first, d.id], FRAME)
        })
        .collect();
    frames.sort_unstable();
    let mut prev: Option<(u64, Cycle)> = None; // (output, last cycle)
    for key in frames {
        let [out, first, span, id] = unpack(key, FRAME);
        let last = first + span;
        if span != s - 1 {
            return Err(div(
                &format!("{org}-framing"),
                format!(
                    "output {out}: packet {id} occupied cycles {first}..={last}, \
                     not {s} contiguous words"
                ),
            ));
        }
        if let Some((_, pl)) = prev.filter(|&(o, pl)| o == out && first <= pl) {
            return Err(div(
                &format!("{org}-framing"),
                format!(
                    "output {out}: packet {id} starts at {first} before the \
                     previous transmission ended at {pl}"
                ),
            ));
        }
        prev = Some((out, last));
    }
    Ok(())
}

/// The pipelined RTL and the behavioral model claim *identical* timing
/// semantics: same launches, same per-packet departure intervals, same
/// drops — cycle for cycle.
fn check_rtl_behavioral_exact(rtl: &RunOutcome, bhv: &RunOutcome) -> Result<(), SimError> {
    if rtl.launches != bhv.launches {
        return Err(div(
            "rtl-vs-behavioral",
            format!(
                "launch schedules diverged: rtl made {} launches, behavioral {} \
                 (first difference at index {})",
                rtl.launches.len(),
                bhv.launches.len(),
                rtl.launches
                    .iter()
                    .zip(&bhv.launches)
                    .position(|(a, b)| a != b)
                    .unwrap_or(rtl.launches.len().min(bhv.launches.len()))
            ),
        ));
    }
    let key = |r: &RunOutcome| -> Vec<(u64, usize, Cycle, Cycle)> {
        let mut v: Vec<_> = r
            .deliveries
            .iter()
            .map(|d| (d.id, d.output, d.first, d.last))
            .collect();
        v.sort_unstable();
        v
    };
    let (a, b) = (key(rtl), key(bhv));
    if a != b {
        let detail = a
            .iter()
            .zip(&b)
            .find(|(x, y)| x != y)
            .map(|(x, y)| format!("first mismatch: rtl {x:?} vs behavioral {y:?}"))
            .unwrap_or_else(|| format!("rtl delivered {}, behavioral {}", a.len(), b.len()));
        return Err(div("rtl-vs-behavioral", detail));
    }
    if rtl.counters.dropped_buffer_full != bhv.counters.dropped_buffer_full {
        return Err(div(
            "rtl-vs-behavioral",
            format!(
                "drop counts diverged: rtl {} vs behavioral {}",
                rtl.counters.dropped_buffer_full, bhv.counters.dropped_buffer_full
            ),
        ));
    }
    if rtl.counters.policy_drops != bhv.counters.policy_drops
        || rtl.counters.policy_preempts != bhv.counters.policy_preempts
    {
        return Err(div(
            "rtl-vs-behavioral",
            format!(
                "policy counters diverged: rtl {}+{} vs behavioral {}+{} (drops+preempts)",
                rtl.counters.policy_drops,
                rtl.counters.policy_preempts,
                bhv.counters.policy_drops,
                bhv.counters.policy_preempts
            ),
        ));
    }
    Ok(())
}

/// Under credit backpressure no organization may lose a packet, so all
/// four must deliver exactly the same id set.
fn check_delivered_sets_equal(runs: &[RunOutcome]) -> Result<(), SimError> {
    let sets: Vec<Vec<u64>> = runs
        .iter()
        .map(|r| {
            let mut ids: Vec<u64> = r.deliveries.iter().map(|d| d.id).collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        })
        .collect();
    // The first four ids of sorted `a` that sorted `b` lacks.
    let beyond = |a: &[u64], b: &[u64]| -> Vec<u64> {
        let lacking = a.iter().filter(|id| b.binary_search(id).is_err());
        lacking.take(4).copied().collect()
    };
    for (r, set) in runs.iter().zip(&sets).skip(1) {
        if *set != sets[0] {
            let (missing, extra) = (beyond(&sets[0], set), beyond(set, &sets[0]));
            return Err(div(
                &format!("delivered-set-{}", r.org),
                format!(
                    "{} delivered {} packets vs {} by {}: missing {missing:?}, extra {extra:?}",
                    r.org,
                    set.len(),
                    runs[0].org,
                    sets[0].len()
                ),
            ));
        }
    }
    Ok(())
}

/// Per-packet cut-through latency hard bound: a unicast packet that found
/// its output idle must see its first word leave within `[2, S+1]` cycles
/// of its header — at best the fused §3.3 cut-through (`a+2`), at worst a
/// read fused onto a write wave postponed to its `a+S` deadline.
fn check_latency(sc: &Scenario, bhv: &RunOutcome) -> Result<(), SimError> {
    let s = sc.stages() as Cycle;
    for &h in &bhv.idle_head_latencies {
        if h < 2 || h > s + 1 {
            return Err(div(
                "cut-through-latency",
                format!(
                    "idle-output head latency {h} outside the hard bound [2, {}]",
                    s + 1
                ),
            ));
        }
    }
    Ok(())
}

/// Fold this scenario's §3.4 measurement population into `stats`: the
/// campaign compares Σ excess against Σ formula, weighted per departure.
fn accumulate_latency(sc: &Scenario, bhv: &RunOutcome, stats: &mut ScenarioStats) {
    if bhv.launches.is_empty() {
        return;
    }
    let s = sc.stages() as f64;
    let first = bhv.launches.first().expect("non-empty").at;
    let last = bhv.launches.last().expect("non-empty").at;
    let span = ((last + sc.stages() as Cycle) - first).max(1) as f64;
    let p = (bhv.launches.len() as f64 * s / (sc.n as f64 * span)).min(1.0);
    let formula = staggered_initiation_formula(p, sc.n);
    for &h in &bhv.idle_head_latencies {
        stats.idle_excess_sum += (h as f64) - 2.0;
        stats.idle_excess_count += 1;
        stats.idle_formula_sum += formula;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn a_spread_of_generated_scenarios_passes_the_oracle() {
        for seed in 0..8u64 {
            let sc = Scenario::generate(seed);
            let stats = check_scenario(&sc).unwrap_or_else(|e| {
                panic!("seed {seed} diverged: {e}\n{sc}");
            });
            assert_eq!(stats.launched, sc.offers.len() as u64, "seed {seed}");
        }
    }

    #[test]
    fn packed_keys_sort_as_their_rows() {
        let mut rng = simkernel::SplitMix64::new(0x50_47);
        // Narrow draws, so rows tie on leading fields and later ones decide.
        let mut rows: Vec<[u64; 4]> = (0..2_000)
            .map(|_| {
                [
                    rng.below(3),
                    rng.below(4) << 40,
                    rng.below(3),
                    rng.below(4) << 50,
                ]
            })
            .collect();
        let mut keys: Vec<u128> = rows.iter().map(|&r| pack(r, FRAME)).collect();
        rows.sort_unstable();
        keys.sort_unstable();
        let unpacked: Vec<[u64; 4]> = keys.iter().map(|&k| unpack(k, FRAME)).collect();
        assert_eq!(unpacked, rows);
        let flow = [127, 127, (1 << 48) - 1, u64::from(u32::MAX), 0];
        assert_eq!(unpack(pack(flow, FLOW), FLOW), flow);
    }

    #[test]
    fn formula_matches_the_paper_examples() {
        // §3.4: at p = 1, large n, the extra latency tends to 1/4 cycle.
        assert!((staggered_initiation_formula(1.0, 1_000) - 0.25).abs() < 1e-3);
        assert_eq!(staggered_initiation_formula(0.0, 8), 0.0);
    }

    #[test]
    fn seeded_bank_upsets_are_caught_as_divergences() {
        // Bank upsets are only *observable* while a packet resides in the
        // banks — a fused cut-through read samples the write bus and
        // never re-reads the upset word, so low-residency scenarios
        // legitimately mask faults. Across a seed spread with a high
        // upset rate, the oracle must still notice on most scenarios.
        let mut caught = 0;
        for seed in 0..12u64 {
            // Base corpus: fault-detection statistics are pinned to the
            // pre-policy schedule distribution (and fault overlays never
            // combine with non-static policies anyway).
            let sc = Scenario::generate_base(seed).with_fault(0.3, seed ^ 0xFA17);
            if check_scenario(&sc).is_err() {
                caught += 1;
            }
        }
        assert!(caught >= 7, "only {caught}/12 fault overlays detected");
    }

    #[test]
    fn ecc_recovery_restores_conformance_under_upsets() {
        // The same fault overlays that the previous test requires the
        // oracle to *catch* must, with ECC recovery armed, be corrected
        // in place — every organization back in exact agreement with the
        // clean behavioral reference, full oracle strictness included
        // (corrections open no recovery windows).
        let mut corrected = 0u64;
        let mut fully_exact = 0u64;
        for seed in 0..12u64 {
            let mut sc = Scenario::generate_base(seed)
                .with_fault(0.3, seed ^ 0xFA17)
                .with_recovery();
            // Open-loop offers: a packet condemned as uncorrectable never
            // returns its credit, and the conformance driver (unlike the
            // e16 harness) runs no mid-flight credit resync — a credited
            // schedule would wedge on exactly the rare double-hit this
            // test tolerates.
            sc.credited = false;
            let runs: Vec<crate::driver::RunOutcome> =
                Org::ALL.iter().map(|&o| run(&sc, o)).collect();
            check_runs(&sc, &runs).unwrap_or_else(|e| {
                panic!("seed {seed} diverged with recovery armed: {e}\n{sc}");
            });
            // A multi-bit double hit on one word is beyond SEC-DED and
            // legitimately falls back to detect-and-drop; at this rate it
            // must stay the rare exception, not the rule.
            if runs[0].counters.corrupt_drops == 0 && runs[0].counters.ecc_uncorrectable == 0 {
                fully_exact += 1;
            }
            corrected += runs[0].recovery.corrections;
        }
        assert!(corrected > 0, "the overlays never exercised the ECC path");
        assert!(
            fully_exact >= 9,
            "only {fully_exact}/12 armed runs were corrected to full exactness"
        );
    }

    /// A 2x2 open-loop run of `launches` (id, input, dst; one per cycle)
    /// and `deliveries` (id, output, first), counters balanced, so only
    /// the ordering clauses of `check_one` can object.
    fn hand_built(
        launches: &[(u64, usize, usize)],
        deliveries: &[(u64, usize, Cycle)],
    ) -> (Scenario, RunOutcome) {
        let mut sc = Scenario::generate_base(0).with_offers(Vec::new());
        (sc.n, sc.credited) = (2, false);
        let mut r = run(&sc, Org::Pipelined);
        let launch = |(&(id, input, dst), at)| crate::driver::Launch { id, input, dst, at };
        r.launches = launches.iter().zip(0..).map(launch).collect();
        let s = sc.stages() as Cycle;
        r.deliveries = deliveries
            .iter()
            .map(|&(id, output, first)| crate::driver::Delivery {
                id,
                output,
                first,
                last: first + s - 1,
            })
            .collect();
        r.counters.arrived = launches.len() as u64;
        r.counters.departed = deliveries.len() as u64;
        (sc, r)
    }

    #[test]
    fn the_reported_violation_does_not_depend_on_hash_order() {
        // Four flows, each delivering its second launch first; then two
        // links, each with overlapping transmissions. Whichever clause
        // objects must name the same, lowest, flow or link on every call.
        let reversed = hand_built(
            &[
                (1, 0, 0),
                (2, 0, 0),
                (3, 0, 1),
                (4, 0, 1),
                (5, 1, 0),
                (6, 1, 0),
                (7, 1, 1),
                (8, 1, 1),
            ],
            &[
                (2, 0, 10),
                (1, 0, 20),
                (4, 1, 10),
                (3, 1, 20),
                (6, 0, 30),
                (5, 0, 40),
                (8, 1, 30),
                (7, 1, 40),
            ],
        );
        let overlapping = hand_built(
            &[(1, 0, 0), (2, 1, 0), (3, 0, 1), (4, 1, 1)],
            &[(1, 0, 2), (2, 0, 4), (3, 1, 2), (4, 1, 3)],
        );
        for ((sc, r), named) in [(reversed, "flow 0->0: "), (overlapping, "output 0: ")] {
            let texts: std::collections::BTreeSet<String> = (0..64)
                .map(|_| check_one(&sc, &r).expect_err("violation").to_string())
                .collect();
            assert_eq!(texts.len(), 1, "one input, several reports: {texts:?}");
            let text = texts.first().expect("one text");
            assert!(text.contains(named), "{text:?} does not name {named:?}");
        }
    }
}
