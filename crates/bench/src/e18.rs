//! E18 — buffer-sharing policy lab: admission policies under incast,
//! hotspot and on/off traffic (extension; not in the paper).
//!
//! The paper's shared buffer is a *static* pool: any arriving packet
//! that finds a free slot gets it, first come first served. Under
//! incast (many inputs converging on one output) that policy lets the
//! hot queue monopolize the whole buffer — cross traffic to idle
//! outputs is then dropped on "buffer full" even though its outputs
//! could have drained it immediately. This campaign measures what the
//! four non-static [`switch_core::policy`] disciplines buy back:
//!
//! - **dt** — Dynamic Thresholds: a queue may only grow while it is
//!   shorter than `α · free`, so the hot queue self-limits and the pool
//!   keeps headroom for cross traffic;
//! - **pushout** — an arrival into a full buffer evicts the rearmost
//!   packet of the *longest* queue instead of being dropped;
//! - **occamy** — preemptive drop above an occupancy watermark: over
//!   their fair share queues stop growing near the top of the pool;
//! - **bshare** — queueing-delay-driven: a queue whose last-read
//!   birth-to-read delay exceeds the bound admits no more packets.
//!
//! Every policy × organization pair sees the *same* offered schedule
//! (the traffic seed depends only on shape × load), so rows differ only
//! in what the switch did with the arrivals. Metrics per row: offered
//! and delivered packets, loss (every non-delivered arrival, policy
//! drops and preemptions included), mean head-to-tail delay of the
//! delivered packets, and *burst absorption* — the longest run of
//! consecutive launches that all made it out, i.e. how deep a burst the
//! buffer swallowed before the first loss.
//!
//! Points run through the conformance driver ([`conformance::run`]), so
//! the numbers come from exactly the machinery the differential oracle
//! certifies, and through [`sweep::map`], so the table is bit-identical
//! at any `--jobs`.

use crate::{sweep, table};
use conformance::{Offer, Org, PolicyKind, Scenario};
use simkernel::cell::header_chance;
use simkernel::ids::Cycle;
use simkernel::rng::split_seed;
use simkernel::SplitMix64;
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

/// Campaign geometry, mirroring E17: 4×4 (8 stages), 16 shared slots.
const N: usize = 4;
const SLOTS: usize = 16;

/// Traffic shapes that actually separate buffer-sharing policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// N-to-1: 80 % of all traffic converges on output 0.
    Incast,
    /// Steady hotspot: 50 % of all traffic on output 0.
    Hotspot,
    /// Uniform destinations in on/off bursts of 4·S cycles at twice the
    /// average intensity.
    OnOff,
}

impl Shape {
    /// All shapes, in reporting order.
    pub const ALL: [Shape; 3] = [Shape::Incast, Shape::Hotspot, Shape::OnOff];

    /// Stable report label.
    pub fn label(&self) -> &'static str {
        match self {
            Shape::Incast => "incast",
            Shape::Hotspot => "hotspot",
            Shape::OnOff => "on-off",
        }
    }
}

/// One campaign point.
#[derive(Debug, Clone, Copy)]
pub struct PolicySpec {
    /// Memory organization under test.
    pub org: Org,
    /// Buffer-sharing policy.
    pub policy: PolicyKind,
    /// Traffic shape.
    pub shape: Shape,
    /// Offered per-input load.
    pub load: f64,
    /// Active traffic cycles (drain on top).
    pub cycles: u64,
    /// Traffic seed — a function of shape × load only, so every policy
    /// and organization faces the identical offered schedule.
    pub seed: u64,
}

/// Measured outcome of one campaign point.
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// Organization label.
    pub org: String,
    /// Policy token.
    pub policy: String,
    /// Shape label.
    pub shape: String,
    /// Offered per-input load.
    pub load: f64,
    /// Packets offered to the switch.
    pub offered: u64,
    /// Packets delivered intact.
    pub delivered: u64,
    /// Lost packets: buffer-full drops + policy drops + preemptions.
    pub lost: u64,
    /// Admission rejections declared by the policy.
    pub policy_drops: u64,
    /// Stored packets evicted by the policy.
    pub preempts: u64,
    /// Loss fraction of offered traffic (percent).
    pub loss_pct: f64,
    /// Mean launch-to-tail delay of delivered packets, cycles.
    pub mean_delay: Option<f64>,
    /// Longest run of consecutive launches all delivered — how deep a
    /// burst the buffer absorbed before its first loss.
    pub burst_absorbed: u64,
}

/// `--policy` filter: when set, [`specs`] keeps only that policy's
/// points (the seeds are coordinate-derived, so the surviving rows are
/// bit-identical to their counterparts in an unfiltered run).
static POLICY_FILTER: Mutex<Option<PolicyKind>> = Mutex::new(None);

/// Restrict the campaign to one policy (`None` restores the full grid).
pub fn set_policy_filter(policy: Option<PolicyKind>) {
    *POLICY_FILTER.lock().expect("filter lock") = policy;
}

/// Build the offered schedule for one (shape, load) cell. One generator
/// drives all inputs, so the schedule is a pure function of the seed.
fn build_offers(shape: Shape, load: f64, cycles: u64, seed: u64) -> Vec<Offer> {
    let s = 2 * N;
    let q = header_chance(load, s);
    let mut g = SplitMix64::stream(seed, 0);
    let mut offers = Vec::new();
    let mut next_free = [0 as Cycle; N];
    let burst = 4 * s as Cycle;
    for t in 0..cycles {
        for (i, nf) in next_free.iter_mut().enumerate() {
            if *nf > t {
                continue;
            }
            let start = match shape {
                Shape::OnOff => (t / burst).is_multiple_of(2) && g.chance((2.0 * q).min(1.0)),
                _ => g.chance(q),
            };
            if !start {
                continue;
            }
            let dst = match shape {
                Shape::Incast => {
                    if g.chance(0.8) {
                        0
                    } else {
                        g.below_usize(N)
                    }
                }
                Shape::Hotspot => {
                    if g.chance(0.5) {
                        0
                    } else {
                        g.below_usize(N)
                    }
                }
                Shape::OnOff => g.below_usize(N),
            };
            offers.push(Offer {
                at: t,
                input: i,
                dst,
                id: offers.len() as u64 + 1,
            });
            *nf = t + s as Cycle;
        }
    }
    offers
}

/// Run one campaign point through the conformance driver.
pub fn run_point(spec: &PolicySpec) -> PolicyRow {
    let offers = build_offers(spec.shape, spec.load, spec.cycles, spec.seed);
    let sc = Scenario {
        seed: spec.seed,
        n: N,
        slots: SLOTS,
        credited: false,
        load: spec.load,
        offers,
        horizon: spec.cycles,
        fault: None,
        recovery: false,
        policy: spec.policy,
    };
    let out = conformance::run(&sc, spec.org);
    let c = &out.counters;
    let offered = c.arrived;
    let delivered = c.departed;
    let lost = offered.saturating_sub(delivered);
    let delivered_ids: HashSet<u64> = out.deliveries.iter().map(|d| d.id).collect();
    let mut burst_absorbed = 0u64;
    let mut streak = 0u64;
    for l in &out.launches {
        if delivered_ids.contains(&l.id) {
            streak += 1;
            burst_absorbed = burst_absorbed.max(streak);
        } else {
            streak = 0;
        }
    }
    let launched_at: HashMap<u64, Cycle> = out.launches.iter().map(|l| (l.id, l.at)).collect();
    let delays: Vec<f64> = out
        .deliveries
        .iter()
        .filter_map(|d| launched_at.get(&d.id).map(|&at| (d.last - at) as f64))
        .collect();
    let mean_delay = (!delays.is_empty()).then(|| delays.iter().sum::<f64>() / delays.len() as f64);
    PolicyRow {
        org: spec.org.label().to_string(),
        policy: spec.policy.token().to_string(),
        shape: spec.shape.label().to_string(),
        load: spec.load,
        offered,
        delivered,
        lost,
        policy_drops: c.policy_drops,
        preempts: c.policy_preempts,
        loss_pct: if offered == 0 {
            0.0
        } else {
            100.0 * lost as f64 / offered as f64
        },
        mean_delay,
        burst_absorbed,
    }
}

/// The campaign grid: shape × organization × policy × load, restricted
/// by the `--policy` filter when one is set.
pub fn specs(quick: bool) -> Vec<PolicySpec> {
    grid(quick, *POLICY_FILTER.lock().expect("filter lock"))
}

/// The grid with an explicit filter. The traffic seed is derived from
/// the point's *coordinates*, never its index, so a filter leaves the
/// surviving rows bit-identical.
fn grid(quick: bool, filter: Option<PolicyKind>) -> Vec<PolicySpec> {
    let cycles = if quick { 4_000 } else { 24_000 };
    let loads: &[f64] = if quick { &[0.9] } else { &[0.6, 0.9, 1.0] };
    let mut specs = Vec::new();
    for (shape_ix, &shape) in Shape::ALL.iter().enumerate() {
        for (load_ix, &load) in loads.iter().enumerate() {
            let seed = split_seed(0xE18, (shape_ix as u64) << 8 | load_ix as u64);
            for &org in &Org::ALL {
                for policy in PolicyKind::all_default() {
                    if filter.is_some_and(|f| f.token() != policy.token()) {
                        continue;
                    }
                    specs.push(PolicySpec {
                        org,
                        policy,
                        shape,
                        load,
                        cycles,
                        seed,
                    });
                }
            }
        }
    }
    specs
}

/// Run the whole campaign through the deterministic sweep engine.
pub fn rows(quick: bool) -> Vec<PolicyRow> {
    sweep::map(&specs(quick), run_point)
}

/// Render the report.
pub fn run(quick: bool) -> String {
    table::render(
        "E18: buffer-sharing policy lab (extension) — admission policies under\n\
         incast / hotspot / on-off traffic, all four memory organizations",
        &[
            "shape", "org", "policy", "load", "offered", "deliv", "lost", "p-drop", "preempt",
            "loss%", "delay", "burst",
        ],
        rows(quick).iter().map(|r| {
            vec![
                r.shape.clone(),
                r.org.clone(),
                r.policy.clone(),
                format!("{:.1}", r.load),
                r.offered.to_string(),
                r.delivered.to_string(),
                r.lost.to_string(),
                r.policy_drops.to_string(),
                r.preempts.to_string(),
                format!("{:.1}", r.loss_pct),
                r.mean_delay.map_or("-".to_string(), |d| format!("{d:.1}")),
                r.burst_absorbed.to_string(),
            ]
        }),
        "\nEvery policy x organization pair faces the identical offered schedule (the traffic\n\
         seed depends only on shape x load), so rows differ only in admission decisions.\n\
         'lost' counts every non-delivered arrival: buffer-full drops plus the policy's own\n\
         'p-drop' rejections and 'preempt' evictions. 'delay' is the mean launch-to-tail\n\
         latency of delivered packets; 'burst' the longest run of consecutive launches all\n\
         delivered — how deep a burst the shared buffer absorbed before its first loss.\n\
         Under incast the static pool lets the hot queue monopolize the buffer and cross\n\
         traffic pays; dt / pushout / occamy keep headroom and deliver more of the same\n\
         offered schedule.\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loss_of(rows: &[PolicyRow], org: &str, policy: &str, shape: &str) -> f64 {
        rows.iter()
            .find(|r| r.org == org && r.policy == policy && r.shape == shape)
            .unwrap_or_else(|| panic!("missing row {org}/{policy}/{shape}"))
            .loss_pct
    }

    #[test]
    fn sharing_policies_beat_static_on_incast() {
        // The tentpole claim: at 0.9 offered load under incast, Dynamic
        // Thresholds, push-out and Occamy each lose less of the same
        // offered schedule than the static pool, on every organization.
        let rows = rows(true);
        for org in Org::ALL {
            let st = loss_of(&rows, org.label(), "static", "incast");
            for policy in ["dt", "pushout", "occamy"] {
                let p = loss_of(&rows, org.label(), policy, "incast");
                assert!(
                    p < st,
                    "{org}: {policy} loss {p:.2}% must beat static {st:.2}%"
                );
            }
        }
    }

    #[test]
    fn campaign_accounting_is_conservative() {
        let rows = rows(true);
        assert_eq!(
            rows.len(),
            Shape::ALL.len() * Org::ALL.len() * PolicyKind::all_default().len(),
            "quick grid covers every shape x org x policy cell"
        );
        for r in &rows {
            assert!(
                r.delivered <= r.offered,
                "{}/{}: conservation",
                r.org,
                r.policy
            );
            assert!(
                r.policy_drops + r.preempts <= r.lost,
                "{}/{}: policy loss exceeds total loss",
                r.org,
                r.policy
            );
            if r.policy == "static" {
                assert_eq!(
                    r.policy_drops + r.preempts,
                    0,
                    "{}: static pool must never invoke the policy counters",
                    r.org
                );
            }
            assert!(r.offered > 0, "{}/{}: no traffic offered", r.org, r.policy);
        }
        // Identical offered schedule within each shape x load x org cell.
        for shape in Shape::ALL {
            for org in Org::ALL {
                let cell: Vec<&PolicyRow> = rows
                    .iter()
                    .filter(|r| r.shape == shape.label() && r.org == org.label())
                    .collect();
                assert!(cell.windows(2).all(|w| w[0].offered == w[1].offered));
            }
        }
    }

    #[test]
    fn points_are_bit_reproducible() {
        for spec in [specs(true)[0], *specs(true).last().expect("non-empty")] {
            let a = run_point(&spec);
            let b = run_point(&spec);
            assert_eq!(a.offered, b.offered);
            assert_eq!(a.delivered, b.delivered);
            assert_eq!(a.policy_drops, b.policy_drops);
            assert_eq!(a.preempts, b.preempts);
            assert_eq!(a.burst_absorbed, b.burst_absorbed);
        }
    }

    #[test]
    fn policy_filter_preserves_row_bits() {
        let filtered = grid(true, Some(PolicyKind::PushOut));
        let full = grid(true, None);
        assert!(filtered.len() < full.len());
        let spec = filtered[0];
        let twin = full
            .iter()
            .find(|s| {
                s.org == spec.org
                    && s.policy.token() == spec.policy.token()
                    && s.shape == spec.shape
                    && s.load == spec.load
            })
            .expect("filtered point exists in the full grid");
        assert_eq!(spec.seed, twin.seed, "seeds are coordinate-derived");
    }
}
