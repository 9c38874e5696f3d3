//! Seeded scenario generation.
//!
//! A [`Scenario`] is a complete, self-describing test case: switch
//! geometry, flow-control mode, and an explicit arrival schedule of
//! [`Offer`]s. Every organization replays the *same* schedule, so any
//! disagreement is a model divergence, not a traffic artifact.
//!
//! All randomness comes from `SplitMix64::stream(seed, SCENARIO_STREAM)`;
//! the same seed regenerates the same scenario bit for bit on any machine
//! and at any parallelism. Offers carry their packet ids explicitly
//! (assigned at generation time), so a shrunk schedule still names the
//! same packets as the original.

use simkernel::cell::header_chance;
use simkernel::ids::Cycle;
use simkernel::SplitMix64;
use std::fmt;
use switch_core::PolicyKind;

/// RNG stream index for scenario generation. Distinct from
/// `faultsim::TRAFFIC_STREAM` (0) and `faultsim::FAULT_STREAM` (1) so a
/// scenario and its optional fault plan never share a stream.
pub const SCENARIO_STREAM: u64 = 2;

/// RNG stream index for the buffer-sharing-policy dimension (and its
/// optional incast/hotspot-burst shape override). A separate stream,
/// drawn *after* base generation, so every seed's base geometry and
/// schedule stay bit-identical to what they were before the policy
/// dimension existed.
pub const POLICY_STREAM: u64 = 3;

/// Policy mix the fuzzer draws from: static-weighted (half the seeds keep
/// the pre-policy admission path hot) with every non-static policy
/// represented.
const POLICY_MIX: [PolicyKind; 8] = [
    PolicyKind::Static,
    PolicyKind::Static,
    PolicyKind::Static,
    PolicyKind::Static,
    PolicyKind::DynamicThresholds {
        alpha_num: 1,
        alpha_den: 1,
    },
    PolicyKind::PushOut,
    PolicyKind::Occamy,
    PolicyKind::BShare,
];

/// One packet offered to the switch: at cycle `at` (or as soon after as
/// credits allow), input `input` wants to send packet `id` to `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Offer {
    /// Earliest cycle the header may enter the switch.
    pub at: Cycle,
    /// Input link.
    pub input: usize,
    /// Destination output.
    pub dst: usize,
    /// Packet id (unique within the scenario, stable under shrinking).
    pub id: u64,
}

/// An optional seeded fault-injection overlay (single-event bank upsets),
/// used to prove the oracle detects — and the shrinker minimizes — real
/// datapath corruption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeededFault {
    /// Per-cycle upset probability.
    pub rate: f64,
    /// Seed for `FaultPlan::generate` (stream `FAULT_STREAM`).
    pub seed: u64,
}

/// A complete differential test case.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Seed this scenario was generated from (0 for hand-built cases).
    pub seed: u64,
    /// Ports per side (symmetric `n × n` switch, `S = 2n` word packets).
    pub n: usize,
    /// Shared-buffer capacity in packet slots.
    pub slots: usize,
    /// Credit backpressure active? When true each input holds
    /// `slots / n` credits (so reservations sum to the capacity and loss
    /// is impossible); when false, packets launch at exactly `Offer::at`
    /// and buffer-full drops are legal.
    pub credited: bool,
    /// Offered per-input load the schedule was drawn at (diagnostic).
    pub load: f64,
    /// Arrival schedule, sorted by `at`. Packet ids are unique — generated
    /// schedules number them 1.. and shrinking only removes offers — and
    /// the word-level drivers refuse a hand-built schedule that repeats
    /// one: their id table could not say which input to credit. That table
    /// is indexed by id, so every driver refuses an id above 2^20.
    pub offers: Vec<Offer>,
    /// Fault-plan horizon in cycles. Kept fixed while shrinking so the
    /// surviving offers still meet the same absolute-time faults.
    pub horizon: Cycle,
    /// Optional seeded bank-upset overlay (pipelined RTL only).
    pub fault: Option<SeededFault>,
    /// Arm ECC recovery on the word-level organizations. Corrections are
    /// timing-invisible, so a recovery-enabled run must restore *exact*
    /// conformance with the clean behavioral reference even under a
    /// fault overlay — upsets are repaired instead of detect-dropped.
    pub recovery: bool,
    /// Buffer-sharing policy every organization runs under. Non-static
    /// policies drop at admission even below capacity, so a non-static
    /// scenario is always open-loop (`credited = false`): a policy drop
    /// would otherwise leak a credit and wedge the drain.
    pub policy: PolicyKind,
}

impl Scenario {
    /// Packet size in words (`S = 2n`, the paper's quantum).
    pub fn stages(&self) -> usize {
        2 * self.n
    }

    /// Credits per input in credited mode: per-link reservations that sum
    /// to at most the buffer capacity, the zero-loss precondition.
    pub fn credits_per_input(&self) -> u32 {
        debug_assert!(self.credited);
        ((self.slots / self.n).max(1)) as u32
    }

    /// Generate the scenario for `seed`: the frozen base corpus of
    /// [`Scenario::generate_base`] plus the buffer-sharing policy dimension — a
    /// policy drawn from its own stream, and on a quarter of the seeds
    /// an incast / hotspot-burst traffic override.
    pub fn generate(seed: u64) -> Scenario {
        let mut sc = Self::generate_base(seed);
        // Policy dimension, drawn from its own stream *after* the base
        // so every pre-policy seed keeps its geometry and schedule bit
        // for bit. A quarter of the seeds also override the traffic
        // shape with incast / hotspot-burst — the patterns that actually
        // separate buffer-sharing policies.
        let mut pg = SplitMix64::stream(seed, POLICY_STREAM);
        sc.policy = *pg.choose(&POLICY_MIX);
        sc.credited = sc.credited && sc.policy.is_static();
        if pg.chance(0.25) {
            let shape = *pg.choose(&[4u8, 5]);
            let s = sc.stages();
            let q = header_chance(sc.load, s);
            sc.offers = Self::shaped_offers(&mut pg, sc.n, s, q, sc.horizon, shape);
        }
        sc
    }

    /// Generate the pre-policy scenario for `seed`. Geometry, mode,
    /// traffic pattern and load are all drawn from the seed; the
    /// schedule respects the wire constraint (one header per input per
    /// `S` cycles). This corpus is frozen — distribution-pinned tests
    /// (fault detection rates, ECC exactness counts) anchor to it so
    /// the policy dimension cannot shift their statistics.
    pub fn generate_base(seed: u64) -> Scenario {
        let mut g = SplitMix64::stream(seed, SCENARIO_STREAM);
        let n = *g.choose(&[2usize, 3, 4, 8]);
        let s = 2 * n;
        let credited = g.chance(0.5);
        let slots = if credited {
            n * *g.choose(&[1usize, 2, 4])
        } else {
            *g.choose(&[2usize, n, 2 * n, 4 * n])
        };
        let load = *g.choose(&[0.2, 0.5, 0.8, 1.0]);
        // 0 = uniform, 1 = hotspot, 2 = permutation, 3 = synchronized.
        let pattern = *g.choose(&[0u8, 1, 2, 3]);
        let horizon = 48 * s as Cycle;
        let q = header_chance(load, s);
        let mut offers = Vec::new();
        let mut next_free = vec![0 as Cycle; n];
        for t in 0..horizon {
            for (i, nf) in next_free.iter_mut().enumerate() {
                if *nf > t {
                    continue;
                }
                let start = match pattern {
                    // Synchronized: all inputs may only start on quantum
                    // boundaries — maximizes same-cycle start collisions.
                    3 => t % s as Cycle == 0 && g.chance(load),
                    _ => g.chance(q),
                };
                if !start {
                    continue;
                }
                let dst = match pattern {
                    // Hotspot: 70 % of traffic converges on output 0.
                    1 => {
                        if g.chance(0.7) {
                            0
                        } else {
                            g.below_usize(n)
                        }
                    }
                    // Permutation: conflict-free input → output mapping.
                    2 => (i + 1) % n,
                    _ => g.below_usize(n),
                };
                offers.push(Offer {
                    at: t,
                    input: i,
                    dst,
                    id: 0, // assigned below
                });
                *nf = t + s as Cycle;
            }
        }
        for (k, o) in offers.iter_mut().enumerate() {
            o.id = k as u64 + 1;
        }
        Scenario {
            seed,
            n,
            slots,
            credited,
            load,
            offers,
            horizon,
            fault: None,
            recovery: false,
            policy: PolicyKind::Static,
        }
    }

    /// Incast (pattern 4) and hotspot-burst (pattern 5) schedules for the
    /// policy dimension; the base patterns 0–3 live in [`generate`].
    ///
    /// [`generate`]: Scenario::generate
    fn shaped_offers(
        g: &mut SplitMix64,
        n: usize,
        s: usize,
        q: f64,
        horizon: Cycle,
        shape: u8,
    ) -> Vec<Offer> {
        let mut offers = Vec::new();
        let mut next_free = vec![0 as Cycle; n];
        let burst = 4 * s as Cycle;
        for t in 0..horizon {
            for (i, nf) in next_free.iter_mut().enumerate() {
                if *nf > t {
                    continue;
                }
                let start = match shape {
                    // Incast: every input offers at the drawn load.
                    4 => g.chance(q),
                    // Hotspot burst: on/off windows of 4S cycles; the
                    // on-window runs at double intensity.
                    _ => (t / burst).is_multiple_of(2) && g.chance((2.0 * q).min(1.0)),
                };
                if !start {
                    continue;
                }
                let dst = match shape {
                    // N-to-1: 80 % of the traffic converges on output 0.
                    4 => {
                        if g.chance(0.8) {
                            0
                        } else {
                            g.below_usize(n)
                        }
                    }
                    // Burst traffic favors output 0 half the time.
                    _ => {
                        if g.chance(0.5) {
                            0
                        } else {
                            g.below_usize(n)
                        }
                    }
                };
                offers.push(Offer {
                    at: t,
                    input: i,
                    dst,
                    id: 0,
                });
                *nf = t + s as Cycle;
            }
        }
        for (k, o) in offers.iter_mut().enumerate() {
            o.id = k as u64 + 1;
        }
        offers
    }

    /// The same scenario with a seeded bank-upset overlay.
    pub fn with_fault(mut self, rate: f64, seed: u64) -> Scenario {
        self.fault = Some(SeededFault { rate, seed });
        self
    }

    /// The same scenario with ECC recovery armed on the word-level
    /// organizations.
    pub fn with_recovery(mut self) -> Scenario {
        self.recovery = true;
        self
    }

    /// The same scenario under the given buffer-sharing policy. Forces
    /// open-loop offers for non-static policies (policy drops would leak
    /// credits).
    pub fn with_policy(mut self, policy: PolicyKind) -> Scenario {
        self.policy = policy;
        if !policy.is_static() {
            self.credited = false;
        }
        self
    }

    /// Replacement offer schedule (shrinker helper); geometry untouched.
    pub fn with_offers(&self, offers: Vec<Offer>) -> Scenario {
        Scenario {
            offers,
            ..self.clone()
        }
    }

    /// Largest port index referenced by the schedule (for `n` shrinking).
    pub fn max_port(&self) -> usize {
        self.offers
            .iter()
            .map(|o| o.input.max(o.dst))
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for Scenario {
    /// Replayable form: one header line with every generation parameter,
    /// then the schedule, one offer per line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scenario seed={:#018x} n={} slots={} credited={} load={:.2} horizon={} policy={}",
            self.seed,
            self.n,
            self.slots,
            self.credited,
            self.load,
            self.horizon,
            self.policy.token()
        )?;
        if let Some(sf) = &self.fault {
            write!(
                f,
                " fault=bank-upset rate={:.4} fseed={:#x}",
                sf.rate, sf.seed
            )?;
        }
        if self.recovery {
            write!(f, " recovery=ecc")?;
        }
        for o in &self.offers {
            write!(
                f,
                "\n  offer id={} at={} in={} dst={}",
                o.id, o.at, o.input, o.dst
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Scenario::generate(0xDEAD_BEEF);
        let b = Scenario::generate(0xDEAD_BEEF);
        assert_eq!(a, b, "same seed, same scenario, bit for bit");
        let c = Scenario::generate(0xDEAD_BEF0);
        assert_ne!(a, c, "neighboring seeds diverge");
    }

    #[test]
    fn schedule_respects_wire_framing() {
        for seed in 0..64u64 {
            let sc = Scenario::generate(seed);
            let s = sc.stages() as Cycle;
            let mut last = vec![None::<Cycle>; sc.n];
            for o in &sc.offers {
                assert!(o.dst < sc.n && o.input < sc.n);
                if let Some(prev) = last[o.input] {
                    assert!(
                        o.at >= prev + s,
                        "input {} offers at {} and {}: closer than S={}",
                        o.input,
                        prev,
                        o.at,
                        s
                    );
                }
                last[o.input] = Some(o.at);
            }
        }
    }

    #[test]
    fn ids_are_unique_and_stable() {
        let sc = Scenario::generate(7);
        let mut ids: Vec<u64> = sc.offers.iter().map(|o| o.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), sc.offers.len(), "duplicate packet id");
        assert!(!ids.contains(&0), "id 0 is reserved for hand-built cases");
    }

    #[test]
    fn credited_reservations_fit_the_buffer() {
        for seed in 0..128u64 {
            let sc = Scenario::generate(seed);
            if sc.credited {
                let total = sc.credits_per_input() as usize * sc.n;
                assert!(
                    total <= sc.slots,
                    "credits {}x{} exceed {} slots",
                    sc.credits_per_input(),
                    sc.n,
                    sc.slots
                );
            }
        }
    }

    #[test]
    fn display_round_trips_the_parameters() {
        let sc = Scenario::generate(42).with_fault(0.01, 9);
        let text = format!("{sc}");
        assert!(text.contains("seed=0x000000000000002a"));
        assert!(text.contains("fault=bank-upset"));
        assert!(text.lines().count() == sc.offers.len() + 1);
    }

    #[test]
    fn policy_dimension_covers_every_kind() {
        use std::collections::HashSet;
        let mut tokens = HashSet::new();
        for seed in 0..256u64 {
            let sc = Scenario::generate(seed);
            tokens.insert(sc.policy.token());
            if !sc.policy.is_static() {
                assert!(
                    !sc.credited,
                    "seed {seed}: non-static policy must force open-loop offers"
                );
            }
        }
        for kind in PolicyKind::all_default() {
            assert!(
                tokens.contains(kind.token()),
                "256 seeds never drew policy {}",
                kind.token()
            );
        }
    }

    #[test]
    fn policy_draw_keeps_base_geometry_bit_identical() {
        // The policy/shape draw comes from its own SplitMix64 stream, so
        // seeds that draw the static policy with no shape override must
        // produce exactly the pre-policy schedule (same offers, framing,
        // slot count) — that is what pins old regression seeds in place.
        for seed in 0..64u64 {
            let sc = Scenario::generate(seed);
            let again = Scenario::generate(seed);
            assert_eq!(sc.offers, again.offers, "seed {seed}");
            assert_eq!(sc.policy.token(), again.policy.token(), "seed {seed}");
        }
    }

    #[test]
    fn display_names_the_policy_for_the_shrinker() {
        for kind in PolicyKind::all_default() {
            let sc = Scenario::generate(11).with_policy(kind);
            let header = format!("{sc}");
            let header = header.lines().next().unwrap().to_string();
            assert!(
                header.ends_with(&format!("policy={}", kind.token())),
                "header {header:?} does not name policy {}",
                kind.token()
            );
        }
    }

    #[test]
    fn with_policy_forces_open_loop_for_non_static() {
        let base = Scenario::generate(3);
        let dt = base.clone().with_policy(PolicyKind::dynamic_thresholds());
        assert!(!dt.credited);
        let st = base.clone().with_policy(PolicyKind::Static);
        assert_eq!(st.credited, base.credited);
    }

    #[test]
    fn shaped_offers_respect_wire_framing() {
        // Incast / hotspot overrides must still emit legal back-to-back
        // schedules: one header per S cycles per input, ids unique.
        let mut shaped = 0usize;
        for seed in 0..256u64 {
            let sc = Scenario::generate(seed);
            let s = sc.stages() as Cycle;
            let mut last: Vec<Option<Cycle>> = vec![None; sc.n];
            for o in &sc.offers {
                if let Some(prev) = last[o.input] {
                    assert!(o.at >= prev + s, "seed {seed}: framing violation");
                }
                last[o.input] = Some(o.at);
            }
            let to_zero = sc.offers.iter().filter(|o| o.dst == 0).count();
            if sc.offers.len() >= 8 && to_zero * 2 > sc.offers.len() {
                shaped += 1;
            }
        }
        assert!(
            shaped >= 8,
            "expected a visible incast/hotspot share of seeds, saw {shaped}"
        );
    }
}
