//! Event-horizon fast-forward equivalence (DESIGN.md §6).
//!
//! The `simkernel::Horizon` contract promises that jumping the clock
//! across an idle span leaves a model in exactly the state dense
//! per-cycle stepping would have produced. This property test drives
//! every organization — behavioral, pipelined RTL, wide-memory, and
//! interleaved — over seeded randomized *bursty* schedules (packet
//! clusters separated by long dead gaps, the workload fast-forwarding
//! exists for), once densely and once through the kernel, and asserts
//! the departure streams and event counters are byte-identical. The
//! fast path may change wall time only, never a departure cycle.
//!
//! The fault-injected variant re-runs the same property with the ECC
//! recovery overlay armed and a strike schedule riding along: upsets
//! land at identical absolute cycles on both paths (fast-forward jumps
//! are bounded by the next strike), so the detection/correction
//! counters must also come out byte-identical.

use telegraphos::simkernel::cell::Packet;
use telegraphos::simkernel::ids::Cycle;
use telegraphos::simkernel::{Horizon, SplitMix64};
use telegraphos::switch_core::behavioral::{BehavioralDeparture, BehavioralSwitch};
use telegraphos::switch_core::config::SwitchConfig;
use telegraphos::switch_core::events::SwitchCounters;
use telegraphos::switch_core::recovery::RecoveryConfig;
use telegraphos::switch_core::rtl::{OutputCollector, PipelinedSwitch};
use telegraphos::switch_core::{PolicyKind, Switch, WordOrg, WordSwitch};

/// One scheduled launch: header enters input `input` at cycle `at`.
#[derive(Debug, Clone, Copy)]
struct Offer {
    at: Cycle,
    input: usize,
    dst: usize,
    id: u64,
}

/// A bursty schedule: clusters of back-to-back packets separated by
/// gaps of 100..2000 idle cycles. Offers respect wire framing (an
/// input's next header is at least `s` cycles after its previous one).
fn bursty_schedule(n: usize, s: usize, bursts: usize, seed: u64) -> Vec<Offer> {
    let mut rng = SplitMix64::new(seed);
    let mut offers = Vec::new();
    let mut next_free = vec![0u64; n];
    let mut base = 0u64;
    let mut id = 1u64;
    for _ in 0..bursts {
        base += 100 + rng.below(1900);
        let packets_per_input = 1 + rng.below(3);
        for (i, nf) in next_free.iter_mut().enumerate() {
            if !rng.chance(0.8) {
                continue;
            }
            let mut at = base.max(*nf) + rng.below(4);
            for _ in 0..packets_per_input {
                offers.push(Offer {
                    at,
                    input: i,
                    dst: rng.below_usize(n),
                    id,
                });
                id += 1;
                *nf = at + s as u64;
                at = *nf + rng.below(3);
            }
        }
    }
    offers.sort_by_key(|o| (o.at, o.input));
    offers
}

/// `org` at `(n, slots)`. `armed` turns the ECC recovery overlay on
/// and, for the pipelined RTL, selects store-and-forward with the full
/// integrity machinery (mirroring the chaos harness), so injected upsets
/// are scrubbed on read instead of silently corrupting deliveries.
fn build(org: WordOrg, n: usize, slots: usize, armed: bool) -> Box<dyn WordSwitch> {
    if !armed {
        return org.build(n, slots, RecoveryConfig::default(), PolicyKind::Static);
    }
    let rec = RecoveryConfig::ecc_only();
    if org != WordOrg::Pipelined {
        return org.build(n, slots, rec, PolicyKind::Static);
    }
    let mut cfg = SwitchConfig::symmetric(n, slots);
    cfg.cut_through = false;
    cfg.fused_cut_through = false;
    cfg.integrity.checksum = true;
    cfg.integrity.payload_check = true;
    cfg.integrity.harden = true;
    Box::new(PipelinedSwitch::new(cfg.with_recovery(rec)))
}

/// One memory strike: at cycle `at`, xor `mask` into the word addressed
/// by the organization-agnostic coordinates `(a, b)`. A ~30% minority of
/// masks carry two bits — beyond SEC-DED correction, so the detect-drop
/// path gets exercised alongside the correct-in-place path.
#[derive(Debug, Clone, Copy)]
struct Strike {
    at: Cycle,
    a: usize,
    b: usize,
    mask: u64,
}

/// Strikes aimed at the busy spans of `offers`: each lands within `2s`
/// cycles of some launch, when the struck slot plausibly holds live
/// words (a strike into dead memory corrupts nothing anyone reads).
fn strike_schedule(offers: &[Offer], s: usize, count: usize, seed: u64) -> Vec<Strike> {
    let mut rng = SplitMix64::new(seed);
    let mut strikes: Vec<Strike> = (0..count)
        .map(|_| {
            let o = offers[rng.below_usize(offers.len())];
            let at = o.at + rng.below(2 * s as u64);
            let bit = rng.below_usize(64);
            let mut mask = 1u64 << bit;
            if rng.chance(0.3) {
                mask |= 1u64 << ((bit + 1 + rng.below_usize(63)) % 64);
            }
            Strike {
                at,
                a: rng.below_usize(1 << 16),
                b: rng.below_usize(1 << 16),
                mask,
            }
        })
        .collect();
    strikes.sort_by_key(|st| st.at);
    strikes
}

/// One delivery: `(id, output, first, last, payload-intact)`.
type Delivered = (u64, usize, Cycle, Cycle, bool);

/// Replay `offers` on a word-level organization; `fast` routes the
/// inter-burst gaps through the horizon kernel, dense ticks every cycle.
/// With `strikes`, the switch is ECC-armed and the strike schedule rides
/// along, each strike mapped into the organization's address space
/// (`ecc_only` arms no spares, so the primary range is the whole space)
/// and injected at the same absolute cycle in dense and fast runs (the
/// fast path bounds each jump by the next strike), so the
/// detection/correction counters must come out byte-identical.
/// Deliveries carry their payload verdict — a double-bit strike may
/// legitimately kill a packet, as long as it kills it identically on
/// both paths. Returns the delivery stream plus counters.
fn run_word(
    org: WordOrg,
    n: usize,
    offers: &[Offer],
    strikes: Option<&[Strike]>,
    fast: bool,
) -> (Vec<Delivered>, SwitchCounters) {
    let slots = 4 * n;
    let mut sw = build(org, n, slots, strikes.is_some());
    let strikes = strikes.unwrap_or(&[]);
    let s = sw.packet_words();
    let mut col = OutputCollector::new(n, s);
    let mut current: Vec<Option<(Vec<u64>, usize)>> = vec![None; n];
    let mut wire = vec![None; n];
    let mut deliveries = Vec::new();
    let mut k = 0;
    let mut f = 0;
    let mut grace = 0u64;
    loop {
        let now = sw.now();
        while f < strikes.len() && strikes[f].at == now {
            let st = &strikes[f];
            sw.inject_upset(st.b % slots, st.a % s, st.mask);
            f += 1;
        }
        let exhausted = k == offers.len() && f == strikes.len();
        let idle = exhausted && current.iter().all(Option::is_none) && sw.next_event().is_none();
        if idle {
            grace += 1;
            if grace > s as u64 + 4 {
                break;
            }
        } else {
            grace = 0;
        }
        assert!(now < 1_000_000, "{org} failed to drain");
        if fast && !idle && current.iter().all(Option::is_none) {
            let horizon = match sw.next_event() {
                None => Some(u64::MAX),
                Some(e) if e > now => Some(e),
                Some(_) => None,
            };
            if let Some(h) = horizon {
                let mut target = h;
                if let Some(o) = offers.get(k) {
                    target = target.min(o.at);
                }
                if let Some(st) = strikes.get(f) {
                    target = target.min(st.at);
                }
                if target > now && target != u64::MAX {
                    sw.jump_to(target);
                    continue;
                }
            }
        }
        while k < offers.len() && offers[k].at == now {
            let o = offers[k];
            k += 1;
            assert!(current[o.input].is_none(), "schedule violates framing");
            let p = Packet::synth(o.id, o.input, o.dst, s, now);
            current[o.input] = Some((p.words, 0));
        }
        for (w, slot) in wire.iter_mut().zip(current.iter_mut()) {
            *w = None;
            if let Some((words, i)) = slot {
                *w = Some(words[*i]);
                *i += 1;
                if *i == words.len() {
                    *slot = None;
                }
            }
        }
        let out = sw.tick(&wire);
        col.observe(now, out);
        for d in col.take() {
            deliveries.push((
                d.id,
                d.output.index(),
                d.first_cycle,
                d.last_cycle,
                d.verify_payload(),
            ));
        }
    }
    (deliveries, sw.counters())
}

/// Replay `offers` on the behavioral model (header-per-launch, same
/// schedule); returns the raw departure records plus key counters, the
/// cycles jumped, and the jumps that crossed a tail (a departure that
/// completed inside the jumped span).
fn run_behavioral(
    n: usize,
    offers: &[Offer],
    fast: bool,
) -> (Vec<BehavioralDeparture>, SwitchCounters, u64, u64) {
    let cfg = SwitchConfig::symmetric(n, 4 * n);
    let s = cfg.stages();
    let mut sw = BehavioralSwitch::new(cfg);
    let mut arr: Vec<Option<usize>> = vec![None; n];
    let mut k = 0;
    let mut grace = 0u64;
    let mut skipped = 0u64;
    let mut crossed = 0u64;
    loop {
        let now = sw.now();
        let exhausted = k == offers.len();
        let idle = exhausted && sw.is_quiescent();
        if idle {
            grace += 1;
            if grace > s as u64 + 4 {
                break;
            }
        } else {
            grace = 0;
        }
        assert!(now < 1_000_000, "behavioral failed to drain");
        if fast && !idle {
            let horizon = match sw.next_event() {
                None => Some(u64::MAX),
                Some(e) if e > now => Some(e),
                Some(_) => None,
            };
            if let Some(h) = horizon {
                let mut target = h;
                if let Some(o) = offers.get(k) {
                    target = target.min(o.at);
                }
                if target > now && target != u64::MAX {
                    skipped += target - now;
                    let done = sw.departures().len();
                    Horizon::jump_to(&mut sw, target);
                    crossed += u64::from(sw.departures().len() > done);
                    continue;
                }
            }
        }
        arr.fill(None);
        while k < offers.len() && offers[k].at == now {
            let o = offers[k];
            k += 1;
            assert!(sw.input_free(o.input), "schedule violates framing");
            arr[o.input] = Some(o.dst);
        }
        sw.tick(&arr);
    }
    (sw.departures().to_vec(), sw.counters(), skipped, crossed)
}

#[test]
fn word_orgs_fast_forward_is_bit_exact() {
    let n = 4;
    for org in WordOrg::ALL {
        for seed in 0..6u64 {
            let offers = bursty_schedule(n, 2 * n, 8, 0x5EED + seed);
            let (dense_d, dense_c) = run_word(org, n, &offers, None, false);
            let (fast_d, fast_c) = run_word(org, n, &offers, None, true);
            assert!(
                dense_d.iter().all(|d| d.4),
                "{org} seed {seed}: corrupted payload"
            );
            assert_eq!(
                dense_d, fast_d,
                "{org} seed {seed}: departure streams diverged"
            );
            assert_eq!(dense_c, fast_c, "{org} seed {seed}: counters diverged");
        }
    }
}

#[test]
fn word_orgs_fast_forward_is_bit_exact_under_fault_injection() {
    let n = 4;
    let (mut corrected, mut detected) = (0u64, 0u64);
    for org in WordOrg::ALL {
        for seed in 0..4u64 {
            let s = 2 * n;
            let offers = bursty_schedule(n, s, 8, 0xFA17 + seed);
            let strikes = strike_schedule(&offers, s, 24, 0xECC0 + seed);
            let (dense_d, dense_c) = run_word(org, n, &offers, Some(&strikes), false);
            let (fast_d, fast_c) = run_word(org, n, &offers, Some(&strikes), true);
            assert_eq!(
                dense_d, fast_d,
                "{org} seed {seed}: faulted departure streams diverged"
            );
            assert_eq!(
                dense_c, fast_c,
                "{org} seed {seed}: detection/correction counters diverged"
            );
            corrected += dense_c.ecc_corrected;
            detected += dense_c.ecc_uncorrectable + dense_c.corrupt_drops;
        }
    }
    // Non-vacuity: the equivalence proves nothing if the campaign never
    // actually corrected or detect-dropped anything.
    assert!(corrected > 0, "no strike was ever ECC-corrected");
    assert!(detected > 0, "no double-bit strike was ever detected");
}

/// What every harness over `dyn Switch` relies on, whichever of the four
/// models is behind it: the horizon reports "no event ever" exactly when
/// the switch is quiescent, and the counters account for every header —
/// never more gone than arrived, nothing in flight at quiescence.
fn assert_switch_contract(sw: &dyn Switch, who: &str, k: usize) {
    assert_eq!(
        sw.next_event().is_none(),
        sw.is_quiescent(),
        "{who} cycle {k}: horizon and quiescence disagree"
    );
    let c = sw.counters();
    let gone = c.departed
        + c.dropped_buffer_full
        + c.latch_overruns
        + c.corrupt_drops
        + c.policy_drops
        + c.policy_preempts;
    assert!(
        c.arrived >= gone,
        "{who} cycle {k}: in_flight underflows: {c:?}"
    );
    if sw.is_quiescent() {
        assert_eq!(c.in_flight(), 0, "{who} cycle {k}: quiescent, yet {c:?}");
    }
}

/// The [`Switch`] contract on all four models, and what every harness
/// over `Box<dyn WordSwitch>` relies on besides: an upset `inject_upset`
/// reports live is caught downstream. ECC-armed, so a single-bit strike
/// is corrected (or, failing that, detect-dropped).
#[test]
fn word_switch_contract_holds_for_every_organization() {
    let n = 4;
    // The cell-level model: every input offers output 0 again and again
    // into two slots, so headers are refused (static pool) or buffered
    // packets pushed out, and each loss class passes through `in_flight`.
    for policy in [PolicyKind::Static, PolicyKind::PushOut] {
        let cfg = SwitchConfig::symmetric(n, 2).with_policy(policy);
        let s = cfg.stages();
        let mut sw = BehavioralSwitch::new(cfg);
        let who = format!("behavioral {policy:?}");
        for k in 0..1_000 {
            assert_switch_contract(&sw, &who, k);
            if k >= 6 * s && sw.is_quiescent() {
                break;
            }
            let offer = (k < 6 * s && k % s == 0).then_some(0);
            sw.tick(&vec![offer; n]);
        }
        assert!(sw.is_quiescent(), "{who} failed to drain");
        let c = sw.counters();
        assert_eq!(c.arrived, 6 * n as u64, "{who}: {c:?}");
        assert!(
            c.dropped_buffer_full + c.policy_drops + c.policy_preempts > 0,
            "{who}: two slots never overflowed: {c:?}"
        );
    }
    for org in WordOrg::ALL {
        let slots = 4 * n;
        let mut sw = build(org, n, slots, true);
        let s = sw.packet_words();
        // Every input sends to output 0 at once, so packets queue up in
        // the buffer and one of them is struck while it waits.
        let packets: Vec<Packet> = (0..n)
            .map(|i| Packet::synth(i as u64 + 1, i, 0, s, 0))
            .collect();
        let mut struck = false;
        for k in 0..1_000 {
            assert_switch_contract(&*sw, org.label(), k);
            if k >= s && sw.is_quiescent() {
                break;
            }
            let wire: Vec<_> = packets.iter().map(|p| p.words.get(k).copied()).collect();
            sw.tick(&wire);
            struck = struck || (0..slots).any(|slot| sw.inject_upset(slot, 1, 1));
        }
        assert!(sw.is_quiescent(), "{org} failed to drain");
        assert!(struck, "{org}: no upset ever landed on live data");
        let c = sw.counters();
        assert!(
            c.integrity_detections() > 0 || c.ecc_corrected > 0,
            "{org}: live upset went unnoticed: {c:?}"
        );
    }
}

#[test]
fn behavioral_fast_forward_is_bit_exact() {
    let n = 4;
    let s = SwitchConfig::symmetric(n, 4 * n).stages();
    for seed in 0..8u64 {
        let offers = bursty_schedule(n, s, 10, 0xBEE5 + seed);
        let (dense_d, dense_c, ..) = run_behavioral(n, &offers, false);
        let (fast_d, fast_c, _, crossed) = run_behavioral(n, &offers, true);
        assert_eq!(dense_d, fast_d, "seed {seed}: departure streams diverged");
        assert_eq!(dense_c, fast_c, "seed {seed}: counters diverged");
        // Non-vacuity: a jump replays the tails it crosses, and some
        // jump of every run has one to replay.
        assert!(crossed > 0, "seed {seed}: no jump crossed a tail");
    }
}

#[test]
fn fast_forward_actually_skips() {
    // Sanity: on a bursty schedule the kernel must skip the bulk of the
    // cycles, otherwise the equivalence above is vacuous.
    let n = 4;
    let s = SwitchConfig::symmetric(n, 4 * n).stages();
    let offers = bursty_schedule(n, s, 10, 0xCAFE);
    let span = offers.last().unwrap().at;
    let (_, _, skipped, _) = run_behavioral(n, &offers, true);
    assert!(
        skipped > span / 2,
        "expected most of the {span}-cycle span skipped, got {skipped}"
    );
}
