//! Differential pinning of the pluggable buffer-sharing-policy refactor
//! (`switch_core::policy`).
//!
//! The refactor is licensed by one property: with `PolicyKind::Static`
//! the models must be **byte-identical** to their pre-refactor behavior
//! — same departures, same counters, same probe event stream. The
//! frozen scalar references (`switch_core::reference`) carry that
//! baseline: their static path takes the literal pre-policy admission
//! branch, so live-vs-ref equality on the 10/50/95 % load grid pins the
//! refactor in place. The same harness then runs every non-static
//! policy through both twins — the policy hooks must stay cycle-exact
//! too, or the conformance oracle's RTL≡behavioral clause is a fiction.
//!
//! The fast-forward leg: the conformance driver jumps idle gaps via the
//! event horizon, the dense driver here ticks every cycle. Policies
//! keep admission state (BShare's per-output delay memory), so a jump
//! that skipped a policy-visible event would desynchronize the two —
//! all four organizations must agree with the dense drive under every
//! policy. The batched leg does the same for `tick_idle_batch`.
//!
//! The twins are "frozen"; `tests/golden/reference_digests.txt` makes
//! that checkable. It pins the references' *own* departures, counters
//! and probe streams on every cell of the grid, so an edit to
//! `reference.rs` shows as a moved digest — and, since the live models
//! are held equal to the twins on exactly those cells, so does a change
//! to the live models that an edited twin would otherwise follow.

mod common;

use common::{check_golden, Fnv};
use simkernel::cell::Packet;
use simkernel::ids::Cycle;
use simkernel::Horizon;
use simkernel::SplitMix64;
use std::fmt::Write as _;
use switch_core::behavioral::{BehavioralDeparture, BehavioralSwitch};
use switch_core::config::SwitchConfig;
use switch_core::ibank::{InterleavedSwitch, InterleavedSwitchConfig};
use switch_core::reference::{BehavioralSwitchRef, PipelinedSwitchRef};
use switch_core::rtl::{OutputCollector, PipelinedSwitch};
use switch_core::widemem::{WideMemorySwitchRtl, WideSwitchConfig};
use switch_core::PolicyKind;
use telemetry::{ProbeEvent, Recorder, Shared};

const N: usize = 4;
const SLOTS: usize = 16;

/// The pinning grid: the paper's 10/50/95 % uniform load points, plus a
/// 95 % incast point (80 % of traffic aimed at output 0) so the
/// per-queue policies actually fire their decision paths while the
/// twins are being compared.
const GRID: [(f64, bool); 4] = [(0.10, false), (0.50, false), (0.95, false), (0.95, true)];

type ProbeLog = Vec<simkernel::TraceEntry<ProbeEvent>>;

/// A framing-respecting uniform random schedule at `load` offered word
/// occupancy (the bit-parallel diff suite's law).
fn load_schedule(s: usize, load: f64, cycles: u64, seed: u64) -> Vec<conformance::Offer> {
    let mut rng = SplitMix64::new(seed);
    let mut offers = Vec::new();
    let mut next_free = [0u64; N];
    let mut id = 1u64;
    let p = load / s as f64;
    for t in 0..cycles {
        for (i, nf) in next_free.iter_mut().enumerate() {
            if t >= *nf && rng.chance(p) {
                offers.push(conformance::Offer {
                    at: t,
                    input: i,
                    dst: rng.below_usize(N),
                    id,
                });
                id += 1;
                *nf = t + s as u64;
            }
        }
    }
    offers
}

/// `load_schedule`, optionally incast-skewed: 80 % of offers retargeted
/// at output 0 so the shared pool fills behind one queue.
fn grid_schedule(
    s: usize,
    load: f64,
    skew: bool,
    cycles: u64,
    seed: u64,
) -> Vec<conformance::Offer> {
    let mut offers = load_schedule(s, load, cycles, seed);
    if skew {
        let mut g = SplitMix64::stream(seed, 1);
        for o in &mut offers {
            if g.chance(0.8) {
                o.dst = 0;
            }
        }
    }
    offers
}

/// The grid cell `(load, skew)` as the behavioral twins are offered it.
fn cell_offers(s: usize, load: f64, skew: bool) -> Vec<conformance::Offer> {
    grid_schedule(s, load, skew, 2_500, 0xD1F + (load * 100.0) as u64)
}

/// The grid cell `(load, skew)` as the pipelined twins are offered it.
fn word_offers(s: usize, load: f64, skew: bool) -> Vec<conformance::Offer> {
    grid_schedule(s, load, skew, 1_500, 0x57A7 + (load * 100.0) as u64)
}

/// `(arrived, dropped, overruns, policy_drops, policy_preempts)` as the
/// frozen twin's public fields have them.
type CellCounts = (u64, u64, u64, u64, u64);

fn ref_counts(sw: &BehavioralSwitchRef) -> CellCounts {
    (
        sw.arrived,
        sw.dropped,
        sw.overruns,
        sw.policy_drops,
        sw.policy_preempts,
    )
}

/// The live model's `counters()` in the twin's convention: its `arrived`
/// counts accepted packets only, `counters()` every offered header.
fn live_counts(sw: &BehavioralSwitch) -> CellCounts {
    let c = sw.counters();
    (
        c.arrived - c.dropped_buffer_full - c.policy_drops,
        c.dropped_buffer_full,
        c.latch_overruns,
        c.policy_drops,
        c.policy_preempts,
    )
}

/// Drive a cell-level twin densely over `offers` until quiescent;
/// `$counts` reads its counters.
macro_rules! drive_cell {
    ($ty:ty, $counts:expr, $cfg:expr, $offers:expr) => {{
        let mut sw = <$ty>::new($cfg.clone());
        let rec = Shared::new(Recorder::unbounded());
        sw.attach_probe(rec.handle());
        let mut arr: Vec<Option<usize>> = vec![None; N];
        let mut k = 0usize;
        let end = $offers.last().map_or(0, |o| o.at) + 1;
        for now in 0..end {
            arr.fill(None);
            while k < $offers.len() && $offers[k].at == now {
                let o = $offers[k];
                k += 1;
                arr[o.input] = Some(o.dst);
            }
            sw.tick(&arr);
        }
        arr.fill(None);
        let mut guard = 0u32;
        while !sw.is_quiescent() {
            sw.tick(&arr);
            guard += 1;
            assert!(guard < 100_000, "cell model failed to drain");
        }
        let deps: Vec<BehavioralDeparture> = sw.departures().to_vec();
        let counts: CellCounts = $counts(&sw);
        let events: ProbeLog = rec.with(|r| r.iter().cloned().collect());
        (deps, counts, events)
    }};
}

/// Drive a word-level switch densely (every cycle ticked, no jumps)
/// over `offers`; returns `(id, output, first, last)` deliveries and
/// the model's counters.
macro_rules! drive_word_dense {
    ($sw:expr, $s:expr, $offers:expr) => {{
        let mut sw = $sw;
        let mut col = OutputCollector::new(N, $s);
        let mut current: Vec<Option<(Vec<u64>, usize)>> = vec![None; N];
        let mut wire: Vec<Option<u64>> = vec![None; N];
        let mut deliveries: Vec<(u64, usize, Cycle, Cycle)> = Vec::new();
        let mut k = 0usize;
        let mut grace = 0u64;
        loop {
            let now = sw.now();
            let exhausted = k == $offers.len();
            let idle =
                exhausted && current.iter().all(Option::is_none) && sw.next_event().is_none();
            if idle {
                grace += 1;
                if grace > $s as u64 + 4 {
                    break;
                }
            } else {
                grace = 0;
            }
            assert!(now < 1_000_000, "word model failed to drain");
            while k < $offers.len() && $offers[k].at == now {
                let o = $offers[k];
                k += 1;
                let p = Packet::synth(o.id, o.input, o.dst, $s, now);
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
                assert!(d.verify_payload(), "corrupted payload");
                deliveries.push((d.id, d.output.index(), d.first_cycle, d.last_cycle));
            }
        }
        (deliveries, sw.counters())
    }};
}

// ---------------------------------------------------------------------------
// 1. Behavioral twin, every policy
// ---------------------------------------------------------------------------

#[test]
fn behavioral_matches_scalar_reference_under_every_policy() {
    for policy in PolicyKind::all_default() {
        let cfg = SwitchConfig::symmetric(N, SLOTS).with_policy(policy);
        let s = cfg.stages();
        for (load, skew) in GRID {
            let offers = cell_offers(s, load, skew);
            let (d_new, c_new, e_new) = drive_cell!(BehavioralSwitch, live_counts, cfg, offers);
            let (d_ref, c_ref, e_ref) = drive_cell!(BehavioralSwitchRef, ref_counts, cfg, offers);
            assert!(
                !d_ref.is_empty(),
                "{policy:?} load {load}: workload too thin"
            );
            assert_eq!(
                d_new, d_ref,
                "{policy:?} load {load}: departures diverged from scalar reference"
            );
            assert_eq!(c_new, c_ref, "{policy:?} load {load}: counters diverged");
            assert_eq!(
                e_new, e_ref,
                "{policy:?} load {load}: probe event streams diverged"
            );
            if policy.is_static() {
                assert_eq!(
                    (c_new.3, c_new.4),
                    (0, 0),
                    "load {load}: static pool invoked the policy counters"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Pipelined RTL twin, every policy
// ---------------------------------------------------------------------------

#[test]
fn rtl_matches_scalar_reference_under_every_policy() {
    for policy in PolicyKind::all_default() {
        let cfg = SwitchConfig::symmetric(N, SLOTS).with_policy(policy);
        let s = cfg.stages();
        for (load, skew) in GRID {
            let offers = word_offers(s, load, skew);
            let rec_new = Shared::new(Recorder::unbounded());
            let mut sw_new = PipelinedSwitch::new(cfg.clone());
            sw_new.attach_probe(rec_new.handle());
            let (d_new, c_new) = drive_word_dense!(sw_new, s, offers);
            let rec_ref = Shared::new(Recorder::unbounded());
            let mut sw_ref = PipelinedSwitchRef::new(cfg.clone());
            sw_ref.attach_probe(rec_ref.handle());
            let (d_ref, c_ref) = drive_word_dense!(sw_ref, s, offers);
            assert!(
                !d_ref.is_empty(),
                "{policy:?} load {load}: workload too thin"
            );
            assert_eq!(
                d_new, d_ref,
                "{policy:?} load {load}: deliveries diverged from scalar reference"
            );
            assert_eq!(c_new, c_ref, "{policy:?} load {load}: counters diverged");
            let e_new: ProbeLog = rec_new.with(|r| r.iter().cloned().collect());
            let e_ref: ProbeLog = rec_ref.with(|r| r.iter().cloned().collect());
            assert_eq!(
                e_new, e_ref,
                "{policy:?} load {load}: probe streams diverged"
            );
            if policy.is_static() {
                assert_eq!(
                    c_new.policy_drops + c_new.policy_preempts,
                    0,
                    "load {load}: static pool invoked the policy counters"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Fast-forward driver vs dense drive, all word organizations
// ---------------------------------------------------------------------------

/// The conformance driver (event-horizon jumps over idle gaps) and a
/// dense per-cycle drive of the same configuration must agree on every
/// delivery and counter, under every policy — a jump that skipped a
/// policy-relevant event would show up here as a divergence.
#[test]
fn fast_forward_driver_matches_dense_drive_under_every_policy() {
    for policy in PolicyKind::all_default() {
        for (load, skew) in GRID {
            let s = 2 * N;
            let offers = grid_schedule(s, load, skew, 1_200, 0xFF18 + (load * 100.0) as u64);
            let sc = conformance::Scenario {
                seed: 0,
                n: N,
                slots: SLOTS,
                credited: false,
                load,
                offers: offers.clone(),
                horizon: 1_200,
                fault: None,
                recovery: false,
                policy,
            };
            for org in [
                conformance::Org::Pipelined,
                conformance::Org::Wide,
                conformance::Org::Interleaved,
            ] {
                let ff = conformance::run(&sc, org);
                assert!(
                    ff.error.is_none(),
                    "{policy:?} {org} load {load}: {:?}",
                    ff.error
                );
                let ff_deliveries: Vec<(u64, usize, Cycle, Cycle)> = ff
                    .deliveries
                    .iter()
                    .map(|d| (d.id, d.output, d.first, d.last))
                    .collect();
                let (dense_deliveries, dense_counters) = match org {
                    conformance::Org::Pipelined => {
                        let cfg = SwitchConfig::symmetric(N, SLOTS).with_policy(policy);
                        drive_word_dense!(PipelinedSwitch::new(cfg), s, offers)
                    }
                    conformance::Org::Wide => drive_word_dense!(
                        WideMemorySwitchRtl::new(
                            WideSwitchConfig::fig3(N, SLOTS).with_policy(policy)
                        ),
                        s,
                        offers
                    ),
                    conformance::Org::Interleaved => drive_word_dense!(
                        InterleavedSwitch::new(
                            InterleavedSwitchConfig::symmetric(N, SLOTS).with_policy(policy)
                        ),
                        s,
                        offers
                    ),
                    conformance::Org::Behavioral => unreachable!(),
                };
                assert_eq!(
                    ff_deliveries, dense_deliveries,
                    "{policy:?} {org} load {load}: fast-forward deliveries diverged from dense"
                );
                assert_eq!(
                    ff.counters, dense_counters,
                    "{policy:?} {org} load {load}: fast-forward counters diverged from dense"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 4. Batched idle drain, every policy
// ---------------------------------------------------------------------------

/// `tick_idle_batch(n)` must equal `n` scalar idle ticks with a policy
/// armed: the drain path fires `on_read` hooks (BShare feeds on them),
/// so the batch entry must maintain policy state identically.
#[test]
fn behavioral_idle_batch_equals_scalar_ticks_under_every_policy() {
    for policy in PolicyKind::all_default() {
        let cfg = SwitchConfig::symmetric(N, SLOTS).with_policy(policy);
        let s = cfg.stages();
        let offers = load_schedule(s, 0.95, 800, 0xBA7D);
        let build = || {
            let mut sw = BehavioralSwitch::new(cfg.clone());
            let rec = Shared::new(Recorder::unbounded());
            sw.attach_probe(rec.handle());
            let mut arr: Vec<Option<usize>> = vec![None; N];
            let mut k = 0usize;
            for now in 0..800u64 {
                arr.fill(None);
                while k < offers.len() && offers[k].at == now {
                    let o = offers[k];
                    k += 1;
                    arr[o.input] = Some(o.dst);
                }
                sw.tick(&arr);
            }
            (sw, rec)
        };
        let (mut a, rec_a) = build();
        let (mut b, rec_b) = build();
        let idle: Vec<Option<usize>> = vec![None; N];
        let mut width = 1u64;
        while !a.is_quiescent() || !b.is_quiescent() {
            for _ in 0..width {
                a.tick(&idle);
            }
            b.tick_idle_batch(width);
            width = width % 7 + 2;
            assert!(a.now() < 200_000, "{policy:?}: failed to drain");
        }
        assert_eq!(a.now(), b.now(), "{policy:?}: clocks diverged");
        assert_eq!(
            a.departures(),
            b.departures(),
            "{policy:?}: departures diverged"
        );
        assert_eq!(a.counters(), b.counters(), "{policy:?}: counters diverged");
        let ea: ProbeLog = rec_a.with(|r| r.iter().cloned().collect());
        let eb: ProbeLog = rec_b.with(|r| r.iter().cloned().collect());
        assert_eq!(ea, eb, "{policy:?}: probe streams diverged");
    }
}

// ---------------------------------------------------------------------------
// 5. Non-vacuity: the grid must actually exercise the policies
// ---------------------------------------------------------------------------

#[test]
fn high_load_grid_exercises_every_policy_decision_kind() {
    // Incast at 95 % load over 16 slots: output 0's queue hogs the pool,
    // so every non-static policy must register decisions — otherwise the
    // equality tests above prove nothing about the policy paths.
    let s = 2 * N;
    let mut offers = load_schedule(s, 0.95, 2_500, 0xD1F + 95);
    let mut g = SplitMix64::new(0x1C57);
    for o in &mut offers {
        if g.chance(0.8) {
            o.dst = 0;
        }
    }
    for policy in PolicyKind::all_default() {
        if policy.is_static() {
            continue;
        }
        let cfg = SwitchConfig::symmetric(N, SLOTS).with_policy(policy);
        let (_, c, _) = drive_cell!(BehavioralSwitch, live_counts, cfg, offers);
        assert!(
            c.3 + c.4 > 0,
            "{policy:?}: the 95% grid never triggered a policy decision"
        );
    }
}

// ---------------------------------------------------------------------------
// 6. The references themselves, pinned
// ---------------------------------------------------------------------------

/// One row of `tests/golden/reference_digests.txt`, from what one twin
/// did on one grid cell: `delivered` packets hashed into `deliveries`,
/// its final counters as they print, and its probe stream.
fn reference_row(
    twin: &str,
    (load, skew): (f64, bool),
    policy: PolicyKind,
    (delivered, deliveries): (usize, Fnv),
    counters: &dyn std::fmt::Debug,
    events: &ProbeLog,
) -> String {
    let mut state = Fnv::new();
    write!(state, "{counters:?}").expect("hashing cannot fail");
    let mut probe = Fnv::new();
    for e in events {
        probe.words(&[e.cycle]);
        write!(probe, "{}", e.event).expect("hashing cannot fail");
    }
    let shape = if skew { "incast" } else { "uniform" };
    format!(
        "{twin} {load:.2} {shape} {} {delivered} {} {:#018x} {:#018x} {:#018x}",
        policy.token(),
        events.len(),
        deliveries.0,
        state.0,
        probe.0
    )
}

/// The frozen twins' own behaviour on every grid cell × policy the
/// equality tests above drive them over. `reference.rs` is only a
/// reference while it does not move: a change there must leave
/// `tests/golden/reference_digests.txt` byte-identical; regenerate it
/// (`UPDATE_GOLDEN=1`) only when the reference is *meant* to change.
#[test]
fn reference_digests_match_the_golden_file() {
    let mut doc = String::from(
        "# switch_core::reference twins, 4x4, 16 slots, on the policy_static_diff GRID.\n\
         # FNV-1a of: departures / deliveries in order | final counters | every\n\
         # (cycle, ProbeEvent) in order.\n\
         # twin load shape policy delivered events deliveries state probe\n",
    );
    for policy in PolicyKind::all_default() {
        let cfg = SwitchConfig::symmetric(N, SLOTS).with_policy(policy);
        let s = cfg.stages();
        for cell in GRID {
            let offers = cell_offers(s, cell.0, cell.1);
            let (deps, counts, events) = drive_cell!(BehavioralSwitchRef, ref_counts, cfg, offers);
            let mut h = Fnv::new();
            for d in &deps {
                h.words(&[
                    d.id,
                    d.input as u64,
                    d.output as u64,
                    d.birth,
                    d.read_start,
                    d.done,
                    u64::from(d.output_was_idle),
                ]);
            }
            let row = reference_row(
                "behavioral-ref",
                cell,
                policy,
                (deps.len(), h),
                &counts,
                &events,
            );
            writeln!(doc, "{row}").expect("string write");
        }
    }
    for policy in PolicyKind::all_default() {
        let cfg = SwitchConfig::symmetric(N, SLOTS).with_policy(policy);
        let s = cfg.stages();
        for cell in GRID {
            let offers = word_offers(s, cell.0, cell.1);
            let rec = Shared::new(Recorder::unbounded());
            let mut sw = PipelinedSwitchRef::new(cfg.clone());
            sw.attach_probe(rec.handle());
            let (deliveries, counters) = drive_word_dense!(sw, s, offers);
            let mut h = Fnv::new();
            for &(id, output, first, last) in &deliveries {
                h.words(&[id, output as u64, first, last]);
            }
            let events: ProbeLog = rec.with(|r| r.iter().cloned().collect());
            let row = reference_row(
                "pipelined-ref",
                cell,
                policy,
                (deliveries.len(), h),
                &counters,
                &events,
            );
            writeln!(doc, "{row}").expect("string write");
        }
    }
    check_golden("reference_digests.txt", &doc);
}
