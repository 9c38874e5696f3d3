//! Differential pinning of the bit-parallel dense path against the
//! frozen scalar references (`switch_core::reference`).
//!
//! The bit-parallel rework (packed control words, fused idle batches,
//! wave rings) is licensed by one property: **byte-identical behavior**
//! with the pre-rework scalar models. This suite pins it three ways, on
//! a seeded load grid {10%, 50%, 95%}:
//!
//! 1. `BehavioralSwitch` vs [`BehavioralSwitchRef`]: departures (every
//!    field), arrival/drop/overrun counters, and the *full probe event
//!    stream* must match exactly — and again, in lockstep through
//!    `tick_masks` with multicast, on the grid of shapes, arbitration
//!    policies and cut-through modes the wake calendar is sensitive to,
//!    the `n_in > 64` fallback included.
//! 2. `PipelinedSwitch` vs [`PipelinedSwitchRef`]: delivered packets,
//!    `SwitchCounters`, and the probe stream must match exactly — and
//!    again, in lockstep with multicast, on the wake-calendar grid, since
//!    the word-level model keeps the same request state, and hardened,
//!    with inputs going idle mid-packet, through both truncation paths.
//! 3. All four memory organizations against the behavioral reference as
//!    oracle: behavioral and pipelined must agree **cycle-exactly** on
//!    the (output, head-cycle, tail-cycle) schedule; wide and
//!    interleaved (whose latencies legitimately differ — see
//!    `tests/wide_vs_pipelined.rs`) must deliver exactly the same
//!    packets to the same outputs.
//!
//! Plus the batching laws: a fused `tick_idle_batch(n)` must equal `n`
//! scalar idle ticks, and the batched fast-forward driver must equal
//! dense stepping, probe streams included.

use std::collections::HashMap;
use telegraphos::simkernel::cell::Packet;
use telegraphos::simkernel::ids::{Addr, Cycle};
use telegraphos::simkernel::{advance_to_batched, BatchTick, Horizon, SplitMix64};
use telegraphos::switch_core::behavioral::{BehavioralDeparture, BehavioralSwitch};
use telegraphos::switch_core::config::SwitchConfig;
use telegraphos::switch_core::events::SwitchCounters;
use telegraphos::switch_core::ibank::{InterleavedSwitch, InterleavedSwitchConfig};
use telegraphos::switch_core::recovery::RecoveryConfig;
use telegraphos::switch_core::reference::{BehavioralSwitchRef, PipelinedSwitchRef};
use telegraphos::switch_core::rtl::{OutputCollector, PipelinedSwitch};
use telegraphos::switch_core::widemem::{WideMemorySwitchRtl, WideSwitchConfig};
use telegraphos::telemetry::{DropReason, ProbeEvent, Recorder, Shared};

const LOADS: [f64; 3] = [0.10, 0.50, 0.95];

/// One scheduled launch: header enters `input` at cycle `at`.
#[derive(Debug, Clone, Copy)]
struct Offer {
    at: Cycle,
    input: usize,
    dst: usize,
    id: u64,
}

/// A framing-respecting random schedule at `load` offered word
/// occupancy: each input starts a new `s`-word packet with probability
/// `load / s` per free cycle (the same law as the perf harness).
fn load_schedule(n: usize, s: usize, load: f64, cycles: u64, seed: u64) -> Vec<Offer> {
    let mut rng = SplitMix64::new(seed);
    let mut offers = Vec::new();
    let mut next_free = vec![0u64; n];
    let mut id = 1u64;
    let p = load / s as f64;
    for t in 0..cycles {
        for (i, nf) in next_free.iter_mut().enumerate() {
            if t >= *nf && rng.chance(p) {
                offers.push(Offer {
                    at: t,
                    input: i,
                    dst: rng.below_usize(n),
                    id,
                });
                id += 1;
                *nf = t + s as u64;
            }
        }
    }
    offers
}

type ProbeLog = Vec<telegraphos::simkernel::TraceEntry<ProbeEvent>>;

/// The live model's counters as the twin's `(arrived, dropped, overruns)`
/// fields have them: its `arrived` counts accepted packets only, where
/// `counters()` counts every offered header.
fn live_counts(sw: &BehavioralSwitch) -> (u64, u64, u64) {
    let c = sw.counters();
    assert_eq!(c.policy_drops + c.policy_preempts, 0, "static pool");
    (
        c.arrived - c.dropped_buffer_full,
        c.dropped_buffer_full,
        c.latch_overruns,
    )
}

fn ref_counts(sw: &BehavioralSwitchRef) -> (u64, u64, u64) {
    (sw.arrived, sw.dropped, sw.overruns)
}

/// Drive a cell-level model (either twin — they share a method set but
/// not a trait; `$counts` reads its counters) densely over `offers`,
/// probe attached, until quiescent.
macro_rules! drive_cell {
    ($ty:ty, $counts:expr, $cfg:expr, $offers:expr) => {{
        let mut sw = <$ty>::new($cfg.clone());
        let rec = Shared::new(Recorder::unbounded());
        sw.attach_probe(rec.handle());
        let n = $cfg.n_in;
        let mut arr: Vec<Option<usize>> = vec![None; n];
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
        let counts = $counts(&sw);
        let events: ProbeLog = rec.with(|r| r.iter().cloned().collect());
        (deps, counts, events)
    }};
}

/// Drive a word-level switch over `offers` (packets rendered word by
/// word with [`Packet::synth`]) until drained; returns the delivery
/// stream `(id, output, first, last)` and the model's counters.
macro_rules! drive_word {
    ($sw:expr, $n:expr, $s:expr, $offers:expr) => {{
        let mut sw = $sw;
        let mut col = OutputCollector::new($n, $s);
        let mut current: Vec<Option<(Vec<u64>, usize)>> = vec![None; $n];
        let mut wire: Vec<Option<u64>> = vec![None; $n];
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
// 1. Behavioral twin
// ---------------------------------------------------------------------------

#[test]
fn behavioral_matches_scalar_reference_on_load_grid() {
    let cfg = SwitchConfig::symmetric(4, 16);
    let s = cfg.stages();
    for load in LOADS {
        for seed in 0..2u64 {
            let offers = load_schedule(4, s, load, 3_000, 0xB17 + seed + (load * 100.0) as u64);
            let (d_new, c_new, e_new) = drive_cell!(BehavioralSwitch, live_counts, cfg, offers);
            let (d_ref, c_ref, e_ref) = drive_cell!(BehavioralSwitchRef, ref_counts, cfg, offers);
            assert!(!d_ref.is_empty(), "load {load}: workload too thin");
            assert_eq!(
                d_new, d_ref,
                "load {load} seed {seed}: departures diverged from scalar reference"
            );
            assert_eq!(
                c_new, c_ref,
                "load {load} seed {seed}: (arrived, dropped, overruns) diverged"
            );
            assert_eq!(
                e_new, e_ref,
                "load {load} seed {seed}: probe event streams diverged"
            );
        }
    }
}

/// One cell of the wake-calendar grid: the live model and the scalar
/// twin in lockstep over one mask schedule (`tick_masks`), compared
/// every cycle — the departures each tick returns, link pacing on every
/// input, quiescence — and at the end on the departure log, the
/// counters and, where `probed`, the whole probe stream. Returns the
/// departure count.
fn lockstep_cell(cfg: &SwitchConfig, load: f64, seed: u64, probed: bool) -> usize {
    let (n_in, n_out, s) = (cfg.n_in, cfg.n_out, cfg.stages() as u64);
    let what = format!(
        "{n_in}x{n_out} {:?} ct={} load {load}",
        cfg.arbiter, cfg.cut_through
    );
    let mut live = BehavioralSwitch::new(cfg.clone());
    let mut twin = BehavioralSwitchRef::new(cfg.clone());
    let (rec_live, rec_twin) = (
        Shared::new(Recorder::unbounded()),
        Shared::new(Recorder::unbounded()),
    );
    if probed {
        live.attach_probe(rec_live.handle());
        twin.attach_probe(rec_twin.handle());
    }
    // 80 % unicast, 20 % a random non-empty destination set.
    let mut rng = SplitMix64::new(seed);
    let all = u32::MAX >> (32 - n_out);
    let mut arr: Vec<Option<u32>> = vec![None; n_in];
    let offered_cycles = 40 * s;
    let mut t = 0u64;
    while t < offered_cycles || !twin.is_quiescent() {
        assert!(t < offered_cycles + 100_000, "{what}: failed to drain");
        for (i, a) in arr.iter_mut().enumerate() {
            assert_eq!(
                live.input_free(i),
                twin.input_free(i),
                "{what}: link pacing of input {i} at cycle {t}"
            );
            *a = None;
            if t < offered_cycles && twin.input_free(i) && rng.chance(load / s as f64) {
                let unicast = 1u32 << rng.below_usize(n_out);
                let multicast = rng.next_u64() as u32 & all;
                *a = Some(if multicast != 0 && rng.chance(0.2) {
                    multicast
                } else {
                    unicast
                });
            }
        }
        assert_eq!(
            live.tick_masks(&arr),
            twin.tick_masks(&arr),
            "{what}: departures of cycle {t}"
        );
        assert_eq!(
            live.is_quiescent(),
            twin.is_quiescent(),
            "{what}: quiescence after cycle {t}"
        );
        t += 1;
    }
    assert_eq!(live.departures(), twin.departures(), "{what}: log");
    assert_eq!(live_counts(&live), ref_counts(&twin), "{what}: counters");
    let e_live: ProbeLog = rec_live.with(|r| r.iter().cloned().collect());
    let e_twin: ProbeLog = rec_twin.with(|r| r.iter().cloned().collect());
    assert_eq!(e_live.is_empty(), !probed, "{what}: probe attached");
    assert_eq!(e_live, e_twin, "{what}: probe streams");
    live.departures().len()
}

/// What the wake calendar is sensitive to, against the scalar twin:
/// `S` not a power of two, asymmetric shapes, the smallest ring (1 x 1),
/// the widest mask words (16 x 16), every arbitration policy, and
/// store-and-forward, whose `ready_base = S` lands on the farthest
/// slot.
#[test]
fn wake_calendar_matches_scalar_reference_on_the_shape_grid() {
    use telegraphos::switch_core::arbiter::ArbiterPolicy::{
        Alternate, ReadPriority, WritePriority,
    };
    let shapes = [(3, 3), (5, 2), (2, 6), (7, 8), (1, 1), (16, 16)];
    let mut cells = 0;
    for (k, &(n_in, n_out)) in shapes.iter().enumerate() {
        let mut cell = 0;
        let mut departed = 0;
        for arbiter in [ReadPriority, WritePriority, Alternate] {
            for cut_through in [true, false] {
                for load in LOADS {
                    let mut cfg = SwitchConfig::symmetric(n_in, 2 * n_out + 2);
                    cfg.n_out = n_out;
                    cfg.arbiter = arbiter;
                    cfg.cut_through = cut_through;
                    cfg.fused_cut_through = cut_through;
                    // One probed cell per shape, a different corner of
                    // the grid for each; the rest run the unprobed kernel.
                    let seed = 0xCA1 + 1_000 * k as u64 + cell;
                    departed += lockstep_cell(&cfg, load, seed, cell == 5 * k as u64 % 18);
                    cell += 1;
                }
            }
        }
        assert!(departed > 100, "{n_in}x{n_out}: workload too thin");
        cells += cell;
    }
    assert_eq!(cells, 108);
}

/// An out-of-range destination is refused by name before it is shifted
/// into a mask: a release build used to wrap `1 << 35` to `1 << 3` and
/// deliver the packet to output 3, a debug build to die of "shift left
/// with overflow". CI runs this file in both profiles.
#[test]
#[should_panic(expected = "input 0: destination 35 out of range (n_out = 8)")]
fn an_out_of_range_destination_panics_in_both_profiles() {
    let mut sw = BehavioralSwitch::new(SwitchConfig::symmetric(8, 64));
    let mut arr = vec![None; 8];
    arr[0] = Some(35);
    sw.tick(&arr);
}

// ---------------------------------------------------------------------------
// 2. RTL twin
// ---------------------------------------------------------------------------

#[test]
fn rtl_matches_scalar_reference_on_load_grid() {
    let cfg = SwitchConfig::symmetric(4, 16);
    let s = cfg.stages();
    for load in LOADS {
        let offers = load_schedule(4, s, load, 2_000, 0x57A6 + (load * 100.0) as u64);
        let rec_new = Shared::new(Recorder::unbounded());
        let mut sw_new = PipelinedSwitch::new(cfg.clone());
        sw_new.attach_probe(rec_new.handle());
        let (d_new, c_new) = drive_word!(sw_new, 4, s, offers);
        let rec_ref = Shared::new(Recorder::unbounded());
        let mut sw_ref = PipelinedSwitchRef::new(cfg.clone());
        sw_ref.attach_probe(rec_ref.handle());
        let (d_ref, c_ref) = drive_word!(sw_ref, 4, s, offers);
        assert!(!d_ref.is_empty(), "load {load}: workload too thin");
        assert_eq!(
            d_new, d_ref,
            "load {load}: RTL deliveries diverged from scalar reference"
        );
        let (c_new, c_ref): (SwitchCounters, SwitchCounters) = (c_new, c_ref);
        assert_eq!(c_new, c_ref, "load {load}: RTL counters diverged");
        let e_new: ProbeLog = rec_new.with(|r| r.iter().cloned().collect());
        let e_ref: ProbeLog = rec_ref.with(|r| r.iter().cloned().collect());
        assert_eq!(e_new, e_ref, "load {load}: RTL probe streams diverged");
    }
}

/// What one word-level lockstep cell ran.
#[derive(Debug, Default)]
struct RtlCell {
    delivered: usize,
    /// Truncated packets reclaimed before their write wave was granted
    /// (`withdraw_write` + `release`).
    withdrawn: usize,
    /// Truncated packets condemned after it, dropped at their read.
    poisoned: usize,
}

/// One cell of the word-level grid: the live RTL and its scalar twin in
/// lockstep over one word schedule, compared every cycle on the words of
/// every output link and on quiescence, and at the end on the counters
/// and, where `probed`, the whole probe stream. With `truncate > 0` the
/// switch is hardened and a sending input stops mid-packet with that
/// probability per word; payloads are verified for untruncated packets
/// only, and a probed cell reports which truncation path each dropped
/// packet took.
fn rtl_lockstep_cell(
    cfg: &SwitchConfig,
    load: f64,
    seed: u64,
    probed: bool,
    truncate: f64,
) -> RtlCell {
    let (n_in, n_out, s) = (cfg.n_in, cfg.n_out, cfg.stages());
    let what = format!(
        "RTL {n_in}x{n_out} {:?} ct={} load {load}",
        cfg.arbiter, cfg.cut_through
    );
    let mut cfg = cfg.clone();
    cfg.integrity.harden |= truncate > 0.0;
    let mut live = PipelinedSwitch::new(cfg.clone());
    let mut twin = PipelinedSwitchRef::new(cfg);
    let (rec_live, rec_twin) = (
        Shared::new(Recorder::unbounded()),
        Shared::new(Recorder::unbounded()),
    );
    if probed {
        live.attach_probe(rec_live.handle());
        twin.attach_probe(rec_twin.handle());
    }
    // 80 % unicast, 20 % a random non-empty destination set.
    let mut rng = SplitMix64::new(seed);
    let all = u16::MAX >> (16 - n_out);
    let mut current: Vec<Option<(Vec<u64>, usize)>> = vec![None; n_in];
    let mut wire: Vec<Option<u64>> = vec![None; n_in];
    let mut col = OutputCollector::new(n_out, s);
    let offered_cycles = 40 * s as u64;
    let (mut t, mut id) = (0u64, 0u64);
    // Truncated packet id -> the cycle its link went idle.
    let mut truncated = HashMap::new();
    while t < offered_cycles || current.iter().any(Option::is_some) || !live.is_quiescent() {
        assert!(t < offered_cycles + 100_000, "{what}: failed to drain");
        for (i, (w, slot)) in wire.iter_mut().zip(current.iter_mut()).enumerate() {
            let mid_packet = slot.as_ref().is_some_and(|(_, k)| *k > 0);
            if mid_packet && truncate > 0.0 && rng.chance(truncate) {
                let (words, _) = slot.take().expect("mid-packet");
                truncated.insert(Packet::decode_header_any(words[0]).1, t);
                *w = None;
                continue;
            }
            if slot.is_none() && t < offered_cycles && rng.chance(load / s as f64) {
                id += 1;
                let unicast = rng.below_usize(n_out);
                let multicast = rng.next_u64() as u16 & all;
                let p = if multicast != 0 && rng.chance(0.2) {
                    Packet::synth_multicast(id, i, multicast, s, t)
                } else {
                    Packet::synth(id, i, unicast, s, t)
                };
                *slot = Some((p.words, 0));
            }
            *w = slot.as_mut().map(|(words, k)| {
                *k += 1;
                words[*k - 1]
            });
            if slot.as_ref().is_some_and(|(words, k)| *k == words.len()) {
                *slot = None;
            }
        }
        let out = live.tick(&wire);
        assert_eq!(out, twin.tick(&wire), "{what}: output links in cycle {t}");
        col.observe(t, out);
        assert_eq!(
            live.is_quiescent(),
            twin.is_quiescent(),
            "{what}: quiescence after cycle {t}"
        );
        t += 1;
    }
    let intact = col
        .delivered()
        .iter()
        .filter(|d| !truncated.contains_key(&d.id));
    assert!(intact.clone().all(|d| d.verify_payload()), "{what}");
    assert_eq!(live.counters(), twin.counters(), "{what}: counters");
    let e_live: ProbeLog = rec_live.with(|r| r.iter().cloned().collect());
    let e_twin: ProbeLog = rec_twin.with(|r| r.iter().cloned().collect());
    assert_eq!(e_live.is_empty(), !probed, "{what}: probe attached");
    assert_eq!(e_live, e_twin, "{what}: probe streams");
    // A withdrawn packet is dropped while its link's idle word is taken
    // in, ahead of that cycle's arbitration; a poisoned one at a read
    // initiation, after some arbitration.
    let mut cell = RtlCell {
        delivered: col.delivered().len(),
        ..RtlCell::default()
    };
    let mut arbitrated = None;
    for e in &e_live {
        match e.event {
            ProbeEvent::Arbitration { .. } => arbitrated = Some(e.cycle),
            ProbeEvent::Drop {
                id,
                reason: DropReason::Truncated,
            } => {
                let at = truncated[&id];
                if e.cycle == at && arbitrated != Some(at) {
                    cell.withdrawn += 1;
                } else {
                    cell.poisoned += 1;
                }
            }
            _ => {}
        }
    }
    cell
}

/// The behavioral shape grid, on the word-level model: its request
/// state is the same kept masks and wake calendar.
#[test]
fn rtl_matches_scalar_reference_on_the_shape_grid() {
    use telegraphos::switch_core::arbiter::ArbiterPolicy::{
        Alternate, ReadPriority, WritePriority,
    };
    let shapes = [(3, 3), (5, 2), (2, 6), (7, 8), (1, 1), (16, 16)];
    let mut cells = 0;
    for (k, &(n_in, n_out)) in shapes.iter().enumerate() {
        let mut cell = 0;
        let mut delivered = 0;
        for arbiter in [ReadPriority, WritePriority, Alternate] {
            for cut_through in [true, false] {
                for load in LOADS {
                    let mut cfg = SwitchConfig::symmetric(n_in, 2 * n_out + 2);
                    cfg.n_out = n_out;
                    cfg.arbiter = arbiter;
                    cfg.cut_through = cut_through;
                    cfg.fused_cut_through = cut_through;
                    let seed = 0xD1F + 1_000 * k as u64 + cell;
                    let probed = cell == 5 * k as u64 % 18;
                    delivered += rtl_lockstep_cell(&cfg, load, seed, probed, 0.0).delivered;
                    cell += 1;
                }
            }
        }
        assert!(delivered > 100, "{n_in}x{n_out}: workload too thin");
        cells += cell;
    }
    assert_eq!(cells, 108);
}

/// The two truncation paths of a hardened RTL against its twin, every
/// cell probed: an input going idle mid-packet before its write wave is
/// granted withdraws the write and releases the slot, one going idle
/// after it poisons the slot for the read side to drop.
#[test]
fn rtl_matches_scalar_reference_under_truncation() {
    let shapes = [(3, 3), (5, 2), (2, 6), (7, 8)];
    let mut total = RtlCell::default();
    for (k, &(n_in, n_out)) in shapes.iter().enumerate() {
        for cut_through in [true, false] {
            for load in LOADS {
                let mut cfg = SwitchConfig::symmetric(n_in, 2 * n_out + 2);
                cfg.n_out = n_out;
                cfg.cut_through = cut_through;
                cfg.fused_cut_through = cut_through;
                let seed = 0x7C0 + 1_000 * k as u64 + (load * 100.0) as u64;
                let cell = rtl_lockstep_cell(&cfg, load, seed, true, 0.05);
                total.delivered += cell.delivered;
                total.withdrawn += cell.withdrawn;
                total.poisoned += cell.poisoned;
            }
        }
    }
    assert!(total.delivered > 500, "workload too thin: {total:?}");
    assert!(
        total.withdrawn > 0,
        "no truncation before a write grant: {total:?}"
    );
    assert!(
        total.poisoned > 0,
        "no truncation after a write grant: {total:?}"
    );
}

// ---------------------------------------------------------------------------
// 3. All four organizations vs the reference oracle
// ---------------------------------------------------------------------------

#[test]
fn all_four_organizations_match_the_reference_oracle() {
    // Generous shared buffer: the oracle comparison is about *timing*
    // agreement across organizations; drop divergence under overload is
    // the conformance fuzzer's (credit-flow-controlled) territory.
    let n = 4;
    let slots = 64;
    let cfg = SwitchConfig::symmetric(n, slots);
    let s = cfg.stages();
    for load in LOADS {
        let offers = load_schedule(n, s, load, 2_000, 0x4C6 + (load * 100.0) as u64);
        // Oracle: the frozen scalar behavioral reference.
        let (d_ref, _, _) = drive_cell!(BehavioralSwitchRef, ref_counts, cfg, offers);
        let mut oracle: Vec<(usize, Cycle, Cycle)> = d_ref
            .iter()
            .map(|d| (d.output, d.read_start + 1, d.done))
            .collect();
        oracle.sort_unstable();
        assert!(!oracle.is_empty(), "load {load}: workload too thin");
        // The bit-parallel behavioral model against the oracle.
        let (d_bhv, _, _) = drive_cell!(BehavioralSwitch, live_counts, cfg, offers);
        let mut bhv: Vec<(usize, Cycle, Cycle)> = d_bhv
            .iter()
            .map(|d| (d.output, d.read_start + 1, d.done))
            .collect();
        bhv.sort_unstable();
        assert_eq!(bhv, oracle, "load {load}: behavioral vs oracle");
        // The three word-level organizations against the oracle.
        let (d, _) = drive_word!(PipelinedSwitch::new(cfg.clone()), n, s, offers);
        let mut got: Vec<(usize, Cycle, Cycle)> = d.iter().map(|&(_, o, f, l)| (o, f, l)).collect();
        got.sort_unstable();
        assert_eq!(got, oracle, "load {load}: pipelined vs oracle");
        // Wide and interleaved run the same architecture with different
        // internal timing; the oracle-pinned invariant is *delivery
        // identity*: the same packet ids reach the same outputs.
        let mut oracle_ids: Vec<(usize, u64)> = d_ref.iter().map(|d| (d.output, d.id)).collect();
        oracle_ids.sort_unstable();
        let (d, _) = drive_word!(
            WideMemorySwitchRtl::new(WideSwitchConfig::fig3(n, slots)),
            n,
            s,
            offers
        );
        let mut got_ids: Vec<(usize, u64)> = d.iter().map(|&(id, o, ..)| (o, id)).collect();
        got_ids.sort_unstable();
        assert_eq!(got_ids, oracle_ids, "load {load}: wide vs oracle");
        let (d, _) = drive_word!(
            InterleavedSwitch::new(InterleavedSwitchConfig::symmetric(n, slots)),
            n,
            s,
            offers
        );
        let mut got_ids: Vec<(usize, u64)> = d.iter().map(|&(id, o, ..)| (o, id)).collect();
        got_ids.sort_unstable();
        assert_eq!(got_ids, oracle_ids, "load {load}: interleaved vs oracle");
    }
}

// ---------------------------------------------------------------------------
// 4. Batching laws
// ---------------------------------------------------------------------------

/// `tick_idle_batch(n)` must be indistinguishable from `n` idle ticks:
/// same departures, counters, probe stream, clock.
#[test]
fn behavioral_idle_batch_equals_scalar_idle_ticks() {
    let cfg = SwitchConfig::symmetric(4, 16);
    let s = cfg.stages();
    let offers = load_schedule(4, s, 0.95, 1_000, 0xBA7C);
    // Drive both switches through the offered span per-cycle, then
    // drain: one per-cycle, one in fused batches of varying width.
    let build = || {
        let mut sw = BehavioralSwitch::new(cfg.clone());
        let rec = Shared::new(Recorder::unbounded());
        sw.attach_probe(rec.handle());
        let mut arr: Vec<Option<usize>> = vec![None; 4];
        let mut k = 0usize;
        for now in 0..1_000u64 {
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
    let idle: Vec<Option<usize>> = vec![None; 4];
    let mut width = 1u64;
    while !a.is_quiescent() || !b.is_quiescent() {
        for _ in 0..width {
            a.tick(&idle);
        }
        b.tick_idle_batch(width);
        width = width % 7 + 2; // 1,3,5,7,2,4,6,… varied batch widths
        assert!(a.now() < 200_000, "failed to drain");
    }
    assert_eq!(a.now(), b.now(), "clocks diverged");
    assert_eq!(a.departures(), b.departures(), "departures diverged");
    assert_eq!(a.counters(), b.counters(), "counters diverged");
    let ea: ProbeLog = rec_a.with(|r| r.iter().cloned().collect());
    let eb: ProbeLog = rec_b.with(|r| r.iter().cloned().collect());
    assert_eq!(ea, eb, "probe streams diverged");
}

/// Same law for the word-level model's batch entry.
#[test]
fn rtl_idle_batch_equals_scalar_idle_ticks() {
    let cfg = SwitchConfig::symmetric(4, 16);
    let s = cfg.stages();
    let offers = load_schedule(4, s, 0.50, 600, 0x17BA);
    let build = || {
        let mut sw = PipelinedSwitch::new(cfg.clone());
        let rec = Shared::new(Recorder::unbounded());
        sw.attach_probe(rec.handle());
        let mut current: Vec<Option<(Vec<u64>, usize)>> = vec![None; 4];
        let mut wire: Vec<Option<u64>> = vec![None; 4];
        let mut k = 0usize;
        for now in 0..1_000u64 {
            while k < offers.len() && offers[k].at == now {
                let o = offers[k];
                k += 1;
                current[o.input] = Some((Packet::synth(o.id, o.input, o.dst, s, now).words, 0));
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
            sw.tick(&wire);
        }
        (sw, rec)
    };
    let (mut a, rec_a) = build();
    let (mut b, rec_b) = build();
    let idle: Vec<Option<u64>> = vec![None; 4];
    for _ in 0..40 {
        for _ in 0..5 {
            a.tick(&idle);
        }
        b.tick_idle_batch(5);
    }
    assert_eq!(a.now(), b.now(), "clocks diverged");
    assert_eq!(a.counters(), b.counters(), "counters diverged");
    let ea: ProbeLog = rec_a.with(|r| r.iter().cloned().collect());
    let eb: ProbeLog = rec_b.with(|r| r.iter().cloned().collect());
    assert_eq!(ea, eb, "probe streams diverged");
}

/// The batched fast-forward driver must visit exactly the same states as
/// plain dense stepping: same departures, counters, probe stream, and
/// clock at target.
#[test]
fn batched_fast_forward_driver_equals_per_cycle_driver() {
    let cfg = SwitchConfig::symmetric(4, 16);
    let s = cfg.stages();
    for load in LOADS {
        let offers = load_schedule(4, s, load, 2_000, 0xFF0 + (load * 100.0) as u64);
        let run = |batched: bool| {
            let mut sw = BehavioralSwitch::new(cfg.clone());
            let rec = Shared::new(Recorder::unbounded());
            sw.attach_probe(rec.handle());
            let mut arr: Vec<Option<usize>> = vec![None; 4];
            let idle: Vec<Option<usize>> = vec![None; 4];
            let mut k = 0usize;
            let mut now = 0u64;
            while k < offers.len() {
                let at = offers[k].at;
                if at > now {
                    if batched {
                        advance_to_batched(&mut sw, at);
                    } else {
                        while sw.now() < at {
                            sw.tick(&idle);
                        }
                    }
                    now = at;
                }
                arr.fill(None);
                while k < offers.len() && offers[k].at == now {
                    let o = offers[k];
                    k += 1;
                    arr[o.input] = Some(o.dst);
                }
                sw.tick(&arr);
                now += 1;
            }
            let target = now + 50_000;
            if batched {
                advance_to_batched(&mut sw, target);
            } else {
                while sw.now() < target {
                    sw.tick(&idle);
                }
            }
            assert!(sw.is_quiescent(), "failed to drain by target");
            let deps = sw.departures().to_vec();
            let events: ProbeLog = rec.with(|r| r.iter().cloned().collect());
            (sw.now(), deps, sw.counters(), events)
        };
        let dense = run(false);
        let batched = run(true);
        assert_eq!(
            dense, batched,
            "load {load}: batched driver diverged from dense stepping"
        );
    }
}

// ---------------------------------------------------------------------------
// 5. Fault injection under the fast-forward driver
// ---------------------------------------------------------------------------

/// One memory strike: at cycle `at`, xor `mask` into the slot's word in
/// bank-stage `stage`. A ~30% minority of masks carry two bits (beyond
/// SEC-DED correction), so the detect-drop path is exercised alongside
/// correct-in-place.
#[derive(Debug, Clone, Copy)]
struct Strike {
    at: Cycle,
    stage: usize,
    slot: usize,
    mask: u64,
}

/// Strikes aimed at the busy spans of `offers`: each lands within `2s`
/// cycles of some launch, when the struck slot plausibly holds live
/// words.
fn strike_schedule(
    offers: &[Offer],
    s: usize,
    slots: usize,
    count: usize,
    seed: u64,
) -> Vec<Strike> {
    let mut rng = SplitMix64::new(seed);
    let mut strikes: Vec<Strike> = (0..count)
        .map(|_| {
            let o = offers[rng.below_usize(offers.len())];
            let bit = rng.below_usize(64);
            let mut mask = 1u64 << bit;
            if rng.chance(0.3) {
                mask |= 1u64 << ((bit + 1 + rng.below_usize(63)) % 64);
            }
            Strike {
                at: o.at + rng.below(2 * s as u64),
                stage: rng.below_usize(s),
                slot: rng.below_usize(slots),
                mask,
            }
        })
        .collect();
    strikes.sort_by_key(|st| st.at);
    strikes
}

/// Dense stepping vs `advance_to_batched` on the ECC-armed pipelined RTL
/// under a strike schedule: both drivers inject the same strikes at the
/// same absolute cycles (fast-forward targets are bounded by the next
/// strike), so the clock, the full counter set — ECC corrections,
/// uncorrectable words, integrity drops — and the probe streams must
/// come out byte-identical.
#[test]
fn fault_injected_fast_forward_drivers_agree_on_detection_counters() {
    let mut cfg = SwitchConfig::symmetric(4, 16);
    cfg.cut_through = false;
    cfg.fused_cut_through = false;
    cfg.integrity.checksum = true;
    cfg.integrity.payload_check = true;
    cfg.integrity.harden = true;
    let cfg = cfg.with_recovery(RecoveryConfig::ecc_only());
    let s = cfg.stages();
    let (mut corrected, mut detected) = (0u64, 0u64);
    for load in [0.10, 0.95] {
        let offers = load_schedule(4, s, load, 1_500, 0xECC + (load * 100.0) as u64);
        let strikes = strike_schedule(&offers, s, 16, 32, 0x5712 + (load * 100.0) as u64);
        let run = |batched: bool| {
            let mut sw = PipelinedSwitch::new(cfg.clone());
            let rec = Shared::new(Recorder::unbounded());
            sw.attach_probe(rec.handle());
            let mut current: Vec<Option<(Vec<u64>, usize)>> = vec![None; 4];
            let mut wire: Vec<Option<u64>> = vec![None; 4];
            let mut k = 0usize;
            let mut f = 0usize;
            let mut grace = 0u64;
            loop {
                let now = sw.now();
                while f < strikes.len() && strikes[f].at == now {
                    let st = strikes[f];
                    f += 1;
                    let _ = sw.inject_bank_fault(st.stage, Addr(st.slot), st.mask);
                }
                let exhausted = k == offers.len() && f == strikes.len();
                let is_idle =
                    exhausted && current.iter().all(Option::is_none) && sw.next_event().is_none();
                if is_idle {
                    grace += 1;
                    if grace > s as u64 + 4 {
                        break;
                    }
                } else {
                    grace = 0;
                }
                assert!(
                    now < 1_000_000,
                    "batched={batched}: failed to drain under faults"
                );
                if batched && !is_idle && current.iter().all(Option::is_none) {
                    let mut target = u64::MAX;
                    if let Some(o) = offers.get(k) {
                        target = target.min(o.at);
                    }
                    if let Some(st) = strikes.get(f) {
                        target = target.min(st.at);
                    }
                    if target != u64::MAX && target > now {
                        advance_to_batched(&mut sw, target);
                        continue;
                    }
                }
                while k < offers.len() && offers[k].at == now {
                    let o = offers[k];
                    k += 1;
                    current[o.input] = Some((Packet::synth(o.id, o.input, o.dst, s, now).words, 0));
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
                sw.tick(&wire);
            }
            let events: ProbeLog = rec.with(|r| r.iter().cloned().collect());
            (sw.now(), sw.counters(), events)
        };
        let dense = run(false);
        let batched = run(true);
        assert_eq!(
            dense, batched,
            "load {load}: advance_to_batched driver diverged from dense under faults"
        );
        corrected += dense.1.ecc_corrected;
        detected += dense.1.ecc_uncorrectable + dense.1.corrupt_drops;
    }
    // Non-vacuity: the agreement proves nothing if no strike was ever
    // corrected or detect-dropped.
    assert!(corrected > 0, "no strike was ever ECC-corrected");
    assert!(detected > 0, "no double-bit strike was ever detected");
}
