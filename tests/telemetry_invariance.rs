//! Telemetry is behavior-neutral (DESIGN.md §10).
//!
//! Attaching a probe must never change what a switch *does* — only what
//! it *reports*. This property test drives every organization
//! (behavioral, pipelined RTL, wide-memory, interleaved) over seeded
//! bursty schedules three times: probe off, [`NullSink`] attached, and a
//! bounded [`Recorder`] attached. The departure streams and counters
//! must be byte-identical across all three. A golden-file test pins the
//! VCD export of a tiny deterministic run byte-for-byte alongside.

mod common;

use common::{check_golden, Fnv};
use std::fmt::Write as _;
use telegraphos::simkernel::cell::Packet;
use telegraphos::simkernel::ids::Cycle;
use telegraphos::simkernel::SplitMix64;
use telegraphos::switch_core::behavioral::BehavioralSwitch;
use telegraphos::switch_core::config::{IntegrityConfig, SwitchConfig};
use telegraphos::switch_core::events::SwitchCounters;
use telegraphos::switch_core::recovery::RecoveryConfig;
use telegraphos::switch_core::rtl::{OutputCollector, PipelinedSwitch};
use telegraphos::switch_core::widemem::{WideMemorySwitchRtl, WideSwitchConfig};
use telegraphos::switch_core::{PolicyKind, WordOrg, WordSwitch};
use telegraphos::telemetry::{
    vcd, GaugeKind, NullSink, Probe, ProbeEvent, ProbeHandle, Recorder, Shared,
};
use telegraphos::traffic::{DestDist, PacketFeeder};

/// One observed delivery: (id, output, first cycle, last cycle).
type Delivery = (u64, usize, Cycle, Cycle);

/// One scheduled launch: header enters input `input` at cycle `at`.
#[derive(Debug, Clone, Copy)]
struct Offer {
    at: Cycle,
    input: usize,
    dst: usize,
    id: u64,
}

/// A bursty schedule (same shape as `tests/fast_forward.rs`): clusters
/// of back-to-back packets separated by idle gaps, framing-respecting.
fn bursty_schedule(n: usize, s: usize, bursts: usize, seed: u64) -> Vec<Offer> {
    let mut rng = SplitMix64::new(seed);
    let mut offers = Vec::new();
    let mut next_free = vec![0u64; n];
    let mut base = 0u64;
    let mut id = 1u64;
    for _ in 0..bursts {
        base += 50 + rng.below(400);
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

/// The probe a run gets attached.
#[derive(Clone, Copy)]
enum Sink {
    Off,
    Null,
    Bounded,
}

impl Sink {
    fn build(self) -> Option<ProbeHandle> {
        match self {
            Sink::Off => None,
            Sink::Null => Some(ProbeHandle::new(NullSink)),
            Sink::Bounded => Some(Shared::new(Recorder::bounded(128)).handle()),
        }
    }
}

/// `org` at `(n, slots)` with recovery and sharing policy as given and
/// `probe` (if any) attached.
fn build(
    org: WordOrg,
    n: usize,
    slots: usize,
    rec: RecoveryConfig,
    policy: PolicyKind,
    probe: Option<ProbeHandle>,
) -> Box<dyn WordSwitch> {
    let mut sw = org.build(n, slots, rec, policy);
    if let Some(p) = probe {
        sw.attach_probe(p);
    }
    sw
}

/// Replay `offers` densely on a word-level organization with `sink`
/// attached; returns the delivery stream plus counters. With `faults`,
/// ECC arms with one spare that takes over at a bank's first correction
/// and single-bit upsets rain on the slots; the pipelined RTL also gets
/// hardened framing, the egress payload check, a stuck write at stage 1,
/// every seventh packet cut one word short and every eleventh headed for
/// an output that does not exist.
fn run_word(
    org: WordOrg,
    n: usize,
    offers: &[Offer],
    sink: Sink,
    faults: bool,
) -> (Vec<Delivery>, SwitchCounters) {
    let rec = if faults {
        RecoveryConfig::full(1, 1)
    } else {
        RecoveryConfig::default()
    };
    let rtl_faults = faults && org == WordOrg::Pipelined;
    let mut sw: Box<dyn WordSwitch> = if rtl_faults {
        let mut cfg = SwitchConfig::symmetric(n, 4 * n).with_recovery(rec);
        cfg.integrity = IntegrityConfig {
            checksum: true,
            payload_check: true,
            harden: true,
        };
        let mut sw = PipelinedSwitch::new(cfg);
        sw.force_stuck_write(1, 600);
        if let Some(p) = sink.build() {
            sw.attach_probe(p);
        }
        Box::new(sw)
    } else {
        build(org, n, 4 * n, rec, PolicyKind::Static, sink.build())
    };
    let s = sw.packet_words();
    let mut strikes = SplitMix64::new(0xECC);
    let mut col = OutputCollector::new(n, s);
    let mut current: Vec<Option<(Vec<u64>, usize)>> = vec![None; n];
    let mut wire = vec![None; n];
    let mut deliveries = Vec::new();
    let mut k = 0;
    let mut grace = 0u64;
    loop {
        let now = sw.now();
        let exhausted = k == offers.len();
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
        while k < offers.len() && offers[k].at == now {
            let o = offers[k];
            k += 1;
            let mut p = Packet::synth(o.id, o.input, o.dst, s, now);
            if rtl_faults && o.id.is_multiple_of(7) {
                p.words.pop();
            }
            if rtl_faults && o.id.is_multiple_of(11) {
                p.words[0] = Packet::encode_header(n, o.id);
            }
            current[o.input] = Some((p.words, 0));
        }
        if faults && strikes.chance(0.1) {
            let (slot, word) = (strikes.below_usize(4 * n), strikes.below_usize(s));
            sw.inject_upset(slot, word, 1 << strikes.below_usize(64));
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
            assert!(faults || d.verify_payload(), "{org}: corrupted payload");
            deliveries.push((d.id, d.output.index(), d.first_cycle, d.last_cycle));
        }
    }
    (deliveries, sw.counters())
}

/// Replay `offers` on the behavioral model with `sink` attached.
fn run_behavioral(n: usize, offers: &[Offer], sink: Sink) -> (Vec<Delivery>, SwitchCounters) {
    let cfg = SwitchConfig::symmetric(n, 4 * n);
    let s = cfg.stages();
    let mut sw = BehavioralSwitch::new(cfg);
    if let Some(p) = sink.build() {
        sw.attach_probe(p);
    }
    let mut arr: Vec<Option<usize>> = vec![None; n];
    let mut k = 0;
    let mut grace = 0u64;
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
        arr.fill(None);
        while k < offers.len() && offers[k].at == now {
            let o = offers[k];
            k += 1;
            arr[o.input] = Some(o.dst);
        }
        sw.tick(&arr);
    }
    let departures = sw
        .departures()
        .iter()
        .map(|d| (d.id, d.output, d.birth, d.done))
        .collect();
    (departures, sw.counters())
}

/// Without and with the recovery and integrity machinery armed (see
/// `run_word`): the RTL's unprobed kernel must match its probed one on
/// the ECC, failover, stuck-write and hardened-framing paths too.
#[test]
fn word_orgs_are_probe_invariant() {
    let n = 4;
    for faults in [false, true] {
        for org in WordOrg::ALL {
            let mut fault_counts = SwitchCounters::default();
            for seed in 0..4u64 {
                let s = 2 * n;
                let offers = bursty_schedule(n, s, 6, 0x7E1E + seed);
                let (off_d, off_c) = run_word(org, n, &offers, Sink::Off, faults);
                let (null_d, null_c) = run_word(org, n, &offers, Sink::Null, faults);
                let (rec_d, rec_c) = run_word(org, n, &offers, Sink::Bounded, faults);
                let what = format!("{org} seed {seed} faults {faults}");
                assert_eq!(off_d, null_d, "{what}: NullSink changed deliveries");
                assert_eq!(off_c, null_c, "{what}: NullSink changed counters");
                assert_eq!(off_d, rec_d, "{what}: Recorder changed deliveries");
                assert_eq!(off_c, rec_c, "{what}: Recorder changed counters");
                fault_counts.ecc_corrected += off_c.ecc_corrected;
                fault_counts.bank_failovers += off_c.bank_failovers;
                fault_counts.writes_suppressed += off_c.writes_suppressed;
                fault_counts.corrupt_drops += off_c.corrupt_drops;
            }
            if faults {
                assert!(fault_counts.ecc_corrected > 0, "{org}: no correction");
                assert!(fault_counts.bank_failovers > 0, "{org}: no failover");
            }
            if faults && org == WordOrg::Pipelined {
                assert!(fault_counts.writes_suppressed > 0, "no stuck write landed");
                assert!(fault_counts.corrupt_drops > 0, "no packet was condemned");
            }
        }
    }
}

#[test]
fn behavioral_is_probe_invariant() {
    let n = 4;
    let s = SwitchConfig::symmetric(n, 4 * n).stages();
    for seed in 0..4u64 {
        let offers = bursty_schedule(n, s, 6, 0xAB1E + seed);
        let (off_d, off_c) = run_behavioral(n, &offers, Sink::Off);
        let (null_d, null_c) = run_behavioral(n, &offers, Sink::Null);
        let (rec_d, rec_c) = run_behavioral(n, &offers, Sink::Bounded);
        assert_eq!(off_d, null_d, "seed {seed}: NullSink changed departures");
        assert_eq!(off_c, null_c, "seed {seed}: NullSink changed counters");
        assert_eq!(off_d, rec_d, "seed {seed}: Recorder changed departures");
        assert_eq!(off_c, rec_c, "seed {seed}: Recorder changed counters");
    }
}

/// The tiny deterministic run behind the golden VCD: a 2×2 pipelined
/// switch, one packet in0 → out1, drained.
fn tiny_traced_run() -> String {
    let cfg = SwitchConfig::symmetric(2, 8);
    let s = cfg.stages();
    let mut sw = PipelinedSwitch::new(cfg);
    let rec = Shared::new(Recorder::unbounded());
    sw.attach_probe(rec.handle());
    let p = Packet::synth(1, 0, 1, s, 0);
    for k in 0..16 {
        let wire = [p.words.get(k).copied(), None];
        sw.tick(&wire);
    }
    let entries = rec.entries();
    let topo = vcd::Topo {
        n_in: 2,
        n_out: 2,
        stages: s,
    };
    vcd::export(entries.iter(), &topo)
}

#[test]
fn vcd_export_matches_the_golden_file() {
    let doc = tiny_traced_run();
    vcd::validate(&doc).expect("well-formed VCD");
    check_golden("tiny.vcd", &doc);
}

/// Once retirements outrun the spare pool, the wide organization's
/// occupancy gauge must keep following the rows still in circulation: it
/// used to count the retired rows as occupied and never returned to 0.
#[test]
fn wide_occupancy_gauge_returns_to_zero_in_degraded_mode() {
    let (n, slots) = (2, 8);
    let rec = Shared::new(Recorder::unbounded());
    // ECC on, retire a row at its first correction, no spares.
    let recovery = RecoveryConfig::full(0, 1);
    let mut sw = build(
        WordOrg::Wide,
        n,
        slots,
        recovery,
        PolicyKind::Static,
        Some(rec.handle()),
    );
    let s = sw.packet_words();
    // Two packets for output 0 at once: one takes the bypass, the other
    // is stored — and struck while it waits in the memory.
    let (a, b) = (Packet::synth(1, 0, 0, s, 0), Packet::synth(2, 1, 0, s, 0));
    let mut struck = false;
    for k in 0..200 {
        sw.tick(&[a.words.get(k).copied(), b.words.get(k).copied()]);
        struck = struck || (0..slots).any(|row| sw.inject_upset(row, 1, 1));
        if k >= s && sw.is_quiescent() {
            break;
        }
    }
    assert!(struck, "no upset ever landed on a stored packet");
    assert!(sw.is_quiescent(), "failed to drain");
    assert_eq!(sw.counters().departed, 2);
    assert!(sw.is_degraded(), "the struck row must retire with no spare");
    let last_occupancy = rec.entries().iter().rev().find_map(|e| match e.event {
        ProbeEvent::Gauge {
            gauge: GaugeKind::Occupancy,
            value,
            ..
        } => Some(value),
        _ => None,
    });
    assert_eq!(last_occupancy, Some(0), "drained, yet the gauge reads busy");
}

/// Folds every `(cycle, event)` of a probe stream, in order.
struct DigestSink {
    h: Fnv,
    events: u64,
}

impl Probe for DigestSink {
    fn record(&mut self, cycle: Cycle, event: ProbeEvent) {
        self.h.words(&[cycle]);
        write!(self.h, "{event}").expect("hashing cannot fail");
        self.events += 1;
    }
}

/// The `delivered events deliveries state probe` columns of one row of
/// `tests/golden/switch_digests.txt`: the `n × n` switch `sw` (`slots`
/// packet slots) under 2000 cycles of uniform random traffic at `load`,
/// drained, its whole probe stream hashed. With `upsets`, single-bit
/// strikes rain on the primary slots throughout.
fn digest_columns(
    sw: &mut dyn WordSwitch,
    what: &str,
    (n, slots): (usize, usize),
    load: f64,
    upsets: bool,
) -> String {
    let (s, cycles) = (2 * n, 2_000);
    let sink = Shared::new(DigestSink {
        h: Fnv::new(),
        events: 0,
    });
    sw.attach_probe(sink.handle());
    let mut feeders: Vec<PacketFeeder> = (0..n)
        .map(|i| PacketFeeder::random(i, s, load, DestDist::uniform(n), 0x601D, n as u64))
        .collect();
    let mut col = OutputCollector::new(n, s);
    let mut strikes = SplitMix64::new(0xECC);
    let mut deliveries = Fnv::new();
    let mut delivered = 0u64;
    let mut wire = vec![None; n];
    let mut quiet = 0;
    while quiet <= s + 4 {
        let now = sw.now();
        assert!(now < cycles + 100_000, "{what} failed to drain");
        if now == cycles {
            feeders.iter_mut().for_each(PacketFeeder::halt);
        }
        if upsets && strikes.chance(0.25) {
            let (slot, word) = (strikes.below_usize(slots), strikes.below_usize(s));
            sw.inject_upset(slot, word, 1 << strikes.below_usize(64));
        }
        for (w, f) in wire.iter_mut().zip(feeders.iter_mut()) {
            *w = f.tick(now);
        }
        col.observe(now, sw.tick(&wire));
        for d in col.take() {
            deliveries.words(&[d.id, d.output.index() as u64, d.first_cycle, d.last_cycle]);
            delivered += 1;
        }
        let busy = now < cycles || wire.iter().any(Option::is_some) || !sw.is_quiescent();
        quiet = if busy { 0 } else { quiet + 1 };
    }
    let ctr = sw.counters();
    let mut state = Fnv::new();
    write!(state, "{ctr:?} {:?}", sw.recovery_windows().spans()).expect("hashing cannot fail");
    let (probe, events) = sink.with(|k| (k.h.0, k.events));
    format!(
        "{delivered} {events} {:#018x} {:#018x} {probe:#018x}",
        deliveries.0, state.0
    )
}

/// One row of the file's first block: a 4×4 switch with 8 slots.
fn golden_row(
    org: WordOrg,
    load: f64,
    policy: PolicyKind,
    rec: RecoveryConfig,
    upsets: bool,
) -> String {
    let mut sw = org.build(4, 8, rec, policy);
    let digests = digest_columns(sw.as_mut(), org.label(), (4, 8), load, upsets);
    let tag = if upsets {
        let ctr = sw.counters();
        assert!(ctr.ecc_corrected > 0, "{org}: no upset was ever corrected");
        assert!(ctr.bank_failovers > 0, "{org}: no bank ever failed over");
        // The wide organization's degraded-mode occupancy gauge is not
        // pinned (it read high by the retired rows before PR 13).
        assert!(
            org != WordOrg::Wide || !sw.is_degraded(),
            "wide cell must keep spares"
        );
        "ecc-failover".to_string()
    } else {
        format!("{load:.2} {}", policy.token())
    };
    format!("{org} {tag} {digests}")
}

/// Deliveries, final counters and the full probe stream of every
/// word-level organization, pinned. A refactor of the switch models must
/// leave `tests/golden/switch_digests.txt` byte-identical; regenerate it
/// (`UPDATE_GOLDEN=1`) only when simulated behaviour is meant to change.
#[test]
fn switch_digests_match_the_golden_file() {
    let mut doc = String::from(
        "# 4x4, 8 slots, 2000 cycles of uniform traffic (seed 0x601D) then drained.\n\
         # FNV-1a of: deliveries (id, output, first, last) | final SwitchCounters and\n\
         # recovery windows | every (cycle, ProbeEvent) in order.\n\
         # org load policy delivered events deliveries state probe\n",
    );
    for org in WordOrg::ALL {
        for load in [0.1, 0.5, 0.95] {
            for policy in PolicyKind::all_default() {
                let row = golden_row(org, load, policy, RecoveryConfig::default(), false);
                writeln!(doc, "{row}").expect("string write");
            }
        }
        // Spare columns/banks run out (degraded mode is pinned); the
        // wide organization keeps spare rows in hand, see `golden_row`.
        let spares = if org == WordOrg::Wide { 16 } else { 1 };
        let rec = RecoveryConfig::full(spares, 2);
        let row = golden_row(org, 0.5, PolicyKind::Static, rec, true);
        writeln!(doc, "{row}").expect("string write");
    }

    // What the first block does not reach of the two alternative
    // organizations. Fig. 3 with a feature removed: no bypass crossbar
    // (every packet goes through staging and the memory), a single input
    // row (a staged packet is overwritten when the next one starts
    // arriving), or both.
    doc.push_str(
        "# The wide memory without its bypass crossbar (-xbar), without input double\n\
         # buffering (-dbuf), without either; same geometry and traffic.\n",
    );
    for (label, double_buffering, cut_through_crossbar) in [
        ("wide-xbar", true, false),
        ("wide-dbuf", false, true),
        ("wide-xbar-dbuf", false, false),
    ] {
        for load in [0.5, 0.95] {
            for policy in [PolicyKind::Static, PolicyKind::PushOut] {
                let mut sw = WideMemorySwitchRtl::new(WideSwitchConfig {
                    double_buffering,
                    cut_through_crossbar,
                    ..WideSwitchConfig::fig3(4, 8).with_policy(policy)
                });
                let digests = digest_columns(&mut sw, label, (4, 8), load, false);
                let overruns = sw.counters().latch_overruns;
                assert!(
                    double_buffering || overruns > 0,
                    "{label} {load}: a single input row never overran"
                );
                writeln!(doc, "{label} {load:.2} {} {digests}", policy.token())
                    .expect("string write");
            }
        }
    }
    // `benchmark/`'s geometry and the next size up, under the static pool
    // and under a preempting policy on a pool small enough to evict.
    doc.push_str("# n x n ports, load 0.80; org:n:slots in the first column.\n");
    for org in [WordOrg::Wide, WordOrg::Interleaved] {
        for (n, slots, policy) in [
            (8, 64, PolicyKind::Static),
            (8, 12, PolicyKind::PushOut),
            (16, 64, PolicyKind::Static),
            (16, 16, PolicyKind::PushOut),
        ] {
            let label = format!("{org}:{n}:{slots}");
            let mut sw = org.build(n, slots, RecoveryConfig::default(), policy);
            let digests = digest_columns(sw.as_mut(), &label, (n, slots), 0.8, false);
            let preempts = sw.counters().policy_preempts;
            assert!(
                policy == PolicyKind::Static || preempts > 0,
                "{label} {}: nothing was ever evicted",
                policy.token()
            );
            writeln!(doc, "{label} 0.80 {} {digests}", policy.token()).expect("string write");
        }
    }
    check_golden("switch_digests.txt", &doc);
}
