//! E17 — chaos campaign: the recovery ladder under fault-rate × load
//! (extension; not in the paper).
//!
//! E16 measured *detection* coverage; this campaign measures *recovery*.
//! Every point runs an organization with the full recovery ladder armed
//! ([`RecoveryConfig::full`]: SEC-DED ECC, spare banks, failover after a
//! correction threshold) and reports what graceful degradation actually
//! cost:
//!
//! - **MTTR** — mean length (cycles) of the declared recovery windows:
//!   the switch's windows and the link-retry windows pooled, total
//!   window cycles over episodes;
//! - **in-window loss** — packets shed at admission inside a window plus
//!   frames the link-retry machinery abandoned (`shed + give-ups`), the
//!   loss the conformance oracle excuses as *declared*;
//! - **degraded-mode throughput** — deliveries per kilocycle after the
//!   switch first entered permanent degraded mode (spares exhausted).
//!
//! Three memory organizations face the same single-bit-upset process
//! (the behavioral model has no memory words, hence no ECC story):
//! pipelined RTL (spare bank *columns*), wide memory (spare *rows*) and
//! interleaved banks (spare whole banks). The pipelined RTL additionally
//! faces the two wire-fault classes behind a Go-Back-N link-retry pair
//! ([`RetrySender`]/[`RetryReceiver`]): corrupt frames fail the header
//! CRC and are NAK-replayed; dropped frames are caught by the receiver
//! timeout; a hard-dead frame is abandoned after the replay bound.
//!
//! Upsets here are *single-bit by construction* (drawn from their own
//! `FAULT_STREAM`), so ECC can do its job; uncorrectable words still
//! arise organically when two strikes accumulate on one word.
//! Everything is bit-reproducible at any `--jobs` through
//! [`sweep::map`]. Drains run under the escalating watchdog
//! ([`simkernel::run_until_quiescent_escalating`]): one resync attempt
//! (discard link backlog) buys a second budget before the expiry lands
//! in the process-wide ledger the `expt --watchdog` flag reports.

use crate::{sweep, table};
use simkernel::cell::{header_chance, Packet};
use simkernel::ids::Cycle;
use simkernel::rng::split_seed;
use simkernel::SplitMix64;
use std::cell::RefCell;
use std::collections::VecDeque;
use switch_core::faultsim::{FaultKind, FAULT_STREAM, TRAFFIC_STREAM};
use switch_core::recovery::{
    RecoveryConfig, RecoveryWindows, RetryConfig, RetryReceiver, RetrySender, RxVerdict,
};
use switch_core::rtl::{integrity_checksum, OutputCollector, PipelinedSwitch};
use switch_core::{PolicyKind, WordOrg, WordSwitch};
use traffic::PacketFeeder;

/// One campaign point.
#[derive(Debug, Clone, Copy)]
pub struct ChaosSpec {
    /// Organization under chaos (the behavioral model stores no words,
    /// so it has nothing for ECC to correct): spare bank columns for the
    /// pipelined RTL, spare rows for the wide memory, spare whole banks
    /// for the interleaved one.
    pub org: WordOrg,
    /// Fault process: a bank upset, or one of the two wire faults.
    pub fault: FaultKind,
    /// Per-cycle (bank-upset) or per-word-on-the-wire (wire faults)
    /// strike probability.
    pub rate: f64,
    /// Offered per-input load.
    pub load: f64,
    /// Active traffic cycles (drain on top, under the watchdog).
    pub cycles: u64,
    /// Point RNG seed (split into traffic and fault streams).
    pub seed: u64,
}

/// Measured outcome of one campaign point.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Organization label.
    pub org: String,
    /// Fault-class label.
    pub fault: String,
    /// Strike probability.
    pub rate: f64,
    /// Offered load.
    pub load: f64,
    /// Packets launched into the switch (post-link for wire rows).
    pub sent: u64,
    /// Delivered on the addressed output with a bit-exact payload.
    pub delivered: u64,
    /// Single-bit upsets ECC corrected in place.
    pub corrections: u64,
    /// Words corrupted beyond single-error correction.
    pub uncorrectable: u64,
    /// Banks/rows hot-swapped or retired.
    pub failovers: u64,
    /// Distinct recovery episodes (merged windows + retry episodes).
    pub episodes: u64,
    /// Mean time to recover, cycles (None: no episode ever opened).
    pub mttr: Option<f64>,
    /// Declared in-window loss: admission shed + retry give-ups.
    pub in_window_loss: u64,
    /// Frames retransmitted by the link (wire rows).
    pub retries: u64,
    /// Frames abandoned after the replay bound (wire rows).
    pub give_ups: u64,
    /// Did the switch end in permanent degraded mode?
    pub degraded: bool,
    /// Deliveries per kilocycle after entering degraded mode.
    pub degraded_tput: Option<f64>,
    /// Deliveries per kilocycle over the whole run.
    pub tput: f64,
    /// The post-traffic drain reached quiescence under the watchdog
    /// (after at most one resync escalation).
    pub drained: bool,
}

/// Campaign geometry: 4×4 (8 stages), 16 slots, 2 spares, failover after
/// 4 corrections on one bank. Store-and-forward with the full integrity
/// machinery, mirroring E16, so uncorrectable residue is detect-dropped
/// rather than delivered.
const N: usize = 4;
const SLOTS: usize = 16;
const SPARES: usize = 2;
const THRESHOLD: u64 = 4;

fn recovery() -> RecoveryConfig {
    RecoveryConfig::full(SPARES, THRESHOLD)
}

/// `org` with the full recovery ladder armed.
fn build(org: WordOrg) -> Box<dyn WordSwitch> {
    match org {
        WordOrg::Pipelined => {
            let cfg = crate::e16::campaign_config().with_recovery(recovery());
            debug_assert_eq!((cfg.n_in, cfg.slots), (N, SLOTS));
            Box::new(PipelinedSwitch::new(cfg))
        }
        _ => org.build(N, SLOTS, recovery(), PolicyKind::Static),
    }
}

/// One single-bit upset somewhere in `org`'s buffer memory (spare region
/// included — a promoted spare carries live data too; the pipelined
/// RTL's spares are whole columns over the same slot range).
fn upset(sw: &mut dyn WordSwitch, org: WordOrg, g: &mut SplitMix64) {
    let s = 2 * N;
    let mask = 1u64 << g.below_usize(64);
    let (slot, word) = if org == WordOrg::Pipelined {
        let stage = g.below_usize(s);
        (g.below_usize(SLOTS), stage)
    } else {
        (g.below_usize(SLOTS + SPARES), g.below_usize(s))
    };
    sw.inject_upset(slot, word, mask);
}

/// One input's link-retry station (wire-fault rows only): frames queue
/// behind the Go-Back-N window, cross the faulty wire, and only in-order
/// CRC-clean frames reach the switch's input pins.
struct LinkStation {
    tx: RetrySender,
    rx: RetryReceiver,
    /// Generated frames not yet admitted to the send window.
    backlog: VecDeque<Vec<u64>>,
    /// Frames the receiver accepted, waiting for the input wire.
    accepted: VecDeque<Vec<u64>>,
}

impl LinkStation {
    fn new() -> LinkStation {
        LinkStation {
            tx: RetrySender::new(RetryConfig::default()),
            rx: RetryReceiver::new(),
            backlog: VecDeque::new(),
            accepted: VecDeque::new(),
        }
    }

    /// Move one frame across the wire this cycle (replays take priority
    /// over new data, as Go-Back-N requires). `struck` decides whether
    /// the wire mangles this crossing; `drop` picks the wire-drop flavor
    /// (frame eaten) over wire-corrupt (one bit flipped).
    fn transfer(&mut self, struck: bool, drop: bool, windows: &mut RecoveryWindows, now: Cycle) {
        let s = 2 * N as u64;
        let frame = match self.tx.next_replay() {
            Some(f) => Some(f),
            None => {
                if self.tx.can_send() && !self.backlog.is_empty() {
                    let words = self.backlog.pop_front().expect("checked non-empty");
                    let seq = self.tx.send(words.clone());
                    Some((seq, words))
                } else {
                    None
                }
            }
        };
        let Some((seq, words)) = frame else { return };
        if struck && drop {
            // The wire ate the whole frame: the receiver's timeout (the
            // gap detector) NAKs the sequence it is still waiting for.
            let RxVerdict::Nak(want) = self.rx.timeout() else {
                unreachable!("timeout always NAKs")
            };
            windows.open(now, s);
            self.nak(want);
            return;
        }
        // A single flipped bit always trips the rotate-xor fold, so the
        // header CRC comparison is exactly "was this frame struck".
        let crc = integrity_checksum(words.iter().copied());
        let crc_ok = if struck {
            let mut mangled = words.clone();
            let w = (seq as usize) % mangled.len();
            mangled[w] ^= 1 << (seq % 64);
            integrity_checksum(mangled.iter().copied()) == crc
        } else {
            true
        };
        match self.rx.receive(seq, crc_ok) {
            RxVerdict::Accept => {
                self.tx.ack(seq);
                self.accepted.push_back(words);
            }
            RxVerdict::Duplicate => self.tx.ack(seq),
            RxVerdict::Nak(want) => {
                windows.open(now, s);
                self.nak(want);
            }
        }
    }

    /// Forward a NAK to the sender; frames it abandons at the replay
    /// bound are skipped on the receiver so the link keeps moving.
    fn nak(&mut self, want: u64) {
        let before = self.tx.give_ups;
        self.tx.nak(want);
        for _ in before..self.tx.give_ups {
            let expected = self.rx.expected();
            self.rx.skip(expected);
        }
    }

    fn idle(&self) -> bool {
        self.backlog.is_empty() && self.accepted.is_empty() && self.tx.outstanding() == 0
    }
}

/// Run one campaign point.
pub fn run_point(spec: &ChaosSpec) -> ChaosRow {
    let s = 2 * N;
    let wire_faults = spec.fault != FaultKind::BankUpset;
    let mut sw = build(spec.org);
    let mut col = OutputCollector::new(N, s);
    let mut trng = SplitMix64::stream(spec.seed, TRAFFIC_STREAM);
    let mut rngs: Vec<SplitMix64> = (0..N).map(|_| trng.fork()).collect();
    let mut frng = SplitMix64::stream(spec.seed, FAULT_STREAM);
    let q = header_chance(spec.load, s);
    // A frame spends S words on the wire, so its strike probability is
    // the per-word rate compounded over the frame (capped well short of
    // certain loss so the replay bound is exercised, not saturated).
    let frame_rate = (spec.rate * s as f64).min(0.5);

    // RefCell: the drain step and the resync escalation both need the
    // link stations, and `run_until_quiescent_escalating` holds both
    // closures at once.
    let links: RefCell<Vec<LinkStation>> =
        RefCell::new((0..N).map(|_| LinkStation::new()).collect());
    let mut streams: Vec<PacketFeeder> = (0..N).map(|i| PacketFeeder::scripted(i, s)).collect();
    let mut wire: Vec<Option<u64>> = vec![None; N];
    let mut retry_windows = RecoveryWindows::new();

    let mut sent = 0u64;
    let mut delivered = 0u64;
    let mut delivered_degraded = 0u64;
    let mut degraded_at: Option<Cycle> = None;
    let mut next_id = 1u64;

    let mut step = |sw: &mut dyn WordSwitch,
                    streams: &mut [PacketFeeder],
                    links: &mut [LinkStation],
                    rngs: &mut [SplitMix64],
                    frng: &mut SplitMix64,
                    generate: bool| {
        let now = sw.now();
        // 1. Faults: one potential strike per cycle.
        if !wire_faults && frng.chance(spec.rate) {
            upset(sw, spec.org, frng);
        }
        // 2. Traffic, per input.
        for i in 0..N {
            if wire_faults {
                if generate && rngs[i].chance(q) {
                    let p = Packet::synth(next_id, i, rngs[i].below_usize(N), s, now);
                    next_id += 1;
                    links[i].backlog.push_back(p.words);
                }
                let struck = frng.chance(frame_rate);
                let drop = spec.fault == FaultKind::WireDrop;
                links[i].transfer(struck, drop, &mut retry_windows, now);
                if !streams[i].busy() {
                    if let Some(words) = links[i].accepted.pop_front() {
                        sent += 1;
                        let mut p = Packet::synth(0, 0, 0, s, now);
                        p.words = words;
                        streams[i].push(p);
                    }
                }
            } else if !streams[i].busy() && generate && rngs[i].chance(q) {
                let p = Packet::synth(next_id, i, rngs[i].below_usize(N), s, now);
                next_id += 1;
                sent += 1;
                streams[i].push(p);
            }
            wire[i] = streams[i].tick(now);
        }
        // 3. One switch cycle; deliveries split around the degrade edge.
        let out = sw.tick(&wire);
        col.observe(now, out);
        if degraded_at.is_none() && sw.is_degraded() {
            degraded_at = Some(now);
        }
        for d in col.take() {
            if d.verify_payload() {
                delivered += 1;
                if degraded_at.is_some() {
                    delivered_degraded += 1;
                }
            }
        }
    };

    for _ in 0..spec.cycles {
        step(
            &mut *sw,
            &mut streams,
            &mut links.borrow_mut(),
            &mut rngs,
            &mut frng,
            true,
        );
    }
    // Drain under the escalating watchdog: the single resync attempt
    // discards undelivered link backlog (the drain-and-resync rung of
    // the ladder) and buys one more full budget; a hang that survives it
    // lands in the process-wide expiry ledger (`expt --watchdog`).
    let budget = simkernel::watchdog::limit_or(40_000);
    let mut resync_shed = 0u64;
    let drained = simkernel::run_until_quiescent_escalating(
        budget,
        "chaos drain",
        |_| {
            let mut ls = links.borrow_mut();
            let links_idle = !wire_faults || ls.iter().all(LinkStation::idle);
            if sw.is_quiescent() && !streams.iter().any(PacketFeeder::busy) && links_idle {
                return true;
            }
            step(&mut *sw, &mut streams, &mut ls, &mut rngs, &mut frng, false);
            false
        },
        |_| {
            let mut dropped = 0u64;
            for l in links.borrow_mut().iter_mut() {
                dropped += (l.backlog.len() + l.accepted.len()) as u64;
                l.backlog.clear();
                l.accepted.clear();
            }
            resync_shed += dropped;
            dropped > 0
        },
        1,
    )
    .is_ok();

    let end = sw.now();
    let report = sw.recovery_report();
    let links = links.into_inner();
    let (retries, give_ups): (u64, u64) = links
        .iter()
        .map(|l| (l.tx.retries, l.tx.give_ups))
        .fold((0, 0), |(r, g), (tr, tg)| (r + tr, g + tg));
    let episodes = (report.windows.count() + retry_windows.count()) as u64;
    let mttr = (episodes > 0).then(|| {
        (report.windows.total_cycles() + retry_windows.total_cycles()) as f64 / episodes as f64
    });
    let per_kcycle = |count: u64, cycles: u64| {
        if cycles == 0 {
            0.0
        } else {
            count as f64 * 1000.0 / cycles as f64
        }
    };
    ChaosRow {
        org: spec.org.label().to_string(),
        fault: spec.fault.label().to_string(),
        rate: spec.rate,
        load: spec.load,
        sent,
        delivered,
        corrections: report.corrections,
        uncorrectable: report.uncorrectable,
        failovers: report.failovers,
        episodes,
        mttr,
        in_window_loss: report.shed + give_ups + resync_shed,
        retries,
        give_ups,
        degraded: sw.is_degraded(),
        degraded_tput: degraded_at.map(|at| per_kcycle(delivered_degraded, end - at)),
        tput: per_kcycle(delivered, end),
        drained,
    }
}

/// The campaign grid: every organization under the single-bit-upset
/// process across rate × load, plus the two wire-fault classes behind
/// the link-retry pair on the pipelined RTL.
pub fn specs(quick: bool) -> Vec<ChaosSpec> {
    let cycles = if quick { 4_000 } else { 30_000 };
    let (rates, loads) = ([0.002, 0.01], [0.5, 0.9]);
    let base_seed = 0xE17;
    let mut specs = Vec::new();
    for org in WordOrg::ALL {
        for rate in rates {
            for load in loads {
                let idx = specs.len() as u64;
                specs.push(ChaosSpec {
                    org,
                    fault: FaultKind::BankUpset,
                    rate,
                    load,
                    cycles,
                    seed: split_seed(base_seed, idx),
                });
            }
        }
    }
    for fault in [FaultKind::WireCorrupt, FaultKind::WireDrop] {
        for rate in rates {
            let idx = specs.len() as u64;
            specs.push(ChaosSpec {
                org: WordOrg::Pipelined,
                fault,
                rate,
                load: loads[0],
                cycles,
                seed: split_seed(base_seed, idx),
            });
        }
    }
    specs
}

/// Run the whole campaign through the deterministic sweep engine.
pub fn rows(quick: bool) -> Vec<ChaosRow> {
    sweep::map(&specs(quick), run_point)
}

/// Render the report.
pub fn run(quick: bool) -> String {
    table::render(
        "E17: chaos campaign (extension) — recovery ladder under fault-rate x load:\n\
         ECC correction, spare-bank failover, link retry, graceful degradation",
        &[
            "org",
            "fault",
            "rate",
            "load",
            "sent",
            "deliv",
            "corr",
            "uncor",
            "fo",
            "epis",
            "mttr",
            "loss-w",
            "retry/aband",
            "degr-tput",
            "tput",
            "drain",
        ],
        rows(quick).iter().map(|r| {
            vec![
                r.org.clone(),
                r.fault.clone(),
                format!("{:.3}", r.rate),
                format!("{:.1}", r.load),
                r.sent.to_string(),
                r.delivered.to_string(),
                r.corrections.to_string(),
                r.uncorrectable.to_string(),
                r.failovers.to_string(),
                r.episodes.to_string(),
                r.mttr.map_or("-".to_string(), |m| format!("{m:.1}")),
                r.in_window_loss.to_string(),
                format!("{}/{}", r.retries, r.give_ups),
                match (r.degraded, r.degraded_tput) {
                    (true, Some(t)) => format!("{t:.1}"),
                    _ => "-".to_string(),
                },
                format!("{:.1}", r.tput),
                if r.drained { "ok" } else { "HANG" }.to_string(),
            ]
        }),
        "\nEvery row arms the full recovery ladder (SEC-DED ECC, 2 spare banks, failover after\n\
         4 corrections on one bank). 'corr' upsets were repaired in place; 'uncor' words were\n\
         beyond SEC-DED (two strikes on one word) and detect-dropped; 'fo' banks/rows were\n\
         hot-swapped or retired. 'epis' counts distinct recovery episodes and 'mttr' their\n\
         mean length in cycles — failover settle windows plus link-replay episodes. 'loss-w'\n\
         is the declared in-window loss (admission shed + abandoned frames) the conformance\n\
         oracle excuses; loss never occurs outside a declared window. 'degr-tput' is\n\
         deliveries per kilocycle after spares ran out and the switch entered permanent\n\
         degraded mode ('-' when it never did); 'tput' the whole-run figure.\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_campaign_properties() {
        let rows = rows(true);
        assert!(rows.len() >= 5, "grid covers every organization");
        let corrections: u64 = rows.iter().map(|r| r.corrections).sum();
        assert!(corrections > 0, "campaign must land correctable upsets");
        for r in &rows {
            assert!(
                r.drained,
                "{} {} rate {}: drain hung",
                r.org, r.fault, r.rate
            );
            assert!(r.delivered <= r.sent, "{} {}: conservation", r.org, r.fault);
            assert!(r.delivered > 0, "{} {}: nothing delivered", r.org, r.fault);
            if r.fault == "bank-upset" {
                assert_eq!(r.retries + r.give_ups, 0, "no link machinery armed");
            }
        }
        let retried: u64 = rows
            .iter()
            .filter(|r| r.fault != "bank-upset")
            .map(|r| r.retries)
            .sum();
        assert!(retried > 0, "wire rows must exercise the replay path");
        let episodes: u64 = rows
            .iter()
            .filter(|r| r.fault != "bank-upset")
            .map(|r| r.episodes)
            .sum();
        assert!(episodes > 0, "replays declare recovery episodes");
        for r in rows.iter().filter(|r| r.episodes > 0) {
            let mttr = r.mttr.expect("episodes imply a measurable MTTR");
            assert!(mttr >= 1.0, "windows are at least one cycle long");
        }
    }

    #[test]
    fn every_row_names_its_fault_by_its_fault_kind_label() {
        let labels = FaultKind::ALL.map(|k| k.label());
        for r in rows(true) {
            assert!(labels.contains(&r.fault.as_str()), "{}: {}", r.org, r.fault);
        }
    }

    #[test]
    fn points_are_bit_reproducible() {
        for spec in [specs(true)[0], *specs(true).last().expect("non-empty")] {
            let a = run_point(&spec);
            let b = run_point(&spec);
            assert_eq!(a.sent, b.sent);
            assert_eq!(a.delivered, b.delivered);
            assert_eq!(a.corrections, b.corrections);
            assert_eq!(a.retries, b.retries);
            assert_eq!(a.episodes, b.episodes);
        }
    }
}
