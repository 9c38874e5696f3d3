//! E16 — deterministic fault-injection campaign (extension; not in the
//! paper).
//!
//! The paper's argument for the pipelined memory is an argument about
//! silicon; real switch silicon must also *survive* faults: SRAM
//! single-event upsets, bit errors and dropped words on the links, lost
//! credit returns, stuck control signals. This campaign injects each of
//! those fault classes at scheduled rates into the word-level RTL model —
//! hardened with a checksum scrub at read initiation, an egress payload
//! check (the modeled link CRC) and tolerant framing — and measures
//! *detection coverage*: the fraction of effective faults that end in a
//! typed outcome (detected-and-dropped, flagged-at-egress, or
//! credit-resync) rather than silent corruption.
//!
//! Every campaign point is bit-reproducible: traffic draws from
//! `SplitMix64::stream(seed, TRAFFIC_STREAM)`, the fault schedule from
//! `stream(seed, FAULT_STREAM)` ([`switch_core::faultsim`]), and the grid
//! runs through [`sweep::map`] — identical output for any `--jobs`.

use crate::{sweep, table};
use simkernel::cell::Packet;
use simkernel::rng::split_seed;
use simkernel::SplitMix64;
use std::collections::{HashMap, HashSet};
use switch_core::config::SwitchConfig;
use switch_core::credit::CreditedInput;
use switch_core::faultsim::{FaultAction, FaultKind, FaultPlan, WireFaults, TRAFFIC_STREAM};
use switch_core::rtl::{OutputCollector, PipelinedSwitch};
use traffic::PacketFeeder;

/// One campaign point: a fault class at a per-cycle rate (`kind = None`
/// is the fault-free baseline every row is judged against).
#[derive(Debug, Clone, Copy)]
pub struct CampaignSpec {
    /// Fault class, `None` for the baseline.
    pub kind: Option<FaultKind>,
    /// Per-cycle injection probability.
    pub rate: f64,
    /// Active traffic cycles (drain is on top, under the watchdog).
    pub cycles: u64,
    /// Point RNG seed (split into traffic and fault streams).
    pub seed: u64,
}

/// Measured outcome of one campaign point.
#[derive(Debug, Clone)]
pub struct CampaignRow {
    /// Fault-class label ("fault-free" for the baseline).
    pub kind: String,
    /// Per-cycle injection probability.
    pub rate: f64,
    /// Packets launched into the switch (after wire-level whole drops).
    pub sent: u64,
    /// Delivered on the addressed output with a bit-exact payload.
    pub delivered_ok: u64,
    /// Delivered on the wrong output (header flipped to another valid
    /// destination — detectable only by a link CRC covering the header,
    /// which the ledger stands in for).
    pub misrouted: u64,
    /// Delivered under an id the ledger never launched.
    pub spurious: u64,
    /// Never emerged (eaten on the wire, or detected and dropped).
    pub lost: u64,
    /// Effective faults (kind-specific; see module docs / footnote).
    pub effective: u64,
    /// Faults that ended in a typed detection.
    pub detected: u64,
    /// `detected / effective` (1.0 when nothing effective struck).
    pub coverage: f64,
    /// Packets condemned and dropped pre-transmission.
    pub corrupt_drops: u64,
    /// Deliveries flagged by the egress check.
    pub corrupt_delivered: u64,
    /// Bank writes suppressed by stuck control.
    pub writes_suppressed: u64,
    /// Credit returns lost / recovered by audit-resync (credit rows).
    pub credits_lost: u64,
    /// Credits restored by [`CreditedInput::resync`].
    pub credits_recovered: u64,
    /// Credit-audit invariant violations caught.
    pub leaks_detected: u64,
    /// The post-traffic drain reached quiescence under the watchdog.
    pub drained: bool,
}

/// Campaign geometry: 4×4 (8 stages), 16 slots (small enough that a
/// random upset has a fair chance of striking live data), store-and-
/// forward, full integrity machinery. Store-and-forward because only a
/// fully written slot can be scrubbed — the cut-through trade-off the
/// report footnote spells out.
pub(crate) fn campaign_config() -> SwitchConfig {
    let mut cfg = SwitchConfig::symmetric(4, 16);
    cfg.cut_through = false;
    cfg.fused_cut_through = false;
    cfg.integrity.checksum = true;
    cfg.integrity.payload_check = true;
    cfg.integrity.harden = true;
    cfg
}

/// Run one campaign point.
pub fn run_point(spec: &CampaignSpec) -> CampaignRow {
    let cfg = campaign_config();
    let n = cfg.n_in;
    let s = cfg.stages();
    let credited = spec.kind == Some(FaultKind::CreditLoss);
    let mut plan = match spec.kind {
        Some(kind) => FaultPlan::generate(kind, spec.rate, spec.cycles, &cfg, spec.seed),
        None => FaultPlan::default(),
    };
    let mut sw = PipelinedSwitch::new(cfg.clone());
    let mut wf = WireFaults::new(n, s);
    let mut col = OutputCollector::new(n, s);

    let mut trng = SplitMix64::stream(spec.seed, TRAFFIC_STREAM);
    let mut rngs: Vec<SplitMix64> = (0..n).map(|_| trng.fork()).collect();
    // Credit allotment: an equal share of the shared buffer per link, so
    // fault-free credited flow never sees a buffer-full drop.
    let mut senders: Vec<CreditedInput<Packet>> = (0..n)
        .map(|_| CreditedInput::new((cfg.slots / n) as u32, 2))
        .collect();
    let mut armed_credit_loss = vec![0u64; n];
    let mut streams: Vec<PacketFeeder> = (0..n).map(|i| PacketFeeder::scripted(i, s)).collect();
    let mut ledger: HashMap<u64, (usize, usize)> = HashMap::new(); // id -> (src, dst)
    let mut launched = vec![0u64; n];
    let mut delivered_from = vec![0u64; n];
    let mut next_id = 1u64;
    let start_p = 0.12; // idle→new-packet probability ≈ 0.5 offered load

    let mut sent = 0u64;
    let mut delivered_ok = 0u64;
    let mut misrouted = 0u64;
    let mut spurious = 0u64;
    let mut bad_delivered = 0u64;
    let mut upset_hits: HashSet<u64> = HashSet::new();
    let mut credits_lost = 0u64;
    let mut credits_recovered = 0u64;
    let mut leaks_detected = 0u64;
    const AUDIT_PERIOD: u64 = 200;

    let mut wire = vec![None; n];
    let mut due_faults: Vec<switch_core::faultsim::Fault> = Vec::new();
    let mut step = |sw: &mut PipelinedSwitch,
                    streams: &mut [PacketFeeder],
                    rngs: &mut [SplitMix64],
                    senders: &mut [CreditedInput<Packet>],
                    plan: &mut FaultPlan,
                    generate: bool| {
        let now = sw.now();
        // 1. Injection: storage/control faults to the switch hooks, wire
        //    faults to the mangler, credit losses to the armed counters.
        plan.take_due_into(now, &mut due_faults);
        for f in due_faults.drain(..) {
            match f.action {
                FaultAction::BankUpset { stage, slot, mask } => {
                    if let Some(id) = sw.inject_bank_fault(stage, slot, mask) {
                        upset_hits.insert(id);
                    }
                }
                FaultAction::StuckWrite { stage, duration } => {
                    sw.force_stuck_write(stage, now + duration);
                }
                FaultAction::CreditLoss { input } => {
                    armed_credit_loss[input] += 1;
                }
                wire_fault => wf.schedule(wire_fault),
            }
        }
        // 2. Traffic: start or continue one packet per input.
        for i in 0..n {
            if !streams[i].busy() {
                if credited {
                    if generate && rngs[i].chance(start_p) {
                        let dst = rngs[i].below_usize(n);
                        let p = Packet::synth(next_id, i, dst, s, now);
                        ledger.insert(next_id, (i, dst));
                        next_id += 1;
                        senders[i].offer(p);
                    }
                    if let Some(p) = senders[i].poll(now) {
                        launched[i] += 1;
                        sent += 1;
                        streams[i].push(p);
                    }
                } else if generate && rngs[i].chance(start_p) {
                    let dst = rngs[i].below_usize(n);
                    let p = Packet::synth(next_id, i, dst, s, now);
                    ledger.insert(next_id, (i, dst));
                    next_id += 1;
                    sent += 1;
                    streams[i].push(p);
                }
            }
            wire[i] = streams[i].tick(now);
        }
        // 3. Wire faults strike between generator and input pins.
        wf.apply(&mut wire);
        let out = sw.tick(&wire);
        col.observe(now, out);
        // 4. End-to-end ledger accounting + credit returns.
        for d in col.take() {
            match ledger.get(&d.id) {
                None => spurious += 1,
                Some(&(src, dst)) => {
                    if d.output.index() != dst {
                        misrouted += 1;
                    } else if d.verify_payload() {
                        delivered_ok += 1;
                    } else {
                        bad_delivered += 1;
                    }
                    delivered_from[src] += 1;
                    if credited {
                        if armed_credit_loss[src] > 0 {
                            armed_credit_loss[src] -= 1;
                            credits_lost += 1;
                        } else {
                            senders[src].return_credit(now);
                        }
                    }
                }
            }
        }
        // 5. Periodic credit audit against ground truth; resync on leak
        //    (the recovery a real credit protocol gets from an absolute
        //    count message).
        if credited && now % AUDIT_PERIOD == AUDIT_PERIOD - 1 {
            for i in 0..n {
                let actual = (launched[i] - delivered_from[i]) as u32;
                if senders[i]
                    .audit(i64::from(actual), "campaign link")
                    .is_err()
                {
                    leaks_detected += 1;
                    credits_recovered += u64::from(senders[i].resync(actual));
                }
            }
        }
    };

    for _ in 0..spec.cycles {
        step(
            &mut sw,
            &mut streams,
            &mut rngs,
            &mut senders,
            &mut plan,
            true,
        );
    }
    // Drain under the structured watchdog: no new traffic, faults done;
    // in-flight packets finish, credited backlogs flush (audits keep
    // running, so lost credits cannot wedge the drain). The CLI
    // `--watchdog` flag overrides the default budget.
    let drain_budget = simkernel::watchdog::limit_or(40_000);
    let drained = simkernel::run_until_quiescent(drain_budget, "campaign drain", |_| {
        let backlog: usize = senders.iter().map(|c| c.backlog()).sum();
        if sw.is_quiescent() && !streams.iter().any(PacketFeeder::busy) && backlog == 0 {
            return true;
        }
        step(
            &mut sw,
            &mut streams,
            &mut rngs,
            &mut senders,
            &mut plan,
            false,
        );
        false
    })
    .is_ok();
    if !drained {
        // Surface the hang in the process-wide ledger so the CLI's
        // `--watchdog` reporting can fail the run gracefully.
        simkernel::watchdog::note_expiry();
    }

    let ctr = sw.counters();
    // Effective faults and typed detections, per class (footnoted in the
    // report):
    //  bank-upset   eff = distinct live packets hit; det = scrub drops +
    //               egress flags (a hit after read initiation).
    //  wire-corrupt eff = packets corrupted on the wire; det = ingress/
    //               egress detections + ledger-visible misroutes.
    //  wire-drop    eff = packets eaten or truncated; det = hardened-
    //               framing drops + whole-packet erasures (sequence-
    //               visible: nothing of the packet ever arrives).
    //  credit-loss  eff = returns lost; det = credits recovered by
    //               audit-resync.
    //  stuck-write  eff = damaged packets observed end to end (detected
    //               + silently corrupted); det shows the scrub caught
    //               every stale word.
    let integrity = ctr.corrupt_drops + ctr.corrupt_delivered;
    let (effective, detected) = match spec.kind {
        None => (0, integrity),
        Some(FaultKind::BankUpset) => (upset_hits.len() as u64, integrity),
        Some(FaultKind::WireCorrupt) => (wf.corrupted_packets, integrity + misrouted),
        Some(FaultKind::WireDrop) => (
            wf.dropped_packets + wf.truncated_packets,
            ctr.corrupt_drops + wf.dropped_packets,
        ),
        Some(FaultKind::CreditLoss) => (credits_lost, credits_recovered),
        Some(FaultKind::StuckWrite) => (ctr.corrupt_drops + bad_delivered, integrity),
    };
    let coverage = if effective == 0 {
        1.0
    } else {
        detected as f64 / effective as f64
    };
    let accounted = delivered_ok + misrouted + bad_delivered;
    CampaignRow {
        kind: spec
            .kind
            .map(|k| k.label().to_string())
            .unwrap_or_else(|| "fault-free".to_string()),
        rate: spec.rate,
        sent,
        delivered_ok,
        misrouted,
        spurious,
        lost: sent.saturating_sub(accounted),
        effective,
        detected,
        coverage,
        corrupt_drops: ctr.corrupt_drops,
        corrupt_delivered: ctr.corrupt_delivered,
        writes_suppressed: ctr.writes_suppressed,
        credits_lost,
        credits_recovered,
        leaks_detected,
        drained,
    }
}

/// The campaign grid: a fault-free baseline plus every fault class at
/// each rate, seeds split per point.
pub fn specs(quick: bool) -> Vec<CampaignSpec> {
    let cycles = if quick { 4_000 } else { 30_000 };
    let rates = [0.002, 0.01];
    let base_seed = 0xE16;
    let mut specs = vec![CampaignSpec {
        kind: None,
        rate: 0.0,
        cycles,
        seed: split_seed(base_seed, 0),
    }];
    for kind in FaultKind::ALL {
        for rate in rates {
            let idx = specs.len() as u64;
            specs.push(CampaignSpec {
                kind: Some(kind),
                rate,
                cycles,
                seed: split_seed(base_seed, idx),
            });
        }
    }
    specs
}

/// Run the whole campaign through the deterministic sweep engine.
pub fn rows(quick: bool) -> Vec<CampaignRow> {
    sweep::map(&specs(quick), run_point)
}

/// Render the report.
pub fn run(quick: bool) -> String {
    table::render(
        "E16: fault-injection campaign (extension) — 4x4 store-and-forward, checksum scrub +\n\
         egress check + hardened framing + credit audit",
        &[
            "fault",
            "rate",
            "sent",
            "ok",
            "mis",
            "spur",
            "lost",
            "eff",
            "det",
            "cover",
            "cr rec/lost",
            "drain",
        ],
        rows(quick).iter().map(|r| {
            vec![
                r.kind.clone(),
                format!("{:.3}", r.rate),
                r.sent.to_string(),
                r.delivered_ok.to_string(),
                r.misrouted.to_string(),
                r.spurious.to_string(),
                r.lost.to_string(),
                r.effective.to_string(),
                r.detected.to_string(),
                format!("{:.3}", r.coverage),
                format!("{}/{}", r.credits_recovered, r.credits_lost),
                if r.drained { "ok" } else { "HANG" }.to_string(),
            ]
        }),
        "\nExtension beyond the paper: each row injects one fault class at the given per-cycle\n\
         rate from its own SplitMix64 stream (bit-reproducible at any --jobs). 'eff' counts\n\
         faults that could reach a reader; 'det' their typed detections — scrub drops at read\n\
         initiation, egress (link-CRC) flags, hardened-framing drops, credit audit resyncs.\n\
         Residue: a wire bit-flip that rewrites the header to another *valid* output misroutes\n\
         without tripping the payload machinery ('mis'); only a link CRC covering the header\n\
         (the ledger's stand-in here) catches it. Whole packets eaten at the header ('lost')\n\
         are erasures, visible to sequence/credit accounting, not to the datapath.\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_properties() {
        let rows = rows(true);
        let base = &rows[0];
        assert_eq!(base.kind, "fault-free");
        assert_eq!(
            base.detected, 0,
            "zero false positives on the fault-free baseline"
        );
        assert_eq!(base.misrouted + base.spurious + base.lost, 0);
        assert_eq!(base.delivered_ok, base.sent);
        let live_upsets: u64 = rows
            .iter()
            .filter(|r| r.kind == "bank-upset")
            .map(|r| r.effective)
            .sum();
        assert!(live_upsets > 0, "campaign must land live upsets");
        for r in &rows {
            assert!(r.drained, "{} rate {}: drain hung", r.kind, r.rate);
            assert_eq!(r.spurious, 0, "{}: spurious delivery", r.kind);
            if r.kind == "bank-upset" {
                assert!(
                    r.coverage >= 0.99,
                    "bank-upset coverage {} < 0.99",
                    r.coverage
                );
            }
            if r.kind == "credit-loss" {
                assert_eq!(
                    r.credits_recovered, r.credits_lost,
                    "audit-resync must recover every lost credit"
                );
                assert_eq!(
                    r.delivered_ok, r.sent,
                    "throughput must recover after resync"
                );
                if r.credits_lost > 0 {
                    assert!(r.leaks_detected > 0, "audit must fire on loss");
                }
            }
            if r.kind == "stuck-write" {
                assert_eq!(
                    r.coverage, 1.0,
                    "no stale word may reach a reader undetected"
                );
            }
        }
    }

    #[test]
    fn points_are_bit_reproducible() {
        let spec = specs(true)[1];
        let a = run_point(&spec);
        let b = run_point(&spec);
        assert_eq!(a.sent, b.sent);
        assert_eq!(a.detected, b.detected);
        assert_eq!(a.coverage, b.coverage);
    }
}
