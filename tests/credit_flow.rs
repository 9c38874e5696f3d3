//! Link-level credit flow control makes buffer-full drops impossible.
//!
//! Telegraphos reserves downstream buffer slots per incoming link and
//! paces each sender by credits (§4.2, \[KVES95\]). With per-input credit
//! allotments summing to at most the shared-buffer capacity, a packet is
//! only launched when a slot is guaranteed — the switch's
//! `dropped_buffer_full` counter must stay exactly zero under any load,
//! while the uncredited switch with the same tiny buffer drops heavily.

use telegraphos::simkernel::cell::Packet;
use telegraphos::simkernel::SplitMix64;
use telegraphos::switch_core::config::SwitchConfig;
use telegraphos::switch_core::credit::CreditedInput;
use telegraphos::switch_core::rtl::{OutputCollector, PipelinedSwitch};
use telegraphos::switch_core::{PolicyKind, RecoveryConfig, WordOrg};
use telegraphos::traffic::PacketFeeder;

/// One scripted link serializer per input.
fn links(n: usize, s: usize) -> Vec<PacketFeeder> {
    (0..n).map(|i| PacketFeeder::scripted(i, s)).collect()
}

/// Drive an n×n switch at full demand with *uncredited* senders (the
/// control case). Returns (delivered, dropped_buffer_full).
fn drive(n: usize, slots: usize, _credits: Option<u32>, cycles: u64) -> (usize, u64) {
    let cfg = SwitchConfig::symmetric(n, slots);
    let s = cfg.stages();
    let mut sw = PipelinedSwitch::new(cfg);
    let mut col = OutputCollector::new(n, s);
    let mut rng = SplitMix64::new(99);
    let mut current = links(n, s);
    let mut next_id = 1u64;

    for _ in 0..cycles {
        let now = sw.now();
        let mut wire = vec![None; n];
        for i in 0..n {
            if !current[i].busy() {
                let dst = rng.below_usize(n);
                current[i].push(Packet::synth(next_id, i, dst, s, now));
                next_id += 1;
            }
            wire[i] = current[i].tick(now);
        }
        let out = sw.tick(&wire);
        col.observe(now, out);
        col.take();
    }
    let ctr = sw.counters();
    (ctr.departed as usize, ctr.dropped_buffer_full)
}

/// Full version with id→input mapping for credit return.
fn drive_credited(n: usize, slots: usize, credits_per_input: u32, cycles: u64) -> (usize, u64) {
    let cfg = SwitchConfig::symmetric(n, slots);
    let s = cfg.stages();
    let mut sw = PipelinedSwitch::new(cfg);
    let mut col = OutputCollector::new(n, s);
    let mut rng = SplitMix64::new(7);
    let mut senders: Vec<CreditedInput<usize>> = (0..n)
        .map(|_| CreditedInput::new(credits_per_input, 1))
        .collect();
    let mut current = links(n, s);
    let mut next_id = 1u64;
    let mut id_to_input: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();

    for _ in 0..cycles {
        let now = sw.now();
        let mut wire = vec![None; n];
        for i in 0..n {
            if !current[i].busy() {
                senders[i].offer(rng.below_usize(n));
                if let Some(dst) = senders[i].poll(now) {
                    current[i].push(Packet::synth(next_id, i, dst, s, now));
                    id_to_input.insert(next_id, i);
                    next_id += 1;
                }
            }
            wire[i] = current[i].tick(now);
        }
        let out = sw.tick(&wire);
        col.observe(now, out);
        for d in col.take() {
            let src = id_to_input.remove(&d.id).expect("delivered id was sent");
            senders[src].return_credit(now);
            assert!(d.verify_payload());
        }
    }
    let ctr = sw.counters();
    (ctr.departed as usize, ctr.dropped_buffer_full)
}

#[test]
fn credits_prevent_all_drops_with_tiny_buffer() {
    // Buffer of n slots, credits of 1 per input: sum of credits = slots,
    // so drops are impossible even at full demand.
    let n = 4;
    let (delivered, dropped) = drive_credited(n, n, 1, 20_000);
    assert_eq!(dropped, 0, "credited senders must never see buffer-full");
    assert!(delivered > 500, "and traffic must still flow: {delivered}");
}

#[test]
fn credits_scale_with_reservation() {
    let n = 4;
    let (d1, drop1) = drive_credited(n, 2 * n, 2, 20_000);
    assert_eq!(drop1, 0);
    assert!(d1 > 500);
}

#[test]
fn uncredited_senders_drop_at_same_buffer_size() {
    let n = 4;
    let (_, dropped) = drive(n, n, None, 20_000);
    assert!(
        dropped > 50,
        "uncredited full demand against n slots must drop (got {dropped})"
    );
}

/// Like [`drive_credited`], but runs any memory organization, every
/// `lose_every`-th credit return is dropped on the reverse wire, and the
/// sender audits its conservation invariant every `audit_period` cycles
/// against the ledger's ground truth, resyncing on a detected leak.
/// Returns (delivered, leaks_detected, credits_recovered, final_credits).
fn drive_credited_lossy(
    org: WordOrg,
    n: usize,
    slots: usize,
    credits_per_input: u32,
    cycles: u64,
    lose_every: u64,
    audit_period: u64,
) -> (usize, u64, u64, Vec<u32>) {
    let mut sw = org.build(n, slots, RecoveryConfig::default(), PolicyKind::Static);
    let s = sw.packet_words();
    let mut col = OutputCollector::new(n, s);
    let mut rng = SplitMix64::new(7);
    let mut senders: Vec<CreditedInput<usize>> = (0..n)
        .map(|_| CreditedInput::new(credits_per_input, 1))
        .collect();
    let mut current = links(n, s);
    let mut next_id = 1u64;
    let mut id_to_input: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let mut launched = vec![0u64; n];
    let mut delivered_from = vec![0u64; n];
    let mut returns_seen = 0u64;
    let mut leaks = 0u64;
    let mut recovered = 0u64;

    for _ in 0..cycles {
        let now = sw.now();
        let mut wire = vec![None; n];
        for i in 0..n {
            if !current[i].busy() {
                senders[i].offer(rng.below_usize(n));
                if let Some(dst) = senders[i].poll(now) {
                    current[i].push(Packet::synth(next_id, i, dst, s, now));
                    id_to_input.insert(next_id, i);
                    launched[i] += 1;
                    next_id += 1;
                }
            }
            wire[i] = current[i].tick(now);
        }
        let out = sw.tick(&wire);
        col.observe(now, out);
        for d in col.take() {
            let src = id_to_input.remove(&d.id).expect("delivered id was sent");
            delivered_from[src] += 1;
            returns_seen += 1;
            // The faulty reverse wire: every `lose_every`-th credit
            // return vanishes.
            if !returns_seen.is_multiple_of(lose_every) {
                senders[src].return_credit(now);
            }
            assert!(d.verify_payload());
        }
        // Periodic audit against ground truth (what a real credit
        // protocol gets from an absolute-count sync message).
        if now % audit_period == audit_period - 1 {
            for i in 0..n {
                let actual = (launched[i] - delivered_from[i]) as u32;
                if senders[i].audit(i64::from(actual), "lossy link").is_err() {
                    leaks += 1;
                    recovered += u64::from(senders[i].resync(actual));
                }
            }
        }
    }
    let ctr = sw.counters();
    // Credits only ever under-admit (loss and resync both shrink the
    // in-flight bound), so no organization may report buffer-full drops.
    assert_eq!(
        ctr.dropped_buffer_full, 0,
        "{org}: credited senders must never see buffer-full"
    );
    let final_credits = senders.iter().map(|c| c.credits()).collect();
    (ctr.departed as usize, leaks, recovered, final_credits)
}

#[test]
fn credited_throughput_approaches_uncredited() {
    // Credits sized to the buffer shouldn't throttle much at this load.
    let n = 4;
    let (d_credit, _) = drive_credited(n, 4 * n, 4, 30_000);
    let (d_free, _) = drive(n, 4 * n, None, 30_000);
    assert!(
        d_credit as f64 > 0.8 * d_free as f64,
        "credits over-throttle: {d_credit} vs {d_free}"
    );
}

#[test]
fn lost_credit_returns_bleed_the_link_dry_without_audit() {
    // Every 4th credit return vanishes and no audit ever runs: each
    // sender's allotment bleeds away and the link wedges permanently —
    // the failure mode the audit exists to catch.
    let n = 4;
    let (delivered, leaks, recovered, credits) =
        drive_credited_lossy(WordOrg::Pipelined, n, 4 * n, 4, 20_000, 4, u64::MAX);
    assert_eq!(leaks, 0, "no audit, no detection");
    assert_eq!(recovered, 0);
    assert!(
        delivered < 150,
        "without resync the link must wedge after ~4x allotment per \
         sender, got {delivered}"
    );
    assert!(
        credits.iter().all(|&c| c == 0),
        "every sender bled dry: {credits:?}"
    );
}

#[test]
fn credit_audit_detects_loss_and_resync_restores_throughput() {
    // Same lossy reverse wire, but the senders audit the conservation
    // invariant every 100 cycles against ground truth and resync. The
    // audit must fire (CreditLeak detected), recover the lost credits,
    // and keep throughput near the lossless link's.
    let n = 4;
    let (d_lossy, leaks, recovered, _) =
        drive_credited_lossy(WordOrg::Pipelined, n, 4 * n, 4, 20_000, 4, 100);
    assert!(leaks > 0, "audit must detect the leaked credits");
    assert!(
        recovered >= leaks,
        "each detected leak recovers >= 1 credit"
    );
    let (d_clean, clean_leaks, clean_recovered, _) =
        drive_credited_lossy(WordOrg::Pipelined, n, 4 * n, 4, 20_000, u64::MAX, 100);
    assert_eq!(clean_leaks, 0, "false positive: audit fired without loss");
    assert_eq!(clean_recovered, 0);
    assert!(
        d_lossy as f64 > 0.5 * d_clean as f64,
        "throughput must recover after resync: {d_lossy} vs {d_clean}"
    );
}

/// The lossy-return protocol checks are organization-agnostic: run the
/// full detect/resync cycle against the wide-memory and interleaved
/// organizations too (until now only the pipelined RTL was exercised).
/// Each must (a) wedge without an audit, (b) detect and recover with
/// one, (c) keep throughput, and (d) never drop — the in-helper
/// buffer-full assertion.
fn lossy_credit_roundtrip(org: WordOrg) {
    let n = 4;
    let (wedged, _, _, credits) = drive_credited_lossy(org, n, 4 * n, 4, 20_000, 4, u64::MAX);
    assert!(
        wedged < 150,
        "{org}: without resync the link must wedge, got {wedged}"
    );
    assert!(
        credits.iter().all(|&c| c == 0),
        "{org}: every sender bled dry: {credits:?}"
    );
    let (d_lossy, leaks, recovered, _) = drive_credited_lossy(org, n, 4 * n, 4, 20_000, 4, 100);
    assert!(leaks > 0, "{org}: audit must detect the leaked credits");
    assert!(recovered >= leaks, "{org}: resync must recover credits");
    let (d_clean, clean_leaks, _, _) =
        drive_credited_lossy(org, n, 4 * n, 4, 20_000, u64::MAX, 100);
    assert_eq!(clean_leaks, 0, "{org}: audit fired without loss");
    assert!(
        d_lossy as f64 > 0.5 * d_clean as f64,
        "{org}: throughput must recover after resync: {d_lossy} vs {d_clean}"
    );
}

#[test]
fn wide_memory_survives_lossy_credit_returns() {
    lossy_credit_roundtrip(WordOrg::Wide);
}

#[test]
fn interleaved_survives_lossy_credit_returns() {
    lossy_credit_roundtrip(WordOrg::Interleaved);
}
