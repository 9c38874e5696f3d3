//! Property tests over the behavioral switch, the half-quantum buffer
//! and the WRR multiplexer — the invariants that define each component,
//! under arbitrary legal stimulus.
//!
//! Stimulus is drawn from `SplitMix64` with fixed seeds (no external
//! property-testing dependency): every run checks the same population of
//! cases, and a failing case reproduces from its printed case number.

use std::collections::HashMap;
use telegraphos::simkernel::SplitMix64;
use telegraphos::switch_core::behavioral::BehavioralSwitch;
use telegraphos::switch_core::config::SwitchConfig;
use telegraphos::switch_core::halfq::HalfQuantumBuffer;
use telegraphos::switch_core::wrr::WrrMux;

/// The behavioral switch's structural invariants under random loads:
/// one wave initiation per cycle (read starts unique), per-output
/// transmissions non-overlapping, conservation exact.
#[test]
fn behavioral_structural_invariants() {
    let mut gen = SplitMix64::new(0x5EED_0010);
    for case in 0..48u64 {
        let n = 2 + gen.below_usize(5);
        let slots = 1 + gen.below_usize(32);
        let load = (5 + gen.below(96)) as f64 / 100.0;
        let seed = gen.below(1000);
        let cfg = SwitchConfig::symmetric(n, slots);
        let s = cfg.stages() as u64;
        let mut sw = BehavioralSwitch::new(cfg);
        let mut rng = SplitMix64::new(seed);
        let mut arr = vec![None; n];
        for _ in 0..3_000u64 {
            for (i, a) in arr.iter_mut().enumerate() {
                *a = (sw.input_free(i) && rng.chance(load)).then(|| rng.below_usize(n));
            }
            sw.tick(&arr);
        }
        let idle = vec![None; n];
        let mut guard = 0;
        while !sw.is_quiescent() && guard < 10_000 {
            sw.tick(&idle);
            guard += 1;
        }
        assert!(sw.is_quiescent(), "case {case}");
        let ctr = sw.counters();
        assert_eq!(
            ctr.latch_overruns, 0,
            "case {case}: latch overruns are impossible"
        );
        assert_eq!(
            ctr.arrived - ctr.dropped_buffer_full,
            sw.departures().len() as u64,
            "case {case}: conservation: every accepted packet departs exactly once"
        );
        // One initiation per cycle: no two read waves share a start.
        let mut starts: Vec<u64> = sw.departures().iter().map(|d| d.read_start).collect();
        let before = starts.len();
        starts.sort_unstable();
        starts.dedup();
        assert_eq!(
            starts.len(),
            before,
            "case {case}: two read waves in one cycle"
        );
        // Per-output transmissions never overlap.
        let mut per_out: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
        for d in sw.departures() {
            per_out
                .entry(d.output)
                .or_default()
                .push((d.read_start + 1, d.done));
        }
        for (out, mut spans) in per_out {
            spans.sort_unstable();
            for w in spans.windows(2) {
                assert!(
                    w[0].1 < w[1].0,
                    "case {case}: output {out}: transmissions overlap: {w:?}"
                );
            }
            // And each transmission is exactly S cycles.
            for (a, b) in &spans {
                assert_eq!(b - a + 1, s, "case {case}");
            }
        }
    }
}

/// The half-quantum buffer never corrupts data and never exceeds its
/// per-cycle budgets, for arbitrary interleavings of stores/fetches.
#[test]
fn halfq_data_integrity_under_random_ops() {
    let mut gen = SplitMix64::new(0x5EED_0011);
    for case in 0..48u64 {
        let n = 2 + gen.below_usize(7);
        let depth = 1 + gen.below_usize(8);
        let op_count = 1 + gen.below_usize(199);
        let seed = gen.below(500);
        let ops: Vec<bool> = (0..op_count).map(|_| gen.chance(0.5)).collect();
        let mut b = HalfQuantumBuffer::new(n, depth, 64);
        let mut rng = SplitMix64::new(seed);
        let mut stored: Vec<(telegraphos::switch_core::halfq::PacketHandle, u64)> = Vec::new();
        let mut expected: Vec<u64> = Vec::new();
        let mut got: Vec<u64> = Vec::new();
        let mut next_seed = 1u64;
        for &do_store in &ops {
            if do_store {
                let words: Vec<u64> = (0..n as u64).map(|k| next_seed * 1000 + k).collect();
                if let Ok(h) = b.store(words) {
                    stored.push((h, next_seed));
                    next_seed += 1;
                }
            } else if !stored.is_empty() {
                let idx = rng.below_usize(stored.len());
                let (h, s) = stored[idx];
                if b.fetch(h).is_ok() {
                    stored.swap_remove(idx);
                    expected.push(s);
                }
            }
            for (_, r) in b.tick() {
                got.push(r.words[0] / 1000);
            }
        }
        for (_, r) in b.drain() {
            got.push(r.words[0] / 1000);
        }
        expected.sort_unstable();
        got.sort_unstable();
        assert_eq!(
            got, expected,
            "case {case}: every fetch returns its own packet"
        );
    }
}

/// WRR long-run service shares track weights for any weight vector,
/// and total service is work-conserving.
#[test]
fn wrr_shares_track_weights() {
    let mut gen = SplitMix64::new(0x5EED_0012);
    for case in 0..48u64 {
        let flows = 2 + gen.below_usize(4);
        let weights: Vec<u32> = (0..flows).map(|_| 1 + gen.below(8) as u32).collect();
        let mut m: WrrMux<u32> = WrrMux::new(&weights);
        let rounds = 4000usize;
        let mut served = vec![0u64; weights.len()];
        for _ in 0..rounds {
            for f in 0..weights.len() {
                while m.queue_len(f) < 2 {
                    m.enqueue(f, 0);
                }
            }
            let (f, _) = m.dequeue().expect("backlogged");
            served[f] += 1;
        }
        let total: u64 = served.iter().sum();
        assert_eq!(total, rounds as u64, "case {case}: work conservation");
        let wsum: u32 = weights.iter().sum();
        for (f, &w) in weights.iter().enumerate() {
            let share = served[f] as f64 / total as f64;
            let expect = w as f64 / wsum as f64;
            assert!(
                (share - expect).abs() < 0.05,
                "case {case}: flow {f}: share {share:.3} vs {expect:.3} (weights {weights:?})"
            );
        }
    }
}
