//! Word-level head-to-head: the pipelined switch (fig. 4) vs the
//! wide-memory switch (fig. 3) under identical workloads.
//!
//! The paper's §3.2 comparison in executable form: both organizations
//! carry the same traffic without loss, but the wide memory needs double
//! input buffering and a bypass crossbar to do it, and without the
//! bypass its cut-through latency degrades by a full packet time.

use telegraphos::simkernel::cell::{header_chance, Packet};
use telegraphos::simkernel::ids::Addr;
use telegraphos::simkernel::{run_until_quiescent, SplitMix64};
use telegraphos::switch_core::config::SwitchConfig;
use telegraphos::switch_core::rtl::{DeliveredPacket, OutputCollector, PipelinedSwitch};
use telegraphos::switch_core::widemem::{WideMemorySwitchRtl, WideSwitchConfig};

/// Generate a deterministic word schedule: per input, contiguous packets
/// with random gaps and destinations.
#[allow(clippy::needless_range_loop)]
fn schedule(n: usize, s: usize, cycles: u64, load: f64, seed: u64) -> Vec<Vec<Option<u64>>> {
    let mut rng = SplitMix64::new(seed);
    let mut wires = vec![vec![None; n]; cycles as usize];
    let q = header_chance(load, s);
    let mut next_id = 1u64;
    for i in 0..n {
        let mut t = 0usize;
        while t < cycles as usize {
            if rng.chance(q) {
                if t + s > cycles as usize {
                    break;
                }
                let p = Packet::synth(next_id, i, rng.below_usize(n), s, t as u64);
                next_id += 1;
                for (k, w) in p.words.iter().enumerate() {
                    wires[t + k][i] = Some(*w);
                }
                t += s;
            } else {
                t += 1;
            }
        }
    }
    wires
}

fn run_pipelined(wires: &[Vec<Option<u64>>], n: usize, s: usize) -> Vec<DeliveredPacket> {
    let mut sw = PipelinedSwitch::new(SwitchConfig::symmetric(n, 64));
    let mut col = OutputCollector::new(n, s);
    for row in wires {
        let now = sw.now();
        let out = sw.tick(row);
        col.observe(now, out);
    }
    let idle = vec![None; n];
    run_until_quiescent(10_000, "pipelined drain", |_| {
        if sw.is_quiescent() {
            return true;
        }
        let now = sw.now();
        let out = sw.tick(&idle);
        col.observe(now, out);
        false
    })
    .expect("pipelined switch failed to drain — hang caught by the watchdog");
    assert_eq!(sw.counters().latch_overruns, 0);
    assert_eq!(sw.counters().dropped_buffer_full, 0);
    col.take()
}

fn run_wide(
    wires: &[Vec<Option<u64>>],
    n: usize,
    s: usize,
    crossbar: bool,
) -> Vec<DeliveredPacket> {
    let mut cfg = WideSwitchConfig::fig3(n, 64);
    cfg.cut_through_crossbar = crossbar;
    let mut sw = WideMemorySwitchRtl::new(cfg);
    let mut col = OutputCollector::new(n, s);
    for row in wires {
        let now = sw.now();
        let out = sw.tick(row);
        col.observe(now, out);
    }
    let idle = vec![None; n];
    run_until_quiescent(10_000, "wide-memory drain", |_| {
        if sw.is_quiescent() {
            return true;
        }
        let now = sw.now();
        let out = sw.tick(&idle);
        col.observe(now, out);
        false
    })
    .expect("wide-memory switch failed to drain — hang caught by the watchdog");
    assert_eq!(sw.counters().latch_overruns, 0, "double buffering suffices");
    assert_eq!(sw.counters().dropped_buffer_full, 0);
    col.take()
}

#[test]
fn both_deliver_everything_intact() {
    let (n, s) = (4, 8);
    let wires = schedule(n, s, 8_000, 0.6, 11);
    let pipe = run_pipelined(&wires, n, s);
    let wide = run_wide(&wires, n, s, true);
    assert_eq!(pipe.len(), wide.len(), "same packets in, same packets out");
    assert!(pipe.iter().all(|d| d.verify_payload()));
    assert!(wide.iter().all(|d| d.verify_payload()));
    assert!(pipe.len() > 300, "workload too thin: {}", pipe.len());
}

#[test]
fn pipelined_latency_never_worse_than_wide_without_crossbar() {
    // Identical workloads, so comparing mean first-word cycles compares
    // mean head latency directly.
    let (n, s) = (4, 8);
    let wires = schedule(n, s, 8_000, 0.4, 13);
    let pipe = run_pipelined(&wires, n, s);
    let wide_nc = run_wide(&wires, n, s, false);
    let mean_first = |pkts: &[DeliveredPacket]| {
        pkts.iter().map(|d| d.first_cycle).sum::<u64>() as f64 / pkts.len() as f64
    };
    assert_eq!(pipe.len(), wide_nc.len());
    let mp = mean_first(&pipe);
    let mw = mean_first(&wide_nc);
    assert!(
        mw > mp + (s as f64) * 0.5,
        "wide memory without the bypass crossbar must pay ≈ a packet time \
         of extra latency (pipelined {mp:.1} vs wide {mw:.1})"
    );
}

/// The same single-bit upset — flip bit 3 of stored word 2 of a buffered
/// packet — must be detected by every memory organization the paper
/// compares: the pipelined per-stage banks (checksum scrub at read
/// initiation), the wide memory (checksum scrub at fetch), and the
/// interleaved one-packet-per-bank organization (checksum over the bank
/// read-back). One fault model, three organizations, three detections.
#[test]
fn all_three_organizations_detect_the_same_upset() {
    const WORD_K: usize = 2;
    const MASK: u64 = 1 << 3;
    let s = 4; // 2x2 switch quantum

    // --- Pipelined per-stage banks ------------------------------------
    let mut cfg = SwitchConfig::symmetric(2, 8);
    cfg.cut_through = false;
    cfg.fused_cut_through = false;
    let mut sw = PipelinedSwitch::new(cfg);
    let p = Packet::synth(5, 0, 1, s, 0);
    let mut col = OutputCollector::new(2, s);
    for k in 0..=s {
        let now = sw.now();
        let out = sw.tick(&[p.words.get(k).copied(), None]);
        col.observe(now, out);
    }
    let live: Vec<usize> = (0..8)
        .filter(|&a| sw.inject_bank_fault(WORD_K, Addr(a), MASK).is_some())
        .collect();
    assert_eq!(live.len(), 1, "one slot holds the packet");
    run_until_quiescent(200, "pipelined upset drain", |_| {
        if sw.is_quiescent() {
            return true;
        }
        let now = sw.now();
        let out = sw.tick(&[None, None]);
        col.observe(now, out);
        false
    })
    .expect("drain hung");
    assert!(col.take().is_empty(), "pipelined: corrupt packet must drop");
    assert_eq!(sw.counters().corrupt_drops, 1, "pipelined scrub detects");

    // --- Wide memory ---------------------------------------------------
    let mut wcfg = WideSwitchConfig::fig3(2, 8);
    wcfg.cut_through_crossbar = false; // store-and-forward: packet resident
    let mut wsw = WideMemorySwitchRtl::new(wcfg);
    let mut wcol = OutputCollector::new(2, s);
    for k in 0..=s {
        let now = wsw.now();
        let out = wsw.tick(&[p.words.get(k).copied(), None]);
        wcol.observe(now, out);
    }
    let live: Vec<usize> = (0..8)
        .filter(|&a| wsw.inject_upset(a, WORD_K, MASK))
        .collect();
    assert_eq!(live.len(), 1, "one wide slot holds the packet");
    run_until_quiescent(200, "wide upset drain", |_| {
        if wsw.is_quiescent() {
            return true;
        }
        let now = wsw.now();
        let out = wsw.tick(&[None, None]);
        wcol.observe(now, out);
        false
    })
    .expect("drain hung");
    assert!(wcol.take().is_empty(), "wide: corrupt packet must drop");
    assert_eq!(wsw.counters().corrupt_drops, 1, "wide fetch scrub detects");

    // --- Interleaved (one packet per bank) -----------------------------
    use telegraphos::membank::interleaved::InterleavedMemory;
    use telegraphos::switch_core::rtl::integrity_checksum;
    let mut mem = InterleavedMemory::new(4, s, 64);
    let b = mem.allocate().expect("free bank");
    let sealed = integrity_checksum(p.words.iter().copied());
    for (k, &w) in p.words.iter().enumerate() {
        mem.begin_cycle(k as u64);
        mem.write_word(b, k, w).expect("single write per cycle");
    }
    mem.inject_fault(b, WORD_K, MASK);
    let mut stored = Vec::with_capacity(s);
    for k in 0..s {
        mem.begin_cycle((s + k) as u64);
        stored.push(mem.read_word(b, k).expect("single read per cycle"));
    }
    assert_ne!(
        integrity_checksum(stored.iter().copied()),
        sealed,
        "interleaved: the checksum over the read-back exposes the upset"
    );
    mem.release(b);
}

#[test]
fn wide_with_crossbar_approaches_pipelined_latency() {
    let (n, s) = (4, 8);
    let wires = schedule(n, s, 8_000, 0.3, 17);
    let pipe = run_pipelined(&wires, n, s);
    let wide = run_wide(&wires, n, s, true);
    let mean_first = |pkts: &[DeliveredPacket]| {
        pkts.iter().map(|d| d.first_cycle).sum::<u64>() as f64 / pkts.len() as f64
    };
    let gap = mean_first(&wide) - mean_first(&pipe);
    assert!(
        gap.abs() < s as f64,
        "with its extra crossbar the wide memory should be within a packet \
         time of the pipelined switch (gap {gap:.1}); the pipelined one gets \
         this latency with no bypass hardware at all"
    );
}
