//! Cross-model equivalence: the word-level RTL switch and the cell-level
//! behavioral switch implement the *same* architecture, so under the same
//! arrival schedule they must produce the same departure schedule, cycle
//! for cycle — packet by packet, output by output.
//!
//! This is the license to run the statistical experiments (E3/E6/E15) on
//! the fast model and claim the results hold for the real datapath.

use telegraphos::simkernel::SplitMix64;
use telegraphos::switch_core::behavioral::BehavioralSwitch;
use telegraphos::switch_core::config::SwitchConfig;
use telegraphos::switch_core::events::SwitchCounters;
use telegraphos::switch_core::rtl::{OutputCollector, PipelinedSwitch};
use telegraphos::switch_core::PolicyKind;
use telegraphos::traffic::{DestDist, PacketFeeder};

/// Departure record comparable across models: (output, head-word cycle,
/// tail-word cycle).
type Dep = (usize, u64, u64);

fn run_rtl(
    cfg: &SwitchConfig,
    load: f64,
    cycles: u64,
    seed: u64,
) -> (Vec<(u64, usize, usize)>, Vec<Dep>, SwitchCounters) {
    let s = cfg.stages();
    let n = cfg.n_in;
    let mut sw = PipelinedSwitch::new(cfg.clone());
    let mut feeders: Vec<PacketFeeder> = (0..n)
        .map(|i| PacketFeeder::random(i, s, load, DestDist::uniform(n), seed, n as u64))
        .collect();
    let mut col = OutputCollector::new(n, s);
    let mut wire = vec![None; n];
    for _ in 0..cycles {
        for (i, f) in feeders.iter_mut().enumerate() {
            wire[i] = f.tick(sw.now());
        }
        let now = sw.now();
        let out = sw.tick(&wire);
        col.observe(now, out);
    }
    for f in feeders.iter_mut() {
        f.halt();
    }
    let mut guard = 0;
    while !sw.is_quiescent() && guard < 20_000 {
        for (i, f) in feeders.iter_mut().enumerate() {
            wire[i] = f.tick(sw.now());
        }
        let now = sw.now();
        let out = sw.tick(&wire);
        col.observe(now, out);
        guard += 1;
    }
    assert!(sw.is_quiescent(), "RTL model failed to drain");
    // The arrival schedule actually offered (for replay into the
    // behavioral model): (cycle, input, dst).
    let mut schedule: Vec<(u64, usize, usize)> = Vec::new();
    for f in &feeders {
        for r in f.sent() {
            schedule.push((r.birth, f.port(), r.dst));
        }
    }
    schedule.sort_unstable();
    let mut deps: Vec<Dep> = col
        .take()
        .into_iter()
        .map(|d| (d.output.index(), d.first_cycle, d.last_cycle))
        .collect();
    deps.sort_unstable();
    (schedule, deps, sw.counters())
}

fn run_behavioral(
    cfg: &SwitchConfig,
    schedule: &[(u64, usize, usize)],
    horizon: u64,
) -> (Vec<Dep>, SwitchCounters) {
    let n = cfg.n_in;
    let mut sw = BehavioralSwitch::new(cfg.clone());
    let mut idx = 0;
    let mut arr = vec![None; n];
    for now in 0..horizon {
        arr.fill(None);
        while idx < schedule.len() && schedule[idx].0 == now {
            let (_, input, dst) = schedule[idx];
            arr[input] = Some(dst);
            idx += 1;
        }
        sw.tick(&arr);
    }
    assert!(sw.is_quiescent(), "behavioral model failed to drain");
    let mut deps: Vec<Dep> = sw
        .departures()
        .iter()
        .map(|d| (d.output, d.read_start + 1, d.done))
        .collect();
    deps.sort_unstable();
    (deps, sw.counters())
}

/// The counters both models keep, in the one convention they share: the
/// packet books, and the diagnostics of the packet control they run.
fn shared_counters(c: SwitchCounters) -> [u64; 9] {
    [
        c.arrived,
        c.departed,
        c.dropped_buffer_full,
        c.latch_overruns,
        c.policy_drops,
        c.policy_preempts,
        c.fused_reads,
        c.rw_collisions,
        c.idle_with_work,
    ]
}

fn check_equivalence(n: usize, slots: usize, load: f64, cycles: u64, seed: u64) {
    check_equivalence_of(SwitchConfig::symmetric(n, slots), load, cycles, seed);
}

/// Same departures, same counters; returns the latter.
fn check_equivalence_of(cfg: SwitchConfig, load: f64, cycles: u64, seed: u64) -> SwitchCounters {
    let n = cfg.n_in;
    let (schedule, rtl_deps, rtl_ctr) = run_rtl(&cfg, load, cycles, seed);
    assert!(
        schedule.len() > 20,
        "workload too thin to be meaningful ({} packets)",
        schedule.len()
    );
    let horizon = cycles + 20_000;
    let (bhv_deps, bhv_ctr) = run_behavioral(&cfg, &schedule, horizon);
    assert_eq!(
        rtl_deps.len(),
        bhv_deps.len(),
        "models disagree on packet count (n={n}, load={load})"
    );
    for (r, b) in rtl_deps.iter().zip(&bhv_deps) {
        assert_eq!(
            r, b,
            "departure schedule diverged (n={n}, load={load}, seed={seed})"
        );
    }
    assert_eq!(
        shared_counters(bhv_ctr),
        shared_counters(rtl_ctr),
        "counters diverged (n={n}, load={load}, seed={seed}): {bhv_ctr:?} vs {rtl_ctr:?}"
    );
    bhv_ctr
}

#[test]
fn equivalence_2x2_light_load() {
    check_equivalence(2, 16, 0.3, 4_000, 1);
}

#[test]
fn equivalence_2x2_full_load() {
    check_equivalence(2, 16, 1.0, 4_000, 2);
}

#[test]
fn equivalence_4x4_moderate_load() {
    check_equivalence(4, 32, 0.6, 4_000, 3);
}

#[test]
fn equivalence_4x4_overload_with_tiny_buffer() {
    // Buffer-full drops must also match exactly.
    check_equivalence(4, 2, 0.9, 4_000, 4);
}

#[test]
fn counters_agree_when_eight_slots_overflow() {
    // One convention for both models: `arrived` counts every offered
    // header, refused ones included, and `departed` counts tails.
    let cfg = SwitchConfig::symmetric(4, 8);
    let c = check_equivalence_of(cfg.clone(), 0.95, 4_000, 7);
    assert!(c.dropped_buffer_full > 0, "static: never overflowed: {c:?}");
    assert!(c.fused_reads * c.rw_collisions > 0, "static: {c:?}");
    assert_eq!(c.policy_drops + c.policy_preempts, 0, "static: {c:?}");
    let c = check_equivalence_of(cfg.with_policy(PolicyKind::PushOut), 0.95, 4_000, 7);
    assert!(c.policy_preempts > 0, "push-out: never preempted: {c:?}");
    assert_eq!(c.in_flight(), 0, "push-out: {c:?}");
}

#[test]
fn equivalence_8x8_high_load() {
    check_equivalence(8, 64, 0.9, 3_000, 5);
}

#[test]
fn equivalence_store_and_forward_mode() {
    let mut cfg = SwitchConfig::symmetric(4, 16);
    cfg.cut_through = false;
    cfg.fused_cut_through = false;
    let (schedule, rtl_deps) = {
        let cfg = cfg.clone();
        let s = cfg.stages();
        let n = cfg.n_in;
        let mut sw = PipelinedSwitch::new(cfg);
        let mut feeders: Vec<PacketFeeder> = (0..n)
            .map(|i| PacketFeeder::random(i, s, 0.5, DestDist::uniform(n), 6, n as u64))
            .collect();
        let mut col = OutputCollector::new(n, s);
        let mut wire = vec![None; n];
        for _ in 0..3_000u64 {
            for (i, f) in feeders.iter_mut().enumerate() {
                wire[i] = f.tick(sw.now());
            }
            let now = sw.now();
            let out = sw.tick(&wire);
            col.observe(now, out);
        }
        for f in feeders.iter_mut() {
            f.halt();
        }
        while !sw.is_quiescent() {
            for (i, f) in feeders.iter_mut().enumerate() {
                wire[i] = f.tick(sw.now());
            }
            let now = sw.now();
            let out = sw.tick(&wire);
            col.observe(now, out);
        }
        let mut schedule: Vec<(u64, usize, usize)> = Vec::new();
        for f in &feeders {
            for r in f.sent() {
                schedule.push((r.birth, f.port(), r.dst));
            }
        }
        schedule.sort_unstable();
        let mut deps: Vec<Dep> = col
            .take()
            .into_iter()
            .map(|d| (d.output.index(), d.first_cycle, d.last_cycle))
            .collect();
        deps.sort_unstable();
        (schedule, deps)
    };
    let (bhv, _) = run_behavioral(&cfg, &schedule, 30_000);
    assert_eq!(rtl_deps, bhv, "store-and-forward mode diverged");
}

#[test]
fn determinism_same_seed_same_world() {
    let cfg = SwitchConfig::symmetric(4, 32);
    let a = run_rtl(&cfg, 0.7, 2_000, 42);
    let b = run_rtl(&cfg, 0.7, 2_000, 42);
    assert_eq!(a, b, "simulation must be bit-reproducible");
}

#[test]
fn equivalence_with_multicast_traffic() {
    // Word schedules mixing unicast and multicast; the behavioral model
    // replays the same arrival masks. The two models must agree on every
    // copy's transmission window.
    use telegraphos::simkernel::cell::Packet;
    let n = 4;
    let cfg = SwitchConfig::symmetric(n, 32);
    let s = cfg.stages();
    let mut rng = SplitMix64::new(77);
    // Build the schedule: per input, packets with random gaps; ~30%
    // multicast.
    let cycles = 4_000usize;
    let mut wires = vec![vec![None; n]; cycles];
    let mut masks: Vec<Vec<Option<u32>>> = vec![vec![None; n]; cycles];
    let mut id = 1u64;
    for i in 0..n {
        let mut t = 0usize;
        while t + s <= cycles {
            if rng.chance(0.08) {
                let (p, mask) = if rng.chance(0.3) {
                    let m = (rng.below(1 << n) as u16).max(1);
                    (Packet::synth_multicast(id, i, m, s, t as u64), m as u32)
                } else {
                    let d = rng.below_usize(n);
                    (Packet::synth(id, i, d, s, t as u64), 1u32 << d)
                };
                id += 1;
                for (k, w) in p.words.iter().enumerate() {
                    wires[t + k][i] = Some(*w);
                }
                masks[t][i] = Some(mask);
                t += s;
            } else {
                t += 1;
            }
        }
    }
    // RTL run.
    let mut sw = PipelinedSwitch::new(cfg.clone());
    let mut col = OutputCollector::new(n, s);
    for row in &wires {
        let now = sw.now();
        let out = sw.tick(row);
        col.observe(now, out);
    }
    let idle = vec![None; n];
    let mut guard = 0;
    while !sw.is_quiescent() && guard < 20_000 {
        let now = sw.now();
        let out = sw.tick(&idle);
        col.observe(now, out);
        guard += 1;
    }
    assert!(sw.is_quiescent());
    let mut rtl: Vec<Dep> = col
        .take()
        .into_iter()
        .map(|d| (d.output.index(), d.first_cycle, d.last_cycle))
        .collect();
    rtl.sort_unstable();
    // Behavioral replay.
    let mut bhv_sw = BehavioralSwitch::new(cfg);
    for row in &masks {
        bhv_sw.tick_masks(row);
    }
    let horizon = 30_000;
    let idle_masks = vec![None; n];
    for _ in 0..horizon {
        if bhv_sw.is_quiescent() {
            break;
        }
        bhv_sw.tick_masks(&idle_masks);
    }
    assert!(bhv_sw.is_quiescent());
    let mut bhv: Vec<Dep> = bhv_sw
        .departures()
        .iter()
        .map(|d| (d.output, d.read_start + 1, d.done))
        .collect();
    bhv.sort_unstable();
    assert!(rtl.len() > 100, "workload too thin: {}", rtl.len());
    assert_eq!(rtl, bhv, "multicast departure schedules diverged");
}
