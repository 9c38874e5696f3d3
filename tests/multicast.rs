//! Multicast through the pipelined shared buffer.
//!
//! The paper's switches "forward packets that arrive through the incoming
//! links to the proper outgoing link(s)". Multicast exercises the buffer
//! manager's distinctive economy: one stored copy serves every
//! destination, each copy is claimed by its own read wave, and the slot
//! is freed at the *last* copy's read initiation — earlier copies' reads
//! are still in flight then, safe because any later write wave trails
//! them stage by stage.

use telegraphos::simkernel::cell::Packet;
use telegraphos::switch_core::config::SwitchConfig;
use telegraphos::switch_core::rtl::{DeliveredPacket, OutputCollector, PipelinedSwitch};

/// Send one multicast packet to `mask` and drain; returns deliveries.
fn send_multicast(n: usize, slots: usize, mask: u16) -> (Vec<DeliveredPacket>, PipelinedSwitch) {
    let cfg = SwitchConfig::symmetric(n, slots);
    let s = cfg.stages();
    let mut sw = PipelinedSwitch::new(cfg);
    let p = Packet::synth_multicast(7, 0, mask, s, 0);
    let mut col = OutputCollector::new(n, s);
    for k in 0..s {
        let mut wire = vec![None; n];
        wire[0] = Some(p.words[k]);
        let now = sw.now();
        let out = sw.tick(&wire);
        col.observe(now, out);
    }
    let idle = vec![None; n];
    let mut guard = 0;
    while !sw.is_quiescent() && guard < 100 * s {
        let now = sw.now();
        let out = sw.tick(&idle);
        col.observe(now, out);
        guard += 1;
    }
    assert!(sw.is_quiescent());
    (col.take(), sw)
}

#[test]
fn one_copy_per_destination() {
    let (pkts, sw) = send_multicast(4, 8, 0b1011);
    assert_eq!(pkts.len(), 3, "three destinations, three copies");
    let mut outs: Vec<usize> = pkts.iter().map(|d| d.output.index()).collect();
    outs.sort_unstable();
    assert_eq!(outs, vec![0, 1, 3]);
    // One arrival, three departures; no drops.
    let ctr = sw.counters();
    assert_eq!(ctr.arrived, 1);
    assert_eq!(ctr.departed, 3);
    assert_eq!(ctr.dropped_buffer_full, 0);
    assert_eq!(ctr.latch_overruns, 0);
}

#[test]
fn all_copies_bit_exact() {
    let (pkts, _) = send_multicast(4, 8, 0b0110);
    assert_eq!(pkts.len(), 2);
    assert_eq!(pkts[0].words, pkts[1].words, "copies must be identical");
    // Payload integrity: check against the multicast synthesis.
    let reference = Packet::synth_multicast(7, 0, 0b0110, 8, 0);
    for d in &pkts {
        assert_eq!(d.words, reference.words, "copy corrupted");
    }
}

#[test]
fn copies_staggered_one_initiation_per_cycle() {
    // Reads for the copies initiate in different cycles; with all outputs
    // idle they go out back to back starting at the fused cut-through.
    let (pkts, _) = send_multicast(4, 8, 0b0011);
    let mut firsts: Vec<u64> = pkts.iter().map(|d| d.first_cycle).collect();
    firsts.sort_unstable();
    assert_eq!(firsts[0], 2, "first copy cuts through fused (a+2)");
    assert_eq!(firsts[1], 3, "second copy's read initiates next cycle");
}

#[test]
fn broadcast_to_all_outputs() {
    let n = 8;
    let mask = (1u16 << n) - 1;
    let (pkts, sw) = send_multicast(n, 16, mask);
    assert_eq!(pkts.len(), n);
    assert_eq!(sw.counters().departed, n as u64);
    let mut outs: Vec<usize> = pkts.iter().map(|d| d.output.index()).collect();
    outs.sort_unstable();
    assert_eq!(outs, (0..n).collect::<Vec<_>>());
}

#[test]
fn slot_freed_only_after_last_copy_claimed() {
    // One buffer slot, a 2-way multicast, then a unicast packet behind
    // it: the unicast must be admitted only after the multicast's last
    // read initiated, and everything must still be delivered.
    let n = 2;
    let cfg = SwitchConfig::symmetric(n, 1);
    let s = cfg.stages();
    let mut sw = PipelinedSwitch::new(cfg);
    let mc = Packet::synth_multicast(1, 0, 0b11, s, 0);
    let uc = Packet::synth(2, 0, 1, s, s as u64);
    let mut col = OutputCollector::new(n, s);
    for k in 0..s {
        let now = sw.now();
        let out = sw.tick(&[Some(mc.words[k]), None]);
        col.observe(now, out);
    }
    for k in 0..s {
        let now = sw.now();
        let out = sw.tick(&[Some(uc.words[k]), None]);
        col.observe(now, out);
    }
    let mut guard = 0;
    while !sw.is_quiescent() && guard < 100 * s {
        let now = sw.now();
        let out = sw.tick(&[None, None]);
        col.observe(now, out);
        guard += 1;
    }
    let pkts = col.take();
    let ctr = sw.counters();
    // The multicast claims the only slot; whether the unicast is admitted
    // depends on when the last copy's read initiates. Conservation must
    // hold either way: 2 copies + (unicast delivered XOR dropped).
    let mc_copies = pkts.iter().filter(|d| d.id == 1).count();
    let uc_copies = pkts.iter().filter(|d| d.id == 2).count();
    assert_eq!(mc_copies, 2);
    assert_eq!(uc_copies as u64 + ctr.dropped_buffer_full, 1);
    assert_eq!(ctr.latch_overruns, 0);
}

#[test]
fn multicast_under_load_conserves() {
    // Random mix of unicast and multicast on all inputs at high load.
    use telegraphos::simkernel::SplitMix64;
    use telegraphos::traffic::PacketFeeder;
    let n = 4;
    let cfg = SwitchConfig::symmetric(n, 32);
    let s = cfg.stages();
    let mut sw = PipelinedSwitch::new(cfg);
    let mut col = OutputCollector::new(n, s);
    let mut rng = SplitMix64::new(13);
    let mut next_id = 1u64;
    let mut expected_copies = 0u64;
    let mut current: Vec<PacketFeeder> = (0..n).map(|i| PacketFeeder::scripted(i, s)).collect();
    let mut launched_fanout: std::collections::HashMap<u64, u32> = Default::default();
    for _ in 0..20_000u64 {
        let now = sw.now();
        let mut wire = vec![None; n];
        for i in 0..n {
            if !current[i].busy() && rng.chance(0.6) {
                let p = if rng.chance(0.3) {
                    // Multicast to a random non-empty mask.
                    let mask = (rng.below(1 << n) as u16).max(1);
                    Packet::synth_multicast(next_id, i, mask, s, now)
                } else {
                    Packet::synth(next_id, i, rng.below_usize(n), s, now)
                };
                let (mask, _) = Packet::decode_header_any(p.words[0]);
                launched_fanout.insert(next_id, mask.count_ones());
                next_id += 1;
                current[i].push(p);
            }
            wire[i] = current[i].tick(now);
        }
        let out = sw.tick(&wire);
        col.observe(now, out);
    }
    // Drain: finish any packet still on a wire, then idle.
    let mut guard = 0;
    while !sw.is_quiescent() && guard < 10_000 {
        let now = sw.now();
        let wire: Vec<_> = current.iter_mut().map(|f| f.tick(now)).collect();
        let out = sw.tick(&wire);
        col.observe(now, out);
        guard += 1;
    }
    assert!(sw.is_quiescent());
    let pkts = col.take();
    let ctr = sw.counters();
    // Copies delivered per id must equal its fanout, for every admitted
    // packet; dropped packets deliver zero copies.
    let mut delivered_per_id: std::collections::HashMap<u64, u32> = Default::default();
    for d in &pkts {
        *delivered_per_id.entry(d.id).or_default() += 1;
    }
    for (id, copies) in &delivered_per_id {
        assert_eq!(copies, &launched_fanout[id], "id {id}: wrong copy count");
        expected_copies += u64::from(*copies);
    }
    assert_eq!(ctr.departed, expected_copies);
    assert_eq!(
        delivered_per_id.len() as u64 + ctr.dropped_buffer_full,
        ctr.arrived
    );
    assert_eq!(ctr.latch_overruns, 0, "overruns must stay impossible");
    assert!(pkts.len() > 5_000, "workload too thin: {}", pkts.len());
}
