//! Word-level multi-switch fabrics: chains of RTL pipelined switches with
//! virtual-circuit translation at every hop.
//!
//! The Telegraphos system is switches *plus wires*: hosts and switches
//! connected by links, circuits set up hop by hop in each switch's RT
//! (fig. 6), labels swapped at every stage. This module wires several
//! word-accurate [`TranslatedSwitch`]es together through registered
//! inter-switch links (one cycle of wire delay per hop, as §4.3's
//! "split the long lines … into pipeline stages" prescribes) and carries
//! packets end to end — cut-through compounding across hops, every word
//! bit-exact at the far side.

use simkernel::ids::Cycle;
use switch_core::config::SwitchConfig;
use switch_core::rtl::OutputCollector;
use switch_core::vcroute::{decode_delivery, encode_header_vc, TranslatedSwitch};

/// A linear chain of `hops` switches: stage `h`'s output `link` feeds
/// stage `h+1`'s input `link` through a one-cycle registered wire.
/// Terminal hosts attach to stage 0's inputs and the last stage's
/// outputs.
#[derive(Debug)]
pub struct RtlChain {
    switches: Vec<TranslatedSwitch>,
    /// Registered wires between stage h and h+1: `wire[h][link]` holds
    /// the word launched last cycle, delivered this cycle.
    wires: Vec<Vec<Option<u64>>>,
    /// Per-wire framing counters: words of the current packet already
    /// launched on `wire[h][link]` (0 = next word is a header). The
    /// egress link interface uses this to re-encode the buffer-internal
    /// header back into the wire's VC format for the next hop.
    wire_k: Vec<Vec<usize>>,
    n: usize,
    stages_per_switch: usize,
    collector: OutputCollector,
    cycle: Cycle,
}

/// A delivered end-to-end packet: final egress link, outgoing label, id,
/// egress cycle of the head word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainDelivery {
    /// Output link of the last switch.
    pub egress: usize,
    /// Label after the last swap (host-facing).
    pub vc: u16,
    /// Original packet id.
    pub id: u64,
    /// Cycle the head word reached the terminal host.
    pub head_cycle: Cycle,
    /// Payload words as delivered.
    pub words: Vec<u64>,
}

impl RtlChain {
    /// A chain of `hops` switches of geometry `cfg`, each with an RT of
    /// `vcs` labels.
    pub fn new(cfg: SwitchConfig, hops: usize, vcs: usize) -> Self {
        assert!(hops >= 1);
        let n = cfg.n_in;
        let s = cfg.stages();
        RtlChain {
            switches: (0..hops)
                .map(|_| TranslatedSwitch::new(cfg.clone(), vcs))
                .collect(),
            wires: vec![vec![None; n]; hops.saturating_sub(1)],
            wire_k: vec![vec![0; n]; hops.saturating_sub(1)],
            n,
            stages_per_switch: s,
            collector: OutputCollector::new(n, s),
            cycle: 0,
        }
    }

    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.switches.len()
    }

    /// Install a circuit across the whole chain: at hop `h`, label
    /// `labels[h]` maps to (`links[h]`, `labels[h+1]`). `labels` has one
    /// more entry than hops (the final label is host-facing).
    pub fn install_circuit(&mut self, labels: &[u16], links: &[usize]) {
        assert_eq!(labels.len(), self.hops() + 1);
        assert_eq!(links.len(), self.hops());
        for (h, sw) in self.switches.iter_mut().enumerate() {
            sw.rt().install(labels[h], links[h], labels[h + 1]);
        }
    }

    /// Advance one cycle. `host_in[i]` is the word a host drives into
    /// stage 0's input `i`. Completed end-to-end packets accumulate in
    /// the delivery log ([`RtlChain::take_deliveries`]).
    pub fn tick(&mut self, host_in: &[Option<u64>]) {
        assert_eq!(host_in.len(), self.n);
        // Stage 0 consumes host input; stage h>0 consumes wire[h-1];
        // each stage's output feeds the next wire (registered).
        let mut inbound: Vec<Option<u64>> = host_in.to_vec();
        let last = self.hops() - 1;
        let s = self.stages_per_switch;
        for (h, sw) in self.switches.iter_mut().enumerate() {
            let next_in = if h < last {
                self.wires[h].clone()
            } else {
                Vec::new()
            };
            let out = sw.tick(&inbound);
            if h < last {
                // Launch into the registered wire (reusing its buffer;
                // last cycle's words were already cloned into `next_in`).
                let wire = &mut self.wires[h];
                wire.clear();
                wire.extend_from_slice(out);
                // Egress link interface: the first word of each packet
                // leaving the buffer carries the internal (output,
                // composite-id) header; re-encode it into the VC wire
                // format the next hop's RT expects.
                for (link, w) in wire.iter_mut().enumerate() {
                    match w {
                        Some(word) => {
                            if self.wire_k[h][link] == 0 {
                                let (_, composite) = simkernel::cell::Packet::decode_header(*word);
                                let next_vc = (composite >> 40) as u16;
                                let id = composite & ((1 << 40) - 1);
                                *word = encode_header_vc(next_vc, id);
                            }
                            self.wire_k[h][link] = (self.wire_k[h][link] + 1) % s;
                        }
                        None => {
                            debug_assert_eq!(
                                self.wire_k[h][link], 0,
                                "inter-switch link idled mid-packet"
                            );
                        }
                    }
                }
                inbound = next_in;
            } else {
                self.collector.observe(self.cycle, out);
            }
        }
        self.cycle += 1;
    }

    /// True when every switch is empty and all wires idle.
    pub fn is_quiescent(&self) -> bool {
        self.switches.iter().all(|s| s.inner().is_quiescent())
            && self.wires.iter().all(|w| w.iter().all(Option::is_none))
    }

    /// Drain and return completed end-to-end deliveries.
    pub fn take_deliveries(&mut self) -> Vec<ChainDelivery> {
        self.collector
            .take()
            .into_iter()
            .map(|d| {
                let (vc, id) = decode_delivery(&d);
                ChainDelivery {
                    egress: d.output.index(),
                    vc,
                    id,
                    head_cycle: d.first_cycle,
                    words: d.words,
                }
            })
            .collect()
    }
}

/// Build the host-side wire words for a packet on a circuit's first
/// label.
pub fn host_packet(id: u64, first_label: u16, size_words: usize) -> Vec<u64> {
    let mut words: Vec<u64> = (1..size_words)
        .map(|k| simkernel::cell::Packet::payload_word(id, k))
        .collect();
    words.insert(0, encode_header_vc(first_label, id));
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::cell::Packet;

    fn drain(chain: &mut RtlChain) {
        let idle = vec![None; 2];
        let mut guard = 0;
        while !chain.is_quiescent() && guard < 2_000 {
            chain.tick(&idle);
            guard += 1;
        }
        assert!(chain.is_quiescent(), "chain failed to drain");
    }

    #[test]
    fn three_hop_circuit_end_to_end() {
        let mut chain = RtlChain::new(SwitchConfig::symmetric(2, 8), 3, 64);
        // Circuit: in on label 5; hop labels 5→9→13→21; path 1, 0, 1.
        chain.install_circuit(&[5, 9, 13, 21], &[1, 0, 1]);
        let s = chain.stages_per_switch;
        let words = host_packet(77, 5, s);
        for &w in words.iter().take(s) {
            chain.tick(&[Some(w), None]);
        }
        drain(&mut chain);
        let out = chain.take_deliveries();
        assert_eq!(out.len(), 1);
        let d = &out[0];
        assert_eq!(d.egress, 1, "exits on the last hop's configured link");
        assert_eq!(d.vc, 21, "final label after three swaps");
        assert_eq!(d.id, 77);
        for (k, w) in d.words.iter().enumerate().skip(1) {
            assert_eq!(*w, Packet::payload_word(77, k), "payload intact");
        }
        assert_eq!(
            chain.switches.iter().map(|s| s.dangling_drops).sum::<u64>(),
            0
        );
    }

    #[test]
    fn cut_through_compounds_across_hops() {
        // Per hop: header in at cycle a → head out at a+2 (fused
        // cut-through) + 1 cycle of wire. Three hops ≈ 3·2 + 2 wires = 8
        // cycles of head latency — far below store-and-forward
        // (3 hops × (2 + packet) ≈ 18+). The chain must achieve the
        // cut-through figure.
        let mut chain = RtlChain::new(SwitchConfig::symmetric(2, 8), 3, 64);
        chain.install_circuit(&[5, 9, 13, 21], &[0, 0, 0]);
        let s = chain.stages_per_switch;
        let words = host_packet(1, 5, s);
        for &w in words.iter().take(s) {
            chain.tick(&[Some(w), None]);
        }
        drain(&mut chain);
        let out = chain.take_deliveries();
        assert_eq!(out.len(), 1);
        let head = out[0].head_cycle;
        assert!(
            head <= 9,
            "cut-through must compound: head at cycle {head}, expected ≈ 8"
        );
        assert!(head >= 6, "but physics still applies: {head}");
    }

    #[test]
    fn missing_hop_entry_drops_at_that_hop() {
        let mut chain = RtlChain::new(SwitchConfig::symmetric(2, 8), 3, 64);
        // Install only the first two hops.
        chain.switches[0].rt().install(5, 1, 9);
        chain.switches[1].rt().install(9, 0, 13);
        let s = chain.stages_per_switch;
        let words = host_packet(3, 5, s);
        for &w in words.iter().take(s) {
            chain.tick(&[Some(w), None]);
        }
        drain(&mut chain);
        assert!(chain.take_deliveries().is_empty());
        assert_eq!(
            chain.switches.iter().map(|s| s.dangling_drops).sum::<u64>(),
            1,
            "dropped exactly at hop 3"
        );
    }

    #[test]
    fn many_circuits_share_the_fabric() {
        use simkernel::SplitMix64;
        let mut chain = RtlChain::new(SwitchConfig::symmetric(2, 16), 2, 64);
        // Two circuits entering on different inputs, exiting on
        // different links.
        chain.install_circuit(&[1, 2, 3], &[0, 0]);
        chain.install_circuit(&[11, 12, 13], &[1, 1]);
        let s = chain.stages_per_switch;
        let mut rng = SplitMix64::new(8);
        let mut current: Vec<Option<(Vec<u64>, usize)>> = vec![None, None];
        let mut sent = [0u64; 2];
        let mut next_id = 1u64;
        for _ in 0..2_000u64 {
            let mut host = vec![None, None];
            for i in 0..2 {
                if current[i].is_none() && rng.chance(0.4) {
                    let label = if i == 0 { 1 } else { 11 };
                    current[i] = Some((host_packet(next_id, label, s), 0));
                    sent[i] += 1;
                    next_id += 1;
                }
                if let Some((w, k)) = current[i].as_mut() {
                    host[i] = Some(w[*k]);
                    *k += 1;
                    if *k == s {
                        current[i] = None;
                    }
                }
            }
            chain.tick(&host);
        }
        // Finish any host packet still on the wire before idling.
        while current.iter().any(Option::is_some) {
            let mut host = vec![None, None];
            for i in 0..2 {
                if let Some((w, k)) = current[i].as_mut() {
                    host[i] = Some(w[*k]);
                    *k += 1;
                    if *k == s {
                        current[i] = None;
                    }
                }
            }
            chain.tick(&host);
        }
        drain(&mut chain);
        let out = chain.take_deliveries();
        assert_eq!(out.len() as u64, sent[0] + sent[1]);
        assert_eq!(
            chain.switches.iter().map(|s| s.dangling_drops).sum::<u64>(),
            0
        );
        // Circuit isolation: everything from circuit A exits on link 0
        // with label 3, circuit B on link 1 with label 13.
        for d in &out {
            match d.egress {
                0 => assert_eq!(d.vc, 3),
                1 => assert_eq!(d.vc, 13),
                other => panic!("unexpected egress {other}"),
            }
        }
    }
}
