//! Virtual-circuit routing translation — the RT block of figure 6.
//!
//! The Telegraphos switches are virtual-circuit devices: "at the center
//! of the chip, the RT block is the translation routing memory, and the
//! HM is the untranslated packet header memory" (§4.2); buffer management
//! and VC-level flow control are in \[Kate94\]/\[KVES95\]. This module models
//! that ingress stage: packets arrive carrying a **VC label**, the
//! routing table maps it to an *(output link, outgoing VC)* pair, and the
//! header is rewritten before entering the shared buffer — so a chain of
//! switches forwards a circuit hop by hop, each hop swapping the label
//! (exactly ATM's VCI swapping).
//!
//! [`TranslatedSwitch`] wraps a [`PipelinedSwitch`]: word 0 of each
//! arriving packet is intercepted, looked up, and rewritten on the fly
//! (one cycle of combinational work, as the real RT does in parallel with
//! the input latch). Unmatched or invalid labels drop the packet at
//! ingress — counted, never silent.

use crate::config::SwitchConfig;
use crate::rtl::{DeliveredPacket, PipelinedSwitch};
use simkernel::cell::Packet;
use simkernel::ids::Cycle;

/// The VC-header wire format: low byte `0xFE`, then a 16-bit VC label,
/// then the packet id.
pub fn encode_header_vc(vc: u16, id: u64) -> u64 {
    (id << 24) | ((vc as u64) << 8) | 0xFE
}

/// Decode a VC header; `None` if the word is not a VC header.
pub fn decode_header_vc(word: u64) -> Option<(u16, u64)> {
    (word & 0xff == 0xFE).then_some((((word >> 8) & 0xffff) as u16, word >> 24))
}

/// Build a VC-labeled packet with the standard synthetic payload.
pub fn synth_vc_packet(id: u64, src: usize, vc: u16, size_words: usize, birth: Cycle) -> Packet {
    let mut p = Packet::synth(id, src, 0, size_words, birth);
    p.words[0] = encode_header_vc(vc, id);
    p
}

/// One routing-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcEntry {
    /// Output link of this hop.
    pub out: usize,
    /// Label to carry on the next hop.
    pub next_vc: u16,
}

/// The translation routing memory (RT).
#[derive(Debug, Clone)]
pub struct RoutingTable {
    entries: Vec<Option<VcEntry>>,
    lookups: u64,
    misses: u64,
}

impl RoutingTable {
    /// An RT with capacity for `vcs` labels, all invalid.
    pub fn new(vcs: usize) -> Self {
        RoutingTable {
            entries: vec![None; vcs],
            lookups: 0,
            misses: 0,
        }
    }

    /// Install a circuit: label `vc` → (output, next label).
    pub fn install(&mut self, vc: u16, out: usize, next_vc: u16) {
        self.entries[vc as usize] = Some(VcEntry { out, next_vc });
    }

    /// Tear down a circuit.
    pub fn remove(&mut self, vc: u16) {
        self.entries[vc as usize] = None;
    }

    /// Look up a label (counts lookups and misses).
    pub fn lookup(&mut self, vc: u16) -> Option<VcEntry> {
        self.lookups += 1;
        let e = self.entries.get(vc as usize).copied().flatten();
        if e.is_none() {
            self.misses += 1;
        }
        e
    }

    /// `(lookups, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.lookups, self.misses)
    }
}

/// A VC-delivered packet with its outgoing label recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcDelivery {
    /// The underlying delivery.
    pub inner: DeliveredPacket,
    /// The outgoing VC label (for the next hop).
    pub vc: u16,
    /// The original packet id.
    pub id: u64,
}

impl VcDelivery {
    /// Verify the payload against the original id's synthesis rule.
    pub fn verify_payload(&self) -> bool {
        self.inner.words[1..]
            .iter()
            .enumerate()
            .all(|(i, &w)| w == Packet::payload_word(self.id, i + 1))
    }

    /// Re-encode this delivery as the wire words for the next hop.
    pub fn next_hop_words(&self) -> Vec<u64> {
        let mut words = self.inner.words.clone();
        words[0] = encode_header_vc(self.vc, self.id);
        words
    }
}

/// Recover `(vc, id)` from a delivered packet's composite header.
pub fn decode_delivery(d: &DeliveredPacket) -> (u16, u64) {
    // The ingress rewrite packed (next_vc, id) into the inner id field.
    let composite = d.id;
    ((composite >> 40) as u16, composite & ((1 << 40) - 1))
}

/// A pipelined switch with VC translation at ingress.
#[derive(Debug)]
pub struct TranslatedSwitch {
    inner: PipelinedSwitch,
    rt: RoutingTable,
    /// Per input: words remaining of a packet being discarded (dangling
    /// VC), or of a packet being passed through.
    in_state: Vec<InState>,
    /// Packets dropped at ingress for lack of a circuit.
    pub dangling_drops: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InState {
    Idle,
    /// Passing a translated packet through; words remaining.
    Passing(usize),
    /// Discarding a packet with no circuit; words remaining.
    Discarding(usize),
}

impl TranslatedSwitch {
    /// Wrap a switch configuration with an RT of `vcs` labels.
    pub fn new(cfg: SwitchConfig, vcs: usize) -> Self {
        let n_in = cfg.n_in;
        TranslatedSwitch {
            inner: PipelinedSwitch::new(cfg),
            rt: RoutingTable::new(vcs),
            in_state: vec![InState::Idle; n_in],
            dangling_drops: 0,
        }
    }

    /// The routing table (install/remove circuits here).
    pub fn rt(&mut self) -> &mut RoutingTable {
        &mut self.rt
    }

    /// The wrapped switch (counters, trace, quiescence).
    pub fn inner(&self) -> &PipelinedSwitch {
        &self.inner
    }

    /// Packet length in words.
    fn stages(&self) -> usize {
        self.inner.config().stages()
    }

    /// Advance one cycle: VC-labeled words in, VC-labeled words out
    /// (headers already rewritten for the next hop — use
    /// [`decode_delivery`] / an `OutputCollector` to reassemble). The
    /// slice borrows the inner switch's scratch, valid until next tick.
    pub fn tick(&mut self, wire_in: &[Option<u64>]) -> &[Option<u64>] {
        let s = self.stages();
        let mut translated: Vec<Option<u64>> = vec![None; wire_in.len()];
        for (i, w) in wire_in.iter().enumerate() {
            let Some(word) = w else {
                continue;
            };
            match self.in_state[i] {
                InState::Idle => {
                    let (vc, id) = decode_header_vc(*word)
                        .expect("TranslatedSwitch requires VC-labeled packets");
                    assert!(id < (1 << 40), "id field limited to 40 bits under VC");
                    match self.rt.lookup(vc) {
                        Some(e) => {
                            // Pack (next_vc, id) into the inner id so the
                            // label survives the buffer; route on `out`.
                            let composite = ((e.next_vc as u64) << 40) | id;
                            translated[i] = Some(Packet::encode_header(e.out, composite));
                            self.in_state[i] = InState::Passing(s - 1);
                        }
                        None => {
                            self.dangling_drops += 1;
                            self.in_state[i] = InState::Discarding(s - 1);
                        }
                    }
                }
                InState::Passing(left) => {
                    translated[i] = Some(*word);
                    self.in_state[i] = if left == 1 {
                        InState::Idle
                    } else {
                        InState::Passing(left - 1)
                    };
                }
                InState::Discarding(left) => {
                    self.in_state[i] = if left == 1 {
                        InState::Idle
                    } else {
                        InState::Discarding(left - 1)
                    };
                }
            }
        }
        self.inner.tick(&translated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtl::OutputCollector;

    fn deliver(
        sw: &mut TranslatedSwitch,
        packets: &[(u64, usize, u16)], // (id, input, vc), all header at cycle 0 impossible for same input
    ) -> Vec<VcDelivery> {
        let s = sw.stages();
        let n = sw.inner().config().n_in;
        let mut col = OutputCollector::new(n, s);
        for k in 0..s {
            let mut wire = vec![None; n];
            for &(id, input, vc) in packets {
                let p = synth_vc_packet(id, input, vc, s, 0);
                wire[input] = Some(p.words[k]);
            }
            let now = sw.inner().now();
            let out = sw.tick(&wire);
            col.observe(now, out);
        }
        let idle = vec![None; n];
        simkernel::run_until_quiescent((50 * s) as u64, "VC-switch drain", |_| {
            if sw.inner().is_quiescent() {
                return true;
            }
            let now = sw.inner().now();
            let out = sw.tick(&idle);
            col.observe(now, out);
            false
        })
        .expect("drain hung");
        col.take()
            .into_iter()
            .map(|d| {
                let (vc, id) = decode_delivery(&d);
                VcDelivery { inner: d, vc, id }
            })
            .collect()
    }

    #[test]
    fn label_swapped_and_routed() {
        let mut sw = TranslatedSwitch::new(SwitchConfig::symmetric(2, 8), 64);
        sw.rt().install(5, /*out*/ 1, /*next*/ 9);
        let out = deliver(&mut sw, &[(1, 0, 5)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].inner.output.index(), 1, "routed by the RT entry");
        assert_eq!(out[0].vc, 9, "label swapped for the next hop");
        assert_eq!(out[0].id, 1);
        assert!(out[0].verify_payload());
    }

    #[test]
    fn dangling_vc_dropped_and_counted() {
        let mut sw = TranslatedSwitch::new(SwitchConfig::symmetric(2, 8), 64);
        sw.rt().install(5, 1, 9);
        let out = deliver(&mut sw, &[(1, 0, 5), (2, 1, 7)]); // vc 7 not installed
        assert_eq!(out.len(), 1, "only the installed circuit delivers");
        assert_eq!(sw.dangling_drops, 1);
        let (lookups, misses) = sw.rt.stats();
        assert_eq!((lookups, misses), (2, 1));
    }

    #[test]
    fn two_switch_chain_forwards_a_circuit() {
        // Circuit: host → switch A (vc 3 → out 1, vc 11) → switch B
        // (vc 11 → out 0, vc 42) → host. The end-to-end label path is the
        // [KVES95] setting.
        let mut a = TranslatedSwitch::new(SwitchConfig::symmetric(2, 8), 64);
        let mut b = TranslatedSwitch::new(SwitchConfig::symmetric(2, 8), 64);
        a.rt().install(3, 1, 11);
        b.rt().install(11, 0, 42);
        let s = a.stages();

        // Stage 1: through switch A.
        let hop1 = deliver(&mut a, &[(7, 0, 3)]);
        assert_eq!(hop1.len(), 1);
        assert_eq!(hop1[0].vc, 11);

        // Stage 2: feed A's output words into B (port 1 → B's input 0).
        let words = hop1[0].next_hop_words();
        let mut col = OutputCollector::new(2, s);
        for w in words.iter().take(s) {
            let now = b.inner().now();
            let out = b.tick(&[Some(*w), None]);
            col.observe(now, out);
        }
        simkernel::run_until_quiescent((50 * s) as u64, "second-hop drain", |_| {
            if b.inner().is_quiescent() {
                return true;
            }
            let now = b.inner().now();
            let out = b.tick(&[None, None]);
            col.observe(now, out);
            false
        })
        .expect("drain hung");
        let hop2: Vec<VcDelivery> = col
            .take()
            .into_iter()
            .map(|d| {
                let (vc, id) = decode_delivery(&d);
                VcDelivery { inner: d, vc, id }
            })
            .collect();
        assert_eq!(hop2.len(), 1);
        assert_eq!(hop2[0].inner.output.index(), 0, "B routed by its RT");
        assert_eq!(hop2[0].vc, 42, "second label swap");
        assert_eq!(hop2[0].id, 7, "id preserved end to end");
        assert!(hop2[0].verify_payload(), "payload intact across two hops");
    }

    #[test]
    fn circuit_teardown_stops_traffic() {
        let mut sw = TranslatedSwitch::new(SwitchConfig::symmetric(2, 8), 64);
        sw.rt().install(5, 1, 9);
        let first = deliver(&mut sw, &[(1, 0, 5)]);
        assert_eq!(first.len(), 1);
        sw.rt().remove(5);
        let second = deliver(&mut sw, &[(2, 0, 5)]);
        assert!(second.is_empty());
        assert_eq!(sw.dangling_drops, 1);
    }

    #[test]
    fn vc_header_roundtrip() {
        for vc in [0u16, 1, 0xffff] {
            for id in [0u64, 9, (1 << 40) - 1] {
                let h = encode_header_vc(vc, id);
                assert_eq!(decode_header_vc(h), Some((vc, id)));
            }
        }
        assert_eq!(decode_header_vc(Packet::encode_header(1, 2)), None);
    }
}
