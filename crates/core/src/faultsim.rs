//! Deterministic fault-injection campaigns.
//!
//! A [`FaultPlan`] is a pre-generated, seeded schedule of faults — bank
//! single-event upsets, input-wire word corruption and drops, credit-return
//! loss, stuck stage control — drawn from its own
//! [`SplitMix64::stream`](simkernel::SplitMix64::stream) so that the fault
//! sequence is (a) bit-reproducible from `(seed, kind, rate)` alone and
//! (b) independent of the traffic stream: changing the workload never
//! changes where the faults strike, and running campaign points on any
//! number of worker threads yields identical results.
//!
//! The plan is pure data; *applying* it is the testbench's job. Storage
//! and control faults go straight to the switch's injection hooks
//! ([`PipelinedSwitch::inject_bank_fault`](crate::rtl::PipelinedSwitch::inject_bank_fault),
//! [`force_stuck_write`](crate::rtl::PipelinedSwitch::force_stuck_write));
//! wire faults pass through a [`WireFaults`] mangler inserted between the
//! traffic generator and the switch, which keeps its own framing mirror so
//! a scheduled fault hits a *word on the wire*, not an idle cycle.

use crate::config::SwitchConfig;
use simkernel::ids::{Addr, Cycle};
use simkernel::SplitMix64;

/// RNG stream index used by traffic generators (convention: campaigns
/// split their base seed so traffic and faults never share a stream).
pub const TRAFFIC_STREAM: u64 = 0;
/// RNG stream index used by [`FaultPlan::generate`].
pub const FAULT_STREAM: u64 = 1;

/// The fault classes a campaign can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Single-event upset: flip one bit of one word in one SRAM bank.
    BankUpset,
    /// Flip one bit of one word on an input wire.
    WireCorrupt,
    /// Eat words on an input wire: a packet vanishes (hit at its header)
    /// or is truncated mid-flight (hit later).
    WireDrop,
    /// Lose one credit-return message on a link's reverse wire.
    CreditLoss,
    /// Stick one pipeline stage's write-control signal low for a while.
    StuckWrite,
}

impl FaultKind {
    /// All injectable classes, in campaign-grid order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::BankUpset,
        FaultKind::WireCorrupt,
        FaultKind::WireDrop,
        FaultKind::CreditLoss,
        FaultKind::StuckWrite,
    ];

    /// Stable label for reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::BankUpset => "bank-upset",
            FaultKind::WireCorrupt => "wire-corrupt",
            FaultKind::WireDrop => "wire-drop",
            FaultKind::CreditLoss => "credit-loss",
            FaultKind::StuckWrite => "stuck-write",
        }
    }
}

/// One scheduled fault: what to do, with every parameter pre-drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Flip `mask` in bank `stage`, slot `slot`.
    BankUpset {
        /// Pipeline stage (bank index).
        stage: usize,
        /// Buffer slot.
        slot: Addr,
        /// XOR mask (single bit for SEU campaigns).
        mask: u64,
    },
    /// XOR `mask` into the next word present on input `input`.
    WireCorrupt {
        /// Input link.
        input: usize,
        /// XOR mask.
        mask: u64,
    },
    /// Suppress the next word on input `input` and the rest of its packet.
    WireDrop {
        /// Input link.
        input: usize,
    },
    /// Lose the next credit return on input `input`'s link.
    CreditLoss {
        /// Input link.
        input: usize,
    },
    /// Suppress bank writes at `stage` for `duration` cycles.
    StuckWrite {
        /// Pipeline stage.
        stage: usize,
        /// Cycles the control stays stuck.
        duration: Cycle,
    },
}

/// A fault with its scheduled injection cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Cycle at which to inject.
    pub at: Cycle,
    /// What to inject.
    pub action: FaultAction,
}

/// A deterministic schedule of faults over a simulation horizon.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Scheduled faults, sorted by injection cycle.
    faults: std::collections::VecDeque<Fault>,
}

impl FaultPlan {
    /// Generate a plan: at every cycle of `0..horizon` a fault of `kind`
    /// strikes with probability `rate`, its parameters drawn uniformly
    /// over the geometry of `cfg`. All randomness comes from
    /// `SplitMix64::stream(seed, FAULT_STREAM)` — same arguments, same
    /// plan, bit for bit, on any machine and any `--jobs`.
    pub fn generate(
        kind: FaultKind,
        rate: f64,
        horizon: Cycle,
        cfg: &SwitchConfig,
        seed: u64,
    ) -> FaultPlan {
        let mut rng = SplitMix64::stream(seed, FAULT_STREAM);
        let stages = cfg.stages();
        let mut faults = std::collections::VecDeque::new();
        for at in 0..horizon {
            if !rng.chance(rate) {
                continue;
            }
            let action = match kind {
                FaultKind::BankUpset => FaultAction::BankUpset {
                    stage: rng.below_usize(stages),
                    slot: Addr(rng.below_usize(cfg.slots)),
                    mask: 1u64 << rng.below(cfg.word_bits as u64),
                },
                FaultKind::WireCorrupt => FaultAction::WireCorrupt {
                    input: rng.below_usize(cfg.n_in),
                    mask: 1u64 << rng.below(cfg.word_bits as u64),
                },
                FaultKind::WireDrop => FaultAction::WireDrop {
                    input: rng.below_usize(cfg.n_in),
                },
                FaultKind::CreditLoss => FaultAction::CreditLoss {
                    input: rng.below_usize(cfg.n_in),
                },
                FaultKind::StuckWrite => FaultAction::StuckWrite {
                    stage: rng.below_usize(stages),
                    duration: 1 + rng.below(stages as u64),
                },
            };
            faults.push_back(Fault { at, action });
        }
        FaultPlan { faults }
    }

    /// Cycle of the earliest fault still scheduled, if any. Lets a
    /// fast-forwarding driver bound a time skip so no injection is missed.
    pub fn next_due(&self) -> Option<Cycle> {
        self.faults.front().map(|f| f.at)
    }

    /// Pop every fault scheduled at or before `now` into `due`
    /// (call once per cycle). The buffer is cleared first; passing a
    /// caller-owned scratch keeps the per-cycle fault poll off the
    /// allocator on the hot simulation loops.
    pub fn take_due_into(&mut self, now: Cycle, due: &mut Vec<Fault>) {
        due.clear();
        while let Some(&f) = self.faults.front() {
            if f.at > now {
                break;
            }
            due.push(f);
            self.faults.pop_front();
        }
    }
}

/// Applies [`FaultAction::WireCorrupt`] / [`FaultAction::WireDrop`] to the
/// words between the traffic generator and the switch's input pins.
///
/// The mangler keeps a framing mirror (word index within the current
/// packet) per input so it can tell a header hit from a mid-packet hit,
/// and it holds a scheduled fault armed until a word is actually present —
/// a fault scheduled during an idle cycle strikes the next real word.
#[derive(Debug, Clone)]
pub struct WireFaults {
    stages: usize,
    /// Framing mirror: word index of the *original* stream per input.
    k: Vec<usize>,
    /// Input is mid-drop: suppress the rest of the current packet.
    dropping: Vec<bool>,
    /// Armed one-shot corruption masks per input.
    armed_corrupt: Vec<u64>,
    /// Armed one-shot drops per input.
    armed_drop: Vec<bool>,
    /// Current packet already counted in `corrupted_packets`.
    hit: Vec<bool>,
    /// Words whose bits were flipped on the wire.
    pub corrupted_words: u64,
    /// Packets that had at least one word corrupted.
    pub corrupted_packets: u64,
    /// Packets eaten whole (drop hit the header).
    pub dropped_packets: u64,
    /// Packets truncated mid-flight (drop hit a later word).
    pub truncated_packets: u64,
}

impl WireFaults {
    /// A mangler for `n_in` inputs carrying `stages`-word packets.
    pub fn new(n_in: usize, stages: usize) -> Self {
        WireFaults {
            stages,
            k: vec![0; n_in],
            dropping: vec![false; n_in],
            armed_corrupt: vec![0; n_in],
            armed_drop: vec![false; n_in],
            hit: vec![false; n_in],
            corrupted_words: 0,
            corrupted_packets: 0,
            dropped_packets: 0,
            truncated_packets: 0,
        }
    }

    /// Arm a wire fault. Non-wire actions are ignored (the campaign
    /// driver routes them to the switch's own hooks).
    pub fn schedule(&mut self, action: FaultAction) {
        match action {
            FaultAction::WireCorrupt { input, mask } => {
                self.armed_corrupt[input] |= mask;
            }
            FaultAction::WireDrop { input } => {
                self.armed_drop[input] = true;
            }
            _ => {}
        }
    }

    /// Mangle one cycle's input words in place (call right before
    /// `tick`). Idle inputs leave armed faults armed.
    pub fn apply(&mut self, wire: &mut [Option<u64>]) {
        for (i, w) in wire.iter_mut().enumerate() {
            let Some(word) = w else {
                continue;
            };
            let k = self.k[i];
            if k == 0 {
                // Header word: a new packet starts on this input.
                self.hit[i] = false;
            }
            self.k[i] = (k + 1) % self.stages;
            if self.dropping[i] {
                *w = None;
                if self.k[i] == 0 {
                    self.dropping[i] = false;
                }
                continue;
            }
            if self.armed_drop[i] {
                self.armed_drop[i] = false;
                self.dropping[i] = self.k[i] != 0;
                if k == 0 {
                    self.dropped_packets += 1;
                } else {
                    self.truncated_packets += 1;
                }
                *w = None;
                continue;
            }
            let mask = std::mem::take(&mut self.armed_corrupt[i]);
            if mask != 0 {
                *w = Some(*word ^ mask);
                self.corrupted_words += 1;
                // A packet struck twice is still one corrupted packet —
                // coverage accounting divides by *packets*.
                if !self.hit[i] {
                    self.hit[i] = true;
                    self.corrupted_packets += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SwitchConfig {
        SwitchConfig::symmetric(4, 16)
    }

    #[test]
    fn plans_are_bit_reproducible() {
        let a = FaultPlan::generate(FaultKind::BankUpset, 0.01, 5_000, &cfg(), 42);
        let b = FaultPlan::generate(FaultKind::BankUpset, 0.01, 5_000, &cfg(), 42);
        assert_eq!(a.faults, b.faults);
        assert!(!a.faults.is_empty(), "0.01 × 5000 cycles yields faults");
    }

    #[test]
    fn seed_and_kind_change_the_plan() {
        let a = FaultPlan::generate(FaultKind::BankUpset, 0.05, 2_000, &cfg(), 1);
        let b = FaultPlan::generate(FaultKind::BankUpset, 0.05, 2_000, &cfg(), 2);
        assert_ne!(a.faults, b.faults, "seed must matter");
        let c = FaultPlan::generate(FaultKind::WireDrop, 0.05, 2_000, &cfg(), 1);
        assert!(
            c.faults
                .iter()
                .all(|f| matches!(f.action, FaultAction::WireDrop { .. })),
            "kind selects the action"
        );
    }

    #[test]
    fn fault_stream_is_independent_of_traffic_stream() {
        // The traffic stream (stream 0) and fault stream (stream 1) of
        // the same base seed must not collide.
        let mut t = SplitMix64::stream(7, TRAFFIC_STREAM);
        let mut f = SplitMix64::stream(7, FAULT_STREAM);
        assert_ne!(t.next_u64(), f.next_u64());
    }

    #[test]
    fn take_due_into_pops_in_order() {
        let mut p = FaultPlan::generate(FaultKind::CreditLoss, 0.2, 100, &cfg(), 9);
        let total = p.faults.len();
        let mut seen = 0;
        let mut due = Vec::new();
        for now in 0..100 {
            p.take_due_into(now, &mut due);
            for f in &due {
                assert!(f.at <= now);
                seen += 1;
            }
        }
        assert_eq!(seen, total);
        assert!(p.faults.is_empty());
    }

    #[test]
    fn wire_corrupt_hits_next_present_word() {
        let mut wf = WireFaults::new(2, 4);
        wf.schedule(FaultAction::WireCorrupt {
            input: 0,
            mask: 0b1,
        });
        let mut wire = vec![None, Some(9)];
        wf.apply(&mut wire); // input 0 idle: fault stays armed
        assert_eq!(wire, vec![None, Some(9)]);
        let mut wire = vec![Some(4), None];
        wf.apply(&mut wire);
        assert_eq!(wire[0], Some(5), "bit flipped on the wire");
        assert_eq!(wf.corrupted_words, 1);
        let mut wire = vec![Some(4), None];
        wf.apply(&mut wire);
        assert_eq!(wire[0], Some(4), "one-shot");
    }

    #[test]
    fn wire_drop_at_header_eats_whole_packet() {
        let mut wf = WireFaults::new(1, 3);
        wf.schedule(FaultAction::WireDrop { input: 0 });
        for w in [10, 11, 12] {
            let mut wire = vec![Some(w)];
            wf.apply(&mut wire);
            assert_eq!(wire[0], None, "whole packet suppressed");
        }
        assert_eq!(wf.dropped_packets, 1);
        assert_eq!(wf.truncated_packets, 0);
        // The next packet passes untouched.
        let mut wire = vec![Some(20)];
        wf.apply(&mut wire);
        assert_eq!(wire[0], Some(20));
    }

    #[test]
    fn wire_drop_mid_packet_truncates() {
        let mut wf = WireFaults::new(1, 3);
        let mut wire = vec![Some(10)];
        wf.apply(&mut wire); // header passes
        assert_eq!(wire[0], Some(10));
        wf.schedule(FaultAction::WireDrop { input: 0 });
        let mut wire = vec![Some(11)];
        wf.apply(&mut wire);
        assert_eq!(wire[0], None);
        let mut wire = vec![Some(12)];
        wf.apply(&mut wire);
        assert_eq!(wire[0], None, "rest of the packet suppressed");
        assert_eq!(wf.truncated_packets, 1);
        let mut wire = vec![Some(20)];
        wf.apply(&mut wire);
        assert_eq!(wire[0], Some(20), "next packet passes");
    }
}
