//! One interface over the four switch models.
//!
//! §5 of the paper compares three memory organizations of the *same*
//! shared buffer, and the cell-level behavioral model is that buffer
//! again without its words. What all four answer is [`Switch`]; what
//! needs memory words is [`WordSwitch`]. Harnesses that drive "a switch,
//! whichever" (the conformance driver's skeleton) take a `dyn Switch`;
//! those that drive "a word-level switch, whichever" — the fabric's word
//! elements, the chaos campaign, the cross-organization tests — hold a
//! `Box<dyn WordSwitch>` built by [`WordOrg::build`] instead of matching
//! over the concrete types.

use crate::config::SwitchConfig;
use crate::events::SwitchCounters;
use crate::ibank::{InterleavedSwitch, InterleavedSwitchConfig};
use crate::policy::PolicyKind;
use crate::recovery::{RecoveryConfig, RecoveryReport, RecoveryWindows};
use crate::rtl::PipelinedSwitch;
use crate::widemem::{WideMemorySwitchRtl, WideSwitchConfig};
use telemetry::ProbeHandle;

/// A shared-buffer switch, word-level or cell-level. The clock (`now`,
/// `next_event`, `jump_to`) comes from [`simkernel::Horizon`]; how a
/// cycle is fed — words or cells — is the concrete type's business.
pub trait Switch: simkernel::Horizon {
    /// Aggregate counters.
    fn counters(&self) -> SwitchCounters;
    /// Nothing buffered, nothing in flight.
    fn is_quiescent(&self) -> bool;
    /// Buffer slots currently allocated.
    fn occupancy(&self) -> usize;
    /// Packet size in words.
    fn packet_words(&self) -> usize;
    /// Stream every subsequent tick's events into `probe`.
    fn attach_probe(&mut self, probe: ProbeHandle);
    /// Corrections, failovers, shed packets and declared windows so far.
    fn recovery_report(&self) -> RecoveryReport;
}

/// A word-level shared-buffer switch, whatever its memory organization.
pub trait WordSwitch: Switch {
    /// One clock cycle: words in on every input link, words out on every
    /// output link (valid until the next tick).
    fn tick(&mut self, wire_in: &[Option<u64>]) -> &[Option<u64>];
    /// Spares exhausted: running on reduced capacity for good.
    fn is_degraded(&self) -> bool;
    /// Spare banks / rows / columns still in reserve.
    fn spares_remaining(&self) -> usize;
    /// The declared-outage ledger.
    fn recovery_windows(&self) -> &RecoveryWindows;
    /// Fault injection (testbench only): flip the bits of `mask` in word
    /// `word` of buffer slot `slot`, as a single-event upset would. True
    /// when the struck word is live packet data a reader can still reach.
    fn inject_upset(&mut self, slot: usize, word: usize, mask: u64) -> bool;
}

/// What is the same for every model: the inherent `attach_probe`,
/// `counters` and `now` (inherent because `benchmark/`, the examples and
/// the facade crate call them without the trait in scope) and the
/// [`Switch`] impl, which delegates to the control plane (at the field
/// path given) or to the model's own inherent method of the same name.
/// A generic model names its parameters first: `impl[P: Copy] Model<P>`.
macro_rules! switch {
    ($t:ty, $($ctl:ident).+) => {
        crate::word::switch!(impl[] $t, $($ctl).+);
    };
    (impl[$($g:tt)*] $t:ty, $($ctl:ident).+) => {
        impl<$($g)*> $t {
            /// Attach a probe sink; every subsequent tick streams
            /// structured [`telemetry::ProbeEvent`]s into it. With no
            /// probe attached the emission sites cost one predictable
            /// branch each (the perf gate holds this).
            pub fn attach_probe(&mut self, probe: telemetry::ProbeHandle) {
                self.$($ctl).+.attach_probe(probe);
            }

            /// Aggregate counters.
            pub fn counters(&self) -> crate::events::SwitchCounters {
                self.$($ctl).+.counters
            }

            /// Current cycle (the one the next `tick` will execute).
            pub fn now(&self) -> simkernel::ids::Cycle {
                self.cycle
            }
        }

        impl<$($g)*> crate::word::Switch for $t {
            fn counters(&self) -> crate::events::SwitchCounters {
                self.$($ctl).+.counters
            }
            fn is_quiescent(&self) -> bool {
                <$t>::is_quiescent(self)
            }
            fn occupancy(&self) -> usize {
                <$t>::occupancy(self)
            }
            fn packet_words(&self) -> usize {
                <$t>::packet_words(self)
            }
            fn attach_probe(&mut self, probe: telemetry::ProbeHandle) {
                self.$($ctl).+.attach_probe(probe);
            }
            fn recovery_report(&self) -> crate::recovery::RecoveryReport {
                self.$($ctl).+.recovery_report()
            }
        }
    };
}
pub(crate) use switch;

/// [`switch!`] plus the [`WordSwitch`] impl. Invoked once in each
/// word-level organization's module.
macro_rules! word_switch {
    ($t:ty, $($ctl:ident).+) => {
        crate::word::switch!($t, $($ctl).+);

        impl crate::word::WordSwitch for $t {
            fn tick(&mut self, wire_in: &[Option<u64>]) -> &[Option<u64>] {
                <$t>::tick(self, wire_in)
            }
            fn is_degraded(&self) -> bool {
                <$t>::is_degraded(self)
            }
            fn spares_remaining(&self) -> usize {
                <$t>::spares_remaining(self)
            }
            fn recovery_windows(&self) -> &crate::recovery::RecoveryWindows {
                self.$($ctl).+.recovery_windows()
            }
            fn inject_upset(&mut self, slot: usize, word: usize, mask: u64) -> bool {
                <$t>::inject_upset(self, slot, word, mask)
            }
        }
    };
}
pub(crate) use word_switch;

/// The three word-level memory organizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WordOrg {
    /// Pipelined memory (§3, the paper's design).
    Pipelined,
    /// One wide memory with double buffering and a bypass crossbar (fig. 3).
    Wide,
    /// Interleaved one-packet-per-bank memory (fig. 4), store-and-forward.
    Interleaved,
}

impl WordOrg {
    /// All organizations, in reporting order.
    pub const ALL: [WordOrg; 3] = [WordOrg::Pipelined, WordOrg::Wide, WordOrg::Interleaved];

    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            WordOrg::Pipelined => "pipelined",
            WordOrg::Wide => "wide",
            WordOrg::Interleaved => "interleaved",
        }
    }

    /// An `n × n` switch of this organization with `slots` packet slots
    /// and otherwise paper-default configuration.
    pub fn build(
        &self,
        n: usize,
        slots: usize,
        recovery: RecoveryConfig,
        policy: PolicyKind,
    ) -> Box<dyn WordSwitch> {
        match self {
            WordOrg::Pipelined => Box::new(PipelinedSwitch::new(
                SwitchConfig::symmetric(n, slots)
                    .with_recovery(recovery)
                    .with_policy(policy),
            )),
            WordOrg::Wide => Box::new(WideMemorySwitchRtl::new(
                WideSwitchConfig::fig3(n, slots)
                    .with_recovery(recovery)
                    .with_policy(policy),
            )),
            WordOrg::Interleaved => Box::new(InterleavedSwitch::new(
                InterleavedSwitchConfig::symmetric(n, slots)
                    .with_recovery(recovery)
                    .with_policy(policy),
            )),
        }
    }
}

impl std::fmt::Display for WordOrg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
pub(crate) mod testkit {
    use super::WordSwitch;
    use crate::rtl::{DeliveredPacket, OutputCollector};
    use simkernel::cell::Packet;
    use simkernel::SplitMix64;

    /// Drive the `n × n` switch `sw` with `cycles` of uniform traffic, a
    /// packet starting on every idle input with probability ½, and drain
    /// it: what was delivered, and the quiescent switch.
    pub(crate) fn random_traffic<S: WordSwitch>(
        mut sw: S,
        n: usize,
        seed: u64,
        cycles: u64,
    ) -> (Vec<DeliveredPacket>, S) {
        let s = sw.packet_words();
        let mut col = OutputCollector::new(n, s);
        let mut rng = SplitMix64::new(seed);
        let mut current: Vec<Option<(Packet, usize)>> = vec![None; n];
        let mut wire = vec![None; n];
        let mut next_id = 1u64;
        loop {
            let now = sw.now();
            let feeding = now < cycles;
            if !feeding && current.iter().all(Option::is_none) && sw.is_quiescent() {
                break;
            }
            assert!(now < cycles + 5_000, "failed to drain");
            for i in 0..n {
                if feeding && current[i].is_none() && rng.chance(0.5) {
                    let p = Packet::synth(next_id, i, rng.below_usize(n), s, now);
                    next_id += 1;
                    current[i] = Some((p, 0));
                }
                wire[i] = None;
                if let Some((p, k)) = current[i].as_mut() {
                    wire[i] = Some(p.words[*k]);
                    *k += 1;
                    if *k == s {
                        current[i] = None;
                    }
                }
            }
            col.observe(now, sw.tick(&wire));
        }
        (col.take(), sw)
    }
}
