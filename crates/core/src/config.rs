//! Switch configuration and validation.

use crate::arbiter::ArbiterPolicy;
use crate::policy::PolicyKind;
use crate::recovery::RecoveryConfig;

/// Datapath-integrity machinery of the switch (the detect-and-survive
/// hardening exercised by the fault-injection campaigns).
///
/// Real switch silicon ships with per-word parity/ECC on its buffer
/// memory and CRCs on its links; the Telegraphos context (§4) makes bank
/// upsets, link bit-errors and credit loss concrete failure modes. This
/// block models the *detection* side of that machinery at word level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityConfig {
    /// Compute a per-slot checksum over the packet's words at ingress and
    /// re-verify it when a read wave is about to initiate on a fully
    /// written slot (models a parity/ECC scrub). Mismatching packets are
    /// dropped and counted in `corrupt_drops` — detect-and-drop. The
    /// check is payload-agnostic, so it is safe for rewritten (VC)
    /// headers. Only store-and-forward reads can be checked: a
    /// cut-through read starts before the slot is fully written.
    pub checksum: bool,
    /// Verify every delivered word against the synthetic payload rule at
    /// egress (models the link CRC a real switch appends). Failures are
    /// counted in `corrupt_delivered` — the words are already on the
    /// wire. Off by default: it assumes `Packet::synth` payloads, which
    /// VC-translated traffic does not carry.
    pub payload_check: bool,
    /// Survive malformed input instead of panicking: a header addressing
    /// nonexistent outputs or a link idling mid-packet becomes a counted
    /// `corrupt_drops` event. Off by default — in testbench mode such
    /// inputs are model bugs and must fail loudly.
    pub harden: bool,
}

impl Default for IntegrityConfig {
    fn default() -> Self {
        IntegrityConfig {
            checksum: true,
            payload_check: false,
            harden: false,
        }
    }
}

/// Configuration of a pipelined-memory shared-buffer switch.
///
/// Defaults follow the paper: read-priority arbitration, cut-through
/// enabled, packet size equal to the quantum (`n_in + n_out` words).
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// Number of incoming links.
    pub n_in: usize,
    /// Number of outgoing links.
    pub n_out: usize,
    /// Packet slots per memory bank (buffer capacity in packets).
    pub slots: usize,
    /// Link word width in bits (1..=64; Telegraphos III uses 16).
    pub word_bits: u32,
    /// Enable automatic cut-through (§3.3). When off, a read wave may only
    /// initiate after the packet's write wave has completed
    /// (store-and-forward), costing `stages` extra cycles of latency.
    pub cut_through: bool,
    /// Allow a read wave to fuse with the write wave of the same packet in
    /// the same cycle (output register samples the write bus). Only
    /// meaningful when `cut_through` is on.
    pub fused_cut_through: bool,
    /// Wave arbitration policy (paper: read priority).
    pub arbiter: ArbiterPolicy,
    /// Datapath-integrity machinery (checksum scrub, egress payload
    /// check, hardened framing).
    pub integrity: IntegrityConfig,
    /// Fault-recovery machinery (ECC correction, spare-bank failover,
    /// degraded-mode admission). Disabled by default — and zero-cost on
    /// the datapath when disabled, which the perf gate enforces.
    pub recovery: RecoveryConfig,
    /// Buffer-sharing policy governing slot admission/preemption
    /// (DESIGN.md §12). The static pool is the default and is held
    /// bit-exact with (and as fast as) the pre-policy admission code.
    pub policy: PolicyKind,
}

impl SwitchConfig {
    /// A symmetric `n × n` switch with `slots` packet slots, paper-default
    /// policies.
    pub fn symmetric(n: usize, slots: usize) -> Self {
        SwitchConfig {
            n_in: n,
            n_out: n,
            slots,
            word_bits: 16,
            cut_through: true,
            fused_cut_through: true,
            arbiter: ArbiterPolicy::ReadPriority,
            integrity: IntegrityConfig::default(),
            recovery: RecoveryConfig::default(),
            policy: PolicyKind::Static,
        }
    }

    /// The same configuration with the given recovery policy armed.
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = recovery;
        self
    }

    /// The same configuration with the given buffer-sharing policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// The Telegraphos III configuration (§4.4): 8×8, 16 stages, 256
    /// packet slots of 256 bits (16 words × 16 bits).
    pub fn telegraphos_iii() -> Self {
        SwitchConfig::symmetric(8, 256)
    }

    /// The Telegraphos I/II configuration (§4.1–4.2): 4×4, 8 stages.
    /// Telegraphos I buffers 8-byte packets in 8 SRAM chips (8-bit words);
    /// Telegraphos II 16-byte packets in 8 compiled SRAMs (16-bit words,
    /// 256 slots).
    pub fn telegraphos_i() -> Self {
        let mut c = SwitchConfig::symmetric(4, 256);
        c.word_bits = 8;
        c
    }

    /// Number of pipeline stages = packet size in words (the quantum).
    pub fn stages(&self) -> usize {
        self.n_in + self.n_out
    }

    /// Validate; panics with a descriptive message on nonsense.
    pub fn validate(&self) {
        assert!(self.n_in >= 1, "need at least one input");
        assert!(self.n_out >= 1, "need at least one output");
        assert!(
            self.n_out <= 32,
            "destination sets are 32-bit masks (packet header, descriptor, \
             cell-level arrivals): at most 32 outputs, not {}",
            self.n_out
        );
        assert!(self.slots >= 1, "need at least one buffer slot");
        assert!(
            (1..=64).contains(&self.word_bits),
            "word width must be 1..=64 bits"
        );
        if self.fused_cut_through {
            assert!(self.cut_through, "fused cut-through requires cut-through");
        }
        if self.recovery.failover_threshold > 0 {
            assert!(
                self.recovery.ecc,
                "failover requires ECC: corrections drive the threshold"
            );
        }
    }

    /// Aggregate buffer capacity in bits.
    pub fn capacity_bits(&self) -> u64 {
        (self.stages() * self.slots) as u64 * self.word_bits as u64
    }

    /// Aggregate buffer throughput in bits per cycle (all banks busy):
    /// `stages × word_bits`, the "total width of the shared buffer" of
    /// §3.5.
    pub fn throughput_bits_per_cycle(&self) -> u64 {
        self.stages() as u64 * self.word_bits as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_defaults() {
        let c = SwitchConfig::symmetric(4, 64);
        c.validate();
        assert_eq!(c.stages(), 8);
        assert!(c.cut_through && c.fused_cut_through);
        assert_eq!(c.arbiter, ArbiterPolicy::ReadPriority);
        assert!(c.integrity.checksum, "checksum scrub on by default");
        assert!(!c.integrity.payload_check, "egress check is opt-in");
        assert!(!c.integrity.harden, "testbench mode panics on bad input");
    }

    #[test]
    fn telegraphos_iii_capacity_is_64_kbit() {
        let c = SwitchConfig::telegraphos_iii();
        c.validate();
        assert_eq!(c.stages(), 16);
        assert_eq!(c.capacity_bits(), 65_536, "the paper's 64 Kbit buffer");
        assert_eq!(c.throughput_bits_per_cycle(), 256);
    }

    #[test]
    #[should_panic(expected = "fused cut-through requires cut-through")]
    fn fused_without_cut_through_rejected() {
        let mut c = SwitchConfig::symmetric(2, 4);
        c.cut_through = false;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at most 32 outputs")]
    fn more_than_32_outputs_rejected() {
        // Output 35 of 40 would shift past a `u32` destination mask: the
        // behavioral model re-routed it to output 3 in release builds.
        let mut c = SwitchConfig::symmetric(4, 4);
        c.n_out = 40;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn zero_inputs_rejected() {
        let mut c = SwitchConfig::symmetric(2, 4);
        c.n_in = 0;
        c.validate();
    }
}
