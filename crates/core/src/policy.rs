//! Buffer-sharing (admission/preemption) policies for the shared buffer.
//!
//! The paper keeps buffer management orthogonal to the pipelined memory
//! (§3.3), which makes the admission decision a clean seam: *whether* an
//! arriving packet gets a slot is independent of *how* words travel
//! through the banks. This module hosts that seam as the [`SharingPolicy`]
//! trait plus the concrete policies of the shared-buffer lineage:
//!
//! * **Static pool** — today's behavior: admit iff a free slot exists.
//!   The zero-cost default; models keep their original admission code
//!   behind an [`PolicyEngine::is_static`] guard so the static path is
//!   bit-exact with (and as fast as) the pre-policy code.
//! * **Dynamic Thresholds** (Choudhury–Hahne) — a queue may only grow
//!   while its length is below `α ·` (free slots). The hot queue of an
//!   incast self-limits, leaving headroom for victim flows.
//! * **Push-out** — when the buffer is full, the arriving packet evicts
//!   the rearmost evictable packet of the longest queue.
//! * **Occamy-style preemptive drop** — a high watermark (⅞ capacity)
//!   below which everything is admitted; between watermark and full only
//!   arrivals whose queue is under its fair share (`qlen · n_out ≤ occ`)
//!   are admitted; at full, under-fair-share arrivals preempt from the
//!   longest queue.
//! * **BShare-style delay threshold** — admission keyed to the measured
//!   per-output *queueing delay* (birth-to-read latency of the packet
//!   most recently read for that output) instead of queue length.
//!
//! All decisions are deterministic integer math over the same
//! [`PolicyView`], so the word-level RTL model and the cell-level
//! behavioral model make identical decisions cycle by cycle — the
//! conformance oracle holds them to that.

use simkernel::ids::Cycle;

/// Everything a policy may look at when deciding one admission.
///
/// Models materialize this from their own bookkeeping (free-list length,
/// live queue lengths). `qlens` must count only *live* queued packets —
/// stale generation-tagged entries excluded — so all models agree.
#[derive(Debug, Clone, Copy)]
pub struct PolicyView<'a> {
    /// Slots currently allocated.
    pub occupancy: usize,
    /// Total slots (degraded-mode capacity when recovery shrank it).
    pub capacity: usize,
    /// Number of output links.
    pub n_out: usize,
    /// Primary destination output of the arriving packet.
    pub dst: usize,
    /// Live queue length per output, indexed by output link.
    pub qlens: &'a [usize],
}

/// The outcome of one admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitDecision {
    /// Take a free slot.
    Accept,
    /// Refuse the arrival (a declared policy drop — or, under the static
    /// pool, the classic buffer-full drop).
    Reject,
    /// Admit by evicting the rearmost *evictable* packet of output queue
    /// `victim`. The model applies its own evictability rule (a packet
    /// whose write has fully retired and which no read wave has begun
    /// transmitting); if the victim queue holds no evictable packet, the
    /// model must treat this as [`AdmitDecision::Reject`].
    Preempt {
        /// Output queue to evict from.
        victim: usize,
    },
}

/// A pluggable buffer-sharing policy: the admission decision plus the
/// observation hooks that feed it.
///
/// Hooks default to no-ops so stateless policies stay zero-cost; only
/// [`BShare`] carries state (the per-output delay signal fed by
/// [`SharingPolicy::on_read`]).
pub trait SharingPolicy {
    /// Decide whether the arriving packet (bound for `view.dst`) may
    /// take a slot, and at whose expense.
    fn admit(&self, view: &PolicyView<'_>) -> AdmitDecision;

    /// Choose an eviction victim: the longest queue, ties to the lowest
    /// output index. Policies needing a different victim rule override.
    fn preempt(&self, view: &PolicyView<'_>) -> Option<usize> {
        longest_queue(view.qlens)
    }

    /// Observe a read initiation for `output` whose packet waited
    /// `delay` cycles from header arrival to read start (the BShare
    /// queueing-delay signal).
    fn on_read(&mut self, output: usize, delay: Cycle) {
        let _ = (output, delay);
    }
}

/// The longest non-empty queue, ties broken toward the lowest output
/// index. `None` when every queue is empty (nothing to evict).
pub fn longest_queue(qlens: &[usize]) -> Option<usize> {
    let (mut best, mut best_len) = (None, 0usize);
    for (j, &len) in qlens.iter().enumerate() {
        if len > best_len {
            best = Some(j);
            best_len = len;
        }
    }
    best
}

/// Static pool: admit iff a free slot exists (the pre-policy behavior).
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticPool;

impl SharingPolicy for StaticPool {
    fn admit(&self, view: &PolicyView<'_>) -> AdmitDecision {
        if view.occupancy < view.capacity {
            AdmitDecision::Accept
        } else {
            AdmitDecision::Reject
        }
    }
}

/// Dynamic Thresholds: admit iff `qlen(dst) < α · free`, with
/// `α = alpha_num / alpha_den` in exact integer arithmetic.
#[derive(Debug, Clone, Copy)]
pub struct DynamicThresholds {
    /// Numerator of α.
    pub alpha_num: u64,
    /// Denominator of α.
    pub alpha_den: u64,
}

impl Default for DynamicThresholds {
    fn default() -> Self {
        DynamicThresholds {
            alpha_num: 1,
            alpha_den: 1,
        }
    }
}

impl SharingPolicy for DynamicThresholds {
    fn admit(&self, view: &PolicyView<'_>) -> AdmitDecision {
        if view.occupancy >= view.capacity {
            return AdmitDecision::Reject;
        }
        let free = (view.capacity - view.occupancy) as u64;
        let qlen = view.qlens[view.dst] as u64;
        if qlen * self.alpha_den < self.alpha_num * free {
            AdmitDecision::Accept
        } else {
            AdmitDecision::Reject
        }
    }
}

/// Push-out: admit freely while slots remain; at full, evict from the
/// longest queue to make room.
#[derive(Debug, Clone, Copy, Default)]
pub struct PushOut;

impl SharingPolicy for PushOut {
    fn admit(&self, view: &PolicyView<'_>) -> AdmitDecision {
        if view.occupancy < view.capacity {
            AdmitDecision::Accept
        } else {
            match self.preempt(view) {
                Some(victim) => AdmitDecision::Preempt { victim },
                None => AdmitDecision::Reject,
            }
        }
    }
}

/// Occamy-style preemptive drop: watermark at ⅞ capacity, fair-share
/// admission above it, preemption at full for under-share arrivals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Occamy;

impl Occamy {
    /// The high watermark: capacity minus a reserve of `max(1, cap/8)`.
    pub fn watermark(capacity: usize) -> usize {
        capacity - (capacity / 8).max(1)
    }
}

impl SharingPolicy for Occamy {
    fn admit(&self, view: &PolicyView<'_>) -> AdmitDecision {
        let hi = Self::watermark(view.capacity);
        if view.occupancy < hi {
            return AdmitDecision::Accept;
        }
        // At or above the watermark: only under-fair-share queues grow.
        let under_share = view.qlens[view.dst] * view.n_out <= view.occupancy;
        if view.occupancy < view.capacity {
            if under_share {
                AdmitDecision::Accept
            } else {
                AdmitDecision::Reject
            }
        } else if under_share {
            match self.preempt(view) {
                Some(victim) => AdmitDecision::Preempt { victim },
                None => AdmitDecision::Reject,
            }
        } else {
            AdmitDecision::Reject
        }
    }
}

/// BShare-style delay threshold: admit while the destination's measured
/// queueing delay (birth-to-read latency of its most recently read
/// packet) stays within `delay_bound`; an empty queue always admits.
#[derive(Debug, Clone)]
pub struct BShare {
    /// Maximum tolerated birth-to-read delay, in cycles.
    pub delay_bound: Cycle,
    /// Last observed birth-to-read delay per output.
    last_delay: Vec<Cycle>,
}

impl BShare {
    /// A BShare policy for `n_out` outputs with the given delay bound.
    pub fn new(delay_bound: Cycle, n_out: usize) -> Self {
        BShare {
            delay_bound,
            last_delay: vec![0; n_out],
        }
    }

    /// The current delay signal for one output.
    pub fn last_delay(&self, output: usize) -> Cycle {
        self.last_delay[output]
    }
}

impl SharingPolicy for BShare {
    fn admit(&self, view: &PolicyView<'_>) -> AdmitDecision {
        if view.occupancy >= view.capacity {
            return AdmitDecision::Reject;
        }
        if view.qlens[view.dst] == 0 || self.last_delay[view.dst] <= self.delay_bound {
            AdmitDecision::Accept
        } else {
            AdmitDecision::Reject
        }
    }

    fn on_read(&mut self, output: usize, delay: Cycle) {
        self.last_delay[output] = delay;
    }
}

/// Configuration-level selector for a sharing policy. `Copy`, cheap to
/// embed in every switch config; [`PolicyKind::engine`] builds the
/// stateful [`PolicyEngine`] a model runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// Static pool (the pre-policy behavior; the only policy whose
    /// admission path is exercised in the dense fast paths).
    #[default]
    Static,
    /// Dynamic Thresholds with `α = alpha_num / alpha_den`.
    DynamicThresholds {
        /// Numerator of α.
        alpha_num: u32,
        /// Denominator of α.
        alpha_den: u32,
    },
    /// Push-out at full buffer.
    PushOut,
    /// Occamy-style watermark + fair share + preemptive drop.
    Occamy,
    /// BShare-style queueing-delay threshold (bound = 2 packet times,
    /// i.e. `2 · stages` cycles, derived at engine construction).
    BShare,
}

impl PolicyKind {
    /// Dynamic Thresholds with the default α = 1.
    pub fn dynamic_thresholds() -> Self {
        PolicyKind::DynamicThresholds {
            alpha_num: 1,
            alpha_den: 1,
        }
    }

    /// The five policies with default parameters, in campaign order.
    pub fn all_default() -> [PolicyKind; 5] {
        [
            PolicyKind::Static,
            PolicyKind::dynamic_thresholds(),
            PolicyKind::PushOut,
            PolicyKind::Occamy,
            PolicyKind::BShare,
        ]
    }

    /// True for the zero-cost static pool.
    #[inline]
    pub fn is_static(self) -> bool {
        matches!(self, PolicyKind::Static)
    }

    /// Short stable token, also accepted by [`PolicyKind::parse`]
    /// (reproducers and the `--policy` CLI filter use it).
    pub fn token(self) -> &'static str {
        match self {
            PolicyKind::Static => "static",
            PolicyKind::DynamicThresholds { .. } => "dt",
            PolicyKind::PushOut => "pushout",
            PolicyKind::Occamy => "occamy",
            PolicyKind::BShare => "bshare",
        }
    }

    /// Human-facing label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Static => "static",
            PolicyKind::DynamicThresholds { .. } => "dyn-thresh",
            PolicyKind::PushOut => "push-out",
            PolicyKind::Occamy => "occamy",
            PolicyKind::BShare => "bshare",
        }
    }

    /// Parse a token (as produced by [`PolicyKind::token`]); parameters
    /// take their defaults. `None` for unknown tokens.
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s {
            "static" => Some(PolicyKind::Static),
            "dt" | "dyn-thresh" | "dynamic" => Some(PolicyKind::dynamic_thresholds()),
            "pushout" | "push-out" => Some(PolicyKind::PushOut),
            "occamy" => Some(PolicyKind::Occamy),
            "bshare" => Some(PolicyKind::BShare),
            _ => None,
        }
    }

    /// Build the runnable engine for a switch with `n_out` outputs and
    /// `stages` words per packet.
    pub fn engine(self, n_out: usize, stages: usize) -> PolicyEngine {
        match self {
            PolicyKind::Static => PolicyEngine::Static(StaticPool),
            PolicyKind::DynamicThresholds {
                alpha_num,
                alpha_den,
            } => {
                assert!(alpha_den > 0, "alpha denominator must be positive");
                PolicyEngine::Dt(DynamicThresholds {
                    alpha_num: alpha_num as u64,
                    alpha_den: alpha_den as u64,
                })
            }
            PolicyKind::PushOut => PolicyEngine::PushOut(PushOut),
            PolicyKind::Occamy => PolicyEngine::Occamy(Occamy),
            PolicyKind::BShare => PolicyEngine::BShare(BShare::new(2 * stages as Cycle, n_out)),
        }
    }
}

/// Statically-dispatched bundle of the concrete policies — what a model
/// embeds. No allocation on the static path, no dynamic dispatch ever.
#[derive(Debug, Clone)]
pub enum PolicyEngine {
    /// Static pool.
    Static(StaticPool),
    /// Dynamic Thresholds.
    Dt(DynamicThresholds),
    /// Push-out.
    PushOut(PushOut),
    /// Occamy preemptive drop.
    Occamy(Occamy),
    /// BShare delay threshold.
    BShare(BShare),
}

impl PolicyEngine {
    /// True for the static pool — models guard their original (bit-exact,
    /// branch-predictable) admission code with this.
    #[inline]
    pub fn is_static(&self) -> bool {
        matches!(self, PolicyEngine::Static(_))
    }

    /// The config-level kind this engine runs.
    pub fn kind(&self) -> PolicyKind {
        match self {
            PolicyEngine::Static(_) => PolicyKind::Static,
            PolicyEngine::Dt(p) => PolicyKind::DynamicThresholds {
                alpha_num: p.alpha_num as u32,
                alpha_den: p.alpha_den as u32,
            },
            PolicyEngine::PushOut(_) => PolicyKind::PushOut,
            PolicyEngine::Occamy(_) => PolicyKind::Occamy,
            PolicyEngine::BShare(_) => PolicyKind::BShare,
        }
    }
}

impl SharingPolicy for PolicyEngine {
    fn admit(&self, view: &PolicyView<'_>) -> AdmitDecision {
        match self {
            PolicyEngine::Static(p) => p.admit(view),
            PolicyEngine::Dt(p) => p.admit(view),
            PolicyEngine::PushOut(p) => p.admit(view),
            PolicyEngine::Occamy(p) => p.admit(view),
            PolicyEngine::BShare(p) => p.admit(view),
        }
    }

    fn preempt(&self, view: &PolicyView<'_>) -> Option<usize> {
        match self {
            PolicyEngine::Static(p) => p.preempt(view),
            PolicyEngine::Dt(p) => p.preempt(view),
            PolicyEngine::PushOut(p) => p.preempt(view),
            PolicyEngine::Occamy(p) => p.preempt(view),
            PolicyEngine::BShare(p) => p.preempt(view),
        }
    }

    fn on_read(&mut self, output: usize, delay: Cycle) {
        if let PolicyEngine::BShare(p) = self {
            p.on_read(output, delay);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(occ: usize, cap: usize, dst: usize, qlens: &'a [usize]) -> PolicyView<'a> {
        PolicyView {
            occupancy: occ,
            capacity: cap,
            n_out: qlens.len(),
            dst,
            qlens,
        }
    }

    #[test]
    fn static_pool_matches_free_slot_check() {
        let p = StaticPool;
        assert_eq!(p.admit(&view(7, 8, 0, &[7, 0])), AdmitDecision::Accept);
        assert_eq!(p.admit(&view(8, 8, 1, &[8, 0])), AdmitDecision::Reject);
    }

    #[test]
    fn dynamic_thresholds_caps_the_hot_queue() {
        let p = DynamicThresholds::default(); // α = 1
                                              // 8 slots, 5 used, hot queue holds all 5: 5 < 3 fails → reject.
        assert_eq!(p.admit(&view(5, 8, 0, &[5, 0])), AdmitDecision::Reject);
        // Same occupancy, cold queue: 0 < 3 → accept.
        assert_eq!(p.admit(&view(5, 8, 1, &[5, 0])), AdmitDecision::Accept);
        // Early on the hot queue may still grow: 1 < 7.
        assert_eq!(p.admit(&view(1, 8, 0, &[1, 0])), AdmitDecision::Accept);
    }

    #[test]
    fn push_out_evicts_longest_queue_only_at_full() {
        let p = PushOut;
        assert_eq!(p.admit(&view(7, 8, 1, &[6, 1])), AdmitDecision::Accept);
        assert_eq!(
            p.admit(&view(8, 8, 1, &[6, 2])),
            AdmitDecision::Preempt { victim: 0 }
        );
        // Tie between queues 0 and 1 → lowest index.
        assert_eq!(
            p.admit(&view(8, 8, 1, &[4, 4])),
            AdmitDecision::Preempt { victim: 0 }
        );
        // Nothing queued anywhere (all slots mid-write) → reject.
        assert_eq!(p.admit(&view(8, 8, 1, &[0, 0])), AdmitDecision::Reject);
    }

    #[test]
    fn occamy_watermark_and_fair_share() {
        let p = Occamy;
        // cap 16 → watermark 14.
        assert_eq!(Occamy::watermark(16), 14);
        assert_eq!(p.admit(&view(13, 16, 0, &[13, 0])), AdmitDecision::Accept);
        // Above watermark, hot queue over fair share (14·2 > 14): reject.
        assert_eq!(p.admit(&view(14, 16, 0, &[14, 0])), AdmitDecision::Reject);
        // Above watermark, cold queue under share: accept.
        assert_eq!(p.admit(&view(14, 16, 1, &[14, 0])), AdmitDecision::Accept);
        // Full, cold arrival under share → preempt hot queue.
        assert_eq!(
            p.admit(&view(16, 16, 1, &[15, 1])),
            AdmitDecision::Preempt { victim: 0 }
        );
        // Full, hot arrival over share → reject.
        assert_eq!(p.admit(&view(16, 16, 0, &[15, 1])), AdmitDecision::Reject);
    }

    #[test]
    fn bshare_delay_signal_gates_admission() {
        let mut p = BShare::new(8, 2);
        // No delay observed yet → admit.
        assert_eq!(p.admit(&view(4, 8, 0, &[4, 0])), AdmitDecision::Accept);
        p.on_read(0, 20); // measured delay above the bound
        assert_eq!(p.admit(&view(4, 8, 0, &[4, 0])), AdmitDecision::Reject);
        // Empty queue admits regardless of the stale signal.
        assert_eq!(p.admit(&view(4, 8, 0, &[0, 4])), AdmitDecision::Accept);
        p.on_read(0, 3); // congestion cleared
        assert_eq!(p.admit(&view(4, 8, 0, &[4, 0])), AdmitDecision::Accept);
        // Full is still full.
        assert_eq!(p.admit(&view(8, 8, 0, &[4, 4])), AdmitDecision::Reject);
    }

    #[test]
    fn tokens_round_trip_and_engine_kinds_agree() {
        for kind in PolicyKind::all_default() {
            assert_eq!(PolicyKind::parse(kind.token()), Some(kind));
            assert_eq!(kind.engine(4, 8).kind(), kind);
            assert_eq!(kind.engine(4, 8).is_static(), kind.is_static());
        }
        assert_eq!(PolicyKind::parse("nonsense"), None);
    }

    #[test]
    fn longest_queue_tie_breaks_low() {
        assert_eq!(longest_queue(&[0, 0, 0]), None);
        assert_eq!(longest_queue(&[1, 3, 3]), Some(1));
        assert_eq!(longest_queue(&[0, 0, 2]), Some(2));
    }
}
