//! Buffer-sharing (admission/preemption) policies for the shared buffer.
//!
//! The paper keeps buffer management orthogonal to the pipelined memory
//! (§3.3), which makes the admission decision a clean seam: *whether* an
//! arriving packet gets a slot is independent of *how* words travel
//! through the banks. This module hosts that seam as one [`PolicyEngine`]
//! whose [`PolicyEngine::admit`] is one `match` on [`PolicyKind`], over
//! the policies of the shared-buffer lineage:
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
//!   arrivals whose queue is under its fair share (`qlen · outputs ≤ occ`)
//!   are admitted; at full, under-fair-share arrivals preempt from the
//!   longest queue.
//! * **BShare-style delay threshold** — admission keyed to the measured
//!   per-output *queueing delay* (birth-to-read latency of the packet
//!   most recently read for that output) instead of queue length.
//!
//! Adding a policy is one [`PolicyKind`] variant, one
//! [`PolicyKind::token`] and one [`PolicyEngine::admit`] arm.
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

    /// The inverse of [`PolicyKind::token`] over
    /// [`PolicyKind::all_default`]: parameters take their defaults.
    /// `None` for any other string.
    pub fn parse(s: &str) -> Option<PolicyKind> {
        PolicyKind::all_default()
            .into_iter()
            .find(|kind| kind.token() == s)
    }

    /// Build the runnable engine for a switch with `n_out` outputs and
    /// `stages` words per packet.
    pub fn engine(self, n_out: usize, stages: usize) -> PolicyEngine {
        if let PolicyKind::DynamicThresholds { alpha_den, .. } = self {
            assert!(alpha_den > 0, "alpha denominator must be positive");
        }
        let last_delay = match self {
            PolicyKind::BShare => vec![0; n_out],
            _ => Vec::new(),
        };
        PolicyEngine {
            kind: self,
            delay_bound: 2 * stages as Cycle,
            last_delay,
        }
    }
}

/// The runnable policy a model embeds: its [`PolicyKind`] plus the one
/// piece of state any policy keeps, BShare's per-output delay signal.
/// No allocation for the other four kinds, no dynamic dispatch ever.
#[derive(Debug, Clone)]
pub struct PolicyEngine {
    kind: PolicyKind,
    /// BShare's bound on the birth-to-read delay, in cycles.
    delay_bound: Cycle,
    /// BShare's last observed birth-to-read delay per output (empty for
    /// every other kind).
    last_delay: Vec<Cycle>,
}

impl PolicyEngine {
    /// Decide whether the arriving packet (bound for `view.dst`) may
    /// take a slot, and at whose expense.
    pub fn admit(&self, view: &PolicyView<'_>) -> AdmitDecision {
        match self.kind {
            // Admit iff a free slot exists (the pre-policy behavior).
            PolicyKind::Static => {
                if view.occupancy < view.capacity {
                    AdmitDecision::Accept
                } else {
                    AdmitDecision::Reject
                }
            }
            // Admit iff `qlen(dst) < α · free`, in exact integer math.
            PolicyKind::DynamicThresholds {
                alpha_num,
                alpha_den,
            } => {
                if view.occupancy >= view.capacity {
                    return AdmitDecision::Reject;
                }
                let free = (view.capacity - view.occupancy) as u64;
                let qlen = view.qlens[view.dst] as u64;
                if qlen * u64::from(alpha_den) < u64::from(alpha_num) * free {
                    AdmitDecision::Accept
                } else {
                    AdmitDecision::Reject
                }
            }
            // Admit freely while slots remain; at full, evict from the
            // longest queue to make room.
            PolicyKind::PushOut => {
                if view.occupancy < view.capacity {
                    AdmitDecision::Accept
                } else {
                    preempt_longest(view.qlens)
                }
            }
            // Watermark at ⅞ capacity, fair-share admission above it,
            // preemption at full for under-share arrivals.
            PolicyKind::Occamy => {
                let hi = occamy_watermark(view.capacity);
                if view.occupancy < hi {
                    return AdmitDecision::Accept;
                }
                // At or above the watermark: only under-fair-share queues grow.
                let under_share = view.qlens[view.dst] * view.qlens.len() <= view.occupancy;
                if view.occupancy < view.capacity {
                    if under_share {
                        AdmitDecision::Accept
                    } else {
                        AdmitDecision::Reject
                    }
                } else if under_share {
                    preempt_longest(view.qlens)
                } else {
                    AdmitDecision::Reject
                }
            }
            // Admit while the destination's last birth-to-read delay
            // stays within the bound; an empty queue always admits.
            PolicyKind::BShare => {
                if view.occupancy >= view.capacity {
                    return AdmitDecision::Reject;
                }
                if view.qlens[view.dst] == 0 || self.last_delay[view.dst] <= self.delay_bound {
                    AdmitDecision::Accept
                } else {
                    AdmitDecision::Reject
                }
            }
        }
    }

    /// Observe a read initiation for `output` whose packet waited
    /// `delay` cycles from header arrival to read start (the BShare
    /// queueing-delay signal; a no-op for every other kind).
    pub fn on_read(&mut self, output: usize, delay: Cycle) {
        if self.kind == PolicyKind::BShare {
            self.last_delay[output] = delay;
        }
    }

    /// True for the static pool — models guard their original (bit-exact,
    /// branch-predictable) admission code with this.
    #[inline]
    pub fn is_static(&self) -> bool {
        self.kind.is_static()
    }

    /// The config-level kind this engine runs.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }
}

/// Evict from the longest queue, or refuse when every queue is empty.
fn preempt_longest(qlens: &[usize]) -> AdmitDecision {
    match longest_queue(qlens) {
        Some(victim) => AdmitDecision::Preempt { victim },
        None => AdmitDecision::Reject,
    }
}

/// The longest non-empty queue, ties broken toward the lowest output
/// index. `None` when every queue is empty (nothing to evict).
fn longest_queue(qlens: &[usize]) -> Option<usize> {
    let (mut best, mut best_len) = (None, 0usize);
    for (j, &len) in qlens.iter().enumerate() {
        if len > best_len {
            best = Some(j);
            best_len = len;
        }
    }
    best
}

/// Occamy's high watermark: capacity minus a reserve of `max(1, cap/8)`,
/// floored at 0 (recovery can retire every slot).
fn occamy_watermark(capacity: usize) -> usize {
    capacity.saturating_sub((capacity / 8).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(occ: usize, cap: usize, dst: usize, qlens: &'a [usize]) -> PolicyView<'a> {
        PolicyView {
            occupancy: occ,
            capacity: cap,
            dst,
            qlens,
        }
    }

    #[test]
    fn static_pool_matches_free_slot_check() {
        let p = PolicyKind::Static.engine(2, 8);
        assert_eq!(p.admit(&view(7, 8, 0, &[7, 0])), AdmitDecision::Accept);
        assert_eq!(p.admit(&view(8, 8, 1, &[8, 0])), AdmitDecision::Reject);
    }

    #[test]
    fn dynamic_thresholds_caps_the_hot_queue() {
        // α = 1.
        let p = PolicyKind::dynamic_thresholds().engine(2, 8);
        // 8 slots, 5 used, hot queue holds all 5: 5 < 3 fails → reject.
        assert_eq!(p.admit(&view(5, 8, 0, &[5, 0])), AdmitDecision::Reject);
        // Same occupancy, cold queue: 0 < 3 → accept.
        assert_eq!(p.admit(&view(5, 8, 1, &[5, 0])), AdmitDecision::Accept);
        // Early on the hot queue may still grow: 1 < 7.
        assert_eq!(p.admit(&view(1, 8, 0, &[1, 0])), AdmitDecision::Accept);
    }

    #[test]
    fn push_out_evicts_longest_queue_only_at_full() {
        let p = PolicyKind::PushOut.engine(2, 8);
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
        let p = PolicyKind::Occamy.engine(2, 8);
        // cap 16 → watermark 14.
        assert_eq!(occamy_watermark(16), 14);
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
        // 4-word packets: the bound is two packet times, 8 cycles.
        let mut p = PolicyKind::BShare.engine(2, 4);
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
    fn every_kind_rejects_at_zero_capacity() {
        // Recovery can retire every slot; nothing may be admitted then.
        for kind in PolicyKind::all_default() {
            let p = kind.engine(2, 8);
            assert_eq!(
                p.admit(&view(0, 0, 0, &[0, 0])),
                AdmitDecision::Reject,
                "{kind:?}"
            );
        }
        assert_eq!(occamy_watermark(0), 0);
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
