//! The organization-independent control plane of a switch model.
//!
//! The paper keeps the bookkeeping around the shared buffer "independent
//! of the pipelined memory" (§3.3): counters, telemetry, the sharing
//! policy and the detect → correct → degrade recovery ladder are the same
//! whether the buffer is a pipelined memory, one wide memory (fig. 3),
//! interleaved banks (fig. 4) or the cell-level model that has no words
//! at all. [`ControlPlane`] is that bookkeeping, owned by composition by
//! [`WideMemorySwitchRtl`](crate::widemem::WideMemorySwitchRtl),
//! [`InterleavedSwitch`](crate::ibank::InterleavedSwitch) and the packet
//! core the two pipelined models share; the models keep their `tick`
//! datapath, their storage and their eviction rule. One method per event pairs the counter with its probe
//! emission, so a new drop reason, recovery tag or policy is one edit
//! here (DESIGN.md §14).
//!
//! With no probe attached every emitting method costs one predictable
//! branch (the perf gate holds this); all of them are `#[inline]` because
//! they sit inside the organizations' per-cycle `tick`.

use crate::events::SwitchCounters;
use crate::policy::{AdmitDecision, PolicyEngine, PolicyKind, PolicyView};
use crate::recovery::{RecoveryConfig, RecoveryReport, RecoveryWindows};
use membank::EccOutcome;
use simkernel::ids::Cycle;
use telemetry::{DropReason, GaugeKind, ProbeEvent, ProbeHandle, RecoveryTag};

/// What an arriving packet asks of the shared buffer: everything
/// [`ControlPlane::admit`] needs beyond the queues themselves.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arrival {
    /// Cycle of the decision.
    pub c: Cycle,
    /// Packet id (named in the drop event if refused).
    pub id: u64,
    /// Primary destination output.
    pub dst: usize,
    /// Slots currently allocated.
    pub occupancy: usize,
    /// Slots in circulation (shrinks in degraded mode).
    pub capacity: usize,
}

/// Counters, probe, sharing policy and recovery ledger of one switch.
#[derive(Debug)]
pub(crate) struct ControlPlane {
    pub(crate) counters: SwitchCounters,
    probe: Option<ProbeHandle>,
    /// Last gauges emitted (gauges are emitted on change, not per cycle).
    last_occ: u64,
    last_qdepth: Vec<u64>,
    policy: PolicyEngine,
    /// Cached `policy.is_static()`: the admission path branches on it
    /// once per arrival, keeping the static pool at its pre-policy cost.
    policy_static: bool,
    /// Scratch for the policy's live queue-length view (cold path;
    /// allocated by the first non-static admission).
    qlens: Vec<usize>,
    recovery: RecoveryConfig,
    /// Declared recovery outages; loss inside a window is excused by the
    /// conformance oracle, and their lengths are the chaos campaign's MTTR.
    windows: RecoveryWindows,
    /// Admission-pause cycles charged per failover.
    settle: u64,
}

impl ControlPlane {
    /// A control plane for `n_out` outputs and `packet_words`-word
    /// packets. `natural_settle` is the organization's own failover
    /// settle time, used when `recovery.degrade_window` is 0.
    #[inline] // into each model's constructor: short scenarios are construction-bound
    pub(crate) fn new(
        n_out: usize,
        packet_words: usize,
        policy: PolicyKind,
        recovery: RecoveryConfig,
        natural_settle: u64,
    ) -> Self {
        ControlPlane {
            counters: SwitchCounters::default(),
            probe: None,
            last_occ: 0,
            last_qdepth: vec![0; n_out],
            policy: policy.engine(n_out, packet_words),
            policy_static: policy.is_static(),
            qlens: Vec::new(),
            recovery,
            windows: RecoveryWindows::new(),
            settle: if recovery.degrade_window == 0 {
                natural_settle
            } else {
                recovery.degrade_window
            },
        }
    }

    pub(crate) fn attach_probe(&mut self, probe: ProbeHandle) {
        self.probe = Some(probe);
    }

    /// Is a probe attached? Guards work done only to feed the probe.
    #[inline]
    pub(crate) fn probed(&self) -> bool {
        self.probe.is_some()
    }

    /// Emit an event no counter is tied to.
    #[inline]
    pub(crate) fn emit(&self, c: Cycle, event: ProbeEvent) {
        if let Some(p) = &self.probe {
            p.emit(c, event);
        }
    }

    /// A header was accepted on `input`.
    #[inline]
    pub(crate) fn header(&mut self, c: Cycle, input: usize, id: u64, dst: usize) {
        self.counters.arrived += 1;
        self.emit(c, ProbeEvent::HeaderArrived { input, id, dst });
    }

    /// The tail word of packet `id` left on `output`.
    #[inline]
    pub(crate) fn departed(&mut self, c: Cycle, output: usize, id: u64, birth: Cycle) {
        self.counters.departed += 1;
        self.emit(
            c,
            ProbeEvent::Departed {
                output,
                id,
                birth,
                latency: c - birth,
            },
        );
    }

    /// Packet `id` left the datapath: charge the loss class `reason`
    /// belongs to and say so.
    #[inline]
    pub(crate) fn drop(&mut self, c: Cycle, id: u64, reason: DropReason) {
        let ctr = &mut self.counters;
        *match reason {
            DropReason::BufferFull => &mut ctr.dropped_buffer_full,
            DropReason::LatchOverrun => &mut ctr.latch_overruns,
            DropReason::BadHeader
            | DropReason::Truncated
            | DropReason::Checksum
            | DropReason::Payload => &mut ctr.corrupt_drops,
            DropReason::AdmissionPolicy => &mut ctr.policy_drops,
            DropReason::Preempted => &mut ctr.policy_preempts,
        } += 1;
        self.emit(c, ProbeEvent::Drop { id, reason });
    }

    #[inline]
    pub(crate) fn write_wave(&self, c: Cycle, input: usize, addr: usize) {
        self.emit(c, ProbeEvent::WriteWave { input, addr });
    }

    #[inline]
    pub(crate) fn read_wave(&self, c: Cycle, output: usize, addr: usize, fused: bool) {
        self.emit(
            c,
            ProbeEvent::ReadWave {
                output,
                addr,
                fused,
            },
        );
    }

    #[inline]
    pub(crate) fn cut_through(&self, c: Cycle, output: usize, id: u64, fused: bool) {
        self.emit(c, ProbeEvent::CutThrough { output, id, fused });
    }

    /// Buffer occupancy in packets, emitted when it changed.
    #[inline]
    pub(crate) fn gauge_occupancy(&mut self, c: Cycle, occupancy: usize) {
        let value = occupancy as u64;
        if self.probed() && value != self.last_occ {
            self.last_occ = value;
            self.emit(
                c,
                ProbeEvent::Gauge {
                    gauge: GaugeKind::Occupancy,
                    index: 0,
                    value,
                },
            );
        }
    }

    /// Depth of output queue `j`, emitted when it changed.
    #[inline]
    pub(crate) fn gauge_queue_depth(&mut self, c: Cycle, j: usize, depth: usize) {
        let value = depth as u64;
        if self.probed() && value != self.last_qdepth[j] {
            self.last_qdepth[j] = value;
            self.emit(
                c,
                ProbeEvent::Gauge {
                    gauge: GaugeKind::QueueDepth,
                    index: j,
                    value,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Sharing policy
    // ------------------------------------------------------------------

    /// May the arrival take a slot? Under the static pool always (the
    /// free list decides); otherwise the policy decides over the live
    /// queue lengths `qlen(store, j)`, and a preemption calls
    /// `evict(store, victim)` — the organization's eviction rule, which
    /// returns the evicted packet's id, or `None` when the victim queue
    /// holds nothing evictable. A refusal is charged and emitted here.
    #[inline]
    pub(crate) fn admit<S>(
        &mut self,
        a: Arrival,
        store: &mut S,
        qlen: impl Fn(&S, usize) -> usize,
        evict: impl FnOnce(&mut S, usize) -> Option<u64>,
    ) -> bool {
        if self.policy_static {
            return true;
        }
        let n_out = self.last_qdepth.len(); // one gauge per output
        self.qlens.clear();
        self.qlens.extend((0..n_out).map(|j| qlen(store, j)));
        let decision = self.policy.admit(&PolicyView {
            occupancy: a.occupancy,
            capacity: a.capacity,
            dst: a.dst,
            qlens: &self.qlens,
        });
        let admitted = match decision {
            AdmitDecision::Accept => true,
            AdmitDecision::Reject => false,
            AdmitDecision::Preempt { victim } => match evict(store, victim) {
                Some(evicted) => {
                    self.drop(a.c, evicted, DropReason::Preempted);
                    true
                }
                None => false,
            },
        };
        if !admitted {
            self.drop(a.c, a.id, DropReason::AdmissionPolicy);
        }
        admitted
    }

    /// Is the sharing policy the static pool, which never refuses?
    #[inline]
    pub(crate) fn policy_static(&self) -> bool {
        self.policy_static
    }

    /// A read for `output` started `delay` cycles after its packet's
    /// header arrived (the BShare queueing-delay signal).
    #[inline]
    pub(crate) fn on_read(&mut self, output: usize, delay: Cycle) {
        if !self.policy_static {
            self.policy.on_read(output, delay);
        }
    }

    // ------------------------------------------------------------------
    // Recovery ladder: correct → fail over → degrade
    // ------------------------------------------------------------------

    /// Step `tag` of the recovery ladder fired `n` times at bank/row
    /// `index`: charge the counter the tag has (if any) and say so.
    #[inline]
    pub(crate) fn recovery(&mut self, c: Cycle, tag: RecoveryTag, index: usize, n: u64, info: u64) {
        match tag {
            RecoveryTag::EccCorrected => self.counters.ecc_corrected += n,
            RecoveryTag::EccUncorrectable => self.counters.ecc_uncorrectable += n,
            RecoveryTag::BankFailover => self.counters.bank_failovers += n,
            _ => {}
        }
        self.emit(c, ProbeEvent::Recovery { tag, index, info });
    }

    /// One scrubbed word at bank `index`; `at` locates an uncorrectable
    /// one (the checksum scrub's detect-and-drop takes over from there).
    /// True when a correction was made.
    #[inline]
    pub(crate) fn ecc(&mut self, c: Cycle, index: usize, outcome: EccOutcome, at: u64) -> bool {
        match outcome {
            EccOutcome::Clean => false,
            EccOutcome::Corrected { bit } => {
                self.recovery(c, RecoveryTag::EccCorrected, index, 1, u64::from(bit));
                true
            }
            EccOutcome::Uncorrectable => {
                self.recovery(c, RecoveryTag::EccUncorrectable, index, 1, at);
                false
            }
        }
    }

    /// Is ECC armed?
    #[inline]
    pub(crate) fn ecc_on(&self) -> bool {
        self.recovery.ecc
    }

    /// Has a bank/row with `corrections` cumulative repairs earned its
    /// retirement?
    #[inline]
    pub(crate) fn over_threshold(&self, corrections: u64) -> bool {
        self.recovery.failover_enabled() && corrections >= self.recovery.failover_threshold
    }

    /// Bank/row `index` was retired: count it and declare the settle
    /// window, whose length is returned.
    pub(crate) fn failover(&mut self, c: Cycle, index: usize, spares_left: usize) -> u64 {
        self.windows.open(c, self.settle);
        self.recovery(c, RecoveryTag::BankFailover, index, 1, spares_left as u64);
        self.settle
    }

    /// Admission is throttled on account of bank/row `index`; `info` is
    /// the settle length or the reduced capacity.
    pub(crate) fn degraded_enter(&mut self, c: Cycle, index: usize, info: u64) {
        self.recovery(c, RecoveryTag::DegradedEnter, index, 0, info);
    }

    /// Must this arrival be shed at the door? Yes inside a failover
    /// settle window, and whenever the organization reports itself
    /// `capped` (permanently degraded and at its reduced capacity) —
    /// which declares its own outage span.
    #[inline]
    pub(crate) fn shed(&mut self, c: Cycle, capped: bool) -> bool {
        if !self.recovery.enabled() {
            return false;
        }
        let in_window = self.windows.active(c);
        let shed = in_window || capped;
        if shed && !in_window {
            self.windows.open(c, 0);
        }
        shed
    }

    pub(crate) fn recovery_windows(&self) -> &RecoveryWindows {
        &self.windows
    }

    pub(crate) fn recovery_report(&self) -> RecoveryReport {
        RecoveryReport {
            corrections: self.counters.ecc_corrected,
            uncorrectable: self.counters.ecc_uncorrectable,
            failovers: self.counters.bank_failovers,
            shed: self.counters.recovery_shed,
            windows: self.windows.clone(),
        }
    }
}
