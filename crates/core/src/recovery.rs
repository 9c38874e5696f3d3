//! Fault recovery and graceful degradation.
//!
//! The fault-injection campaigns (e14–e16) established the *detection*
//! doctrine: every modeled fault class is caught and counted. This module
//! supplies the *recovery* half — the ladder real switch silicon climbs
//! before giving up on a fault:
//!
//! 1. **correct** — SEC-DED ECC on the buffer banks repairs single-bit
//!    upsets in place (the `membank` scrub machinery), invisibly to the
//!    datapath timing;
//! 2. **repair** — a bank failing ECC repeatedly is masked out and a spare
//!    column hot-swapped in its place ([`RecoveryConfig::failover_threshold`]);
//! 3. **degrade** — while a failover settles (and permanently once spares
//!    run out) the switch sheds load at admission instead of corrupting
//!    data: conservation and per-flow FIFO still hold, throughput drops;
//! 4. **retry** — wire faults at the credited input are retransmitted
//!    through a Go-Back-N window ([`RetrySender`]/[`RetryReceiver`]);
//! 5. **escalate** — a drain that still hangs gets one resync attempt
//!    before `SimError::Watchdog`
//!    ([`simkernel::run_until_quiescent_escalating`]).
//!
//! [`RecoveryWindows`] is the declared-outage ledger the oracle audits
//! against: loss is legal *inside* a window, never outside one, and the
//! mean window length is the campaign's MTTR metric.

use simkernel::ids::Cycle;
use std::collections::VecDeque;

/// Recovery policy of a switch model. The default is fully disabled —
/// a switch built with it behaves (and benchmarks) exactly as before.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// SEC-DED ECC on the buffer banks: single-bit upsets are corrected
    /// in place at the read-side scrub instead of condemning the packet.
    pub ecc: bool,
    /// Spare bank columns held in reserve for hot failover.
    pub spare_banks: usize,
    /// ECC corrections a single bank may accumulate before it is deemed
    /// failing and swapped for a spare. 0 disables failover.
    pub failover_threshold: u64,
    /// Admission-pause length (cycles) modeling the spare-copy settle
    /// time of one failover. 0 lets the model pick its natural window
    /// (one full buffer sweep, `stages`·`slots`-independent: see each
    /// model's docs).
    pub degrade_window: u64,
}

impl RecoveryConfig {
    /// Correction only: ECC armed, no spares, no failover. Timing-
    /// invisible — a run under this policy is cycle-exact with an
    /// unprotected run whose upsets never struck.
    pub fn ecc_only() -> Self {
        RecoveryConfig {
            ecc: true,
            ..Self::default()
        }
    }

    /// The full ladder: ECC, `spares` hot-swap columns, failover after
    /// `threshold` corrections on one bank.
    pub fn full(spares: usize, threshold: u64) -> Self {
        RecoveryConfig {
            ecc: true,
            spare_banks: spares,
            failover_threshold: threshold,
            degrade_window: 0,
        }
    }

    /// Is any recovery machinery armed?
    pub fn enabled(&self) -> bool {
        self.ecc || self.spare_banks > 0
    }

    /// Is hot failover armed?
    pub fn failover_enabled(&self) -> bool {
        self.ecc && self.failover_threshold > 0
    }
}

/// The declared-outage ledger: closed integer spans `[start, until]` of
/// cycles during which the switch was *recovering* (failover settle,
/// degraded admission, link replay) and loss is excused. Overlapping or
/// abutting openings merge into one span, so `count()` is the number of
/// distinct recovery episodes and `mean_len()` is the MTTR in cycles.
#[derive(Debug, Clone, Default)]
pub struct RecoveryWindows {
    spans: Vec<(Cycle, Cycle)>,
}

impl RecoveryWindows {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare (or extend) a recovery window covering `[now, now + len]`.
    /// Openings arrive in cycle order; a window opened while the previous
    /// one is still active extends it rather than starting a new episode.
    pub fn open(&mut self, now: Cycle, len: u64) {
        let until = now + len;
        if let Some(last) = self.spans.last_mut() {
            debug_assert!(now >= last.0, "windows open in cycle order");
            if now <= last.1 {
                last.1 = last.1.max(until);
                return;
            }
        }
        self.spans.push((now, until));
    }

    /// Is a window active at cycle `now`? (Only the newest span can be —
    /// openings arrive in cycle order.)
    pub fn active(&self, now: Cycle) -> bool {
        self.spans
            .last()
            .is_some_and(|&(s, u)| now >= s && now <= u)
    }

    /// Did any window cover cycle `c`?
    pub fn contains(&self, c: Cycle) -> bool {
        self.spans.iter().any(|&(s, u)| c >= s && c <= u)
    }

    /// Distinct recovery episodes.
    pub fn count(&self) -> usize {
        self.spans.len()
    }

    /// Total cycles spent inside windows.
    pub fn total_cycles(&self) -> u64 {
        self.spans.iter().map(|&(s, u)| u - s + 1).sum()
    }

    /// Mean time to recover: mean window length in cycles (`None` when no
    /// window ever opened).
    pub fn mean_len(&self) -> Option<f64> {
        if self.spans.is_empty() {
            None
        } else {
            Some(self.total_cycles() as f64 / self.spans.len() as f64)
        }
    }

    /// The closed spans, in cycle order.
    pub fn spans(&self) -> &[(Cycle, Cycle)] {
        &self.spans
    }
}

/// Aggregate recovery outcome of one run — what the chaos campaign and
/// the conformance oracle consume.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Single-bit upsets corrected in place.
    pub corrections: u64,
    /// Words found corrupted beyond single-error correction.
    pub uncorrectable: u64,
    /// Banks hot-swapped for a spare.
    pub failovers: u64,
    /// Packets shed at admission inside recovery windows.
    pub shed: u64,
    /// The declared-outage ledger.
    pub windows: RecoveryWindows,
}

/// Configuration of the Go-Back-N link-retry pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Maximum unacknowledged frames in flight.
    pub window: usize,
    /// Times one frame may be replayed before it is abandoned.
    pub max_replays: u32,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            window: 8,
            max_replays: 4,
        }
    }
}

#[derive(Debug, Clone)]
struct SentFrame {
    seq: u64,
    words: Vec<u64>,
    replays: u32,
}

/// Sender half of the link-level retry window (Go-Back-N).
///
/// The testbench copies each transmitted frame into the window; on a
/// [`RxVerdict::Nak`] from the receiver the sender rewinds to the
/// rejected sequence number and replays everything from there, in order.
/// A frame replayed past [`RetryConfig::max_replays`] is abandoned (the
/// bounded-replay guarantee: a hard-dead link cannot wedge the input).
#[derive(Debug, Clone)]
pub struct RetrySender {
    cfg: RetryConfig,
    next_seq: u64,
    window: VecDeque<SentFrame>,
    /// Sequence number of the next frame to replay (`None`: in-order
    /// transmission of new frames). Tracked by seq, not index, so
    /// interleaved ACKs can shrink the window mid-replay.
    replay_from: Option<u64>,
    /// Frames retransmitted.
    pub retries: u64,
    /// Frames abandoned after the replay bound.
    pub give_ups: u64,
}

impl RetrySender {
    /// A sender with an empty window.
    pub fn new(cfg: RetryConfig) -> Self {
        RetrySender {
            cfg,
            next_seq: 0,
            window: VecDeque::new(),
            replay_from: None,
            retries: 0,
            give_ups: 0,
        }
    }

    /// May a *new* frame be sent this cycle? (No while the window is full
    /// or a replay is in progress — Go-Back-N retransmits strictly before
    /// new data.)
    pub fn can_send(&self) -> bool {
        self.replay_from.is_none() && self.window.len() < self.cfg.window
    }

    /// Register a newly transmitted frame; returns its sequence number.
    pub fn send(&mut self, words: Vec<u64>) -> u64 {
        assert!(self.can_send(), "send() while !can_send()");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.window.push_back(SentFrame {
            seq,
            words,
            replays: 0,
        });
        seq
    }

    /// Cumulative acknowledgement: the receiver accepted everything
    /// through `seq`.
    pub fn ack(&mut self, seq: u64) {
        while self.window.front().is_some_and(|f| f.seq <= seq) {
            self.window.pop_front();
        }
        if self.window.is_empty() {
            self.replay_from = None;
        }
    }

    /// Negative acknowledgement: the receiver is still waiting for `seq`.
    /// Rewinds transmission to that frame (Go-Back-N). Frames that have
    /// exhausted their replay budget are abandoned on the spot.
    pub fn nak(&mut self, seq: u64) {
        if seq > 0 {
            self.ack(seq - 1); // everything before seq is implicitly acked
        }
        while self
            .window
            .front()
            .is_some_and(|f| f.replays >= self.cfg.max_replays)
        {
            self.window.pop_front();
            self.give_ups += 1;
        }
        self.replay_from = self.window.front().map(|f| f.seq);
    }

    /// The next frame to retransmit, if a replay is in progress. Each
    /// call yields one frame `(seq, words)` and advances; after the last
    /// windowed frame the sender returns to new-data transmission.
    pub fn next_replay(&mut self) -> Option<(u64, Vec<u64>)> {
        let want = self.replay_from?;
        let Some(at) = self.window.iter().position(|f| f.seq >= want) else {
            // Everything from the rewind point was ACKed meanwhile.
            self.replay_from = None;
            return None;
        };
        let last = at + 1 == self.window.len();
        let f = &mut self.window[at];
        f.replays += 1;
        self.retries += 1;
        let out = (f.seq, f.words.clone());
        self.replay_from = (!last).then_some(out.0 + 1);
        Some(out)
    }

    /// Frames sent but not yet acknowledged.
    pub fn outstanding(&self) -> usize {
        self.window.len()
    }
}

/// Receiver verdict on one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxVerdict {
    /// In-order, CRC-clean: deliver to the switch.
    Accept,
    /// Already delivered (a replay overshoot): discard silently.
    Duplicate,
    /// Out of order or CRC-dirty: discard and ask the sender to rewind
    /// to the carried sequence number.
    Nak(u64),
}

/// Receiver half of the link-level retry window.
///
/// Sits conceptually between the wire (after fault injection) and the
/// switch ingress: checks each frame's header CRC and sequencing, and
/// only in-order clean frames reach the switch. The header CRC is
/// whatever word-fold the harness computes over the frame
/// (`rtl::integrity_checksum` in the campaigns).
#[derive(Debug, Clone)]
pub struct RetryReceiver {
    expect: u64,
    /// Frames delivered to the switch.
    pub accepted: u64,
    /// NAKs issued.
    pub naks: u64,
    /// Duplicates discarded.
    pub duplicates: u64,
}

impl Default for RetryReceiver {
    fn default() -> Self {
        Self::new()
    }
}

impl RetryReceiver {
    /// A receiver expecting sequence 0.
    pub fn new() -> Self {
        RetryReceiver {
            expect: 0,
            accepted: 0,
            naks: 0,
            duplicates: 0,
        }
    }

    /// Judge one received frame: `seq` from the side-band, `crc_ok` from
    /// the harness's CRC comparison (false when the wire mangled or
    /// truncated the frame).
    pub fn receive(&mut self, seq: u64, crc_ok: bool) -> RxVerdict {
        if seq < self.expect {
            self.duplicates += 1;
            return RxVerdict::Duplicate;
        }
        if seq != self.expect || !crc_ok {
            self.naks += 1;
            return RxVerdict::Nak(self.expect);
        }
        self.expect += 1;
        self.accepted += 1;
        RxVerdict::Accept
    }

    /// A frame that never arrived at all (dropped on the wire): the
    /// harness detects the gap when the *next* frame shows up, but an
    /// end-of-burst drop needs an explicit timeout nudge. Returns the
    /// NAK to forward to the sender.
    pub fn timeout(&mut self) -> RxVerdict {
        self.naks += 1;
        RxVerdict::Nak(self.expect)
    }

    /// The sender abandoned `seq` (replay bound hit): skip past it so the
    /// link can make progress. No-op unless `seq` is the expected frame.
    pub fn skip(&mut self, seq: u64) {
        if seq == self.expect {
            self.expect += 1;
        }
    }

    /// Next expected sequence number.
    pub fn expected(&self) -> u64 {
        self.expect
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_merge_and_measure() {
        let mut w = RecoveryWindows::new();
        assert!(w.mean_len().is_none());
        w.open(100, 10); // [100,110]
        w.open(105, 10); // extends to [100,115]
        assert_eq!(w.count(), 1);
        assert!(w.active(115) && !w.active(116));
        w.open(200, 4); // [200,204]
        assert_eq!(w.count(), 2);
        assert!(w.contains(103) && w.contains(204) && !w.contains(150));
        assert_eq!(w.total_cycles(), 16 + 5);
        assert!((w.mean_len().unwrap() - 10.5).abs() < 1e-9);
    }

    #[test]
    fn clean_link_needs_no_replay() {
        let cfg = RetryConfig::default();
        let mut tx = RetrySender::new(cfg);
        let mut rx = RetryReceiver::new();
        for i in 0..20u64 {
            assert!(tx.can_send());
            let seq = tx.send(vec![i]);
            assert_eq!(rx.receive(seq, true), RxVerdict::Accept);
            tx.ack(seq);
        }
        assert_eq!(tx.retries, 0);
        assert_eq!(rx.accepted, 20);
        assert_eq!(tx.outstanding(), 0);
    }

    #[test]
    fn corrupt_frame_is_replayed_go_back_n() {
        let mut tx = RetrySender::new(RetryConfig::default());
        let mut rx = RetryReceiver::new();
        // Send 0,1,2; frame 1 arrives corrupt, 2 is then out of order.
        let s0 = tx.send(vec![0]);
        assert_eq!(rx.receive(s0, true), RxVerdict::Accept);
        let s1 = tx.send(vec![1]);
        let s2 = tx.send(vec![2]);
        assert_eq!(rx.receive(s1, false), RxVerdict::Nak(1));
        assert_eq!(rx.receive(s2, true), RxVerdict::Nak(1));
        tx.nak(1);
        // Replay resends 1 then 2, both clean this time.
        let mut delivered = Vec::new();
        while let Some((seq, words)) = tx.next_replay() {
            if rx.receive(seq, true) == RxVerdict::Accept {
                delivered.push(words[0]);
                tx.ack(seq);
            }
        }
        assert_eq!(delivered, vec![1, 2]);
        assert_eq!(tx.retries, 2);
        assert_eq!(rx.accepted, 3);
        assert!(tx.can_send());
    }

    #[test]
    fn replay_overshoot_is_discarded_as_duplicate() {
        let mut tx = RetrySender::new(RetryConfig::default());
        let mut rx = RetryReceiver::new();
        let s0 = tx.send(vec![0]);
        // Frame 0 was accepted, but the ACK raced the NAK for frame 1.
        assert_eq!(rx.receive(s0, true), RxVerdict::Accept);
        let s1 = tx.send(vec![1]);
        assert_eq!(rx.receive(s1, false), RxVerdict::Nak(1));
        tx.nak(0); // stale NAK: rewinds to 0
        let (seq, _) = tx.next_replay().unwrap();
        assert_eq!(seq, 0);
        assert_eq!(rx.receive(seq, true), RxVerdict::Duplicate);
        let (seq, _) = tx.next_replay().unwrap();
        assert_eq!(seq, 1);
        assert_eq!(rx.receive(seq, true), RxVerdict::Accept);
    }

    #[test]
    fn replay_bound_abandons_a_dead_frame() {
        let cfg = RetryConfig {
            window: 4,
            max_replays: 2,
        };
        let mut tx = RetrySender::new(cfg);
        let mut rx = RetryReceiver::new();
        let s0 = tx.send(vec![7]);
        // The wire eats frame 0 every time.
        assert_eq!(rx.receive(s0, false), RxVerdict::Nak(0));
        for _ in 0..cfg.max_replays {
            tx.nak(0);
            let (seq, _) = tx.next_replay().unwrap();
            assert_eq!(rx.receive(seq, false), RxVerdict::Nak(0));
        }
        tx.nak(0);
        assert_eq!(tx.give_ups, 1, "frame abandoned after the bound");
        assert_eq!(tx.outstanding(), 0);
        rx.skip(0);
        // The link makes progress again.
        let s1 = tx.send(vec![8]);
        assert_eq!(rx.receive(s1, true), RxVerdict::Accept);
    }

    #[test]
    fn window_backpressure() {
        let cfg = RetryConfig {
            window: 2,
            max_replays: 4,
        };
        let mut tx = RetrySender::new(cfg);
        tx.send(vec![0]);
        tx.send(vec![1]);
        assert!(!tx.can_send(), "window full");
        tx.ack(0);
        assert!(tx.can_send());
    }

    #[test]
    fn recovery_config_gates() {
        assert!(!RecoveryConfig::default().enabled());
        assert!(RecoveryConfig::ecc_only().enabled());
        assert!(!RecoveryConfig::ecc_only().failover_enabled());
        assert!(RecoveryConfig::full(2, 4).failover_enabled());
    }
}
