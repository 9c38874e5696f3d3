//! Link-level credit-based flow control.
//!
//! The Telegraphos switches use credit-based flow control on their links
//! (§4.2 mentions the credit logic in the outgoing-link blocks; the full
//! VC-level scheme is in \[KVES95\]). The principle modeled here is the
//! link-level core of it: the upstream end of a link holds a credit
//! counter initialized to the number of buffer slots reserved for that
//! link downstream; transmitting a packet consumes one credit; the
//! downstream switch returns a credit when the packet's slot is freed.
//! With per-link reservations summing to at most the shared-buffer
//! capacity, **buffer-full drops become impossible** — the property the
//! integration tests assert.
//!
//! In the pipelined-memory switch a slot is freed at *read initiation*
//! (see `bufmgr`), so credits return earlier than in a conventional
//! shared-buffer switch — a small but real latency advantage of the
//! organization.

use simkernel::error::SimError;
use simkernel::ids::Cycle;
use std::collections::VecDeque;
use telemetry::{ProbeEvent, ProbeHandle};

/// The upstream (sender) end of one credit-flow-controlled link.
///
/// Generic over what a "packet" is — the caller enqueues opaque items and
/// pulls them out only when a credit is available.
///
/// ```
/// use switch_core::credit::CreditedInput;
///
/// let mut link: CreditedInput<&str> = CreditedInput::new(1, 0);
/// link.offer("p1");
/// link.offer("p2");
/// assert_eq!(link.poll(0), Some("p1")); // consumes the only credit
/// assert_eq!(link.poll(1), None);       // p2 waits
/// link.return_credit(2);                // downstream freed the slot
/// assert_eq!(link.poll(2), Some("p2"));
/// ```
#[derive(Debug, Clone)]
pub struct CreditedInput<T> {
    credits: u32,
    initial: u32,
    queue: VecDeque<T>,
    /// Credits that have been granted by the receiver but are still in
    /// flight on the (modeled) reverse wire: (arrival_cycle, count).
    returning: VecDeque<(Cycle, u32)>,
    credit_delay: Cycle,
    /// Times [`CreditedInput::resync`] recovered lost credits.
    resyncs: u64,
    /// Telemetry probe and the input-lane index reported with each
    /// credit event (attached by the harness; `None` in the hot path).
    probe: Option<(ProbeHandle, usize)>,
}

impl<T> CreditedInput<T> {
    /// A sender with `initial` credits and a credit-return wire delay of
    /// `credit_delay` cycles (0 = same-cycle return).
    pub fn new(initial: u32, credit_delay: Cycle) -> Self {
        CreditedInput {
            credits: initial,
            initial,
            queue: VecDeque::new(),
            returning: VecDeque::new(),
            credit_delay,
            resyncs: 0,
            probe: None,
        }
    }

    /// Attach a probe; credit grants and returns on this link are
    /// reported as [`ProbeEvent::CreditGrant`]/[`ProbeEvent::CreditReturn`]
    /// tagged with input `lane`.
    pub fn attach_probe(&mut self, probe: ProbeHandle, lane: usize) {
        self.probe = Some((probe, lane));
    }

    /// Credits currently usable.
    pub fn credits(&self) -> u32 {
        self.credits
    }

    /// Packets waiting for credits.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Credits granted by the receiver but still in flight on the
    /// (modeled) reverse wire.
    pub fn in_flight_credits(&self) -> u32 {
        self.returning.iter().map(|&(_, n)| n).sum()
    }

    /// Credits consumed and not yet seen coming back: by the conservation
    /// invariant `credits + in-flight + outstanding == initial`, this is
    /// what the sender believes the downstream still owes it. Negative
    /// when more credits came back than were consumed (a double return).
    pub fn outstanding(&self) -> i64 {
        i64::from(self.initial) - i64::from(self.credits) - i64::from(self.in_flight_credits())
    }

    /// Times [`CreditedInput::resync`] recovered lost credits.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Audit the credit-conservation invariant against ground truth.
    ///
    /// `actual_outstanding` is the number of packets this sender launched
    /// whose downstream slot has not yet been freed (the testbench ledger
    /// or, on real silicon, a periodic credit-sync message knows this).
    /// If the sender's own [`CreditedInput::outstanding`] exceeds it,
    /// credit returns were lost on the wire — the link bleeds bandwidth
    /// and eventually deadlocks; if it is *smaller*, credits were
    /// returned twice. Either way: [`SimError::CreditLeak`], with both
    /// counts as they are (a negative ledger is a packet credited twice).
    pub fn audit(&self, actual_outstanding: i64, context: &str) -> Result<(), SimError> {
        let expected = self.outstanding();
        if expected == actual_outstanding {
            Ok(())
        } else {
            Err(SimError::CreditLeak {
                expected_outstanding: expected,
                actual_outstanding,
                context: context.to_string(),
            })
        }
    }

    /// Recover from lost credit returns: restore the credit counter so
    /// that exactly `actual_outstanding` credits remain outstanding
    /// (in-flight returns untouched). Returns the number of credits
    /// recovered. This is the resync a real credit protocol performs with
    /// a periodic absolute-count message instead of incremental returns.
    pub fn resync(&mut self, actual_outstanding: u32) -> u32 {
        let surplus = self.outstanding() - i64::from(actual_outstanding);
        let lost = u32::try_from(surplus).unwrap_or(0);
        if lost > 0 {
            self.credits += lost;
            self.resyncs += 1;
        }
        lost
    }

    /// Enqueue a packet for transmission.
    pub fn offer(&mut self, item: T) {
        self.queue.push_back(item);
    }

    /// The receiver freed a slot at `now`; the credit becomes usable at
    /// `now + credit_delay`. The probe reports the credits held at `now`,
    /// returns due by then included, however long ago the last poll was.
    pub fn return_credit(&mut self, now: Cycle) {
        self.mature(now);
        let at = now + self.credit_delay;
        match self.returning.back_mut() {
            Some((cycle, n)) if *cycle == at => *n += 1,
            _ => self.returning.push_back((at, 1)),
        }
        if let Some((p, lane)) = &self.probe {
            p.emit(
                now,
                ProbeEvent::CreditReturn {
                    input: *lane,
                    remaining: u64::from(self.credits),
                },
            );
        }
    }

    /// Make the returns due by `now` usable.
    fn mature(&mut self, now: Cycle) {
        while let Some(&(at, n)) = self.returning.front() {
            if at > now {
                break;
            }
            self.credits += n;
            self.returning.pop_front();
        }
    }

    /// Advance to `now` and, if a packet is queued and a credit is
    /// available, consume one credit and release the packet for
    /// transmission.
    pub fn poll(&mut self, now: Cycle) -> Option<T> {
        self.mature(now);
        debug_assert!(
            self.credits <= self.initial,
            "credit counter exceeded its allotment — double return"
        );
        if self.credits > 0 && !self.queue.is_empty() {
            self.credits -= 1;
            if let Some((p, lane)) = &self.probe {
                p.emit(
                    now,
                    ProbeEvent::CreditGrant {
                        input: *lane,
                        remaining: u64::from(self.credits),
                    },
                );
            }
            self.queue.pop_front()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sends_until_credits_exhausted() {
        let mut c: CreditedInput<u32> = CreditedInput::new(2, 0);
        c.offer(1);
        c.offer(2);
        c.offer(3);
        assert_eq!(c.poll(0), Some(1));
        assert_eq!(c.poll(1), Some(2));
        assert_eq!(c.poll(2), None, "out of credits");
        assert_eq!(c.backlog(), 1);
    }

    #[test]
    fn credit_return_resumes_flow() {
        let mut c: CreditedInput<u32> = CreditedInput::new(1, 0);
        c.offer(1);
        c.offer(2);
        assert_eq!(c.poll(0), Some(1));
        assert_eq!(c.poll(1), None);
        c.return_credit(1);
        assert_eq!(c.poll(1), Some(2));
    }

    #[test]
    fn credit_return_delay_respected() {
        let mut c: CreditedInput<u32> = CreditedInput::new(1, 3);
        c.offer(1);
        c.offer(2);
        assert_eq!(c.poll(0), Some(1));
        c.return_credit(0); // usable at 3
        assert_eq!(c.poll(1), None);
        assert_eq!(c.poll(2), None);
        assert_eq!(c.poll(3), Some(2));
    }

    #[test]
    fn batched_returns_coalesce() {
        let mut c: CreditedInput<u32> = CreditedInput::new(3, 2);
        for i in 0..3 {
            c.offer(i);
            assert!(c.poll(0).is_some());
        }
        c.return_credit(5);
        c.return_credit(5);
        c.offer(10);
        c.offer(11);
        assert_eq!(c.poll(6), None);
        assert_eq!(c.poll(7), Some(10));
        assert_eq!(c.poll(7), Some(11));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double return")]
    fn over_return_detected() {
        let mut c: CreditedInput<u32> = CreditedInput::new(1, 0);
        c.return_credit(0);
        let _ = c.poll(0);
    }

    #[test]
    fn outstanding_tracks_consumption_and_returns() {
        let mut c: CreditedInput<u32> = CreditedInput::new(3, 2);
        assert_eq!(c.outstanding(), 0);
        c.offer(1);
        c.offer(2);
        assert_eq!(c.poll(0), Some(1));
        assert_eq!(c.poll(0), Some(2));
        assert_eq!(c.outstanding(), 2);
        c.return_credit(1); // in flight until cycle 3
        assert_eq!(c.in_flight_credits(), 1);
        assert_eq!(c.outstanding(), 1, "in-flight return is not outstanding");
        assert_eq!(c.poll(3), None); // matures the return
        assert_eq!(c.outstanding(), 1);
        assert_eq!(c.credits(), 2);
    }

    #[test]
    fn audit_detects_lost_return_and_resync_recovers() {
        let mut c: CreditedInput<u32> = CreditedInput::new(2, 0);
        c.offer(1);
        c.offer(2);
        assert_eq!(c.poll(0), Some(1));
        assert_eq!(c.poll(0), Some(2));
        // Downstream freed both slots but one return was lost on the
        // wire; ground truth says 0 outstanding, the sender counts 2... 1.
        c.return_credit(0);
        let _ = c.poll(1); // no queue: matures the return only
        assert_eq!(c.outstanding(), 1);
        let err = c.audit(0, "input 0").unwrap_err();
        assert!(matches!(
            err,
            SimError::CreditLeak {
                expected_outstanding: 1,
                actual_outstanding: 0,
                ..
            }
        ));
        assert_eq!(c.resync(0), 1, "one credit recovered");
        assert_eq!(c.resyncs(), 1);
        assert!(c.audit(0, "input 0").is_ok());
        // Flow resumes at full allotment.
        c.offer(3);
        assert_eq!(c.poll(2), Some(3));
    }

    #[test]
    fn a_double_return_is_reported_as_it_is() {
        // One credit consumed, two returned: the sender is owed -1, which
        // the audit must report instead of wrapping or overflowing.
        let mut c: CreditedInput<u32> = CreditedInput::new(1, 1);
        c.offer(7);
        assert_eq!(c.poll(0), Some(7));
        c.return_credit(5);
        c.return_credit(6);
        let err = c.audit(0, "x").expect_err("one credit came back twice");
        assert_eq!(
            err.to_string(),
            "credit leak on x: sender counts -1 outstanding, ground truth 0"
        );
        assert_eq!(c.resync(0), 0, "a surplus is no lost credit");
    }

    #[test]
    fn audit_passes_when_counts_agree() {
        let mut c: CreditedInput<u32> = CreditedInput::new(2, 0);
        c.offer(9);
        assert_eq!(c.poll(0), Some(9));
        assert!(c.audit(1, "link").is_ok());
        assert_eq!(c.resync(1), 0, "nothing lost, nothing recovered");
        assert_eq!(c.resyncs(), 0);
        // A ledger that saw the same double return agrees with the sender.
        c.return_credit(1);
        c.return_credit(1);
        assert_eq!(c.outstanding(), -1);
        assert!(c.audit(-1, "link").is_ok());
    }

    #[test]
    fn polling_only_a_non_empty_sender_grants_and_reports_the_same() {
        // Two senders fed the same offers and returns: `every` is polled
        // each cycle, `busy` only while it holds an offer, so returns land
        // while it is empty and wait for its next poll. Downstream frees a
        // granted slot 1..=12 cycles after the grant.
        use simkernel::SplitMix64;
        use telemetry::{Recorder, Shared};
        let mut rng = SplitMix64::new(0xC4ED);
        let recorders = [(); 2].map(|_| Shared::new(Recorder::unbounded()));
        let [mut every, mut busy] = [0, 1].map(|k| {
            let mut c: CreditedInput<u32> = CreditedInput::new(3, 2);
            c.attach_probe(recorders[k].handle(), 0);
            c
        });
        let mut frees: Vec<Cycle> = Vec::new();
        let (mut grants, mut stale) = (0, 0);
        for now in 0..4_000 {
            if rng.chance(0.15) {
                every.offer(now as u32);
                busy.offer(now as u32);
            }
            let granted = every.poll(now);
            let same = if busy.backlog() > 0 {
                busy.poll(now)
            } else {
                None
            };
            assert_eq!(granted, same, "cycle {now}");
            if granted.is_some() {
                grants += 1;
                frees.push(now + 1 + rng.below(12));
            }
            stale += u64::from(every.credits() != busy.credits());
            for _ in frees.extract_if(.., |&mut at| at == now) {
                every.return_credit(now);
                busy.return_credit(now);
            }
        }
        assert!(
            grants > 300 && stale > 0,
            "{grants} grants, {stale} stale cycles"
        );
        let [a, b] = recorders.map(|r| r.entries());
        assert_eq!(a.len(), b.len());
        assert!(
            a.iter().zip(&b).all(|(x, y)| x == y),
            "probe streams differ"
        );
    }

    #[test]
    fn no_packet_no_credit_consumed() {
        let mut c: CreditedInput<u32> = CreditedInput::new(2, 0);
        assert_eq!(c.poll(0), None);
        assert_eq!(c.credits(), 2);
    }
}
