//! Event-horizon fast-forward: skip idle cycles without touching state.
//!
//! The kernel's narrative has always been "every flip-flop sees every
//! clock edge" — and for *active* cycles that remains true. But the
//! low-load regions of the experiment grids and the inter-burst gaps of
//! the conformance fuzzer spend most of their wall time clocking a
//! switch in which nothing can happen: no word on any wire, no wave in
//! any bank, no pending write, no queued read. Classic discrete-event
//! simulators never pay for those cycles — they keep an event calendar
//! and jump straight to the next scheduled event.
//!
//! [`Horizon`] grafts that idea onto the synchronous models without an
//! event queue: each model *derives* its event horizon from the state it
//! already holds (next eligible pending write, next output-initiation
//! slot), and [`advance_to_batched`] jumps the clock there instead of
//! ticking through the gap. The contract is conservative by
//! construction, so the fast path can change wall time only — never a
//! departure cycle, a counter, or an RNG draw.
//!
//! ## The contract
//!
//! With **no input offered** over `[now, e)`:
//!
//! * `next_event() == None` — the model is quiescent and will remain so
//!   forever under idle input; any jump is safe.
//! * `next_event() == Some(e)` with `e > now` — no cycle in `[now, e)`
//!   decides anything: ticking through them with idle input would at
//!   most do bookkeeping whose outcome is already fixed, such as a
//!   transmission's tail leaving at a cycle set when its read began.
//!   `jump_to(t)` for `t <= e` must leave the model in exactly the
//!   state dense idle ticking to `t` would have — replaying that
//!   bookkeeping (counters, probe events at their own cycles, logs) on
//!   the way.
//! * `next_event() == Some(e)` with `e <= now` — state may change this
//!   cycle; the driver must dense-tick.
//!
//! A jump replays bookkeeping, so a driver that *acts* on it in its own
//! cycle (returning a credit in a delivery's cycle) must bound its jump
//! by the model's own report of it — `BehavioralSwitch::next_tail` in
//! `switch_core` — as it bounds a jump by a scheduled fault.
//!
//! Answering *early* (`Some(now)` when a longer skip was legal) costs
//! performance, never correctness; answering *late* is a model bug —
//! the equivalence property test (`tests/fast_forward.rs` in
//! the root package) hunts exactly that by comparing dense and
//! fast-forwarded runs over randomized bursty schedules.
//!
//! Parallelism stays in the bench harness (DESIGN.md §6); time-skipping
//! lives here in the kernel, because only the model knows which cycles
//! are skippable and only the kernel owns the vocabulary of time.

use crate::ids::Cycle;
use std::sync::atomic::{AtomicU64, Ordering};

// Process-wide fast-forward efficiency counters, mirroring the sweep
// engine's points counter: worker threads from every sweep fold into the
// same pair, and `expt` reports skipped vs executed per experiment by
// differencing around each run.
static FF_SKIPPED: AtomicU64 = AtomicU64::new(0);
static FF_EXECUTED: AtomicU64 = AtomicU64::new(0);

/// Record `n` cycles skipped by a fast-forward jump.
pub fn note_skipped(n: u64) {
    FF_SKIPPED.fetch_add(n, Ordering::Relaxed);
}

/// Record `n` cycles executed densely under a fast-forward driver.
pub fn note_executed(n: u64) {
    FF_EXECUTED.fetch_add(n, Ordering::Relaxed);
}

/// Total cycles skipped by fast-forward jumps since process start.
pub fn ff_skipped() -> u64 {
    FF_SKIPPED.load(Ordering::Relaxed)
}

/// Total cycles executed densely under fast-forward drivers since
/// process start.
pub fn ff_executed() -> u64 {
    FF_EXECUTED.load(Ordering::Relaxed)
}

/// Skip windows at or below this width are not worth a jump: the
/// horizon query plus the jump bookkeeping cost more than just ticking
/// through. [`advance_to_batched`] dense-steps such windows (including
/// the event cycle itself) in one run, with a single counter update —
/// this is what removes the 95%-load regression where per-cycle horizon
/// bookkeeping made fast-forward *slower* than plain dense stepping.
pub const DENSE_FALLTHROUGH: u64 = 4;

/// A model whose idle cycles can be executed as one fused batch.
///
/// `tick_idle_batch(n)` must be observably identical to `n` single
/// dense ticks with idle input — same grants, same counters, same
/// probe events, same departures — but may hoist per-tick wrapper work
/// (argument scans, per-cycle pacing decrements, assertions) out of the
/// loop. This is the multi-cycle entry point of the bit-parallel dense
/// path: between arbitration decisions control cannot change, so the
/// batch body is just the fused per-cycle kernel.
pub trait BatchTick {
    /// Run `n` cycles with idle input as one fused batch.
    fn tick_idle_batch(&mut self, n: u64);
}

/// A model that can report its event horizon and jump over dead time.
///
/// See the module docs for the exact contract. Implementations must be
/// *conservative*: when in doubt, return `Some(self.now())` — that
/// degrades to dense stepping, which is always correct.
pub trait Horizon {
    /// The current cycle (the one the next dense tick would execute).
    fn now(&self) -> Cycle;

    /// The earliest future cycle at which, under idle input, the model's
    /// observable state can change. `None` means quiescent forever.
    fn next_event(&self) -> Option<Cycle>;

    /// Jump the clock to `target` without evaluating the intervening
    /// cycles. Only legal when `next_event()` permits it (`None`, or
    /// `Some(e)` with `target <= e`); callers go through
    /// [`advance_to_batched`] or [`drain`], which enforce this.
    fn jump_to(&mut self, target: Cycle);
}

/// Advance `m` to exactly `target`, fast-forwarding across idle spans
/// and running [`BatchTick::tick_idle_batch`] whenever the model reports
/// an imminent event, so the near-window fall-through executes without
/// any per-cycle driver overhead.
///
/// Bit-exact with dense stepping by the [`Horizon`] contract; the only
/// observable difference is wall time. Skipped/executed cycle counts
/// fold into the process-wide efficiency counters once per call. On a
/// saturated model the horizon demands dense stepping almost every
/// cycle; consecutive dense rounds escalate the batch length (up to 8×
/// [`DENSE_FALLTHROUGH`]) so the horizon query itself drops out of the
/// per-cycle cost. Escalation only ever *executes* cycles it might
/// instead have skipped — never skips cycles it should have executed —
/// so bit-exactness is unconditional.
pub fn advance_to_batched<M: Horizon + BatchTick>(m: &mut M, target: Cycle) {
    let (executed, skipped) = advance_tallied(m, target);
    note_executed(executed);
    note_skipped(skipped);
}

/// [`advance_to_batched`] without the counter update: returns the cycles
/// it executed and skipped, for a caller that folds many advances into
/// one add. The counters are process-global, and a locked add per
/// advance costs a fabric element ≈ 7 % of its time.
pub fn advance_tallied<M: Horizon + BatchTick>(m: &mut M, target: Cycle) -> (u64, u64) {
    let mut streak: u64 = 0;
    let (mut executed, mut skipped) = (0u64, 0u64);
    while m.now() < target {
        let now = m.now();
        let stop = match m.next_event() {
            None => target,
            Some(e) if e > now + DENSE_FALLTHROUGH => {
                streak = 0;
                e.min(target)
            }
            Some(e) => {
                let mut run_end = target.min(e.max(now) + 1);
                if streak >= 2 {
                    let escalated = DENSE_FALLTHROUGH * streak.min(8);
                    run_end = run_end.max(target.min(now + escalated));
                }
                streak += 1;
                m.tick_idle_batch(run_end - now);
                debug_assert!(m.now() == run_end, "tick_idle_batch must advance n cycles");
                executed += run_end - now;
                continue;
            }
        };
        skipped += stop - now;
        m.jump_to(stop);
    }
    (executed, skipped)
}

/// Drain `m` to quiescence under a watchdog, fast-forwarding across the
/// idle spans. The fast-path counterpart of
/// [`run_until_quiescent`](crate::error::run_until_quiescent): returns
/// the cycle at which the model went quiescent, or
/// [`SimError::Watchdog`](crate::error::SimError::Watchdog) if `limit`
/// cycles pass (dense *or* skipped) without quiescence.
pub fn drain<M: Horizon>(
    m: &mut M,
    limit: u64,
    what: &str,
    mut dense_tick: impl FnMut(&mut M),
) -> Result<Cycle, crate::error::SimError> {
    let start = m.now();
    loop {
        let now = m.now();
        let stop = match m.next_event() {
            None => return Ok(now),
            Some(e) if e > now => e,
            Some(_) => {
                if now - start >= limit {
                    return Err(crate::error::SimError::Watchdog {
                        limit,
                        context: what.to_string(),
                    });
                }
                dense_tick(m);
                debug_assert!(m.now() > now, "dense_tick must advance the clock");
                note_executed(m.now() - now);
                continue;
            }
        };
        // A skip is bounded by the watchdog budget too: a model whose
        // horizon recedes forever must still trip the watchdog rather
        // than spin.
        let stop = stop.min(start + limit);
        if stop == now {
            return Err(crate::error::SimError::Watchdog {
                limit,
                context: what.to_string(),
            });
        }
        note_skipped(stop - now);
        m.jump_to(stop);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy model: one "packet" that completes at a fixed cycle.
    struct Toy {
        now: Cycle,
        done_at: Option<Cycle>,
        ticked: Vec<Cycle>,
    }

    impl Horizon for Toy {
        fn now(&self) -> Cycle {
            self.now
        }
        fn next_event(&self) -> Option<Cycle> {
            match self.done_at {
                None => None,
                Some(d) if d > self.now => Some(d),
                Some(_) => Some(self.now),
            }
        }
        fn jump_to(&mut self, target: Cycle) {
            self.now = target;
        }
    }

    fn toy_tick(t: &mut Toy) {
        t.ticked.push(t.now);
        if t.done_at == Some(t.now) {
            t.done_at = None;
        }
        t.now += 1;
    }

    #[test]
    fn advance_skips_to_event_then_ticks() {
        let mut t = Toy {
            now: 0,
            done_at: Some(100),
            ticked: Vec::new(),
        };
        advance_to_batched(&mut t, 200);
        assert_eq!(t.now, 200);
        // Only the event cycle itself was dense-ticked.
        assert_eq!(t.ticked, vec![100]);
        assert_eq!(t.done_at, None);
    }

    #[test]
    fn advance_lands_exactly_on_target_before_event() {
        let mut t = Toy {
            now: 0,
            done_at: Some(100),
            ticked: Vec::new(),
        };
        advance_to_batched(&mut t, 40);
        assert_eq!(t.now, 40);
        assert!(t.ticked.is_empty());
        assert_eq!(t.done_at, Some(100));
    }

    #[test]
    fn drain_returns_quiescence_cycle() {
        let mut t = Toy {
            now: 7,
            done_at: Some(19),
            ticked: Vec::new(),
        };
        let q = drain(&mut t, 1000, "toy", toy_tick).unwrap();
        assert_eq!(q, 20);
        assert_eq!(t.ticked, vec![19]);
    }

    #[test]
    fn drain_watchdog_fires_on_wedged_model() {
        struct Wedged(Cycle);
        impl Horizon for Wedged {
            fn now(&self) -> Cycle {
                self.0
            }
            fn next_event(&self) -> Option<Cycle> {
                Some(self.0)
            }
            fn jump_to(&mut self, t: Cycle) {
                self.0 = t;
            }
        }
        let err = drain(&mut Wedged(0), 25, "wedged toy", |w| w.0 += 1).unwrap_err();
        match err {
            crate::error::SimError::Watchdog { limit, context } => {
                assert_eq!(limit, 25);
                assert_eq!(context, "wedged toy");
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn drain_watchdog_bounds_receding_horizon() {
        // A model whose horizon always sits `limit + 1` ahead: each skip
        // is clamped to the budget and the watchdog still fires.
        struct Receding(Cycle);
        impl Horizon for Receding {
            fn now(&self) -> Cycle {
                self.0
            }
            fn next_event(&self) -> Option<Cycle> {
                Some(self.0 + 1_000_000)
            }
            fn jump_to(&mut self, t: Cycle) {
                self.0 = t;
            }
        }
        let err = drain(&mut Receding(0), 50, "receding", |_| {}).unwrap_err();
        assert!(matches!(
            err,
            crate::error::SimError::Watchdog { limit: 50, .. }
        ));
    }

    impl BatchTick for Toy {
        fn tick_idle_batch(&mut self, n: u64) {
            for _ in 0..n {
                toy_tick(self);
            }
        }
    }

    #[test]
    fn batched_matches_per_cycle_driver() {
        let mut a = Toy {
            now: 0,
            done_at: Some(100),
            ticked: Vec::new(),
        };
        let mut b = Toy {
            now: 0,
            done_at: Some(100),
            ticked: Vec::new(),
        };
        while a.now < 200 {
            toy_tick(&mut a);
        }
        advance_to_batched(&mut b, 200);
        assert_eq!(a.now, b.now);
        assert_eq!(a.done_at, b.done_at);
        // Dense stepping ticked every cycle; the driver only the event.
        assert_eq!(a.ticked.len(), 200);
        assert_eq!(b.ticked, vec![100]);
    }

    #[test]
    fn batched_escalates_on_saturated_model() {
        // A model that is never skippable: the horizon demands dense
        // stepping every cycle. The batched driver must still execute
        // every cycle exactly once, but in escalating runs so the
        // horizon query drops out of the per-cycle cost.
        struct Saturated {
            now: Cycle,
            batches: Vec<u64>,
        }
        impl Horizon for Saturated {
            fn now(&self) -> Cycle {
                self.now
            }
            fn next_event(&self) -> Option<Cycle> {
                Some(self.now)
            }
            fn jump_to(&mut self, t: Cycle) {
                self.now = t;
            }
        }
        impl BatchTick for Saturated {
            fn tick_idle_batch(&mut self, n: u64) {
                self.batches.push(n);
                self.now += n;
            }
        }
        let mut m = Saturated {
            now: 0,
            batches: Vec::new(),
        };
        advance_to_batched(&mut m, 1000);
        assert_eq!(m.now, 1000);
        assert_eq!(m.batches.iter().sum::<u64>(), 1000);
        // Escalation caps runs at 8 × DENSE_FALLTHROUGH, so the driver
        // consulted the horizon far less than once per cycle.
        assert!(m.batches.len() < 1000 / DENSE_FALLTHROUGH as usize + 8);
        assert!(m.batches.iter().all(|&n| n <= 8 * DENSE_FALLTHROUGH));
    }

    #[test]
    fn near_window_falls_through_to_dense() {
        // Event 2 cycles ahead: within DENSE_FALLTHROUGH, so the driver
        // must dense-step the window and the event cycle rather than
        // jump. (The ticked vec is the proof: a jump would leave cycles
        // 0 and 1 out of it.)
        let mut t = Toy {
            now: 0,
            done_at: Some(2),
            ticked: Vec::new(),
        };
        advance_to_batched(&mut t, 3);
        assert_eq!(t.now, 3);
        assert_eq!(t.ticked, vec![0, 1, 2]);
    }
}
