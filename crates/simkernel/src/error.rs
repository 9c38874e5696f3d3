//! Typed simulation errors and the structured quiescence watchdog.
//!
//! The early testbenches drained their switches with ad-hoc `guard`
//! counters: `while !sw.is_quiescent() && guard < N { … }`. A hang (a
//! stuck wave, a leaked buffer slot, a lost credit) silently truncated
//! the run and surfaced — if at all — as a confusing downstream
//! assertion. Under fault injection that is unacceptable: a fault that
//! wedges the switch must be a *first-class, typed outcome*, exactly as
//! a watchdog timer on real switch silicon turns a hang into a visible
//! reset event instead of a dead box.
//!
//! [`run_until_quiescent`] is the shared drain loop: it steps the
//! simulation until the caller reports quiescence or a cycle budget is
//! exhausted, and a budget overrun is a [`SimError::Watchdog`] carrying
//! enough context to diagnose the hang. The other variants give the
//! credit-audit and datapath-integrity machinery the same typed-failure
//! vocabulary.

use std::fmt;

/// A typed, structured simulation failure.
///
/// Every fault-campaign outcome that is not "detected and survived"
/// lands here: hangs trip the watchdog, and credit-conservation
/// violations that cannot be resynced report as leaks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The simulation failed to reach quiescence within its cycle budget.
    Watchdog {
        /// The cycle budget that was exhausted.
        limit: u64,
        /// What was being drained (for the error message).
        context: String,
    },
    /// Credit conservation is violated: the sender believes more credits
    /// are outstanding than the ground truth can account for (credits
    /// were lost on the return wire), or fewer (credits were returned
    /// twice).
    CreditLeak {
        /// Credits the sender's counter says are outstanding (negative:
        /// more came back than were consumed).
        expected_outstanding: i64,
        /// Credits actually consumed and unreturned per ground truth
        /// (negative: a packet was credited back twice).
        actual_outstanding: i64,
        /// Which link / sender (for the error message).
        context: String,
    },
    /// Two models that are claimed equivalent disagreed on an observable
    /// (a departure schedule, a delivered-packet set, a FIFO order). The
    /// conformance fuzzer reports every oracle failure through this
    /// variant so campaign tooling can treat divergences uniformly with
    /// hangs and leaks.
    Divergence {
        /// Which oracle check failed (e.g. `"rtl-vs-behavioral"`).
        check: String,
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// A worker thread of a parallel executor panicked. Its peers were
    /// released from waiting on it (fail-stop) and the run produced no
    /// result.
    WorkerPanic {
        /// Index of the worker that panicked.
        worker: usize,
        /// The panic message.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Watchdog { limit, context } => {
                write!(f, "watchdog: {context} not quiescent after {limit} cycles")
            }
            SimError::CreditLeak {
                expected_outstanding,
                actual_outstanding,
                context,
            } => write!(
                f,
                "credit leak on {context}: sender counts {expected_outstanding} \
                 outstanding, ground truth {actual_outstanding}"
            ),
            SimError::Divergence { check, detail } => {
                write!(f, "divergence [{check}]: {detail}")
            }
            SimError::WorkerPanic { worker, detail } => {
                write!(f, "worker {worker} panicked: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Drain a simulation to quiescence under a watchdog.
///
/// `step` is called once per cycle with the drain-cycle index; it must
/// advance the simulation by one cycle and return `true` once the model
/// is quiescent (checked *before* stepping, so an already-quiescent
/// model is not ticked at all). Returns the number of drain cycles
/// executed, or [`SimError::Watchdog`] if `limit` cycles pass without
/// quiescence — replacing the silent `guard`-counter loops that used to
/// truncate hung runs without a trace.
///
/// ```
/// use simkernel::error::{run_until_quiescent, SimError};
///
/// let mut remaining = 3u32;
/// let spent = run_until_quiescent(10, "toy drain", |_cycle| {
///     if remaining == 0 {
///         return true;
///     }
///     remaining -= 1;
///     false
/// })
/// .unwrap();
/// assert_eq!(spent, 3);
///
/// let hang = run_until_quiescent(10, "wedged model", |_| false);
/// assert!(matches!(hang, Err(SimError::Watchdog { limit: 10, .. })));
/// ```
pub fn run_until_quiescent(
    limit: u64,
    what: &str,
    mut step: impl FnMut(u64) -> bool,
) -> Result<u64, SimError> {
    for cycle in 0..limit {
        if step(cycle) {
            return Ok(cycle);
        }
    }
    Err(SimError::Watchdog {
        limit,
        context: what.to_string(),
    })
}

/// Drain with watchdog *escalation*: when the budget runs out, give the
/// caller's `resync` hook a chance to un-wedge the model (drop a stuck
/// wave, resynchronize credits, force a drain path) before declaring the
/// hang fatal.
///
/// `resync(attempt)` is called with the 0-based escalation attempt and
/// returns `true` if it took a corrective action worth retrying after;
/// each `true` buys one more full `limit`-cycle drain, up to `escalations`
/// attempts. A hang that survives every escalation is a
/// [`SimError::Watchdog`] and is recorded in the process-wide
/// [`crate::watchdog`] expiry ledger. Returns
/// `(total drain cycles, escalations used)` on success.
pub fn run_until_quiescent_escalating(
    limit: u64,
    what: &str,
    mut step: impl FnMut(u64) -> bool,
    mut resync: impl FnMut(u32) -> bool,
    escalations: u32,
) -> Result<(u64, u32), SimError> {
    let mut spent = 0u64;
    for attempt in 0..=escalations {
        match run_until_quiescent(limit, what, &mut step) {
            Ok(cycles) => return Ok((spent + cycles, attempt)),
            Err(_) => {
                spent += limit;
                if attempt == escalations || !resync(attempt) {
                    break;
                }
            }
        }
    }
    crate::watchdog::note_expiry();
    Err(SimError::Watchdog {
        limit: spent,
        context: what.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiescent_immediately_runs_zero_cycles() {
        let mut ticks = 0;
        let spent = run_until_quiescent(100, "noop", |_| {
            ticks += 1;
            true
        })
        .unwrap();
        assert_eq!(spent, 0);
        assert_eq!(ticks, 1, "step called once, model never advanced");
    }

    #[test]
    fn watchdog_fires_at_limit() {
        let mut ticks = 0u64;
        let err = run_until_quiescent(42, "hung model", |_| {
            ticks += 1;
            false
        })
        .unwrap_err();
        assert_eq!(ticks, 42);
        match err {
            SimError::Watchdog { limit, context } => {
                assert_eq!(limit, 42);
                assert_eq!(context, "hung model");
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn cycle_index_is_passed_through() {
        let mut seen = Vec::new();
        let _ = run_until_quiescent(4, "index check", |c| {
            seen.push(c);
            false
        });
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn escalation_resync_rescues_a_wedged_drain() {
        // Model wedges until the resync hook clears a fault flag. Both
        // closures touch the flag, hence the `Cell`.
        let wedged = std::cell::Cell::new(true);
        let mut remaining = 2u32;
        let (spent, used) = run_until_quiescent_escalating(
            5,
            "rescuable drain",
            |_| {
                if wedged.get() {
                    return false;
                }
                if remaining == 0 {
                    return true;
                }
                remaining -= 1;
                false
            },
            |attempt| {
                assert_eq!(attempt, 0);
                wedged.set(false);
                true
            },
            2,
        )
        .unwrap();
        assert_eq!(used, 1, "one escalation consumed");
        assert_eq!(spent, 5 + 2, "first budget burned, then a real drain");
    }

    #[test]
    fn escalation_exhaustion_is_a_watchdog_with_total_budget() {
        let base = crate::watchdog::expiries();
        let err =
            run_until_quiescent_escalating(4, "hopeless", |_| false, |_| true, 2).unwrap_err();
        match err {
            SimError::Watchdog { limit, context } => {
                assert_eq!(limit, 12, "three full budgets spent");
                assert_eq!(context, "hopeless");
            }
            other => panic!("wrong variant: {other:?}"),
        }
        assert_eq!(crate::watchdog::expiries_since(base), 1);
    }

    #[test]
    fn resync_declining_ends_escalation_early() {
        let mut calls = 0u32;
        let err = run_until_quiescent_escalating(
            3,
            "unrescuable",
            |_| false,
            |_| {
                calls += 1;
                false
            },
            5,
        )
        .unwrap_err();
        assert_eq!(calls, 1, "resync consulted once, declined");
        assert!(matches!(err, SimError::Watchdog { limit: 3, .. }));
    }

    #[test]
    fn display_forms() {
        let w = SimError::Watchdog {
            limit: 7,
            context: "drain".into(),
        };
        assert!(w.to_string().contains("7 cycles"));
        let l = SimError::CreditLeak {
            expected_outstanding: 4,
            actual_outstanding: 2,
            context: "input 1".into(),
        };
        assert!(l.to_string().contains("input 1"));
        let d = SimError::Divergence {
            check: "rtl-vs-behavioral".into(),
            detail: "departure schedules differ".into(),
        };
        assert!(d.to_string().contains("rtl-vs-behavioral"));
        assert!(d.to_string().contains("schedules differ"));
        let p = SimError::WorkerPanic {
            worker: 3,
            detail: "slot leak".into(),
        };
        assert!(p.to_string().contains("worker 3"));
        assert!(p.to_string().contains("slot leak"));
    }
}
