//! Process-wide watchdog budget and expiry ledger.
//!
//! Every drain loop in the workspace needs a cycle budget, and the `expt`
//! CLI needs one knob (`--watchdog <cycles>`) that reaches all of them
//! without threading a parameter through every campaign signature. This
//! module is that knob: a process-global budget override plus a counter
//! of watchdog expiries, so the CLI can both tighten the leash and report
//! honestly when the leash was hit.
//!
//! The globals are plain atomics: campaigns run their points on worker
//! threads (`sweep::map`), and an expiry noted on any worker must be
//! visible to the main thread's exit-code decision.

use std::sync::atomic::{AtomicU64, Ordering};

/// 0 means "no override installed" — callers fall back to their default.
static LIMIT: AtomicU64 = AtomicU64::new(0);
static EXPIRIES: AtomicU64 = AtomicU64::new(0);

/// Install a process-wide drain budget override (cycles). Passing 0
/// removes the override.
pub fn set_limit(cycles: u64) {
    LIMIT.store(cycles, Ordering::Relaxed);
}

/// The installed budget override, or `default` when none is installed.
pub fn limit_or(default: u64) -> u64 {
    match LIMIT.load(Ordering::Relaxed) {
        0 => default,
        n => n,
    }
}

/// Record one watchdog expiry (a drain that exhausted its budget and, if
/// escalation was attempted, stayed wedged through it).
pub fn note_expiry() {
    EXPIRIES.fetch_add(1, Ordering::Relaxed);
}

/// Watchdog expiries recorded so far in this process.
pub fn expiries() -> u64 {
    EXPIRIES.load(Ordering::Relaxed)
}

/// Expiries since the given baseline — the CLI snapshots `expiries()`
/// before a run and asks for the delta after.
pub fn expiries_since(baseline: u64) -> u64 {
    expiries().saturating_sub(baseline)
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test exercises the whole module: the globals are process-wide,
    // so independent #[test]s would race each other's stores.
    #[test]
    fn override_and_ledger_roundtrip() {
        assert_eq!(limit_or(40_000), 40_000, "no override installed yet");
        set_limit(500);
        assert_eq!(limit_or(40_000), 500);
        set_limit(0);
        assert_eq!(limit_or(7), 7, "override removable");

        let base = expiries();
        note_expiry();
        note_expiry();
        assert_eq!(expiries_since(base), 2);
    }
}
