//! The flight recorder: a bounded [`Recorder`] window plus a post-mortem
//! renderer, so every fault or divergence report ships with the last-K
//! cycles of structured events leading up to it.
//!
//! The fault-injection watchdog and the conformance fuzzer re-run a
//! shrunk failing scenario with a bounded recorder attached and embed
//! [`post_mortem`]'s output in their failure reports.

use crate::event::ProbeEvent;
use crate::probe::{Recorder, SharedRecorder};
use std::fmt::Write as _;

/// Render a bounded recorder's window as a post-mortem dump: a header
/// with window/drop accounting (`headline` names what went wrong),
/// followed by the retained `cycle: event` listing.
pub fn post_mortem(headline: &str, recorder: &Recorder) -> String {
    let trace = recorder.trace();
    let mut s = String::new();
    let _ = writeln!(s, "=== post-mortem: {headline} ===");
    let window = trace.iter().next().map(|first| {
        let last = trace.iter().last().expect("non-empty trace has a last");
        (first.cycle, last.cycle)
    });
    match window {
        Some((first, last)) => {
            let _ = writeln!(
                s,
                "window: cycles {first}..={last} ({} events retained, {} older evicted)",
                trace.len(),
                trace.dropped()
            );
        }
        None => {
            let _ = writeln!(s, "window: empty (no events recorded)");
        }
    }
    for e in trace.iter() {
        let _ = writeln!(s, "  {:>6}: {}", e.cycle, e.event);
    }
    s.push_str("=== end post-mortem ===\n");
    s
}

/// [`post_mortem`] over a shared recorder (the usual harness shape).
pub fn post_mortem_shared(headline: &str, recorder: &SharedRecorder) -> String {
    recorder.with(|r| post_mortem(headline, r))
}

/// Count retained events matching `pred` — convenience for asserting a
/// dump window contains the interesting event.
pub fn count_matching(recorder: &SharedRecorder, pred: impl Fn(&ProbeEvent) -> bool) -> usize {
    recorder.with(|r| r.iter().filter(|e| pred(&e.event)).count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DropReason;
    use crate::probe::{Probe, Shared};

    #[test]
    fn dump_reports_window_and_evictions() {
        let mut rec = Recorder::bounded(3);
        for c in 0..8u64 {
            rec.record(
                c,
                ProbeEvent::WriteWave {
                    input: c as usize,
                    addr: 0,
                },
            );
        }
        rec.record(
            8,
            ProbeEvent::Drop {
                id: 7,
                reason: DropReason::BufferFull,
            },
        );
        let dump = post_mortem("forced drop", &rec);
        assert!(dump.contains("post-mortem: forced drop"));
        assert!(dump.contains("cycles 6..=8 (3 events retained, 6 older evicted)"));
        assert!(dump.contains("drop id=0x7 (buffer-full)"));
        assert!(!dump.contains("write-wave in0"), "evicted events absent");
    }

    #[test]
    fn empty_window_renders_cleanly() {
        let rec = Recorder::bounded(4);
        let dump = post_mortem("nothing happened", &rec);
        assert!(dump.contains("window: empty"));
    }

    #[test]
    fn count_matching_filters_the_window() {
        let rec = Shared::new(Recorder::unbounded());
        let h = rec.handle();
        h.emit(1, ProbeEvent::WriteWave { input: 0, addr: 0 });
        h.emit(
            2,
            ProbeEvent::ReadWave {
                output: 0,
                addr: 1,
                fused: false,
            },
        );
        let writes = count_matching(&rec, |e| matches!(e, ProbeEvent::WriteWave { .. }));
        assert_eq!(writes, 1);
    }
}
