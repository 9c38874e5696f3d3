//! Cycle-stamped event traces.
//!
//! `Trace<E>` is the single storage engine behind every event stream in
//! the workspace: the telemetry crate's flight recorder wraps a bounded
//! trace, its metrics pipeline stores ring-buffered time series as
//! `Trace<u64>`, and directed tests assert on exact event timing (e.g.
//! "the cut-through word left on the output link exactly 2 cycles after
//! it arrived").
//!
//! Bounded traces are O(1) ring buffers: when full, recording one event
//! evicts exactly the oldest retained entry and increments the drop
//! counter, so `recorded() == len() + dropped()` holds at all times —
//! the accounting a post-mortem dump relies on to say "window shows the
//! last K of N events".

use crate::ids::Cycle;
use std::collections::VecDeque;
use std::fmt;

/// One trace record: an event of type `E` observed at a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry<E> {
    /// Cycle at which the event was observed.
    pub cycle: Cycle,
    /// The event payload.
    pub event: E,
}

/// An append-only, optionally bounded event trace.
///
/// When constructed with a capacity, the trace keeps only the most recent
/// `capacity` entries (a flight recorder); unbounded traces keep everything
/// (for short directed tests).
#[derive(Debug, Clone)]
pub struct Trace<E> {
    entries: VecDeque<TraceEntry<E>>,
    capacity: Option<usize>,
    dropped: u64,
    recorded: u64,
}

impl<E> Default for Trace<E> {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl<E> Trace<E> {
    /// A trace that keeps every entry.
    pub fn unbounded() -> Self {
        Trace {
            entries: VecDeque::new(),
            capacity: None,
            dropped: 0,
            recorded: 0,
        }
    }

    /// A flight-recorder trace keeping only the last `capacity` entries.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "bounded trace needs capacity > 0");
        Trace {
            entries: VecDeque::with_capacity(capacity),
            capacity: Some(capacity),
            dropped: 0,
            recorded: 0,
        }
    }

    /// Record an event. O(1): a full bounded trace evicts its oldest
    /// entry (ring-buffer pop) rather than shifting the whole backlog.
    pub fn record(&mut self, cycle: Cycle, event: E) {
        self.recorded += 1;
        if let Some(cap) = self.capacity {
            if self.entries.len() == cap {
                self.entries.pop_front();
                self.dropped += 1;
            }
        }
        self.entries.push_back(TraceEntry { cycle, event });
    }

    /// Retained entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEntry<E>> {
        self.entries.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total events ever offered to [`Trace::record`], retained or not.
    /// Invariant: `recorded() == len() as u64 + dropped()`.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Number of events evicted from a bounded window.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained entries at a given cycle.
    pub fn at(&self, cycle: Cycle) -> impl Iterator<Item = &E> {
        self.entries
            .iter()
            .filter(move |e| e.cycle == cycle)
            .map(|e| &e.event)
    }

    /// First retained entry matching a predicate.
    pub fn find(&self, mut pred: impl FnMut(&E) -> bool) -> Option<&TraceEntry<E>> {
        self.entries.iter().find(|e| pred(&e.event))
    }

    /// Drop all retained entries (counters keep accumulating).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl<E: fmt::Display> Trace<E> {
    /// Render the trace as a simple `cycle: event` listing.
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut s = String::new();
        for e in &self.entries {
            let _ = writeln!(s, "{:>8}: {}", e.cycle, e.event);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_keeps_all() {
        let mut t = Trace::unbounded();
        for c in 0..100u64 {
            t.record(c, c * 2);
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.recorded(), 100);
    }

    #[test]
    fn bounded_evicts_oldest_and_accounts_exactly() {
        // A bounded flight recorder must report drops *exactly*: after N
        // records into a capacity-K ring, dropped == N - K, the retained
        // window is the most recent K entries in order, and the total
        // offered count reconciles: recorded == len + dropped.
        let mut t = Trace::bounded(3);
        for c in 0..10u64 {
            t.record(c, c);
        }
        assert_eq!(t.dropped(), 7);
        assert_eq!(t.len(), 3);
        assert_eq!(t.recorded(), 10);
        assert_eq!(t.recorded(), t.len() as u64 + t.dropped());
        let kept: Vec<u64> = t.iter().map(|e| e.event).collect();
        assert_eq!(kept, vec![7, 8, 9]);
    }

    #[test]
    fn at_filters_by_cycle() {
        let mut t = Trace::unbounded();
        t.record(5, "a");
        t.record(5, "b");
        t.record(6, "c");
        let at5: Vec<&&str> = t.at(5).collect();
        assert_eq!(at5.len(), 2);
    }

    #[test]
    fn find_locates_entry() {
        let mut t = Trace::unbounded();
        t.record(1, 10);
        t.record(2, 20);
        assert_eq!(t.find(|e| *e == 20).unwrap().cycle, 2);
        assert!(t.find(|e| *e == 99).is_none());
    }

    #[test]
    fn render_formats_lines() {
        let mut t = Trace::unbounded();
        t.record(3, "hello");
        assert!(t.render().contains("3: hello"));
    }
}
