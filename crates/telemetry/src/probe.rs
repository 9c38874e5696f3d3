//! The probe API: the trait models emit into, the handle they hold, and
//! the stock sinks.
//!
//! A model stores `Option<ProbeHandle>`; the `None` arm is the entire
//! disabled cost. `ProbeHandle` is a shared, interior-mutable reference
//! (`Rc<RefCell<dyn Probe>>`) so one sink can watch several models — or
//! several sinks one model, via [`Fanout`] — without threading mutable
//! borrows through tick phases.
//!
//! There is one way to switch telemetry on: build the sink, keep it, and
//! hand the model a handle — `let rec = Shared::new(Recorder::unbounded())`
//! (or `::bounded(window)` for a flight recorder), then
//! `model.attach_probe(rec.handle())`.

use crate::event::ProbeEvent;
use simkernel::ids::Cycle;
use simkernel::trace::{Trace, TraceEntry};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// A consumer of probe events.
pub trait Probe {
    /// Observe one event at `cycle`. Events arrive in nondecreasing
    /// cycle order from any single model.
    fn record(&mut self, cycle: Cycle, event: ProbeEvent);
}

/// The do-nothing sink: attaching it exercises every emission site at
/// (almost) zero cost — the property test and the perf gate both use it
/// to pin "telemetry never changes behavior, enabled or not".
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Probe for NullSink {
    #[inline(always)]
    fn record(&mut self, _cycle: Cycle, _event: ProbeEvent) {}
}

/// A cloneable, type-erased reference to a [`Probe`] that models hold.
#[derive(Clone)]
pub struct ProbeHandle(Rc<RefCell<dyn Probe>>);

impl ProbeHandle {
    /// Wrap any sink into a handle a model can hold.
    pub fn new(probe: impl Probe + 'static) -> Self {
        ProbeHandle(Rc::new(RefCell::new(probe)))
    }

    /// Deliver one event to the sink.
    #[inline]
    pub fn emit(&self, cycle: Cycle, event: ProbeEvent) {
        self.0.borrow_mut().record(cycle, event);
    }
}

impl fmt::Debug for ProbeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ProbeHandle(..)")
    }
}

/// A sink shared between the attaching harness and the models: the
/// harness keeps the [`Shared`], hands [`Shared::handle`]s to models,
/// and inspects the sink afterwards through [`Shared::with`].
#[derive(Debug)]
pub struct Shared<T: Probe + 'static>(Rc<RefCell<T>>);

impl<T: Probe + 'static> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Rc::clone(&self.0))
    }
}

impl<T: Probe + 'static> Shared<T> {
    /// Share a sink.
    pub fn new(sink: T) -> Self {
        Shared(Rc::new(RefCell::new(sink)))
    }

    /// A handle for a model to hold (aliases this sink).
    pub fn handle(&self) -> ProbeHandle {
        ProbeHandle(Rc::clone(&self.0) as Rc<RefCell<dyn Probe>>)
    }

    /// Inspect or mutate the shared sink.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.0.borrow_mut())
    }
}

/// Records the probe stream into a [`Trace`] — the single storage engine
/// behind directed-test assertions, the VCD exporter, and the flight
/// recorder (`bounded` construction).
#[derive(Debug, Clone)]
pub struct Recorder {
    trace: Trace<ProbeEvent>,
}

impl Recorder {
    /// Keep every event (directed tests, short runs).
    pub fn unbounded() -> Self {
        Recorder {
            trace: Trace::unbounded(),
        }
    }

    /// Keep only the last `window` events (flight recorder).
    pub fn bounded(window: usize) -> Self {
        Recorder {
            trace: Trace::bounded(window),
        }
    }

    /// The recorded trace.
    pub fn trace(&self) -> &Trace<ProbeEvent> {
        &self.trace
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEntry<ProbeEvent>> {
        self.trace.iter()
    }

    /// Render as a `cycle: event` listing.
    pub fn render(&self) -> String {
        self.trace.render()
    }
}

impl Probe for Recorder {
    fn record(&mut self, cycle: Cycle, event: ProbeEvent) {
        self.trace.record(cycle, event);
    }
}

/// A [`Recorder`] shared between harness and model.
pub type SharedRecorder = Shared<Recorder>;

impl SharedRecorder {
    /// A cloned snapshot of the recorded events, oldest first.
    pub fn entries(&self) -> Vec<TraceEntry<ProbeEvent>> {
        self.with(|r| r.iter().cloned().collect())
    }

    /// Render the recorded stream.
    pub fn render(&self) -> String {
        self.with(|r| r.render())
    }
}

/// Duplicates the stream to several sinks (e.g. a flight recorder and a
/// metrics pipeline watching the same run).
pub struct Fanout {
    sinks: Vec<ProbeHandle>,
}

impl Probe for Fanout {
    fn record(&mut self, cycle: Cycle, event: ProbeEvent) {
        for s in &self.sinks {
            s.emit(cycle, event);
        }
    }
}

/// Build a fanout handle over `sinks`.
pub fn fanout(sinks: Vec<ProbeHandle>) -> ProbeHandle {
    ProbeHandle::new(Fanout { sinks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DropReason;

    #[test]
    fn recorder_retains_stream_in_order() {
        let rec = SharedRecorder::new(Recorder::unbounded());
        let h = rec.handle();
        h.emit(
            3,
            ProbeEvent::HeaderArrived {
                input: 0,
                id: 1,
                dst: 1,
            },
        );
        h.emit(
            5,
            ProbeEvent::Drop {
                id: 1,
                reason: DropReason::BufferFull,
            },
        );
        let ev = rec.entries();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].cycle, 3);
        assert_eq!(ev[1].cycle, 5);
        assert!(rec.render().contains("drop id=0x1 (buffer-full)"));
    }

    #[test]
    fn fanout_duplicates_to_every_sink() {
        let a = SharedRecorder::new(Recorder::unbounded());
        let b = SharedRecorder::new(Recorder::bounded(1));
        let h = fanout(vec![a.handle(), b.handle()]);
        for c in 0..4u64 {
            h.emit(
                c,
                ProbeEvent::Gauge {
                    gauge: crate::event::GaugeKind::Occupancy,
                    index: 0,
                    value: c,
                },
            );
        }
        assert_eq!(a.entries().len(), 4);
        assert_eq!(b.entries().len(), 1, "bounded sink keeps the window");
        assert_eq!(b.with(|r| r.trace().dropped()), 3);
    }

    #[test]
    fn null_sink_accepts_everything() {
        let h = ProbeHandle::new(NullSink);
        h.emit(
            0,
            ProbeEvent::HeaderArrived {
                input: 1,
                id: 2,
                dst: 0,
            },
        );
    }
}
