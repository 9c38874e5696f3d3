//! # telemetry — structured probes and their consumers
//!
//! Observability layer for the switch models (DESIGN.md §10). The split
//! is strict:
//!
//! * **Probes live in the models.** Every switch model owns an
//!   `Option<ProbeHandle>` through its control plane (the memories
//!   emit nothing); emission sites are written as
//!   `if let Some(p) = &self.probe { p.emit(cycle, ProbeEvent::…) }`
//!   so that with no probe attached the hot path pays exactly one
//!   predictable branch and constructs nothing — the perf gate
//!   (`expt bench`) holds this property.
//! * **Sinks live in the harness.** A [`Probe`] implementation decides
//!   what to do with the stream: record it ([`Recorder`]), aggregate it
//!   ([`metrics::Metrics`]), discard it ([`NullSink`]), or fan it out
//!   ([`Fanout`]).
//! * **Consumers derive views.** The VCD exporter ([`vcd`]), the metrics
//!   JSON ([`metrics`]), and the post-mortem dump ([`flight`]) are all
//!   pure functions of the recorded stream — the fig. 5 control-signal
//!   table is one more derived view ([`vcd::fig5_view`]), not a parallel
//!   tracing mechanism.
//!
//! Storage is [`simkernel::Trace`] throughout: the flight recorder is a
//! bounded trace of [`ProbeEvent`]s, the metrics time series are bounded
//! traces of `u64` samples. There is one tracing engine in the
//! workspace, and this crate is its front end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod flight;
pub mod metrics;
pub mod probe;
pub mod vcd;

pub use event::{ArbOutcome, DropReason, FaultTag, GaugeKind, ProbeEvent, RecoveryTag, WaveDir};
pub use probe::{fanout, Fanout, NullSink, Probe, ProbeHandle, Recorder, Shared, SharedRecorder};
