//! # stats — measurement utilities for switch simulations
//!
//! Every experiment in the workspace reports one or more of: carried
//! throughput, packet/cell latency, and loss probability. This crate holds
//! the collectors those experiments share:
//!
//! * [`Histogram`] — integer-valued histogram with exact percentiles and an
//!   exact mean (integer sum ÷ count);
//! * [`LatencyStats`] — latency collector (mean, percentiles) with warmup
//!   filtering.
//!
//! Carried throughput needs no collector of its own: it is a ratio of
//! counts (`baselines::harness`), and a saturation throughput is that
//! ratio at offered load 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod latency;

pub use histogram::Histogram;
pub use latency::LatencyStats;
