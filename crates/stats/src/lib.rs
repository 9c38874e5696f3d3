//! # stats — measurement utilities for switch simulations
//!
//! Every experiment in the workspace reports one or more of: carried
//! throughput, packet/cell latency, and loss probability. This crate holds
//! the collectors those experiments share:
//!
//! * [`Histogram`] — integer-valued histogram with exact percentiles and an
//!   exact mean (integer sum ÷ count);
//! * [`LatencyStats`] — latency collector (mean, percentiles) with warmup
//!   filtering;
//! * [`ThroughputMeter`] / [`LossMeter`] — offered vs carried accounting;
//! * [`saturation_search`] — bisection for the saturation load of a switch,
//!   the quantity behind the paper's "input queueing saturates at ≈ 58.6 %"
//!   claim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod latency;
pub mod meters;
pub mod saturation;

pub use histogram::Histogram;
pub use latency::LatencyStats;
pub use meters::{LossMeter, ThroughputMeter};
pub use saturation::{saturation_search, SaturationResult};
