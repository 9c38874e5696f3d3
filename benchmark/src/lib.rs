//! End-to-end and per-layer benchmark of the pipelined-memory shared-buffer
//! simulator. Every layer is measured from outside, by timing calls into the
//! crates' public functions; see `README.md` for the method and the tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod compare;
pub mod contract;
pub mod harness;
pub mod host;
pub mod json;
pub mod ladder;
pub mod layers;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
