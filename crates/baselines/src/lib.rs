//! # baselines — every switch architecture the paper compares against
//!
//! §2 of the paper surveys the buffer organizations of figures 1 and 2 and
//! grounds its argument in quantitative results from the literature:
//! input FIFO queueing saturates at ≈ 58.6 % \[KaHM87\]; scheduled non-FIFO
//! input buffering approaches full throughput but with ≈ 2× the latency of
//! output queueing \[AOST93\]; for equal loss probability, shared buffering
//! needs far less memory than output queueing, which needs far less than
//! input smoothing \[HlKa88\]. This crate implements all of those systems so
//! the experiment harness can regenerate those numbers rather than quote
//! them.
//!
//! ## Model of time
//!
//! These are *slot-level* models, as in the cited literature: one slot =
//! one cell transmission time; each input receives at most one cell per
//! slot; each output transmits at most one cell per slot. (The paper's own
//! switch is modeled at word granularity in `switch-core`; the behavioral
//! bridge between the two granularities is exercised by the integration
//! tests.)
//!
//! All models implement [`CellSwitch`] so experiments sweep architectures
//! generically; [`harness::run`] measures utilization/latency/loss for any
//! model × workload pair. Shared buffering and output queueing are not
//! two models but two configurations of one pool of per-output FIFOs,
//! [`simkernel::SharedBuffer`] (see [`shared`]); the fabric's scalar
//! element is a third.
//!
//! ## Cost of a slot
//!
//! The harness calls `tick` and then `occupancy` once per slot, millions
//! of times per table, so neither allocates (a growing queue aside) nor
//! rescans. A slot's arrivals and departures are each a [`model::Row`]:
//! a port mask over a row of cells, walked by set bit. Port sets
//! (request relations, head-of-line contenders, matched ports) are
//! [`model::PortMask`] words kept current by every push and pop, every
//! `occupancy()` is a counter, and per-slot scratch lives in the model.
//! Random picks index a mask's set bits in ascending order, i.e. in the
//! order of the candidate list the mask stands for, so a model draws the
//! same random numbers for the same decisions as a list-based one would.
//! The price is a width limit: [`model::MAX_PORTS`] ports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block_crosspoint;
pub mod crosspoint;
pub mod harness;
pub mod input_fifo;
pub mod input_smoothing;
pub mod knockout;
pub mod model;
pub mod sched;
pub mod shared;
pub mod speedup;
pub mod voq;

pub use block_crosspoint::BlockCrosspointSwitch;
pub use crosspoint::CrosspointSwitch;
pub use harness::{run, RunStats};
pub use input_fifo::InputFifoSwitch;
pub use input_smoothing::InputSmoothingSwitch;
pub use knockout::KnockoutSwitch;
pub use model::{CellSwitch, PortMask, Row};
pub use sched::{IslipScheduler, PimScheduler, Rr2dScheduler, Scheduler};
pub use speedup::SpeedupSwitch;
pub use voq::VoqSwitch;
