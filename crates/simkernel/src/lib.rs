//! # simkernel — cycle-accurate synchronous simulation kernel
//!
//! This crate is the substrate every other crate in the workspace builds on.
//! It models *synchronous digital hardware* the way an RTL designer thinks
//! about it:
//!
//! * time advances in integer [`Cycle`]s of a single clock, and a model
//!   advances one cycle per `tick`;
//! * randomness comes only from the seedable, reproducible
//!   [`rng::SplitMix64`], so every simulation in the workspace is
//!   deterministic given its seed.
//!
//! The kernel also carries the small vocabulary types shared across the
//! workspace ([`ids`], [`cell`], the set-bit walk of [`mask`]) and the
//! slot-level shared buffer ([`shared`]) that the zoo's shared and
//! output-queued switches and the fabric's scalar element are
//! configurations of.
//!
//! ## Design notes
//!
//! The kernel is deliberately synchronous and single-threaded: the paper's
//! claims are *cycle-level logical* properties (wave chasing, cut-through
//! timing, staggered initiation), and a deterministic synchronous model is
//! both the most faithful and the most testable way to express them. There
//! is no event queue — every component is evaluated every *active* cycle,
//! exactly as every flip-flop in a chip sees every clock edge. Idle spans
//! are the exception: the [`horizon`] fast-forward kernel lets a model
//! report the earliest cycle at which its state can change so drivers can
//! jump the clock across dead time in O(1), bit-exactly equivalent to
//! dense stepping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod error;
pub mod horizon;
pub mod ids;
pub mod mask;
pub mod rng;
pub mod shared;
pub mod trace;
pub mod watchdog;

pub use cell::{Cell, CellId, Packet, PacketId};
pub use error::{run_until_quiescent, run_until_quiescent_escalating, SimError};
pub use horizon::{advance_to_batched, BatchTick, Horizon};
pub use ids::{Addr, Cycle, PortId, StageId};
pub use mask::{bits, BitWord};
pub use rng::{split_seed, SplitMix64};
pub use shared::SharedBuffer;
pub use trace::{Trace, TraceEntry};
