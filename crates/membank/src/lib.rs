//! # membank — memory substrate for VLSI switch buffers
//!
//! The paper's subject is *how to organize the buffer memory of a switch*.
//! This crate implements every organization it discusses, as functional
//! cycle-accurate models with **port-discipline checking**: each model
//! tracks the operations issued to each bank in each cycle and refuses
//! (an error, or a panic on the pipelined memory's stage ports) anything a
//! real single-ported SRAM array could not do: executable versions of the
//! feasibility arguments in §3 and §5 of the paper:
//!
//! * [`bank::SramBank`] — one SRAM array: single- or dual-ported, at most
//!   one operation per port per cycle;
//! * [`pipelined::PipelinedMemory`] — the paper's contribution (§3.2): a
//!   chain of single-ported banks (one slot-major array) swept by address
//!   *waves*, one initiation per cycle; `switch-core`'s RTL runs its ring
//!   word by word;
//! * [`wide::WideMemory`] — the wide-word organization of \[KaSC91\] (§3.1):
//!   one whole packet per memory word, one operation per cycle;
//! * [`interleaved::InterleavedMemory`] — PRIZMA-style interleaving
//!   (\[DeEI95\], §5.3): one packet per bank, per-bank word streams;
//! * [`multiport::MultiPortMemory`] — the "true multi-port" reference the
//!   paper dismisses as too expensive (§3.1), used here as a golden model
//!   for equivalence tests.
//!
//! Data words are `u64` (the models are width-agnostic; the physical width
//! in bits is carried as metadata and used by `vlsimodel`, not here).
//!
//! The models store and return outcomes. Counters, probes and the
//! recovery ladder belong to `switch-core`'s control plane (DESIGN.md
//! §14), which arms and reads the SEC-DED codes and spares of
//! [`pipelined::PipelinedMemory`], [`wide::WideMemory`] and
//! [`interleaved::InterleavedMemory`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod interleaved;
pub mod multiport;
pub mod pipelined;
pub mod wide;

pub use bank::{EccOutcome, PortKind, PortViolation, SramBank};
pub use interleaved::{BankId, InterleavedMemory};
pub use multiport::MultiPortMemory;
pub use pipelined::{CompletedRead, InitiateError, PipelinedMemory, Wave, WaveOp};
pub use wide::WideMemory;
