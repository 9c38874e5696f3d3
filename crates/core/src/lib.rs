//! # switch-core — the pipelined-memory shared-buffer switch
//!
//! This crate implements the contribution of Katevenis, Vatsolaki &
//! Efthymiou, *"Pipelined Memory Shared Buffer for VLSI Switches"*
//! (SIGCOMM 1995): a single-chip crossbar switch whose shared buffer is a
//! chain of single-ported memory banks swept by operation *waves*.
//!
//! Two models are provided:
//!
//! * [`rtl::PipelinedSwitch`] — a **word-level, register-transfer-accurate
//!   model**: real input latch rows, a shared output register row, real
//!   SRAM banks (port-checked), a wave ring holding each stage-0 control
//!   word once (fig. 5: stage `k` obeys it `k` cycles later), the read/write
//!   wave arbiter, buffer management and automatic cut-through. Every
//!   timing claim of §3.2–§3.4 is observable on this model cycle by cycle.
//! * [`behavioral::BehavioralSwitch`] — a **cell-level model** with
//!   identical initiation semantics (one wave per cycle, read priority,
//!   staggered initiation) but packets abstracted to store entries —
//!   orders of magnitude faster, used for the statistical experiments.
//!
//! Both keep their packets in one store, [`bufmgr::BufferManager`] (free
//! list + per-output slot queues, one eviction rule), each with its own
//! per-slot tag.
//!
//! Plus:
//!
//! * [`halfq::HalfQuantumBuffer`] — the §3.5 half-quantum organization:
//!   two pipelined memories of `n` stages each, packets of `n` words, one
//!   read *and* one write initiation per cycle;
//! * [`credit::CreditedInput`] — link-level credit flow control as used by
//!   the Telegraphos prototypes, guaranteeing loss-free operation.
//!
//! ## The timing contract (fixed by the paper, enforced by tests)
//!
//! Let a packet of `S = n_in + n_out` words arrive on input `i`, word `k`
//! on the wire in cycle `a + k` and latched into input latch `L[i][k]` at
//! the end of that cycle. Then:
//!
//! * a **write wave** may initiate at any `ws ∈ [a+1, a+S]`; stage `k`
//!   writes `L[i][k]` into bank `k` during `ws + k`, always after the word
//!   was latched and before the next packet's word overwrites the latch —
//!   this is why *no input double buffering* is needed (§3.2);
//! * a **read wave** at `rs ≥ ws` reads bank `k` during `rs + k`, which
//!   never overtakes the write of the same slot; word `k` appears on the
//!   output link during `rs + k + 1`;
//! * with **cut-through** (§3.3), the read may fuse onto the write wave
//!   itself (`rs = ws`): the output register samples the word from the
//!   write bus, so the first word can leave in cycle `a + 2`;
//! * **one wave initiates per cycle** (bank 0 is single-ported); the
//!   arbiter gives priority to reads, and the resulting *staggered
//!   initiation* adds an expected `(p/4)·(n−1)/n` cycles of cut-through
//!   latency (§3.4) — measured by experiment E6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod behavioral;
pub mod bufmgr;
pub mod config;
pub mod credit;
mod ctl;
pub mod events;
pub mod faultsim;
pub mod halfq;
pub mod ibank;
pub mod policy;
pub mod recovery;
pub mod reference;
pub mod rtl;
mod sched;
pub mod vcroute;
pub mod widemem;
pub mod word;
pub mod wrr;

pub use arbiter::ArbiterPolicy;
pub use behavioral::BehavioralSwitch;
pub use bufmgr::BufferManager;
pub use config::SwitchConfig;
pub use credit::CreditedInput;
pub use events::IntegrityReason;
pub use faultsim::{Fault, FaultAction, FaultKind, FaultPlan, WireFaults};
pub use halfq::HalfQuantumBuffer;
pub use ibank::{InterleavedSwitch, InterleavedSwitchConfig};
pub use policy::{AdmitDecision, PolicyEngine, PolicyKind, PolicyView};
pub use recovery::{
    RecoveryConfig, RecoveryReport, RecoveryWindows, RetryConfig, RetryReceiver, RetrySender,
    RxVerdict,
};
pub use rtl::{DeliveredPacket, PipelinedSwitch};
pub use vcroute::{RoutingTable, TranslatedSwitch};
pub use widemem::{WideMemorySwitchRtl, WideSwitchConfig};
pub use word::{Switch, WordOrg, WordSwitch};
pub use wrr::WrrMux;
