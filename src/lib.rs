//! # telegraphos — pipelined-memory shared-buffer VLSI switch, in simulation
//!
//! A full reproduction of Katevenis, Vatsolaki & Efthymiou, *"Pipelined
//! Memory Shared Buffer for VLSI Switches"* (SIGCOMM 1995), as a Rust
//! workspace. This root crate re-exports the workspace members and hosts
//! the runnable examples and the cross-crate integration tests.
//!
//! Start here:
//!
//! * [`switch_core::rtl::PipelinedSwitch`] — the paper's switch, word-
//!   accurate: input latch rows, wave-swept single-ported banks, shared
//!   output register row, automatic cut-through.
//! * [`switch_core::behavioral::BehavioralSwitch`] — the same semantics
//!   at cell level, for statistics.
//! * [`baselines`] — every architecture the paper compares against.
//! * [`fabric`] — the component-graph runtime: multi-stage networks of
//!   real elements, sharded bit-exactly across worker threads.
//! * [`vlsimodel`] — the silicon-area and RC-delay arithmetic of §4–5.
//! * `bench-harness` (`cargo run -p bench-harness --bin expt -- all`) —
//!   regenerates every table and figure; see EXPERIMENTS.md.
//!
//! ```
//! use telegraphos::switch_core::config::SwitchConfig;
//! use telegraphos::switch_core::rtl::PipelinedSwitch;
//! use telegraphos::simkernel::cell::Packet;
//!
//! // A 2x2 switch (4 stages, 4-word packets); send one packet in.
//! let mut sw = PipelinedSwitch::new(SwitchConfig::symmetric(2, 8));
//! let p = Packet::synth(1, 0, 1, 4, 0);
//! let mut first_out = None;
//! for k in 0..12 {
//!     let wire = [p.words.get(k).copied(), None];
//!     let now = sw.now();
//!     let out = sw.tick(&wire);
//!     if first_out.is_none() && out[1].is_some() {
//!         first_out = Some(now);
//!     }
//! }
//! // Automatic cut-through: first word out two cycles after the header.
//! assert_eq!(first_out, Some(2));
//! ```

pub use baselines;
pub use conformance;
pub use fabric;
pub use membank;
pub use netsim;
pub use simkernel;
pub use stats;
pub use switch_core;
pub use telemetry;
pub use traffic;
pub use vlsimodel;
