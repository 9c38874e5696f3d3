//! Sharded fabric runtime: multi-stage networks of real switch elements.
//!
//! The paper closes by positioning its pipelined-memory shared-buffer
//! switch as a *building block* for larger multi-stage switches and
//! networks. This crate is that composition layer: a component-graph
//! runtime where every node is a real switch element — the cell-level
//! behavioral pipelined-memory switch, a word-level RTL organization, or
//! the scalar shared-buffer baseline — and every edge is a fixed-latency
//! link carrying [`simkernel::cell::Cell`]s.
//!
//! - [`topo`] — explicit topology builders (omega, banyan, two-tier
//!   folded Clos, three-tier fat-tree) with precomputed self-routing
//!   tables and a single-driver-per-port structural audit;
//! - [`element`] — the [`element::FabricElement`] adapters wrapping each
//!   `core` organization behind one windowed interface;
//! - [`runtime`] — the conservative run-ahead executor: each element
//!   advances as many link-latency windows per visit as its own inputs
//!   allow, on the calling thread or sharded across workers, bit-exact
//!   for any worker count (see `runtime` docs for the rule and the
//!   determinism argument);
//! - [`traffic`] — per-terminal seeded workloads (uniform, permutation,
//!   hotspot) whose streams are pure functions of `(seed, terminal)`.
//!
//! ```
//! use fabric::{Fabric, ElementKind, Pattern, Workload, topo};
//!
//! let mut f = Fabric::new(topo::omega(4, 3), ElementKind::Behavioral { slots: 16 });
//! let run = f.run(
//!     200, // injection slots
//!     64,  // drain slots
//!     &Workload { pattern: Pattern::Uniform, load: 0.6, seed: 7 },
//!     4,   // worker threads — the result is identical for any value
//! );
//! assert_eq!(run.offered, run.delivered_total() + run.dropped + run.residual);
//! ```

pub mod element;
pub mod runtime;
pub mod topo;
pub mod traffic;

pub use element::{Arrival, ElementKind, Emission, FabricElement};
pub use runtime::{Fabric, FabricRun};
pub use topo::{Target, Topology};
pub use traffic::{Pattern, TerminalSource, Workload};
