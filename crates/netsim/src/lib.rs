//! # netsim — networks built from switches
//!
//! The paper's introduction places single-chip switches as "building
//! blocks for larger, multi-stage switches and networks"; its §2.1 quotes
//! \[Dally90\]: with wormhole routing, 20-flit messages and 16-flit buffers,
//! an input-queued network saturates at ≈ 25 % of link capacity (fig. 8,
//! 1 lane). This crate provides the two network-level substrates those
//! claims need:
//!
//! * [`wormhole`] — a flit-level k-ary mesh with wormhole routing and
//!   configurable virtual-channel lanes, reproducing the \[Dally90\]
//!   saturation behavior (experiment E2): deep messages + shallow FIFO
//!   buffers + 1 lane ⇒ heavy channel-blocking chains;
//! * [`rtlnet`] — chains of *word-level* pipelined switches with
//!   per-hop virtual-circuit label swapping and registered inter-switch
//!   wires: the Telegraphos system in miniature, cut-through compounding
//!   across hops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rtlnet;
pub mod wormhole;

pub use rtlnet::{ChainDelivery, RtlChain};
pub use wormhole::{MeshConfig, WormholeMesh};
