//! Small vocabulary types shared by every crate in the workspace.
//!
//! These are deliberately thin newtypes: they cost nothing at runtime but
//! keep "port 3" from being confused with "address 3" at compile time —
//! the classic off-by-one-dimension bugs of switch simulators.

use std::fmt;

/// Simulation time, measured in clock cycles of the switch core.
///
/// The paper assumes a single clock domain in which the memory cycle time
/// equals the link cycle time (one word per link per cycle), so a single
/// `u64` cycle counter suffices for the whole system.
pub type Cycle = u64;

/// Identifies one switch port (an incoming or an outgoing link).
///
/// Ports are numbered `0..n`. Whether a `PortId` names an input or an output
/// is determined by context (the switch structs keep them in separate
/// fields); the type exists to distinguish ports from addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub usize);

impl PortId {
    /// The underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A buffer address: one row of the shared buffer, i.e. one packet slot.
///
/// All words of one packet are stored *at the same address* in every memory
/// stage (§3.2 of the paper), so a single `Addr` identifies a whole packet
/// slot across the bank chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub usize);

impl Addr {
    /// The underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(PortId(2).to_string(), "p2");
        assert_eq!(Addr(9).to_string(), "a9");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(PortId(1) < PortId(2));
        assert!(Addr(0) < Addr(10));
    }
}
