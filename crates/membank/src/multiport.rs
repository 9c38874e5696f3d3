//! True multi-port memory — the golden reference.
//!
//! §3.1: "True multi-port memory is very expensive, because each storage
//! bit must have multiple word lines and bit-lines." It is, however, the
//! *behavioral ideal* every cheaper organization approximates: any number
//! of concurrent reads and writes per cycle (up to its declared port
//! counts), no bank conflicts ever. The test suites use it as the golden
//! model: a correct pipelined/wide/interleaved buffer must return the same
//! data a multi-port memory would, just with the organization's documented
//! timing.

use simkernel::ids::{Addr, Cycle};
use std::fmt;

/// Error: more concurrent accesses than declared ports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortBudgetExceeded {
    /// Cycle of the violation.
    pub cycle: Cycle,
    /// "read" or "write".
    pub kind: &'static str,
    /// Declared budget.
    pub budget: u32,
}

impl fmt::Display for PortBudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {}: more than {} {} ports used",
            self.cycle, self.budget, self.kind
        )
    }
}

impl std::error::Error for PortBudgetExceeded {}

/// A word-addressed memory with `r` read ports and `w` write ports.
#[derive(Debug, Clone)]
pub struct MultiPortMemory {
    data: Vec<u64>,
    read_ports: u32,
    write_ports: u32,
    cycle: Cycle,
    reads: u32,
    writes: u32,
}

impl MultiPortMemory {
    /// `depth` words with the given port counts.
    pub fn new(depth: usize, read_ports: u32, write_ports: u32) -> Self {
        assert!(depth > 0 && read_ports > 0 && write_ports > 0);
        MultiPortMemory {
            data: vec![0; depth],
            read_ports,
            write_ports,
            cycle: 0,
            reads: 0,
            writes: 0,
        }
    }

    /// Open a new cycle.
    pub fn begin_cycle(&mut self, cycle: Cycle) {
        if cycle != self.cycle {
            self.cycle = cycle;
            self.reads = 0;
            self.writes = 0;
        }
    }

    /// Read a word (consumes one read port).
    pub fn read(&mut self, addr: Addr) -> Result<u64, PortBudgetExceeded> {
        if self.reads >= self.read_ports {
            return Err(PortBudgetExceeded {
                cycle: self.cycle,
                kind: "read",
                budget: self.read_ports,
            });
        }
        self.reads += 1;
        Ok(self.data[addr.index()])
    }

    /// Write a word (consumes one write port).
    pub fn write(&mut self, addr: Addr, v: u64) -> Result<(), PortBudgetExceeded> {
        if self.writes >= self.write_ports {
            return Err(PortBudgetExceeded {
                cycle: self.cycle,
                kind: "write",
                budget: self.write_ports,
            });
        }
        self.writes += 1;
        self.data[addr.index()] = v;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_access_within_budget() {
        // A 2n-port memory, as a shared buffer for a 4×4 switch would need.
        let mut m = MultiPortMemory::new(64, 4, 4);
        m.begin_cycle(0);
        for i in 0..4 {
            m.write(Addr(i), i as u64).unwrap();
        }
        for i in 0..4 {
            m.read(Addr(i)).unwrap();
        }
        assert!(m.read(Addr(0)).is_err());
        assert!(m.write(Addr(0), 9).is_err());
    }

    #[test]
    fn budget_resets_per_cycle() {
        let mut m = MultiPortMemory::new(4, 1, 1);
        m.begin_cycle(0);
        m.read(Addr(0)).unwrap();
        assert!(m.read(Addr(0)).is_err());
        m.begin_cycle(1);
        assert!(m.read(Addr(0)).is_ok());
    }

    #[test]
    fn data_roundtrip() {
        let mut m = MultiPortMemory::new(4, 2, 2);
        m.begin_cycle(0);
        m.write(Addr(1), 0xABCD).unwrap();
        m.begin_cycle(1);
        assert_eq!(m.read(Addr(1)).unwrap(), 0xABCD);
    }

    #[test]
    fn error_message() {
        let mut m = MultiPortMemory::new(4, 1, 1);
        m.begin_cycle(7);
        m.read(Addr(0)).unwrap();
        let e = m.read(Addr(0)).unwrap_err();
        assert!(e.to_string().contains("cycle 7"));
    }
}
