//! The common interface of all slot-level switch models.
//!
//! A slot's cells on either side of a switch are one [`Row`]: a
//! [`PortMask`] naming the ports that carry a cell, over a row of cells
//! indexed by port. The harness fills the arrival row over the source's
//! arrival mask; a model resets the departure row's mask and
//! [`Row::put`]s each cell it sends. Walking a row means walking its set
//! bits in ascending port order ([`Row::iter`]), so no per-port `Option`
//! is cleared or tested, and cells are visited in the order a per-port
//! scan would visit them.

use simkernel::cell::Cell;
use simkernel::ids::Cycle;
use simkernel::SplitMix64;

/// A slot-level `n×n` switch model.
///
/// Per slot: at most one arriving cell per input, at most one departing
/// cell per output. Cells that cannot be buffered are dropped and counted;
/// a model must never silently lose a cell (conservation is property-
/// tested across all implementations).
pub trait CellSwitch {
    /// Number of ports (inputs = outputs = n).
    fn ports(&self) -> usize;

    /// Advance one slot. `arrivals` holds the cell arriving on each input
    /// of its mask; the model resets `out.mask` and [`Row::put`]s each
    /// departure at its output.
    fn tick(&mut self, now: Cycle, arrivals: &Row, out: &mut Row);

    /// Cells currently buffered anywhere in the switch.
    fn occupancy(&self) -> usize;

    /// Cells dropped since construction.
    fn dropped(&self) -> u64;
}

/// One slot's cells on one side of a switch — the arrivals a harness
/// hands a model, or the departures the model hands back: `mask` names
/// the ports that carry a cell and `cells[p]` is port `p`'s cell. A cell
/// whose bit is clear is stale, so nothing is cleared port by port and
/// nothing branches on a per-port `Option`.
#[derive(Debug, Clone)]
pub struct Row {
    /// The ports that carry a cell.
    pub mask: PortMask,
    /// Per port, its cell; meaningful only where `mask` has the bit.
    pub cells: Vec<Cell>,
}

impl Row {
    /// An empty row over `n` ports (refused beyond [`MAX_PORTS`]).
    pub fn new(n: usize) -> Self {
        all_ports(n);
        Row {
            mask: 0,
            cells: vec![Cell::new(0, 0, 0, 0); n],
        }
    }

    /// Port `p` carries `cell`.
    #[inline]
    pub fn put(&mut self, p: usize, cell: Cell) {
        self.cells[p] = cell;
        self.mask |= port_bit(p);
    }

    /// Port `p`'s cell, if it carries one.
    pub fn get(&self, p: usize) -> Option<Cell> {
        (self.mask & port_bit(p) != 0).then(|| self.cells[p])
    }

    /// The `(port, cell)` pairs of the row in ascending port order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (usize, Cell)> + '_ {
        ports_in(self.mask).map(|p| (p, self.cells[p]))
    }
}

/// `Row::from([Some(a), None])`: the array form of the `FromIterator`
/// below.
impl<const N: usize> From<[Option<Cell>; N]> for Row {
    fn from(cells: [Option<Cell>; N]) -> Self {
        cells.into_iter().collect()
    }
}

/// Port `p` of the row carries the `p`-th item's cell, if any.
impl FromIterator<Option<Cell>> for Row {
    fn from_iter<I: IntoIterator<Item = Option<Cell>>>(items: I) -> Self {
        let items: Vec<Option<Cell>> = items.into_iter().collect();
        let mut row = Row::new(items.len());
        for (p, cell) in items.into_iter().enumerate() {
            if let Some(cell) = cell {
                row.put(p, cell);
            }
        }
        row
    }
}

/// A set of ports as one machine word: bit `p` set = port `p` is in the
/// set. Every request relation, contender set and matched-port set of
/// the crate is held this way, which caps the models at [`MAX_PORTS`].
pub type PortMask = u64;

/// Widest switch a [`PortMask`] can describe.
pub const MAX_PORTS: usize = PortMask::BITS as usize;

/// The set of all `n` ports. Constructors of the mask-based models call
/// this first, so a switch too wide for the representation is refused
/// with a message rather than built wrong.
#[inline]
pub fn all_ports(n: usize) -> PortMask {
    assert!(
        (1..=MAX_PORTS).contains(&n),
        "slot-level models take 1..={MAX_PORTS} ports (port sets are {MAX_PORTS}-bit masks), got {n}"
    );
    PortMask::MAX >> (MAX_PORTS - n)
}

/// The single-port set `{p}`.
#[inline]
pub fn port_bit(p: usize) -> PortMask {
    1 << p
}

/// The members of `mask` in ascending order.
#[inline]
pub(crate) fn ports_in(mut mask: PortMask) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let p = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            p
        })
    })
}

/// The `k`-th member (0-based, ascending) of `mask` — indexing the
/// candidate list a mask stands for, so a uniform draw `k` picks the same
/// port it would from the explicit list.
#[inline]
fn nth_port(mut mask: PortMask, k: usize) -> usize {
    debug_assert!(k < mask.count_ones() as usize);
    for _ in 0..k {
        mask &= mask - 1;
    }
    mask.trailing_zeros() as usize
}

/// A uniformly random member of `mask` (non-empty), for one draw.
#[inline]
pub(crate) fn random_port(mask: PortMask, rng: &mut SplitMix64) -> usize {
    nth_port(mask, rng.below_usize(mask.count_ones() as usize))
}

/// Round-robin pick: the first member of `mask` at or after `ptr`,
/// wrapping to the lowest member.
#[inline]
pub(crate) fn next_port_from(mask: PortMask, ptr: usize) -> Option<usize> {
    let at_or_after = mask & (PortMask::MAX << ptr);
    let pick = if at_or_after != 0 { at_or_after } else { mask };
    (pick != 0).then(|| pick.trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Null(usize);
    impl CellSwitch for Null {
        fn ports(&self) -> usize {
            self.0
        }
        fn tick(&mut self, _now: Cycle, _arr: &Row, out: &mut Row) {
            out.mask = 0;
        }
        fn occupancy(&self) -> usize {
            0
        }
        fn dropped(&self) -> u64 {
            0
        }
    }

    #[test]
    fn a_row_is_its_mask_over_its_cells() {
        let a = Cell::new(1, 0, 2, 0);
        let b = Cell::new(2, 3, 0, 0);
        let mut out = Row::from([Some(b), None, None, Some(a)]);
        assert_eq!(out.mask, port_bit(0) | port_bit(3));
        assert_eq!(out.iter().collect::<Vec<_>>(), [(0, b), (3, a)]);
        assert_eq!((out.get(0), out.get(1)), (Some(b), None));
        let mut n = Null(4);
        n.tick(0, &Row::new(4), &mut out);
        assert_eq!((out.mask, out.get(3)), (0, None), "a tick resets the mask");
        out.put(2, a);
        assert_eq!(out.iter().collect::<Vec<_>>(), [(2, a)]);
        assert_eq!(n.ports(), 4);
    }

    #[test]
    fn mask_helpers_index_the_ascending_member_list() {
        assert_eq!(all_ports(1), 1);
        assert_eq!(all_ports(5), 0b11111);
        assert_eq!(all_ports(MAX_PORTS), PortMask::MAX);
        let mask = port_bit(1) | port_bit(4) | port_bit(63);
        let members: Vec<usize> = ports_in(mask).collect();
        assert_eq!(members, [1, 4, 63]);
        for (k, &p) in members.iter().enumerate() {
            assert_eq!(nth_port(mask, k), p);
        }
        // Round robin: first member at or after the pointer, else wrap.
        assert_eq!(next_port_from(mask, 0), Some(1));
        assert_eq!(next_port_from(mask, 2), Some(4));
        assert_eq!(next_port_from(mask, 5), Some(63));
        assert_eq!(next_port_from(mask & !port_bit(63), 5), Some(1));
        assert_eq!(next_port_from(0, 3), None);
    }

    #[test]
    #[should_panic(expected = "slot-level models take 1..=64 ports")]
    fn more_ports_than_mask_bits_are_rejected() {
        all_ports(MAX_PORTS + 1);
    }
}
