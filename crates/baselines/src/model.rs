//! The common interface of all slot-level switch models.

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

    /// Advance one slot. `arrivals[i]` is the cell arriving on input `i`;
    /// departures are written into `out[j]` for output `j` (pre-cleared by
    /// the implementation).
    fn tick(&mut self, now: Cycle, arrivals: &[Option<Cell>], out: &mut [Option<Cell>]);

    /// Cells currently buffered anywhere in the switch.
    fn occupancy(&self) -> usize;

    /// Cells dropped since construction.
    fn dropped(&self) -> u64;
}

/// Clear a departure buffer (helper for implementations).
pub fn clear_out(out: &mut [Option<Cell>]) {
    for o in out.iter_mut() {
        *o = None;
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
        fn tick(&mut self, _now: Cycle, _arr: &[Option<Cell>], out: &mut [Option<Cell>]) {
            clear_out(out);
        }
        fn occupancy(&self) -> usize {
            0
        }
        fn dropped(&self) -> u64 {
            0
        }
    }

    #[test]
    fn clear_out_clears() {
        let mut out = vec![Some(Cell::new(1, 0, 0, 0)), None];
        clear_out(&mut out);
        assert!(out.iter().all(Option::is_none));
        let mut n = Null(2);
        n.tick(0, &[None, None], &mut out);
        assert_eq!(n.ports(), 2);
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
