//! Packet and cell types shared across the workspace.
//!
//! Two granularities coexist:
//!
//! * [`Cell`] — the unit of the *cell-level* (behavioral) models used for
//!   statistical experiments: one fixed-size packet abstracted to a single
//!   token that occupies one buffer slot and one transmission slot. This is
//!   the granularity of the queueing literature the paper cites
//!   (\[KaHM87\], \[HlKa88\], \[AOST93\]).
//! * [`Packet`] — the unit of the *word-level* RTL models: a framed sequence
//!   of `size_words` link words, word 0 carrying the routing header. This is
//!   the granularity at which the pipelined memory itself operates.

use crate::ids::{Cycle, PortId};

/// Globally unique identity of a cell within one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub u64);

/// Globally unique identity of a packet within one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

/// A fixed-size cell for slotted, cell-level switch models.
///
/// Time for these models is slotted: one slot = the time to transmit one
/// cell on one link. Latency is measured in slots from `birth` to the slot
/// in which the cell completes transmission on its output link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Unique id (for conservation / ordering checks).
    pub id: CellId,
    /// Input port on which the cell arrived.
    pub src: PortId,
    /// Output port the cell is destined to.
    pub dst: PortId,
    /// Slot in which the cell arrived at the switch.
    pub birth: Cycle,
}

impl Cell {
    /// Construct a cell.
    pub fn new(id: u64, src: usize, dst: usize, birth: Cycle) -> Self {
        Cell {
            id: CellId(id),
            src: PortId(src),
            dst: PortId(dst),
            birth,
        }
    }
}

/// A multi-word packet for the word-level RTL models.
///
/// On the wire a packet is `size_words` consecutive link words; the header
/// (word 0) carries the destination. The RTL models move real 16-bit-ish
/// data words (stored as `u64` payloads) so that data-integrity checks can
/// verify the buffer end to end, not just the control path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Unique id.
    pub id: PacketId,
    /// Input port of arrival.
    pub src: PortId,
    /// Destination output port.
    pub dst: PortId,
    /// Number of link words (must be a multiple of the switch quantum).
    pub size_words: usize,
    /// Cycle in which word 0 appears on the input link.
    pub birth: Cycle,
    /// Payload words (length `size_words`); word 0 is the header.
    pub words: Vec<u64>,
}

impl Packet {
    /// Build a packet with a synthesized payload: word 0 is a header
    /// encoding `dst` and `id`, subsequent words are a deterministic
    /// function of `(id, index)` so corruption is detectable.
    pub fn synth(id: u64, src: usize, dst: usize, size_words: usize, birth: Cycle) -> Self {
        assert!(size_words >= 1, "packet must have at least a header word");
        let mut words = Vec::with_capacity(size_words);
        words.push(Self::encode_header(dst, id));
        for k in 1..size_words {
            words.push(Self::payload_word(id, k));
        }
        Packet {
            id: PacketId(id),
            src: PortId(src),
            dst: PortId(dst),
            size_words,
            birth,
            words,
        }
    }

    /// Header encoding: destination port in the low 8 bits, packet id
    /// above. The value `0xFF` in the low byte is the multicast escape
    /// (see [`Packet::encode_header_multicast`]), so unicast destinations
    /// are limited to `0..=254`.
    #[inline]
    pub fn encode_header(dst: usize, id: u64) -> u64 {
        debug_assert!(dst < 255, "header encodes unicast dst in 0..=254");
        (id << 8) | dst as u64
    }

    /// Inverse of [`Packet::encode_header`] (unicast headers only).
    pub fn decode_header(header: u64) -> (usize, u64) {
        debug_assert!(
            header & 0xff != 0xff,
            "multicast header decoded with the unicast decoder"
        );
        ((header & 0xff) as usize, header >> 8)
    }

    /// Multicast header: low byte `0xFF`, then a 16-bit output bitmask,
    /// then the id. Limits multicast switches to 16 outputs — ample for
    /// the paper's 4×4 / 8×8 / 16×16 geometries.
    pub fn encode_header_multicast(mask: u16, id: u64) -> u64 {
        debug_assert!(mask != 0, "multicast to nobody");
        (id << 24) | ((mask as u64) << 8) | 0xff
    }

    /// Decode any header into `(output bitmask, id)`: unicast headers
    /// yield a one-bit mask. A (corrupted) unicast destination too large
    /// for the mask decodes to the empty mask — an invalid header the
    /// switch's framing check rejects — rather than tripping a shift
    /// overflow in the decoder.
    #[inline]
    pub fn decode_header_any(header: u64) -> (u32, u64) {
        if header & 0xff == 0xff {
            (((header >> 8) & 0xffff) as u32, header >> 24)
        } else {
            let dst = (header & 0xff) as u32;
            (1u32.checked_shl(dst).unwrap_or(0), header >> 8)
        }
    }

    /// Build a multicast packet with the same synthetic payload scheme as
    /// [`Packet::synth`]. The `dst` field records the lowest destination;
    /// use [`Packet::decode_header_any`] on word 0 for the full set.
    pub fn synth_multicast(
        id: u64,
        src: usize,
        mask: u16,
        size_words: usize,
        birth: Cycle,
    ) -> Self {
        assert!(size_words >= 1 && mask != 0);
        let mut words = Vec::with_capacity(size_words);
        words.push(Self::encode_header_multicast(mask, id));
        for k in 1..size_words {
            words.push(Self::payload_word(id, k));
        }
        Packet {
            id: PacketId(id),
            src: PortId(src),
            dst: PortId(mask.trailing_zeros() as usize),
            size_words,
            birth,
            words,
        }
    }

    /// The deterministic payload word `k` of packet `id` (k ≥ 1).
    #[inline]
    pub fn payload_word(id: u64, k: usize) -> u64 {
        // SplitMix-style mix keeps words distinct across packets and
        // positions, which makes any mis-wired datapath fail loudly.
        let mut z = id
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(k as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^ (z >> 27)
    }

    /// Check that `words` round-trips: header decodes to `(dst, id)` and
    /// every payload word matches [`Packet::payload_word`].
    pub fn verify_integrity(&self) -> bool {
        if self.words.len() != self.size_words {
            return false;
        }
        let (dst, id) = Self::decode_header(self.words[0]);
        if dst != self.dst.index() || id != self.id.0 {
            return false;
        }
        self.words[1..]
            .iter()
            .enumerate()
            .all(|(i, &w)| w == Self::payload_word(self.id.0, i + 1))
    }
}

/// Per-idle-cycle header probability that keeps a link busy a fraction
/// `load` of the time when every packet occupies it for `words` cycles.
/// The experiment tables are pinned to this expression's rounding:
/// keep the operand order.
pub fn header_chance(load: f64, words: usize) -> f64 {
    if load >= 1.0 {
        1.0
    } else {
        load / (load + words as f64 * (1.0 - load))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_oversized_dst_decodes_to_empty_mask() {
        // A wire bit-flip can push the unicast dst byte past the mask
        // width; the decoder must yield the invalid empty mask, not
        // overflow the shift.
        let (mask, id) = Packet::decode_header_any((7 << 8) | 0x40);
        assert_eq!(mask, 0);
        assert_eq!(id, 7);
    }

    #[test]
    fn header_roundtrip() {
        for dst in 0..8 {
            for id in [0u64, 1, 255, 1 << 40] {
                let h = Packet::encode_header(dst, id);
                assert_eq!(Packet::decode_header(h), (dst, id));
                assert_eq!(Packet::decode_header_any(h), (1 << dst, id));
            }
        }
    }

    #[test]
    fn multicast_header_roundtrip() {
        for mask in [0b1u16, 0b1010, 0xffff] {
            for id in [0u64, 7, 1 << 30] {
                let h = Packet::encode_header_multicast(mask, id);
                assert_eq!(Packet::decode_header_any(h), (mask as u32, id));
            }
        }
    }

    #[test]
    fn synth_multicast_payload_matches_unicast_scheme() {
        let m = Packet::synth_multicast(9, 0, 0b110, 4, 0);
        let u = Packet::synth(9, 0, 1, 4, 0);
        assert_eq!(m.words[1..], u.words[1..], "same payload scheme");
        assert_eq!(m.dst.index(), 1, "lowest destination recorded");
    }

    #[test]
    fn synth_packet_verifies() {
        let p = Packet::synth(42, 1, 3, 8, 7);
        assert!(p.verify_integrity());
        assert_eq!(p.words.len(), 8);
    }

    #[test]
    fn corruption_detected() {
        let mut p = Packet::synth(42, 1, 3, 8, 7);
        p.words[5] ^= 1;
        assert!(!p.verify_integrity());
        let mut q = Packet::synth(42, 1, 3, 8, 7);
        q.words[0] ^= 0x100; // flip a bit of the id field
        assert!(!q.verify_integrity());
    }

    #[test]
    fn payload_words_distinct_across_packets() {
        assert_ne!(Packet::payload_word(1, 1), Packet::payload_word(2, 1));
        assert_ne!(Packet::payload_word(1, 1), Packet::payload_word(1, 2));
    }
}
