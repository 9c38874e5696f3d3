//! Buffer management: free list and per-output descriptor queues.
//!
//! The paper keeps buffer (address) management deliberately orthogonal to
//! the pipelined memory itself (§3.3: "the circuits that provide these …
//! are independent of the pipelined memory"). This module implements the
//! scheme the Telegraphos switches use (\[Kate94\], \[KVES95\]): a free list
//! of packet slots plus one FIFO descriptor queue per outgoing link.
//!
//! A slot's lifetime: allocated when a packet header arrives → its
//! descriptor is queued on the destination's output queue → the write wave
//! is initiated (descriptor becomes *readable*) → a read wave pops the
//! descriptor and **frees the slot immediately**, because any later write
//! wave to the same address trails the read wave stage by stage and can
//! never overtake it. This early free is a distinctive economy of the
//! pipelined organization: a slot is held only from header arrival to read
//! initiation, not to read completion.
//!
//! Every path that frees a slot ahead of its reads — eviction, and the
//! forced release of the truncation and overrun paths — takes the slot's
//! entries off its destination queues, so every queued entry is live.

use crate::events::IntegrityReason;
use simkernel::bits;
use simkernel::ids::{Addr, Cycle, PortId};
use std::collections::VecDeque;

/// Per-packet bookkeeping while the packet owns a buffer slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Descriptor {
    /// Packet id (decoded from the header).
    pub id: u64,
    /// Input link of arrival.
    pub input: PortId,
    /// Primary (lowest-numbered) destination output link.
    pub dst: PortId,
    /// Full destination set as a bitmask (bit j = output j). Unicast
    /// packets have exactly one bit set; multicast packets several — the
    /// slot is freed when the *last* copy's read wave initiates.
    pub dsts: u32,
    /// Cycle the header arrived.
    pub birth: Cycle,
    /// Cycle the write wave was initiated, once scheduled.
    pub write_start: Option<Cycle>,
    /// Per-slot checksum computed at ingress once the tail word arrived
    /// (the value the read-time scrub re-derives from the banks).
    pub checksum: Option<u64>,
    /// Set when ingress integrity machinery condemned the packet while it
    /// was still buffered (truncation, ingress payload mismatch); the
    /// read-side scan drops it instead of transmitting, recording why.
    pub poisoned: Option<IntegrityReason>,
}

impl Descriptor {
    /// A unicast descriptor.
    pub fn unicast(id: u64, input: PortId, dst: PortId, birth: Cycle) -> Self {
        Descriptor {
            id,
            input,
            dst,
            dsts: 1 << dst.index(),
            birth,
            write_start: None,
            checksum: None,
            poisoned: None,
        }
    }

    /// A descriptor for the given destination bitmask.
    pub fn multicast(id: u64, input: PortId, dsts: u32, birth: Cycle) -> Self {
        assert!(dsts != 0, "destination set must be non-empty");
        Descriptor {
            id,
            input,
            dst: PortId(dsts.trailing_zeros() as usize),
            dsts,
            birth,
            write_start: None,
            checksum: None,
            poisoned: None,
        }
    }

    /// Number of copies to be transmitted.
    pub fn fanout(&self) -> u32 {
        self.dsts.count_ones()
    }

    /// Iterate the destination outputs, lowest first.
    #[inline]
    pub fn destinations(&self) -> impl Iterator<Item = PortId> {
        bits(self.dsts).map(PortId)
    }
}

#[derive(Debug, Clone)]
struct Slot {
    desc: Option<Descriptor>,
    /// Copies not yet claimed by a read wave.
    refs: u32,
}

/// Free list + output queues over `slots` packet slots.
#[derive(Debug, Clone)]
pub struct BufferManager {
    slots: Vec<Slot>,
    free: Vec<Addr>,
    queues: Vec<VecDeque<Addr>>,
}

impl BufferManager {
    /// A manager for `slots` packet slots and `n_out` output queues.
    pub fn new(slots: usize, n_out: usize) -> Self {
        assert!(slots >= 1 && n_out >= 1);
        BufferManager {
            slots: (0..slots)
                .map(|_| Slot {
                    desc: None,
                    refs: 0,
                })
                .collect(),
            free: (0..slots).rev().map(Addr).collect(),
            queues: vec![VecDeque::new(); n_out],
        }
    }

    /// Total slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Slots currently allocated.
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Queued packets for one output (readable or not) — the count a
    /// sharing policy's view uses.
    pub fn queue_len(&self, out: PortId) -> usize {
        self.queues[out.index()].len()
    }

    /// The rearmost entry of `out`'s queue whose descriptor (and
    /// remaining reference count) satisfies `pred` — the sharing
    /// policies' eviction scan.
    pub fn rearmost_matching(
        &self,
        out: PortId,
        mut pred: impl FnMut(&Descriptor, u32) -> bool,
    ) -> Option<Addr> {
        self.queues[out.index()].iter().rev().copied().find(|a| {
            let s = &self.slots[a.index()];
            s.desc.as_ref().is_some_and(|d| pred(d, s.refs))
        })
    }

    /// Evict a buffered packet (sharing-policy push-out / preemptive
    /// drop): every queued reference is removed — all copies of a
    /// multicast leave together — and the slot is freed. Returns the
    /// descriptor. Panics if the slot is not allocated; callers select
    /// victims via [`BufferManager::rearmost_matching`].
    pub fn evict(&mut self, addr: Addr) -> Descriptor {
        self.release(addr)
    }

    /// Allocate a slot for an arriving packet and enqueue its descriptor
    /// on every destination queue. `None` when the buffer is full.
    pub fn alloc(&mut self, desc: Descriptor) -> Option<Addr> {
        let addr = self.free.pop()?;
        debug_assert!(desc.dsts != 0);
        let slot = &mut self.slots[addr.index()];
        debug_assert!(slot.desc.is_none(), "free-list invariant violated");
        slot.refs = desc.fanout();
        for d in desc.destinations() {
            self.queues[d.index()].push_back(addr);
        }
        slot.desc = Some(desc);
        Some(addr)
    }

    /// Record that the write wave for `addr` initiated at `ws`.
    #[inline]
    pub fn mark_write_started(&mut self, addr: Addr, ws: Cycle) {
        let d = self.slots[addr.index()]
            .desc
            .as_mut()
            .expect("slot not allocated");
        debug_assert!(d.write_start.is_none(), "write started twice");
        d.write_start = Some(ws);
    }

    /// The descriptor at `addr`, if allocated.
    #[inline]
    pub fn descriptor(&self, addr: Addr) -> Option<&Descriptor> {
        self.slots[addr.index()].desc.as_ref()
    }

    /// Record the ingress-computed checksum for the packet at `addr`.
    /// No-op if the slot was already freed (cut-through read outran the
    /// tail) — the checksum would have nothing left to protect.
    #[inline]
    pub fn set_checksum(&mut self, addr: Addr, sum: u64) {
        if let Some(d) = self.slots[addr.index()].desc.as_mut() {
            d.checksum = Some(sum);
        }
    }

    /// Condemn the packet at `addr`: the read-side scan will drop it
    /// instead of transmitting. Returns `false` (no-op) if the slot is
    /// already freed — the packet escaped on a cut-through read and only
    /// egress checks can flag it now.
    pub fn poison(&mut self, addr: Addr, reason: IntegrityReason) -> bool {
        match self.slots[addr.index()].desc.as_mut() {
            Some(d) => {
                d.poisoned = Some(reason);
                true
            }
            None => false,
        }
    }

    /// The head-of-queue descriptor for an output.
    #[inline]
    pub fn head(&self, out: PortId) -> Option<(Addr, &Descriptor)> {
        let addr = *self.queues[out.index()].front()?;
        let d = self.slots[addr.index()].desc.as_ref();
        Some((addr, d.expect("queued slot is allocated")))
    }

    /// Pop the head descriptor of an output queue for a read-wave
    /// initiation. The reference count drops by one; the slot is freed
    /// when the LAST copy's read initiates (any later write wave to the
    /// reused address trails every in-flight read). Returns the address,
    /// a descriptor copy, and whether the slot was freed. Panics if the
    /// queue is empty — the caller must have observed a head via
    /// [`BufferManager::head`].
    #[inline]
    pub fn pop_and_free(&mut self, out: PortId) -> (Addr, Descriptor, bool) {
        let addr = self.queues[out.index()]
            .pop_front()
            .expect("pop from empty output queue");
        let slot = &mut self.slots[addr.index()];
        debug_assert!(slot.refs > 0);
        slot.refs -= 1;
        if slot.refs == 0 {
            let d = slot.desc.take().expect("queued slot is allocated");
            self.free.push(addr);
            return (addr, d, true);
        }
        let d = slot.desc.clone().expect("queued slot is allocated");
        (addr, d, false)
    }

    /// Forcibly release a slot (truncation and latch-overrun paths): the
    /// descriptor is discarded and its entries leave every destination
    /// queue still holding one.
    pub fn release(&mut self, addr: Addr) -> Descriptor {
        let slot = &mut self.slots[addr.index()];
        let d = slot.desc.take().expect("releasing unallocated slot");
        slot.refs = 0;
        self.free.push(addr);
        for j in d.destinations() {
            self.queues[j.index()].retain(|&a| a != addr);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(id: u64, dst: usize) -> Descriptor {
        Descriptor::unicast(id, PortId(0), PortId(dst), 0)
    }

    #[test]
    fn alloc_until_full() {
        let mut m = BufferManager::new(2, 2);
        assert!(m.alloc(desc(1, 0)).is_some());
        assert!(m.alloc(desc(2, 1)).is_some());
        assert!(m.alloc(desc(3, 0)).is_none(), "buffer full");
        assert_eq!(m.occupancy(), 2);
    }

    #[test]
    fn fifo_order_per_output() {
        let mut m = BufferManager::new(4, 1);
        let a1 = m.alloc(desc(1, 0)).unwrap();
        let _ = m.alloc(desc(2, 0)).unwrap();
        let (ha, hd) = m.head(PortId(0)).unwrap();
        assert_eq!((ha, hd.id), (a1, 1));
        let (pa, pd, freed) = m.pop_and_free(PortId(0));
        assert_eq!((pa, pd.id, freed), (a1, 1, true));
        let (_, hd2) = m.head(PortId(0)).unwrap();
        assert_eq!(hd2.id, 2);
    }

    #[test]
    fn pop_frees_slot() {
        let mut m = BufferManager::new(1, 1);
        m.alloc(desc(1, 0)).unwrap();
        assert!(m.alloc(desc(2, 0)).is_none());
        m.pop_and_free(PortId(0));
        assert_eq!(m.occupancy(), 0);
        assert!(m.alloc(desc(2, 0)).is_some());
    }

    #[test]
    fn stale_entries_skipped_after_release() {
        let mut m = BufferManager::new(2, 1);
        let a1 = m.alloc(desc(1, 0)).unwrap();
        m.alloc(desc(2, 0)).unwrap();
        // Packet 1 suffers a latch overrun; its slot is released and then
        // reallocated to packet 3 (same output).
        m.release(a1);
        let a3 = m.alloc(desc(3, 0)).unwrap();
        assert_eq!(a3, a1, "LIFO free list reuses the slot");
        // Queue order must be: 2 (oldest live), then 3 — packet 1's
        // entry must not surface packet 3 early.
        assert_eq!(m.queue_len(PortId(0)), 2);
        let (_, h) = m.head(PortId(0)).unwrap();
        assert_eq!(h.id, 2);
        assert_eq!(m.pop_and_free(PortId(0)).1.id, 2);
        assert_eq!(m.pop_and_free(PortId(0)).1.id, 3);
        assert!(m.head(PortId(0)).is_none());
    }

    #[test]
    fn write_start_recorded() {
        let mut m = BufferManager::new(1, 1);
        let a = m.alloc(desc(1, 0)).unwrap();
        m.mark_write_started(a, 42);
        assert_eq!(m.descriptor(a).unwrap().write_start, Some(42));
    }

    #[test]
    fn queues_are_independent() {
        let mut m = BufferManager::new(4, 2);
        m.alloc(desc(1, 0)).unwrap();
        m.alloc(desc(2, 1)).unwrap();
        assert_eq!(m.queue_len(PortId(0)), 1);
        assert_eq!(m.queue_len(PortId(1)), 1);
        assert_eq!(m.pop_and_free(PortId(1)).1.id, 2);
        assert_eq!(m.head(PortId(0)).unwrap().1.id, 1);
    }

    #[test]
    fn checksum_and_poison_lifecycle() {
        let mut m = BufferManager::new(2, 1);
        let a = m.alloc(desc(1, 0)).unwrap();
        m.set_checksum(a, 0xABCD);
        assert_eq!(m.descriptor(a).unwrap().checksum, Some(0xABCD));
        assert!(m.poison(a, IntegrityReason::TruncatedPacket));
        assert_eq!(
            m.descriptor(a).unwrap().poisoned,
            Some(IntegrityReason::TruncatedPacket)
        );
        // Freed slots: both become no-ops instead of panicking (the
        // cut-through race the callers hit).
        m.release(a);
        m.set_checksum(a, 1);
        assert!(!m.poison(a, IntegrityReason::ChecksumMismatch));
    }

    #[test]
    #[should_panic(expected = "pop from empty")]
    fn pop_empty_panics() {
        let mut m = BufferManager::new(1, 1);
        let _ = m.pop_and_free(PortId(0));
    }
}
