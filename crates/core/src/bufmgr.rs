//! Buffer management: the packet store both pipelined models keep.
//!
//! The paper keeps buffer (address) management deliberately orthogonal to
//! the pipelined memory itself (§3.3: "the circuits that provide these …
//! are independent of the pipelined memory"). This module implements the
//! scheme the Telegraphos switches use (\[Kate94\], \[KVES95\]): a free list
//! of packet slots plus one FIFO queue of slots per outgoing link. The
//! word-level RTL ([`crate::rtl`]), the cell-level model
//! ([`crate::behavioral`]) and the RTL's frozen twin all keep their packets
//! here; what only one of them needs rides in a per-slot tag `T`.
//!
//! A slot's lifetime: allocated when a packet header arrives → queued on
//! every destination's output queue → the write wave is initiated (the
//! packet becomes *readable*) → a read wave pops the queue entry and the
//! **last copy's read frees the slot immediately**, because any later
//! write wave to the same address trails the read wave stage by stage and
//! can never overtake it. This early free is a distinctive economy of the
//! pipelined organization: a slot is held only from header arrival to read
//! initiation, not to read completion.
//!
//! Every path that frees a slot ahead of its reads — eviction, and the
//! forced release of the truncation and overrun paths — goes through
//! [`BufferManager::release`], which takes the slot's entries off its
//! destination queues, so every queued entry is live.
//!
//! The slot table grows on demand: a slot is handed out from the LIFO free
//! list, or, with the list empty, appended. That is the order a free list
//! pre-filled with every slot, lowest on top, would give, without paying
//! for the table up front.

use simkernel::bits;
use simkernel::ids::Cycle;
use std::collections::VecDeque;

/// One buffered packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry<T> {
    /// Packet id.
    pub id: u64,
    /// Input link of arrival.
    pub input: usize,
    /// Destination set, bit `j` = output `j`; the slot is freed when the
    /// *last* copy's read wave initiates.
    pub dsts: u32,
    /// Copies not yet claimed by a read wave.
    pub refs: u32,
    /// Cycle the header arrived.
    pub birth: Cycle,
    /// What only one model keeps per packet.
    pub tag: T,
}

/// Free list and output queues over at most `slots` packet slots.
#[derive(Debug, Clone)]
pub struct BufferManager<T> {
    pub(crate) slots: usize,
    entries: Vec<Option<Entry<T>>>,
    /// Write-wave start per slot, `Cycle::MAX` until the wave is granted.
    /// Kept beside the entries so the hot readiness refresh reads one word.
    write_start: Vec<Cycle>,
    free: Vec<usize>,
    /// Per output, the queued slots, head first.
    pub(crate) queues: Vec<VecDeque<usize>>,
}

impl<T: Copy> BufferManager<T> {
    /// A store for `slots` packet slots and `n_out` output queues.
    pub fn new(slots: usize, n_out: usize) -> Self {
        assert!(slots >= 1 && n_out >= 1);
        BufferManager {
            slots,
            entries: Vec::new(),
            write_start: Vec::new(),
            free: Vec::new(),
            queues: vec![VecDeque::new(); n_out],
        }
    }

    /// Slots currently allocated.
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Every slot is allocated.
    #[inline]
    pub fn full(&self) -> bool {
        self.occupancy() == self.slots
    }

    /// Queued packets for output `j` (readable or not) — the count a
    /// sharing policy's view uses.
    #[inline]
    pub fn queue_len(&self, j: usize) -> usize {
        self.queues[j].len()
    }

    /// Allocate a slot for an arriving packet and queue it on every
    /// output of `dsts`. The caller has checked [`BufferManager::full`].
    // Forced, as is `pop`'s: with `#[inline]` alone both were emitted out
    // of line in the behavioral kernels, one call per packet, and
    // `behavioral_loads` ran 10 % slower (2-core x86 host, eight
    // alternating pairs).
    #[inline(always)]
    pub fn alloc(&mut self, id: u64, input: usize, dsts: u32, birth: Cycle, tag: T) -> usize {
        debug_assert!(dsts != 0 && !self.full());
        let refs = dsts.count_ones();
        let e = Some(Entry {
            id,
            input,
            dsts,
            refs,
            birth,
            tag,
        });
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.entries[slot].is_none(), "free-list invariant violated");
                self.entries[slot] = e;
                self.write_start[slot] = Cycle::MAX;
                slot
            }
            None => {
                self.entries.push(e);
                self.write_start.push(Cycle::MAX);
                self.entries.len() - 1
            }
        };
        for j in bits(dsts) {
            self.queues[j].push_back(slot);
        }
        slot
    }

    /// The packet at `slot`, if allocated.
    #[inline]
    pub fn get(&self, slot: usize) -> Option<&Entry<T>> {
        self.entries.get(slot)?.as_ref()
    }

    /// The packet at an allocated `slot`.
    #[inline]
    pub fn entry(&self, slot: usize) -> &Entry<T> {
        self.entries[slot].as_ref().expect("slot not allocated")
    }

    /// The tag of the packet at an allocated `slot`.
    #[inline]
    pub fn tag_mut(&mut self, slot: usize) -> &mut T {
        &mut self.entries[slot].as_mut().expect("slot not allocated").tag
    }

    /// Record that the write wave for `slot` initiated at `ws`.
    #[inline]
    pub fn start_write(&mut self, slot: usize, ws: Cycle) {
        debug_assert!(self.entries[slot].is_some(), "slot not allocated");
        debug_assert!(self.write_start[slot] == Cycle::MAX, "write started twice");
        self.write_start[slot] = ws;
    }

    /// The write start of the packet last allocated at `slot` (`None`
    /// before its write wave). It stays readable after the last read
    /// frees the slot, until the slot is allocated again.
    #[inline]
    pub fn write_start(&self, slot: usize) -> Option<Cycle> {
        let ws = self.write_start[slot];
        (ws != Cycle::MAX).then_some(ws)
    }

    /// The slot at the head of output `j`'s queue.
    #[inline]
    pub fn head(&self, j: usize) -> Option<usize> {
        self.queues[j].front().copied()
    }

    /// The write start of output `j`'s head (`None` for an empty queue or
    /// an unwritten head) — what `Requests::set_head` files.
    #[inline]
    pub fn head_write_start(&self, j: usize) -> Option<Cycle> {
        self.write_start(self.head(j)?)
    }

    /// Pop output `j`'s head for a read-wave initiation. The reference
    /// count drops by one; the slot is freed when the LAST copy's read
    /// initiates (any later write wave to the reused address trails every
    /// in-flight read). Returns the slot, the packet as it stands after
    /// the pop, and whether the slot was freed. Panics on an empty queue.
    #[inline(always)]
    pub fn pop(&mut self, j: usize) -> (usize, Entry<T>, bool) {
        let slot = self.queues[j]
            .pop_front()
            .expect("pop from empty output queue");
        let live = self.entries[slot]
            .as_mut()
            .expect("queued slot is allocated");
        debug_assert!(live.refs > 0);
        live.refs -= 1;
        let e = *live;
        let freed = e.refs == 0;
        if freed {
            self.entries[slot] = None;
            self.free.push(slot);
        }
        (slot, e, freed)
    }

    /// Free an allocated slot ahead of its reads (sharing-policy push-out,
    /// truncation, latch overrun): its entries leave every destination
    /// queue still holding one — all copies of a multicast go together.
    /// Returns the packet; the caller refreshes the heads of its `dsts`.
    pub fn release(&mut self, slot: usize) -> Entry<T> {
        let e = self.entries[slot]
            .take()
            .expect("releasing unallocated slot");
        self.free.push(slot);
        for j in bits(e.dsts) {
            self.queues[j].retain(|&s| s != slot);
        }
        e
    }

    /// The rearmost packet of output `j`'s queue a sharing policy may push
    /// out at cycle `c` in an `s`-stage switch: its write wave has fully
    /// retired (`c ≥ ws + s` — freeing a slot mid-write would let the
    /// reallocated address collide with the in-flight wave) and no copy's
    /// read has initiated (`refs` still equals the fanout; reads pop their
    /// entry at initiation, so a queued entry loses refs only through the
    /// other queues of a multicast).
    pub fn rearmost_evictable(&self, j: usize, c: Cycle, s: Cycle) -> Option<usize> {
        self.queues[j].iter().rev().copied().find(|&slot| {
            let e = self.entry(slot);
            self.write_start(slot).is_some_and(|ws| c >= ws + s) && e.refs == e.dsts.count_ones()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(m: &mut BufferManager<()>, id: u64, dsts: u32) -> usize {
        m.alloc(id, 0, dsts, 0, ())
    }

    #[test]
    fn alloc_until_full() {
        let mut m = BufferManager::new(2, 2);
        alloc(&mut m, 1, 0b01);
        assert!(!m.full());
        alloc(&mut m, 2, 0b10);
        assert!(m.full(), "buffer full");
        assert_eq!(m.occupancy(), 2);
    }

    #[test]
    fn fifo_order_per_output() {
        let mut m = BufferManager::new(4, 1);
        let a1 = alloc(&mut m, 1, 1);
        let _ = alloc(&mut m, 2, 1);
        assert_eq!(m.head(0), Some(a1));
        let (pa, pe, freed) = m.pop(0);
        assert_eq!((pa, pe.id, freed), (a1, 1, true));
        assert_eq!(m.entry(m.head(0).unwrap()).id, 2);
    }

    #[test]
    fn the_last_copy_frees_the_slot() {
        let mut m = BufferManager::new(1, 2);
        let a = alloc(&mut m, 1, 0b11);
        assert!(m.full());
        let (slot, e, freed) = m.pop(1);
        assert_eq!((slot, e.id, e.refs, freed), (a, 1, 1, false));
        let (_, e, freed) = m.pop(0);
        assert_eq!((e.refs, freed, m.occupancy()), (0, true, 0));
        assert!(m.get(a).is_none());
    }

    #[test]
    fn released_entries_leave_every_queue() {
        let mut m = BufferManager::new(2, 2);
        let a1 = alloc(&mut m, 1, 0b11);
        alloc(&mut m, 2, 0b01);
        // Packet 1 is released and its slot reallocated to packet 3: its
        // old entries must not surface packet 3 early.
        assert_eq!(m.release(a1).id, 1);
        let a3 = alloc(&mut m, 3, 0b01);
        assert_eq!(a3, a1, "LIFO free list reuses the slot");
        assert_eq!((m.queue_len(0), m.queue_len(1)), (2, 0));
        assert_eq!(m.pop(0).1.id, 2);
        assert_eq!(m.pop(0).1.id, 3);
        assert!(m.head(0).is_none());
    }

    #[test]
    fn write_start_is_kept_past_the_free() {
        let mut m = BufferManager::new(1, 1);
        let a = alloc(&mut m, 1, 1);
        assert_eq!((m.write_start(a), m.head_write_start(0)), (None, None));
        m.start_write(a, 42);
        assert_eq!(m.head_write_start(0), Some(42));
        m.pop(0);
        assert_eq!((m.write_start(a), m.head_write_start(0)), (Some(42), None));
        alloc(&mut m, 2, 1);
        assert_eq!(m.write_start(a), None, "a new occupant starts unwritten");
    }

    #[test]
    fn only_retired_unread_packets_are_evictable() {
        let mut m = BufferManager::new(4, 2);
        let old = alloc(&mut m, 1, 0b01);
        let young = alloc(&mut m, 2, 0b01);
        let multi = alloc(&mut m, 3, 0b11);
        m.start_write(old, 0);
        m.start_write(young, 3);
        m.start_write(multi, 0);
        // At cycle 4 with S = 4 only `old` and `multi` have retired; the
        // rearmost of them goes first.
        assert_eq!(m.rearmost_evictable(0, 4, 4), Some(multi));
        // A multicast with one copy read is no longer evictable.
        m.pop(1);
        assert_eq!(m.rearmost_evictable(0, 4, 4), Some(old));
        assert_eq!(m.rearmost_evictable(0, 3, 4), None);
    }

    #[test]
    #[should_panic(expected = "pop from empty")]
    fn pop_empty_panics() {
        let mut m = BufferManager::<()>::new(1, 1);
        let _ = m.pop(0);
    }
}
