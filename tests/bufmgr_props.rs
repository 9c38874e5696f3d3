//! Property tests for the packet store under seeded random schedules,
//! against a shadow model of its slots and queues: no double allocation
//! of a live slot, no slot leak across multicast last-copy frees, no
//! queue entry outliving its packet — neither after the sharing policies'
//! push-out nor after the forced `release` of the truncation and overrun
//! paths — and slots handed out in the order of a free list pre-filled
//! with every slot, lowest on top (what every slot address in a probe
//! stream or golden digest depends on).

use simkernel::SplitMix64;
use std::collections::{BTreeMap, VecDeque};
use switch_core::bufmgr::BufferManager;

const N_OUT: usize = 4;
/// Stages of the modeled switch: a write wave retires `S` cycles after
/// it starts.
const S: u64 = 3;

/// What the store should hold.
struct Shadow {
    /// slot -> (packet id, copies still queued, fanout, write start).
    live: BTreeMap<usize, (u64, u32, u32, u64)>,
    queues: Vec<VecDeque<usize>>,
    /// The free list as a pre-filled table would keep it: every slot,
    /// lowest on top, freed slots pushed back on top.
    free: Vec<usize>,
}

impl Shadow {
    fn new(slots: usize) -> Self {
        Shadow {
            live: BTreeMap::new(),
            queues: vec![VecDeque::new(); N_OUT],
            free: (0..slots).rev().collect(),
        }
    }

    fn free_slot(&mut self, slot: usize) {
        self.live.remove(&slot);
        for q in &mut self.queues {
            q.retain(|&s| s != slot);
        }
        self.free.push(slot);
    }
}

fn check_against_shadow(m: &BufferManager<u64>, shadow: &Shadow, ctx: &str) {
    assert_eq!(m.occupancy(), shadow.live.len(), "{ctx}: occupancy");
    for (j, q) in shadow.queues.iter().enumerate() {
        assert_eq!(m.queue_len(j), q.len(), "{ctx}: queue {j}'s length");
        assert_eq!(m.head(j), q.front().copied(), "{ctx}: queue {j}'s head");
    }
    for (&slot, &(id, copies, fanout, ws)) in &shadow.live {
        let e = m
            .get(slot)
            .unwrap_or_else(|| panic!("{ctx}: live slot {slot} is free"));
        assert_eq!(
            (e.id, e.refs, e.dsts.count_ones()),
            (id, copies, fanout),
            "{ctx}"
        );
        assert_eq!(e.tag, id, "{ctx}: slot {slot}'s tag");
        assert_eq!(
            m.write_start(slot),
            Some(ws),
            "{ctx}: slot {slot}'s write start"
        );
    }
}

/// One seeded schedule of alloc / read / push-out / force-release
/// operations, with the shadow audited after every step.
fn run_schedule(seed: u64, steps: usize, slots: usize) {
    let mut g = SplitMix64::stream(seed, 0);
    let mut m = BufferManager::new(slots, N_OUT);
    let mut shadow = Shadow::new(slots);
    let mut next_id = 1u64;
    let mut c = 0u64;

    for step in 0..steps {
        let ctx = format!("seed {seed} step {step}");
        c += 1;
        match g.below_usize(10) {
            // Allocate: unicast (common) or multicast (every fourth try).
            0..=4 => {
                let dsts = if g.below_usize(4) == 0 {
                    (g.next_u64() as u32 % (1 << N_OUT)).max(1)
                } else {
                    1 << g.below_usize(N_OUT)
                };
                if m.full() {
                    assert_eq!(
                        shadow.live.len(),
                        slots,
                        "{ctx}: full below capacity (leak)"
                    );
                } else {
                    let slot = m.alloc(next_id, 0, dsts, c, next_id);
                    let expected = shadow.free.pop().expect("shadow has a free slot");
                    assert_eq!(slot, expected, "{ctx}: not the pre-filled LIFO list's slot");
                    assert_eq!(
                        m.write_start(slot),
                        None,
                        "{ctx}: fresh slot already written"
                    );
                    m.start_write(slot, c);
                    let fanout = dsts.count_ones();
                    let old = shadow.live.insert(slot, (next_id, fanout, fanout, c));
                    assert!(old.is_none(), "{ctx}: allocator handed out a live slot");
                    for j in simkernel::bits(dsts) {
                        shadow.queues[j].push_back(slot);
                    }
                    next_id += 1;
                }
            }
            // Read-initiate: pop a random output's head; the slot must
            // free exactly when the last copy leaves.
            5..=7 => {
                let j = g.below_usize(N_OUT);
                if let Some(expected) = shadow.queues[j].pop_front() {
                    let (slot, e, freed) = m.pop(j);
                    assert_eq!(slot, expected, "{ctx}: popped the wrong slot");
                    let entry = shadow.live.get_mut(&slot).expect("queued slot is live");
                    assert_eq!(e.id, entry.0, "{ctx}: packet id drifted");
                    entry.1 -= 1;
                    assert_eq!(freed, entry.1 == 0, "{ctx}: free on the last copy only");
                    if freed {
                        shadow.free_slot(slot);
                    }
                }
            }
            // Push-out: the rearmost retired, unread packet of the longest
            // queue; all copies leave at once.
            8 => {
                let victim = (0..N_OUT)
                    .max_by_key(|&j| m.queue_len(j))
                    .expect("N_OUT >= 1");
                let expected = shadow.queues[victim].iter().rev().copied().find(|slot| {
                    let (_, copies, fanout, ws) = shadow.live[slot];
                    copies == fanout && c >= ws + S
                });
                let got = m.rearmost_evictable(victim, c, S);
                assert_eq!(got, expected, "{ctx}: evictability rule");
                if let Some(slot) = got {
                    let e = m.release(slot);
                    assert_eq!(
                        e.id, shadow.live[&slot].0,
                        "{ctx}: evicted the wrong packet"
                    );
                    shadow.free_slot(slot);
                }
            }
            // Force-release (truncation and latch-overrun paths): every
            // queued copy leaves with the slot.
            _ => {
                // Only packets with all copies still queued: releasing
                // under a partially-read multicast is the overrun corner
                // neither model reaches.
                let whole = shadow
                    .live
                    .iter()
                    .find(|(_, &(_, copies, fanout, _))| copies == fanout)
                    .map(|(&slot, _)| slot);
                if let Some(slot) = whole {
                    assert_eq!(m.release(slot).id, shadow.live[&slot].0, "{ctx}");
                    shadow.free_slot(slot);
                }
            }
        }
        check_against_shadow(&m, &shadow, &ctx);
    }

    // Drain: every remaining live packet must come out, and the pool
    // must end empty.
    for j in 0..N_OUT {
        while m.head(j).is_some() {
            let (slot, _, freed) = m.pop(j);
            let entry = shadow
                .live
                .get_mut(&slot)
                .expect("drained a slot the shadow freed");
            entry.1 -= 1;
            assert_eq!(freed, entry.1 == 0);
            if freed {
                shadow.live.remove(&slot);
            }
        }
    }
    assert!(
        shadow.live.is_empty(),
        "seed {seed}: packets left behind after drain"
    );
    assert_eq!(
        m.occupancy(),
        0,
        "seed {seed}: leaked slots after full drain"
    );
    // The free list must hold every slot exactly once: allocating to
    // capacity succeeds with distinct slots, and then the store is full.
    let mut seen = vec![false; slots];
    for k in 0..slots {
        assert!(!m.full(), "seed {seed}: free list lost slot {k} of {slots}");
        let slot = m.alloc(u64::MAX - k as u64, 0, 1, c, 0);
        assert!(
            !std::mem::replace(&mut seen[slot], true),
            "slot {slot} twice"
        );
    }
    assert!(m.full());
}

#[test]
fn seeded_schedules_hold_the_free_list_invariants() {
    for seed in 0..48u64 {
        run_schedule(seed, 400, 8);
    }
}

#[test]
fn small_pool_maximizes_reuse_pressure() {
    // Two slots, four queues: every allocation recycles a recently
    // freed address, so any entry left behind would serve the new one.
    for seed in 0..48u64 {
        run_schedule(seed ^ 0x5EED, 300, 2);
    }
}

#[test]
fn stale_entries_after_evict_are_invisible() {
    // Evict a multicast with copies on several queues, reallocate the
    // slot, and verify no queue serves the old packet under the new
    // occupant.
    let mut m = BufferManager::new(1, 4);
    let slot = m.alloc(7, 0, 0b1111, 0, ());
    m.start_write(slot, 0);
    assert_eq!(m.queue_len(3), 1);
    assert_eq!(m.rearmost_evictable(3, S, S), Some(slot));
    assert_eq!(m.release(slot).id, 7);
    assert_eq!(m.occupancy(), 0);
    // Same slot, new occupant, single destination.
    let slot2 = m.alloc(8, 0, 0b0100, 1, ());
    assert_eq!(slot2, slot, "one-slot pool must reuse the evicted slot");
    for j in 0..4 {
        assert_eq!(m.queue_len(j), usize::from(j == 2), "queue {j}");
    }
    let (got, e, freed) = m.pop(2);
    assert_eq!((got, e.id, freed), (slot, 8, true));
    // Queues 0, 1, 3 held packet 7 only; no head may serve it.
    for j in [0usize, 1, 3] {
        assert!(m.head(j).is_none(), "queue {j} served an evicted entry");
    }
}
