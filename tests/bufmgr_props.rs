//! Property tests for the buffer manager's free-list invariants under
//! seeded random schedules: no double-allocation of a live slot, no
//! slot leak across multicast last-copy frees, and no queue entry
//! outliving its packet — neither after the sharing policies' `evict`
//! nor after the forced `release` of the truncation and overrun paths.

use simkernel::ids::PortId;
use simkernel::SplitMix64;
use std::collections::BTreeMap;
use switch_core::bufmgr::{BufferManager, Descriptor};

const N_OUT: usize = 4;

/// Shadow model: address -> (packet id, copies still queued).
type Shadow = BTreeMap<usize, (u64, u32)>;

fn check_against_shadow(m: &BufferManager, shadow: &Shadow) {
    assert_eq!(
        m.occupancy(),
        shadow.len(),
        "occupancy must equal the number of live slots"
    );
    // Queue lengths must equal the shadow's queued copies: a freed or
    // evicted packet leaves no entry behind.
    let live_total: usize = (0..N_OUT).map(|j| m.queue_len(PortId(j))).sum();
    let shadow_total: usize = shadow.values().map(|&(_, copies)| copies as usize).sum();
    assert_eq!(
        live_total, shadow_total,
        "live queue entries must equal unread copies of live packets"
    );
}

/// One seeded schedule of alloc / read-free / evict / force-release
/// operations, with the shadow model audited after every step.
fn run_schedule(seed: u64, steps: usize, slots: usize) {
    let mut g = SplitMix64::stream(seed, 0);
    let mut m = BufferManager::new(slots, N_OUT);
    let mut shadow: Shadow = Shadow::new();
    let mut next_id = 1u64;
    let mut c = 0u64;

    for step in 0..steps {
        c += 1;
        match g.below_usize(10) {
            // Allocate: unicast (common) or multicast (every fourth try).
            0..=4 => {
                let d = if g.below_usize(4) == 0 {
                    let mask = (g.next_u64() as u32 % (1 << N_OUT)).max(1);
                    Descriptor::multicast(next_id, PortId(0), mask, c)
                } else {
                    Descriptor::unicast(next_id, PortId(0), PortId(g.below_usize(N_OUT)), c)
                };
                let fanout = d.fanout();
                let id = d.id;
                match m.alloc(d) {
                    Some(addr) => {
                        assert!(
                            shadow.insert(addr.index(), (id, fanout)).is_none(),
                            "seed {seed} step {step}: allocator handed out a live slot \
                             (double-free feeding the free list)"
                        );
                        m.mark_write_started(addr, c);
                        next_id += 1;
                    }
                    None => {
                        assert_eq!(
                            shadow.len(),
                            slots,
                            "seed {seed} step {step}: alloc failed below capacity (slot leak)"
                        );
                    }
                }
            }
            // Read-initiate: pop a random output's head; the slot must
            // free exactly when the last copy leaves.
            5..=7 => {
                let j = PortId(g.below_usize(N_OUT));
                if m.head(j).is_some() {
                    let (addr, d, freed) = m.pop_and_free(j);
                    let entry = shadow.get_mut(&addr.index()).unwrap_or_else(|| {
                        panic!(
                            "seed {seed} step {step}: popped a slot the shadow \
                                 thinks is free (stale entry served as live)"
                        )
                    });
                    assert_eq!(
                        entry.0, d.id,
                        "seed {seed} step {step}: descriptor id drifted"
                    );
                    entry.1 -= 1;
                    let last_copy = entry.1 == 0;
                    assert_eq!(
                        freed, last_copy,
                        "seed {seed} step {step}: slot must free exactly on the last \
                         multicast copy"
                    );
                    if last_copy {
                        shadow.remove(&addr.index());
                    }
                }
            }
            // Evict (sharing-policy push-out): rearmost fully-written
            // entry of the longest live queue; all copies leave at once.
            8 => {
                let victim = (0..N_OUT)
                    .max_by_key(|&j| m.queue_len(PortId(j)))
                    .expect("N_OUT >= 1");
                if let Some(addr) =
                    m.rearmost_matching(PortId(victim), |d, refs| refs == d.fanout())
                {
                    let d = m.evict(addr);
                    let (id, _) = shadow.remove(&addr.index()).unwrap_or_else(|| {
                        panic!("seed {seed} step {step}: evicted a slot the shadow freed")
                    });
                    assert_eq!(
                        id, d.id,
                        "seed {seed} step {step}: evicted the wrong packet"
                    );
                }
            }
            // Force-release (truncation and latch-overrun paths): every
            // queued copy leaves with the slot.
            _ => {
                if let Some((&addr, _)) = shadow.iter().next() {
                    // Only packets with all copies still queued: releasing
                    // under a partially-read multicast is the overrun
                    // corner the RTL never reaches via this API.
                    let (_, copies) = shadow[&addr];
                    let full = m
                        .descriptor(simkernel::ids::Addr(addr))
                        .is_some_and(|d| d.fanout() == copies);
                    if full {
                        m.release(simkernel::ids::Addr(addr));
                        shadow.remove(&addr);
                    }
                }
            }
        }
        check_against_shadow(&m, &shadow);
    }

    // Drain: every remaining live packet must come out, and the pool
    // must end exactly full.
    for j in 0..N_OUT {
        while m.head(PortId(j)).is_some() {
            let (addr, _, freed) = m.pop_and_free(PortId(j));
            let entry = shadow
                .get_mut(&addr.index())
                .expect("drained a slot the shadow freed");
            entry.1 -= 1;
            if entry.1 == 0 {
                assert!(freed);
                shadow.remove(&addr.index());
            }
        }
    }
    assert!(
        shadow.is_empty(),
        "seed {seed}: packets left behind after drain"
    );
    assert_eq!(
        m.occupancy(),
        0,
        "seed {seed}: leaked slots after full drain"
    );
    // The free list must hold every slot exactly once: allocating to
    // capacity succeeds, one more fails.
    for k in 0..slots {
        assert!(
            m.alloc(Descriptor::unicast(
                u64::MAX - k as u64,
                PortId(0),
                PortId(0),
                c
            ))
            .is_some(),
            "seed {seed}: free list lost slot {k} of {slots}"
        );
    }
    assert!(m
        .alloc(Descriptor::unicast(0, PortId(0), PortId(0), c))
        .is_none());
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
    // generation.
    let mut m = BufferManager::new(1, 4);
    let addr = m
        .alloc(Descriptor::multicast(7, PortId(0), 0b1111, 0))
        .expect("empty pool");
    m.mark_write_started(addr, 0);
    assert_eq!(m.queue_len(PortId(3)), 1);
    let d = m.evict(addr);
    assert_eq!(d.id, 7);
    assert_eq!(m.occupancy(), 0);
    // Same slot, new occupant, single destination.
    let addr2 = m
        .alloc(Descriptor::unicast(8, PortId(0), PortId(2), 1))
        .expect("slot was freed by evict");
    assert_eq!(addr2, addr, "one-slot pool must reuse the evicted slot");
    for j in 0..4 {
        let live = m.queue_len(PortId(j));
        assert_eq!(
            live,
            usize::from(j == 2),
            "queue {j} must hold only the new packet"
        );
    }
    let (got, desc, freed) = {
        assert!(m.head(PortId(2)).is_some());
        m.pop_and_free(PortId(2))
    };
    assert_eq!((got, desc.id, freed), (addr, 8, true));
    // Queues 0, 1, 3 held packet 7 only; no head may serve it.
    for j in [0usize, 1, 3] {
        assert!(
            m.head(PortId(j)).is_none(),
            "queue {j} served an evicted entry"
        );
    }
}
