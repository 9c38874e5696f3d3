//! `driver::run` allocates its tables once per run, and so does each of
//! the four models it drives: the number of heap allocations must not
//! depend on how many packets the scenario offers.
//! (Buffers that *grow* — the delivery log of a run that outlives its
//! reservation, the model's own queues — `realloc`; they are not counted.)
//!
//! One test, alone in this binary: the counting allocator is global.

use conformance::{run, Offer, Org, PolicyKind, Scenario};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Four ports at full load for `packets` packet times per input.
fn back_to_back(packets: u64, credited: bool, recovery: bool) -> Scenario {
    let (n, s) = (4usize, 8u64);
    let mut offers = Vec::new();
    for k in 0..packets {
        for input in 0..n {
            offers.push(Offer {
                at: k * s,
                input,
                dst: (input + k as usize) % n,
                id: offers.len() as u64 + 1,
            });
        }
    }
    Scenario {
        seed: 0,
        n,
        slots: 16,
        credited,
        load: 1.0,
        offers,
        horizon: packets * s,
        fault: None,
        recovery,
        policy: PolicyKind::Static,
    }
}

fn allocations_of(sc: &Scenario, org: Org) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let r = run(sc, org);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(r.error.is_none(), "{org}: {:?}", r.error);
    assert_eq!(r.deliveries.len(), sc.offers.len(), "{org}");
    after - before
}

#[test]
fn a_run_allocates_the_same_number_of_times_for_100_offers_as_for_20() {
    // Both paths of the driver, word-level and cell-level, on all four
    // models; the last round arms ECC, whose check codes are a sidecar
    // `membank` rewrites at every store.
    for (credited, recovery) in [(false, false), (true, false), (false, true)] {
        let short = back_to_back(5, credited, recovery);
        let long = back_to_back(25, credited, recovery);
        assert_eq!((short.offers.len(), long.offers.len()), (20, 100));
        for org in Org::ALL {
            let (few, many) = (allocations_of(&short, org), allocations_of(&long, org));
            assert_eq!(
                few, many,
                "{org}, credited {credited}, recovery {recovery}: \
                 {few} allocations for 20 offers, {many} for 100"
            );
        }
    }
}
