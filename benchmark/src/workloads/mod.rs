//! The seven workloads.

pub mod altorg_dense;
pub mod behavioral_loads;
pub mod fabric;
pub mod fuzz_campaign;
pub mod paper_campaign;
pub mod rtl_dense;
pub mod wordswitch;

use crate::harness::Pass;

/// One workload: a name, the reason it exists, and how to run it.
pub struct Workload {
    /// Name on the command line and in every report.
    pub name: &'static str,
    /// What `work_per_s` counts.
    pub work_unit: &'static str,
    /// Sizes at scale 1.
    pub sizes: &'static str,
    /// Why the workload was chosen.
    pub why: &'static str,
    /// One pass; the pass's mode says which.
    pub run: fn(&mut Pass),
    /// Builds once everything the workload builds before its first
    /// simulated cycle; `setup_s` is the median time of a call.
    pub setup: fn(u64),
    /// False where delivered ÷ offered and latency have no meaning.
    pub has_sim_stats: bool,
}

/// Every workload, in report order.
pub const ALL: [Workload; 7] = [
    Workload {
        name: "rtl_dense",
        work_unit: "cycles",
        sizes: "PipelinedSwitch 8x8, 64 slots, 8 random feeders at load 0.8, 4 Mi cycles in 65536-cycle chunks",
        why: "the paper's own organization: core::rtl and membank::pipelined do nearly all the work; fabric, horizon and conformance do nothing",
        run: rtl_dense::run,
        setup: rtl_dense::setup,
        has_sim_stats: true,
    },
    Workload {
        name: "altorg_dense",
        work_unit: "cycles",
        sizes: "WideMemorySwitchRtl fig3(8, 64) then InterleavedSwitch symmetric(8, 64), rtl_dense's wire schedule, 3 Mi cycles each",
        why: "section 5's alternative organizations: an RTL-only gain must leave this flat, and a shared switch skeleton must not slow it",
        run: altorg_dense::run,
        setup: altorg_dense::setup,
        has_sim_stats: true,
    },
    Workload {
        name: "behavioral_loads",
        work_unit: "cycles",
        sizes: "BehavioralSwitch 8x8, 64 slots, event-driven at loads 0.10 / 0.50 / 0.95 for 48 Mi / 12 Mi / 12 Mi cycles",
        why: "core::behavioral and simkernel::horizon do all the work: a third fast-forward, a third dense bit-parallel, so a gain for one paid by the other shows",
        run: behavioral_loads::run,
        setup: behavioral_loads::setup,
        has_sim_stats: true,
    },
    Workload {
        name: "fabric_scalar",
        work_unit: "cells",
        sizes: "omega(4, 5) of Scalar{capacity 16}, uniform / permutation / hotspot 0.25 at load 0.6, 2048 slots + 64 drain each, jobs 1",
        why: "1280 cheap elements, so fabric::runtime (window loop, extract_due, sort, pending pushes) does most of the work; executor changes show here first",
        run: fabric::run_scalar,
        setup: fabric::setup_scalar,
        has_sim_stats: true,
    },
    Workload {
        name: "fabric_behavioral",
        work_unit: "cells",
        sizes: "omega(4, 5) of Behavioral{slots 16}, the same three patterns at load 0.6, 512 slots + 64 drain each, jobs 1",
        why: "same executor, but fabric::element over core::behavioral does most of the work: an executor-only gain moves this little, an element gain a lot",
        run: fabric::run_behavioral,
        setup: fabric::setup_behavioral,
        has_sim_stats: true,
    },
    Workload {
        name: "fuzz_campaign",
        work_unit: "seeds",
        sizes: "conformance::run_seed(seed, i) for i in 0..4096 in slices of 64, Coverage::absorb on each",
        why: "the four organizations in short scenarios with construction, drain, credits, faults with ECC recovery, sharing policies and the oracle",
        run: fuzz_campaign::run,
        setup: fuzz_campaign::setup,
        has_sim_stats: true,
    },
    Workload {
        name: "paper_campaign",
        work_unit: "points",
        sizes: "bench_harness::run_experiment(id, quick) for every id but e2, e3, e12, e19, x1, x2, x5, one sweep worker; not scaled",
        why: "what regenerating the paper's tables costs: bench::sweep, baselines, traffic, stats, vlsimodel; the guard for harness and deletion changes",
        run: paper_campaign::run,
        setup: paper_campaign::setup,
        has_sim_stats: false,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}
