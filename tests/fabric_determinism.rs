//! Determinism pinning of the fabric component-graph runtime.
//!
//! The sharded executor's contract is absolute: for any worker count,
//! the run is **byte-identical** to the sequential one — delivered
//! cells (order included), per-element accepted/dropped counters, and
//! the occupancy probe series. `FabricRun` derives `PartialEq` over all
//! of that, and `digest()` folds it into one FNV fingerprint, so each
//! comparison here is a full-state check, not a summary check.
//!
//! Both executors share the per-element run-ahead step, so agreeing with
//! each other is not enough: `tests/golden/fabric_digests.txt` holds the
//! digests the per-window executor produced for this ladder before the
//! run-ahead rule replaced it, and the run-ahead must reproduce them at
//! any `jobs` and at any chunk width. Its omega-64 rows also pin the three
//! word-level elements, and its `behavioral/2` rows a two-slot behavioral
//! pool that refuses cells on every run.
//!
//! Alongside: the link-latency law (every delivered cell pays at least
//! `hops × link_latency` cycles, scaled by the element cell time) and
//! cell conservation (offered = delivered + dropped + residual) on
//! every topology the builders produce.
//!
//! Last, `tests/golden/x05_rows.txt` pins every field of the X5 report
//! rows: X5 drives the scalar omega fabric with no cycle-level twin, so
//! the golden table is its oracle.

mod common;

use bench_harness::x05;
use std::fmt::Write as _;
use telegraphos::fabric::{topo, ElementKind, Fabric, FabricRun, Pattern, Topology, Workload};

/// The topology ladder under test: omega / banyan / folded Clos /
/// fat-tree at 64–256 endpoints.
fn ladder() -> Vec<(&'static str, Topology)> {
    vec![
        ("omega-64", topo::omega(4, 3)),
        ("omega-256", topo::omega(4, 4)),
        ("banyan-64", topo::banyan(4, 3)),
        ("clos-64", topo::clos2(16, 4)),
        ("clos-256", topo::clos2(16, 16)),
        ("fattree-128", topo::fat_tree(8)),
    ]
}

fn workload(seed: u64, pattern: Pattern) -> Workload {
    Workload {
        pattern,
        load: 0.6,
        seed,
    }
}

fn run_at(topology: &Topology, kind: ElementKind, w: &Workload, jobs: usize) -> FabricRun {
    Fabric::new(topology.clone(), kind).run(300, 200, w, jobs)
}

/// The element kinds a topology is run with: scalar always, behavioral
/// where the radix is uniform (packet-paced elements need one link
/// quantum across every hop).
fn kinds_for(topology: &Topology) -> Vec<ElementKind> {
    let mut kinds = vec![ElementKind::Scalar { capacity: Some(16) }];
    if topology.radix.iter().all(|&r| r == topology.radix[0]) {
        kinds.push(ElementKind::Behavioral {
            slots: 4 * topology.max_radix(),
        });
    }
    kinds
}

/// The forced-drop rows: a two-slot behavioral pool, which overflows under
/// both patterns, so cells refused at admission are pinned too (the
/// `4 × radix` pools of [`kinds_for`] barely drop at load 0.6).
const FORCED_DROP: ElementKind = ElementKind::Behavioral { slots: 2 };

/// The golden rows of a ladder rung as `(label, kind)`: [`kinds_for`], the
/// three word-level organizations on omega-64 only (one run each is ≈ 0.03
/// s in release, far more in a test build, so the other tests leave them
/// out), and [`FORCED_DROP`] on omega-64 and fattree-128, labelled
/// `behavioral/2` so its rows cannot collide with the larger pool's.
fn golden_kinds_for(name: &str, topology: &Topology) -> Vec<(String, ElementKind)> {
    let mut kinds = kinds_for(topology);
    if name == "omega-64" {
        kinds.extend([
            ElementKind::WordRtl { slots: 16 },
            ElementKind::WordWide { slots: 16 },
            ElementKind::WordIbank { banks: 16 },
        ]);
    }
    let mut rows: Vec<_> = kinds
        .into_iter()
        .map(|k| (k.label().to_string(), k))
        .collect();
    if matches!(name, "omega-64" | "fattree-128") {
        rows.push(("behavioral/2".to_string(), FORCED_DROP));
    }
    rows
}

const PATTERNS: [Pattern; 2] = [Pattern::Uniform, Pattern::Hotspot { hot_frac: 0.25 }];

#[test]
fn run_ahead_reproduces_the_per_window_executor_digests() {
    let golden: Vec<(String, u64)> = include_str!("golden/fabric_digests.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let (key, digest) = l.rsplit_once(' ').expect("key digest");
            let digest = u64::from_str_radix(digest.trim_start_matches("0x"), 16).expect("hex");
            (key.to_string(), digest)
        })
        .collect();
    let mut checked = 0;
    for (name, topology) in ladder() {
        for (label, kind) in golden_kinds_for(name, &topology) {
            for pattern in PATTERNS {
                let key = format!("{name} {label} {}", pattern.label());
                let want = golden.iter().find(|(k, _)| *k == key).map(|&(_, d)| d);
                let w = workload(0xDE7E12, pattern);
                for jobs in [1, 4] {
                    let run = run_at(&topology, kind, &w, jobs);
                    let got = run.digest();
                    let want = want.unwrap_or_else(|| {
                        panic!("no golden digest for {key} (this run: {got:#018x})")
                    });
                    assert_eq!(
                        got, want,
                        "{key}: digest {got:#018x} at jobs={jobs}, the golden file says {want:#018x}"
                    );
                    assert!(
                        kind != FORCED_DROP || run.dropped > 0,
                        "{key}: the two-slot pool refused nothing at jobs={jobs}"
                    );
                }
                checked += 1;
            }
        }
    }
    assert_eq!(checked, golden.len(), "every golden row is exercised");
}

#[test]
fn chunk_width_is_invisible() {
    // The sampling period caps the chunk: 1 -> one window per visit (the
    // old executor's schedule), 3 -> three, 64 -> the full run-ahead
    // depth. Only the occupancy series may differ (it has more or fewer
    // samples); everything the cells did must not.
    for (name, topology) in ladder() {
        for kind in kinds_for(&topology) {
            let w = workload(0xC4_0C, Pattern::Hotspot { hot_frac: 0.25 });
            let at = |every: u64, jobs: usize| {
                Fabric::new(topology.clone(), kind)
                    .with_sample_every(every)
                    .run(200, 400, &w, jobs)
            };
            let narrow = at(1, 1);
            assert!(
                narrow.offered > 0 && narrow.dropped > 0,
                "{name}: drops must occur"
            );
            for (every, jobs) in [(3, 1), (64, 1), (3, 3), (64, 3)] {
                let wide = at(every, jobs);
                let tag = format!("{name}/{} every={every} jobs={jobs}", kind.label());
                assert_eq!(narrow.offered, wide.offered, "{tag}: offered");
                assert_eq!(narrow.delivered, wide.delivered, "{tag}: delivered logs");
                assert_eq!(narrow.elem_accepted, wide.elem_accepted, "{tag}: accepted");
                assert_eq!(narrow.elem_dropped, wide.elem_dropped, "{tag}: dropped");
                assert_eq!(narrow.residual, wide.residual, "{tag}: residual");
            }
        }
    }
}

#[test]
fn sharded_runs_are_byte_identical_for_any_jobs() {
    for (name, topology) in ladder() {
        for kind in kinds_for(&topology) {
            for pattern in PATTERNS {
                let w = workload(0xDE7E12, pattern);
                let seq = run_at(&topology, kind, &w, 1);
                assert!(seq.offered > 0, "{name}: traffic must flow");
                for jobs in [2, 4, 8] {
                    let par = run_at(&topology, kind, &w, jobs);
                    assert_eq!(
                        seq.digest(),
                        par.digest(),
                        "{name}/{}/{}: digest diverged at jobs={jobs}",
                        kind.label(),
                        pattern.label()
                    );
                    assert_eq!(
                        seq,
                        par,
                        "{name}/{}/{}: full run state diverged at jobs={jobs}",
                        kind.label(),
                        pattern.label()
                    );
                }
            }
        }
    }
}

#[test]
fn conservation_holds_on_every_topology() {
    for (name, topology) in ladder() {
        let w = workload(0xC0_5E12, Pattern::Uniform);
        let run = run_at(&topology, ElementKind::Scalar { capacity: Some(8) }, &w, 4);
        assert_eq!(
            run.offered,
            run.delivered_total() + run.dropped + run.residual,
            "{name}: every offered cell must be delivered, dropped or residual"
        );
    }
}

#[test]
fn conservation_holds_when_word_elements_drop() {
    // Regression: a dropped packet arrives but never departs, so the
    // word adapters must exclude drops from reported occupancy or
    // residual accounting double-counts every loss. Tiny pools under
    // hotspot traffic force real drops through the RTL path.
    let topology = topo::omega(4, 3);
    let w = Workload {
        pattern: Pattern::Hotspot { hot_frac: 0.5 },
        load: 0.9,
        seed: 0xD20B,
    };
    for kind in [
        ElementKind::WordRtl { slots: 2 },
        ElementKind::WordWide { slots: 2 },
        ElementKind::WordIbank { banks: 2 },
    ] {
        let run = Fabric::new(topology.clone(), kind).run(80, 60, &w, 2);
        assert!(
            run.dropped > 0,
            "{}: hotspot must force drops",
            kind.label()
        );
        assert_eq!(
            run.offered,
            run.delivered_total() + run.dropped + run.residual,
            "{}: conservation must survive drops",
            kind.label()
        );
    }
}

#[test]
fn latency_respects_hops_times_link_latency() {
    // The scalar element forwards a cell in one cycle per hop, so with
    // link latency L a cell from src to dst can never beat
    // hops(src, dst) × L; the word-clocked organizations scale the same
    // bound by their cell time. Checked per delivered cell, for L = 1
    // and an exaggerated L = 3.
    for latency in [1u64, 3] {
        let topology = topo::omega(4, 3);
        let w = workload(0x1A7, Pattern::Uniform);
        let run = Fabric::new(topology.clone(), ElementKind::Scalar { capacity: None })
            .with_link_latency(latency)
            .run(300, 400, &w, 2);
        assert!(run.delivered_total() > 0);
        for (t, per_terminal) in run.delivered.iter().enumerate() {
            for &(cycle, cell) in per_terminal {
                let floor = topology.hops(cell.src.index(), t) as u64 * latency;
                assert!(
                    cycle - cell.birth >= floor,
                    "L={latency}: cell {:?} {}->{t} delivered after {} cycles, \
                     below the {} floor",
                    cell.id,
                    cell.src.index(),
                    cycle - cell.birth,
                    floor
                );
            }
        }
    }
}

#[test]
fn behavioral_fabric_latency_scales_with_cell_time() {
    // Behavioral elements clock one cell in S = 2k cycles, so the same
    // hop bound holds with the link latency equal to the cell time.
    let topology = topo::omega(4, 3);
    let w = workload(0xBEE, Pattern::Permutation);
    let mut fab = Fabric::new(topology.clone(), ElementKind::Behavioral { slots: 16 });
    let cell_time = fab.cell_time();
    assert_eq!(cell_time, 8, "4x4 behavioral element: S = 2k");
    let run = fab.run(120, 100, &w, 2);
    assert!(run.delivered_total() > 0);
    for (t, per_terminal) in run.delivered.iter().enumerate() {
        for &(cycle, cell) in per_terminal {
            let floor = topology.hops(cell.src.index(), t) as u64 * cell_time;
            assert!(
                cycle - cell.birth >= floor,
                "cell {:?} {}->{t}: latency {} below the {} hop floor",
                cell.id,
                cell.src.index(),
                cycle - cell.birth,
                floor
            );
        }
    }
}

#[test]
fn x5_rows_match_the_golden_file() {
    let mut doc = String::from(
        "# X5 rows at 4000 slots, seed 0x55, every f64 as its to_bits() hex. Captured at\n\
         # commit 442b4f8, where these rows were byte-identical to netsim's own\n\
         # scalar omega model; this table replaces that legacy comparison.\n\
         # k stages pool load | offered carried latency loss\n",
    );
    for (k, stages, pool, load) in x05::grid() {
        let r = x05::measure(k, stages, pool, load, 4_000, 0x55);
        assert_eq!((r.k, r.element_pool), (k, pool));
        let pool = pool.map_or("inf".to_string(), |p| p.to_string());
        writeln!(
            doc,
            "{k} {stages} {pool} {load} | {:#018x} {:#018x} {:#018x} {:#018x}",
            r.offered.to_bits(),
            r.carried.to_bits(),
            r.latency.to_bits(),
            r.loss.to_bits()
        )
        .expect("string write");
    }
    common::check_golden("x05_rows.txt", &doc);
}
