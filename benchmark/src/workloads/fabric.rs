//! `fabric_scalar` and `fabric_behavioral`: a 1024-endpoint omega of 1280
//! radix-4 elements under three traffic patterns, run on one thread. With
//! scalar elements `fabric::runtime` does most of the work; with behavioral
//! elements `fabric::element` → `core::behavioral` does.

use crate::harness::{Mode, Pass};
use fabric::{topo, ElementKind, Fabric, FabricRun, Pattern, Topology, Workload};
use simkernel::split_seed;
use std::hint::black_box;

const LOAD: f64 = 0.6;
const DRAIN_SLOTS: u64 = 64;

/// Element kind of `fabric_scalar`.
pub const SCALAR: ElementKind = ElementKind::Scalar { capacity: Some(16) };
/// Element kind of `fabric_behavioral`.
pub const BEHAVIORAL: ElementKind = ElementKind::Behavioral { slots: 16 };

/// The 1024-endpoint omega: five stages of 256 radix-4 elements.
pub fn topology() -> Topology {
    topo::omega(4, 5)
}

/// Everything built before the first injection slot.
pub fn setup_scalar(_seed: u64) {
    black_box(Fabric::new(topology(), SCALAR));
}

/// Everything built before the first injection slot.
pub fn setup_behavioral(_seed: u64) {
    black_box(Fabric::new(topology(), BEHAVIORAL));
}

/// One pass of `fabric_scalar`.
pub fn run_scalar(pass: &mut Pass) {
    run(pass, SCALAR, 2048);
}

/// One pass of `fabric_behavioral`.
pub fn run_behavioral(pass: &mut Pass) {
    run(pass, BEHAVIORAL, 512);
}

fn build(tr: &mut crate::trace::Tracer, kind: ElementKind) -> Fabric {
    let topo = tr.span("fabric.topo.build_s.omega1024", 1, |_| topology());
    let name = format!("fabric.element.build_s.{}", kind.label());
    tr.span(&name, 1, |_| Fabric::new(topo, kind))
}

fn cells(run: &FabricRun) -> u64 {
    run.offered + run.delivered_total()
}

fn run(pass: &mut Pass, kind: ElementKind, base_slots: u64) {
    let tag = kind.label();
    let slots = pass.scaled(base_slots, 8);
    let run_span = format!("fabric.runtime.ns_per_cell.{tag}");
    let topo = topology();
    let elements = topo.elements() as u64;
    let ports: u64 = topo.radix.iter().map(|&r| u64::from(r)).sum();
    let mut uniform_digest = 0;
    for (k, &pattern) in Pattern::ALL.iter().enumerate() {
        let workload = Workload {
            pattern,
            load: LOAD,
            seed: split_seed(pass.seed, k as u64),
        };
        // One slice per pattern: build, run, and the post-processing every
        // user of a run pays for (content digest, sorted latencies).
        let (run, digest, latencies) = pass.slice(|tr| {
            let mut fab = build(tr, kind);
            let run = tr.span(
                &format!("fabric.runtime.run_s.{tag}.{}", pattern.label()),
                1,
                |tr| {
                    tr.span(&run_span, 0, |tr| {
                        let run = fab.run(slots, DRAIN_SLOTS, &workload, 1);
                        tr.add_units(cells(&run));
                        run
                    })
                },
            );
            let (digest, latencies) = tr.span("fabric.run.postprocess_s", 1, |_| {
                (run.digest(), run.latencies())
            });
            (run, digest, latencies)
        });
        if k == 0 {
            uniform_digest = digest;
        }
        let delivered = run.delivered_total();
        let accounted = delivered + run.dropped + run.residual;
        // `FabricRun::residual` counts buffered cells by `occupancy()`, and a
        // behavioral element frees a cell's slot when its read wave starts,
        // before the tail leaves: a run that ends with a backlog is short by
        // at most one cell per output port. Scalar elements must be exact.
        let slack = match kind {
            ElementKind::Scalar { .. } => 0,
            _ => ports,
        };
        let unaccounted = run
            .offered
            .checked_sub(accounted)
            .filter(|&gap| gap <= slack);
        pass.checks.check(unaccounted.is_some(), || {
            format!(
                "fabric {tag} {}: offered {} vs delivered {delivered} + dropped {} + residual {}",
                pattern.label(),
                run.offered,
                run.dropped,
                run.residual
            )
        });
        pass.tracer
            .count("fabric.run.unaccounted", unaccounted.unwrap_or(0));
        pass.tracer.count(
            &format!("fabric.run.element_windows.{tag}"),
            run.windows * elements,
        );
        pass.tracer.count("fabric.run.windows", run.windows);
        pass.tracer.count("fabric.run.offered", run.offered);
        pass.tracer.count("fabric.run.delivered", delivered);
        pass.tracer.count("fabric.run.dropped", run.dropped);
        pass.tracer.count("fabric.run.residual", run.residual);
        pass.work += cells(&run);
        pass.digest.mix(digest);
        if pass.verifying() {
            pass.offered += run.offered;
            pass.delivered += delivered;
            latencies.iter().for_each(|&l| pass.latencies.add(l));
        }
        black_box(latencies);
    }
    if pass.mode == Mode::Traced {
        // The sharded executor, as per-layer numbers only: two threads on a
        // shared two-core host spread 14–18 % whatever the correction.
        let workload = Workload {
            pattern: Pattern::ALL[0],
            load: LOAD,
            seed: split_seed(pass.seed, 0),
        };
        let (digest, cpu_s) = pass.side_slice(|tr| {
            let mut fab = build(tr, kind);
            tr.span(&format!("fabric.runtime.par_wall_s.j2.{tag}"), 1, |_| {
                let cpu0 = crate::host::cpu_s();
                let run = fab.run(slots, DRAIN_SLOTS, &workload, 2);
                let cpu_s = crate::host::cpu_s() - cpu0;
                (run.digest(), cpu_s)
            })
        });
        pass.tracer.count(
            &format!("fabric.runtime.par_cpu_us.j2.{tag}"),
            (cpu_s * 1e6) as u64,
        );
        pass.checks.check(digest == uniform_digest, || {
            format!("fabric {tag}: digest at jobs 2 differs from jobs 1")
        });
        let equal = u64::from(digest == uniform_digest);
        pass.tracer
            .count(&format!("fabric.runtime.par_digest_equal.{tag}"), equal);
    }
}
