//! # bench-harness — regenerating every table and figure of the paper
//!
//! One module per experiment, numbered as in DESIGN.md §4. Each module
//! exposes a `run(quick) -> String` that performs the simulation /
//! model evaluation and renders the paper-shaped table, plus typed row
//! structs so integration tests can assert on the numbers rather than
//! parse text. `quick = true` shrinks run lengths for CI; the `expt`
//! binary defaults to full runs.
//!
//! Experiment grids execute through the deterministic parallel engine
//! in [`sweep`]: a module with a grid submits its independent points to
//! [`sweep::map`], which fans them out over a worker pool (`expt
//! --jobs N`, default all cores) and returns rows in canonical grid
//! order — bit-identical to a sequential run (`expt --seq`). E5, E7–E9,
//! E11, E13 and E14 have no grid, and E19 runs its points in order, each
//! fabric sharded over [`sweep::jobs`] workers.
//!
//! | Module | Paper locus | Claim regenerated |
//! |--------|------------|-------------------|
//! | [`e01`] | §2.1 \[KaHM87\] | input FIFO saturates ≈ 58.6 % |
//! | [`e02`] | §2.1 \[Dally90\] | wormhole 1-lane saturation, lanes recover |
//! | [`e03`] | §2.2 \[HlKa88\] | buffer sizes for loss 10⁻³: shared ≪ output ≪ smoothing |
//! | [`e04`] | §2.2 \[AOST93\] | scheduled input buffering ≈ 2× latency of output queueing |
//! | [`e05`] | §3.2–3.3 fig 5 | control-signal wave table, cut-through timing |
//! | [`e06`] | §3.4 | staggered-initiation latency = (p/4)(n−1)/n |
//! | [`e07`] | §3.5 | quantum/throughput table + half-quantum demo |
//! | [`e08`] | §4 | Telegraphos I/II/III configuration table |
//! | [`e09`] | §4.2 fig 6 | Telegraphos II floorplan accounting |
//! | [`e10`] | §4.3 fig 7 | word-line RC: pipelined vs wide |
//! | [`e11`] | §4.4 fig 8 | Telegraphos III headline numbers |
//! | [`e12`] | §5.1 fig 9 | input vs shared buffering silicon |
//! | [`e13`] | §5.2 | wide vs pipelined peripheral area |
//! | [`e14`] | §5.3 | PRIZMA crossbar cost ratio |
//! | [`e15`] | §2 figs 1–2 | architecture throughput/latency sweep |
//! | [`e16`] | extension | fault-injection campaign: detection coverage |
//! | [`e17`] | extension | chaos campaign: recovery ladder, MTTR, degraded throughput |
//! | [`e18`] | extension | buffer-sharing policy lab: admission policies under incast/hotspot/on-off |
//! | [`e19`] | extension | fabric scaling: component-graph networks of real elements, 64–1024 endpoints |
//! | [`x01`] | extension of §2 | hotspot traffic across architectures: sharing donates idle memory to the hot output |
//! | [`x02`] | extension of §2.1 | bursty on/off traffic: loss vs burst length at fixed load and memory |
//! | [`x03`] | extension of §3.2/§5.2 | word-level organization shoot-out: pipelined vs wide memory, with and without crossbar |
//! | [`x04`] | extension of §3.5 | how far the pipelined organization scales: quantum, throughput, pins, area vs ports |
//! | [`x05`] | extension of §1 | switches as building blocks of multi-stage omega fabrics |
//!
//! [`perf`] is not an experiment: it is the pass/fail perf gate behind
//! `expt bench`. Wall-clock numbers are recorded by the `benchmark/`
//! package at the repository root, nowhere in this crate.

#![forbid(unsafe_code)]

pub mod e01;
pub mod e02;
pub mod e03;
pub mod e04;
pub mod e05;
pub mod e06;
pub mod e07;
pub mod e08;
pub mod e09;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod e17;
pub mod e18;
pub mod e19;
pub mod fuzz;
pub mod perf;
pub mod sweep;
pub mod table;
pub mod tracecmd;
pub mod x01;
pub mod x02;
pub mod x03;
pub mod x04;
pub mod x05;

/// An experiment id and the function that renders its report (`quick`
/// shrinks run lengths).
type Entry = (&'static str, fn(bool) -> String);

/// Every experiment, in order. [`ALL`], [`run_experiment`] and `expt` all
/// read this one list.
const REGISTRY: [Entry; 24] = [
    ("e1", e01::run),
    ("e2", e02::run),
    ("e3", e03::run),
    ("e4", e04::run),
    ("e5", e05::run),
    ("e6", e06::run),
    ("e7", e07::run),
    ("e8", e08::run),
    ("e9", e09::run),
    ("e10", e10::run),
    ("e11", e11::run),
    ("e12", e12::run),
    ("e13", e13::run),
    ("e14", e14::run),
    ("e15", e15::run),
    ("e16", e16::run),
    ("e17", e17::run),
    ("e18", e18::run),
    ("e19", e19::run),
    ("x1", x01::run),
    ("x2", x02::run),
    ("x3", x03::run),
    ("x4", x04::run),
    ("x5", x05::run),
];

/// All experiment ids, in order.
pub const ALL: &[&str] = &{
    let mut ids = [""; REGISTRY.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = REGISTRY[i].0;
        i += 1;
    }
    ids
};

/// Run one experiment by id (an entry of [`ALL`]); `quick` shrinks run
/// lengths. `None` for an unknown id.
pub fn run_experiment(id: &str, quick: bool) -> Option<String> {
    let (_, run) = REGISTRY.iter().find(|(known, _)| *known == id)?;
    Some(run(quick))
}

/// The lines of `report` two runs of the same computation must agree on.
/// The per-experiment `completed in` wall-time footers are the one thing
/// allowed to differ, and this is the one place they are stripped.
fn stable_lines(report: &str) -> Vec<&str> {
    let footer = "completed in";
    report.lines().filter(|l| !l.contains(footer)).collect()
}

/// Run `id` — an experiment id, or `fuzz` for a `seeds`-wide conformance
/// campaign — at both worker counts of `jobs` in this process and compare
/// the reports. `Err` shows the first differing line, or says that the
/// run itself failed.
pub fn check_determinism(
    id: &str,
    quick: bool,
    seeds: u64,
    jobs: (usize, usize),
) -> Result<(), String> {
    let run = |j: usize| {
        sweep::set_jobs(j);
        if id == "fuzz" {
            let (report, ok) = fuzz::campaign(seeds, fuzz::DEFAULT_BASE);
            if ok {
                Ok(report)
            } else {
                Err(format!("fuzz campaign failed at --jobs {j}:\n{report}"))
            }
        } else {
            run_experiment(id, quick).ok_or_else(|| format!("unknown experiment '{id}'"))
        }
    };
    let (a, b) = (run(jobs.0)?, run(jobs.1)?);
    let (a, b) = (stable_lines(&a), stable_lines(&b));
    if a == b {
        return Ok(());
    }
    let n = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
    let line = |r: &[&str]| r.get(n).copied().unwrap_or("<end of report>").to_string();
    Err(format!(
        "{id}: line {} differs\n  --jobs {}: {}\n  --jobs {}: {}",
        n + 1,
        jobs.0,
        line(&a),
        jobs.1,
        line(&b),
    ))
}

#[cfg(test)]
mod tests {
    #[test]
    fn stable_lines_drop_wall_time_footers_only() {
        let report = "row 1\n[e1 completed in 0.1s]\nrow 2\n";
        assert_eq!(super::stable_lines(report), ["row 1", "row 2"]);
    }
}
