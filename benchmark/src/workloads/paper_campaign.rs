//! `paper_campaign`: what a user regenerating the paper's tables pays —
//! `bench::sweep`, `baselines`, `traffic`, `stats`, `vlsimodel` — at the
//! harness's quick depth, on one sweep worker.

use crate::harness::Pass;
use bench_harness::{run_experiment, sweep};
use std::hint::black_box;

/// Left out of the campaign: `e2` is a wormhole mesh, not the paper's switch,
/// and 35 % of the sequential wall; `e3` and `e12` are one loss search that
/// alone costs as much as half of the rest; `x1` and `x2` put the slot-level
/// architectures of `e4` and `e15` under other traffic and cost a third of
/// the rest (the same `baselines` code runs in `e4` and `e15`); `e19` and
/// `x5` are what the fabric workloads measure. The campaign cannot be scaled,
/// so what stays has to fit eight passes into a run of a few seconds.
const EXCLUDED: [&str; 7] = ["e2", "e3", "e12", "e19", "x1", "x2", "x5"];

/// The experiments that only evaluate the VLSI model: no simulated cycle.
const MODEL_ONLY: [&str; 6] = ["e8", "e9", "e10", "e11", "e13", "e14"];

/// First id of each timed slice: an expensive id alone, or a run of cheap ones.
const SLICE_STARTS: [&str; 5] = ["e1", "e4", "e5", "e15", "e16"];

/// The campaign's experiment ids, in `bench_harness::ALL` order.
pub fn ids() -> impl Iterator<Item = &'static str> {
    bench_harness::ALL
        .iter()
        .copied()
        .filter(|id| !EXCLUDED.contains(id))
}

/// The part of the campaign that runs no simulated cycle: the VLSI-model
/// tables. The campaign has no constructor of its own to time.
pub fn setup(_seed: u64) {
    sweep::set_jobs(1);
    for id in MODEL_ONLY {
        black_box(run_experiment(id, true));
    }
}

/// One pass. The experiments carry their own seeds; `--seed` changes nothing.
pub fn run(pass: &mut Pass) {
    sweep::set_jobs(1);
    let ids: Vec<&str> = ids().collect();
    let points0 = sweep::points_run();
    let mut start = 0;
    while start < ids.len() {
        let len = ids[start + 1..]
            .iter()
            .position(|id| SLICE_STARTS.contains(id))
            .map_or(ids.len() - start, |p| p + 1);
        let tables = pass.slice(|tr| {
            ids[start..start + len]
                .iter()
                .map(|id| {
                    tr.span(&format!("bench.experiment_s.{id}"), 1, |_| {
                        run_experiment(id, true).unwrap_or_default()
                    })
                })
                .collect::<Vec<String>>()
        });
        for (id, table) in ids[start..].iter().zip(&tables) {
            pass.checks
                .check(!table.is_empty(), || format!("{id}: empty table"));
            pass.digest.bytes(table.as_bytes());
            pass.tracer.count("bench.table_bytes", table.len() as u64);
        }
        start += len;
    }
    let points = sweep::points_run() - points0;
    pass.tracer.count("bench.sweep.points", points);
    pass.work += points;
}
