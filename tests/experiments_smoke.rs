//! Smoke test: every experiment module runs to completion in quick mode
//! and produces a non-trivial report mentioning what it measured. One
//! `#[test]` per experiment, so the test harness runs them side by side.

use bench_harness::{run_experiment, ALL};

/// One quick run of `id`: a report of some length that cites the paper
/// claim it regenerates (or is marked an extension).
fn runs_quick(id: &str) {
    let out = run_experiment(id, true).unwrap_or_else(|| panic!("{id} unknown"));
    assert!(out.len() > 100, "{id}: report suspiciously short:\n{out}");
    let cites = out.to_lowercase();
    assert!(
        cites.contains("paper") || cites.contains("extension"),
        "{id}: report must cite the paper claim it regenerates (or be \
         marked an extension)"
    );
}

/// `LISTED` (the ids below, in order) plus one test per id in the module
/// `every_experiment_runs_quick`.
macro_rules! every_experiment_runs_quick {
    ($($id:ident)*) => {
        const LISTED: &[&str] = &[$(stringify!($id)),*];

        mod every_experiment_runs_quick {
            $(
                #[test]
                fn $id() {
                    super::runs_quick(stringify!($id));
                }
            )*
        }
    };
}

every_experiment_runs_quick!(
    e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 e14 e15 e16 e17 e18 e19
    x1 x2 x3 x4 x5
);

#[test]
fn unknown_experiment_rejected() {
    assert!(run_experiment("e99", true).is_none());
}

/// The registry itself is part of the contract: every paper experiment
/// (e1–e19) and every extension (x1–x5) must be listed — in order — and
/// each must have its smoke test above. Dropping an id from `ALL` would
/// otherwise silently remove it from `expt all` and CI's quick runs.
#[test]
fn registry_is_complete_and_ordered() {
    let expected: Vec<String> = (1..=19)
        .map(|k| format!("e{k}"))
        .chain((1..=5).map(|k| format!("x{k}")))
        .collect();
    assert_eq!(
        ALL.to_vec(),
        expected.iter().map(String::as_str).collect::<Vec<_>>(),
        "experiment registry drifted from the e01–e19/x01–x05 grid"
    );
    assert_eq!(LISTED, ALL, "every registered experiment has a smoke test");
}
