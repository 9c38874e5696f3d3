//! The sweep engine's central guarantee: results are bit-identical for
//! every worker count. E1 (a real simulation sweep — four seeds per
//! switch size) is run at `--jobs` 1, 4 and 8 and the
//! rows compared field-for-field; the rendered report must also match
//! byte-for-byte.

use bench_harness::{e01, sweep};

#[test]
fn e1_rows_identical_across_worker_counts() {
    let run = |jobs: usize| {
        sweep::set_jobs(jobs);
        let rows = e01::rows(true);
        sweep::set_jobs(0);
        rows
    };
    let seq = run(1);
    assert!(!seq.is_empty());
    for jobs in [4usize, 8] {
        let par = run(jobs);
        assert_eq!(
            seq.len(),
            par.len(),
            "row count changed under --jobs {jobs}"
        );
        for (a, b) in seq.iter().zip(&par) {
            // Field-exact: the floats must be the same bits, not merely
            // close — the engine promises bit-identical execution.
            assert_eq!(a.n, b.n, "grid order changed under --jobs {jobs}");
            assert_eq!(
                a.measured.to_bits(),
                b.measured.to_bits(),
                "n={}: measured diverged under --jobs {jobs}",
                a.n
            );
            assert_eq!(a.range.0.to_bits(), b.range.0.to_bits());
            assert_eq!(a.range.1.to_bits(), b.range.1.to_bits());
            assert_eq!(a.theory.to_bits(), b.theory.to_bits());
        }
    }
}

#[test]
fn e1_report_identical_bytes_across_worker_counts() {
    let render = |jobs: usize| {
        sweep::set_jobs(jobs);
        let s = bench_harness::run_experiment("e1", true).expect("e1 exists");
        sweep::set_jobs(0);
        s
    };
    let seq = render(1);
    assert_eq!(seq, render(8), "rendered report diverged under --jobs 8");
}
