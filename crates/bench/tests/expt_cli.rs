//! The `expt` command line, driven through the real binary: what it
//! rejects, what it lists, and that running an experiment leaves nothing
//! behind in the working directory.

use std::process::{Command, Output};

fn expt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_expt"))
        .args(args)
        .output()
        .expect("the expt binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_flag_is_rejected_by_name() {
    for (args, flag) in [
        (&["--quik", "--seq", "e14"][..], "--quik"),
        (&["e14", "-x"], "-x"),
        (&["bench", "--gat"], "--gat"),
        (&["bench", "--gate"], "--gate"),
    ] {
        let out = expt(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(&format!("unknown flag '{flag}'")));
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
    }
}

/// The expiry ledger reaches the exit code: a budget no drain can meet
/// fails the run after, not instead of, its table.
#[test]
fn an_expired_watchdog_fails_the_run_after_its_table() {
    let out = expt(&["--watchdog", "1", "--quick", "e16"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("drains failed to reach quiescence"),
        "{}",
        stderr(&out)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.starts_with("E16"), "{table}");
    assert!(table.contains("[e16 completed in"), "{table}");
}

/// The same verdict closes a determinism check: both runs agreeing does
/// not excuse a drain that hung in either.
#[test]
fn an_expired_watchdog_fails_a_determinism_check() {
    let out = expt(&[
        "--watchdog",
        "1",
        "--quick",
        "check-determinism",
        "e16",
        "--jobs",
        "1,2",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("drains failed to reach quiescence"),
        "{}",
        stderr(&out)
    );
    let verdict = String::from_utf8_lossy(&out.stdout);
    assert!(
        verdict.contains("e16: identical at --jobs 1 and --jobs 2"),
        "{verdict}"
    );
}

/// `check-determinism fuzz` always runs the canonical base, so a `--base`
/// there is refused rather than silently ignored.
#[test]
fn base_outside_fuzz_is_rejected_by_check_determinism() {
    let out = expt(&[
        "--quick",
        "--base",
        "0x1234",
        "check-determinism",
        "fuzz",
        "--seeds",
        "4",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--base"), "{}", stderr(&out));
    assert!(out.stdout.is_empty(), "nothing may run");
}

#[test]
fn smoke_outside_trace_is_rejected_naming_trace() {
    let out = expt(&["--smoke", "e17"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("'expt trace'"), "{}", stderr(&out));
    assert!(out.stdout.is_empty(), "nothing may run");
}

#[test]
fn an_unknown_policy_is_rejected_naming_every_token() {
    // `dyn-thresh` was once an undocumented alias; only the tokens parse.
    for bad in ["bogus", "dyn-thresh"] {
        let out = expt(&["--policy", bad, "e18"]);
        assert_eq!(out.status.code(), Some(2), "{bad}");
        let err = stderr(&out);
        assert!(err.contains(&format!("got '{bad}'")), "{err}");
        for token in ["static", "dt", "pushout", "occamy", "bshare"] {
            assert!(err.contains(token), "{bad}: {err} must name {token}");
        }
        assert!(out.stdout.is_empty(), "{bad}: nothing may run");
    }
}

#[test]
fn policy_outside_e18_is_rejected() {
    let out = expt(&["--policy", "dt", "e1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("only applies to 'expt e18'"),
        "{}",
        stderr(&out)
    );
    assert!(out.stdout.is_empty(), "nothing may run");
}

#[test]
fn list_names_every_experiment() {
    let out = expt(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let listing = stderr(&out);
    let listed: Vec<&str> = listing
        .lines()
        .filter_map(|l| l.strip_prefix("  "))
        .filter(|id| bench_harness::ALL.contains(id))
        .collect();
    assert_eq!(listed, bench_harness::ALL);
    assert_eq!(listed.len(), 24);
}

#[test]
fn running_an_experiment_leaves_no_file_behind() {
    let cwd = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("expt_cli_cwd");
    std::fs::create_dir_all(&cwd).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_expt"))
        .args(["--quick", "e14"])
        .current_dir(&cwd)
        .output()
        .expect("the expt binary runs");
    let left: Vec<_> = std::fs::read_dir(&cwd)
        .expect("temp dir lists")
        .map(|e| e.expect("entry").file_name())
        .collect();
    std::fs::remove_dir_all(&cwd).expect("temp dir removes");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("E14"));
    assert!(left.is_empty(), "left behind: {left:?}");
}
