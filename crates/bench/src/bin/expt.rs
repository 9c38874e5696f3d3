//! `expt` — regenerate the paper's tables and figures.
//!
//! ```text
//! expt <id>...      run specific experiments (e1..e19, x1..x5)
//! expt all          run everything
//!   --policy P      restrict e18 to one buffer-sharing policy
//!                   (static | dt | pushout | occamy | bshare)
//! expt fuzz         differential conformance fuzz campaign
//!   --seeds N       campaign width (default 256)
//!   --base 0xHEX    base seed (default: the canonical campaign seed)
//! expt bench        perf gate: in-process ratios against constant floors;
//!                   reads and writes no file, exits nonzero if one breaks
//! expt check-determinism <id>...|all|fuzz
//!                   run each id at two worker counts in this process and
//!                   fail on the first differing report line
//!   --jobs A,B      the two worker counts (default 1,8)
//!   --seeds N       width of the `fuzz` campaign (default 64)
//! expt trace <id>   run e5/e6 with telemetry attached (see DESIGN.md §10)
//!   --vcd PATH      write the probe stream as a VCD waveform
//!   --metrics PATH  write the metrics pipeline's JSON
//!   --last N        flight-recorder window (default 4096 events)
//!   --smoke         validate the exports, write nothing
//! expt --quick ...  shrink run lengths (CI-sized)
//! expt --jobs N     sweep-engine worker count (default: all cores)
//! expt --seq        fully sequential (same as --jobs 1)
//! expt --watchdog N override every drain-loop budget with N cycles and
//!                   exit nonzero (with a message) if any drain expires
//! expt --list       list experiments
//! ```
//!
//! Experiment grids run through the deterministic parallel engine in
//! `bench_harness::sweep`; output is bit-identical for every `--jobs`
//! value. No invocation writes a file it was not given a path for:
//! wall-clock numbers are recorded by the `benchmark/` package.

use std::process::ExitCode;

/// A malformed command line: say why and exit with status 2.
fn bad_usage(why: String) -> ! {
    eprintln!("{why}");
    std::process::exit(2)
}

/// The `--policy` tokens as `static|dt|…`, in campaign order.
fn policy_tokens() -> String {
    conformance::PolicyKind::all_default()
        .map(|kind| kind.token())
        .join("|")
}

/// A flag's value as a positive integer.
fn positive<T>(flag: &str, what: &str, v: &str) -> T
where
    T: std::str::FromStr + PartialOrd + From<u8>,
{
    match v.parse::<T>() {
        Ok(n) if n >= T::from(1) => n,
        _ => bad_usage(format!("{flag} needs a {what}, got '{v}'")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut quick, mut smoke, mut list, mut seq) = (false, false, false, false);
    let mut jobs: Option<usize> = None;
    let mut jobs_pair: Option<(usize, usize)> = None;
    let mut seeds: Option<u64> = None;
    let mut base: Option<u64> = None;
    let mut vcd_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut last: Option<usize> = None;
    let mut watchdog: Option<u64> = None;
    let mut policy: Option<conformance::PolicyKind> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().map(|s| s.as_str()).unwrap_or("");
        if a == "--quick" || a == "-q" {
            quick = true;
        } else if a == "--smoke" {
            smoke = true;
        } else if a == "--list" || a == "-l" {
            list = true;
        } else if a == "--seq" {
            seq = true;
        } else if a == "--seeds" {
            seeds = Some(positive(a, "positive integer", value()));
        } else if a == "--base" {
            let v = value();
            let parsed = v
                .strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16))
                .unwrap_or_else(|| v.parse::<u64>());
            match parsed {
                Ok(n) => base = Some(n),
                _ => bad_usage(format!(
                    "--base needs an integer (decimal or 0xHEX), got '{v}'"
                )),
            }
        } else if a == "--jobs" || a == "-j" || a.starts_with("--jobs=") {
            let v = a.strip_prefix("--jobs=").unwrap_or_else(|| value());
            match v.split_once(',') {
                // `A,B`: the two worker counts of `check-determinism`.
                Some((x, y)) => {
                    let what = "positive integer or a pair A,B of them";
                    jobs_pair = Some((positive("--jobs", what, x), positive("--jobs", what, y)));
                }
                None => jobs = Some(positive("--jobs", "positive integer", v)),
            }
        } else if a == "--vcd" || a == "--metrics" {
            let path = match it.next() {
                Some(p) if !p.starts_with('-') => Some(p.clone()),
                _ => bad_usage(format!("{a} needs an output path")),
            };
            if a == "--vcd" {
                vcd_path = path;
            } else {
                metrics_path = path;
            }
        } else if a == "--last" {
            last = Some(positive(a, "positive integer", value()));
        } else if a == "--policy" {
            let v = value();
            policy = conformance::PolicyKind::parse(v).or_else(|| {
                bad_usage(format!(
                    "--policy needs one of {}, got '{v}'",
                    policy_tokens()
                ))
            });
        } else if a == "--watchdog" {
            watchdog = Some(positive(a, "positive cycle count", value()));
        } else if a.starts_with('-') {
            bad_usage(format!("unknown flag '{a}' (try --list)"));
        } else {
            ids.push(a.to_lowercase());
        }
    }
    if seq && jobs.map(|j| j > 1) == Some(true) {
        eprintln!("--seq contradicts --jobs {}", jobs.unwrap());
        return ExitCode::from(2);
    }
    bench_harness::sweep::set_jobs(if seq { 1 } else { jobs.unwrap_or(0) });
    if smoke && !ids.iter().any(|i| i == "trace") {
        eprintln!("--smoke only applies to 'expt trace'; --quick is the CI-sized depth");
        return ExitCode::from(2);
    }
    if policy.is_some() && !ids.iter().any(|i| i == "e18" || i == "all") {
        eprintln!("--policy only applies to 'expt e18'");
        return ExitCode::from(2);
    }
    bench_harness::e18::set_policy_filter(policy);
    if let Some(n) = watchdog {
        simkernel::watchdog::set_limit(n);
    }
    // Snapshot the expiry ledger so the exit-code decision below reports
    // only drains that hung during *this* invocation.
    let wd_baseline = simkernel::watchdog::expiries();
    let watchdog_verdict = move || -> ExitCode {
        let Some(limit) = watchdog else {
            return ExitCode::SUCCESS;
        };
        let hung = simkernel::watchdog::expiries_since(wd_baseline);
        if hung == 0 {
            return ExitCode::SUCCESS;
        }
        eprintln!(
            "[watchdog: {hung} drain{} failed to reach quiescence under the \
             {limit}-cycle budget (escalation included); results above are \
             complete but the run is marked failed]",
            if hung == 1 { "" } else { "s" }
        );
        ExitCode::FAILURE
    };

    if ids.iter().any(|i| i == "bench") {
        if ids.len() > 1 {
            eprintln!("'bench' is a standalone harness; drop the other ids");
            return ExitCode::from(2);
        }
        println!("perf gate: in-process ratios against constant floors");
        let verdicts = bench_harness::perf::run(quick);
        for v in &verdicts {
            println!("  {} {}", if v.pass { "ok  " } else { "FAIL" }, v.line);
        }
        return if verdicts.iter().all(|v| v.pass) {
            println!("[gate: every floor held]");
            ExitCode::SUCCESS
        } else {
            eprintln!("[gate: a floor broke (the FAIL lines above)]");
            ExitCode::FAILURE
        };
    }

    if let Some(at) = ids.iter().position(|i| i == "check-determinism") {
        ids.remove(at);
        if let Some(all) = ids.iter().position(|i| i == "all") {
            ids.splice(
                all..=all,
                bench_harness::ALL.iter().map(|id| id.to_string()),
            );
        }
        let known = |id: &String| id == "fuzz" || bench_harness::ALL.contains(&id.as_str());
        if let Some(id) = ids.iter().find(|id| !known(id)) {
            bad_usage(format!("unknown experiment '{id}' (try --list)"));
        }
        if ids.is_empty() || jobs.is_some() || seq {
            bad_usage(
                "usage: expt [--quick] check-determinism <id>...|all|fuzz [--jobs A,B] [--seeds N]"
                    .into(),
            );
        }
        if base.is_some() {
            bad_usage("--base only applies to 'expt fuzz'".into());
        }
        let pair = jobs_pair.unwrap_or((1, 8));
        for id in &ids {
            match bench_harness::check_determinism(id, quick, seeds.unwrap_or(64), pair) {
                Ok(()) => println!("{id}: identical at --jobs {} and --jobs {}", pair.0, pair.1),
                Err(why) => {
                    eprintln!("{why}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return watchdog_verdict();
    }
    if jobs_pair.is_some() {
        bad_usage("--jobs A,B only applies to 'expt check-determinism'".into());
    }

    if ids.iter().any(|i| i == "trace") {
        let others: Vec<&String> = ids.iter().filter(|i| i.as_str() != "trace").collect();
        if others.len() != 1 {
            eprintln!(
                "usage: expt trace <e5|e6> [--vcd PATH] [--metrics PATH] [--last N] [--smoke]"
            );
            return ExitCode::from(2);
        }
        return match bench_harness::tracecmd::run(others[0], last) {
            Ok(out) => {
                print!("{}", out.report);
                if smoke {
                    println!("[trace --smoke: VCD and metrics exports validated]");
                } else {
                    if let Some(p) = &vcd_path {
                        if let Err(e) = std::fs::write(p, &out.vcd) {
                            eprintln!("[could not write {p}: {e}]");
                            return ExitCode::FAILURE;
                        }
                        eprintln!("[wrote {p}]");
                    }
                    if let Some(p) = &metrics_path {
                        if let Err(e) = std::fs::write(p, &out.metrics) {
                            eprintln!("[could not write {p}: {e}]");
                            return ExitCode::FAILURE;
                        }
                        eprintln!("[wrote {p}]");
                    }
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("trace failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if vcd_path.is_some() || metrics_path.is_some() || last.is_some() {
        eprintln!("--vcd/--metrics/--last only apply to 'expt trace'");
        return ExitCode::from(2);
    }

    if ids.iter().any(|i| i == "fuzz") {
        if ids.len() > 1 {
            eprintln!("'fuzz' is a standalone campaign; drop the other ids");
            return ExitCode::from(2);
        }
        let (report, ok) = bench_harness::fuzz::campaign(
            seeds.unwrap_or(bench_harness::fuzz::DEFAULT_SEEDS),
            base.unwrap_or(bench_harness::fuzz::DEFAULT_BASE),
        );
        println!("{report}");
        if !ok {
            return ExitCode::FAILURE;
        }
        return watchdog_verdict();
    }
    if seeds.is_some() || base.is_some() {
        eprintln!("--seeds/--base only apply to 'expt fuzz'");
        return ExitCode::from(2);
    }

    if list || ids.is_empty() {
        eprintln!(
            "usage: expt [--quick] [--jobs N | --seq] [--watchdog N] <e1..e19 | x1..x5 | all>...\n       \
             expt e18 [--policy {}]\n       \
             expt fuzz [--seeds N] [--base 0xHEX] [--jobs N | --seq]\n       \
             expt bench [--quick]\n       \
             expt check-determinism <id>...|all|fuzz [--jobs A,B] [--seeds N]\n       \
             expt trace <e5|e6> [--vcd PATH] [--metrics PATH] [--last N] [--smoke]\n\nexperiments:",
            policy_tokens()
        );
        for id in bench_harness::ALL {
            eprintln!("  {id}");
        }
        eprintln!("  fuzz  (differential conformance campaign; see EXPERIMENTS.md)");
        eprintln!("  bench (perf gate: in-process ratios against constant floors; no file read or written)");
        eprintln!("  trace (telemetry export: VCD waveform + metrics JSON; see DESIGN.md §10)");
        return if list {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(2)
        };
    }

    let selected: Vec<&str> = if ids.iter().any(|i| i == "all") {
        bench_harness::ALL.to_vec()
    } else {
        ids.iter().map(String::as_str).collect()
    };
    if let Some(id) = selected.iter().find(|id| !bench_harness::ALL.contains(id)) {
        eprintln!("unknown experiment '{id}' (try --list)");
        return ExitCode::from(2);
    }

    for (i, id) in selected.iter().enumerate() {
        if i > 0 {
            println!("\n{}\n", "=".repeat(90));
        }
        let t0 = std::time::Instant::now();
        let skipped_before = simkernel::horizon::ff_skipped();
        let executed_before = simkernel::horizon::ff_executed();
        let report = bench_harness::run_experiment(id, quick).expect("a listed id");
        let secs = t0.elapsed().as_secs_f64();
        let skipped = simkernel::horizon::ff_skipped() - skipped_before;
        let executed = simkernel::horizon::ff_executed() - executed_before;
        println!("{report}");
        if skipped + executed > 0 {
            println!(
                "[{id} completed in {secs:.1}s; fast-forward skipped {skipped} of {} \
                 kernel cycles ({:.1}%)]",
                skipped + executed,
                100.0 * skipped as f64 / (skipped + executed) as f64
            );
        } else {
            println!("[{id} completed in {secs:.1}s]");
        }
    }

    watchdog_verdict()
}
