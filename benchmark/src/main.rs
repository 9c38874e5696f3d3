//! Command line of the benchmark; see `README.md`.

use pmsb_benchmark::calib::CAL_NOMINAL_S;
use pmsb_benchmark::compare::compare;
use pmsb_benchmark::contract::{benchmark_json, result_line, RUN_SECONDS};
use pmsb_benchmark::json::Json;
use pmsb_benchmark::run::{run, Options, RunResult, SECONDS_AT_SCALE_1, TIMED_PASSES};
use pmsb_benchmark::{host, workloads};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  benchmark all [--seed N] [--scale X] [--out DIR]
      every workload in a child process of its own; writes results.json,
      result_<workload>.json, trace_<workload>.json and manifest.json to DIR
      (default: benchmark/out)
  benchmark --workload NAME [--seed N] [--seconds S | --scale X] [--trace 0|1] [--out DIR]
      one workload; the last line printed is the result as one JSON object
  benchmark compare A/results.json B/results.json
      per workload and end-to-end metric: both medians, the ratio, a verdict
  benchmark contract
      print BENCHMARK.json";

const DEFAULT_SEED: u64 = 0x5EED;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("benchmark: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    scale: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        scale: None,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        let positive = |x: f64| (x.is_finite() && x > 0.0).then_some(x);
        match flag.as_str() {
            "--workload" => f.workload = Some(value.clone()),
            "--seed" => f.seed = parse_u64(value).ok_or_else(bad)?,
            "--seconds" => f.seconds = value.parse().ok().and_then(positive).ok_or_else(bad)?,
            "--scale" => f.scale = Some(value.parse().ok().and_then(positive).ok_or_else(bad)?),
            "--trace" => f.trace = matches!(parse_u64(value).ok_or_else(bad)?, 1..),
            "--out" => f.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(f)
}

fn real_main(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("all") => all(parse_flags(&args[1..])?),
        Some("compare") => match &args[1..] {
            [a, b] => {
                let read = |p: &String| {
                    let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                    Json::parse(&text).map_err(|e| format!("{p}: {e}"))
                };
                let (report, pass) = compare(&read(a)?, &read(b)?)?;
                print!("{report}");
                Ok(if pass {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                })
            }
            _ => Err("compare takes two results.json paths".into()),
        },
        Some("contract") => {
            print!("{}", benchmark_json().pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") => one(parse_flags(args)?),
        _ => Err("what should I run?".into()),
    }
}

/// One workload in this process.
fn one(f: Flags) -> Result<ExitCode, String> {
    let name = f.workload.ok_or("--workload is required")?;
    let workload = workloads::find(&name).ok_or_else(|| {
        let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("no workload called {name}; there are: {}", names.join(", "))
    })?;
    let opts = Options {
        workload,
        seed: f.seed,
        scale: f.scale.unwrap_or(f.seconds / SECONDS_AT_SCALE_1),
        trace: f.trace,
        out: f.out,
    };
    let r = run(&opts).map_err(|e| format!("writing results: {e}"))?;
    print_result(&r);
    println!("{}", result_line(&r));
    Ok(ExitCode::SUCCESS)
}

fn print_result(r: &RunResult) {
    println!("== {} ==", r.workload);
    for e in &r.end_to_end {
        let m = e.metric;
        match e.summary {
            Some(s) if s.n > 1 => println!(
                "{:<28} {:>14.6e} {:<7} (q1 {:.6e}, q3 {:.6e}, min {:.6e}, n {})",
                m.name, s.median, m.unit, s.q1, s.q3, s.min, s.n
            ),
            Some(s) => println!("{:<28} {:>14.6e} {}", m.name, s.median, m.unit),
            None => println!("{:<28} {:>14} {}", m.name, "null", m.unit),
        }
    }
    for m in r.per_layer.iter().flatten() {
        match m.value {
            Some(v) => println!("  {:<44} {:>14.6e} {}", m.name, v, m.unit),
            None => println!("  {:<44} {:>14} {}", m.name, "missing", m.unit),
        }
    }
    println!(
        "checks: {} attempted, {} failed",
        r.checks.attempted, r.checks.failed
    );
    for note in &r.checks.notes {
        println!("  FAILED: {note}");
    }
}

/// Every workload, each in a child process so `VmHWM` is its own.
fn all(f: Flags) -> Result<ExitCode, String> {
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = f.out.unwrap_or_else(|| bench_dir.join("out"));
    let scale = f.scale.unwrap_or(1.0);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut results = Vec::new();
    let mut ok = true;
    for w in &workloads::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name, "--trace", "1"])
            .args(["--seed", &f.seed.to_string(), "--scale", &scale.to_string()])
            .arg("--out")
            .arg(&out)
            .status()
            .map_err(|e| format!("starting {}: {e}", w.name))?;
        let path = out.join(format!("result_{}.json", w.name));
        let result = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t));
        match result {
            Ok(r) if status.success() => {
                let failed = r
                    .get("checks")
                    .and_then(|c| c.get("failed"))
                    .and_then(Json::as_f64);
                ok &= failed == Some(0.0);
                results.push(r);
            }
            // A panic or a watchdog expiry: every remaining check failed.
            _ => {
                eprintln!("benchmark: {} did not finish ({status})", w.name);
                ok = false;
            }
        }
    }
    let manifest = Json::obj([
        (
            "git_rev",
            Json::str(host::first_line_of(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            )),
        ),
        ("rustc", Json::str(host::first_line_of("rustc", &["-V"]))),
        ("nproc", (host::cores() as u64).into()),
        ("cal_nominal_s", CAL_NOMINAL_S.into()),
        ("seed", Json::str(format!("{:#x}", f.seed))),
        ("scale", scale.into()),
        ("timed_passes", (TIMED_PASSES as u64).into()),
        ("seconds_at_scale_1", SECONDS_AT_SCALE_1.into()),
    ]);
    let doc = Json::obj([
        ("manifest", manifest.clone()),
        ("workloads", Json::Arr(results)),
    ]);
    let write = |name: &str, text: String| {
        std::fs::write(out.join(name), text)
            .map_err(|e| format!("{}: {e}", out.join(name).display()))
    };
    write("manifest.json", manifest.pretty())?;
    write("results.json", doc.pretty())?;
    println!("wrote {}", out.join("results.json").display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
