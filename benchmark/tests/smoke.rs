//! A `--scale 0.02` run of every workload through the real binary: all
//! checks pass, every named metric is there and finite, and the names keep
//! to the contract's limits.

use pmsb_benchmark::contract::{benchmark_json, METRICS};
use pmsb_benchmark::json::Json;
use pmsb_benchmark::workloads;
use std::path::Path;
use std::process::Command;

fn run(workload: &str, trace: &str, out: &Path) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "0xA11CE",
            "--scale",
            "0.02",
            "--trace",
            trace,
        ])
        .arg("--out")
        .arg(out)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(output.status.success(), "{workload}: {stdout}");
    Json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

fn well_named(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn names(list: &Json) -> Vec<String> {
    let name = |m: &Json| {
        m.get("name")
            .and_then(Json::as_str)
            .expect("a name")
            .to_string()
    };
    list.elements().iter().map(name).collect()
}

#[test]
fn every_workload_runs_clean_and_reports_every_metric() {
    let contract = benchmark_json();
    let end_to_end = names(contract.get("end_to_end").expect("end_to_end"));
    let per_layer = names(contract.get("per_layer").expect("per_layer"));
    assert!(end_to_end.len() <= 16 && per_layer.len() <= 128);
    assert!(end_to_end.iter().chain(&per_layer).all(|n| well_named(n)));
    assert!(end_to_end.contains(&"setup_s".to_string()));

    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    for w in &workloads::ALL {
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let line = run(w.name, trace, &out);
            assert_eq!(
                line.get("correct"),
                Some(&Json::Bool(true)),
                "{}: {line}",
                w.name
            );
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(line.get("attempted").and_then(Json::as_f64) >= Some(1.0));
            let metrics = line.get("metrics").expect("metrics").members();
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                got,
                expected.iter().map(String::as_str).collect::<Vec<_>>(),
                "{}",
                w.name
            );
            for (name, m) in metrics {
                let v = m.get("value").and_then(Json::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{}: {name} is {m}", w.name);
            }
        }
        // The result file holds all eight end-to-end metrics; only the
        // simulated statistics of the table campaign may be null.
        let file = std::fs::read_to_string(out.join(format!("result_{}.json", w.name)))
            .expect("result file");
        let result = Json::parse(&file).expect("result file is JSON");
        for name in METRICS.map(|m| m.name) {
            let median = result
                .get("end_to_end")
                .and_then(|e| e.get(name))
                .and_then(|m| m.get("median"));
            let defined = median.and_then(Json::as_f64).is_some_and(f64::is_finite);
            assert!(
                defined || (name.starts_with("sim_") && !w.has_sim_stats),
                "{}: {name}",
                w.name
            );
        }
        assert!(out.join(format!("trace_{}.json", w.name)).exists());
    }
}

#[test]
fn the_root_benchmark_json_is_the_one_the_binary_prints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(root).expect("BENCHMARK.json at the repository root");
    assert_eq!(Json::parse(&text).expect("valid JSON"), benchmark_json());
}
