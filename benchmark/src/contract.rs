//! The benchmark's contract with whoever runs it: the regression bound of
//! every end-to-end metric, the `BENCHMARK.json` that names the benchmark,
//! and the one-line result a single run prints last.

use crate::json::Json;
use crate::layers::per_layer;
use crate::run::RunResult;
use crate::workloads;

/// How far an end-to-end metric may worsen before it counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the base's median.
    Share(f64),
    /// Share of the base's median, or this many units if that is more.
    ShareOrAbsolute(f64, f64),
    /// Simulated statistic: any difference is a change of behaviour.
    Exact,
}

impl Bound {
    /// The share `BENCHMARK.json` can carry; `None` for an exact bound.
    pub fn share(self) -> Option<f64> {
        match self {
            Bound::Share(s) | Bound::ShareOrAbsolute(s, _) => Some(s),
            Bound::Exact => None,
        }
    }
}

/// Name, unit, direction and bound of one end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// How far it may worsen.
    pub bound: Bound,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: Bound,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

/// Every end-to-end metric, in report order. Each share is at least three
/// times the spread (quartile distance over median) that ten runs of one
/// commit with ten seeds showed on the reference host: up to 15 % for the
/// times with drift correction, 4 % for memory. A tighter bound would reject
/// a change for the host's noise.
pub const METRICS: [Metric; 8] = [
    metric("wall_s", "s", "lower", Bound::Share(0.25)),
    metric("work_per_s", "1/s", "higher", Bound::Share(0.25)),
    metric("setup_s", "s", "lower", Bound::ShareOrAbsolute(0.25, 0.005)),
    metric("peak_rss_mb", "MiB", "lower", Bound::Share(0.15)),
    metric("failed_share", "ratio", "lower", Bound::Exact),
    metric("sim_carried_ratio", "ratio", "higher", Bound::Exact),
    metric("sim_mean_latency_cycles", "cycles", "lower", Bound::Exact),
    metric("sim_p99_latency_cycles", "cycles", "lower", Bound::Exact),
];

/// Seconds of timed passes a contract run measures (`--seconds`).
pub const RUN_SECONDS: u64 = 6;

/// The root `BENCHMARK.json`. Its schema has no place for exact bounds, for
/// an absolute floor under a share, for a metric that is 0 when all is well,
/// or for one that is undefined on a workload, so of the eight end-to-end
/// metrics it lists the four host-side ones with their shares;
/// `failed_share` travels as `failed / attempted`, and the simulated
/// statistics are compared exactly by `compare`.
pub fn benchmark_json() -> Json {
    let end_to_end = METRICS.iter().filter_map(|m| {
        Some(Json::obj([
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better)),
            ("bound", Json::Num(m.bound.share()?)),
        ]))
    });
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().copied().map(Json::str).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Json::Arr(
                workloads::ALL
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(end_to_end.collect())),
        (
            "per_layer",
            Json::Arr(
                per_layer(None)
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(&m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The last line of a run: with tracing off the `BENCHMARK.json` end-to-end
/// metrics, with tracing on the per-layer ones.
pub fn result_line(r: &RunResult) -> String {
    let metric = |value: f64, unit: &str| {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    };
    let metrics: Vec<(String, Json)> = match &r.per_layer {
        Some(layers) => layers
            .iter()
            .map(|m| (m.name.clone(), metric(m.value.unwrap_or(f64::NAN), m.unit)))
            .collect(),
        None => r
            .end_to_end
            .iter()
            .filter(|m| m.metric.bound.share().is_some())
            .map(|m| {
                let median = m.summary.map_or(f64::NAN, |s| s.median);
                (m.metric.name.to_string(), metric(median, m.metric.unit))
            })
            .collect(),
    };
    Json::obj([
        ("correct", Json::Bool(r.checks.failed == 0)),
        ("attempted", r.checks.attempted.into()),
        ("failed", r.checks.failed.into()),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string()
}
