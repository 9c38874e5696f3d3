//! One workload, start to finish: verify pass, set-up repetitions, timed
//! passes, and — when tracing is asked for — the traced pass and the ladder.

use crate::calib::{self, Clock, CAL_NOMINAL_S};
use crate::contract::{Metric, METRICS};
use crate::harness::{Checks, Mode, Pass};
use crate::json::Json;
use crate::layers::{per_layer, HostNumbers, LayerMetric};
use crate::stats::{summarize, Fnv, Latencies, Summary};
use crate::trace::Tracer;
use crate::workloads::{self, Workload};
use crate::{host, ladder};
use std::path::PathBuf;
use std::time::Instant;

/// Timed passes per run; the reported time is their median. Seven, so that
/// the quartiles are the second and the sixth value and one pass that met a
/// slow spell of the host moves neither (of five, the third quartile is
/// half the slowest pass).
pub const TIMED_PASSES: usize = 7;

/// Timed seconds (seven passes of 2.5 s) the default sizes take on the
/// reference host, so `--seconds s` means `--scale s / SECONDS_AT_SCALE_1`.
pub const SECONDS_AT_SCALE_1: f64 = 17.5;

/// Set-up is timed this many times before each timed pass, so its samples
/// see as many states of the host as the passes do, each time as a batch of
/// constructions lasting about `SETUP_BATCH_S`; `setup_s` is the median.
const SETUP_GROUP: usize = 3;
const SETUP_BATCH_S: f64 = 0.004;

/// Scale of the other workloads' traced passes inside a traced run, as a
/// share of the run's own scale.
const LADDER_SHARE: f64 = 0.125;

/// What to run.
pub struct Options {
    /// The workload.
    pub workload: &'static Workload,
    /// Feeds every generator.
    pub seed: u64,
    /// Common factor on every cycle, slot and seed budget.
    pub scale: f64,
    /// Also run the traced pass and the ladder?
    pub trace: bool,
    /// Where to write `result_<workload>.json` and `trace_<workload>.json`.
    pub out: Option<PathBuf>,
}

/// An end-to-end metric as `compare` and the contract see it.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    /// Its name, unit, direction and bound.
    pub metric: &'static Metric,
    /// Median and quartiles over the passes (or the single value); `None`
    /// where the metric has no meaning on this workload.
    pub summary: Option<Summary>,
}

/// Everything a run found.
pub struct RunResult {
    /// The workload's name.
    pub workload: &'static str,
    /// The eight end-to-end metrics.
    pub end_to_end: Vec<EndToEnd>,
    /// The per-layer metrics, if the run was traced.
    pub per_layer: Option<Vec<LayerMetric>>,
    /// Check tally.
    pub checks: Checks,
    /// The document written as `result_<workload>.json`.
    pub json: Json,
}

/// What one pass found, once the instruments are handed back.
struct Found {
    wall_s: f64,
    raw_s: f64,
    work: u64,
    digest: Fnv,
    detail: Fnv,
    offered: u64,
    delivered: u64,
    latencies: Latencies,
}

fn one_pass(
    mode: Mode,
    seed: u64,
    scale: f64,
    w: &Workload,
    clock: &mut Clock,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Found {
    let mut p = Pass::new(mode, seed, scale, clock, tracer, checks);
    (w.run)(&mut p);
    Found {
        wall_s: p.wall_s(),
        raw_s: p.raw_s,
        work: p.work,
        digest: p.digest,
        detail: p.detail,
        offered: p.offered,
        delivered: p.delivered,
        latencies: p.latencies,
    }
}

fn single(x: f64) -> Option<Summary> {
    x.is_finite().then(|| summarize(&[x]))
}

/// Run `opts.workload`.
pub fn run(opts: &Options) -> std::io::Result<RunResult> {
    let w = opts.workload;
    let mut clock = Clock::new();
    let mut tracer = Tracer::new();
    let mut checks = Checks::default();
    // Pass 0: every check, the simulated statistics, and the warm-up.
    let verify = one_pass(
        Mode::Verify,
        opts.seed,
        opts.scale,
        w,
        &mut clock,
        &mut tracer,
        &mut checks,
    );

    // Set-up is everything built before the first simulated cycle, timed in
    // batches long enough for the timer (sized by a second, warm call).
    (w.setup)(opts.seed);
    let t0 = Instant::now();
    (w.setup)(opts.seed);
    let batch = (SETUP_BATCH_S / t0.elapsed().as_secs_f64().max(1e-9))
        .ceil()
        .clamp(1.0, 65_536.0) as u32;
    let mut setup_s = Vec::new();

    // The timed passes.
    let (mut wall, mut raw, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let (mut work, mut digests_differ) = (0, 0);
    for _ in 0..TIMED_PASSES {
        let cal_from = clock.samples.len();
        let group: Vec<f64> = (0..SETUP_GROUP)
            .map(|_| {
                clock
                    .slice(|| (0..batch).for_each(|_| (w.setup)(opts.seed)))
                    .1
                    .raw_s
                    / f64::from(batch)
            })
            .collect();
        let factor = calib::factor(&clock.samples[cal_from..]);
        setup_s.extend(group.iter().map(|s| s * factor));
        let timed = one_pass(
            Mode::Timed,
            opts.seed,
            opts.scale,
            w,
            &mut clock,
            &mut tracer,
            &mut checks,
        );
        digests_differ += u64::from(timed.digest != verify.digest);
        wall.push(timed.wall_s);
        raw.push(timed.raw_s);
        rate.push(timed.work as f64 / timed.wall_s);
        work = timed.work;
    }
    let peak_rss_mb = host::peak_rss_mb();
    let wall = summarize(&wall);

    // The traced pass and the ladder: per-layer numbers.
    let mut layers = None;
    if opts.trace {
        tracer.enabled = true;
        tracer.begin_pass(&format!("{}/traced", w.name));
        let traced = one_pass(
            Mode::Traced,
            opts.seed,
            opts.scale,
            w,
            &mut clock,
            &mut tracer,
            &mut checks,
        );
        digests_differ += u64::from(traced.digest != verify.digest);
        for other in workloads::ALL.iter().filter(|o| o.name != w.name) {
            tracer.begin_pass(&format!("ladder/{}", other.name));
            one_pass(
                Mode::Traced,
                opts.seed,
                opts.scale * LADDER_SHARE,
                other,
                &mut clock,
                &mut tracer,
                &mut checks,
            );
        }
        tracer.begin_pass("ladder/side-rungs");
        ladder::run(&mut Pass::new(
            Mode::Traced,
            opts.seed,
            opts.scale,
            &mut clock,
            &mut tracer,
            &mut checks,
        ));
        let cal = summarize(&clock.samples);
        let host = HostNumbers {
            cal_s: cal.median,
            cal_spread: cal.q3 / cal.q1,
            raw_wall_s: summarize(&raw).median,
            cpu_s: host::cpu_s(),
            cores: host::cores() as f64,
            trace_overhead_ratio: traced.wall_s / wall.median,
        };
        layers = Some(per_layer(Some((&tracer, &host))));
    }

    let passes = (TIMED_PASSES + usize::from(opts.trace)) as u64;
    checks.many(passes, digests_differ, || {
        "sim_digest differs from pass 0".to_string()
    });

    let (offered, delivered, latencies) = (verify.offered, verify.delivered, &verify.latencies);
    let sim = |x: Option<f64>| {
        if w.has_sim_stats {
            x.and_then(single)
        } else {
            None
        }
    };
    // In the order of `METRICS`.
    let summaries = [
        Some(wall),
        Some(summarize(&rate)),
        Some(summarize(&setup_s)),
        single(peak_rss_mb),
        single(checks.failed as f64 / checks.attempted.max(1) as f64),
        sim((offered > 0).then(|| delivered as f64 / offered as f64)),
        sim(latencies.mean()),
        sim(latencies.p99().map(|c| c as f64)),
    ];
    let end_to_end: Vec<EndToEnd> = METRICS
        .iter()
        .zip(summaries)
        .map(|(metric, summary)| EndToEnd { metric, summary })
        .collect();

    let mut sim_digest = Fnv::default();
    sim_digest.mix(verify.digest.0);
    sim_digest.mix(verify.detail.0);
    let cal = summarize(&clock.samples);
    let json = Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", Json::str(format!("{:#x}", opts.seed))),
        ("scale", opts.scale.into()),
        ("sizes", Json::str(w.sizes)),
        ("work_unit", Json::str(w.work_unit)),
        ("work", work.into()),
        ("sim_digest", Json::str(format!("{:016x}", sim_digest.0))),
        (
            "checks",
            Json::obj([
                ("attempted", Json::from(checks.attempted)),
                ("failed", checks.failed.into()),
                (
                    "notes",
                    Json::Arr(checks.notes.iter().map(Json::str).collect()),
                ),
            ]),
        ),
        (
            "end_to_end",
            Json::obj(
                end_to_end
                    .iter()
                    .map(|m| (m.metric.name, end_to_end_json(m))),
            ),
        ),
        (
            "host",
            Json::obj([
                ("cal_nominal_s", Json::Num(CAL_NOMINAL_S)),
                ("cal_s", cal.median.into()),
                ("cal_spread", (cal.q3 / cal.q1).into()),
                ("cal_samples", (cal.n as u64).into()),
                ("raw_wall_s", summarize(&raw).median.into()),
                ("cpu_s", host::cpu_s().into()),
                ("cores", (host::cores() as u64).into()),
            ]),
        ),
        (
            "per_layer",
            layers.as_ref().map_or(Json::Null, |l| {
                Json::obj(l.iter().map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([("value", Json::opt(m.value)), ("unit", Json::str(m.unit))]),
                    )
                }))
            }),
        ),
    ]);

    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("result_{}.json", w.name)), json.pretty())?;
        if opts.trace {
            let trace = tracer.to_json(w.name).to_string();
            std::fs::write(dir.join(format!("trace_{}.json", w.name)), trace)?;
        }
    }
    Ok(RunResult {
        workload: w.name,
        end_to_end,
        per_layer: layers,
        checks,
        json,
    })
}

fn end_to_end_json(m: &EndToEnd) -> Json {
    let num = |f: fn(&Summary) -> f64| Json::opt(m.summary.as_ref().map(f));
    Json::obj([
        ("unit", Json::str(m.metric.unit)),
        ("better", Json::str(m.metric.better)),
        ("median", num(|s| s.median)),
        ("q1", num(|s| s.q1)),
        ("q3", num(|s| s.q3)),
        ("min", num(|s| s.min)),
        ("n", Json::opt(m.summary.map(|s| s.n as f64))),
    ])
}
