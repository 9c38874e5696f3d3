//! The per-layer metrics: their names, units and directions, and how each
//! is read off the trace. A layer is `crate.module`; a time is drift-
//! corrected self time per unit of work of the spans of the same name.

use crate::trace::{LayerTotal, Tracer};
use crate::workloads::paper_campaign;
use std::collections::BTreeMap;

/// One per-layer metric; `value` is `None` when only the names are wanted.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Measured value.
    pub value: Option<f64>,
}

/// Numbers about the host and the run that no span holds.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostNumbers {
    /// Median calibration-kernel time.
    pub cal_s: f64,
    /// q3 ÷ q1 of the kernel times; above 1.3 the run was disturbed.
    pub cal_spread: f64,
    /// Median uncorrected wall time of a timed pass.
    pub raw_wall_s: f64,
    /// CPU seconds of the process so far.
    pub cpu_s: f64,
    /// Cores available.
    pub cores: f64,
    /// Traced pass wall ÷ timed median.
    pub trace_overhead_ratio: f64,
}

const LOADS: [&str; 3] = ["load10", "load50", "load95"];
const SIZES: [&str; 3] = ["n4", "n8", "n16"];
const ELEMENT_KINDS: [&str; 2] = ["scalar", "behavioral"];

struct Reader<'a> {
    layers: BTreeMap<String, LayerTotal>,
    tracer: &'a Tracer,
}

impl Reader<'_> {
    fn layer(&self, span: &str) -> Option<&LayerTotal> {
        self.layers.get(span).filter(|t| t.units > 0)
    }
    fn ns(&self, span: &str) -> Option<f64> {
        self.layer(span).map(LayerTotal::ns_per_unit)
    }
    fn total_s(&self, span: &str) -> Option<f64> {
        self.layers.get(span).map(|t| t.total_ns * 1e-9)
    }
    fn count(&self, name: &str) -> f64 {
        self.tracer.counted(name) as f64
    }
}

struct Builder<'a> {
    read: Option<Reader<'a>>,
    out: Vec<LayerMetric>,
}

impl Builder<'_> {
    fn push(
        &mut self,
        name: &str,
        unit: &'static str,
        better: &'static str,
        f: impl FnOnce(&Reader) -> Option<f64>,
    ) {
        let value = self.read.as_ref().and_then(f);
        self.out.push(LayerMetric {
            name: name.to_string(),
            unit,
            better,
            value,
        });
    }
    /// Nanoseconds of self time per unit of the spans called `name`.
    fn ns(&mut self, name: &str) {
        self.push(name, "ns", "lower", |r| r.ns(name));
    }
    /// Seconds of self time per span called `span`.
    fn secs(&mut self, name: &str, span: &str) {
        self.push(name, "s", "lower", |r| {
            r.layer(span).map(LayerTotal::s_per_unit)
        });
    }
    fn count(&mut self, name: &str, better: &'static str) {
        self.push(name, "count", better, |r| Some(r.count(name)));
    }
    fn ratio(&mut self, name: &str, better: &'static str, f: impl FnOnce(&Reader) -> Option<f64>) {
        self.push(name, "ratio", better, f);
    }
}

/// Every per-layer metric, in report order. With `trace` the values are
/// read from it; without, only names, units and directions are filled in.
pub fn per_layer(trace: Option<(&Tracer, &HostNumbers)>) -> Vec<LayerMetric> {
    let host = trace.map(|(_, h)| *h);
    let mut b = Builder {
        read: trace.map(|(tracer, _)| Reader {
            layers: tracer.layers(),
            tracer,
        }),
        out: Vec::new(),
    };

    b.ns("traffic.feeder.ns_per_cycle");
    for n in SIZES {
        b.ns(&format!("core.rtl.tick_ns.{n}"));
    }
    b.ns("core.rtl.tick_ns.n8.load10");
    b.count("core.rtl.departed", "higher");
    b.count("core.rtl.dropped", "lower");
    b.count("core.rtl.words_out", "higher");
    for m in [
        "pipelined.wave_ns",
        "wide.packet_ns",
        "interleaved.word_ns",
        "bank.rw_ns",
    ] {
        b.ns(&format!("membank.{m}"));
    }
    for org in ["widemem", "ibank"] {
        for n in SIZES {
            b.ns(&format!("core.{org}.tick_ns.{n}"));
        }
    }

    for l in LOADS {
        b.ns(&format!("core.behavioral.dense_ns_per_cycle.{l}"));
    }
    for l in LOADS {
        b.ns(&format!("core.behavioral.ff_ns_per_cycle.{l}"));
    }
    b.count("core.behavioral.departed", "higher");
    b.count("core.behavioral.dropped", "lower");
    for l in LOADS {
        // Exact: the kernel's own skipped-cycle counter over the cycles run.
        b.ratio(
            &format!("simkernel.horizon.skipped_fraction.{l}"),
            "higher",
            |r| {
                let cycles = r
                    .layer(&format!("core.behavioral.ff_ns_per_cycle.{l}"))?
                    .units;
                Some(r.count(&format!("simkernel.horizon.skipped.{l}")) / cycles as f64)
            },
        );
    }
    for l in LOADS {
        b.ratio(
            &format!("simkernel.horizon.ff_speedup.{l}"),
            "higher",
            |r| {
                Some(
                    r.ns(&format!("core.behavioral.dense_ns_per_cycle.{l}"))?
                        / r.ns(&format!("core.behavioral.ff_ns_per_cycle.{l}"))?,
                )
            },
        );
    }
    b.ratio("core.policy.dt_over_static_ratio", "lower", |r| {
        Some(r.ns("core.policy.dense_ns.dt")? / r.ns("core.behavioral.dense_ns_per_cycle.load95")?)
    });
    b.ratio("telemetry.nullsink_ratio", "lower", |r| {
        Some(
            r.ns("telemetry.dense_ns.nullsink")?
                / r.ns("core.behavioral.dense_ns_per_cycle.load50")?,
        )
    });

    b.secs(
        "fabric.topo.build_s.omega1024",
        "fabric.topo.build_s.omega1024",
    );
    for k in ELEMENT_KINDS {
        let name = format!("fabric.element.build_s.{k}");
        b.secs(&name, &name);
    }
    b.ns("fabric.traffic.draw_ns");
    for k in ["scalar", "behavioral", "word-rtl"] {
        b.ns(&format!("fabric.element.window_ns.{k}"));
    }
    b.ns("fabric.runtime.idle_window_ns");
    for k in ELEMENT_KINDS {
        b.ns(&format!("fabric.runtime.ns_per_cell.{k}"));
    }
    for k in ELEMENT_KINDS {
        // An estimate: what is left of `Fabric::run` after every element's
        // windows at the cost the single-element rung measured.
        b.ratio(
            &format!("fabric.runtime.executor_share.{k}"),
            "lower",
            |r| {
                let run = r.layers.get(&format!("fabric.runtime.ns_per_cell.{k}"))?;
                let element_windows = r.count(&format!("fabric.run.element_windows.{k}"));
                let in_elements =
                    element_windows * r.ns(&format!("fabric.element.window_ns.{k}"))?;
                Some(1.0 - in_elements / run.self_ns)
            },
        );
    }
    b.secs("fabric.run.postprocess_s", "fabric.run.postprocess_s");
    // The sharded executor at two workers, behavioral elements, uniform
    // traffic: informational until a quiet runner with four cores exists.
    let par = "fabric.runtime.par_wall_s.j2.behavioral";
    b.secs("fabric.runtime.par_wall_s.j2", par);
    b.ratio("fabric.runtime.par_speedup.j2", "higher", |r| {
        Some(r.total_s("fabric.runtime.run_s.behavioral.uniform")? / r.total_s(par)?)
    });
    b.ratio("fabric.runtime.par_cpu_over_wall.j2", "higher", |r| {
        let wall = r.layers.get(par)?;
        // CPU time is not drift-corrected, so compare it with raw wall time.
        Some(r.count("fabric.runtime.par_cpu_us.j2.behavioral") * 1e-6 / (wall.raw_ns * 1e-9))
    });
    b.push("fabric.runtime.par_digest_equal", "count", "higher", |r| {
        Some(
            r.count("fabric.runtime.par_digest_equal.scalar")
                + r.count("fabric.runtime.par_digest_equal.behavioral"),
        )
    });
    b.count("fabric.run.windows", "higher");
    b.count("fabric.run.offered", "higher");
    b.count("fabric.run.delivered", "higher");
    b.count("fabric.run.dropped", "lower");
    b.count("fabric.run.residual", "lower");
    b.count("fabric.run.unaccounted", "lower");

    b.ns("conformance.scenario.generate_ns");
    for org in ["pipelined", "behavioral", "wide", "interleaved"] {
        b.ns(&format!("conformance.driver.run_ns.{org}"));
    }
    b.ns("conformance.oracle.check_ns");
    b.count("conformance.engine.failures", "lower");
    b.count("conformance.engine.offers", "higher");
    b.count("conformance.engine.deliveries", "higher");

    for id in paper_campaign::ids() {
        let name = format!("bench.experiment_s.{id}");
        b.secs(&name, &name);
    }
    b.ns("bench.sweep.empty_point_ns");
    b.count("bench.sweep.points", "higher");
    b.count("bench.table_bytes", "higher");

    let h = move |f: fn(&HostNumbers) -> f64| move |_: &Reader| host.as_ref().map(f);
    b.push("host.cal_s", "s", "lower", h(|h| h.cal_s));
    b.push("host.cal_spread", "ratio", "lower", h(|h| h.cal_spread));
    b.push("host.raw_wall_s", "s", "lower", h(|h| h.raw_wall_s));
    b.push("host.cpu_s", "s", "lower", h(|h| h.cpu_s));
    b.push("host.cores", "count", "higher", h(|h| h.cores));
    b.push(
        "host.trace_overhead_ratio",
        "ratio",
        "lower",
        h(|h| h.trace_overhead_ratio),
    );
    b.out
}
