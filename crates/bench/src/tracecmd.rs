//! `expt trace <experiment>` — run an experiment with telemetry attached
//! and export the probe stream as a GTKWave-loadable VCD waveform plus a
//! metrics JSON document.
//!
//! Two experiments have trace harnesses:
//!
//! * `e5` — the directed fig. 5 scenario on the 2×2 RTL switch. The VCD
//!   carries the per-stage control codes (`m<k>_ctrl`), and the report
//!   includes the fig. 5 control-signal table *derived from the probe
//!   stream* ([`telemetry::vcd::fig5_view`]) — the same table `expt e5`
//!   prints from the switch's own `stage_controls`, reconstructed here
//!   purely from telemetry.
//! * `e6` — a short random-traffic run on the behavioral model (n = 4,
//!   40 % offered load), with a bounded [`telemetry::Recorder`] and the
//!   [`telemetry::metrics::Metrics`] pipeline fanned out over one stream
//!   ([`telemetry::fanout`]).
//!
//! Both exports are validated structurally before they are handed back
//! (`vcd::validate`, `metrics::validate_json`), so `--smoke` is just a
//! run with the file writes skipped.

use crate::perf;
use simkernel::trace::TraceEntry;
use std::fmt::Write as _;
use switch_core::behavioral::BehavioralSwitch;
use switch_core::config::SwitchConfig;
use telemetry::metrics::{validate_json, Metrics};
use telemetry::vcd::{self, Topo};
use telemetry::{fanout, Probe, ProbeEvent, Recorder, Shared};

/// Flight-recorder window when `--last N` is not given.
pub const DEFAULT_WINDOW: usize = 4096;

/// Behavioral cycles driven by the e6 trace harness (short on purpose:
/// a trace is a window into the run, not a statistics campaign).
const E6_CYCLES: u64 = 2_000;

/// Everything one traced run produces.
#[derive(Debug)]
pub struct TraceOutput {
    /// Human-readable report (stdout).
    pub report: String,
    /// The VCD document (`--vcd` destination).
    pub vcd: String,
    /// The metrics JSON document (`--metrics` destination).
    pub metrics: String,
}

/// Intermediate product of one experiment's trace harness.
struct Traced {
    entries: Vec<TraceEntry<ProbeEvent>>,
    topo: Topo,
    metrics_json: String,
    report: String,
}

/// Keep only the last `window` entries (the `--last N` semantics).
fn clamp_window(entries: &mut Vec<TraceEntry<ProbeEvent>>, window: usize) {
    if entries.len() > window {
        entries.drain(..entries.len() - window);
    }
}

/// The fig. 5 scenario, traced: `e05::scenario` already runs with an
/// unbounded recorder attached; the window is applied to the recorded
/// stream, and metrics are derived by replaying it through the pipeline.
fn trace_e5(window: usize) -> Traced {
    let (_cycles, sw, delivered, rec) = crate::e05::scenario();
    let mut entries = rec.entries();
    clamp_window(&mut entries, window);
    let cfg = SwitchConfig::symmetric(2, 8);
    let topo = Topo {
        n_in: 2,
        n_out: 2,
        stages: cfg.stages(),
    };
    let mut m = Metrics::new(topo.n_out, window, 64);
    for e in &entries {
        m.record(e.cycle, e.event);
    }
    let ctr = sw.counters();
    let mut report = format!(
        "trace e5: fig. 5 directed scenario (2x2 RTL switch)\n\
         packets: {} arrived, {} departed, {} delivered intact; {} probe events in window\n\n\
         fig. 5 control-signal table, derived from the probe stream:\n",
        ctr.arrived,
        ctr.departed,
        delivered.iter().filter(|d| d.verify_payload()).count(),
        entries.len(),
    );
    report.push_str(&vcd::fig5_view(entries.iter(), topo.stages));
    Traced {
        entries,
        topo,
        metrics_json: m.to_json(),
        report,
    }
}

/// A short random-traffic behavioral run with recorder + metrics fanned
/// out over one probe stream — the live-pipeline demonstration.
fn trace_e6(window: usize) -> Traced {
    let n = 4;
    let cfg = SwitchConfig::symmetric(n, 4 * n);
    let s = cfg.stages();
    let mut sw = BehavioralSwitch::new(cfg);
    let rec = Shared::new(Recorder::bounded(window));
    let met = Shared::new(Metrics::new(n, window, 512));
    sw.attach_probe(fanout(vec![rec.handle(), met.handle()]));

    // The perf gate's e06-style arrivals at 40 % offered load (its switch
    // has the same four ports), one tick per cycle.
    let sched = perf::schedule(0.4, E6_CYCLES, 0xE6);
    perf::per_cycle(&sched, E6_CYCLES, |arr| {
        sw.tick(arr);
    });
    let idle = vec![None; n];
    let mut guard = 0;
    while !sw.is_quiescent() && guard < 100 * s {
        sw.tick(&idle);
        guard += 1;
    }

    let entries = rec.entries();
    let (departed, collisions, json) = met.with(|m| (m.departed(), m.rw_collisions(), m.to_json()));
    let mut report = format!(
        "trace e6: behavioral switch, n={n}, 40% offered load, {E6_CYCLES} cycles\n\
         probe stream fanned out to a bounded recorder (window {window}) and the metrics pipeline\n"
    );
    let _ = writeln!(
        report,
        "metrics: {departed} departed, {collisions} rw-arbitration collisions, \
         {} events in window",
        entries.len()
    );
    Traced {
        entries,
        topo: Topo {
            n_in: n,
            n_out: n,
            stages: s,
        },
        metrics_json: json,
        report,
    }
}

/// Run the trace harness for `id` (`e5`/`e05`/`e6`/`e06`). Both exports
/// are structurally validated before returning, so a caller that only
/// wants the self-test (`--smoke`) can discard the output.
pub fn run(id: &str, last: Option<usize>) -> Result<TraceOutput, String> {
    let window = last.unwrap_or(DEFAULT_WINDOW).max(1);
    let traced = match id {
        "e5" | "e05" => trace_e5(window),
        "e6" | "e06" => trace_e6(window),
        other => {
            return Err(format!(
                "'{other}' has no trace harness (traceable experiments: e5, e6)"
            ))
        }
    };
    let doc = vcd::export(traced.entries.iter(), &traced.topo);
    let (signals, changes) =
        vcd::validate(&doc).map_err(|e| format!("exported VCD failed validation: {e}"))?;
    validate_json(&traced.metrics_json)
        .map_err(|e| format!("metrics JSON failed validation: {e}"))?;
    let mut report = traced.report;
    let _ = writeln!(
        report,
        "\nVCD export: {signals} signals, {changes} value changes (validated)"
    );
    Ok(TraceOutput {
        report,
        vcd: doc,
        metrics: traced.metrics_json,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_trace_reconstructs_fig5_from_the_probe_stream() {
        let out = run("e5", None).expect("e5 traces");
        // The fused cut-through cell of the paper's table, rebuilt from
        // BankAccess events alone.
        assert!(out.report.contains("W0+R i0 o1"), "{}", out.report);
        assert!(out.vcd.contains("m0_ctrl"), "per-stage control signals");
        assert!(out.metrics.contains("\"departed\": 3"), "{}", out.metrics);
    }

    #[test]
    fn e6_trace_exports_validated_vcd_and_metrics() {
        let out = run("e6", Some(512)).expect("e6 traces");
        let (signals, changes) = vcd::validate(&out.vcd).expect("VCD well-formed");
        assert!(signals > 0 && changes > 0);
        validate_json(&out.metrics).expect("metrics well-formed");
        assert!(out.report.contains("departed"));
    }

    #[test]
    fn last_window_bounds_the_stream() {
        let big = run("e6", Some(4096)).expect("wide window");
        let small = run("e6", Some(16)).expect("narrow window");
        assert!(small.vcd.len() < big.vcd.len(), "window must clamp the VCD");
    }

    #[test]
    fn unknown_ids_are_rejected() {
        assert!(run("e1", None).is_err());
        assert!(run("bench", None).is_err());
    }
}
