//! The metrics pipeline: an online [`Probe`] sink that aggregates the
//! event stream into ring-buffered time series and per-port latency
//! histograms, and renders them as JSON.
//!
//! Time series reuse [`simkernel::Trace`] as the ring buffer (bounded
//! construction), so a long run keeps the most recent `series_window`
//! samples per series with exact drop accounting. JSON is hand-rolled
//! like the rest of the workspace (offline build, no serde).

use crate::event::{GaugeKind, ProbeEvent};
use crate::probe::Probe;
use simkernel::ids::Cycle;
use simkernel::trace::Trace;
use stats::Histogram;
use std::fmt::Write as _;

/// Online aggregation of a probe stream.
#[derive(Debug)]
pub struct Metrics {
    /// Shared-buffer occupancy samples (cycle-stamped, ring-buffered).
    occupancy: Trace<u64>,
    /// Per-output queue-depth samples.
    queue_depth: Vec<Trace<u64>>,
    /// Per-output packet latency (header arrival to tail departure).
    latency: Vec<Histogram>,
    series_window: usize,
    arrived: u64,
    departed: u64,
    drops: u64,
    faults: u64,
    cut_throughs: u64,
    staggered_starts: u64,
    arbitrations: u64,
    rw_collisions: u64,
    credit_grants: u64,
    credit_returns: u64,
    first_cycle: Option<Cycle>,
    last_cycle: Cycle,
}

impl Metrics {
    /// A pipeline for `n_out` output links, keeping the most recent
    /// `series_window` samples per time series and tracking latencies
    /// exactly up to `latency_cap` cycles (overflow counted beyond).
    pub fn new(n_out: usize, series_window: usize, latency_cap: usize) -> Self {
        Metrics {
            occupancy: Trace::bounded(series_window.max(1)),
            queue_depth: (0..n_out)
                .map(|_| Trace::bounded(series_window.max(1)))
                .collect(),
            latency: (0..n_out).map(|_| Histogram::new(latency_cap)).collect(),
            series_window: series_window.max(1),
            arrived: 0,
            departed: 0,
            drops: 0,
            faults: 0,
            cut_throughs: 0,
            staggered_starts: 0,
            arbitrations: 0,
            rw_collisions: 0,
            credit_grants: 0,
            credit_returns: 0,
            first_cycle: None,
            last_cycle: 0,
        }
    }

    /// Packets departed (tail words observed).
    pub fn departed(&self) -> u64 {
        self.departed
    }

    /// Read/write arbitration collisions observed (§3.2).
    pub fn rw_collisions(&self) -> u64 {
        self.rw_collisions
    }

    fn series_json(s: &mut String, series: &Trace<u64>, indent: &str) {
        let _ = write!(s, "{indent}{{\"window\": {}, ", series.len());
        let _ = write!(s, "\"evicted\": {}, \"samples\": [", series.dropped());
        for (k, e) in series.iter().enumerate() {
            if k > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "[{}, {}]", e.cycle, e.event);
        }
        s.push_str("]}");
    }

    /// Render the aggregated metrics as a JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(
            s,
            "  \"cycles\": {{\"first\": {}, \"last\": {}}},",
            self.first_cycle.unwrap_or(0),
            self.last_cycle
        );
        let _ = writeln!(s, "  \"arrived\": {},", self.arrived);
        let _ = writeln!(s, "  \"departed\": {},", self.departed);
        let _ = writeln!(s, "  \"drops\": {},", self.drops);
        let _ = writeln!(s, "  \"faults\": {},", self.faults);
        let _ = writeln!(s, "  \"cut_throughs\": {},", self.cut_throughs);
        let _ = writeln!(s, "  \"staggered_starts\": {},", self.staggered_starts);
        let _ = writeln!(s, "  \"arbitrations\": {},", self.arbitrations);
        let _ = writeln!(s, "  \"rw_collisions\": {},", self.rw_collisions);
        let _ = writeln!(s, "  \"credit_grants\": {},", self.credit_grants);
        let _ = writeln!(s, "  \"credit_returns\": {},", self.credit_returns);
        let _ = writeln!(s, "  \"series_window\": {},", self.series_window);
        s.push_str("  \"occupancy\": ");
        Self::series_json(&mut s, &self.occupancy, "");
        s.push_str(",\n  \"queue_depth\": [\n");
        for (j, series) in self.queue_depth.iter().enumerate() {
            let _ = write!(s, "    {{\"output\": {j}, \"series\": ");
            Self::series_json(&mut s, series, "");
            s.push('}');
            s.push_str(if j + 1 < self.queue_depth.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n  \"latency\": [\n");
        for (j, h) in self.latency.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"output\": {j}, \"count\": {}, \"mean\": {:.4}, \
                 \"p50\": {}, \"p99\": {}, \"max\": {}, \"overflow\": {}}}",
                h.count(),
                h.mean(),
                h.percentile(0.50).unwrap_or(0),
                h.percentile(0.99).unwrap_or(0),
                h.max_tracked().unwrap_or(0),
                h.overflow(),
            );
            s.push_str(if j + 1 < self.latency.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

impl Probe for Metrics {
    fn record(&mut self, cycle: Cycle, event: ProbeEvent) {
        if self.first_cycle.is_none() {
            self.first_cycle = Some(cycle);
        }
        self.last_cycle = self.last_cycle.max(cycle);
        match event {
            ProbeEvent::HeaderArrived { .. } => self.arrived += 1,
            ProbeEvent::Departed {
                output, latency, ..
            } => {
                self.departed += 1;
                if let Some(h) = self.latency.get_mut(output) {
                    h.record(latency);
                }
            }
            ProbeEvent::Drop { .. } => self.drops += 1,
            ProbeEvent::Fault { .. } => self.faults += 1,
            ProbeEvent::CutThrough { .. } => self.cut_throughs += 1,
            ProbeEvent::StaggeredStart { .. } => self.staggered_starts += 1,
            ProbeEvent::Arbitration { reads, writes, .. } => {
                self.arbitrations += 1;
                if reads > 0 && writes > 0 {
                    self.rw_collisions += 1;
                }
            }
            ProbeEvent::CreditGrant { .. } => self.credit_grants += 1,
            ProbeEvent::CreditReturn { .. } => self.credit_returns += 1,
            ProbeEvent::Gauge {
                gauge,
                index,
                value,
            } => match gauge {
                GaugeKind::Occupancy => self.occupancy.record(cycle, value),
                GaugeKind::QueueDepth => {
                    if let Some(series) = self.queue_depth.get_mut(index) {
                        series.record(cycle, value);
                    }
                }
            },
            _ => {}
        }
    }
}

/// Structural JSON check (braces/brackets balance outside strings, a few
/// required keys present) — the `--smoke` self-test for metrics output.
pub fn validate_json(doc: &str) -> Result<(), String> {
    let mut depth: i64 = 0;
    let mut in_str = false;
    let mut esc = false;
    for ch in doc.chars() {
        if in_str {
            if esc {
                esc = false;
            } else if ch == '\\' {
                esc = true;
            } else if ch == '"' {
                in_str = false;
            }
            continue;
        }
        match ch {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    return Err("unbalanced brackets".to_string());
                }
            }
            _ => {}
        }
    }
    if depth != 0 || in_str {
        return Err("unbalanced document".to_string());
    }
    for key in [
        "\"occupancy\"",
        "\"latency\"",
        "\"queue_depth\"",
        "\"departed\"",
    ] {
        if !doc.contains(key) {
            return Err(format!("missing key {key}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ArbOutcome;

    fn feed(m: &mut Metrics) {
        m.record(
            0,
            ProbeEvent::HeaderArrived {
                input: 0,
                id: 1,
                dst: 1,
            },
        );
        m.record(
            1,
            ProbeEvent::Arbitration {
                reads: 1,
                writes: 1,
                outcome: ArbOutcome::Read,
            },
        );
        m.record(
            1,
            ProbeEvent::Gauge {
                gauge: GaugeKind::Occupancy,
                index: 0,
                value: 1,
            },
        );
        m.record(
            2,
            ProbeEvent::Gauge {
                gauge: GaugeKind::QueueDepth,
                index: 1,
                value: 1,
            },
        );
        m.record(
            6,
            ProbeEvent::Departed {
                output: 1,
                id: 1,
                birth: 0,
                latency: 6,
            },
        );
    }

    #[test]
    fn aggregates_the_stream() {
        let mut m = Metrics::new(2, 64, 128);
        feed(&mut m);
        assert_eq!(m.departed(), 1);
        assert_eq!(m.rw_collisions(), 1);
        assert_eq!(m.occupancy.len(), 1);
        assert_eq!(m.latency[1].count(), 1);
        assert_eq!(m.latency[1].max_tracked(), Some(6));
    }

    #[test]
    fn json_is_well_formed() {
        let mut m = Metrics::new(2, 8, 64);
        feed(&mut m);
        let doc = m.to_json();
        validate_json(&doc).expect("valid metrics JSON");
        assert!(doc.contains("\"rw_collisions\": 1"));
        assert!(doc.contains("[1, 1]"), "occupancy sample present: {doc}");
    }

    #[test]
    fn series_ring_keeps_the_window() {
        let mut m = Metrics::new(1, 4, 16);
        for c in 0..10u64 {
            m.record(
                c,
                ProbeEvent::Gauge {
                    gauge: GaugeKind::Occupancy,
                    index: 0,
                    value: c,
                },
            );
        }
        let samples: Vec<(u64, u64)> = m.occupancy.iter().map(|e| (e.cycle, e.event)).collect();
        assert_eq!(samples.len(), 4);
        assert_eq!(samples[0], (6, 6), "oldest retained sample");
        assert!(m.to_json().contains("\"evicted\": 6"));
    }

    #[test]
    fn validate_json_rejects_imbalance() {
        assert!(validate_json("{\"a\": [1, 2}").is_err());
        assert!(validate_json("{}").is_err(), "required keys missing");
    }
}
