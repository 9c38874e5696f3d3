//! Spans around calls into the program's layers, recorded from outside.
//!
//! Spans wrap chunks and slices, never single `tick` calls: a span pair
//! costs about as much as one low-load behavioral cycle. They are kept in
//! memory and written once, when the run ends. While the tracer is off
//! (verify and timed passes) `span` only calls its closure.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`crate.module.what`); a per-layer metric of the same
    /// name is this span's time per unit.
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// `<workload>/<pass>` the span belongs to.
    pub workload_pass: usize,
    /// Work done inside (cycles, cells, seeds, calls); 0 for pure grouping.
    pub units: u64,
    /// Drift-correction factor of the slice the span ran in.
    pub factor: f64,
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Drift-corrected nanoseconds, children included.
    pub total_ns: f64,
    /// Drift-corrected nanoseconds not covered by child spans.
    pub self_ns: f64,
    /// Nanoseconds as measured, children included.
    pub raw_ns: f64,
    /// Sum of `units`.
    pub units: u64,
    /// Number of spans.
    pub spans: u64,
}

impl LayerTotal {
    /// Self time per unit of work, in nanoseconds.
    pub fn ns_per_unit(&self) -> f64 {
        self.self_ns / self.units as f64
    }

    /// Self time per unit of work, in seconds.
    pub fn s_per_unit(&self) -> f64 {
        self.ns_per_unit() * 1e-9
    }
}

/// The span store.
pub struct Tracer {
    /// Record spans and counts? Off during verify and timed passes.
    pub enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    passes: Vec<String>,
    counts: BTreeMap<String, u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A disabled tracer.
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            passes: vec![String::new()],
            counts: BTreeMap::new(),
        }
    }

    /// Label the spans that follow (`"rtl_dense/traced"`, `"ladder"`, …).
    pub fn begin_pass(&mut self, label: &str) {
        self.passes.push(label.to_string());
    }

    /// Run `f` inside a span called `name` that does `units` of work.
    pub fn span<R>(&mut self, name: &str, units: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            workload_pass: self.passes.len() - 1,
            units,
            factor: 1.0,
        });
        self.stack.push(idx);
        self.spans[idx].start_ns = self.epoch.elapsed().as_nanos() as u64;
        let r = f(self);
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.stack.pop();
        r
    }

    /// Add `n` units of work to the innermost open span (for work only
    /// known once it is done).
    pub fn add_units(&mut self, n: u64) {
        if let Some(&open) = self.stack.last() {
            self.spans[open].units += n;
        }
    }

    /// Add `n` to the count called `name` (exact, from the program's own
    /// counters, taken at the same boundaries as the spans).
    pub fn count(&mut self, name: &str, n: u64) {
        if self.enabled {
            *self.counts.entry(name.to_string()).or_insert(0) += n;
        }
    }

    /// The count called `name`, 0 if never recorded.
    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Index the next span will get.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Stamp the spans with these indices with a drift-correction factor.
    pub fn set_factor(&mut self, spans: std::ops::Range<usize>, factor: f64) {
        for s in &mut self.spans[spans] {
            s.factor = factor;
        }
    }

    /// Per-name totals with child time subtracted.
    pub fn layers(&self) -> BTreeMap<String, LayerTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, LayerTotal> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name.clone()).or_default();
            t.total_ns += dur as f64 * s.factor;
            t.raw_ns += dur as f64;
            t.self_ns += dur.saturating_sub(child_ns[i]) as f64 * s.factor;
            t.units += s.units;
            t.spans += 1;
        }
        out
    }

    /// The whole store as the `trace_<workload>.json` document.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                    ("parent", s.parent.map_or(Json::Null, |p| (p as u64).into())),
                    ("workload_pass", Json::str(&self.passes[s.workload_pass])),
                    ("units", s.units.into()),
                    ("factor", s.factor.into()),
                ])
            })
            .collect();
        let layers = self.layers().into_iter().map(|(name, t)| {
            (
                name,
                Json::obj([
                    ("self_ns", Json::Num(t.self_ns)),
                    ("total_ns", Json::Num(t.total_ns)),
                    ("units", t.units.into()),
                    ("spans", t.spans.into()),
                ]),
            )
        });
        Json::obj([
            ("workload", Json::str(workload)),
            ("layers", Json::obj(layers)),
            (
                "counts",
                Json::obj(self.counts.iter().map(|(k, &v)| (k.clone(), v.into()))),
            ),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        t.span("off", 1, |_| ());
        assert!(t.layers().is_empty());
        t.enabled = true;
        let m = t.mark();
        t.span("parent", 0, |t| {
            t.span("child", 10, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("child", 10, |_| ());
        });
        t.set_factor(m..t.mark(), 0.5);
        let l = t.layers();
        assert_eq!((l["child"].units, l["child"].spans), (20, 2));
        assert!(l["child"].total_ns >= 2.5e6, "5 ms at factor 0.5");
        assert!(l["parent"].self_ns < l["parent"].total_ns - 2.0e6);
    }
}
