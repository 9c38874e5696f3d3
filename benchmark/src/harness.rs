//! What a workload sees while one of its passes runs.

use crate::calib::{self, Clock, Slice};
use crate::stats::{Fnv, Latencies};
use crate::trace::Tracer;

/// Which of a workload's passes is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Pass 0: collectors attached, simulated statistics and every check.
    Verify,
    /// Passes 1–7: tracing off, nothing attached.
    Timed,
    /// Pass 8: as timed, with spans recorded.
    Traced,
}

/// Checks made against the program's outputs; `failed / attempted` is the
/// `failed_share` metric.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Checks {
    /// One check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.many(1, u64::from(!ok), what);
    }

    /// `attempted` checks of one kind, `failed` of which did not hold.
    pub fn many(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.notes.len() < 16 {
            self.notes
                .push(format!("{} ({failed} of {attempted})", what()));
        }
    }
}

/// One pass of one workload: its inputs, the instruments, and what it found.
pub struct Pass<'a> {
    /// Which pass this is.
    pub mode: Mode,
    /// Feeds every generator.
    pub seed: u64,
    /// Common factor on every cycle, slot and seed budget.
    pub scale: f64,
    clock: &'a mut Clock,
    /// First calibration sample of the pass.
    cal_from: usize,
    /// Spans recorded inside the pass's own slices.
    own_spans: Vec<std::ops::Range<usize>>,
    /// Span store; off unless `mode` is `Traced`.
    pub tracer: &'a mut Tracer,
    /// Check tally, shared by all passes of the run.
    pub checks: &'a mut Checks,
    /// Seconds inside slices so far, as measured.
    pub raw_s: f64,
    /// Work units completed (the workload's own unit).
    pub work: u64,
    /// Counters and table text, identical in every pass of a run.
    pub digest: Fnv,
    /// Departures and deliveries seen by the collectors (verify pass only).
    pub detail: Fnv,
    /// Packets or cells offered (verify pass only).
    pub offered: u64,
    /// Packets or cells delivered (verify pass only).
    pub delivered: u64,
    /// Simulated latencies (verify pass only).
    pub latencies: Latencies,
}

impl<'a> Pass<'a> {
    /// A fresh pass.
    pub fn new(
        mode: Mode,
        seed: u64,
        scale: f64,
        clock: &'a mut Clock,
        tracer: &'a mut Tracer,
        checks: &'a mut Checks,
    ) -> Self {
        Pass {
            mode,
            seed,
            scale,
            cal_from: clock.samples.len(),
            own_spans: Vec::new(),
            clock,
            tracer,
            checks,
            raw_s: 0.0,
            work: 0,
            digest: Fnv::default(),
            detail: Fnv::default(),
            offered: 0,
            delivered: 0,
            latencies: Latencies::default(),
        }
    }

    /// True in the verify pass.
    pub fn verifying(&self) -> bool {
        self.mode == Mode::Verify
    }

    /// `base × scale`, rounded, at least `min`.
    pub fn scaled(&self, base: u64, min: u64) -> u64 {
        ((base as f64 * self.scale).round() as u64).max(min)
    }

    /// Run `f` as one timed slice: program code only, between two runs of
    /// the calibration kernel. Inputs the benchmark generates itself are
    /// prepared before the call.
    pub fn slice<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let mark = self.tracer.mark();
        let (r, s) = self.timed(f);
        self.own_spans.push(mark..self.tracer.mark());
        self.raw_s += s.raw_s;
        r
    }

    /// A slice beside the workload proper (a traced pass taking a layer
    /// apart, a side rung): not part of the pass's wall time, and its spans
    /// are corrected by the kernel runs around it alone.
    pub fn side_slice<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.timed(f).0
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> (R, Slice) {
        let mark = self.tracer.mark();
        let tracer = &mut *self.tracer;
        let (r, s) = self.clock.slice(|| f(tracer));
        self.tracer.set_factor(
            mark..self.tracer.mark(),
            calib::factor(&self.clock.samples[s.cal.clone()]),
        );
        (r, s)
    }

    /// Close the pass: its drift-corrected wall time, by the mean of every
    /// kernel run since it began. The spans of its own slices get the same
    /// factor.
    pub fn wall_s(&mut self) -> f64 {
        let factor = calib::factor(&self.clock.samples[self.cal_from..]);
        for spans in self.own_spans.drain(..) {
            self.tracer.set_factor(spans, factor);
        }
        self.raw_s * factor
    }
}
