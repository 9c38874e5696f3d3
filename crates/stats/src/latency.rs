//! Latency collection with warmup filtering.

use crate::histogram::Histogram;

/// Collects per-packet latencies, ignoring packets born before the warmup
/// horizon so transient startup behavior does not bias steady-state means.
#[derive(Debug, Clone)]
pub struct LatencyStats {
    warmup: u64,
    hist: Histogram,
}

impl LatencyStats {
    /// Collector ignoring samples whose `birth < warmup`; latencies above
    /// `hist_cap` still count toward the mean but fall into the histogram
    /// overflow bucket.
    pub fn new(warmup: u64, hist_cap: usize) -> Self {
        LatencyStats {
            warmup,
            hist: Histogram::new(hist_cap),
        }
    }

    /// Record a departure: a packet born at `birth` completed at `now`.
    /// Returns `true` if the sample was accepted (past warmup).
    #[inline]
    pub fn record(&mut self, birth: u64, now: u64) -> bool {
        if birth < self.warmup {
            return false;
        }
        self.hist.record(now.saturating_sub(birth));
        true
    }

    /// Number of accepted samples.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// Mean latency of accepted samples: their exact integer sum ÷ count.
    pub fn mean(&self) -> f64 {
        self.hist.mean()
    }

    /// Exact percentile from the histogram.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        self.hist.percentile(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_filters() {
        let mut l = LatencyStats::new(100, 1000);
        assert!(!l.record(50, 60), "pre-warmup sample rejected");
        assert!(l.record(100, 110));
        assert_eq!(l.count(), 1);
        assert_eq!(l.mean(), 10.0);
    }

    #[test]
    fn percentiles_work() {
        let mut l = LatencyStats::new(0, 1000);
        for d in 0..100 {
            l.record(0, d);
        }
        assert_eq!(l.percentile(50.0), Some(49));
    }

    #[test]
    fn mean_is_exact() {
        let mut l = LatencyStats::new(0, 16);
        for i in 0..1_000_000u64 {
            l.record(0, 1 + i % 2);
        }
        assert_eq!(l.mean(), 1.5);
    }
}
