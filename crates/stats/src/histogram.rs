//! Integer histogram with exact percentiles.
//!
//! Latencies in a cycle-accurate simulator are small integers, so an exact
//! dense histogram (growing `Vec<u64>` of counts) is both simpler and more
//! precise than approximate quantile sketches. Values beyond a configurable
//! cap are clamped into an overflow bucket and counted.

/// Dense histogram over non-negative integer values.
///
/// ```
/// use stats::Histogram;
///
/// let mut h = Histogram::new(1000);
/// for v in 1..=100 {
///     h.record(v);
/// }
/// assert_eq!(h.percentile(50.0), Some(50));
/// assert_eq!(h.mean(), 50.5);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    cap: usize,
    overflow: u64,
    total: u64,
    sum: u128,
}

impl Histogram {
    /// A histogram tracking exact counts for values in `0..cap`; larger
    /// values land in a single overflow bucket (still contributing to mean
    /// via their true value).
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0);
        Histogram {
            counts: Vec::new(),
            cap,
            overflow: 0,
            total: 0,
            sum: 0,
        }
    }

    /// Record a value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.total += 1;
        self.sum += v as u128;
        if (v as usize) < self.cap {
            let idx = v as usize;
            if idx >= self.counts.len() {
                self.counts.resize(idx + 1, 0);
            }
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Number of values that exceeded the cap.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Mean of all recorded values (exact; overflowed values included).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Exact percentile `q ∈ [0,100]` of the recorded distribution; values
    /// in the overflow bucket are reported as `cap` (a lower bound).
    /// Returns `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 100.0);
        // Rank of the q-th percentile, 1-based, nearest-rank definition.
        let rank = ((q / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (v, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(v as u64);
            }
        }
        Some(self.cap as u64)
    }

    /// Largest recorded non-overflow value, if any.
    pub fn max_tracked(&self) -> Option<u64> {
        self.counts.iter().rposition(|&c| c > 0).map(|v| v as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_percentiles() {
        let mut h = Histogram::new(1000);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-12);
        assert_eq!(h.percentile(50.0), Some(50));
        assert_eq!(h.percentile(99.0), Some(99));
        assert_eq!(h.percentile(100.0), Some(100));
        assert_eq!(h.percentile(1.0), Some(1));
    }

    #[test]
    fn empty_has_no_percentiles() {
        let h = Histogram::new(10);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn overflow_counted_and_clamped() {
        let mut h = Histogram::new(10);
        h.record(5);
        h.record(500);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.max_tracked(), Some(5));
        // Mean uses true values.
        assert!((h.mean() - 252.5).abs() < 1e-12);
        // Percentile clamps overflow to cap.
        assert_eq!(h.percentile(100.0), Some(10));
    }

    #[test]
    fn single_value_percentiles() {
        let mut h = Histogram::new(100);
        h.record(7);
        for q in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(q), Some(7));
        }
    }
}
