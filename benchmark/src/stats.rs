//! Order statistics of a handful of passes, and the FNV-1a digest.

/// Median, quartiles, minimum and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Number of samples.
    pub n: usize,
}

/// Quartiles by the method of Python's `statistics.quantiles(v, n=4)`
/// (exclusive), so the spreads printed here are the ones an outside checker
/// computes from the same values. One sample is its own quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no samples to summarize");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |i: usize| -> f64 {
        if n == 1 {
            return v[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        median: quartile(2),
        q1: quartile(1),
        q3: quartile(3),
        min: v[0],
        n,
    }
}

/// 64-bit FNV-1a over a stream of `u64`s and byte strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word in.
    pub fn mix(&mut self, x: u64) {
        self.0 ^= x;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Fold a byte string in.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.mix(x as u64);
        }
    }
}

/// A well-mixed 64-bit hash of one word, for order-insensitive set sums.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Latencies in simulated cycles, kept as counts per value so a pass over
/// millions of packets costs a few kilobytes.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    counts: Vec<u64>,
    n: u64,
    sum: u64,
}

impl Latencies {
    /// Record one latency.
    pub fn add(&mut self, cycles: u64) {
        let i = cycles as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.n += 1;
        self.sum += cycles;
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Latencies) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum as f64 / self.n as f64)
    }

    /// The sample at sorted index `(n - 1) * 99 / 100`, as `FabricRun::p99_latency`.
    pub fn p99(&self) -> Option<u64> {
        if self.n == 0 {
            return None;
        }
        let rank = (self.n - 1) * 99 / 100;
        let mut seen = 0u64;
        for (lat, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Some(lat as u64);
            }
        }
        unreachable!("counts sum to n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.n), (1.0, 10));
    }

    #[test]
    fn p99_matches_sorted_index_rule() {
        let mut l = Latencies::default();
        let mut all: Vec<u64> = (0..1000).map(|i| (i * 7) % 113).collect();
        for &x in &all {
            l.add(x);
        }
        all.sort_unstable();
        assert_eq!(l.p99(), Some(all[(all.len() - 1) * 99 / 100]));
        let mean = all.iter().sum::<u64>() as f64 / all.len() as f64;
        assert_eq!(l.mean(), Some(mean));
    }
}
