//! Destination distributions.

use simkernel::SplitMix64;

/// How a generated cell picks its output port.
#[derive(Debug, Clone)]
pub enum DestDist {
    /// Uniform over all `n` outputs (the iid-uniform assumption behind the
    /// 58.6 % input-queueing saturation result).
    Uniform {
        /// Number of output ports.
        n: usize,
    },
    /// One output receives extra traffic: with probability `hot_frac` the
    /// cell goes to `hot`, otherwise uniform over all outputs.
    Hotspot {
        /// Number of output ports.
        n: usize,
        /// The hot output.
        hot: usize,
        /// Probability mass diverted to the hot output.
        hot_frac: f64,
    },
    /// Arbitrary per-output weights (need not be normalized).
    Weighted {
        /// Cumulative weights (monotone, last element = total mass).
        cdf: Vec<f64>,
    },
}

impl DestDist {
    /// Uniform over `n` outputs.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0);
        DestDist::Uniform { n }
    }

    /// Hotspot: fraction `hot_frac` of cells go straight to `hot`.
    pub fn hotspot(n: usize, hot: usize, hot_frac: f64) -> Self {
        assert!(n > 0 && hot < n && (0.0..=1.0).contains(&hot_frac));
        DestDist::Hotspot { n, hot, hot_frac }
    }

    /// Draw a destination.
    pub fn draw(&self, rng: &mut SplitMix64) -> usize {
        match self {
            DestDist::Uniform { n } => rng.below_usize(*n),
            DestDist::Hotspot { n, hot, hot_frac } => {
                if rng.chance(*hot_frac) {
                    *hot
                } else {
                    rng.below_usize(*n)
                }
            }
            DestDist::Weighted { cdf } => {
                let total = *cdf.last().expect("non-empty");
                let x = rng.next_f64() * total;
                match cdf.binary_search_by(|w| w.partial_cmp(&x).expect("no NaN")) {
                    Ok(i) => (i + 1).min(cdf.len() - 1),
                    Err(i) => i,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw_many(d: &DestDist, outputs: usize, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        let mut counts = vec![0u64; outputs];
        for _ in 0..n {
            counts[d.draw(&mut rng)] += 1;
        }
        counts
    }

    #[test]
    fn uniform_is_uniform() {
        let d = DestDist::uniform(8);
        let counts = draw_many(&d, 8, 80_000, 1);
        for &c in &counts {
            assert!((9_300..=10_700).contains(&c), "count {c}");
        }
    }

    #[test]
    fn hotspot_skews() {
        let d = DestDist::hotspot(4, 2, 0.5);
        let counts = draw_many(&d, 4, 40_000, 2);
        // Output 2 gets 0.5 + 0.5/4 = 62.5 % of traffic.
        let frac = counts[2] as f64 / 40_000.0;
        assert!((frac - 0.625).abs() < 0.02, "hot fraction {frac}");
    }

    #[test]
    fn weighted_matches_weights() {
        let d = DestDist::Weighted {
            cdf: vec![1.0, 1.0, 4.0],
        };
        let counts = draw_many(&d, 3, 40_000, 3);
        assert_eq!(counts[1], 0);
        let frac2 = counts[2] as f64 / 40_000.0;
        assert!((frac2 - 0.75).abs() < 0.02, "{frac2}");
    }
}
