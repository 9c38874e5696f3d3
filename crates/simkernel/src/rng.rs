//! Deterministic pseudo-random number generation for simulations.
//!
//! Every stochastic choice in the workspace (traffic arrivals, destination
//! draws, tie-breaking in arbiters) flows through [`SplitMix64`], a small,
//! fast, well-mixed generator that is seedable and fully reproducible. The
//! goal is not cryptographic quality but *bit-exact reruns*: a simulation
//! with the same seed produces the same cycle-by-cycle behavior on every
//! platform, which the test suite and the experiment harness rely on.
//!
//! SplitMix64 is the standard seeding generator of the xoshiro family
//! (Steele, Lea, Flood 2014); its 64-bit state passes BigCrush when used as
//! here.

/// A SplitMix64 generator.
///
/// ```
/// use simkernel::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // bit-exact reproducibility
/// let die = a.below(6) + 1;
/// assert!((1..=6).contains(&die));
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Different seeds yield statistically
    /// independent streams for practical simulation purposes.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derive an independent child stream, useful for giving each input
    /// port its own generator so per-port traffic is independent.
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64() ^ 0x6a09_e667_f3bc_c909)
    }

    /// Generator for the `stream`-th independent stream of `base` — see
    /// [`split_seed`]. Unlike [`SplitMix64::fork`], this is a pure
    /// function of `(base, stream)`: any worker can derive stream `k`
    /// without observing streams `0..k`, which is what makes parallel
    /// parameter sweeps bit-identical regardless of scheduling order.
    pub fn stream(base: u64, stream: u64) -> SplitMix64 {
        SplitMix64::new(split_seed(base, stream))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    /// Uniform double in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. Uses Lemire's multiply-shift with a
    /// rejection step, so the distribution is exactly uniform.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire 2018: "Fast Random Integer Generation in an Interval".
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform usize in `[0, bound)`.
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Bernoulli trial with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.next_f64() < p
    }

    /// The integer form of `p` for [`SplitMix64::chance_at`]:
    /// `ceil(p · 2^53)`. A draw `k < 2^53` passes `chance(p)` iff
    /// `k · 2^-53 < p`, iff `k < ceil(p · 2^53)` — scaling by 2^53 is exact,
    /// so the two tests agree for every draw.
    pub fn chance_threshold(p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        (p * (1u64 << 53) as f64).ceil() as u64
    }

    /// [`SplitMix64::chance`] against `chance_threshold(p)`, without the
    /// int → float conversion: the same outcome and the same state after.
    #[inline]
    pub fn chance_at(&mut self, thresh: u64) -> bool {
        (self.next_u64() >> 11) < thresh
    }

    /// `chance_at(thresh)` followed, on success, by `below(bound)`: the same
    /// outcome and the same state after. Both candidate outputs are mixed
    /// from the additive state up front and the state steps once or twice,
    /// so the trial costs no branch; only a draw in Lemire's rejection zone
    /// rewinds to after the trial and takes [`SplitMix64::below`].
    #[inline]
    pub fn chance_then_below(&mut self, thresh: u64, bound: u64) -> Option<u64> {
        assert!(bound > 0, "below(0) is meaningless");
        let s = self.state;
        let hit = (mix(s.wrapping_add(GAMMA)) >> 11) < thresh;
        let m = (mix(s.wrapping_add(GAMMA.wrapping_mul(2))) as u128) * (bound as u128);
        self.state = s.wrapping_add(GAMMA.wrapping_mul(1 + hit as u64));
        if hit & ((m as u64) < bound) {
            self.state = s.wrapping_add(GAMMA);
            return Some(self.below(bound));
        }
        hit.then_some((m >> 64) as u64)
    }

    /// Geometric draw: number of failures before the first success with
    /// success probability `p ∈ (0, 1]`; i.e. `P(X = k) = (1-p)^k · p`.
    /// Used for on/off burst lengths.
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "geometric needs p in (0,1]");
        if p >= 1.0 {
            return 0;
        }
        // Inversion: floor(ln(U) / ln(1-p)).
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        (u.ln() / (1.0 - p).ln()).floor() as u64
    }

    /// Uniform choice from a non-empty slice (by reference, so the
    /// caller's table of candidate parameters needs no cloning). The
    /// conformance scenario generator draws port counts, buffer depths
    /// and load levels from fixed menus with this.
    pub fn choose<'a, T>(&mut self, options: &'a [T]) -> &'a T {
        assert!(!options.is_empty(), "choose from an empty slice");
        &options[self.below_usize(options.len())]
    }

    /// A random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below_usize(i + 1);
            v.swap(i, j);
        }
        v
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below_usize(i + 1);
            v.swap(i, j);
        }
    }
}

/// The additive step of the state (the golden ratio in 64-bit fixed point).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The output function: the mixed value of one state.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed-split: the seed of the `stream`-th independent child stream of
/// `base`.
///
/// Equivalent to taking the `stream + 1`-th output of
/// `SplitMix64::new(base)`, computed in O(1) by jumping the additive
/// state directly (`state = base + stream·γ`); the outputs of a
/// SplitMix64 sequence are well-mixed and mutually independent for
/// simulation purposes. Used by the experiment sweep engine to give
/// every grid point its own reproducible RNG stream independent of
/// worker count and execution order.
pub fn split_seed(base: u64, stream: u64) -> u64 {
    let mut g = SplitMix64::new(base.wrapping_add(stream.wrapping_mul(GAMMA)));
    g.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn known_vector() {
        // Reference values from the canonical SplitMix64 (seed 0).
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xe220a8397b1dcdaf);
        assert_eq!(g.next_u64(), 0x6e789e6aa1b965f4);
        assert_eq!(g.next_u64(), 0x06c45d188009454f);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut g = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_uniform_enough() {
        let mut g = SplitMix64::new(123);
        let mut counts = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[g.below_usize(8)] += 1;
        }
        // Each bucket should hold ~10000; allow ±5%.
        for &c in &counts {
            assert!((9500..=10500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn chance_matches_probability() {
        let mut g = SplitMix64::new(9);
        let n = 100_000;
        let hits = (0..n).filter(|_| g.chance(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "observed {frac}");
    }

    #[test]
    fn integer_trial_and_branch_free_draw_match_chance_then_below() {
        let ps = [0.0, 1.0, 1e-9, 0.5, 0.995, 1.0 - 1.0 / (1u64 << 53) as f64];
        // Above 2^62 a large share of draws lands in the rejection zone.
        let ns = [
            1,
            3,
            7,
            12,
            1000,
            (1 << 20) + 7,
            (1 << 62) + 5,
            u64::MAX / 3 * 2,
            u64::MAX,
        ];
        for p in ps {
            let thresh = SplitMix64::chance_threshold(p);
            // The threshold identity at its edge: k = thresh - 1 passes, thresh fails.
            let passes = |k: u64| (k as f64 * (1.0 / (1u64 << 53) as f64)) < p;
            if thresh > 0 {
                assert!(passes(thresh - 1), "p = {p}");
            }
            assert!(!passes(thresh), "p = {p}");
            for n in ns {
                let mut a = SplitMix64::new(p.to_bits() ^ n);
                let mut b = a.clone();
                let mut c = a.clone();
                for i in 0..20_000 {
                    let want = a.chance(p).then(|| a.below(n));
                    assert_eq!(b.chance_then_below(thresh, n), want, "p {p} n {n} draw {i}");
                    assert_eq!(b.state, a.state, "p {p} n {n} draw {i}");
                    let hit = c.chance_at(thresh);
                    assert_eq!(hit, want.is_some(), "p {p} n {n} draw {i}");
                    if hit {
                        c.below(n);
                    }
                }
                assert_eq!(c.state, a.state, "p {p} n {n}");
            }
        }
    }

    #[test]
    fn geometric_mean_matches() {
        let mut g = SplitMix64::new(11);
        let p = 0.25;
        let n = 50_000;
        let total: u64 = (0..n).map(|_| g.geometric(p)).sum();
        let mean = total as f64 / n as f64;
        let expect = (1.0 - p) / p; // = 3.0
        assert!((mean - expect).abs() < 0.1, "observed mean {mean}");
    }

    #[test]
    fn geometric_p_one_is_zero() {
        let mut g = SplitMix64::new(3);
        for _ in 0..100 {
            assert_eq!(g.geometric(1.0), 0);
        }
    }

    #[test]
    fn choose_covers_all_options_uniformly() {
        let mut g = SplitMix64::new(31);
        let menu = [2usize, 4, 8, 16];
        let mut counts = [0u32; 4];
        for _ in 0..8_000 {
            let v = *g.choose(&menu);
            counts[menu.iter().position(|&m| m == v).unwrap()] += 1;
        }
        for &c in &counts {
            assert!((1800..=2200).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    #[should_panic(expected = "empty slice")]
    fn choose_empty_panics() {
        let mut g = SplitMix64::new(1);
        let empty: [u8; 0] = [];
        g.choose(&empty);
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut g = SplitMix64::new(5);
        for n in [1usize, 2, 5, 16] {
            let p = g.permutation(n);
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn split_seed_matches_sequential_draws() {
        // Stream k's seed is the (k+1)-th output of the base generator —
        // the O(1) state jump must agree with actually stepping it.
        let base = 0xFEED_FACE;
        let mut g = SplitMix64::new(base);
        for k in 0..16 {
            assert_eq!(split_seed(base, k), g.next_u64(), "stream {k}");
        }
    }

    #[test]
    fn split_streams_are_independent() {
        let mut a = SplitMix64::stream(42, 0);
        let mut b = SplitMix64::stream(42, 1);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
        // And reproducible.
        let mut a2 = SplitMix64::stream(42, 0);
        let mut a3 = SplitMix64::stream(42, 0);
        for _ in 0..100 {
            assert_eq!(a2.next_u64(), a3.next_u64());
        }
    }

    #[test]
    fn fork_streams_diverge() {
        let mut parent = SplitMix64::new(77);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let same = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }
}
