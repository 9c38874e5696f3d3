//! Cell-level arrival processes.

use crate::dest::DestDist;
use simkernel::ids::Cycle;
use simkernel::SplitMix64;

/// A slotted source of cell arrivals for an `n`-input switch.
///
/// Once per slot, [`CellSource::poll`] fills `out[i]` with `Some(dst)` if a
/// cell arrives on input `i` destined to output `dst`, `None` otherwise.
pub trait CellSource {
    /// Number of input ports this source feeds.
    fn ports(&self) -> usize;

    /// Generate the arrivals of slot `now` into `out` (length must equal
    /// [`CellSource::ports`]).
    fn poll(&mut self, now: Cycle, out: &mut [Option<usize>]);
}

/// Independent Bernoulli arrivals: each input receives a cell with
/// probability `load` each slot, destination drawn from `dist`.
///
/// ```
/// use traffic::{Bernoulli, DestDist};
/// use traffic::sources::CellSource;
///
/// let mut src = Bernoulli::new(4, 0.5, DestDist::uniform(4), 7);
/// let mut slot = vec![None; 4];
/// src.poll(0, &mut slot);
/// for dst in slot.iter().flatten() {
///     assert!(*dst < 4);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Bernoulli {
    load: f64,
    /// `load` as an integer threshold (`SplitMix64::chance_threshold`).
    thresh: u64,
    dist: DestDist,
    rngs: Vec<SplitMix64>,
}

impl Bernoulli {
    /// `ports` independent inputs at the given per-slot arrival probability.
    pub fn new(ports: usize, load: f64, dist: DestDist, seed: u64) -> Self {
        assert!(ports > 0 && (0.0..=1.0).contains(&load));
        let mut root = SplitMix64::new(seed);
        Bernoulli {
            load,
            thresh: SplitMix64::chance_threshold(load),
            dist,
            rngs: (0..ports).map(|_| root.fork()).collect(),
        }
    }

    /// The configured offered load.
    pub fn load(&self) -> f64 {
        self.load
    }
}

impl CellSource for Bernoulli {
    fn ports(&self) -> usize {
        self.rngs.len()
    }

    fn poll(&mut self, _now: Cycle, out: &mut [Option<usize>]) {
        assert_eq!(out.len(), self.rngs.len());
        let thresh = self.thresh;
        let ports = out.iter_mut().zip(&mut self.rngs);
        // The same draws as `rng.chance(load).then(|| dist.draw(rng))`.
        match &self.dist {
            DestDist::Uniform { n } => {
                for (slot, rng) in ports {
                    *slot = rng.chance_then_below(thresh, *n as u64).map(|d| d as usize);
                }
            }
            dist => {
                for (slot, rng) in ports {
                    *slot = rng.chance_at(thresh).then(|| dist.draw(rng));
                }
            }
        }
    }
}

/// Bursty on/off arrivals: each input alternates between ON bursts
/// (one cell per slot, all to the same destination) and OFF gaps. Burst
/// lengths are geometric with the given mean; gap lengths are geometric
/// with the mean that yields the requested long-run load.
#[derive(Debug, Clone)]
pub struct BurstyOnOff {
    mean_burst: f64,
    mean_gap: f64,
    dist: DestDist,
    per_port: Vec<PortState>,
}

#[derive(Debug, Clone)]
struct PortState {
    rng: SplitMix64,
    /// Remaining slots of the current burst (>0: ON) and its destination.
    burst_left: u64,
    burst_dst: usize,
    /// Remaining slots of the current gap (only meaningful when OFF).
    gap_left: u64,
}

impl BurstyOnOff {
    /// `ports` inputs at long-run `load`, with geometric bursts of the
    /// given `mean_burst ≥ 1` cells. At load 0 no input ever sends.
    pub fn new(ports: usize, load: f64, mean_burst: f64, dist: DestDist, seed: u64) -> Self {
        assert!(ports > 0, "a bursty source needs at least one port");
        assert!(
            (0.0..=1.0).contains(&load),
            "load must be in [0, 1], got {load}"
        );
        assert!(mean_burst >= 1.0);
        // load = mean_burst / (mean_burst + mean_gap); infinite at load 0.
        let mean_gap = mean_burst * (1.0 - load) / load;
        let mut root = SplitMix64::new(seed);
        BurstyOnOff {
            mean_burst,
            mean_gap,
            dist,
            per_port: (0..ports)
                .map(|_| PortState {
                    rng: root.fork(),
                    burst_left: 0,
                    burst_dst: 0,
                    gap_left: 0,
                })
                .collect(),
        }
    }

    fn draw_burst(mean: f64, rng: &mut SplitMix64) -> u64 {
        // Geometric with support {1, 2, ...} and mean `mean`.
        1 + rng.geometric(1.0 / mean)
    }

    fn draw_gap(mean: f64, rng: &mut SplitMix64) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        if mean.is_infinite() {
            return u64::MAX; // load 0: the gap outlasts any run
        }
        // Geometric with support {0, 1, ...} and mean `mean`.
        rng.geometric(1.0 / (1.0 + mean))
    }
}

impl CellSource for BurstyOnOff {
    fn ports(&self) -> usize {
        self.per_port.len()
    }

    fn poll(&mut self, _now: Cycle, out: &mut [Option<usize>]) {
        assert_eq!(out.len(), self.per_port.len());
        for (slot, st) in out.iter_mut().zip(self.per_port.iter_mut()) {
            if st.burst_left == 0 && st.gap_left == 0 {
                // Start a new cycle of gap-then-burst.
                st.gap_left = Self::draw_gap(self.mean_gap, &mut st.rng);
                st.burst_left = Self::draw_burst(self.mean_burst, &mut st.rng);
                st.burst_dst = self.dist.draw(&mut st.rng);
            }
            if st.gap_left > 0 {
                st.gap_left -= 1;
                *slot = None;
            } else {
                st.burst_left -= 1;
                *slot = Some(st.burst_dst);
            }
        }
    }
}

/// Deterministic permutation traffic: in every slot, with probability
/// `load`, input `i` sends to output `perm[i]` — contention-free by
/// construction, the best case for any architecture.
#[derive(Debug, Clone)]
pub struct PermutationSource {
    perm: Vec<usize>,
    load: f64,
    rngs: Vec<SplitMix64>,
}

impl PermutationSource {
    /// A source with a fixed permutation.
    pub fn new(perm: Vec<usize>, load: f64, seed: u64) -> Self {
        let n = perm.len();
        assert!(n > 0);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "not a permutation");
        let mut root = SplitMix64::new(seed);
        PermutationSource {
            perm,
            load,
            rngs: (0..n).map(|_| root.fork()).collect(),
        }
    }
}

impl CellSource for PermutationSource {
    fn ports(&self) -> usize {
        self.perm.len()
    }

    fn poll(&mut self, _now: Cycle, out: &mut [Option<usize>]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.rngs[i].chance(self.load).then(|| self.perm[i]);
        }
    }
}

/// Replays an explicit per-slot schedule; slots beyond the schedule are
/// idle. For directed tests ("input 0 and input 1 both send to output 2 in
/// slot 5").
#[derive(Debug, Clone)]
pub struct TraceSource {
    ports: usize,
    schedule: Vec<Vec<Option<usize>>>,
}

impl TraceSource {
    /// A trace over `ports` inputs; `schedule[t][i]` is the arrival at
    /// input `i` in slot `t`.
    pub fn new(ports: usize, schedule: Vec<Vec<Option<usize>>>) -> Self {
        for row in &schedule {
            assert_eq!(row.len(), ports, "schedule row width mismatch");
        }
        TraceSource { ports, schedule }
    }
}

impl CellSource for TraceSource {
    fn ports(&self) -> usize {
        self.ports
    }

    fn poll(&mut self, now: Cycle, out: &mut [Option<usize>]) {
        match self.schedule.get(now as usize) {
            Some(row) => out.copy_from_slice(row),
            None => out.fill(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measure_load(src: &mut dyn CellSource, slots: u64) -> f64 {
        let n = src.ports();
        let mut buf = vec![None; n];
        let mut cells = 0u64;
        for t in 0..slots {
            src.poll(t, &mut buf);
            cells += buf.iter().flatten().count() as u64;
        }
        cells as f64 / (slots * n as u64) as f64
    }

    #[test]
    fn bernoulli_load_matches() {
        let mut s = Bernoulli::new(8, 0.6, DestDist::uniform(8), 42);
        let l = measure_load(&mut s, 20_000);
        assert!((l - 0.6).abs() < 0.01, "measured load {l}");
    }

    #[test]
    fn bernoulli_deterministic() {
        let run = |seed| {
            let mut s = Bernoulli::new(4, 0.5, DestDist::uniform(4), seed);
            let mut buf = vec![None; 4];
            let mut v = Vec::new();
            for t in 0..100 {
                s.poll(t, &mut buf);
                v.push(buf.clone());
            }
            v
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn bernoulli_draws_what_chance_then_draw_draws() {
        let dists = [
            DestDist::uniform(8),
            DestDist::uniform(5),
            DestDist::hotspot(8, 3, 0.25),
            DestDist::weighted(&[1.0, 0.0, 3.0, 0.5]),
        ];
        for dist in dists {
            let n = dist.outputs();
            for load in [0.0, 0.3, 0.995, 1.0] {
                let mut src = Bernoulli::new(n, load, dist.clone(), 11);
                let mut root = SplitMix64::new(11);
                let mut rngs: Vec<SplitMix64> = (0..n).map(|_| root.fork()).collect();
                let (mut got, mut want) = (vec![None; n], vec![None; n]);
                for t in 0..5_000 {
                    src.poll(t, &mut got);
                    for (slot, rng) in want.iter_mut().zip(&mut rngs) {
                        *slot = rng.chance(load).then(|| dist.draw(rng));
                    }
                    assert_eq!(got, want, "{dist:?} at load {load}, slot {t}");
                }
            }
        }
    }

    #[test]
    fn bursty_load_matches() {
        let mut s = BurstyOnOff::new(8, 0.5, 10.0, DestDist::uniform(8), 1);
        let l = measure_load(&mut s, 100_000);
        assert!((l - 0.5).abs() < 0.02, "measured load {l}");
    }

    #[test]
    fn bursty_bursts_go_to_one_destination() {
        // A burst is a maximal same-destination run; adjacent bursts may
        // abut (zero-length gap), so split runs on idle OR dest change.
        let mut s = BurstyOnOff::new(1, 0.5, 16.0, DestDist::uniform(8), 3);
        let mut buf = [None];
        let mut runs: Vec<u64> = Vec::new();
        let mut cur_len = 0u64;
        let mut cur_dst: Option<usize> = None;
        for t in 0..100_000 {
            s.poll(t, &mut buf);
            match buf[0] {
                Some(d) if Some(d) == cur_dst => cur_len += 1,
                Some(d) => {
                    if cur_len > 0 {
                        runs.push(cur_len);
                    }
                    cur_dst = Some(d);
                    cur_len = 1;
                }
                None => {
                    if cur_len > 0 {
                        runs.push(cur_len);
                    }
                    cur_dst = None;
                    cur_len = 0;
                }
            }
        }
        assert!(runs.len() > 500, "expected many bursts, got {}", runs.len());
        let mean: f64 = runs.iter().map(|&r| r as f64).sum::<f64>() / runs.len() as f64;
        // Same-dest adjacent bursts merge occasionally, inflating slightly.
        assert!((mean - 16.0).abs() < 3.0, "mean burst {mean}");
    }

    #[test]
    fn bursty_zero_load_never_sends() {
        let mut s = BurstyOnOff::new(2, 0.0, 4.0, DestDist::uniform(4), 5);
        let mut out = vec![None; 2];
        for now in 0..10_000 {
            s.poll(now, &mut out);
            assert_eq!(out, [None, None], "slot {now}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn bursty_without_ports_is_rejected_even_at_full_load() {
        BurstyOnOff::new(0, 1.0, 4.0, DestDist::uniform(4), 5);
    }

    #[test]
    #[should_panic(expected = "load must be in [0, 1]")]
    fn bursty_load_above_one_is_rejected() {
        BurstyOnOff::new(2, 1.5, 4.0, DestDist::uniform(4), 5);
    }

    #[test]
    fn bursty_full_load_never_idles() {
        let mut s = BurstyOnOff::new(2, 1.0, 4.0, DestDist::uniform(4), 5);
        let mut buf = vec![None; 2];
        for t in 0..1000 {
            s.poll(t, &mut buf);
            assert!(buf.iter().all(|c| c.is_some()), "idle slot at load 1.0");
        }
    }

    #[test]
    fn permutation_contention_free() {
        let mut s = PermutationSource::new(vec![2, 0, 3, 1], 1.0, 9);
        let mut buf = vec![None; 4];
        for t in 0..100 {
            s.poll(t, &mut buf);
            let mut seen = [false; 4];
            for d in buf.iter().flatten() {
                assert!(!seen[*d], "two inputs sent to output {d}");
                seen[*d] = true;
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permutation_validated() {
        let _ = PermutationSource::new(vec![0, 0, 1], 1.0, 0);
    }

    #[test]
    fn trace_replays_then_idles() {
        let mut s = TraceSource::new(2, vec![vec![Some(1), None], vec![None, Some(0)]]);
        let mut buf = vec![None; 2];
        s.poll(0, &mut buf);
        assert_eq!(buf, vec![Some(1), None]);
        s.poll(1, &mut buf);
        assert_eq!(buf, vec![None, Some(0)]);
        s.poll(2, &mut buf);
        assert_eq!(buf, vec![None, None]);
    }
}
