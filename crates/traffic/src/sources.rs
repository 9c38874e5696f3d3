//! Cell-level arrival processes.
//!
//! A source hands the switch one slot's arrivals as a port mask plus a
//! destination row: bit `i` of the mask set means a cell arrives on input
//! `i`, and `dst[i]` is then its output. The mask is a bare `u64` with the
//! encoding of `baselines::PortMask`, so the harness numbers cells over
//! the set bits and no per-port `Option` is built or tested. The price is
//! the same width limit as the slot-level models: every constructor
//! refuses more than 64 ports.

use crate::dest::DestDist;
use simkernel::ids::Cycle;
use simkernel::SplitMix64;

/// Widest source: an arrival set is one `u64` mask.
const MAX_PORTS: usize = u64::BITS as usize;

/// Refuse a source too wide for its arrival mask (or with no ports), with
/// the message `baselines::model::all_ports` gives a too-wide switch.
fn checked_ports(ports: usize) -> usize {
    assert!(
        (1..=MAX_PORTS).contains(&ports),
        "cell sources take 1..={MAX_PORTS} ports (arrival sets are {MAX_PORTS}-bit masks), got {ports}"
    );
    ports
}

/// A slotted source of cell arrivals for an `n`-input switch.
///
/// Once per slot, [`CellSource::poll`] returns the inputs that receive a
/// cell as a mask (bit `i` = input `i`) and writes each such cell's
/// output to `dst[i]`. Where a bit is clear, `dst` keeps whatever it held.
pub trait CellSource {
    /// Number of input ports this source feeds.
    fn ports(&self) -> usize;

    /// Generate the arrivals of slot `now`: the returned mask names the
    /// inputs with a cell, `dst` (length must equal
    /// [`CellSource::ports`]) their destinations.
    fn poll(&mut self, now: Cycle, dst: &mut [usize]) -> u64;
}

/// Independent Bernoulli arrivals: each input receives a cell with
/// probability `load` each slot, destination drawn from `dist`.
///
/// ```
/// use traffic::{Bernoulli, DestDist};
/// use traffic::sources::CellSource;
///
/// let mut src = Bernoulli::new(4, 0.5, DestDist::uniform(4), 7);
/// let mut dst = [0; 4];
/// let mask = src.poll(0, &mut dst);
/// for (i, d) in dst.iter().enumerate() {
///     assert!(mask >> i & 1 == 0 || *d < 4);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Bernoulli {
    /// The offered load as an integer threshold (`SplitMix64::chance_threshold`).
    thresh: u64,
    dist: DestDist,
    rngs: Vec<SplitMix64>,
}

impl Bernoulli {
    /// `ports` independent inputs at the given per-slot arrival probability.
    pub fn new(ports: usize, load: f64, dist: DestDist, seed: u64) -> Self {
        checked_ports(ports);
        let mut root = SplitMix64::new(seed);
        Bernoulli {
            thresh: SplitMix64::chance_threshold(load),
            dist,
            rngs: (0..ports).map(|_| root.fork()).collect(),
        }
    }
}

impl CellSource for Bernoulli {
    fn ports(&self) -> usize {
        self.rngs.len()
    }

    fn poll(&mut self, _now: Cycle, dst: &mut [usize]) -> u64 {
        assert_eq!(dst.len(), self.rngs.len());
        let thresh = self.thresh;
        let mut mask = 0;
        let ports = dst.iter_mut().zip(&mut self.rngs).enumerate();
        // The same draws as `rng.chance(load).then(|| dist.draw(rng))`.
        match &self.dist {
            DestDist::Uniform { n } => {
                for (i, (d, rng)) in ports {
                    let draw = rng.chance_then_below(thresh, *n as u64);
                    mask |= u64::from(draw.is_some()) << i;
                    *d = draw.unwrap_or(0) as usize;
                }
            }
            dist => {
                for (i, (d, rng)) in ports {
                    if rng.chance_at(thresh) {
                        mask |= 1 << i;
                        *d = dist.draw(rng);
                    }
                }
            }
        }
        mask
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
        checked_ports(ports);
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

    fn poll(&mut self, _now: Cycle, dst: &mut [usize]) -> u64 {
        assert_eq!(dst.len(), self.per_port.len());
        let mut mask = 0;
        for (i, (d, st)) in dst.iter_mut().zip(self.per_port.iter_mut()).enumerate() {
            if st.burst_left == 0 && st.gap_left == 0 {
                // Start a new cycle of gap-then-burst.
                st.gap_left = Self::draw_gap(self.mean_gap, &mut st.rng);
                st.burst_left = Self::draw_burst(self.mean_burst, &mut st.rng);
                st.burst_dst = self.dist.draw(&mut st.rng);
            }
            if st.gap_left > 0 {
                st.gap_left -= 1;
            } else {
                st.burst_left -= 1;
                *d = st.burst_dst;
                mask |= 1 << i;
            }
        }
        mask
    }
}

/// Deterministic permutation traffic: in every slot, with probability
/// `load`, input `i` sends to output `perm[i]` — contention-free by
/// construction, the best case for any architecture.
#[derive(Debug, Clone)]
pub struct PermutationSource {
    perm: Vec<usize>,
    /// `load` as an integer threshold (`SplitMix64::chance_threshold`).
    thresh: u64,
    rngs: Vec<SplitMix64>,
}

impl PermutationSource {
    /// A source with a fixed permutation.
    pub fn new(perm: Vec<usize>, load: f64, seed: u64) -> Self {
        let n = checked_ports(perm.len());
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "not a permutation");
        let mut root = SplitMix64::new(seed);
        PermutationSource {
            perm,
            thresh: SplitMix64::chance_threshold(load),
            rngs: (0..n).map(|_| root.fork()).collect(),
        }
    }
}

impl CellSource for PermutationSource {
    fn ports(&self) -> usize {
        self.perm.len()
    }

    fn poll(&mut self, _now: Cycle, dst: &mut [usize]) -> u64 {
        dst.copy_from_slice(&self.perm);
        let mut mask = 0;
        for (i, rng) in self.rngs.iter_mut().enumerate() {
            mask |= u64::from(rng.chance_at(self.thresh)) << i;
        }
        mask
    }
}

/// Replays an explicit per-slot schedule; slots beyond the schedule are
/// idle. For directed tests ("input 0 and input 1 both send to output 2 in
/// slot 5").
#[derive(Debug, Clone)]
pub struct TraceSource {
    ports: usize,
    /// Per slot, the inputs with an arrival.
    masks: Vec<u64>,
    /// `dsts[t * ports + i]`: the destination at input `i` in slot `t`
    /// (0 where there is none).
    dsts: Vec<usize>,
}

impl TraceSource {
    /// A trace over `ports` inputs; `schedule[t][i]` is the arrival at
    /// input `i` in slot `t`.
    pub fn new(ports: usize, schedule: Vec<Vec<Option<usize>>>) -> Self {
        checked_ports(ports);
        let mut masks = Vec::with_capacity(schedule.len());
        let mut dsts = Vec::with_capacity(schedule.len() * ports);
        for row in &schedule {
            assert_eq!(row.len(), ports, "schedule row width mismatch");
            let arrived = row.iter().enumerate().filter(|(_, d)| d.is_some());
            masks.push(arrived.fold(0, |mask, (i, _)| mask | 1 << i));
            dsts.extend(row.iter().map(|d| d.unwrap_or(0)));
        }
        TraceSource { ports, masks, dsts }
    }
}

impl CellSource for TraceSource {
    fn ports(&self) -> usize {
        self.ports
    }

    fn poll(&mut self, now: Cycle, dst: &mut [usize]) -> u64 {
        let Some(&mask) = self.masks.get(now as usize) else {
            return 0;
        };
        let row = now as usize * self.ports;
        dst.copy_from_slice(&self.dsts[row..row + self.ports]);
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;

    /// One slot of `src` as the `Option` row it stands for.
    fn poll_options(src: &mut dyn CellSource, now: Cycle, dst: &mut [usize]) -> Vec<Option<usize>> {
        let mask = src.poll(now, dst);
        let n = dst.len();
        assert_eq!(
            mask & !(u64::MAX >> (MAX_PORTS - n)),
            0,
            "bit beyond port {n}"
        );
        (0..n)
            .map(|i| (mask >> i & 1 == 1).then_some(dst[i]))
            .collect()
    }

    fn measure_load(src: &mut dyn CellSource, slots: u64) -> f64 {
        let n = src.ports();
        let mut dst = vec![0; n];
        let mut cells = 0u64;
        for t in 0..slots {
            cells += u64::from(src.poll(t, &mut dst).count_ones());
        }
        cells as f64 / (slots * n as u64) as f64
    }

    /// Drive `src` and a clone of it through `old_poll` — the `Option`
    /// poll the sources had before arrival sets were masks — side by
    /// side: every slot's arrivals must match, and so must the whole
    /// state after it, generators included.
    fn assert_same_draws<S: CellSource + Clone + Debug>(
        mut src: S,
        mut old_poll: impl FnMut(&mut S, Cycle, &mut [Option<usize>]),
        what: &str,
    ) {
        let n = src.ports();
        let mut reference = src.clone();
        let (mut dst, mut want) = (vec![usize::MAX; n], vec![None; n]);
        for t in 0..3_000 {
            let got = poll_options(&mut src, t, &mut dst);
            old_poll(&mut reference, t, &mut want);
            assert_eq!(got, want, "{what}, slot {t}");
            assert_eq!(
                format!("{src:?}"),
                format!("{reference:?}"),
                "{what}: state after slot {t}"
            );
        }
    }

    #[test]
    fn every_source_draws_what_its_option_poll_drew() {
        let dists = [
            DestDist::uniform(8),
            DestDist::uniform(5),
            DestDist::hotspot(8, 3, 0.25),
            DestDist::Weighted {
                cdf: vec![1.0, 1.0, 4.0, 4.5],
            },
        ];
        for (n, dist) in [8, 5, 8, 4].into_iter().zip(dists) {
            for load in [0.0, 0.3, 0.995, 1.0] {
                assert_same_draws(
                    Bernoulli::new(n, load, dist.clone(), 11),
                    |s, _, out| {
                        for (slot, rng) in out.iter_mut().zip(&mut s.rngs) {
                            *slot = rng.chance(load).then(|| s.dist.draw(rng));
                        }
                    },
                    &format!("Bernoulli {dist:?} at load {load}"),
                );
            }
        }
        for (load, burst) in [(0.0, 4.0), (0.6, 1.0), (0.6, 32.0), (1.0, 8.0)] {
            assert_same_draws(
                BurstyOnOff::new(6, load, burst, DestDist::hotspot(6, 1, 0.5), 0x22),
                |s, _, out| {
                    for (slot, st) in out.iter_mut().zip(s.per_port.iter_mut()) {
                        if st.burst_left == 0 && st.gap_left == 0 {
                            st.gap_left = BurstyOnOff::draw_gap(s.mean_gap, &mut st.rng);
                            st.burst_left = BurstyOnOff::draw_burst(s.mean_burst, &mut st.rng);
                            st.burst_dst = s.dist.draw(&mut st.rng);
                        }
                        if st.gap_left > 0 {
                            st.gap_left -= 1;
                            *slot = None;
                        } else {
                            st.burst_left -= 1;
                            *slot = Some(st.burst_dst);
                        }
                    }
                },
                &format!("bursty at load {load}, mean burst {burst}"),
            );
        }
        for load in [0.0, 0.3, 0.995, 1.0] {
            assert_same_draws(
                PermutationSource::new(vec![2, 0, 3, 1, 4], load, 9),
                |s, _, out| {
                    for (i, slot) in out.iter_mut().enumerate() {
                        *slot = s.rngs[i].chance(load).then(|| s.perm[i]);
                    }
                },
                &format!("permutation at load {load}"),
            );
        }
        let schedule: Vec<Vec<Option<usize>>> = (0..40)
            .map(|t| {
                (0..3)
                    .map(|i| ((t + i) % 4 != 0).then_some((t * i) % 3))
                    .collect()
            })
            .collect();
        assert_same_draws(
            TraceSource::new(3, schedule.clone()),
            |_, now, out| match schedule.get(now as usize) {
                Some(row) => out.copy_from_slice(row),
                None => out.fill(None),
            },
            "trace",
        );
    }

    #[test]
    fn a_source_may_be_64_ports_wide() {
        let mut s = Bernoulli::new(64, 1.0, DestDist::uniform(64), 3);
        assert_eq!(s.poll(0, &mut [0; 64]), u64::MAX);
    }

    #[test]
    #[should_panic(
        expected = "cell sources take 1..=64 ports (arrival sets are 64-bit masks), got 65"
    )]
    fn bernoulli_wider_than_its_mask_is_rejected() {
        Bernoulli::new(65, 0.5, DestDist::uniform(65), 1);
    }

    #[test]
    #[should_panic(
        expected = "cell sources take 1..=64 ports (arrival sets are 64-bit masks), got 65"
    )]
    fn bursty_wider_than_its_mask_is_rejected() {
        BurstyOnOff::new(65, 0.5, 4.0, DestDist::uniform(65), 1);
    }

    #[test]
    #[should_panic(
        expected = "cell sources take 1..=64 ports (arrival sets are 64-bit masks), got 65"
    )]
    fn permutation_wider_than_its_mask_is_rejected() {
        PermutationSource::new((0..65).collect(), 0.5, 1);
    }

    #[test]
    #[should_panic(
        expected = "cell sources take 1..=64 ports (arrival sets are 64-bit masks), got 65"
    )]
    fn trace_wider_than_its_mask_is_rejected() {
        TraceSource::new(65, Vec::new());
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
            let mut dst = [0; 4];
            (0..100)
                .map(|t| poll_options(&mut s, t, &mut dst))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
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
        let mut dst = [0];
        let mut runs: Vec<u64> = Vec::new();
        let mut cur_len = 0u64;
        let mut cur_dst: Option<usize> = None;
        for t in 0..100_000 {
            match poll_options(&mut s, t, &mut dst)[0] {
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
        let mut dst = [0; 2];
        for now in 0..10_000 {
            assert_eq!(s.poll(now, &mut dst), 0, "slot {now}");
        }
    }

    #[test]
    #[should_panic(expected = "cell sources take 1..=64 ports")]
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
        let mut dst = [0; 2];
        for t in 0..1000 {
            assert_eq!(s.poll(t, &mut dst), 0b11, "idle slot at load 1.0");
        }
    }

    #[test]
    fn permutation_contention_free() {
        let mut s = PermutationSource::new(vec![2, 0, 3, 1], 1.0, 9);
        let mut dst = [0; 4];
        for t in 0..100 {
            let mut seen = [false; 4];
            for d in poll_options(&mut s, t, &mut dst).into_iter().flatten() {
                assert!(!seen[d], "two inputs sent to output {d}");
                seen[d] = true;
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
        let mut dst = [0; 2];
        assert_eq!(poll_options(&mut s, 0, &mut dst), [Some(1), None]);
        assert_eq!(poll_options(&mut s, 1, &mut dst), [None, Some(0)]);
        assert_eq!(poll_options(&mut s, 2, &mut dst), [None, None]);
    }
}
