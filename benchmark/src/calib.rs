//! Drift correction: a fixed calibration kernel brackets every timed slice.
//!
//! The hosts this benchmark runs on (two-core shared VMs, no PMU) change
//! speed all the time. The kernel below, run back to back for ten seconds,
//! took between 4.2 and 82 ms a time; its one-second means ran from 5.0 to
//! 8.3 ms. The slow spells come as bursts of 100–150 ms at a third of the
//! speed (about a tenth of the time) on top of swings that last seconds, and
//! neither the minimum of k runs nor CPU time removes them: both follow the
//! wall clock, and `/proc/stat` books only 2 % of it as steal. What removes
//! about half of it is to time a kernel of fixed work next to the slice and
//! report the slice in units of that kernel. [`correct`] does the division;
//! [`Clock`] runs the kernel before and after each slice and keeps the
//! samples, so a run can report how disturbed it was (`host.cal_s`,
//! `host.cal_spread`).
//!
//! The slowdowns are not the same for all code, so the kernel has two
//! halves. One is a toy output-queued switch — xorshift arrivals, eight
//! bounded FIFOs, data-dependent branches over a few hundred bytes of state
//! — which slows down with whatever shares the core. The other chases
//! pointers through 8 MiB, which slows down with whatever shares the cache
//! and the memory. Over 30 to 35 timed passes of each workload, the raw pass
//! times had an interquartile range of 10–21 % of their median and the
//! corrected ones 7–17 %; the median of a run's passes, over five sets of
//! ten runs, 2–15 % (README, "Timing method"). A multiply-and-scatter
//! kernel over 512 KiB tracked none of the workloads (slopes of 0.2–0.9).
//! Either half alone does better on some workloads and worse on others;
//! neither a median of the samples nor per-slice quartiles across passes was
//! better on all of them. The kernel shares no code with the program, so no
//! change to the program can move it.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Seconds one kernel run takes on the reference host in its usual speed
/// state. Corrected seconds are "seconds of a host on which the kernel takes
/// this long"; changing the constant rescales every reported time.
pub const CAL_NOMINAL_S: f64 = 0.005;

/// Ports of the toy switch.
const PORTS: usize = 8;
/// Depth of each of its output FIFOs.
const DEPTH: usize = 64;
/// Cycles of the toy switch per kernel run (about half the kernel's time).
const KERNEL_CYCLES: u32 = 21_000;
/// Entries of the pointer-chase ring: 8 MiB of `u32`, well past the caches
/// a core has to itself.
const RING: usize = 2 << 20;
/// Hops along the ring per kernel run (the other half).
const KERNEL_HOPS: u32 = 20_000;

/// A calibration younger than this is reused as the next slice's "before",
/// so back-to-back slices pay for one calibration, not two.
const REUSE_WITHIN: Duration = Duration::from_millis(1);

/// Share of a slice's length spent on kernel runs on each side of it: a
/// long slice gets several, because one 5 ms sample says little about the
/// average speed over hundreds of milliseconds. Back-to-back slices share
/// the runs between them, so this is also the share of a pass.
const CAL_SHARE: f64 = 0.10;
/// Most kernel runs on one side of a slice.
const MAX_RUNS: usize = 16;

/// `raw_s` of work in corrected seconds, given the kernel times measured
/// around and between its slices: `raw_s × CAL_NOMINAL_S ÷ mean(kernel
/// times)`. A pass is corrected as a whole, by the mean over all its kernel
/// runs: the mean of two samples is too noisy to divide by (dividing by a
/// noisy number inflates the result, by more the noisier the host is).
pub fn correct(raw_s: f64, kernel_s: &[f64]) -> f64 {
    raw_s * factor(kernel_s)
}

/// The multiplier [`correct`] applies.
pub fn factor(kernel_s: &[f64]) -> f64 {
    CAL_NOMINAL_S * kernel_s.len() as f64 / kernel_s.iter().sum::<f64>()
}

/// One timed slice.
#[derive(Debug, Clone)]
pub struct Slice {
    /// Wall seconds as measured.
    pub raw_s: f64,
    /// The kernel runs on both sides of it, as indices into [`Clock::samples`].
    pub cal: std::ops::Range<usize>,
}

/// Runs the calibration kernel around slices and remembers every sample.
pub struct Clock {
    queues: Vec<VecDeque<u32>>,
    /// One random cycle through all `RING` entries.
    ring: Vec<u32>,
    /// When the last calibration ended, and the index of its first sample.
    last: Option<(Instant, usize)>,
    /// Length of the previous slice: how long the next one probably is.
    expect_s: f64,
    /// Every kernel time measured, in order.
    pub samples: Vec<f64>,
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock {
    /// A clock with a warmed kernel.
    pub fn new() -> Self {
        // Sattolo's shuffle: a permutation that is one single cycle.
        let mut ring: Vec<u32> = (0..RING as u32).collect();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in (1..RING).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ring.swap(i, (x % i as u64) as usize);
        }
        let mut c = Clock {
            ring,
            queues: (0..PORTS).map(|_| VecDeque::with_capacity(DEPTH)).collect(),
            last: None,
            expect_s: 0.0,
            samples: Vec::new(),
        };
        c.kernel();
        c
    }

    /// The fixed kernel: always the same arrivals, the same work.
    fn kernel(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut busy = [0u8; PORTS];
        let mut latency_sum = 0u64;
        for t in 0..KERNEL_CYCLES {
            for b in busy.iter_mut() {
                if *b > 0 {
                    *b -= 1;
                    continue;
                }
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x & 0xff < 100 {
                    let q = &mut self.queues[(x >> 8) as usize % PORTS];
                    if q.len() < DEPTH {
                        q.push_back(t);
                    }
                    *b = (x >> 12) as u8 & 3;
                }
            }
            for q in &mut self.queues {
                if let Some(&birth) = q.front() {
                    if t - birth >= 2 {
                        latency_sum += u64::from(t - birth);
                        q.pop_front();
                    }
                }
            }
        }
        self.queues.iter_mut().for_each(VecDeque::clear);
        let mut at = 0u32;
        for _ in 0..KERNEL_HOPS {
            at = self.ring[at as usize];
        }
        black_box((latency_sum, at));
        t0.elapsed().as_secs_f64()
    }

    /// Kernel runs for one side of a slice about `slice_s` long; returns the
    /// index of the first of the new samples.
    fn calibrate(&mut self, slice_s: f64) -> usize {
        let first = self.samples.len();
        let runs = ((slice_s * CAL_SHARE / CAL_NOMINAL_S).round() as usize).clamp(1, MAX_RUNS);
        for _ in 0..runs {
            let v = self.kernel();
            self.samples.push(v);
        }
        first
    }

    /// Time `f` between two calibrations.
    pub fn slice<R>(&mut self, f: impl FnOnce() -> R) -> (R, Slice) {
        let before = match self.last {
            Some((at, first)) if at.elapsed() < REUSE_WITHIN => first,
            _ => self.calibrate(self.expect_s),
        };
        let t0 = Instant::now();
        let r = black_box(f());
        let raw_s = t0.elapsed().as_secs_f64();
        let after = self.calibrate(raw_s);
        self.last = Some((Instant::now(), after));
        self.expect_s = raw_s;
        let cal = before..self.samples.len();
        (r, Slice { raw_s, cal })
    }
}
