//! Deterministic parallel sweep execution.
//!
//! Every quantitative claim in the paper is regenerated by load/size
//! sweeps whose points are *mutually independent* simulations: each
//! point builds its own model and its own RNG stream from an explicit
//! seed. That makes the harness embarrassingly parallel — the same
//! "pipeline the independent work" instinct the paper applies to memory
//! banks applies to the experiment grid — while the simulator itself
//! stays single-threaded (DESIGN.md §6: parallelism lives in the
//! harness, never inside a model). The one campaign that does not come
//! through here is e19: its fabrics are sharded at [`jobs`] workers each,
//! so its points run one after another — a process fans out at one
//! level, never two.
//!
//! [`map`] is the engine: it fans a slice of points out over a scoped
//! `std::thread` worker pool and collects results **in canonical grid
//! order**. Because a point's closure depends only on the point (no
//! shared mutable state, no worker-local RNG), the output is
//! bit-identical for any worker count and any scheduling order; the
//! `sweep_determinism` integration test pins that property.
//!
//! The worker count is a process-wide setting ([`set_jobs`]) so the
//! `expt` binary's `--jobs N` / `--seq` flags reach every experiment
//! module without threading a parameter through twenty `run()`
//! signatures. The default (0 = auto) uses all available cores.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Configured worker count; 0 = auto (all available cores).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Total sweep points executed by this process (for points/sec reports).
static POINTS: AtomicU64 = AtomicU64::new(0);

/// Set the worker count for subsequent sweeps (`0` = auto). `1` forces
/// fully sequential execution on the calling thread.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The effective worker count a sweep will use right now.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Total sweep points executed so far by this process.
pub fn points_run() -> u64 {
    POINTS.load(Ordering::Relaxed)
}

/// Evaluate `f` on every point, in parallel, returning results in point
/// order.
///
/// Workers claim points from a shared atomic cursor (dynamic load
/// balancing: loss searches and switch sizes take wildly different times), stash
/// `(index, result)` pairs locally, and the pairs are merged and sorted
/// at the end — so the caller sees exactly what the sequential
/// `points.iter().map(f).collect()` would produce, which is also what
/// `--jobs 1` literally runs.
///
/// A panic in any point propagates to the caller (experiments assert
/// internally; a misconfigured sweep must fail loudly, not silently
/// drop rows).
pub fn map<I, T, F>(points: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    POINTS.fetch_add(points.len() as u64, Ordering::Relaxed);
    let workers = jobs().min(points.len());
    if workers <= 1 {
        return points.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(points.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= points.len() {
                        break;
                    }
                    local.push((i, f(&points[i])));
                }
                collected
                    .lock()
                    .expect("a sibling worker panicked; propagating")
                    .append(&mut local);
            });
        }
    });
    let mut rows = collected.into_inner().expect("workers joined");
    debug_assert_eq!(rows.len(), points.len());
    rows.sort_unstable_by_key(|&(i, _)| i);
    rows.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `JOBS` is process-global; tests that touch it must not interleave.
    static JOBS_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn map_preserves_point_order() {
        let points: Vec<usize> = (0..257).collect();
        let doubled = map(&points, |&p| p * 2);
        assert_eq!(doubled, points.iter().map(|p| p * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_is_identical_across_worker_counts() {
        let _guard = JOBS_LOCK.lock().unwrap();
        let points: Vec<u64> = (0..64).collect();
        let run = |jobs| {
            set_jobs(jobs);
            let out = map(&points, |&p| {
                // A point-local RNG stream, as real experiments use.
                let mut g = simkernel::SplitMix64::stream(99, p);
                (0..100).map(|_| g.next_u64()).fold(0u64, u64::wrapping_add)
            });
            set_jobs(0);
            out
        };
        let seq = run(1);
        assert_eq!(seq, run(4));
        assert_eq!(seq, run(8));
    }

    #[test]
    fn map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(map(&empty, |&p| p).is_empty());
        assert_eq!(map(&[7u32], |&p| p + 1), vec![8]);
    }

    #[test]
    fn jobs_zero_is_auto() {
        let _guard = JOBS_LOCK.lock().unwrap();
        set_jobs(0);
        assert!(jobs() >= 1);
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
    }
}
