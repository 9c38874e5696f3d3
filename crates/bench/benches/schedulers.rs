//! Scheduler cost: one matching computation per slot is the hardware
//! complexity §2.1 warns about ("a more complicated scheduler is
//! needed"); here it is software cost across sizes.

use baselines::model::{port_bit, PortMask};
use baselines::sched::{IslipScheduler, PimScheduler, Rr2dScheduler, Scheduler};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simkernel::SplitMix64;

fn bench_schedulers(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler_matching");
    for &n in &[8usize, 16, 32] {
        let mut rng = SplitMix64::new(7);
        // 60 % of the n² VOQs non-empty, as row and column masks.
        let (mut rows, mut cols): (Vec<PortMask>, Vec<PortMask>) = (vec![0; n], vec![0; n]);
        for (i, j) in (0..n * n).map(|x| (x / n, x % n)) {
            if rng.chance(0.6) {
                rows[i] |= port_bit(j);
                cols[j] |= port_bit(i);
            }
        }
        g.bench_with_input(BenchmarkId::new("pim4", n), &n, |b, &n| {
            let mut s = PimScheduler::new(4, 1);
            let mut m = vec![None; n];
            b.iter(|| {
                s.schedule(&rows, &cols, &mut m);
                std::hint::black_box(m.iter().flatten().count())
            });
        });
        g.bench_with_input(BenchmarkId::new("islip4", n), &n, |b, &n| {
            let mut s = IslipScheduler::new(n, 4);
            let mut m = vec![None; n];
            b.iter(|| {
                s.schedule(&rows, &cols, &mut m);
                std::hint::black_box(m.iter().flatten().count())
            });
        });
        g.bench_with_input(BenchmarkId::new("rr2d", n), &n, |b, &n| {
            let mut s = Rr2dScheduler::new();
            let mut m = vec![None; n];
            b.iter(|| {
                s.schedule(&rows, &cols, &mut m);
                std::hint::black_box(m.iter().flatten().count())
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_schedulers);
criterion_main!(benches);
