//! Wall-clock merging: the halving merge against the bitonic merging
//! network and the sequential two-finger baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use scan_algorithms::merge::{bitonic_merge, halving_merge, seq_merge};
use scan_bench::sorted_keys;

fn bench_merges(c: &mut Criterion) {
    let mut g = c.benchmark_group("merge");
    g.sample_size(10);
    for lg in [14u32, 18] {
        let n = 1usize << lg;
        let a = sorted_keys(n, 30, 6);
        let b = sorted_keys(n, 30, 7);
        g.throughput(Throughput::Elements(2 * n as u64));
        g.bench_with_input(
            BenchmarkId::new("halving", n),
            &(a.clone(), b.clone()),
            |bch, (a, b)| bch.iter(|| halving_merge(a, b)),
        );
        g.bench_with_input(
            BenchmarkId::new("bitonic", n),
            &(a.clone(), b.clone()),
            |bch, (a, b)| bch.iter(|| bitonic_merge(a, b)),
        );
        g.bench_with_input(BenchmarkId::new("sequential", n), &(a, b), |bch, (a, b)| {
            bch.iter(|| seq_merge(a, b))
        });
    }
    g.finish();
}

fn bench_skewed_merge(c: &mut Criterion) {
    // Uneven inputs: one short, one long.
    let mut g = c.benchmark_group("merge/skewed");
    g.sample_size(10);
    let a = sorted_keys(1 << 8, 30, 8);
    let b = sorted_keys(1 << 18, 30, 9);
    g.bench_function("halving_256_vs_256k", |bch| {
        bch.iter(|| halving_merge(&a, &b))
    });
    g.bench_function("sequential_256_vs_256k", |bch| {
        bch.iter(|| seq_merge(&a, &b))
    });
    g.finish();
}

criterion_group!(benches, bench_merges, bench_skewed_merge);
criterion_main!(benches);
