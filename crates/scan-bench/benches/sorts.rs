//! Wall-clock Table 4: split radix sort vs quicksort vs bitonic vs the
//! standard library, across key counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use scan_algorithms::sort::{bitonic_sort, quicksort, split_radix_sort, PivotRule};
use scan_bench::random_keys;

fn bench_sorts(c: &mut Criterion) {
    let mut g = c.benchmark_group("sort/16bit_keys");
    g.sample_size(10);
    for lg in [12u32, 16] {
        let n = 1usize << lg;
        let keys = random_keys(n, 16, 4);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("split_radix", n), &keys, |b, k| {
            b.iter(|| split_radix_sort(k, 16))
        });
        g.bench_with_input(BenchmarkId::new("quicksort", n), &keys, |b, k| {
            b.iter(|| quicksort(k, PivotRule::Random(7)))
        });
        g.bench_with_input(BenchmarkId::new("bitonic", n), &keys, |b, k| {
            b.iter(|| bitonic_sort(k))
        });
        g.bench_with_input(BenchmarkId::new("std_unstable", n), &keys, |b, k| {
            b.iter(|| {
                let mut v = k.clone();
                v.sort_unstable();
                v
            })
        });
    }
    g.finish();
}

fn bench_radix_width(c: &mut Criterion) {
    // Ablation: the radix sort's cost is linear in the key width.
    let mut g = c.benchmark_group("sort/radix_key_width");
    g.sample_size(10);
    let n = 1usize << 16;
    for bits in [8u32, 16, 32] {
        let keys = random_keys(n, bits, 5);
        g.bench_with_input(BenchmarkId::from_parameter(bits), &keys, |b, k| {
            b.iter(|| split_radix_sort(k, bits))
        });
    }
    g.finish();
}

fn bench_radix_digit_width(c: &mut Criterion) {
    // Ablation: digit width trades passes (d/w) for scans per pass
    // (2^w) — the CM's classic tuning knob.
    use scan_algorithms::sort::radix::split_radix_sort_digits;
    let mut g = c.benchmark_group("sort/radix_digit_width");
    g.sample_size(10);
    let keys = random_keys(1 << 16, 16, 6);
    for w in [1u32, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(w), &keys, |b, k| {
            b.iter(|| split_radix_sort_digits(k, 16, w))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_sorts,
    bench_radix_width,
    bench_radix_digit_width
);
criterion_main!(benches);
