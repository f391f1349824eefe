//! Wall-clock benchmarks of the scan kernels: sequential vs blocked
//! parallel, plain vs segmented, and the §3.4 simulated variants.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use scan_bench::random_keys;
use scan_core::op::{Max, Sum};
use scan_core::parallel::seq_exclusive_scan_by;
use scan_core::segmented::{seg_scan, Segments};
use scan_core::simulate::{self, SoftwareScans};
use scan_core::Scan;

fn bench_plain_scans(c: &mut Criterion) {
    let mut g = c.benchmark_group("scan/plus");
    g.sample_size(20);
    for lg in [16u32, 20, 24] {
        let n = 1usize << lg;
        let a = random_keys(n, 32, 1);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("sequential", n), &a, |b, a| {
            b.iter(|| seq_exclusive_scan_by(a, 0u64, |x, y| x.wrapping_add(y)))
        });
        g.bench_with_input(BenchmarkId::new("parallel", n), &a, |b, a| {
            b.iter(|| Scan::by(0u64, |x, y| x.wrapping_add(y)).run(a).0)
        });
    }
    g.finish();
}

fn bench_max_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("scan/max");
    g.sample_size(20);
    let n = 1usize << 22;
    let a = random_keys(n, 48, 2);
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("direct", |b| b.iter(|| scan_core::scan::<Max, _>(&a)));
    g.bench_function("min_via_inverted_max", |b| {
        b.iter(|| simulate::min_scan_u64(&SoftwareScans, &a))
    });
    g.finish();
}

fn bench_segmented(c: &mut Criterion) {
    let mut g = c.benchmark_group("scan/segmented");
    g.sample_size(20);
    for seg_len in [8usize, 1024, 1 << 20] {
        let n = 1usize << 20;
        let a = random_keys(n, 32, 3);
        let flags: Vec<bool> = (0..n).map(|i| i % seg_len == 0).collect();
        let segs = Segments::from_flags(flags);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(
            BenchmarkId::new("seg_plus_scan/seg_len", seg_len),
            &(a, segs),
            |b, (a, segs)| b.iter(|| seg_scan::<Sum, _>(a, segs)),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_plain_scans, bench_max_scan, bench_segmented);
criterion_main!(benches);
