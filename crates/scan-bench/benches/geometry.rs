//! Wall-clock geometry: line drawing by allocation, line of sight,
//! quickhull vs monotone chain, k-d tree build + queries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use scan_algorithms::geometry::draw_lines;
use scan_algorithms::geometry::hull::{convex_hull, convex_hull_reference};
use scan_algorithms::geometry::kdtree::KdTree;
use scan_algorithms::geometry::line_of_sight::line_of_sight;
use scan_bench::{random_points, Rng};

fn bench_line_drawing(c: &mut Criterion) {
    let mut g = c.benchmark_group("geometry/line_drawing");
    g.sample_size(10);
    for n_lines in [256usize, 4096] {
        let mut rng = Rng::new(31);
        let lines: Vec<((i64, i64), (i64, i64))> = (0..n_lines)
            .map(|_| {
                (
                    (rng.below(1024) as i64, rng.below(1024) as i64),
                    (rng.below(1024) as i64, rng.below(1024) as i64),
                )
            })
            .collect();
        g.bench_with_input(BenchmarkId::from_parameter(n_lines), &lines, |b, l| {
            b.iter(|| draw_lines(l))
        });
    }
    g.finish();
}

fn bench_line_of_sight(c: &mut Criterion) {
    let mut g = c.benchmark_group("geometry/line_of_sight");
    g.sample_size(10);
    let n = 1 << 20;
    let mut rng = Rng::new(32);
    let alts: Vec<f64> = (0..n).map(|_| rng.below(1000) as f64 / 7.0).collect();
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("max_scan_1M_samples", |b| {
        b.iter(|| line_of_sight(10.0, &alts))
    });
    g.finish();
}

fn bench_hull(c: &mut Criterion) {
    let mut g = c.benchmark_group("geometry/convex_hull");
    g.sample_size(10);
    for n in [1024usize, 16384] {
        let pts = random_points(n, 1 << 19, 33);
        g.bench_with_input(BenchmarkId::new("quickhull", n), &pts, |b, p| {
            b.iter(|| convex_hull(p))
        });
        g.bench_with_input(BenchmarkId::new("monotone_chain", n), &pts, |b, p| {
            b.iter(|| convex_hull_reference(p))
        });
    }
    g.finish();
}

fn bench_kdtree(c: &mut Criterion) {
    let mut g = c.benchmark_group("geometry/kdtree");
    g.sample_size(10);
    let pts = random_points(1 << 14, 1 << 19, 34);
    g.bench_function("build_16k", |b| b.iter(|| KdTree::build(&pts)));
    let tree = KdTree::build(&pts);
    let queries = random_points(1000, 1 << 19, 35);
    g.bench_function("nearest_1k_queries", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|&q| tree.nearest(q).expect("nonempty").1)
                .sum::<i64>()
        })
    });
    g.bench_function("range_1k_queries", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|&q| {
                    tree.range_query((q.0 - 1000, q.0 + 1000), (q.1 - 1000, q.1 + 1000))
                        .len()
                })
                .sum::<usize>()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_line_drawing,
    bench_line_of_sight,
    bench_hull,
    bench_kdtree
);
criterion_main!(benches);
