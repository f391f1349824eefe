//! Wall-clock graph algorithms: the random-mate MST and connected
//! components against Kruskal / union-find.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scan_algorithms::graph::reference::{components_reference, kruskal};
use scan_algorithms::graph::{connected_components, minimum_spanning_tree, SegGraph};
use scan_bench::connected_graph;

fn bench_mst(c: &mut Criterion) {
    let mut g = c.benchmark_group("graph/mst");
    g.sample_size(10);
    for n in [512usize, 2048] {
        let edges = connected_graph(n, 4 * n, 10);
        g.bench_with_input(BenchmarkId::new("random_mate", n), &edges, |b, e| {
            b.iter(|| minimum_spanning_tree(n, e, 11))
        });
        g.bench_with_input(BenchmarkId::new("kruskal", n), &edges, |b, e| {
            b.iter(|| kruskal(n, e))
        });
    }
    g.finish();
}

fn bench_components(c: &mut Criterion) {
    let mut g = c.benchmark_group("graph/components");
    g.sample_size(10);
    let n = 2048;
    let edges = connected_graph(n, 2 * n, 12);
    g.bench_function("random_mate", |b| {
        b.iter(|| connected_components(n, &edges, 13))
    });
    g.bench_function("union_find", |b| b.iter(|| components_reference(n, &edges)));
    g.finish();
}

fn bench_build_and_neighbor_reduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("graph/representation");
    g.sample_size(10);
    let n = 4096;
    let edges = connected_graph(n, 4 * n, 14);
    g.bench_function("build_segmented", |b| {
        b.iter(|| SegGraph::from_edges(n, &edges))
    });
    let graph = SegGraph::from_edges(n, &edges);
    let vals: Vec<u64> = (0..n as u64).collect();
    g.bench_function("neighbor_sum", |b| {
        b.iter(|| {
            let mut ctx = scan_pram::Ctx::new(scan_pram::Model::Scan);
            graph.neighbor_reduce::<scan_core::op::Sum, _>(&mut ctx, &vals)
        })
    });
    g.finish();
}

fn bench_biconnected(c: &mut Criterion) {
    use scan_algorithms::graph::biconnected::biconnected_components;
    use scan_algorithms::graph::reference::biconnected_reference;
    let mut g = c.benchmark_group("graph/biconnected");
    g.sample_size(10);
    let n = 512;
    let edges = connected_graph(n, 2 * n, 17);
    g.bench_function("tarjan_vishkin", |b| {
        b.iter(|| biconnected_components(n, &edges, 19))
    });
    g.bench_function("sequential_tarjan", |b| {
        b.iter(|| biconnected_reference(n, &edges))
    });
    g.finish();
}

fn bench_spmv(c: &mut Criterion) {
    use scan_algorithms::matrix_sparse::SparseMatrix;
    let mut g = c.benchmark_group("graph/spmv");
    g.sample_size(10);
    let n = 10_000;
    let triplets: Vec<(usize, usize, f64)> = (0..8 * n)
        .map(|k| ((k * 31) % n, (k * 17) % n, 1.5))
        .collect();
    let a = SparseMatrix::from_triplets(n, n, &triplets);
    let x = vec![1.0; n];
    g.bench_function("segmented_sums", |b| b.iter(|| a.spmv(&x)));
    g.bench_function("row_loop_reference", |b| b.iter(|| a.spmv_reference(&x)));
    g.finish();
}

criterion_group!(
    benches,
    bench_mst,
    bench_components,
    bench_build_and_neighbor_reduce,
    bench_biconnected,
    bench_spmv
);
criterion_main!(benches);
