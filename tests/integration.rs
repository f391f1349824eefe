//! Cross-crate integration tests: pipelines that exercise several
//! crates together, and end-to-end consistency between the software
//! kernels, the step-counting machine, and the simulated hardware.

use blelloch_scan::algorithms::graph::reference::kruskal;
use blelloch_scan::algorithms::graph::{connected_components, minimum_spanning_tree};
use blelloch_scan::algorithms::merge::{halving_merge, seq_merge};
use blelloch_scan::algorithms::sort::{bitonic_sort, quicksort, split_radix_sort, PivotRule};
use blelloch_scan::circuit::CircuitBackend;
use blelloch_scan::core::op::{Max, Min, Sum};
use blelloch_scan::core::simulate::{self, PrimitiveScans};
use blelloch_scan::core::{scan, seg_scan, Segments};
use blelloch_scan::pram::{Ctx, Model};

fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed | 1;
    move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 24
    }
}

/// All three sorts agree on random data.
#[test]
fn three_sorts_agree() {
    let mut r = rng(1);
    let keys: Vec<u64> = (0..2000).map(|_| r() % 100_000).collect();
    let mut expect = keys.clone();
    expect.sort_unstable();
    assert_eq!(split_radix_sort(&keys, 17), expect);
    assert_eq!(quicksort(&keys, PivotRule::Random(7)), expect);
    assert_eq!(bitonic_sort(&keys), expect);
}

/// Sorting two halves and halving-merging them equals one big sort.
#[test]
fn sort_then_merge_pipeline() {
    let mut r = rng(2);
    let a: Vec<u64> = (0..500).map(|_| r() % 10_000).collect();
    let b: Vec<u64> = (0..700).map(|_| r() % 10_000).collect();
    let sa = split_radix_sort(&a, 14);
    let sb = quicksort(&b, PivotRule::First);
    let merged = halving_merge(&sa, &sb);
    let mut expect: Vec<u64> = a.iter().chain(&b).copied().collect();
    expect.sort_unstable();
    assert_eq!(merged, expect);
    assert_eq!(merged, seq_merge(&sa, &sb));
}

/// The graph pipeline: build → MST → components, against references.
#[test]
fn graph_pipeline() {
    let mut r = rng(3);
    let n = 60;
    let edges: Vec<(usize, usize, u64)> = (0..300)
        .filter_map(|_| {
            let u = (r() as usize) % n;
            let v = (r() as usize) % n;
            (u != v).then(|| (u, v, r() % 1000))
        })
        .collect();
    let mst = minimum_spanning_tree(n, &edges, 5);
    let (expect_edges, expect_weight) = kruskal(n, &edges);
    assert_eq!(mst.edges, expect_edges);
    assert_eq!(mst.total_weight, expect_weight);
    // Components of the MST edges equal components of the full graph.
    let mst_edges: Vec<(usize, usize, u64)> = mst.edges.iter().map(|&e| edges[e]).collect();
    assert_eq!(
        connected_components(n, &mst_edges, 8),
        connected_components(n, &edges, 9)
    );
}

/// The §3.4 simulation layer produces identical results whether the two
/// primitives run in software or on the cycle-accurate circuit.
#[test]
fn simulation_layer_on_hardware_backend() {
    let mut r = rng(4);
    let a: Vec<u64> = (0..100).map(|_| r() % 50_000).collect();
    let sw = simulate::SoftwareScans;
    let hw = CircuitBackend::new(64);
    assert_eq!(sw.plus_scan(&a), hw.plus_scan(&a));
    assert_eq!(sw.max_scan(&a), hw.max_scan(&a));
    assert_eq!(
        simulate::min_scan_u64(&sw, &a),
        simulate::min_scan_u64(&hw, &a)
    );
    let f: Vec<f64> = a.iter().map(|&x| x as f64 - 25_000.0).collect();
    assert_eq!(
        simulate::max_scan_f64(&sw, &f),
        simulate::max_scan_f64(&hw, &f)
    );
    let flags: Vec<bool> = a.iter().map(|&x| x % 5 == 0).collect();
    let segs = Segments::from_flags(flags);
    assert_eq!(
        simulate::seg_plus_scan_via_primitives(&sw, &a, &segs, 32).unwrap(),
        simulate::seg_plus_scan_via_primitives(&hw, &a, &segs, 32).unwrap()
    );
    assert!(hw.cycles() > 0, "the hardware actually ran");
}

/// Results are identical across every machine model; only the step
/// counts differ, and in the documented direction.
#[test]
fn models_agree_on_results_and_differ_on_steps() {
    let mut r = rng(5);
    let keys: Vec<u64> = (0..1024).map(|_| r() % 4096).collect();
    let mut results = Vec::new();
    let mut steps = Vec::new();
    for model in [Model::Scan, Model::Erew, Model::Crew, Model::Crcw] {
        let mut ctx = Ctx::new(model);
        results.push(
            blelloch_scan::algorithms::sort::radix::split_radix_sort_ctx(&mut ctx, &keys, 12),
        );
        steps.push(ctx.steps());
    }
    assert!(results.windows(2).all(|w| w[0] == w[1]));
    // Scan model strictly cheaper than EREW; EREW == CREW here (no
    // concurrent reads used by the radix sort).
    assert!(steps[0] < steps[1]);
    assert_eq!(steps[1], steps[2]);
}

/// The Table 1 shape: the EREW/Scan step ratio of a scan-heavy
/// algorithm grows like lg n.
#[test]
fn erew_to_scan_ratio_grows_logarithmically() {
    let ratio = |lg_n: u32| {
        let n = 1usize << lg_n;
        let keys: Vec<u64> = (0..n as u64).map(|i| (i * 2654435761) % n as u64).collect();
        let mut scan_ctx = Ctx::new(Model::Scan);
        blelloch_scan::algorithms::sort::radix::split_radix_sort_ctx(&mut scan_ctx, &keys, lg_n);
        let mut erew_ctx = Ctx::new(Model::Erew);
        blelloch_scan::algorithms::sort::radix::split_radix_sort_ctx(&mut erew_ctx, &keys, lg_n);
        erew_ctx.steps() as f64 / scan_ctx.steps() as f64
    };
    let r10 = ratio(10);
    let r16 = ratio(16);
    assert!(r16 > r10, "ratio must grow with n: {r10:.2} vs {r16:.2}");
    assert!(r10 > 1.5, "EREW pays the tree cost: {r10:.2}");
}

/// Segmented scans distribute over concatenation: scanning the
/// concatenation of independent vectors with segment flags equals
/// scanning each separately — across all five operators.
#[test]
fn segmented_scan_concatenation_property() {
    let mut r = rng(6);
    let parts: Vec<Vec<u64>> = (0..5)
        .map(|_| (0..(r() % 50)).map(|_| r() % 1000).collect())
        .collect();
    let lens: Vec<usize> = parts.iter().map(Vec::len).collect();
    let flat: Vec<u64> = parts.iter().flatten().copied().collect();
    let segs = Segments::from_lengths(&lens);
    let seg_result = seg_scan::<Sum, _>(&flat, &segs);
    let mut expect = Vec::new();
    for p in &parts {
        expect.extend(scan::<Sum, _>(p));
    }
    assert_eq!(seg_result, expect);
    let seg_max = seg_scan::<Max, _>(&flat, &segs);
    let mut expect_max = Vec::new();
    for p in &parts {
        expect_max.extend(scan::<Max, _>(p));
    }
    assert_eq!(seg_max, expect_max);
    let seg_min = seg_scan::<Min, _>(&flat, &segs);
    let mut expect_min = Vec::new();
    for p in &parts {
        expect_min.extend(scan::<Min, _>(p));
    }
    assert_eq!(seg_min, expect_min);
}

/// Failure injection: the strict EREW machine rejects concurrent reads,
/// permute rejects collisions, the circuit rejects out-of-range fields.
#[test]
fn guard_rails() {
    use blelloch_scan::core::ops::try_permute;
    use blelloch_scan::core::Error;
    assert!(matches!(
        try_permute(&[1u32, 2, 3], &[0, 0, 1]),
        Err(Error::DuplicateIndex { .. })
    ));
    assert!(matches!(
        try_permute(&[1u32, 2], &[0, 9]),
        Err(Error::IndexOutOfBounds { .. })
    ));
    let res = std::panic::catch_unwind(|| {
        let mut ctx = Ctx::new(Model::Erew).strict();
        ctx.gather(&[1u32, 2], &[0, 0]);
    });
    assert!(res.is_err(), "strict EREW must reject the concurrent read");
    let res = std::panic::catch_unwind(|| {
        let mut c = blelloch_scan::circuit::TreeScanCircuit::new(2);
        c.scan(blelloch_scan::circuit::OpKind::Plus, &[999, 0], 8);
    });
    assert!(res.is_err(), "oversized field value must be rejected");
}
