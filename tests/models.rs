//! The Table 1 shape, asserted end-to-end: for each scan-heavy
//! algorithm family the EREW/Scan step ratio must grow with n, while
//! the scan-free control stays flat. This is the claim of the paper in
//! executable form.

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

fn connected_graph(n: usize, extra: usize, seed: u64) -> Vec<(usize, usize, u64)> {
    let mut r = rng(seed);
    let mut edges: Vec<(usize, usize, u64)> = (1..n).map(|v| (v - 1, v, 0)).collect();
    for e in edges.iter_mut() {
        e.2 = r() % 1000;
    }
    for _ in 0..extra {
        let u = (r() as usize) % n;
        let v = (r() as usize) % n;
        if u != v {
            edges.push((u, v, r() % 1000));
        }
    }
    edges
}

/// EREW/Scan step ratio of `run` at problem size `n`.
fn ratio(n: usize, run: impl Fn(&mut Ctx, usize)) -> f64 {
    let mut erew = Ctx::new(Model::Erew);
    run(&mut erew, n);
    let mut scan = Ctx::new(Model::Scan);
    run(&mut scan, n);
    erew.steps() as f64 / scan.steps().max(1) as f64
}

fn assert_ratio_grows(name: &str, run: impl Fn(&mut Ctx, usize) + Copy) {
    let small = ratio(1 << 9, run);
    let large = ratio(1 << 13, run);
    assert!(
        large > small && small > 1.2,
        "{name}: ratio must grow and exceed 1: {small:.2} → {large:.2}"
    );
}

#[test]
fn mst_gap_grows() {
    assert_ratio_grows("mst", |ctx, n| {
        let edges = connected_graph(n, 2 * n, 1);
        scan_algorithms::graph::mst::minimum_spanning_tree_ctx(ctx, n, &edges, 7);
    });
}

#[test]
fn components_gap_grows() {
    assert_ratio_grows("components", |ctx, n| {
        let edges = connected_graph(n, n, 2);
        scan_algorithms::graph::components::connected_components_ctx(ctx, n, &edges, 8);
    });
}

#[test]
fn biconnected_gap_grows() {
    assert_ratio_grows("biconnected", |ctx, n| {
        let edges = connected_graph(n, n, 3);
        scan_algorithms::graph::biconnected::biconnected_components_ctx(ctx, n, &edges, 9);
    });
}

#[test]
fn radix_sort_gap_grows() {
    assert_ratio_grows("radix", |ctx, n| {
        let mut r = rng(4);
        let keys: Vec<u64> = (0..n).map(|_| r() & 0xFFFF).collect();
        scan_algorithms::sort::radix::split_radix_sort_ctx(ctx, &keys, 16);
    });
}

#[test]
fn halving_merge_gap_grows() {
    assert_ratio_grows("halving merge", |ctx, n| {
        let mut r = rng(5);
        let mut a: Vec<u64> = (0..n / 2).map(|_| r() % 100_000).collect();
        let mut b: Vec<u64> = (0..n / 2).map(|_| r() % 100_000).collect();
        a.sort_unstable();
        b.sort_unstable();
        scan_algorithms::merge::halving::halving_merge_ctx(ctx, &a, &b);
    });
}

#[test]
fn line_drawing_is_constant_steps_on_scan_model() {
    let steps = |n_lines: usize| {
        let mut r = rng(6);
        let lines: Vec<((i64, i64), (i64, i64))> = (0..n_lines)
            .map(|_| {
                (
                    ((r() % 500) as i64, (r() % 500) as i64),
                    ((r() % 500) as i64, (r() % 500) as i64),
                )
            })
            .collect();
        let mut ctx = Ctx::new(Model::Scan);
        scan_algorithms::geometry::line_draw::draw_lines_ctx(&mut ctx, &lines);
        ctx.steps()
    };
    assert_eq!(steps(16), steps(2048), "O(1) scan-model steps");
}

#[test]
fn bitonic_control_is_model_independent() {
    // The scan-free control: identical steps under both models, at
    // every size.
    for lg in [8u32, 11] {
        let n = 1usize << lg;
        let mut r = rng(7);
        let keys: Vec<u64> = (0..n).map(|_| r()).collect();
        let mut erew = Ctx::new(Model::Erew);
        scan_algorithms::sort::bitonic::bitonic_sort_ctx(&mut erew, &keys);
        let mut scan = Ctx::new(Model::Scan);
        scan_algorithms::sort::bitonic::bitonic_sort_ctx(&mut scan, &keys);
        assert_eq!(erew.steps(), scan.steps());
    }
}

#[test]
fn crcw_combining_write_beats_scan_model_mst_constant() {
    // The extended-CRCW min-write of §2.3.3 exists and is unit-cost.
    let mut ctx = Ctx::new(Model::Crcw);
    let out =
        ctx.combining_write::<blelloch_scan::core::op::Min, u64>(4, &[0, 1, 0, 2], &[9, 3, 4, 7]);
    assert_eq!(out, vec![4, 3, 7, u64::MAX]);
    assert_eq!(ctx.steps(), 1);
}

#[test]
fn vm_programs_charge_like_direct_calls() {
    use blelloch_scan::pram::vm::{radix_pass_program, Vm};
    let mut r = rng(8);
    let keys: Vec<u64> = (0..512).map(|_| r() & 0xFF).collect();
    // Through the VM.
    let mut vm = Vm::new(Model::Scan);
    vm.load("keys", keys.clone());
    for bit in 0..8 {
        vm.run(&radix_pass_program(bit)).expect("program runs");
    }
    // Directly.
    let mut ctx = Ctx::new(Model::Scan);
    scan_algorithms::sort::radix::split_radix_sort_ctx(&mut ctx, &keys, 8);
    assert_eq!(
        vm.get("keys").map(<[u64]>::to_vec),
        Some(scan_algorithms::sort::radix::split_radix_sort(&keys, 8))
    );
    // Same instruction mix → step counts within a small factor.
    let (a, b) = (vm.steps() as f64, ctx.steps() as f64);
    assert!((a / b) < 1.5 && (b / a) < 1.5, "vm {a} vs direct {b}");
}
