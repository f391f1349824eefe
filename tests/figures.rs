//! Reproduction of every worked example (Figures 1–16) in the paper,
//! asserting the exact vectors the paper prints. The per-experiment
//! index in DESIGN.md maps each test to its figure.

use blelloch_scan::algorithms::graph::{star_merge, SegGraph};
use blelloch_scan::algorithms::merge::{halving_merge, halving_merge_ctx};
use blelloch_scan::algorithms::sort::radix::split_radix_sort;
use blelloch_scan::circuit::{tree_scan_trace, OpKind, TreeScanCircuit};
use blelloch_scan::core::op::{Max, Min, Sum};
use blelloch_scan::core::ops;
use blelloch_scan::core::simulate::{self, SoftwareScans};
use blelloch_scan::core::{
    allocate, distribute, inclusive_scan_backward, scan, scan_backward, seg_scan, Segments,
};
use blelloch_scan::pram::{BlockedVec, Ctx, Model};

const T: bool = true;
const F: bool = false;

/// §2.1: the elementwise-sum and +-scan examples.
#[test]
fn section2_1_examples() {
    let a = [5u32, 1, 3, 4, 3, 9, 2, 6];
    let b = [2u32, 5, 3, 8, 1, 3, 6, 2];
    let c: Vec<u32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
    assert_eq!(c, vec![7, 6, 6, 12, 4, 12, 8, 8]);
    assert_eq!(
        scan::<Sum, _>(&[2u32, 1, 2, 3, 5, 8, 13, 21]),
        vec![0, 2, 3, 5, 8, 13, 21, 34]
    );
    // permute example
    let names = [0u32, 1, 2, 3, 4, 5, 6, 7];
    let idx = [2, 5, 4, 3, 1, 6, 0, 7];
    assert_eq!(ops::permute(&names, &idx), vec![6, 4, 0, 3, 2, 1, 5, 7]);
}

/// Figure 1: enumerate, copy, +-distribute.
#[test]
fn figure01_simple_operations() {
    let flag = [T, F, F, T, F, T, T, F];
    assert_eq!(ops::enumerate(&flag), vec![0, 1, 1, 1, 2, 2, 3, 4]);
    let a = [5u32, 1, 3, 4, 3, 9, 2, 6];
    assert_eq!(ops::copy_first(&a), vec![5; 8]);
    let b = [1u32, 1, 2, 1, 1, 2, 1, 1];
    assert_eq!(ops::distribute_op::<Sum, _>(&b), vec![10; 8]);
}

/// Figure 2: the split radix sort trace on [5 7 3 1 4 2 7 2].
#[test]
fn figure02_split_radix_sort() {
    let a = [5u64, 7, 3, 1, 4, 2, 7, 2];
    let bit = |v: &[u64], i: u32| -> Vec<bool> { v.iter().map(|&k| (k >> i) & 1 == 1).collect() };
    assert_eq!(bit(&a, 0), vec![T, T, T, T, F, F, T, F]);
    let s1 = ops::split(&a, &bit(&a, 0));
    assert_eq!(s1, vec![4, 2, 2, 5, 7, 3, 1, 7]);
    let s2 = ops::split(&s1, &bit(&s1, 1));
    assert_eq!(s2, vec![4, 5, 1, 2, 2, 7, 3, 7]);
    let s3 = ops::split(&s2, &bit(&s2, 2));
    assert_eq!(s3, vec![1, 2, 2, 3, 4, 5, 7, 7]);
    assert_eq!(split_radix_sort(&a, 3), s3);
}

/// Figure 3: the split operation's index arithmetic.
#[test]
fn figure03_split() {
    let a = [5u32, 7, 3, 1, 4, 2, 7, 2];
    let flags = [T, T, T, T, F, F, T, F];
    let i_down = ops::enumerate(&flags.map(|f| !f));
    assert_eq!(i_down, vec![0, 0, 0, 0, 0, 1, 2, 2]);
    // I-up = n − back-enumerate(Flags) − 1
    let back = ops::back_enumerate(&flags);
    let i_up: Vec<usize> = back.iter().map(|&b| 8 - b - 1).collect();
    assert_eq!(i_up, vec![3, 4, 5, 6, 6, 6, 7, 7]);
    assert_eq!(ops::split_index(&flags), vec![3, 4, 5, 6, 0, 1, 7, 2]);
    assert_eq!(ops::split(&a, &flags), vec![4, 2, 2, 5, 7, 3, 1, 7]);
}

/// Figure 4: segmented +-scan and max-scan.
#[test]
fn figure04_segmented_scans() {
    let a = [5u32, 1, 3, 4, 3, 9, 2, 6];
    let sb = Segments::from_flags(vec![T, F, T, F, F, F, T, F]);
    assert_eq!(seg_scan::<Sum, _>(&a, &sb), vec![0, 5, 0, 3, 7, 10, 0, 2]);
    assert_eq!(seg_scan::<Max, _>(&a, &sb), vec![0, 5, 0, 3, 4, 4, 0, 2]);
}

/// Figure 5: one quicksort round (keys ×10 to stay integral).
#[test]
fn figure05_quicksort_round() {
    use blelloch_scan::core::ops::Bucket;
    let keys = [64u64, 92, 34, 16, 87, 41, 92, 34];
    let segs = Segments::from_flags(vec![T, F, F, F, F, F, F, F]);
    let mut ctx = Ctx::new(Model::Scan);
    let pivots = ctx.seg_copy(&keys, &segs);
    assert_eq!(pivots, vec![64; 8]);
    let buckets: Vec<Bucket> = keys
        .iter()
        .zip(&pivots)
        .map(|(&k, &p)| {
            if k < p {
                Bucket::Lo
            } else if k == p {
                Bucket::Mid
            } else {
                Bucket::Hi
            }
        })
        .collect();
    let r = ctx.seg_split3(&keys, &buckets, &segs);
    // Key ← split(Key, F) = [3.4 1.6 4.1 3.4 6.4 9.2 8.7 9.2]
    assert_eq!(r.values, vec![34, 16, 41, 34, 64, 92, 87, 92]);
    // Segment-Flags = [T F F F T T F F]
    assert_eq!(r.segments.flags(), &[T, F, F, F, T, T, F, F]);
}

/// Figure 6: the segmented graph representation of the example graph.
#[test]
fn figure06_graph_representation() {
    let g = SegGraph::figure6();
    assert_eq!(g.vertex_of_slot, vec![0, 1, 1, 1, 2, 2, 2, 3, 3, 4, 4, 4]);
    assert_eq!(g.segments().flags(), &[T, T, F, F, T, F, F, T, F, T, F, F]);
    assert_eq!(g.cross_pointers, vec![1, 0, 4, 9, 2, 7, 10, 5, 11, 3, 6, 8]);
    assert_eq!(g.weights, vec![1, 1, 2, 3, 2, 4, 5, 4, 6, 3, 5, 6]);
}

/// Figure 7: star-merging the example graph's single star.
#[test]
fn figure07_star_merge() {
    let g = SegGraph::figure6();
    let star = vec![F, F, T, F, T, T, F, T, F, F, F, F];
    let parent = vec![T, F, T, F, T];
    let mut ctx = Ctx::new(Model::Scan);
    let r = star_merge(&mut ctx, &g, &star, &parent);
    assert_eq!(r.graph.n_vertices, 3);
    assert_eq!(r.graph.n_slots(), 8);
    assert_eq!(r.graph.segments().flags(), &[T, T, F, F, F, T, F, F]);
    // Per-segment weight multisets match the paper's
    // [w1 | w1 w3 w5 w6 | w3 w5 w6].
    let per_segment: Vec<Vec<u64>> = r
        .graph
        .segments()
        .ranges()
        .iter()
        .map(|&(s, e)| {
            let mut w = r.graph.weights[s..e].to_vec();
            w.sort_unstable();
            w
        })
        .collect();
    assert_eq!(per_segment, vec![vec![1], vec![1, 3, 5, 6], vec![3, 5, 6]]);
    // The new cross-pointers must still be a clean involution.
    r.graph.validate();
}

/// Figure 8: processor allocation.
#[test]
fn figure08_allocation() {
    let alloc = allocate(&[4, 1, 3]);
    assert_eq!(alloc.starts, vec![0, 4, 5]); // Hpointers ← +-scan(A)
    assert_eq!(alloc.segments.flags(), &[T, F, F, F, T, T, F, F]);
    assert_eq!(
        distribute(&[1u32, 2, 3], &[4, 1, 3]),
        vec![1, 1, 1, 1, 2, 3, 3, 3]
    );
}

/// Figure 9: the three example lines. The paper allocates
/// max(|Δx|,|Δy|) processors (12, 11, 15) and reports 12, 11, 16
/// pixels; drawing both endpoints (the cited DDA's output) yields
/// 13, 12 and 16 grid points.
#[test]
fn figure09_line_drawing() {
    use blelloch_scan::algorithms::geometry::draw_lines;
    let lines = [((11, 2), (23, 14)), ((2, 13), (13, 8)), ((16, 4), (31, 4))];
    let pixels = draw_lines(&lines);
    let counts: Vec<usize> = (0..3)
        .map(|l| pixels.iter().filter(|p| p.line == l).count())
        .collect();
    assert_eq!(counts, vec![13, 12, 16]);
    // Endpoints are hit exactly.
    for (l, &((x0, y0), (x1, y1))) in lines.iter().enumerate() {
        let of_line: Vec<(i64, i64)> = pixels
            .iter()
            .filter(|p| p.line == l)
            .map(|p| (p.x, p.y))
            .collect();
        assert_eq!(of_line.first(), Some(&(x0, y0)));
        assert_eq!(of_line.last(), Some(&(x1, y1)));
    }
    // The third line is horizontal: all 16 pixels at y = 4.
    assert!(pixels
        .iter()
        .filter(|p| p.line == 2)
        .all(|p| p.y == 4 && (16..=31).contains(&p.x)));
}

/// Figure 10: the long-vector scan on 4 processors.
#[test]
fn figure10_long_vector_scan() {
    let v = BlockedVec::new(vec![4u64, 7, 1, 0, 5, 2, 6, 4, 8, 1, 9, 5], 4);
    assert_eq!(v.block_sums::<Sum>(), vec![12, 7, 18, 15]);
    assert_eq!(scan::<Sum, _>(&v.block_sums::<Sum>()), vec![0, 12, 19, 37]);
    assert_eq!(
        v.scan::<Sum>().data(),
        &[0, 4, 11, 12, 12, 17, 19, 25, 29, 37, 38, 47]
    );
}

/// Figure 11: load balancing.
#[test]
fn figure11_load_balancing() {
    let keep = [T, F, F, F, T, T, F, T, T, T, T, T];
    let a: Vec<u32> = (0..12).collect();
    let v = BlockedVec::new(a, 4);
    let balanced = v.load_balance(&keep);
    assert_eq!(balanced.data(), &[0, 4, 5, 7, 8, 9, 10, 11]);
    assert_eq!(balanced.max_block_len(), 2);
}

/// Figure 12: the halving merge trace.
#[test]
fn figure12_halving_merge() {
    let a = [1u64, 7, 10, 13, 15, 20];
    let b = [3u64, 4, 9, 22, 23, 26];
    // The recursive halves and their merge:
    let a0: Vec<u64> = a.iter().step_by(2).copied().collect();
    let b0: Vec<u64> = b.iter().step_by(2).copied().collect();
    assert_eq!(a0, vec![1, 10, 15]);
    assert_eq!(b0, vec![3, 9, 23]);
    assert_eq!(halving_merge(&a0, &b0), vec![1, 3, 9, 10, 15, 23]);
    // The inner flags the paper prints: [F T T F F T].
    let mut ctx = Ctx::new(Model::Scan);
    let flags = blelloch_scan::algorithms::merge::halving_merge_flags(&mut ctx, &a0, &b0);
    assert_eq!(flags, vec![F, T, T, F, F, T]);
    // And the full result.
    let mut ctx = Ctx::new(Model::Scan);
    assert_eq!(
        halving_merge_ctx(&mut ctx, &a, &b),
        vec![1, 3, 4, 7, 9, 10, 13, 15, 20, 22, 23, 26]
    );
}

/// §2.5.1's x-near-merge: the rotation repair on the printed
/// near-merge vector.
#[test]
fn section2_5_near_merge_repair() {
    let near = [1u64, 7, 3, 4, 9, 22, 10, 13, 15, 20, 23, 26];
    // head-copy ← max(max-scan(near-merge), near-merge)
    let ms = scan::<Max, _>(&near);
    let head_copy: Vec<u64> = ms.iter().zip(&near).map(|(&h, &x)| h.max(x)).collect();
    // result ← min(min-backscan(near-merge), head-copy)
    let mb = scan_backward::<Min, _>(&near);
    let result: Vec<u64> = mb.iter().zip(&head_copy).map(|(&m, &h)| m.min(h)).collect();
    assert_eq!(result, vec![1, 3, 4, 7, 9, 10, 13, 15, 20, 22, 23, 26]);
}

/// Figure 13: the word-level tree scan and its bit-pipelined circuit
/// agree, with the paper's step and cycle counts.
#[test]
fn figure13_tree_scan() {
    let values = [5u64, 1, 3, 4, 3, 9, 2, 6];
    let trace = tree_scan_trace(OpKind::Plus, &values, 8);
    assert_eq!(trace.steps, 6, "2 lg n word-level steps");
    assert_eq!(trace.result, scan::<Sum, _>(&values));
    let mut circuit = TreeScanCircuit::new(8);
    let run = circuit.scan(OpKind::Plus, &values, 8);
    assert_eq!(run.values, trace.result);
    assert_eq!(run.cycles, 8 + 2 * 3 - 1, "m + 2 lg n − 1 bit cycles");
}

/// Figures 14/15: the unit's state machines execute serial addition and
/// serial maximum exactly (exhaustive for 8-bit operands).
#[test]
fn figure14_15_sum_state_machine() {
    use blelloch_scan::circuit::SumStateMachine;
    for a in 0..=255u64 {
        for b in 0..=255u64 {
            let mut plus = SumStateMachine::new();
            let mut sum = 0u64;
            for k in 0..8 {
                let s = plus.step(OpKind::Plus, (a >> k) & 1 == 1, (b >> k) & 1 == 1);
                sum |= (s as u64) << k;
            }
            assert_eq!(sum, (a + b) & 0xFF);
            let mut max = SumStateMachine::new();
            let mut m = 0u64;
            for k in (0..8).rev() {
                let s = max.step(OpKind::Max, (a >> k) & 1 == 1, (b >> k) & 1 == 1);
                m |= (s as u64) << k;
            }
            assert_eq!(m, a.max(b));
        }
    }
}

/// Figure 16: the segmented max-scan built from the two unsegmented
/// primitives.
#[test]
fn figure16_segmented_from_primitives() {
    let a = [5u64, 1, 3, 4, 3, 9, 2, 6];
    let segs = Segments::from_flags(vec![T, F, T, F, F, F, T, F]);
    let got = simulate::seg_max_scan_via_primitives(&SoftwareScans, &a, &segs, 8).unwrap();
    assert_eq!(got, vec![0, 5, 0, 3, 4, 4, 0, 2]);
}

/// §3.4: backward scans "implemented by simply reading the vector into
/// the processors in reverse order".
#[test]
fn section3_4_backward_scans() {
    let a = [2u64, 8, 3, 5];
    assert_eq!(scan_backward::<Sum, _>(&a), vec![16, 8, 5, 0]);
    assert_eq!(inclusive_scan_backward::<Max, _>(&a), vec![8, 8, 5, 5]);
}
