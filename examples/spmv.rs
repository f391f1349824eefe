//! Sparse matrix–vector multiply with segmented sums — the canonical
//! application of segmented scans: one segment per row, one element per
//! nonzero, and the whole product is three vector operations no matter
//! how irregular the rows are.
//!
//! Run with: `cargo run --release --example spmv`

use blelloch_scan::algorithms::matrix_sparse::SparseMatrix;
use blelloch_scan::pram::{Ctx, Model};

fn main() {
    // A small banded system with a few dense rows thrown in, built from
    // triplets (the construction radix-sorts them into row segments).
    let n = 12;
    let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
    for i in 0..n {
        triplets.push((i, i, 4.0));
        if i + 1 < n {
            triplets.push((i, i + 1, -1.0));
            triplets.push((i + 1, i, -1.0));
        }
    }
    // Row 5 is dense — segmented sums don't care.
    for j in 0..n {
        if j != 5 {
            triplets.push((5, j, 0.25));
        }
    }
    let a = SparseMatrix::from_triplets(n, n, &triplets);
    println!(
        "matrix: {} x {}, {} nonzeros, row lengths {:?}",
        a.rows,
        a.cols,
        a.nnz(),
        a.row_lengths
    );
    let x: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 / 10.0).collect();
    let mut ctx = Ctx::new(Model::Scan);
    let y = a.spmv_ctx(&mut ctx, &x);
    println!("y = A x  = {y:?}");
    println!(
        "program steps: {} (constant in rows, cols and nnz)",
        ctx.stats()
    );
    // Verified against the dense reference.
    let expect = a.spmv_reference(&x);
    let err: f64 = y
        .iter()
        .zip(&expect)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    println!("max abs error vs dense reference: {err:.2e}");
    assert!(err < 1e-12);

    // The irregularity argument, measured: a power-law matrix (a few
    // giant rows) costs the same number of vector steps as a uniform
    // one.
    let power_law: Vec<(usize, usize, f64)> = (0..2000usize)
        .map(|k| {
            let row = if k % 17 == 0 { 0 } else { 1 + k % 99 };
            (row, k % 100, 1.0)
        })
        .collect();
    let b = SparseMatrix::from_triplets(100, 100, &power_law);
    let mut ctx2 = Ctx::new(Model::Scan);
    b.spmv_ctx(&mut ctx2, &vec![1.0; 100]);
    println!(
        "\npower-law matrix ({} nnz, max row {}): {} vector ops — same as above ({}).",
        b.nnz(),
        b.row_lengths.iter().max().expect("nonempty"),
        ctx2.stats().ops(),
        ctx.stats().ops(),
    );
    assert_eq!(ctx.stats().ops(), ctx2.stats().ops());
}
