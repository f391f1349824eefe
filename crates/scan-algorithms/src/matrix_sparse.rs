//! Sparse matrix–vector multiply with segmented sums — the canonical
//! segmented-scan application (the paper's §2.3 machinery on the
//! workload its companion work \[7] popularized).
//!
//! A CSR-like layout maps directly onto the segmented vector
//! representation: one segment per row, one element per nonzero. The
//! product is: gather `x` through the column indices, multiply
//! elementwise, and one segmented `+`-reduce — a constant number of
//! program steps regardless of the sparsity structure.

use scan_core::op::Sum;
use scan_core::segmented::Segments;
use scan_pram::{Ctx, Model};

/// A sparse matrix in row-segmented form.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Nonzeros per row (rows may be empty).
    pub row_lengths: Vec<usize>,
    /// Column index of each nonzero, rows concatenated.
    pub col_indices: Vec<usize>,
    /// Value of each nonzero.
    pub values: Vec<f64>,
}

impl SparseMatrix {
    /// Build from a triplet list `(row, col, value)`. Triplets are
    /// sorted with the split radix sort, per the paper's recipe for
    /// building segmented representations.
    ///
    /// # Panics
    /// If an index is out of range.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> SparseMatrix {
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet out of range");
        }
        let keys: Vec<u64> = triplets.iter().map(|&(r, _, _)| r as u64).collect();
        let ids: Vec<u64> = (0..triplets.len() as u64).collect();
        let bits = 64 - (rows.max(2) as u64 - 1).leading_zeros();
        let (sorted_rows, order) = crate::sort::radix::split_radix_sort_pairs(&keys, &ids, bits);
        let mut row_lengths = vec![0usize; rows];
        for &r in &sorted_rows {
            row_lengths[r as usize] += 1;
        }
        SparseMatrix {
            rows,
            cols,
            row_lengths,
            col_indices: order.iter().map(|&i| triplets[i as usize].1).collect(),
            values: order.iter().map(|&i| triplets[i as usize].2).collect(),
        }
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The row segmentation of the nonzero vector.
    pub fn segments(&self) -> Segments {
        Segments::from_lengths(&self.row_lengths)
    }

    /// `y = A x` on a step-counting machine: one gather, one multiply,
    /// one segmented reduce — `O(1)` program steps, `O(nnz/p)` with
    /// blocked processors.
    pub fn spmv_ctx(&self, ctx: &mut Ctx, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        let gathered = ctx.gather(x, &self.col_indices);
        let products = ctx.zip(&self.values, &gathered, |a, b| a * b);
        let segs = self.segments();
        ctx.charge_seg_scan_op(self.nnz());
        let sums = scan_core::segops::seg_reduce::<Sum, _>(&products, &segs);
        // Scatter per-row sums back to row indices (empty rows → 0).
        let mut y = vec![0.0; self.rows];
        let mut k = 0;
        for (r, &len) in self.row_lengths.iter().enumerate() {
            if len > 0 {
                y[r] = sums[k];
                k += 1;
            }
        }
        ctx.charge_permute_op(self.rows);
        y
    }

    /// `y = A x` with the default scan-model machine.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut ctx = Ctx::new(Model::Scan);
        self.spmv_ctx(&mut ctx, x)
    }

    /// Dense reference multiply, for verification.
    pub fn spmv_reference(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        let mut k = 0;
        for (r, &len) in self.row_lengths.iter().enumerate() {
            for _ in 0..len {
                y[r] += self.values[k] * x[self.col_indices[k]];
                k += 1;
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> SparseMatrix {
        // [ 2 0 1 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        SparseMatrix::from_triplets(3, 3, &[(0, 0, 2.0), (2, 1, 4.0), (0, 2, 1.0), (2, 0, 3.0)])
    }

    #[test]
    fn small_spmv() {
        let a = example();
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.spmv(&[1.0, 10.0, 100.0]), vec![102.0, 0.0, 43.0]);
    }

    #[test]
    fn triplets_sorted_into_rows() {
        let a = example();
        assert_eq!(a.row_lengths, vec![2, 0, 2]);
        // Row 0's nonzeros appear before row 2's.
        assert_eq!(a.col_indices.len(), 4);
    }

    #[test]
    fn matches_reference_on_random_matrices() {
        let mut s = 31u64;
        let mut rng = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(17);
            s >> 33
        };
        for _ in 0..10 {
            let rows = 1 + (rng() % 40) as usize;
            let cols = 1 + (rng() % 40) as usize;
            let nnz = (rng() % 200) as usize;
            let triplets: Vec<(usize, usize, f64)> = (0..nnz)
                .map(|_| {
                    (
                        (rng() as usize) % rows,
                        (rng() as usize) % cols,
                        (rng() % 100) as f64 / 10.0 - 5.0,
                    )
                })
                .collect();
            let a = SparseMatrix::from_triplets(rows, cols, &triplets);
            let x: Vec<f64> = (0..cols).map(|_| (rng() % 100) as f64 / 7.0).collect();
            let got = a.spmv(&x);
            let expect = a.spmv_reference(&x);
            for (g, e) in got.iter().zip(&expect) {
                assert!((g - e).abs() < 1e-9, "{got:?} vs {expect:?}");
            }
        }
    }

    #[test]
    fn empty_matrix_and_empty_rows() {
        let a = SparseMatrix::from_triplets(3, 3, &[]);
        assert_eq!(a.spmv(&[1.0, 2.0, 3.0]), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn constant_step_count() {
        // O(1) vector ops regardless of size or structure.
        let ops_for = |rows: usize| {
            let triplets: Vec<(usize, usize, f64)> = (0..rows).map(|r| (r, r % 7, 1.0)).collect();
            let a = SparseMatrix::from_triplets(rows, 7, &triplets);
            let mut ctx = Ctx::new(Model::Scan);
            a.spmv_ctx(&mut ctx, &[1.0; 7]);
            ctx.stats().ops()
        };
        assert_eq!(ops_for(32), ops_for(4096));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_x_length_rejected() {
        example().spmv(&[1.0]);
    }
}
