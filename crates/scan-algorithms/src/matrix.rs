//! Matrix operations (Table 1's matrix rows): vector×matrix in `O(1)`
//! steps with `n²` processors, matrix×matrix in `O(n)`, and a linear
//! system solver with partial pivoting in `O(n)` — the pivot search is
//! a `max`-reduce instead of the EREW's `O(lg n)` tree, which is where
//! the table's `O(n lg n) → O(n)` improvement comes from.

use scan_core::op::{Max, Sum};
use scan_core::segmented::Segments;
use scan_pram::{Ctx, Model};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Row-major storage, `rows * cols` long.
    pub data: Vec<f64>,
}

impl Matrix {
    /// Build from row-major data.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// The zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }
}

/// `y = x A` with `rows × cols` processors: distribute `x` over the
/// rows, multiply elementwise, and sum each column with one segmented
/// `+`-reduce over the column-major permutation — `O(1)` program steps
/// (Table 1's Vector × Matrix row).
pub fn vec_matrix_ctx(ctx: &mut Ctx, x: &[f64], a: &Matrix) -> Vec<f64> {
    assert_eq!(x.len(), a.rows, "dimension mismatch");
    if a.rows == 0 || a.cols == 0 {
        return vec![0.0; a.cols];
    }
    let n = a.rows * a.cols;
    // x_i broadcast across row i (one distribute).
    let x_rep = ctx.distribute(x, &vec![a.cols; a.rows]);
    let products = ctx.zip(&x_rep, &a.data, |xi, aij| xi * aij);
    // Transpose to column-major (one permute), then one segmented
    // reduce per column.
    let idx: Vec<usize> = (0..n)
        .map(|i| {
            let (r, c) = (i / a.cols, i % a.cols);
            c * a.rows + r
        })
        .collect();
    ctx.charge_elementwise_op(n);
    let col_major = ctx.permute_unchecked(&products, &idx);
    let segs = Segments::from_lengths(&vec![a.rows; a.cols]);
    ctx.charge_seg_scan_op(n);
    scan_core::segops::seg_reduce::<Sum, _>(&col_major, &segs)
}

/// `y = x A` with the default scan-model machine.
pub fn vec_matrix(x: &[f64], a: &Matrix) -> Vec<f64> {
    let mut ctx = Ctx::new(Model::Scan);
    vec_matrix_ctx(&mut ctx, x, a)
}

/// `C = A B` with `n²` processors in `O(n)` steps: `n` rank-1 updates,
/// each an `O(1)` broadcast-multiply-accumulate (Table 1's
/// Matrix × Matrix row).
pub fn mat_mul_ctx(ctx: &mut Ctx, a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols, b.rows, "dimension mismatch");
    let (m, n, k) = (a.rows, b.cols, a.cols);
    let mut c = vec![0.0f64; m * n];
    for t in 0..k {
        // Column t of A down the rows, row t of B across the columns.
        let col_t: Vec<f64> = (0..m).map(|r| a.at(r, t)).collect();
        let a_rep = ctx.distribute(&col_t, &vec![n; m]);
        let row_t = &b.data[t * n..(t + 1) * n];
        let b_rep: Vec<f64> = (0..m * n).map(|i| row_t[i % n]).collect();
        ctx.charge_permute_op(m * n); // broadcast of the row
        let products = ctx.zip(&a_rep, &b_rep, |x, y| x * y);
        c = ctx.zip(&products, &c, |p, acc| acc + p);
    }
    Matrix::new(m, n, c)
}

/// `C = A B` with the default scan-model machine.
pub fn mat_mul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut ctx = Ctx::new(Model::Scan);
    mat_mul_ctx(&mut ctx, a, b)
}

/// Solve `A x = b` by Gaussian elimination with partial pivoting, in
/// `O(n)` program steps with `n²` processors: each of the `n`
/// iterations finds its pivot with one `max`-reduce and eliminates with
/// one rank-1 update (Table 1's Linear Systems row).
///
/// Returns `None` when the matrix is singular (pivot below `1e-12`).
pub fn solve_ctx(ctx: &mut Ctx, a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    assert_eq!(a.rows, a.cols, "square systems only");
    assert_eq!(b.len(), a.rows, "dimension mismatch");
    let n = a.rows;
    // Augmented system, row-major.
    let cols = n + 1;
    let mut m = vec![0.0f64; n * cols];
    for r in 0..n {
        m[r * cols..r * cols + n].copy_from_slice(&a.data[r * n..(r + 1) * n]);
        m[r * cols + n] = b[r];
    }
    for k in 0..n {
        // Pivot: the row with the largest |m[r][k]|, r ≥ k — one
        // max-reduce over a composite (|value| bits, row).
        let candidates: Vec<(f64, usize)> = (k..n).map(|r| (m[r * cols + k].abs(), r)).collect();
        ctx.charge_elementwise_op(n - k);
        ctx.charge_scan_op(n - k);
        let (pmax, prow) =
            candidates
                .iter()
                .copied()
                .fold((f64::NEG_INFINITY, usize::MAX), |acc, x| {
                    if x.0 > acc.0 {
                        x
                    } else {
                        acc
                    }
                });
        if pmax < 1e-12 {
            return None;
        }
        if prow != k {
            for c in 0..cols {
                m.swap(k * cols + c, prow * cols + c);
            }
        }
        ctx.charge_permute_op(cols);
        // Eliminate below (and above — Gauss-Jordan keeps the step
        // count O(1) per iteration without a back-substitution scan).
        let pivot = m[k * cols + k];
        let pivot_row: Vec<f64> = m[k * cols..(k + 1) * cols].to_vec();
        ctx.charge_permute_op(cols); // broadcast pivot row
        ctx.charge_elementwise_op(n * cols); // the rank-1 update
        for r in 0..n {
            if r == k {
                continue;
            }
            let f = m[r * cols + k] / pivot;
            for c in k..cols {
                m[r * cols + c] -= f * pivot_row[c];
            }
        }
    }
    Some((0..n).map(|r| m[r * cols + n] / m[r * cols + r]).collect())
}

/// Solve with the default scan-model machine.
pub fn solve(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    let mut ctx = Ctx::new(Model::Scan);
    solve_ctx(&mut ctx, a, b)
}

/// Largest pivot magnitude helper exposed for the bench harness: a
/// `max`-scan-based argmax over a column.
pub fn argmax_abs_ctx(ctx: &mut Ctx, v: &[f64]) -> usize {
    assert!(!v.is_empty());
    // Composite (|value| monotone bits, index) max-reduce.
    let enc: Vec<u128> = v
        .iter()
        .enumerate()
        .map(|(i, &x)| ((scan_core::simulate::f64_key(x.abs()) as u128) << 32) | i as u128)
        .collect();
    ctx.charge_elementwise_op(v.len());
    (ctx.reduce::<Max, _>(&enc) & 0xFFFF_FFFF) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn vec_matrix_small() {
        let a = Matrix::new(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        approx(&vec_matrix(&[1.0, 10.0], &a), &[41.0, 52.0, 63.0], 1e-12);
    }

    #[test]
    fn vec_matrix_identity() {
        let a = Matrix::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        approx(&vec_matrix(&x, &a), &x, 1e-12);
    }

    #[test]
    fn matmul_identity_and_known() {
        let a = Matrix::new(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::identity(2);
        assert_eq!(mat_mul(&a, &i), a);
        let b = Matrix::new(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = mat_mul(&a, &b);
        approx(&c.data, &[19.0, 22.0, 43.0, 50.0], 1e-12);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Matrix::new(2, 3, vec![1.0, 0.0, 2.0, 0.0, 1.0, 1.0]);
        let b = Matrix::new(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let c = mat_mul(&a, &b);
        approx(&c.data, &[11.0, 14.0, 8.0, 10.0], 1e-12);
    }

    #[test]
    fn solve_known_system() {
        // x + y = 3, x - y = 1 → (2, 1)
        let a = Matrix::new(2, 2, vec![1.0, 1.0, 1.0, -1.0]);
        approx(
            &solve(&a, &[3.0, 1.0]).expect("nonsingular"),
            &[2.0, 1.0],
            1e-9,
        );
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero in the leading position forces a row swap.
        let a = Matrix::new(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        approx(
            &solve(&a, &[5.0, 7.0]).expect("nonsingular"),
            &[7.0, 5.0],
            1e-9,
        );
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::new(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(solve(&a, &[1.0, 2.0]), None);
    }

    #[test]
    fn random_systems_residual() {
        let mut x = 6u64;
        let mut rng = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(17);
            ((x >> 33) % 2000) as f64 / 100.0 - 10.0
        };
        for n in [1usize, 2, 5, 12, 24] {
            let a = Matrix::new(n, n, (0..n * n).map(|_| rng()).collect());
            let b: Vec<f64> = (0..n).map(|_| rng()).collect();
            if let Some(sol) = solve(&a, &b) {
                // Residual ‖Ax − b‖∞ must be tiny.
                for (r, &br) in b.iter().enumerate() {
                    let ax: f64 = (0..n).map(|c| a.at(r, c) * sol[c]).sum();
                    assert!((ax - br).abs() < 1e-6, "n={n} r={r}");
                }
            }
        }
    }

    #[test]
    fn argmax_abs_finds_largest() {
        let mut ctx = Ctx::new(Model::Scan);
        assert_eq!(argmax_abs_ctx(&mut ctx, &[1.0, -9.0, 3.0]), 1);
        assert_eq!(argmax_abs_ctx(&mut ctx, &[0.0]), 0);
    }

    #[test]
    fn step_complexity_linear_in_n_for_solver() {
        // Steps(2n) / Steps(n) stays near 2 with p = n² processors.
        let steps_for = |n: usize| {
            let a = Matrix::identity(n);
            let b = vec![1.0; n];
            let mut ctx = Ctx::new(Model::Scan);
            solve_ctx(&mut ctx, &a, &b);
            ctx.steps()
        };
        let (s8, s16) = (steps_for(8), steps_for(16));
        let ratio = s16 as f64 / s8 as f64;
        assert!(ratio < 3.0, "ratio {ratio}");
    }
}
