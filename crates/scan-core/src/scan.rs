//! The scan primitives: exclusive/inclusive, forward/backward.
//!
//! The paper's scan (§1) is the *exclusive forward* scan:
//! `scan([a0..a(n-1)]) = [i, a0, a0⊕a1, ..., a0⊕...⊕a(n-2)]`.
//! Backward scans (§2.1) run from the last element to the first and are
//! "implemented by simply reading the vector into the processors in
//! reverse order" (§3.4).
//!
//! All functions here dispatch to the blocked parallel engine in
//! [`crate::parallel`] for large inputs.

use crate::deadline::ScanDeadline;
use crate::element::ScanElem;
use crate::error::{Error, ExecError, Result};
use crate::op::ScanOp;
use crate::parallel::{self, Mode, Schedule};
use crate::segmented::seg_combine;

/// Exclusive forward scan (the paper's scan).
///
/// ```
/// use scan_core::{scan, op::{Sum, Max}};
/// let a = [2u32, 1, 2, 3, 5, 8, 13, 21];
/// assert_eq!(scan::<Sum, _>(&a), vec![0, 2, 3, 5, 8, 13, 21, 34]);
/// assert_eq!(scan::<Max, _>(&[3u32, 1, 4, 1, 5]), vec![0, 3, 3, 4, 4]);
/// ```
pub fn scan<O: ScanOp<T>, T: ScanElem>(a: &[T]) -> Vec<T> {
    typed_scan::<O, T>(a, parallel::Mode::ExclusiveFwd).0
}

/// Exclusive forward scan that also returns the total reduction
/// (`a0 ⊕ ... ⊕ a(n-1)`), which an exclusive scan otherwise drops.
///
/// Equivalent to the pair (`scan`, `reduce`), computed in one pass over
/// the input: the total is the final accumulator of the engine's block
/// offset scan (or of the sequential loop), so no re-combine or second
/// traversal happens.
pub fn scan_with_total<O: ScanOp<T>, T: ScanElem>(a: &[T]) -> (Vec<T>, T) {
    typed_scan::<O, T>(a, parallel::Mode::ExclusiveFwd)
}

/// Inclusive forward scan: element `i` receives `a0 ⊕ ... ⊕ ai`.
pub fn inclusive_scan<O: ScanOp<T>, T: ScanElem>(a: &[T]) -> Vec<T> {
    typed_scan::<O, T>(a, parallel::Mode::InclusiveFwd).0
}

/// Exclusive backward scan: element `i` receives
/// `a(i+1) ⊕ ... ⊕ a(n-1)` (identity at the last position), combined in
/// descending index order per §3.4's "reading the vector in reverse
/// order". The engine walks the blocks right-to-left; no reversed copy
/// of the input is allocated.
///
/// ```
/// use scan_core::{scan_backward, op::Sum};
/// assert_eq!(scan_backward::<Sum, _>(&[1u32, 2, 3, 4]), vec![9, 7, 4, 0]);
/// ```
pub fn scan_backward<O: ScanOp<T>, T: ScanElem>(a: &[T]) -> Vec<T> {
    typed_scan::<O, T>(a, parallel::Mode::ExclusiveBwd).0
}

/// Inclusive backward scan: element `i` receives `ai ⊕ ... ⊕ a(n-1)`.
pub fn inclusive_scan_backward<O: ScanOp<T>, T: ScanElem>(a: &[T]) -> Vec<T> {
    typed_scan::<O, T>(a, parallel::Mode::InclusiveBwd).0
}

/// Reduction over the whole vector with operator `O`.
pub fn reduce<O: ScanOp<T>, T: ScanElem>(a: &[T]) -> T {
    let Ok(total) = parallel::reduce_engine(
        parallel::default_schedule(),
        a.len(),
        |i| a[i],
        O::identity(),
        O::combine,
        O::simd_tile(),
        parallel::NoDeadline,
    );
    total
}

/// Fallible [`scan`]: identical result on success, but honors the
/// ambient [`crate::deadline`] scope and contains operator panics,
/// reporting failures as [`crate::Error::Exec`]. Use this (with
/// [`crate::deadline::with_deadline`]) when a scan must not run
/// longer than a budget.
pub fn try_scan<O: ScanOp<T>, T: ScanElem>(a: &[T]) -> Result<Vec<T>> {
    Ok(try_typed_scan::<O, T>(a, parallel::Mode::ExclusiveFwd)?.0)
}

/// Fallible [`scan_with_total`]; see [`try_scan`].
pub fn try_scan_with_total<O: ScanOp<T>, T: ScanElem>(a: &[T]) -> Result<(Vec<T>, T)> {
    Ok(try_typed_scan::<O, T>(a, parallel::Mode::ExclusiveFwd)?)
}

/// Fallible [`inclusive_scan`]; see [`try_scan`].
pub fn try_inclusive_scan<O: ScanOp<T>, T: ScanElem>(a: &[T]) -> Result<Vec<T>> {
    Ok(try_typed_scan::<O, T>(a, parallel::Mode::InclusiveFwd)?.0)
}

/// Fallible [`scan_backward`]; see [`try_scan`].
pub fn try_scan_backward<O: ScanOp<T>, T: ScanElem>(a: &[T]) -> Result<Vec<T>> {
    Ok(try_typed_scan::<O, T>(a, parallel::Mode::ExclusiveBwd)?.0)
}

/// Fallible [`inclusive_scan_backward`]; see [`try_scan`].
pub fn try_inclusive_scan_backward<O: ScanOp<T>, T: ScanElem>(a: &[T]) -> Result<Vec<T>> {
    Ok(try_typed_scan::<O, T>(a, parallel::Mode::InclusiveBwd)?.0)
}

/// Fallible [`reduce`]; see [`try_scan`].
pub fn try_reduce<O: ScanOp<T>, T: ScanElem>(a: &[T]) -> Result<T> {
    let d = crate::deadline::current();
    Ok(parallel::try_reduce_engine(
        parallel::default_schedule(),
        a.len(),
        |i| a[i],
        O::identity(),
        O::combine,
        O::simd_tile(),
        d.as_ref(),
    )?)
}

/// The one funnel for typed whole-slice scans: every public scan above
/// lowers to this call, which is where the operator's registered SIMD
/// tile (if the CPU has one) enters the engine. Closure-based
/// `parallel::*_by` entry points stay scalar by design — the engine
/// cannot prove an arbitrary closure exact, but `O::simd_tile` is
/// registered only for operators whose reassociation is bit-exact.
fn typed_scan<O: ScanOp<T>, T: ScanElem>(a: &[T], mode: parallel::Mode) -> (Vec<T>, T) {
    let Ok(r) = parallel::engine(
        parallel::default_schedule(),
        a.len(),
        |i| a[i],
        O::identity(),
        O::combine,
        |_, s| s,
        mode,
        O::simd_tile(),
        parallel::NoDeadline,
    );
    r
}

/// Fallible [`typed_scan`], under the ambient deadline scope.
fn try_typed_scan<O: ScanOp<T>, T: ScanElem>(
    a: &[T],
    mode: parallel::Mode,
) -> core::result::Result<(Vec<T>, T), crate::error::ExecError> {
    let d = crate::deadline::current();
    parallel::try_engine(
        parallel::default_schedule(),
        a.len(),
        |i| a[i],
        O::identity(),
        O::combine,
        |_, s| s,
        mode,
        O::simd_tile(),
        d.as_ref(),
    )
}

/// Fallible exclusive forward scan of one range of a longer input,
/// seeded with `carry` — the pair fold of everything before the range
/// ([`try_reduce_range`]) — on `sched` under `deadline` (not the
/// ambient scope). Returns the output and the carry-out that seeds the
/// next range, so consecutive ranges concatenate to [`scan`], or with
/// `heads` to [`crate::seg_scan`]: `heads[i]` starts a segment at
/// `values[i]` and cuts the carry off under [`seg_combine`]. The
/// range's first element is not implied to be a head; seeding the
/// input's start with `(O::identity(), false)` already gives it the
/// identity. Panics are contained as in [`try_scan`], and a `heads`
/// of the wrong length is [`Error::LengthMismatch`].
pub fn try_scan_range<O: ScanOp<T>, T: ScanElem>(
    sched: Schedule,
    values: &[T],
    heads: Option<&[bool]>,
    carry: (T, bool),
    deadline: Option<&ScanDeadline>,
) -> Result<(Vec<T>, (T, bool))> {
    let n = values.len();
    Ok(match checked_heads(n, heads)? {
        None => {
            let mode = Mode::ExclusiveFwd;
            let (out, c) =
                try_carry_scan::<O, T, _>(sched, n, |i| values[i], carry.0, mode, deadline)?;
            (out, (c, carry.1))
        }
        Some(h) => try_seg_carry_scan::<O, T, _>(sched, n, |i| (values[i], h[i]), carry, deadline)?,
    })
}

/// The pair fold of one range, matching [`try_scan_range`]: the
/// range's reduction under `O` (restarting at its heads) and whether
/// it holds a head. Same contract as [`try_scan_range`].
pub fn try_reduce_range<O: ScanOp<T>, T: ScanElem>(
    sched: Schedule,
    values: &[T],
    heads: Option<&[bool]>,
    deadline: Option<&ScanDeadline>,
) -> Result<(T, bool)> {
    let n = values.len();
    let id = O::identity();
    Ok(match checked_heads(n, heads)? {
        None => {
            let load = |i| values[i];
            let tile = O::simd_tile();
            let total =
                parallel::try_reduce_engine(sched, n, load, id, O::combine, tile, deadline)?;
            (total, false)
        }
        Some(h) => {
            let load = |i| (values[i], h[i]);
            let tile = O::simd_seg_tile();
            let f = seg_combine::<O, T>;
            parallel::try_reduce_engine(sched, n, load, (id, false), f, tile, deadline)?
        }
    })
}

/// `heads`, after checking it covers exactly `n` values.
fn checked_heads(n: usize, heads: Option<&[bool]>) -> Result<Option<&[bool]>> {
    match heads {
        Some(h) if h.len() != n => Err(Error::LengthMismatch {
            expected: n,
            actual: h.len(),
        }),
        _ => Ok(heads),
    }
}

/// The carry-seeded engine call under [`try_scan_range`] and
/// [`crate::ScanStream`]: the engine scans from the operator identity
/// in `mode`, and the emit hook folds `carry` into every state from
/// the side it precedes. Associativity makes this equal to seeding the
/// whole prefix, while the engine keeps its block decomposition.
/// Returns the output and the carry-out.
pub(crate) fn try_carry_scan<O, T, L>(
    sched: Schedule,
    n: usize,
    load: L,
    carry: T,
    mode: Mode,
    deadline: Option<&ScanDeadline>,
) -> core::result::Result<(Vec<T>, T), ExecError>
where
    O: ScanOp<T>,
    T: ScanElem,
    L: Fn(usize) -> T + Sync,
{
    let backward = mode.backward();
    let fold = move |s| {
        if backward {
            O::combine(s, carry)
        } else {
            O::combine(carry, s)
        }
    };
    let emit = move |_, s| fold(s);
    let (out, total) = parallel::try_engine(
        sched,
        n,
        load,
        O::identity(),
        O::combine,
        emit,
        mode,
        O::simd_tile(),
        deadline,
    )?;
    Ok((out, fold(total)))
}

/// Segmented [`try_carry_scan`], exclusive and forward over loaded
/// `(value, head)` pairs: heads emit the identity, every other element
/// its pair state with the carry folded in by [`seg_combine`].
pub(crate) fn try_seg_carry_scan<O, T, L>(
    sched: Schedule,
    n: usize,
    load: L,
    carry: (T, bool),
    deadline: Option<&ScanDeadline>,
) -> core::result::Result<(Vec<T>, (T, bool)), ExecError>
where
    O: ScanOp<T>,
    T: ScanElem,
    L: Fn(usize) -> (T, bool) + Sync,
{
    let id = (O::identity(), false);
    let emit = |i, s| {
        if load(i).1 {
            id.0
        } else {
            seg_combine::<O, T>(carry, s).0
        }
    };
    let tile = O::simd_seg_tile();
    let (out, total) = parallel::try_engine(
        sched,
        n,
        &load,
        id,
        seg_combine::<O, T>,
        emit,
        Mode::ExclusiveFwd,
        tile,
        deadline,
    )?;
    Ok((out, seg_combine::<O, T>(carry, total)))
}

/// In-place exclusive forward scan (no allocation); sequential.
/// Useful inside per-processor loops of blocked algorithms.
pub fn scan_inplace<O: ScanOp<T>, T: ScanElem>(a: &mut [T]) {
    let mut acc = O::identity();
    for x in a.iter_mut() {
        let next = O::combine(acc, *x);
        *x = acc;
        acc = next;
    }
}

/// In-place inclusive forward scan (no allocation); sequential.
pub fn inclusive_scan_inplace<O: ScanOp<T>, T: ScanElem>(a: &mut [T]) {
    let mut acc = O::identity();
    for x in a.iter_mut() {
        acc = O::combine(acc, *x);
        *x = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{And, Max, Min, Or, Sum};

    #[test]
    fn paper_plus_scan_example() {
        // §2.1: A = [2 1 2 3 5 8 13 21]
        let a = [2u32, 1, 2, 3, 5, 8, 13, 21];
        assert_eq!(scan::<Sum, _>(&a), vec![0, 2, 3, 5, 8, 13, 21, 34]);
    }

    #[test]
    fn with_total() {
        let a = [1u32, 2, 3];
        let (s, t) = scan_with_total::<Sum, _>(&a);
        assert_eq!(s, vec![0, 1, 3]);
        assert_eq!(t, 6);
        let (s, t) = scan_with_total::<Sum, u32>(&[]);
        assert!(s.is_empty());
        assert_eq!(t, 0);
    }

    #[test]
    fn inclusive_forward() {
        let a = [1u32, 2, 3, 4];
        assert_eq!(inclusive_scan::<Sum, _>(&a), vec![1, 3, 6, 10]);
        assert_eq!(
            inclusive_scan::<Max, _>(&[2u32, 9, 4, 11]),
            vec![2, 9, 9, 11]
        );
    }

    #[test]
    fn backward_scans() {
        let a = [1u32, 2, 3, 4];
        assert_eq!(scan_backward::<Sum, _>(&a), vec![9, 7, 4, 0]);
        assert_eq!(inclusive_scan_backward::<Sum, _>(&a), vec![10, 9, 7, 4]);
        assert_eq!(scan_backward::<Max, _>(&[5u32, 1, 7, 2]), vec![7, 7, 2, 0]);
    }

    #[test]
    fn min_or_and() {
        let a = [5u32, 3, 8, 1];
        assert_eq!(scan::<Min, _>(&a), vec![u32::MAX, 5, 3, 3]);
        let b = [false, true, false, false];
        assert_eq!(scan::<Or, _>(&b), vec![false, false, true, true]);
        let c = [true, true, false, true];
        assert_eq!(scan::<And, _>(&c), vec![true, true, true, false]);
    }

    #[test]
    fn reduce_ops() {
        let a = [3u32, 1, 4, 1, 5];
        assert_eq!(reduce::<Sum, _>(&a), 14);
        assert_eq!(reduce::<Max, _>(&a), 5);
        assert_eq!(reduce::<Min, _>(&a), 1);
    }

    #[test]
    fn inplace_variants_match_allocating() {
        let a = [3u32, 1, 4, 1, 5, 9];
        let mut b = a;
        scan_inplace::<Sum, _>(&mut b);
        assert_eq!(b.to_vec(), scan::<Sum, _>(&a));
        let mut c = a;
        inclusive_scan_inplace::<Max, _>(&mut c);
        assert_eq!(c.to_vec(), inclusive_scan::<Max, _>(&a));
        let mut empty: [u32; 0] = [];
        scan_inplace::<Sum, _>(&mut empty);
    }

    #[test]
    fn try_variants_match_on_success_and_report_expiry() {
        use crate::deadline::{self, ScanDeadline};
        use crate::error::{Error, ExecError};
        let a: Vec<u64> = (0..(crate::parallel::PAR_THRESHOLD as u64 + 3)).collect();
        assert_eq!(try_scan::<Sum, _>(&a).unwrap(), scan::<Sum, _>(&a));
        assert_eq!(
            try_scan_with_total::<Sum, _>(&a).unwrap(),
            scan_with_total::<Sum, _>(&a)
        );
        assert_eq!(
            try_inclusive_scan::<Max, _>(&a).unwrap(),
            inclusive_scan::<Max, _>(&a)
        );
        assert_eq!(
            try_scan_backward::<Sum, _>(&a).unwrap(),
            scan_backward::<Sum, _>(&a)
        );
        assert_eq!(
            try_inclusive_scan_backward::<Sum, _>(&a).unwrap(),
            inclusive_scan_backward::<Sum, _>(&a)
        );
        assert_eq!(try_reduce::<Sum, _>(&a).unwrap(), reduce::<Sum, _>(&a));

        let d = ScanDeadline::at(std::time::Instant::now());
        let got = deadline::with_deadline(&d, || try_scan::<Sum, _>(&a));
        assert_eq!(got, Err(Error::Exec(ExecError::DeadlineExceeded)));
    }

    #[test]
    fn signed_and_float() {
        let a = [-3i64, 5, -7, 2];
        assert_eq!(scan::<Sum, _>(&a), vec![0, -3, 2, -5]);
        assert_eq!(scan::<Max, _>(&a), vec![i64::MIN, -3, 5, 5]);
        let f = [1.5f64, -2.0, 0.25];
        assert_eq!(inclusive_scan::<Sum, _>(&f), vec![1.5, -0.5, -0.25]);
        assert_eq!(scan::<Max, _>(&f)[0], f64::NEG_INFINITY);
    }
}
