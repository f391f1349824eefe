//! The "simple operations" of paper §2.2 plus the data-movement
//! operations of §2.1: `enumerate`, `copy`, `⊕-distribute`, `permute`,
//! `split`, `pack`, and friends. All have `O(1)` step complexity in the
//! scan model.

use crate::element::ScanElem;
use crate::error::{Error, Result};
use crate::op::ScanOp;
use crate::parallel;
use crate::scan::reduce;

/// `enumerate` (Figure 1): the `i`-th *true* element receives the count
/// of true elements strictly before it.
///
/// Implemented, as in the paper, as a `+-scan` of the 0/1 rendering of
/// the flags — but fused: the flags are converted inside the scan's
/// load step, so the intermediate 0/1 vector is never materialized.
///
/// ```
/// use scan_core::ops::enumerate;
/// // Figure 1: Flag = [T F F T F T T F] -> [0 1 1 1 2 2 3 4]
/// let f = [true, false, false, true, false, true, true, false];
/// assert_eq!(enumerate(&f), vec![0, 1, 1, 1, 2, 2, 3, 4]);
/// ```
pub fn enumerate(flags: &[bool]) -> Vec<usize> {
    index_sum_scan(
        flags.len(),
        |i| usize::from(flags[i]),
        parallel::Mode::ExclusiveFwd,
    )
    .0
}

/// Backward `enumerate`: the `i`-th true element receives the count of
/// true elements strictly *after* it (used by `split`, Figure 3).
/// Fused like [`enumerate`]; the blocks are walked right-to-left.
pub fn back_enumerate(flags: &[bool]) -> Vec<usize> {
    index_sum_scan(
        flags.len(),
        |i| usize::from(flags[i]),
        parallel::Mode::ExclusiveBwd,
    )
    .0
}

/// Number of true flags (a fused map→reduce).
pub fn count(flags: &[bool]) -> usize {
    let Ok(total) = parallel::reduce_engine(
        parallel::default_schedule(),
        flags.len(),
        |i| usize::from(flags[i]),
        0usize,
        |a, b| a.wrapping_add(b),
        parallel::NoDeadline,
    );
    total
}

/// The funnel for every §2.2 flag-counting step: a fused 0/1 `+`-scan
/// by index.
fn index_sum_scan<G>(n: usize, g: G, mode: parallel::Mode) -> (Vec<usize>, usize)
where
    G: Fn(usize) -> usize + Sync,
{
    let Ok(r) = parallel::engine(
        parallel::default_schedule(),
        n,
        g,
        0usize,
        |a, b| a.wrapping_add(b),
        |_, s| s,
        mode,
        parallel::NoDeadline,
    );
    r
}

/// `copy` (Figure 1): copy the first element over all elements.
///
/// The paper implements this by placing the identity everywhere but the
/// first position and scanning; at the library level the effect is a
/// broadcast fill.
///
/// # Panics
/// If `a` is empty. See [`try_copy_first`] for the checked form.
pub fn copy_first<T: ScanElem>(a: &[T]) -> Vec<T> {
    copy_first_impl(a).unwrap_or_else(|e| panic!("{e}"))
}

fn copy_first_impl<T: ScanElem>(a: &[T]) -> Result<Vec<T>> {
    match a.first() {
        Some(&head) => Ok(vec![head; a.len()]),
        None => Err(Error::EmptyInput { op: "copy" }),
    }
}

/// Checked [`copy_first`]: `Err(Error::EmptyInput)` on an empty vector
/// instead of panicking. Honors the ambient [`crate::deadline`] scope.
pub fn try_copy_first<T: ScanElem>(a: &[T]) -> Result<Vec<T>> {
    crate::deadline::checkpoint()?;
    copy_first_impl(a)
}

/// `⊕-distribute` (Figure 1): every element receives the reduction of
/// the whole vector (`+-distribute`, `max-distribute`, ... depending on
/// `O`). Implemented as a scan plus a backward copy, per the paper.
///
/// ```
/// use scan_core::{ops::distribute_op, op::Sum};
/// // Figure 1: B = [1 1 2 1 1 2 1 1] -> [10 10 10 10 10 10 10 10]
/// let b = [1u32, 1, 2, 1, 1, 2, 1, 1];
/// assert_eq!(distribute_op::<Sum, _>(&b), vec![10; 8]);
/// ```
pub fn distribute_op<O: ScanOp<T>, T: ScanElem>(a: &[T]) -> Vec<T> {
    let total = reduce::<O, T>(a);
    vec![total; a.len()]
}

/// `permute` (§2.1): move `a[i]` to position `indices[i]` of the result.
/// All indices must be unique and in range — on an EREW P-RAM a
/// duplicate would be a concurrent write.
///
/// This is the checked version; see [`permute_unchecked`] for the
/// fast path used inside the algorithms once indices are known-valid.
pub fn try_permute<T: ScanElem>(a: &[T], indices: &[usize]) -> Result<Vec<T>> {
    crate::deadline::checkpoint()?;
    permute_impl(a, indices)
}

fn permute_impl<T: ScanElem>(a: &[T], indices: &[usize]) -> Result<Vec<T>> {
    if a.len() != indices.len() {
        return Err(Error::LengthMismatch {
            expected: a.len(),
            actual: indices.len(),
        });
    }
    let mut seen = vec![false; a.len()];
    for &ix in indices {
        if ix >= a.len() {
            return Err(Error::IndexOutOfBounds {
                index: ix,
                len: a.len(),
            });
        }
        if seen[ix] {
            return Err(Error::DuplicateIndex { index: ix });
        }
        seen[ix] = true;
    }
    Ok(permute_unchecked(a, indices))
}

/// `permute` (§2.1), panicking on invalid indices.
///
/// ```
/// use scan_core::ops::permute;
/// // §2.1: permute([a0..a7], [2 5 4 3 1 6 0 7]) = [a6 a4 a0 a3 a2 a1 a5 a7]
/// let a = ["a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7"];
/// let i = [2, 5, 4, 3, 1, 6, 0, 7];
/// assert_eq!(permute(&a, &i), vec!["a6", "a4", "a0", "a3", "a2", "a1", "a5", "a7"]);
/// ```
///
/// # Panics
/// On length mismatch, out-of-range index, or duplicate index.
pub fn permute<T: ScanElem>(a: &[T], indices: &[usize]) -> Vec<T> {
    permute_impl(a, indices).unwrap_or_else(|e| panic!("invalid permute: {e}"))
}

/// Scatter without the permutation check: `out[indices[i]] = a[i]`.
/// In debug builds the indices are fully validated; in release an
/// out-of-range index still panics, and a duplicate index (a caller
/// bug) leaves the skipped slot holding `a[0]` — wrong data, but
/// never uninitialized memory.
///
/// # Panics
/// On length mismatch or an out-of-range index (both builds); on a
/// duplicate index in debug builds.
pub fn permute_unchecked<T: ScanElem>(a: &[T], indices: &[usize]) -> Vec<T> {
    assert_eq!(a.len(), indices.len(), "permute length mismatch");
    #[cfg(debug_assertions)]
    {
        let mut seen = vec![false; a.len()];
        for &ix in indices {
            debug_assert!(ix < a.len(), "permute index out of range");
            debug_assert!(!seen[ix], "duplicate permute index");
            seen[ix] = true;
        }
    }
    if a.is_empty() {
        return Vec::new();
    }
    // Pre-fill so every slot is initialized even if the caller breaks
    // the uniqueness contract; the fill is a cheap memset-like pass for
    // `Copy` elements.
    let mut out: Vec<T> = vec![a[0]; a.len()];
    for (i, &ix) in indices.iter().enumerate() {
        out[ix] = a[i];
    }
    out
}

/// Gather: `out[i] = a[indices[i]]`. The read-side dual of `permute`.
/// The result has the length of `indices`, which may differ from `a`.
///
/// On an EREW P-RAM this is an exclusive read only when the indices are
/// unique; with repeats it is a concurrent read (CREW). The paper's
/// cross-pointer traversals use unique indices; its `copy` patterns use
/// repeated ones, which the scan model expresses with scans instead.
///
/// # Panics
/// If an index is out of range. See [`try_gather`] for the checked form.
pub fn gather<T: ScanElem>(a: &[T], indices: &[usize]) -> Vec<T> {
    parallel::tabulate_by(indices.len(), |i| a[indices[i]])
}

/// Checked [`gather`]: `Err(Error::IndexOutOfBounds)` on a bad index
/// instead of panicking.
pub fn try_gather<T: ScanElem>(a: &[T], indices: &[usize]) -> Result<Vec<T>> {
    crate::deadline::checkpoint()?;
    indices
        .iter()
        .map(|&ix| {
            a.get(ix).copied().ok_or(Error::IndexOutOfBounds {
                index: ix,
                len: a.len(),
            })
        })
        .collect()
}

/// The `split` operation (§2.2.1, Figure 3): pack elements whose flag is
/// `false` to the bottom of the vector and elements whose flag is `true`
/// to the top, preserving order within both groups.
///
/// ```
/// use scan_core::ops::split;
/// // Figure 3: A = [5 7 3 1 4 2 7 2], Flags = [T T T T F F T F]
/// let a = [5u32, 7, 3, 1, 4, 2, 7, 2];
/// let f = [true, true, true, true, false, false, true, false];
/// assert_eq!(split(&a, &f), vec![4, 2, 2, 5, 7, 3, 1, 7]);
/// ```
///
/// # Panics
/// If lengths differ. See [`try_split`] for the checked form.
pub fn split<T: ScanElem>(a: &[T], flags: &[bool]) -> Vec<T> {
    split_count(a, flags).0
}

/// Checked [`split`]: `Err(Error::LengthMismatch)` instead of panicking.
pub fn try_split<T: ScanElem>(a: &[T], flags: &[bool]) -> Result<Vec<T>> {
    Ok(try_split_count(a, flags)?.0)
}

/// Checked [`split_count`]: `Err(Error::LengthMismatch)` instead of
/// panicking.
pub fn try_split_count<T: ScanElem>(a: &[T], flags: &[bool]) -> Result<(Vec<T>, usize)> {
    crate::deadline::checkpoint()?;
    if a.len() != flags.len() {
        return Err(Error::LengthMismatch {
            expected: a.len(),
            actual: flags.len(),
        });
    }
    Ok(split_count(a, flags))
}

/// [`split`], also returning the number of `false` elements (the index
/// where the `true` group begins).
pub fn split_count<T: ScanElem>(a: &[T], flags: &[bool]) -> (Vec<T>, usize) {
    assert_eq!(a.len(), flags.len(), "split length mismatch");
    let n = a.len();
    if n == 0 {
        return (Vec::new(), 0);
    }
    // Fused: the negated 0/1 flags are loaded inside the scans, so
    // neither `not_flags` nor a ones vector is materialized.
    let (i_down, n_false) = index_sum_scan(
        flags.len(),
        |i| usize::from(!flags[i]),
        parallel::Mode::ExclusiveFwd,
    );
    let i_up = back_enumerate(flags);
    // Figure 3: I-up = n - back-enumerate(Flags) - 1
    let index = parallel::tabulate_by(n, |i| if flags[i] { n - i_up[i] - 1 } else { i_down[i] });
    (permute_unchecked(a, &index), n_false)
}

/// Destination index of each element under [`split`] without moving
/// data. Useful when several vectors must be split by the same flags.
pub fn split_index(flags: &[bool]) -> Vec<usize> {
    let n = flags.len();
    let i_down = index_sum_scan(
        flags.len(),
        |i| usize::from(!flags[i]),
        parallel::Mode::ExclusiveFwd,
    )
    .0;
    let i_up = back_enumerate(flags);
    parallel::tabulate_by(n, |i| if flags[i] { n - i_up[i] - 1 } else { i_down[i] })
}

/// Three-way split keys for [`split3`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucket {
    /// Goes to the bottom group.
    Lo,
    /// Goes to the middle group.
    Mid,
    /// Goes to the top group.
    Hi,
}

/// Checked [`split3`]: `Err(Error::LengthMismatch)` instead of
/// panicking.
pub fn try_split3<T: ScanElem>(a: &[T], buckets: &[Bucket]) -> Result<(Vec<T>, usize, usize)> {
    crate::deadline::checkpoint()?;
    if a.len() != buckets.len() {
        return Err(Error::LengthMismatch {
            expected: a.len(),
            actual: buckets.len(),
        });
    }
    Ok(split3(a, buckets))
}

/// Three-way split (used by quicksort, §2.3.1): `Lo` elements first,
/// then `Mid`, then `Hi`, each group in original order. Returns the
/// permuted vector and the sizes of the `Lo` and `Mid` groups.
///
/// # Panics
/// If lengths differ. See [`try_split3`] for the checked form.
pub fn split3<T: ScanElem>(a: &[T], buckets: &[Bucket]) -> (Vec<T>, usize, usize) {
    assert_eq!(a.len(), buckets.len(), "split3 length mismatch");
    let index = split3_index(buckets);
    let n_lo = buckets.iter().filter(|&&b| b == Bucket::Lo).count();
    let n_mid = buckets.iter().filter(|&&b| b == Bucket::Mid).count();
    (permute_unchecked(a, &index), n_lo, n_mid)
}

/// Destination index of each element under [`split3`].
pub fn split3_index(buckets: &[Bucket]) -> Vec<usize> {
    let count_of = |want: Bucket| {
        index_sum_scan(
            buckets.len(),
            |i| usize::from(buckets[i] == want),
            parallel::Mode::ExclusiveFwd,
        )
    };
    let (lo_scan, n_lo) = count_of(Bucket::Lo);
    let (mid_scan, n_mid) = count_of(Bucket::Mid);
    let (hi_scan, _) = count_of(Bucket::Hi);
    parallel::tabulate_by(buckets.len(), |i| match buckets[i] {
        Bucket::Lo => lo_scan[i],
        Bucket::Mid => n_lo + mid_scan[i],
        Bucket::Hi => n_lo + n_mid + hi_scan[i],
    })
}

/// The `pack` operation (§2.5, Figure 11): keep only the elements whose
/// flag is `true`, preserving order, in a vector of exactly that length.
///
/// The paper's enumerate and permute into the shorter vector, fused
/// into one blocked pass: each block counts its kept flags, a scan of
/// the counts gives each block its output offset, and each block then
/// writes its kept elements straight into the result, using every
/// enumerate value in the loop that computes it. No index vector is
/// built and no pass is serial.
///
/// ```
/// use scan_core::ops::pack;
/// // Figure 11: F = [T F F F T T F T]
/// let f = [true, false, false, false, true, true, false, true];
/// assert_eq!(pack(&[0u32, 1, 2, 3, 4, 5, 6, 7], &f), vec![0, 4, 5, 7]);
/// ```
///
/// # Panics
/// If lengths differ. See [`try_pack`] for the checked form.
pub fn pack<T: ScanElem>(a: &[T], keep: &[bool]) -> Vec<T> {
    parallel::pack_engine(parallel::default_schedule(), a, keep, |_, x| x)
}

/// Checked [`pack`]: `Err(Error::LengthMismatch)` instead of panicking.
pub fn try_pack<T: ScanElem>(a: &[T], keep: &[bool]) -> Result<Vec<T>> {
    crate::deadline::checkpoint()?;
    if a.len() != keep.len() {
        return Err(Error::LengthMismatch {
            expected: a.len(),
            actual: keep.len(),
        });
    }
    Ok(pack(a, keep))
}

/// Indices (into the original vector) of the kept elements, in order:
/// [`pack`]'s kernel with each kept index as the element.
pub fn pack_indices(keep: &[bool]) -> Vec<usize> {
    // No source vector: the flags stand in for it, and `item` drops
    // the element for its index.
    parallel::pack_engine(parallel::default_schedule(), keep, keep, |i, _| i)
}

/// Merge two vectors under the direction of a *merge-flag vector*
/// (§2.5.1): `flags.len() == a.len() + b.len()`; position `i` of the
/// result takes the next unused element of `a` when `flags[i]` is
/// `false` and of `b` when it is `true`.
///
/// This is the inverse view of the halving merge's flag output: the
/// flag vector "both uniquely specifies how the elements should be
/// merged and specifies in which position each element belongs".
///
/// # Panics
/// If `flags.len() != a.len() + b.len()` or the flag counts do not
/// match the vector lengths. See [`try_flag_merge`] for the checked
/// form.
pub fn flag_merge<T: ScanElem>(flags: &[bool], a: &[T], b: &[T]) -> Vec<T> {
    flag_merge_impl(flags, a, b).unwrap_or_else(|e| match e {
        Error::CountMismatch { .. } => panic!("flag_merge: true-count must equal b.len()"),
        e => panic!("flag_merge length mismatch: {e}"),
    })
}

/// Checked [`flag_merge`]: `Err(Error::LengthMismatch)` when
/// `flags.len() != a.len() + b.len()` and `Err(Error::CountMismatch)`
/// when the true-count of `flags` is not `b.len()`.
pub fn try_flag_merge<T: ScanElem>(flags: &[bool], a: &[T], b: &[T]) -> Result<Vec<T>> {
    crate::deadline::checkpoint()?;
    flag_merge_impl(flags, a, b)
}

fn flag_merge_impl<T: ScanElem>(flags: &[bool], a: &[T], b: &[T]) -> Result<Vec<T>> {
    if flags.len() != a.len() + b.len() {
        return Err(Error::LengthMismatch {
            expected: a.len() + b.len(),
            actual: flags.len(),
        });
    }
    let n_true = count(flags);
    if n_true != b.len() {
        return Err(Error::CountMismatch {
            expected: b.len(),
            actual: n_true,
        });
    }
    let a_pos = index_sum_scan(
        flags.len(),
        |i| usize::from(!flags[i]),
        parallel::Mode::ExclusiveFwd,
    )
    .0;
    let b_pos = enumerate(flags);
    Ok(parallel::tabulate_by(flags.len(), |i| {
        if flags[i] {
            b[b_pos[i]]
        } else {
            a[a_pos[i]]
        }
    }))
}

/// Elementwise select: `if flags[i] { t[i] } else { e[i] }` (the paper's
/// `if ... then ... else` vector form, Figure 3).
///
/// # Panics
/// If lengths differ. See [`try_select`] for the checked form.
pub fn select<T: ScanElem>(flags: &[bool], t: &[T], e: &[T]) -> Vec<T> {
    select_impl(flags, t, e).unwrap_or_else(|e| panic!("select length mismatch: {e}"))
}

/// Checked [`select`]: `Err(Error::LengthMismatch)` instead of
/// panicking. Honors the ambient [`crate::deadline`] scope.
pub fn try_select<T: ScanElem>(flags: &[bool], t: &[T], e: &[T]) -> Result<Vec<T>> {
    crate::deadline::checkpoint()?;
    select_impl(flags, t, e)
}

fn select_impl<T: ScanElem>(flags: &[bool], t: &[T], e: &[T]) -> Result<Vec<T>> {
    if flags.len() != t.len() {
        return Err(Error::LengthMismatch {
            expected: flags.len(),
            actual: t.len(),
        });
    }
    if flags.len() != e.len() {
        return Err(Error::LengthMismatch {
            expected: flags.len(),
            actual: e.len(),
        });
    }
    Ok(flags
        .iter()
        .zip(t)
        .zip(e)
        .map(|((&f, &t), &e)| if f { t } else { e })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Max, Sum};

    #[test]
    fn figure1_enumerate() {
        let f = [true, false, false, true, false, true, true, false];
        assert_eq!(enumerate(&f), vec![0, 1, 1, 1, 2, 2, 3, 4]);
    }

    #[test]
    fn figure1_copy() {
        let a = [5u32, 1, 3, 4, 3, 9, 2, 6];
        assert_eq!(copy_first(&a), vec![5; 8]);
    }

    #[test]
    fn figure1_plus_distribute() {
        let b = [1u32, 1, 2, 1, 1, 2, 1, 1];
        assert_eq!(distribute_op::<Sum, _>(&b), vec![10; 8]);
    }

    #[test]
    fn max_distribute() {
        let b = [1u32, 7, 2, 5];
        assert_eq!(distribute_op::<Max, _>(&b), vec![7; 4]);
    }

    #[test]
    fn paper_permute_example() {
        let a = [10u32, 11, 12, 13, 14, 15, 16, 17];
        let i = [2, 5, 4, 3, 1, 6, 0, 7];
        assert_eq!(permute(&a, &i), vec![16, 14, 10, 13, 12, 11, 15, 17]);
    }

    #[test]
    fn permute_rejects_bad_indices() {
        assert_eq!(
            try_permute(&[1u32, 2], &[0, 0]),
            Err(Error::DuplicateIndex { index: 0 })
        );
        assert_eq!(
            try_permute(&[1u32, 2], &[0, 5]),
            Err(Error::IndexOutOfBounds { index: 5, len: 2 })
        );
        assert_eq!(
            try_permute(&[1u32, 2], &[0]),
            Err(Error::LengthMismatch {
                expected: 2,
                actual: 1
            })
        );
    }

    #[test]
    fn figure3_split() {
        let a = [5u32, 7, 3, 1, 4, 2, 7, 2];
        let f = [true, true, true, true, false, false, true, false];
        // I-down = [0 0 0 0 0 1 2 2], I-up = [3 4 5 6 6 6 7 7] (as n-1-back)
        assert_eq!(split_index(&f), vec![3, 4, 5, 6, 0, 1, 7, 2]);
        let (s, nf) = split_count(&a, &f);
        assert_eq!(s, vec![4, 2, 2, 5, 7, 3, 1, 7]);
        assert_eq!(nf, 3);
    }

    #[test]
    fn split_all_false_and_all_true() {
        let a = [1u32, 2, 3];
        assert_eq!(split(&a, &[false; 3]), vec![1, 2, 3]);
        assert_eq!(split(&a, &[true; 3]), vec![1, 2, 3]);
        let e: [u32; 0] = [];
        assert!(split(&e, &[]).is_empty());
    }

    #[test]
    fn split3_groups() {
        use Bucket::*;
        let a = [9u32, 1, 5, 5, 2, 8, 5];
        let b = [Hi, Lo, Mid, Mid, Lo, Hi, Mid];
        let (s, n_lo, n_mid) = split3(&a, &b);
        assert_eq!(s, vec![1, 2, 5, 5, 5, 9, 8]);
        assert_eq!((n_lo, n_mid), (2, 3));
    }

    #[test]
    fn pack_figure11_style() {
        // Figure 11: F = [T F F F T T F T T T T T]
        let f = [
            true, false, false, false, true, true, false, true, true, true, true, true,
        ];
        let a: Vec<u32> = (0..12).collect();
        assert_eq!(pack(&a, &f), vec![0, 4, 5, 7, 8, 9, 10, 11]);
        assert_eq!(pack_indices(&f), vec![0, 4, 5, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn pack_none_and_all() {
        let a = [1u32, 2, 3];
        assert!(pack(&a, &[false; 3]).is_empty());
        assert_eq!(pack(&a, &[true; 3]), vec![1, 2, 3]);
    }

    #[test]
    fn flag_merge_basic() {
        // halving-merge(A', B') = [F T T F F T] -> [1 3 9 10 15 23]
        let flags = [false, true, true, false, false, true];
        let a = [1u32, 10, 15];
        let b = [3u32, 9, 23];
        assert_eq!(flag_merge(&flags, &a, &b), vec![1, 3, 9, 10, 15, 23]);
    }

    #[test]
    #[should_panic(expected = "true-count")]
    fn flag_merge_bad_counts() {
        flag_merge(&[true, true], &[1u32], &[2u32]);
    }

    #[test]
    fn select_vectors() {
        let f = [true, false, true];
        assert_eq!(select(&f, &[1u32, 2, 3], &[9, 8, 7]), vec![1, 8, 3]);
    }

    #[test]
    fn gather_is_permute_inverse() {
        let a = [10u32, 11, 12, 13];
        let idx = [2, 0, 3, 1];
        let p = permute(&a, &idx);
        assert_eq!(gather(&p, &idx), a.to_vec());
    }

    #[test]
    fn count_and_back_enumerate() {
        let f = [true, false, true, true];
        assert_eq!(count(&f), 3);
        assert_eq!(back_enumerate(&f), vec![2, 2, 1, 0]);
    }

    #[test]
    fn try_variants_accept_valid_inputs() {
        let a = [5u32, 1, 3];
        assert_eq!(try_copy_first(&a), Ok(vec![5, 5, 5]));
        assert_eq!(try_gather(&a, &[2, 0]), Ok(vec![3, 5]));
        let f = [true, false, false];
        assert_eq!(try_split(&a, &f), Ok(split(&a, &f)));
        assert_eq!(try_pack(&a, &f), Ok(vec![5]));
        assert_eq!(try_select(&f, &a, &[9, 9, 9]), Ok(vec![5, 9, 9]));
        use Bucket::*;
        let b = [Hi, Lo, Mid];
        assert_eq!(try_split3(&a, &b), Ok(split3(&a, &b)));
        let flags = [false, true, false];
        assert_eq!(
            try_flag_merge(&flags, &[1u32, 3], &[2u32]),
            Ok(vec![1, 2, 3])
        );
    }

    #[test]
    fn try_variants_reject_bad_inputs() {
        assert_eq!(
            try_copy_first::<u32>(&[]),
            Err(Error::EmptyInput { op: "copy" })
        );
        assert_eq!(
            try_gather(&[1u32], &[3]),
            Err(Error::IndexOutOfBounds { index: 3, len: 1 })
        );
        assert_eq!(
            try_split(&[1u32], &[true, false]),
            Err(Error::LengthMismatch {
                expected: 1,
                actual: 2
            })
        );
        assert_eq!(
            try_split3(&[1u32], &[]),
            Err(Error::LengthMismatch {
                expected: 1,
                actual: 0
            })
        );
        assert_eq!(
            try_pack(&[1u32, 2], &[true]),
            Err(Error::LengthMismatch {
                expected: 2,
                actual: 1
            })
        );
        assert_eq!(
            try_select(&[true], &[1u32], &[]),
            Err(Error::LengthMismatch {
                expected: 1,
                actual: 0
            })
        );
        assert_eq!(
            try_flag_merge(&[true, true], &[1u32], &[2u32]),
            Err(Error::CountMismatch {
                expected: 1,
                actual: 2
            })
        );
        assert_eq!(
            try_flag_merge(&[true], &[1u32], &[2u32]),
            Err(Error::LengthMismatch {
                expected: 2,
                actual: 1
            })
        );
    }

    #[test]
    #[should_panic(expected = "copy of an empty vector")]
    fn copy_first_empty_panics_with_typed_message() {
        copy_first::<u32>(&[]);
    }
}
