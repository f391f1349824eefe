//! Segmented versions of the simple operations (paper §2.3):
//! per-segment `enumerate`, `copy`, `⊕-distribute`, `reduce`, `split`,
//! and three-way `split` — each a constant number of scan-model steps.

use crate::element::ScanElem;
use crate::error::{Error, Result};
use crate::op::{ScanOp, Sum};
use crate::ops::{permute_unchecked, Bucket};
use crate::parallel;
use crate::segmented::{seg_inclusive_scan, seg_scan, Segments};

/// `Err(Error::LengthMismatch)` unless `len` matches the segmentation,
/// checking the ambient [`crate::deadline`] scope first (every checked
/// segmented op funnels through here, so they all honor deadlines).
fn check_seg_len(len: usize, segs: &Segments) -> Result<()> {
    crate::deadline::checkpoint()?;
    if len != segs.len() {
        return Err(Error::LengthMismatch {
            expected: segs.len(),
            actual: len,
        });
    }
    Ok(())
}

/// Segmented `enumerate`: the `i`-th true element *within its segment*
/// receives the count of true elements before it in the same segment.
pub fn seg_enumerate(flags: &[bool], segs: &Segments) -> Vec<usize> {
    let ones = parallel::map_by(flags, usize::from);
    seg_scan::<Sum, _>(&ones, segs)
}

/// Segmented `copy`: copy each segment's first element across the
/// segment (the paper implements this with a segmented `max-scan`; see
/// [`crate::simulate::seg_max_scan_via_primitives`] for that route).
pub fn seg_copy<T: ScanElem>(a: &[T], segs: &Segments) -> Vec<T> {
    assert_eq!(a.len(), segs.len(), "seg_copy length mismatch");
    let heads = segs.head_index_per_element();
    crate::ops::gather(a, &heads)
}

/// Checked [`seg_copy`]: `Err(Error::LengthMismatch)` instead of
/// panicking.
pub fn try_seg_copy<T: ScanElem>(a: &[T], segs: &Segments) -> Result<Vec<T>> {
    check_seg_len(a.len(), segs)?;
    Ok(seg_copy(a, segs))
}

/// Per-segment reduction, one value per segment, in segment order.
pub fn seg_reduce<O: ScanOp<T>, T: ScanElem>(a: &[T], segs: &Segments) -> Vec<T> {
    assert_eq!(a.len(), segs.len(), "seg_reduce length mismatch");
    let inc = seg_inclusive_scan::<O, T>(a, segs);
    segs.ranges().iter().map(|&(_, e)| inc[e - 1]).collect()
}

/// Checked [`seg_reduce`]: `Err(Error::LengthMismatch)` instead of
/// panicking.
pub fn try_seg_reduce<O: ScanOp<T>, T: ScanElem>(a: &[T], segs: &Segments) -> Result<Vec<T>> {
    check_seg_len(a.len(), segs)?;
    Ok(seg_reduce::<O, T>(a, segs))
}

/// Segmented `⊕-distribute`: every element receives the reduction of
/// its own segment.
pub fn seg_distribute<O: ScanOp<T>, T: ScanElem>(a: &[T], segs: &Segments) -> Vec<T> {
    assert_eq!(a.len(), segs.len(), "seg_distribute length mismatch");
    let inc = seg_inclusive_scan::<O, T>(a, segs);
    let mut out = Vec::with_capacity(a.len());
    for (s, e) in segs.ranges() {
        let total = inc[e - 1];
        out.extend(std::iter::repeat_n(total, e - s));
    }
    out
}

/// Checked [`seg_distribute`]: `Err(Error::LengthMismatch)` instead of
/// panicking.
pub fn try_seg_distribute<O: ScanOp<T>, T: ScanElem>(a: &[T], segs: &Segments) -> Result<Vec<T>> {
    check_seg_len(a.len(), segs)?;
    Ok(seg_distribute::<O, T>(a, segs))
}

/// Offset of each element's segment head (the base address of the
/// segment each element lives in).
pub fn seg_offsets(segs: &Segments) -> Vec<usize> {
    segs.head_index_per_element()
}

/// Segmented `split`: within each segment independently, pack `false`
/// elements to the bottom and `true` elements to the top, preserving
/// order within both groups. Segment boundaries are unchanged.
pub fn seg_split<T: ScanElem>(a: &[T], flags: &[bool], segs: &Segments) -> Vec<T> {
    let index = seg_split_index(flags, segs);
    permute_unchecked(a, &index)
}

/// Checked [`seg_split`]: `Err(Error::LengthMismatch)` instead of
/// panicking.
pub fn try_seg_split<T: ScanElem>(a: &[T], flags: &[bool], segs: &Segments) -> Result<Vec<T>> {
    check_seg_len(a.len(), segs)?;
    check_seg_len(flags.len(), segs)?;
    Ok(seg_split(a, flags, segs))
}

/// Checked [`seg_split_index`]: `Err(Error::LengthMismatch)` instead of
/// panicking.
pub fn try_seg_split_index(flags: &[bool], segs: &Segments) -> Result<Vec<usize>> {
    check_seg_len(flags.len(), segs)?;
    Ok(seg_split_index(flags, segs))
}

/// Destination index of each element under [`seg_split`].
pub fn seg_split_index(flags: &[bool], segs: &Segments) -> Vec<usize> {
    assert_eq!(flags.len(), segs.len(), "seg_split length mismatch");
    let not_flags = parallel::map_by(flags, |f| !f);
    let enum_false = seg_enumerate(&not_flags, segs);
    let enum_true = seg_enumerate(flags, segs);
    // Falses in each segment, distributed to every element of the segment.
    let ones = parallel::map_by(&not_flags, usize::from);
    let n_false = seg_distribute::<Sum, _>(&ones, segs);
    let base = seg_offsets(segs);
    (0..flags.len())
        .map(|i| {
            base[i]
                + if flags[i] {
                    n_false[i] + enum_true[i]
                } else {
                    enum_false[i]
                }
        })
        .collect()
}

/// Result of a segmented three-way split ([`seg_split3`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SegSplit3<T> {
    /// The permuted values: within each old segment, `Lo` then `Mid`
    /// then `Hi`, each group in original order.
    pub values: Vec<T>,
    /// The refined segmentation: every nonempty group of every old
    /// segment becomes a segment of its own (quicksort step 4).
    pub segments: Segments,
    /// Destination index each source element was moved to.
    pub index: Vec<usize>,
}

/// Segmented three-way split with segment refinement — the heart of the
/// paper's quicksort (§2.3.1, Figure 5): within each segment, move `Lo`
/// elements first, `Mid` second, `Hi` last, and start a new segment at
/// the head of each nonempty group.
pub fn seg_split3<T: ScanElem>(a: &[T], buckets: &[Bucket], segs: &Segments) -> SegSplit3<T> {
    assert_eq!(a.len(), buckets.len(), "seg_split3 length mismatch");
    assert_eq!(a.len(), segs.len(), "seg_split3 length mismatch");
    seg_split3_inner(a, buckets, segs)
}

/// Checked [`seg_split3`]: `Err(Error::LengthMismatch)` instead of
/// panicking.
pub fn try_seg_split3<T: ScanElem>(
    a: &[T],
    buckets: &[Bucket],
    segs: &Segments,
) -> Result<SegSplit3<T>> {
    if a.len() != buckets.len() {
        return Err(Error::LengthMismatch {
            expected: a.len(),
            actual: buckets.len(),
        });
    }
    check_seg_len(a.len(), segs)?;
    Ok(seg_split3_inner(a, buckets, segs))
}

fn seg_split3_inner<T: ScanElem>(a: &[T], buckets: &[Bucket], segs: &Segments) -> SegSplit3<T> {
    let is = |b: Bucket| -> Vec<usize> { buckets.iter().map(|&x| usize::from(x == b)).collect() };
    let lo = is(Bucket::Lo);
    let mid = is(Bucket::Mid);
    let enum_lo = seg_scan::<Sum, _>(&lo, segs);
    let enum_mid = seg_scan::<Sum, _>(&mid, segs);
    let hi = is(Bucket::Hi);
    let enum_hi = seg_scan::<Sum, _>(&hi, segs);
    let n_lo = seg_distribute::<Sum, _>(&lo, segs);
    let n_mid = seg_distribute::<Sum, _>(&mid, segs);
    let base = seg_offsets(segs);
    let index: Vec<usize> = (0..a.len())
        .map(|i| {
            base[i]
                + match buckets[i] {
                    Bucket::Lo => enum_lo[i],
                    Bucket::Mid => n_lo[i] + enum_mid[i],
                    Bucket::Hi => n_lo[i] + n_mid[i] + enum_hi[i],
                }
        })
        .collect();
    let values = permute_unchecked(a, &index);
    // New segment heads: the first element of each nonempty group. An
    // element is first of its group exactly when its within-group
    // enumerate is zero, so scatter a flag to its destination.
    let mut flags = vec![false; a.len()];
    for i in 0..a.len() {
        let first_of_group = match buckets[i] {
            Bucket::Lo => enum_lo[i] == 0,
            Bucket::Mid => enum_mid[i] == 0,
            Bucket::Hi => enum_hi[i] == 0,
        };
        if first_of_group {
            flags[index[i]] = true;
        }
    }
    SegSplit3 {
        values,
        segments: Segments::from_flags(flags),
        index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Max, Min};

    fn segs(flags: &[bool]) -> Segments {
        Segments::from_flags(flags.to_vec())
    }

    #[test]
    fn seg_enumerate_restarts() {
        let f = [true, true, false, true, false, true];
        let s = segs(&[true, false, false, true, false, false]);
        assert_eq!(seg_enumerate(&f, &s), vec![0, 1, 2, 0, 1, 1]);
    }

    #[test]
    fn seg_copy_broadcasts_heads() {
        let a = [7u32, 1, 2, 9, 3, 4];
        let s = segs(&[true, false, false, true, false, false]);
        assert_eq!(seg_copy(&a, &s), vec![7, 7, 7, 9, 9, 9]);
    }

    #[test]
    fn seg_reduce_and_distribute() {
        let a = [1u32, 2, 3, 10, 20, 5];
        let s = segs(&[true, false, false, true, false, true]);
        assert_eq!(seg_reduce::<Sum, _>(&a, &s), vec![6, 30, 5]);
        assert_eq!(seg_distribute::<Sum, _>(&a, &s), vec![6, 6, 6, 30, 30, 5]);
        assert_eq!(seg_reduce::<Max, _>(&a, &s), vec![3, 20, 5]);
        assert_eq!(seg_reduce::<Min, _>(&a, &s), vec![1, 10, 5]);
    }

    #[test]
    fn seg_split_within_segments() {
        let a = [1u32, 2, 3, 4, 5, 6];
        // segments [1 2 3][4 5 6]; flags T F T | F T F
        let s = segs(&[true, false, false, true, false, false]);
        let f = [true, false, true, false, true, false];
        // seg 0: falses [2], trues [1 3] -> [2 1 3]
        // seg 1: falses [4 6], trues [5] -> [4 6 5]
        assert_eq!(seg_split(&a, &f, &s), vec![2, 1, 3, 4, 6, 5]);
    }

    #[test]
    fn seg_split_single_segment_matches_split() {
        let a = [5u32, 7, 3, 1, 4, 2, 7, 2];
        let f = [true, true, true, true, false, false, true, false];
        let s = Segments::single(8);
        assert_eq!(seg_split(&a, &f, &s), crate::ops::split(&a, &f));
    }

    #[test]
    fn seg_split3_refines_segments() {
        use Bucket::*;
        // One segment [6 2 9 6 1], pivot 6: [> < = ... ] style
        let a = [6u32, 2, 9, 6, 1];
        let b = [Mid, Lo, Hi, Mid, Lo];
        let s = Segments::single(5);
        let r = seg_split3(&a, &b, &s);
        assert_eq!(r.values, vec![2, 1, 6, 6, 9]);
        assert_eq!(
            r.segments.flags(),
            &[true, false, true, false, true],
            "each nonempty group becomes a segment"
        );
    }

    #[test]
    fn seg_split3_empty_groups_make_no_segments() {
        use Bucket::*;
        let a = [4u32, 4];
        let b = [Mid, Mid];
        let s = Segments::single(2);
        let r = seg_split3(&a, &b, &s);
        assert_eq!(r.values, vec![4, 4]);
        assert_eq!(r.segments.flags(), &[true, false]);
        assert_eq!(r.segments.count(), 1);
    }

    #[test]
    fn seg_split3_multiple_segments() {
        use Bucket::*;
        // segments [3 1 2] and [9 7]
        let a = [3u32, 1, 2, 9, 7];
        let s = segs(&[true, false, false, true, false]);
        let b = [Mid, Lo, Lo, Mid, Lo];
        let r = seg_split3(&a, &b, &s);
        assert_eq!(r.values, vec![1, 2, 3, 7, 9]);
        assert_eq!(r.segments.flags(), &[true, false, true, true, true]);
    }

    #[test]
    fn seg_offsets_are_bases() {
        let s = segs(&[true, false, true, false, false]);
        assert_eq!(seg_offsets(&s), vec![0, 0, 2, 2, 2]);
    }

    #[test]
    fn try_variants_match_and_reject() {
        use crate::error::Error;
        let a = [1u32, 2, 3, 10, 20, 5];
        let s = segs(&[true, false, false, true, false, true]);
        assert_eq!(try_seg_copy(&a, &s), Ok(seg_copy(&a, &s)));
        assert_eq!(
            try_seg_reduce::<Sum, _>(&a, &s),
            Ok(seg_reduce::<Sum, _>(&a, &s))
        );
        assert_eq!(
            try_seg_distribute::<Max, _>(&a, &s),
            Ok(seg_distribute::<Max, _>(&a, &s))
        );
        let f = [true, false, true, false, true, false];
        assert_eq!(try_seg_split(&a, &f, &s), Ok(seg_split(&a, &f, &s)));
        assert_eq!(try_seg_split_index(&f, &s), Ok(seg_split_index(&f, &s)));
        use Bucket::*;
        let b = [Mid, Lo, Hi, Mid, Lo, Hi];
        assert_eq!(try_seg_split3(&a, &b, &s), Ok(seg_split3(&a, &b, &s)));

        let short = [1u32, 2];
        let err = Error::LengthMismatch {
            expected: 6,
            actual: 2,
        };
        assert_eq!(try_seg_copy(&short, &s), Err(err.clone()));
        assert_eq!(try_seg_reduce::<Sum, _>(&short, &s), Err(err.clone()));
        assert_eq!(try_seg_distribute::<Sum, _>(&short, &s), Err(err.clone()));
        assert_eq!(try_seg_split(&short, &f[..2], &s), Err(err.clone()));
        assert_eq!(try_seg_split_index(&f[..2], &s), Err(err));
        assert_eq!(
            try_seg_split3(&a, &b[..2], &s),
            Err(Error::LengthMismatch {
                expected: 6,
                actual: 2
            })
        );
    }
}
