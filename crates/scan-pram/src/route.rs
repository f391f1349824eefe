//! Routing generic [`Ctx`](crate::Ctx) operations onto a
//! [`PrimitiveScans`] backend.
//!
//! The paper's §3.4 point is that *every* scan reduces to the two
//! hardware primitives (`+-scan`, `max-scan`). When a backend is plugged
//! into a [`Ctx`](crate::Ctx) — the simulated tree circuit, or a
//! fault-injecting wrapper around it — the derived operations should
//! actually *use* those primitives, so that an experiment (or a fault
//! campaign) over a high-level algorithm exercises the hardware path.
//!
//! Each function here attempts to express one `Ctx` operation in terms
//! of backend primitives, returning `None` when the element/operator
//! pair has no §3.4 construction (the caller then falls back to the
//! software kernels). Dispatch is by `TypeId`, so the generic `Ctx`
//! signatures are unchanged.
//!
//! Because a backend may be deliberately faulty, nothing in this module
//! may panic or allocate unboundedly on garbage scan results: derived
//! index vectors are range-clamped and scatters drop out-of-range
//! destinations. (A *verified* backend — see the `scan-fault` crate —
//! never produces garbage; the clamps are for raw faulty backends.)

use std::any::{Any, TypeId};

use scan_core::element::ScanElem;
use scan_core::op::{And, Max, Min, Or, ScanOp, Sum};
use scan_core::ops::Bucket;
use scan_core::segmented::Segments;
use scan_core::simulate::{self, PrimitiveScans};
use scan_core::{segops, Allocation};

/// Adapter so the `simulate` constructions (generic over
/// `B: PrimitiveScans`) can run over a `&dyn PrimitiveScans`.
struct ByRef<'a>(&'a dyn PrimitiveScans);

impl PrimitiveScans for ByRef<'_> {
    fn plus_scan(&self, a: &[u64]) -> Vec<u64> {
        self.0.plus_scan(a)
    }
    fn max_scan(&self, a: &[u64]) -> Vec<u64> {
        self.0.max_scan(a)
    }
}

// ----- element conversions -----

fn downcast_vec<T: ScanElem, U: ScanElem>(a: &[T]) -> Option<Vec<U>> {
    a.iter()
        .map(|x| (x as &dyn Any).downcast_ref::<U>().copied())
        .collect()
}

fn upcast_vec<T: ScanElem, U: ScanElem>(v: Vec<U>) -> Option<Vec<T>> {
    v.iter()
        .map(|x| (x as &dyn Any).downcast_ref::<T>().copied())
        .collect()
}

/// An unsigned vector widened to the backend's `u64` words; `None` for
/// element types that are not unsigned machine words.
fn to_words<T: ScanElem>(a: &[T]) -> Option<Vec<u64>> {
    let t = TypeId::of::<T>();
    if t == TypeId::of::<u64>() {
        downcast_vec::<T, u64>(a)
    } else if t == TypeId::of::<usize>() {
        downcast_vec::<T, usize>(a).map(|v| v.into_iter().map(|x| x as u64).collect())
    } else if t == TypeId::of::<u32>() {
        downcast_vec::<T, u32>(a).map(|v| v.into_iter().map(u64::from).collect())
    } else if t == TypeId::of::<u16>() {
        downcast_vec::<T, u16>(a).map(|v| v.into_iter().map(u64::from).collect())
    } else if t == TypeId::of::<u8>() {
        downcast_vec::<T, u8>(a).map(|v| v.into_iter().map(u64::from).collect())
    } else {
        None
    }
}

/// Narrow `u64` words back to the unsigned element type. Truncating
/// (`as`) on purpose: the paper's machine wraps at the field width, and
/// wrapping sums commute with truncation.
fn from_words<T: ScanElem>(w: &[u64]) -> Option<Vec<T>> {
    let t = TypeId::of::<T>();
    if t == TypeId::of::<u64>() {
        upcast_vec::<T, u64>(w.to_vec())
    } else if t == TypeId::of::<usize>() {
        upcast_vec::<T, usize>(w.iter().map(|&x| x as usize).collect())
    } else if t == TypeId::of::<u32>() {
        upcast_vec::<T, u32>(w.iter().map(|&x| x as u32).collect())
    } else if t == TypeId::of::<u16>() {
        upcast_vec::<T, u16>(w.iter().map(|&x| x as u16).collect())
    } else if t == TypeId::of::<u8>() {
        upcast_vec::<T, u8>(w.iter().map(|&x| x as u8).collect())
    } else {
        None
    }
}

fn bits_for(v: u64) -> u32 {
    64 - v.leading_zeros()
}

// ----- unsegmented scans -----

/// Exclusive forward scan via the backend primitives (§3.4 dispatch).
pub(crate) fn scan<O: ScanOp<T>, T: ScanElem>(b: &dyn PrimitiveScans, a: &[T]) -> Option<Vec<T>> {
    let op = TypeId::of::<O>();
    let t = TypeId::of::<T>();
    let (sum, max, min) = (
        op == TypeId::of::<Sum>(),
        op == TypeId::of::<Max>(),
        op == TypeId::of::<Min>(),
    );
    if t == TypeId::of::<bool>() {
        // or-scan / and-scan are 1-bit max/min scans.
        let v = downcast_vec::<T, bool>(a)?;
        let out = if op == TypeId::of::<Or>() {
            simulate::or_scan(&ByRef(b), &v)
        } else if op == TypeId::of::<And>() {
            simulate::and_scan(&ByRef(b), &v)
        } else {
            return None;
        };
        return upcast_vec(out);
    }
    if sum || max || min {
        if let Some(words) = to_words(a) {
            let out = if sum {
                b.plus_scan(&words)
            } else if max {
                b.max_scan(&words)
            } else {
                simulate::min_scan_u64(&ByRef(b), &words)
            };
            return from_words(&out);
        }
        if t == TypeId::of::<i64>() {
            let v = downcast_vec::<T, i64>(a)?;
            let out = if sum {
                simulate::plus_scan_i64(&ByRef(b), &v)
            } else if max {
                simulate::max_scan_i64(&ByRef(b), &v)
            } else {
                simulate::min_scan_i64(&ByRef(b), &v)
            };
            return upcast_vec(out);
        }
        if t == TypeId::of::<f64>() && !sum {
            let v = downcast_vec::<T, f64>(a)?;
            let out = if max {
                simulate::max_scan_f64(&ByRef(b), &v)
            } else {
                simulate::min_scan_f64(&ByRef(b), &v)
            };
            return upcast_vec(out);
        }
    }
    None
}

/// Exclusive backward scan: read the vector in reverse order (§3.4).
pub(crate) fn scan_backward<O: ScanOp<T>, T: ScanElem>(
    b: &dyn PrimitiveScans,
    a: &[T],
) -> Option<Vec<T>> {
    let rev: Vec<T> = a.iter().rev().copied().collect();
    let mut out = scan::<O, T>(b, &rev)?;
    out.reverse();
    Some(out)
}

/// Exclusive scan plus the reduction total.
pub(crate) fn scan_with_total<O: ScanOp<T>, T: ScanElem>(
    b: &dyn PrimitiveScans,
    a: &[T],
) -> Option<(Vec<T>, T)> {
    let excl = scan::<O, T>(b, a)?;
    let total = match (excl.last(), a.last()) {
        (Some(&e), Some(&x)) => O::combine(e, x),
        _ => O::identity(),
    };
    Some((excl, total))
}

// ----- segmented scans (Figure 16) -----

/// Exclusive segmented scan over unsigned words via the Figure 16
/// composite construction. `None` if the operator has no construction
/// or the values don't leave room for the segment-number append.
pub(crate) fn seg_scan<O: ScanOp<T>, T: ScanElem>(
    b: &dyn PrimitiveScans,
    a: &[T],
    segs: &Segments,
) -> Option<Vec<T>> {
    let words = to_words(a)?;
    if words.len() != segs.len() {
        return None;
    }
    if words.is_empty() {
        return Some(Vec::new());
    }
    let op = TypeId::of::<O>();
    let out = if op == TypeId::of::<Max>() {
        let value_bits = words.iter().map(|&w| bits_for(w)).max().unwrap_or(0);
        simulate::seg_max_scan_via_primitives(&ByRef(b), &words, segs, value_bits).ok()?
    } else if op == TypeId::of::<Sum>() {
        // The head-copy rides on the composite, so the running totals
        // must fit; if the true sum overflows u64 the software kernels
        // handle the wrapping case instead.
        let total = words.iter().try_fold(0u64, |acc, &w| acc.checked_add(w))?;
        let value_bits = bits_for(total);
        simulate::seg_plus_scan_via_primitives(&ByRef(b), &words, segs, value_bits).ok()?
    } else {
        return None;
    };
    from_words(&out)
}

/// Segment head flags of the reversed vector: a reversed position
/// starts a segment where the original position *ended* one.
fn reversed_segments(segs: &Segments) -> Segments {
    let flags = segs.flags();
    let n = flags.len();
    let rev: Vec<bool> = (0..n)
        .map(|i| {
            let j = n - 1 - i;
            j == n - 1 || flags[j + 1]
        })
        .collect();
    Segments::from_flags(rev)
}

/// Exclusive backward segmented scan by reversing values and segments.
pub(crate) fn seg_scan_backward<O: ScanOp<T>, T: ScanElem>(
    b: &dyn PrimitiveScans,
    a: &[T],
    segs: &Segments,
) -> Option<Vec<T>> {
    if a.len() != segs.len() {
        return None;
    }
    let rev: Vec<T> = a.iter().rev().copied().collect();
    let mut out = seg_scan::<O, T>(b, &rev, &reversed_segments(segs))?;
    out.reverse();
    Some(out)
}

/// Segmented head-copy: mark heads, segmented max-scan, take the
/// running max (every non-head in the marked vector is 0).
pub(crate) fn seg_copy<T: ScanElem>(
    b: &dyn PrimitiveScans,
    a: &[T],
    segs: &Segments,
) -> Option<Vec<T>> {
    let words = to_words(a)?;
    if words.len() != segs.len() {
        return None;
    }
    if words.is_empty() {
        return Some(Vec::new());
    }
    let marked: Vec<u64> = words
        .iter()
        .enumerate()
        .map(|(i, &w)| if segs.is_head(i) { w } else { 0 })
        .collect();
    let value_bits = marked.iter().map(|&w| bits_for(w)).max().unwrap_or(0);
    let excl = simulate::seg_max_scan_via_primitives(&ByRef(b), &marked, segs, value_bits).ok()?;
    let out: Vec<u64> = excl.iter().zip(&marked).map(|(&e, &m)| e.max(m)).collect();
    from_words(&out)
}

/// Backward segmented head-copy: each segment's *last* element copied
/// across the segment.
pub(crate) fn seg_copy_backward<T: ScanElem>(
    b: &dyn PrimitiveScans,
    a: &[T],
    segs: &Segments,
) -> Option<Vec<T>> {
    if a.len() != segs.len() {
        return None;
    }
    let rev: Vec<T> = a.iter().rev().copied().collect();
    let mut out = seg_copy(b, &rev, &reversed_segments(segs))?;
    out.reverse();
    Some(out)
}

/// Segmented `⊕-distribute`: inclusive segmented scan, then copy each
/// segment's final (total) value backward across the segment.
pub(crate) fn seg_distribute<O: ScanOp<T>, T: ScanElem>(
    b: &dyn PrimitiveScans,
    a: &[T],
    segs: &Segments,
) -> Option<Vec<T>> {
    let excl = seg_scan::<O, T>(b, a, segs)?;
    if excl.len() != a.len() {
        return None;
    }
    let incl: Vec<T> = excl
        .iter()
        .zip(a)
        .map(|(&e, &x)| O::combine(e, x))
        .collect();
    seg_copy_backward(b, &incl, segs)
}

// ----- derived simple operations -----

/// `enumerate` via one backend `+-scan` of the 0/1 flag words.
pub(crate) fn enumerate(b: &dyn PrimitiveScans, flags: &[bool]) -> Vec<usize> {
    let ones: Vec<u64> = flags.iter().map(|&f| u64::from(f)).collect();
    b.plus_scan(&ones).iter().map(|&x| x as usize).collect()
}

/// Backward `enumerate` (count of trues strictly after each position).
pub(crate) fn back_enumerate(b: &dyn PrimitiveScans, flags: &[bool]) -> Vec<usize> {
    let ones: Vec<u64> = flags.iter().rev().map(|&f| u64::from(f)).collect();
    let mut out: Vec<usize> = b.plus_scan(&ones).iter().map(|&x| x as usize).collect();
    out.reverse();
    out
}

/// Count of true flags via the backend scan (exclusive last + last).
pub(crate) fn count(b: &dyn PrimitiveScans, flags: &[bool]) -> usize {
    match flags.last() {
        None => 0,
        Some(&last) => {
            let e = enumerate(b, flags);
            // Clamp: a faulty backend may report an absurd count.
            e.last()
                .map_or(0, |&x| x.saturating_add(usize::from(last)))
                .min(flags.len())
        }
    }
}

/// Defensive permute for backend-derived index vectors: out-of-range
/// destinations (possible only under a faulty backend) are dropped
/// rather than panicking.
fn scatter_permute<T: ScanElem>(a: &[T], idx: &[usize]) -> Vec<T> {
    if a.is_empty() {
        return Vec::new();
    }
    let mut out = vec![a[0]; a.len()];
    for (i, &d) in idx.iter().enumerate() {
        if d < out.len() {
            if let Some(&v) = a.get(i) {
                out[d] = v;
            }
        }
    }
    out
}

/// `pack` (Figure 11): backend enumerate of the keep flags, then
/// scatter the kept elements to their destinations.
pub(crate) fn pack<T: ScanElem>(b: &dyn PrimitiveScans, a: &[T], keep: &[bool]) -> Vec<T> {
    let n = a.len();
    if n == 0 {
        return Vec::new();
    }
    let dest = enumerate(b, keep);
    let total = dest
        .last()
        .map_or(0, |&x| x.saturating_add(usize::from(keep[n - 1])))
        .min(n);
    if total == 0 {
        return Vec::new();
    }
    let mut out = vec![a[0]; total];
    for i in 0..n {
        if keep[i] {
            if let Some(&d) = dest.get(i) {
                if d < total {
                    out[d] = a[i];
                }
            }
        }
    }
    out
}

/// `split` (Figure 3): two backend enumerates build the destination
/// index vector, then one permute.
pub(crate) fn split_count<T: ScanElem>(
    b: &dyn PrimitiveScans,
    a: &[T],
    flags: &[bool],
) -> (Vec<T>, usize) {
    let n = a.len();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let not_flags: Vec<bool> = flags.iter().map(|&f| !f).collect();
    let i_down = enumerate(b, &not_flags);
    let n_false = i_down
        .last()
        .map_or(0, |&x| x.saturating_add(usize::from(not_flags[n - 1])))
        .min(n);
    let i_true = enumerate(b, flags);
    let idx: Vec<usize> = (0..n)
        .map(|i| {
            if flags[i] {
                n_false.saturating_add(i_true.get(i).copied().unwrap_or(0))
            } else {
                i_down.get(i).copied().unwrap_or(0)
            }
        })
        .collect();
    (scatter_permute(a, &idx), n_false)
}

/// Three-way split: three backend enumerates, one permute.
pub(crate) fn split3<T: ScanElem>(
    b: &dyn PrimitiveScans,
    a: &[T],
    buckets: &[Bucket],
) -> (Vec<T>, usize, usize) {
    let n = a.len();
    if n == 0 {
        return (Vec::new(), 0, 0);
    }
    let lo: Vec<bool> = buckets.iter().map(|&x| x == Bucket::Lo).collect();
    let mid: Vec<bool> = buckets.iter().map(|&x| x == Bucket::Mid).collect();
    let hi: Vec<bool> = buckets.iter().map(|&x| x == Bucket::Hi).collect();
    let lo_scan = enumerate(b, &lo);
    let mid_scan = enumerate(b, &mid);
    let hi_scan = enumerate(b, &hi);
    let n_lo = lo_scan
        .last()
        .map_or(0, |&x| x.saturating_add(usize::from(lo[n - 1])))
        .min(n);
    let n_mid = mid_scan
        .last()
        .map_or(0, |&x| x.saturating_add(usize::from(mid[n - 1])))
        .min(n);
    let rank = |v: &[usize], i: usize| v.get(i).copied().unwrap_or(0);
    let idx: Vec<usize> = (0..n)
        .map(|i| match buckets[i] {
            Bucket::Lo => rank(&lo_scan, i),
            Bucket::Mid => n_lo.saturating_add(rank(&mid_scan, i)),
            Bucket::Hi => n_lo.saturating_add(n_mid).saturating_add(rank(&hi_scan, i)),
        })
        .collect();
    (scatter_permute(a, &idx), n_lo, n_mid)
}

/// `flag_merge` (§2.5.1): source ranks from two backend enumerates.
/// Caller has validated lengths and the true-count.
pub(crate) fn flag_merge<T: ScanElem>(
    be: &dyn PrimitiveScans,
    flags: &[bool],
    a: &[T],
    b: &[T],
) -> Vec<T> {
    let n = flags.len();
    if n == 0 {
        return Vec::new();
    }
    let fill = if a.is_empty() { b[0] } else { a[0] };
    let not_flags: Vec<bool> = flags.iter().map(|&f| !f).collect();
    let ia = enumerate(be, &not_flags);
    let ib = enumerate(be, flags);
    (0..n)
        .map(|i| {
            let v = if flags[i] {
                ib.get(i).and_then(|&r| b.get(r))
            } else {
                ia.get(i).and_then(|&r| a.get(r))
            };
            v.copied().unwrap_or(fill)
        })
        .collect()
}

// ----- allocation -----

/// Processor allocation (Figure 8) with the `+-scan` on the backend.
pub(crate) fn allocate(b: &dyn PrimitiveScans, counts: &[usize]) -> Allocation {
    // The clamp total recomputes the sum sequentially; it only guards
    // allocation size against a faulty backend's garbage scan values.
    let true_total: usize = counts.iter().sum();
    let words: Vec<u64> = counts.iter().map(|&c| c as u64).collect();
    let starts_w = b.plus_scan(&words);
    let total = match (starts_w.last(), words.last()) {
        (Some(&s), Some(&w)) => ((s as usize).saturating_add(w as usize)).min(true_total),
        _ => 0,
    };
    let starts: Vec<usize> = starts_w.iter().map(|&s| (s as usize).min(total)).collect();
    let mut flags = vec![false; total];
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 {
            if let Some(f) = starts.get(i).and_then(|&s| flags.get_mut(s)) {
                *f = true;
            }
        }
    }
    Allocation {
        total,
        starts,
        segments: Segments::from_flags(flags),
    }
}

/// Allocate-and-distribute (Figure 8) over the backend: scan for the
/// start pointers, scatter the values, segmented head-copy.
pub(crate) fn distribute<T: ScanElem>(
    b: &dyn PrimitiveScans,
    values: &[T],
    counts: &[usize],
) -> Vec<T> {
    let alloc = allocate(b, counts);
    if alloc.total == 0 || values.is_empty() {
        return Vec::new();
    }
    let mut heads: Vec<T> = vec![values[0]; alloc.total];
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 {
            if let (Some(&s), Some(&v)) = (alloc.starts.get(i), values.get(i)) {
                if s < alloc.total {
                    heads[s] = v;
                }
            }
        }
    }
    seg_copy(b, &heads, &alloc.segments)
        .unwrap_or_else(|| segops::seg_copy(&heads, &alloc.segments))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_core::op::Prod;
    use scan_core::simulate::SoftwareScans;
    use scan_core::{ops, scan as core_scan, segmented};

    fn sw() -> SoftwareScans {
        SoftwareScans
    }

    #[test]
    fn routed_scans_match_software() {
        let a: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6];
        assert_eq!(
            scan::<Sum, u64>(&sw(), &a).unwrap(),
            core_scan::<Sum, _>(&a)
        );
        assert_eq!(
            scan::<Max, u64>(&sw(), &a).unwrap(),
            core_scan::<Max, _>(&a)
        );
        assert_eq!(
            scan::<Min, u64>(&sw(), &a).unwrap(),
            core_scan::<Min, _>(&a)
        );
        let u: Vec<usize> = vec![2, 7, 1, 8];
        assert_eq!(
            scan::<Sum, usize>(&sw(), &u).unwrap(),
            core_scan::<Sum, _>(&u)
        );
        let s: Vec<i64> = vec![-3, 5, -1, 2];
        assert_eq!(
            scan::<Sum, i64>(&sw(), &s).unwrap(),
            core_scan::<Sum, _>(&s)
        );
        assert_eq!(
            scan::<Min, i64>(&sw(), &s).unwrap(),
            core_scan::<Min, _>(&s)
        );
        let f: Vec<f64> = vec![1.5, -2.0, 0.25, 3.0];
        assert_eq!(
            scan::<Max, f64>(&sw(), &f).unwrap(),
            core_scan::<Max, _>(&f)
        );
        let bools = vec![false, true, false, false, true];
        assert_eq!(
            scan::<Or, bool>(&sw(), &bools).unwrap(),
            core_scan::<Or, _>(&bools)
        );
        assert_eq!(
            scan::<And, bool>(&sw(), &bools).unwrap(),
            core_scan::<And, _>(&bools)
        );
        // No §3.4 construction: falls back.
        assert_eq!(scan::<Prod, u64>(&sw(), &a), None);
        assert_eq!(scan::<Sum, f64>(&sw(), &f), None);
    }

    #[test]
    fn routed_backward_and_total_match_software() {
        let a: Vec<u64> = vec![2, 1, 2, 3, 5];
        assert_eq!(
            scan_backward::<Sum, u64>(&sw(), &a).unwrap(),
            scan_core::scan_backward::<Sum, _>(&a)
        );
        let (excl, total) = scan_with_total::<Sum, u64>(&sw(), &a).unwrap();
        let (e2, t2) = scan_core::scan_with_total::<Sum, _>(&a);
        assert_eq!((excl, total), (e2, t2));
    }

    #[test]
    fn routed_segmented_ops_match_software() {
        let a: Vec<u64> = vec![5, 1, 3, 4, 3, 9, 2, 6];
        let segs = Segments::from_lengths(&[2, 4, 2]);
        assert_eq!(
            seg_scan::<Sum, u64>(&sw(), &a, &segs).unwrap(),
            segmented::seg_scan::<Sum, _>(&a, &segs)
        );
        assert_eq!(
            seg_scan::<Max, u64>(&sw(), &a, &segs).unwrap(),
            segmented::seg_scan::<Max, _>(&a, &segs)
        );
        assert_eq!(
            seg_scan_backward::<Sum, u64>(&sw(), &a, &segs).unwrap(),
            segmented::seg_scan_backward::<Sum, _>(&a, &segs)
        );
        assert_eq!(
            seg_copy(&sw(), &a, &segs).unwrap(),
            segops::seg_copy(&a, &segs)
        );
        assert_eq!(
            seg_distribute::<Sum, u64>(&sw(), &a, &segs).unwrap(),
            segops::seg_distribute::<Sum, _>(&a, &segs)
        );
        assert_eq!(
            seg_distribute::<Max, u64>(&sw(), &a, &segs).unwrap(),
            segops::seg_distribute::<Max, _>(&a, &segs)
        );
    }

    #[test]
    fn routed_derived_ops_match_software() {
        let flags = vec![true, false, false, true, false, true, true, false];
        assert_eq!(enumerate(&sw(), &flags), ops::enumerate(&flags));
        assert_eq!(back_enumerate(&sw(), &flags), ops::back_enumerate(&flags));
        assert_eq!(count(&sw(), &flags), ops::count(&flags));
        let a = [5u32, 7, 3, 1, 4, 2, 7, 2];
        assert_eq!(pack(&sw(), &a, &flags), ops::pack(&a, &flags));
        assert_eq!(split_count(&sw(), &a, &flags), ops::split_count(&a, &flags));
        use Bucket::*;
        let buckets = [Lo, Hi, Mid, Lo, Hi, Mid, Lo, Hi];
        assert_eq!(split3(&sw(), &a, &buckets), ops::split3(&a, &buckets));
        let m_flags = [false, true, true, false, true];
        let (xs, ys) = ([1u32, 4], [2u32, 3, 5]);
        assert_eq!(
            flag_merge(&sw(), &m_flags, &xs, &ys),
            ops::flag_merge(&m_flags, &xs, &ys)
        );
    }

    #[test]
    fn routed_allocation_matches_software() {
        let counts = [4usize, 0, 1, 3];
        let routed = allocate(&sw(), &counts);
        let soft = scan_core::allocate(&counts);
        assert_eq!(routed, soft);
        assert_eq!(
            distribute(&sw(), &[9u32, 8, 1, 2], &counts),
            scan_core::distribute(&[9u32, 8, 1, 2], &counts)
        );
    }

    /// A backend that returns garbage: huge values of the wrong length.
    struct Garbage;
    impl PrimitiveScans for Garbage {
        fn plus_scan(&self, a: &[u64]) -> Vec<u64> {
            vec![u64::MAX; a.len() / 2 + 1]
        }
        fn max_scan(&self, a: &[u64]) -> Vec<u64> {
            vec![u64::MAX - 1; a.len() + 3]
        }
    }

    #[test]
    fn garbage_backend_never_panics_or_overallocates() {
        let a = [5u64, 7, 3, 1];
        let flags = [true, false, true, false];
        // Results are wrong (that's the point of a faulty backend) but
        // every call stays in-bounds and panic-free.
        let _ = scan::<Sum, u64>(&Garbage, &a);
        let _ = scan::<Min, u64>(&Garbage, &a);
        let _ = enumerate(&Garbage, &flags);
        assert!(count(&Garbage, &flags) <= flags.len());
        let p = pack(&Garbage, &a, &flags);
        assert!(p.len() <= a.len());
        let (s, nf) = split_count(&Garbage, &a, &flags);
        assert_eq!(s.len(), a.len());
        assert!(nf <= a.len());
        let al = allocate(&Garbage, &[3, 1, 2]);
        assert!(al.total <= 6);
        let d = distribute(&Garbage, &[1u64, 2, 3], &[3, 1, 2]);
        assert!(d.len() <= 6);
    }

    #[test]
    fn reversed_segments_mark_old_ends() {
        let segs = Segments::from_lengths(&[2, 3, 1]);
        let rev = reversed_segments(&segs);
        assert_eq!(rev.lengths(), vec![1, 3, 2]);
    }
}
