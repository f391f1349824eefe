//! Segmented scans (paper §2.3, Figure 4).
//!
//! Segmented scans break the linear order of the processors into
//! *segments* and restart the scan at the beginning of each segment. They
//! are the workhorse of the paper's divide-and-conquer algorithms
//! (quicksort, §2.3.1) and of the segmented graph representation
//! (§2.3.2).
//!
//! A segmentation is described by a vector of flags, one per element,
//! where a `true` flag marks the **first element of a segment**. Element 0
//! always starts a segment, whether or not its flag is set (the paper's
//! figures always set it).
//!
//! A segmented scan is the plain scan over the `(value, flag)` pair
//! operator [`seg_combine`], so every scan here is one [`Scan`] with
//! [`Scan::segments`] set; a range of a longer input sets
//! [`Scan::heads`] instead, whose first element is a head only if
//! flagged, and threads the pair carry between ranges.
//!
//! ```
//! use scan_core::{seg_scan, Segments, op::{Sum, Max}};
//! // Figure 4:
//! // A  = [5 1 3 4 3 9 2 6],  Sb = [T F T F F F T F]
//! let a = [5u32, 1, 3, 4, 3, 9, 2, 6];
//! let sb = Segments::from_flags(vec![true, false, true, false, false, false, true, false]);
//! assert_eq!(seg_scan::<Sum, _>(&a, &sb), vec![0, 5, 0, 3, 7, 10, 0, 2]);
//! assert_eq!(seg_scan::<Max, _>(&a, &sb), vec![0, 5, 0, 3, 4, 4, 0, 2]);
//! ```

use crate::element::ScanElem;
use crate::op::ScanOp;
use crate::parallel;
use crate::scan::Scan;

/// A segmentation of a vector: head flags plus derived bookkeeping.
///
/// Invariant: `flags.len()` equals the length of the vectors it segments;
/// element 0 is always treated as a segment head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segments {
    flags: Vec<bool>,
}

impl Segments {
    /// Build from head flags. Element 0 is a head even if `flags[0]` is
    /// `false`.
    pub fn from_flags(flags: Vec<bool>) -> Self {
        Segments { flags }
    }

    /// Build a segmentation with the given segment lengths. Zero lengths
    /// are allowed and contribute no elements (and no head).
    ///
    /// ```
    /// use scan_core::Segments;
    /// let s = Segments::from_lengths(&[2, 3, 1]);
    /// assert_eq!(s.flags(), &[true, false, true, false, false, true]);
    /// ```
    pub fn from_lengths(lengths: &[usize]) -> Self {
        let total: usize = lengths.iter().sum();
        let mut flags = vec![false; total];
        let mut pos = 0;
        for &l in lengths {
            if l > 0 {
                flags[pos] = true;
                pos += l;
            }
        }
        Segments { flags }
    }

    /// A single segment covering `n` elements.
    pub fn single(n: usize) -> Self {
        let mut flags = vec![false; n];
        if n > 0 {
            flags[0] = true;
        }
        Segments { flags }
    }

    /// Number of elements covered.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// True when the segmentation covers no elements.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// The raw head-flag vector.
    pub fn flags(&self) -> &[bool] {
        &self.flags
    }

    /// Consume into the raw head-flag vector.
    pub fn into_flags(self) -> Vec<bool> {
        self.flags
    }

    /// Is element `i` a segment head? Element 0 always is.
    #[inline]
    pub fn is_head(&self, i: usize) -> bool {
        i == 0 || self.flags[i]
    }

    /// Number of segments (zero-length segments are not representable and
    /// therefore not counted).
    pub fn count(&self) -> usize {
        if self.flags.is_empty() {
            return 0;
        }
        1 + self.flags[1..].iter().filter(|&&f| f).count()
    }

    /// Start index of every segment, ascending.
    pub fn head_positions(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.is_head(i)).collect()
    }

    /// Length of every segment, in order.
    pub fn lengths(&self) -> Vec<usize> {
        let heads = self.head_positions();
        heads
            .iter()
            .enumerate()
            .map(|(k, &h)| {
                let end = heads.get(k + 1).copied().unwrap_or(self.len());
                end - h
            })
            .collect()
    }

    /// For every element, the index of the segment it belongs to
    /// (0-based, ascending).
    ///
    /// Computed as an inclusive `+`-scan of the head flags, minus one —
    /// the `Seg-Number` vector of the paper's Figure 16. The flag
    /// vector is loaded on the fly; no 0/1 vector is materialized.
    pub fn segment_ids(&self) -> Vec<usize> {
        let Ok((out, _)) = parallel::engine(
            parallel::default_schedule(),
            self.len(),
            |i| usize::from(self.is_head(i)),
            0usize,
            |a, b| a.wrapping_add(b),
            |_, s| s - 1,
            parallel::Mode::InclusiveFwd,
            parallel::NoDeadline,
        );
        out
    }

    /// For every element, the index of its segment's head element.
    ///
    /// Computed as a fused inclusive `max`-scan of `flag ? index : 0`.
    pub fn head_index_per_element(&self) -> Vec<usize> {
        let Ok((out, _)) = parallel::engine(
            parallel::default_schedule(),
            self.len(),
            |i| if self.is_head(i) { i } else { 0 },
            0usize,
            |a, b| a.max(b),
            |_, s| s,
            parallel::Mode::InclusiveFwd,
            parallel::NoDeadline,
        );
        out
    }

    /// Iterate over the `(start, end)` half-open range of every segment.
    pub fn ranges(&self) -> Vec<(usize, usize)> {
        let heads = self.head_positions();
        heads
            .iter()
            .enumerate()
            .map(|(k, &h)| (h, heads.get(k + 1).copied().unwrap_or(self.len())))
            .collect()
    }

    /// The segmentation of the reversed vector: heads become positions
    /// just past the old segment *ends*. Used to derive backward
    /// segmented scans by "reading the vector in reverse order" (§3.4).
    pub fn reversed(&self) -> Segments {
        let n = self.len();
        let flags = (0..n).map(|j| j == 0 || self.is_head(n - j)).collect();
        Segments { flags }
    }
}

/// The pair operator that turns any scan into a segmented scan.
///
/// Combining `(v1, f1)` and `(v2, f2)` yields
/// `(if f2 { v2 } else { v1 ⊕ v2 }, f1 | f2)`. This operator is
/// associative whenever `⊕` is, so segmented scans run on the same
/// blocked parallel engine as plain scans — this is also how the
/// hardware implements segmented scans "with little additional
/// hardware" (§3, citing \[7]).
#[inline(always)]
pub fn seg_combine<O: ScanOp<T>, T: ScanElem>(a: (T, bool), b: (T, bool)) -> (T, bool) {
    if b.1 {
        (b.0, true)
    } else {
        (O::combine(a.0, b.0), a.1)
    }
}

/// Exclusive segmented scan: each segment head receives the identity;
/// element `i` of a segment receives the combine of the segment's
/// elements strictly before it.
///
/// Fully fused: the `(value, flag)` pairs are loaded on the fly and the
/// head-shift happens in the engine's emit step, so neither a pair
/// vector nor an inclusive intermediate is materialized.
///
/// # Panics
/// If `a.len() != segs.len()`.
pub fn seg_scan<O: ScanOp<T>, T: ScanElem>(a: &[T], segs: &Segments) -> Vec<T> {
    Scan::op::<O, T>().segments(segs).run(a).0
}

/// Inclusive segmented scan.
///
/// # Panics
/// If `a.len() != segs.len()`.
pub fn seg_inclusive_scan<O: ScanOp<T>, T: ScanElem>(a: &[T], segs: &Segments) -> Vec<T> {
    Scan::op::<O, T>().segments(segs).inclusive().run(a).0
}

/// Exclusive *backward* segmented scan: within each segment, element `i`
/// receives the combine of the segment elements strictly after it; each
/// segment's **last** element receives the identity.
///
/// Direction-aware: the engine walks the blocks right-to-left with the
/// pair operator restarting at segment *tails*, which is §3.4's
/// "reading the vector in reverse order" without allocating a reversed
/// copy of the data or of the segmentation.
///
/// # Panics
/// If `a.len() != segs.len()`.
pub fn seg_scan_backward<O: ScanOp<T>, T: ScanElem>(a: &[T], segs: &Segments) -> Vec<T> {
    Scan::op::<O, T>().segments(segs).backward().run(a).0
}

/// Inclusive backward segmented scan.
///
/// # Panics
/// If `a.len() != segs.len()`.
pub fn seg_inclusive_scan_backward<O: ScanOp<T>, T: ScanElem>(a: &[T], segs: &Segments) -> Vec<T> {
    Scan::op::<O, T>()
        .segments(segs)
        .backward()
        .inclusive()
        .run(a)
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Max, Min, Sum};

    fn fig4_segments() -> Segments {
        Segments::from_flags(vec![true, false, true, false, false, false, true, false])
    }

    #[test]
    fn figure4_examples() {
        let a = [5u32, 1, 3, 4, 3, 9, 2, 6];
        let sb = fig4_segments();
        assert_eq!(seg_scan::<Sum, _>(&a, &sb), vec![0, 5, 0, 3, 7, 10, 0, 2]);
        assert_eq!(seg_scan::<Max, _>(&a, &sb), vec![0, 5, 0, 3, 4, 4, 0, 2]);
    }

    #[test]
    fn from_lengths_roundtrip() {
        let s = Segments::from_lengths(&[2, 3, 1]);
        assert_eq!(s.lengths(), vec![2, 3, 1]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.head_positions(), vec![0, 2, 5]);
        assert_eq!(s.ranges(), vec![(0, 2), (2, 5), (5, 6)]);
    }

    #[test]
    fn from_lengths_with_zeros() {
        let s = Segments::from_lengths(&[0, 2, 0, 0, 3, 0]);
        assert_eq!(s.len(), 5);
        assert_eq!(s.lengths(), vec![2, 3]);
    }

    #[test]
    fn implicit_head_at_zero() {
        let s = Segments::from_flags(vec![false, false, true]);
        assert_eq!(s.count(), 2);
        assert!(s.is_head(0));
        assert_eq!(s.lengths(), vec![2, 1]);
    }

    #[test]
    fn segment_ids_and_heads() {
        let s = fig4_segments();
        assert_eq!(s.segment_ids(), vec![0, 0, 1, 1, 1, 1, 2, 2]);
        assert_eq!(s.head_index_per_element(), vec![0, 0, 2, 2, 2, 2, 6, 6]);
    }

    #[test]
    fn inclusive_segmented() {
        let a = [5u32, 1, 3, 4, 3, 9, 2, 6];
        let sb = fig4_segments();
        assert_eq!(
            seg_inclusive_scan::<Sum, _>(&a, &sb),
            vec![5, 6, 3, 7, 10, 19, 2, 8]
        );
    }

    #[test]
    fn backward_segmented() {
        let a = [5u32, 1, 3, 4, 3, 9, 2, 6];
        let sb = fig4_segments();
        // Segments: [5 1][3 4 3 9][2 6]; backward exclusive sums within:
        assert_eq!(
            seg_scan_backward::<Sum, _>(&a, &sb),
            vec![1, 0, 16, 12, 9, 0, 6, 0]
        );
        assert_eq!(
            seg_inclusive_scan_backward::<Sum, _>(&a, &sb),
            vec![6, 1, 19, 16, 12, 9, 8, 6]
        );
    }

    #[test]
    fn reversed_segments() {
        let s = Segments::from_lengths(&[2, 4, 2]);
        let r = s.reversed();
        assert_eq!(r.lengths(), vec![2, 4, 2]);
        let s = Segments::from_lengths(&[1, 3]);
        assert_eq!(s.reversed().lengths(), vec![3, 1]);
    }

    #[test]
    fn single_segment_matches_plain_scan() {
        let a = [3u32, 1, 4, 1, 5, 9, 2, 6];
        let s = Segments::single(a.len());
        assert_eq!(seg_scan::<Sum, _>(&a, &s), crate::scan::scan::<Sum, _>(&a));
        assert_eq!(seg_scan::<Min, _>(&a, &s), crate::scan::scan::<Min, _>(&a));
    }

    #[test]
    fn every_element_its_own_segment() {
        let a = [3u32, 1, 4];
        let s = Segments::from_flags(vec![true; 3]);
        assert_eq!(seg_scan::<Sum, _>(&a, &s), vec![0, 0, 0]);
        assert_eq!(seg_inclusive_scan::<Sum, _>(&a, &s), vec![3, 1, 4]);
    }

    #[test]
    fn empty_segmentation() {
        let a: [u32; 0] = [];
        let s = Segments::from_flags(vec![]);
        assert!(seg_scan::<Sum, _>(&a, &s).is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.lengths(), Vec::<usize>::new());
    }

    #[test]
    fn large_parallel_segmented_matches_reference() {
        let n = crate::parallel::PAR_THRESHOLD * 2 + 11;
        let a: Vec<u64> = (0..n as u64).map(|i| (i * 7919) % 1000).collect();
        let flags: Vec<bool> = (0..n).map(|i| i % 97 == 0).collect();
        let segs = Segments::from_flags(flags);
        let got = seg_scan::<Sum, _>(&a, &segs);
        // Reference: sequential per-range scans.
        let mut expect = vec![0u64; n];
        for (s, e) in segs.ranges() {
            let mut acc = 0u64;
            for i in s..e {
                expect[i] = acc;
                acc += a[i];
            }
        }
        assert_eq!(got, expect);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let s = Segments::single(3);
        seg_scan::<Sum, _>(&[1u32, 2], &s);
    }

    #[test]
    fn try_seg_scan_matches_and_reports_typed_errors() {
        use crate::deadline::{self, ScanDeadline};
        use crate::error::{Error, ExecError};
        let n = crate::parallel::PAR_THRESHOLD + 31;
        let a: Vec<u64> = (0..n as u64).map(|i| (i * 31) % 1000).collect();
        let flags: Vec<bool> = (0..n).map(|i| i % 53 == 0).collect();
        let segs = Segments::from_flags(flags);
        assert_eq!(
            Scan::op::<Sum, _>()
                .segments(&segs)
                .try_run(&a)
                .map(|r| r.0)
                .unwrap(),
            seg_scan::<Sum, _>(&a, &segs)
        );
        // Precondition violation is a typed error, not a panic.
        let short = Segments::single(3);
        assert!(matches!(
            Scan::op::<Sum, _>()
                .segments(&short)
                .try_run(&a)
                .map(|r| r.0),
            Err(Error::LengthMismatch { .. })
        ));
        // An expired ambient deadline is honored.
        let d = ScanDeadline::at(std::time::Instant::now());
        let got = deadline::with_deadline(&d, || {
            Scan::op::<Sum, _>()
                .segments(&segs)
                .try_run(&a)
                .map(|r| r.0)
        });
        assert_eq!(got, Err(Error::Exec(ExecError::DeadlineExceeded)));
    }
}
