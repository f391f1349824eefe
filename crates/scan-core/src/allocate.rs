//! Processor allocation (paper §2.4, Figure 8).
//!
//! Given a vector of integers `A`, allocation creates a new vector of
//! length `Σ A[i]` with `A[i]` contiguous elements *assigned to* each
//! position `i`. The paper implements it with a `+-scan` whose results
//! become pointers to the start of each allocated segment; segment head
//! flags are then scattered through those pointers, and values are
//! distributed with a permute plus a segmented copy.
//!
//! ```
//! use scan_core::{allocate, distribute};
//! // Figure 8: V = [v1 v2 v3], A = [4 1 3]
//! let alloc = allocate(&[4, 1, 3]);
//! assert_eq!(alloc.total, 8);
//! assert_eq!(alloc.starts, vec![0, 4, 5]);
//! assert_eq!(
//!     alloc.segments.flags(),
//!     &[true, false, false, false, true, true, false, false]
//! );
//! assert_eq!(
//!     distribute(&["v1", "v2", "v3"], &[4, 1, 3]),
//!     vec!["v1", "v1", "v1", "v1", "v2", "v3", "v3", "v3"]
//! );
//! ```

use crate::element::ScanElem;
use crate::error::{Error, Result};
use crate::op::Sum;
use crate::scan::scan_with_total;
use crate::segmented::Segments;
use crate::segops::seg_copy;

/// The result of a processor allocation: one segment per *nonzero*
/// request, plus the start pointer of every request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Total number of elements allocated (`Σ counts`).
    pub total: usize,
    /// `starts[i]` is the index in the new vector where request `i`'s
    /// elements begin (the `+-scan` of the counts — Figure 8's
    /// "Hpointers"). Requests with `counts[i] == 0` still get a start
    /// pointer but own no elements.
    pub starts: Vec<usize>,
    /// Segmentation of the new vector: one segment per nonzero request.
    pub segments: Segments,
}

/// Allocate `counts[i]` contiguous new elements to each position `i`.
pub fn allocate(counts: &[usize]) -> Allocation {
    let (starts, total) = scan_with_total::<Sum, _>(counts);
    let mut flags = vec![false; total];
    for (i, &c) in counts.iter().enumerate() {
        // Scatter a head flag through the start pointer; zero-count
        // requests scatter nothing (their pointer aliases the next
        // request's start).
        if c > 0 {
            flags[starts[i]] = true;
        }
    }
    Allocation {
        total,
        starts,
        segments: Segments::from_flags(flags),
    }
}

/// Allocate and distribute: the value at position `i` is copied to all
/// `counts[i]` elements assigned to it (Figure 8's `distribute`).
///
/// # Panics
/// If `values.len() != counts.len()`. See [`try_distribute`] for the
/// checked form.
pub fn distribute<T: ScanElem>(values: &[T], counts: &[usize]) -> Vec<T> {
    distribute_impl(values, counts).unwrap_or_else(|e| panic!("distribute length mismatch: {e}"))
}

/// Checked [`distribute`]: `Err(Error::LengthMismatch)` instead of
/// panicking. Honors the ambient [`crate::deadline`] scope.
pub fn try_distribute<T: ScanElem>(values: &[T], counts: &[usize]) -> Result<Vec<T>> {
    crate::deadline::checkpoint()?;
    distribute_impl(values, counts)
}

fn distribute_impl<T: ScanElem>(values: &[T], counts: &[usize]) -> Result<Vec<T>> {
    if values.len() != counts.len() {
        return Err(Error::LengthMismatch {
            expected: values.len(),
            actual: counts.len(),
        });
    }
    let alloc = allocate(counts);
    if alloc.total == 0 {
        return Ok(Vec::new());
    }
    // Permute each value to the head of its segment, then copy across
    // the segment. Positions not at a head get a placeholder that the
    // segmented copy overwrites.
    let mut heads: Vec<T> = vec![values[0]; alloc.total];
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 {
            heads[alloc.starts[i]] = values[i];
        }
    }
    Ok(seg_copy(&heads, &alloc.segments))
}

/// For each allocated element, the index of the request that owns it
/// (the inverse mapping of [`allocate`]).
pub fn owner_of_each(counts: &[usize]) -> Vec<usize> {
    let owners: Vec<usize> = (0..counts.len()).collect();
    distribute(&owners, counts)
}

/// For each allocated element, its rank within its own segment
/// (0-based). In the line-drawing algorithm (§2.4.1) this is the pixel's
/// position along its line, "determined with a +-scan".
pub fn rank_within_segment(counts: &[usize]) -> Vec<usize> {
    let alloc = allocate(counts);
    let ones = vec![1usize; alloc.total];
    crate::segmented::seg_scan::<Sum, _>(&ones, &alloc.segments)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure8_allocation() {
        let alloc = allocate(&[4, 1, 3]);
        assert_eq!(alloc.total, 8);
        assert_eq!(alloc.starts, vec![0, 4, 5]);
        assert_eq!(
            alloc.segments.flags(),
            &[true, false, false, false, true, true, false, false]
        );
        assert_eq!(alloc.segments.lengths(), vec![4, 1, 3]);
    }

    #[test]
    fn figure8_distribute() {
        assert_eq!(
            distribute(&[1u32, 2, 3], &[4, 1, 3]),
            vec![1, 1, 1, 1, 2, 3, 3, 3]
        );
    }

    #[test]
    fn zero_counts_are_skipped() {
        let alloc = allocate(&[0, 2, 0, 3, 0]);
        assert_eq!(alloc.total, 5);
        assert_eq!(alloc.starts, vec![0, 0, 2, 2, 5]);
        assert_eq!(alloc.segments.lengths(), vec![2, 3]);
        assert_eq!(
            distribute(&[9u32, 1, 9, 2, 9], &[0, 2, 0, 3, 0]),
            vec![1, 1, 2, 2, 2]
        );
    }

    #[test]
    fn all_zero_and_empty() {
        assert_eq!(allocate(&[0, 0]).total, 0);
        assert_eq!(distribute(&[1u32, 2], &[0, 0]), Vec::<u32>::new());
        assert_eq!(allocate(&[]).total, 0);
    }

    #[test]
    fn owners_and_ranks() {
        assert_eq!(owner_of_each(&[2, 0, 3]), vec![0, 0, 2, 2, 2]);
        assert_eq!(rank_within_segment(&[2, 0, 3]), vec![0, 1, 0, 1, 2]);
    }

    #[test]
    fn try_distribute_checks_lengths() {
        assert_eq!(try_distribute(&[1u32, 2], &[1, 2]), Ok(vec![1, 2, 2]));
        assert_eq!(
            try_distribute(&[1u32], &[1, 2]),
            Err(crate::error::Error::LengthMismatch {
                expected: 1,
                actual: 2
            })
        );
    }

    #[test]
    fn leading_zero_count() {
        let alloc = allocate(&[0, 3]);
        assert_eq!(alloc.starts, vec![0, 0]);
        assert_eq!(alloc.segments.flags(), &[true, false, false]);
        assert_eq!(distribute(&[7u32, 8], &[0, 3]), vec![8, 8, 8]);
    }
}
