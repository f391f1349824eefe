//! Long vectors: simulating multiple elements per processor
//! (paper §2.5, Figures 10 and 11).
//!
//! When a vector has more elements than processors, each processor is
//! assigned a contiguous block. An elementwise operation loops over the
//! block; a scan sums within blocks, scans across processors, and uses
//! the result as the offset of a within-block scan. Load balancing packs
//! surviving elements into a shorter vector and re-blocks it.

use scan_core::element::ScanElem;
use scan_core::op::ScanOp;
use scan_core::ops;
use scan_core::scan::scan as flat_scan;

/// A vector explicitly partitioned into per-processor blocks
/// (Figure 10's layout).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedVec<T> {
    data: Vec<T>,
    procs: usize,
}

impl<T: ScanElem> BlockedVec<T> {
    /// Partition `data` across `procs` processors in contiguous blocks
    /// of `⌈n/p⌉` (the last blocks may be short or empty).
    ///
    /// # Panics
    /// If `procs == 0`.
    pub fn new(data: Vec<T>, procs: usize) -> Self {
        assert!(procs > 0, "need at least one processor");
        BlockedVec { data, procs }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of processors.
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// The underlying flat data.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Consume into the flat data.
    pub fn into_data(self) -> Vec<T> {
        self.data
    }

    /// The half-open `(start, end)` range owned by each processor.
    /// Blocks are `⌈n/p⌉` long except possibly the last.
    pub fn block_ranges(&self) -> Vec<(usize, usize)> {
        let n = self.data.len();
        let b = n.div_ceil(self.procs).max(1);
        (0..self.procs)
            .map(|i| {
                let s = (i * b).min(n);
                let e = ((i + 1) * b).min(n);
                (s, e)
            })
            .collect()
    }

    /// The largest number of elements any processor is responsible for —
    /// the `⌈n/p⌉` of the paper's halving-merge analysis (Equation 2).
    pub fn max_block_len(&self) -> usize {
        self.block_ranges()
            .iter()
            .map(|&(s, e)| e - s)
            .max()
            .unwrap_or(0)
    }

    /// Elementwise map: each processor loops over its own block.
    pub fn map<U: ScanElem>(&self, f: impl Fn(T) -> U) -> BlockedVec<U> {
        // Sequential per block by construction; the blocks are what a
        // real machine would run in parallel.
        let mut out = Vec::with_capacity(self.data.len());
        for (s, e) in self.block_ranges() {
            for i in s..e {
                out.push(f(self.data[i]));
            }
        }
        BlockedVec {
            data: out,
            procs: self.procs,
        }
    }

    /// Per-processor partial reductions (Figure 10's `Sum` row).
    pub fn block_sums<O: ScanOp<T>>(&self) -> Vec<T> {
        self.block_ranges()
            .iter()
            .map(|&(s, e)| {
                let mut acc = O::identity();
                for i in s..e {
                    acc = O::combine(acc, self.data[i]);
                }
                acc
            })
            .collect()
    }

    /// Exclusive scan of a long vector, exactly as Figure 10 describes:
    /// each processor sums its elements, a scan runs across processors,
    /// and the result seeds a within-block scan.
    pub fn scan<O: ScanOp<T>>(&self) -> BlockedVec<T> {
        let sums = self.block_sums::<O>();
        let offsets = flat_scan::<O, T>(&sums);
        let mut out = vec![O::identity(); self.data.len()];
        for (p, &(s, e)) in self.block_ranges().iter().enumerate() {
            let mut acc = offsets[p];
            for (o, v) in out[s..e].iter_mut().zip(&self.data[s..e]) {
                *o = acc;
                acc = O::combine(acc, *v);
            }
        }
        BlockedVec {
            data: out,
            procs: self.procs,
        }
    }

    /// Load balancing (Figure 11): drop the elements whose flag is
    /// `false`, pack the survivors into a shorter vector, and re-block
    /// it across the same processors.
    ///
    /// # Panics
    /// If `keep.len() != self.len()`.
    pub fn load_balance(&self, keep: &[bool]) -> BlockedVec<T> {
        assert_eq!(keep.len(), self.data.len(), "load_balance length mismatch");
        BlockedVec {
            data: ops::pack(&self.data, keep),
            procs: self.procs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_core::op::Sum;

    #[test]
    fn figure10_scan() {
        // [4 7 1 | 0 5 2 | 6 4 8 | 1 9 5] on 4 processors
        let v = BlockedVec::new(vec![4u64, 7, 1, 0, 5, 2, 6, 4, 8, 1, 9, 5], 4);
        assert_eq!(v.block_sums::<Sum>(), vec![12, 7, 18, 15]);
        // +-scan(Sum) = [0 12 19 37]
        assert_eq!(
            flat_scan::<Sum, _>(&v.block_sums::<Sum>()),
            vec![0, 12, 19, 37]
        );
        // Final: [0 4 11 | 12 12 17 | 19 25 29 | 37 38 47]
        assert_eq!(
            v.scan::<Sum>().data(),
            &[0, 4, 11, 12, 12, 17, 19, 25, 29, 37, 38, 47]
        );
    }

    #[test]
    fn blocked_scan_matches_flat_scan() {
        for p in [1, 2, 3, 5, 8, 64] {
            let data: Vec<u64> = (0..100).map(|i| i * 3 % 17).collect();
            let v = BlockedVec::new(data.clone(), p);
            assert_eq!(
                v.scan::<Sum>().data(),
                flat_scan::<Sum, _>(&data).as_slice()
            );
        }
    }

    #[test]
    fn figure11_load_balance() {
        // F = [T F F F T T F T T T T T], blocks of 3 on 4 processors.
        let keep = [
            true, false, false, false, true, true, false, true, true, true, true, true,
        ];
        let a: Vec<u32> = (0..12).collect();
        let v = BlockedVec::new(a, 4);
        let balanced = v.load_balance(&keep);
        assert_eq!(balanced.data(), &[0, 4, 5, 7, 8, 9, 10, 11]);
        // 8 elements over 4 processors: 2 each.
        assert_eq!(balanced.max_block_len(), 2);
        assert_eq!(
            balanced.block_ranges(),
            vec![(0, 2), (2, 4), (4, 6), (6, 8)]
        );
    }

    #[test]
    fn more_procs_than_elements() {
        let v = BlockedVec::new(vec![1u32, 2], 8);
        assert_eq!(v.max_block_len(), 1);
        assert_eq!(v.scan::<Sum>().data(), &[0, 1]);
    }

    #[test]
    fn empty_vector() {
        let v: BlockedVec<u32> = BlockedVec::new(vec![], 4);
        assert!(v.is_empty());
        assert_eq!(v.max_block_len(), 0);
        assert!(v.scan::<Sum>().is_empty());
    }

    #[test]
    fn map_preserves_order() {
        let v = BlockedVec::new((0u32..10).collect(), 3);
        assert_eq!(
            v.map(|x| x * 2).data(),
            &[0, 2, 4, 6, 8, 10, 12, 14, 16, 18]
        );
    }
}
