//! The paper's vector notation (§2.1) as an embedded DSL.
//!
//! Section 2.1 writes algorithms over whole vectors — `C ← A + B`,
//! `+-scan(A)`, `permute(A, I)`, `split(A, Flags)` — with one
//! processor per element. [`V`] gives that notation directly in Rust:
//! elementwise arithmetic via operator overloading, scans and the
//! derived operations as chainable methods.
//!
//! ```
//! use scan_core::vector::V;
//! use scan_core::op::Sum;
//!
//! // §2.1:  A = [5 1 3 4 3 9 2 6], B = [2 5 3 8 1 3 6 2]
//! let a = V::from(vec![5u32, 1, 3, 4, 3, 9, 2, 6]);
//! let b = V::from(vec![2u32, 5, 3, 8, 1, 3, 6, 2]);
//! let c = &a + &b;
//! assert_eq!(c.as_slice(), &[7, 6, 6, 12, 4, 12, 8, 8]);
//!
//! // +-scan(A) as a method:
//! let s = V::from(vec![2u32, 1, 2, 3, 5, 8, 13, 21]).scan::<Sum>();
//! assert_eq!(s.as_slice(), &[0, 2, 3, 5, 8, 13, 21, 34]);
//! ```

use core::ops::{Add, BitAnd, BitOr, BitXor, Index, Mul, Sub};

use crate::element::ScanElem;
use crate::op::ScanOp;
use crate::ops;
use crate::parallel;
use crate::scan as scan_fns;
use crate::segmented::{self, Segments};

/// A data-parallel vector: one conceptual processor per element.
#[derive(Debug, Clone, PartialEq)]
pub struct V<T> {
    data: Vec<T>,
}

impl<T: ScanElem> V<T> {
    /// Wrap a `Vec`.
    pub fn new(data: Vec<T>) -> Self {
        V { data }
    }

    /// A constant vector of length `n`.
    pub fn constant(n: usize, v: T) -> Self {
        V { data: vec![v; n] }
    }

    /// Length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the elements.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Unwrap into the underlying `Vec`.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Elementwise map.
    pub fn map<U: ScanElem>(&self, f: impl Fn(T) -> U + Sync) -> V<U> {
        V::new(parallel::map_by(&self.data, f))
    }

    /// Elementwise combination with another vector.
    ///
    /// # Panics
    /// On length mismatch.
    pub fn zip_with<U: ScanElem, R: ScanElem>(
        &self,
        other: &V<U>,
        f: impl Fn(T, U) -> R + Sync,
    ) -> V<R> {
        V::new(parallel::zip_by(&self.data, &other.data, f))
    }

    /// The paper's exclusive scan.
    pub fn scan<O: ScanOp<T>>(&self) -> V<T> {
        V::new(scan_fns::scan::<O, T>(&self.data))
    }

    /// Inclusive scan.
    pub fn inclusive_scan<O: ScanOp<T>>(&self) -> V<T> {
        V::new(scan_fns::inclusive_scan::<O, T>(&self.data))
    }

    /// Backward exclusive scan.
    pub fn scan_backward<O: ScanOp<T>>(&self) -> V<T> {
        V::new(scan_fns::scan_backward::<O, T>(&self.data))
    }

    /// Segmented exclusive scan.
    pub fn seg_scan<O: ScanOp<T>>(&self, segs: &Segments) -> V<T> {
        V::new(segmented::seg_scan::<O, T>(&self.data, segs))
    }

    /// Reduction.
    pub fn reduce<O: ScanOp<T>>(&self) -> T {
        scan_fns::reduce::<O, T>(&self.data)
    }

    /// `⊕-distribute`: every element receives the total (Figure 1).
    pub fn distribute<O: ScanOp<T>>(&self) -> V<T> {
        V::new(ops::distribute_op::<O, T>(&self.data))
    }

    /// `copy`: the first element everywhere (Figure 1).
    ///
    /// # Panics
    /// If empty.
    pub fn copy_first(&self) -> V<T> {
        V::new(ops::copy_first(&self.data))
    }

    /// `permute(A, I)` (§2.1).
    ///
    /// # Panics
    /// If `indices` is not a permutation.
    pub fn permute(&self, indices: &[usize]) -> V<T> {
        V::new(ops::permute(&self.data, indices))
    }

    /// `split(A, Flags)` (§2.2.1, Figure 3).
    pub fn split(&self, flags: &[bool]) -> V<T> {
        V::new(ops::split(&self.data, flags))
    }

    /// `pack`: keep flagged elements (Figure 11).
    pub fn pack(&self, keep: &[bool]) -> V<T> {
        V::new(ops::pack(&self.data, keep))
    }

    /// Elementwise comparison against another vector.
    pub fn lt(&self, other: &V<T>) -> V<bool>
    where
        T: PartialOrd,
    {
        self.zip_with(other, |a, b| a < b)
    }

    /// Elementwise equality against another vector.
    pub fn eq_v(&self, other: &V<T>) -> V<bool> {
        self.zip_with(other, |a, b| a == b)
    }
}

impl V<bool> {
    /// `enumerate` (Figure 1): rank of each true element.
    pub fn enumerate(&self) -> V<usize> {
        V::new(ops::enumerate(&self.data))
    }

    /// Number of true elements.
    pub fn count(&self) -> usize {
        ops::count(&self.data)
    }

    /// Elementwise not.
    pub fn not(&self) -> V<bool> {
        self.map(|b| !b)
    }
}

impl<T: ScanElem> From<Vec<T>> for V<T> {
    fn from(data: Vec<T>) -> Self {
        V::new(data)
    }
}

impl<T: ScanElem> From<&[T]> for V<T> {
    fn from(data: &[T]) -> Self {
        V::new(data.to_vec())
    }
}

impl<T: ScanElem> Index<usize> for V<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        &self.data[i]
    }
}

macro_rules! impl_elementwise_binop {
    ($trait:ident, $method:ident, $op:tt, $($bound:tt)*) => {
        impl<'a, T> $trait<&'a V<T>> for &'a V<T>
        where
            T: ScanElem + $($bound)*<Output = T>,
        {
            type Output = V<T>;
            fn $method(self, rhs: &'a V<T>) -> V<T> {
                self.zip_with(rhs, |a, b| a $op b)
            }
        }
    };
}

impl_elementwise_binop!(Add, add, +, Add);
impl_elementwise_binop!(Sub, sub, -, Sub);
impl_elementwise_binop!(Mul, mul, *, Mul);
impl_elementwise_binop!(BitAnd, bitand, &, BitAnd);
impl_elementwise_binop!(BitOr, bitor, |, BitOr);
impl_elementwise_binop!(BitXor, bitxor, ^, BitXor);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Max, Min, Sum};

    #[test]
    fn section2_1_elementwise_add() {
        let a = V::from(vec![5u32, 1, 3, 4, 3, 9, 2, 6]);
        let b = V::from(vec![2u32, 5, 3, 8, 1, 3, 6, 2]);
        assert_eq!((&a + &b).as_slice(), &[7, 6, 6, 12, 4, 12, 8, 8]);
    }

    #[test]
    fn other_binops() {
        let a = V::from(vec![6u32, 5]);
        let b = V::from(vec![2u32, 3]);
        assert_eq!((&a - &b).as_slice(), &[4, 2]);
        assert_eq!((&a * &b).as_slice(), &[12, 15]);
        assert_eq!((&a & &b).as_slice(), &[2, 1]);
        assert_eq!((&a | &b).as_slice(), &[6, 7]);
        assert_eq!((&a ^ &b).as_slice(), &[4, 6]);
    }

    #[test]
    fn scans_and_reductions() {
        let a = V::from(vec![3u64, 1, 7, 0, 4, 1, 6, 3]);
        assert_eq!(a.scan::<Sum>().as_slice(), &[0, 3, 4, 11, 11, 15, 16, 22]);
        assert_eq!(a.reduce::<Max>(), 7);
        assert_eq!(a.reduce::<Min>(), 0);
        assert_eq!(a.distribute::<Sum>().as_slice(), &[25; 8]);
        assert_eq!(a.copy_first().as_slice(), &[3; 8]);
        assert_eq!(a.scan_backward::<Sum>()[0], 22);
        assert_eq!(a.inclusive_scan::<Sum>()[7], 25);
    }

    #[test]
    fn flags_and_packing() {
        let flags = V::from(vec![true, false, false, true, false, true, true, false]);
        assert_eq!(flags.enumerate().as_slice(), &[0, 1, 1, 1, 2, 2, 3, 4]);
        assert_eq!(flags.count(), 4);
        assert_eq!(flags.not().count(), 4);
        let a = V::from(vec![10u32, 11, 12, 13, 14, 15, 16, 17]);
        assert_eq!(a.pack(flags.as_slice()).as_slice(), &[10, 13, 15, 16]);
    }

    #[test]
    fn split_and_permute_chain() {
        // A radix-sort pass in the paper's notation.
        let a = V::from(vec![5u64, 7, 3, 1, 4, 2, 7, 2]);
        let bit0 = a.map(|k| k & 1 == 1);
        assert_eq!(
            a.split(bit0.as_slice()).as_slice(),
            &[4, 2, 2, 5, 7, 3, 1, 7]
        );
        let idx = [2, 5, 4, 3, 1, 6, 0, 7];
        assert_eq!(a.permute(&idx)[2], 5);
    }

    #[test]
    fn segmented_scan_via_dsl() {
        let a = V::from(vec![5u32, 1, 3, 4, 3, 9, 2, 6]);
        let segs = Segments::from_lengths(&[2, 4, 2]);
        assert_eq!(
            a.seg_scan::<Sum>(&segs).as_slice(),
            &[0, 5, 0, 3, 7, 10, 0, 2]
        );
    }

    #[test]
    fn comparisons() {
        let a = V::from(vec![1u32, 5, 3]);
        let b = V::from(vec![2u32, 5, 1]);
        assert_eq!(a.lt(&b).as_slice(), &[true, false, false]);
        assert_eq!(a.eq_v(&b).as_slice(), &[false, true, false]);
    }

    #[test]
    fn constant_and_empty() {
        let c = V::constant(4, 9u32);
        assert_eq!(c.as_slice(), &[9, 9, 9, 9]);
        let e: V<u32> = V::new(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.scan::<Sum>().len(), 0);
    }
}
