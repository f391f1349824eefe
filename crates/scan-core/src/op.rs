//! The binary associative operators a scan can be taken over.
//!
//! The paper (§1) restricts the *primitive* scans to integer `+` and
//! `max`, and shows (§3.4, reproduced in [`crate::simulate`]) that the
//! remaining useful scans — `min`, `or`, `and`, floating-point `max`/`min`
//! — reduce to those two. At the library level we expose all of them
//! directly as zero-sized operator types implementing [`ScanOp`].

use crate::element::ScanElem;

/// A binary associative operator with identity, usable in a scan.
///
/// Implementors are zero-sized marker types ([`Sum`], [`Max`], [`Min`],
/// [`Or`], [`And`], [`Prod`]). The operator must be associative and
/// `IDENTITY ⊕ x == x` must hold; the scan kernels rely on both to
/// reassociate work across blocks.
///
/// Integer addition and multiplication are **wrapping**: the paper's
/// machine operates on fixed-width fields, so sums are taken modulo the
/// word size rather than panicking on overflow.
pub trait ScanOp<T: ScanElem>: Send + Sync + 'static {
    /// Human-readable operator name, e.g. `"+"` or `"max"`.
    const NAME: &'static str;

    /// The identity element `i` with `combine(i, x) == x`.
    fn identity() -> T;

    /// Apply the operator: `a ⊕ b`.
    fn combine(a: T, b: T) -> T;
}

/// Addition (the paper's `+-scan`). Wrapping for integers.
pub struct Sum;
/// Maximum (the paper's `max-scan`).
pub struct Max;
/// Minimum (`min-scan`), simulated from `max-scan` in the paper.
pub struct Min;
/// Logical / bitwise or (`or-scan`).
pub struct Or;
/// Logical / bitwise and (`and-scan`).
pub struct And;
/// Product (`×-scan`); used by Stone's polynomial evaluation (appendix).
pub struct Prod;

/// The primitive scan a sharded run or a service request executes:
/// the runtime name of [`Sum`] or [`Max`] over `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanKind {
    /// Exclusive `+-scan` (wrapping add; identity 0).
    Sum,
    /// Exclusive `max-scan` (identity `u64::MIN`, i.e. 0).
    Max,
}

macro_rules! impl_int_ops {
    ($($t:ty),*) => {$(
        impl ScanOp<$t> for Sum {
            const NAME: &'static str = "+";
            #[inline(always)]
            fn identity() -> $t { 0 }
            #[inline(always)]
            fn combine(a: $t, b: $t) -> $t { a.wrapping_add(b) }
        }
        impl ScanOp<$t> for Prod {
            const NAME: &'static str = "*";
            #[inline(always)]
            fn identity() -> $t { 1 }
            #[inline(always)]
            fn combine(a: $t, b: $t) -> $t { a.wrapping_mul(b) }
        }
        impl ScanOp<$t> for Max {
            const NAME: &'static str = "max";
            #[inline(always)]
            fn identity() -> $t { <$t>::MIN }
            #[inline(always)]
            fn combine(a: $t, b: $t) -> $t { if a >= b { a } else { b } }
        }
        impl ScanOp<$t> for Min {
            const NAME: &'static str = "min";
            #[inline(always)]
            fn identity() -> $t { <$t>::MAX }
            #[inline(always)]
            fn combine(a: $t, b: $t) -> $t { if a <= b { a } else { b } }
        }
    )*};
}

impl_int_ops!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

macro_rules! impl_bitwise_ops {
    ($($t:ty),*) => {$(
        impl ScanOp<$t> for Or {
            const NAME: &'static str = "or";
            #[inline(always)]
            fn identity() -> $t { 0 }
            #[inline(always)]
            fn combine(a: $t, b: $t) -> $t { a | b }
        }
        impl ScanOp<$t> for And {
            const NAME: &'static str = "and";
            #[inline(always)]
            fn identity() -> $t { !0 }
            #[inline(always)]
            fn combine(a: $t, b: $t) -> $t { a & b }
        }
    )*};
}

impl_bitwise_ops!(u8, u16, u32, u64, u128, usize);

macro_rules! impl_float_ops {
    ($($t:ty),*) => {$(
        impl ScanOp<$t> for Sum {
            const NAME: &'static str = "+";
            #[inline(always)]
            fn identity() -> $t { 0.0 }
            #[inline(always)]
            fn combine(a: $t, b: $t) -> $t { a + b }
        }
        impl ScanOp<$t> for Prod {
            const NAME: &'static str = "*";
            #[inline(always)]
            fn identity() -> $t { 1.0 }
            #[inline(always)]
            fn combine(a: $t, b: $t) -> $t { a * b }
        }
        impl ScanOp<$t> for Max {
            const NAME: &'static str = "max";
            #[inline(always)]
            fn identity() -> $t { <$t>::NEG_INFINITY }
            #[inline(always)]
            fn combine(a: $t, b: $t) -> $t { if a >= b { a } else { b } }
        }
        impl ScanOp<$t> for Min {
            const NAME: &'static str = "min";
            #[inline(always)]
            fn identity() -> $t { <$t>::INFINITY }
            #[inline(always)]
            fn combine(a: $t, b: $t) -> $t { if a <= b { a } else { b } }
        }
    )*};
}

impl_float_ops!(f32, f64);

impl ScanOp<bool> for Or {
    const NAME: &'static str = "or";
    #[inline(always)]
    fn identity() -> bool {
        false
    }
    #[inline(always)]
    fn combine(a: bool, b: bool) -> bool {
        a | b
    }
}

impl ScanOp<bool> for And {
    const NAME: &'static str = "and";
    #[inline(always)]
    fn identity() -> bool {
        true
    }
    #[inline(always)]
    fn combine(a: bool, b: bool) -> bool {
        a & b
    }
}

impl ScanOp<bool> for Max {
    const NAME: &'static str = "max";
    #[inline(always)]
    fn identity() -> bool {
        false
    }
    #[inline(always)]
    fn combine(a: bool, b: bool) -> bool {
        a | b
    }
}

impl ScanOp<bool> for Min {
    const NAME: &'static str = "min";
    #[inline(always)]
    fn identity() -> bool {
        true
    }
    #[inline(always)]
    fn combine(a: bool, b: bool) -> bool {
        a & b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_identity<O: ScanOp<T>, T: ScanElem>(samples: &[T]) {
        for &x in samples {
            assert_eq!(O::combine(O::identity(), x), x, "{} identity", O::NAME);
            assert_eq!(
                O::combine(x, O::identity()),
                x,
                "{} identity (rhs)",
                O::NAME
            );
        }
    }

    fn check_associative<O: ScanOp<T>, T: ScanElem>(samples: &[T]) {
        for &a in samples {
            for &b in samples {
                for &c in samples {
                    assert_eq!(
                        O::combine(O::combine(a, b), c),
                        O::combine(a, O::combine(b, c)),
                        "{} associativity",
                        O::NAME
                    );
                }
            }
        }
    }

    #[test]
    fn integer_op_laws() {
        let s: Vec<u32> = vec![0, 1, 2, 7, 100, u32::MAX];
        check_identity::<Sum, u32>(&s);
        check_associative::<Sum, u32>(&s);
        check_identity::<Max, u32>(&s);
        check_associative::<Max, u32>(&s);
        check_identity::<Min, u32>(&s);
        check_associative::<Min, u32>(&s);
        check_identity::<Or, u32>(&s);
        check_associative::<Or, u32>(&s);
        check_identity::<And, u32>(&s);
        check_associative::<And, u32>(&s);
        check_identity::<Prod, u32>(&s);
        check_associative::<Prod, u32>(&s);
    }

    #[test]
    fn signed_op_laws() {
        let s: Vec<i64> = vec![i64::MIN, -5, 0, 3, i64::MAX];
        check_identity::<Sum, i64>(&s);
        check_identity::<Max, i64>(&s);
        check_identity::<Min, i64>(&s);
        check_associative::<Max, i64>(&s);
        check_associative::<Min, i64>(&s);
    }

    #[test]
    fn bool_op_laws() {
        let s = vec![true, false];
        check_identity::<Or, bool>(&s);
        check_identity::<And, bool>(&s);
        check_identity::<Max, bool>(&s);
        check_identity::<Min, bool>(&s);
        check_associative::<Or, bool>(&s);
        check_associative::<And, bool>(&s);
    }

    #[test]
    fn float_identities() {
        let s = vec![-1.5f64, 0.0, 2.25, 1e300];
        check_identity::<Sum, f64>(&s);
        check_identity::<Max, f64>(&s);
        check_identity::<Min, f64>(&s);
        check_identity::<Prod, f64>(&s);
    }

    #[test]
    fn wrapping_sum_does_not_panic() {
        assert_eq!(<Sum as ScanOp<u8>>::combine(200, 100), 44);
        assert_eq!(<Sum as ScanOp<i8>>::combine(i8::MAX, 1), i8::MIN);
    }
}
