//! Deterministic in-tree stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest surface this workspace uses:
//! the [`proptest!`] macro, [`strategy::Strategy`] with numeric range /
//! tuple / `any::<T>()` strategies, [`collection::vec`], and the
//! `prop_assert*` macros. Sampling is driven by a splitmix64 PRNG
//! seeded from the test's module path and name, so every run of a given
//! test sees the same inputs and failures reproduce exactly.
//!
//! Differences from real proptest, by design:
//! - no shrinking: a failing case panics with the sampled values;
//! - no persistence files, forking, or timeout handling;
//! - `ProptestConfig` carries only the case count.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Per-test configuration and the deterministic RNG.

    /// Mirror of proptest's config struct; only `cases` is honored.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` random cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Splitmix64 PRNG, seeded from a string (FNV-1a of the test path).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed deterministically from a test identifier string.
        pub fn deterministic(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Next 64 uniformly pseudo-random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            // Modulo bias is irrelevant for test-input sampling.
            self.next_u64() % bound
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and the built-in strategies.

    use crate::test_runner::TestRng;

    /// A recipe for sampling values of one type.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;
        /// Sample one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    /// Strategy returned by [`any`]: the full value range of `T`.
    pub struct Any<T>(std::marker::PhantomData<T>);

    /// Types with a canonical "whole domain" strategy.
    pub trait Arbitrary: Sized {
        /// Sample an arbitrary value of `Self`.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// The whole-domain strategy for `T` (proptest's `any::<T>()`).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! arbitrary_uint {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arbitrary_uint!(u8, u16, u32, u64, usize);

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arbitrary_int!(i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // A finite double spread over a wide range; real proptest
            // samples bit patterns, but downstream code only needs
            // "diverse finite values".
            let unit = rng.next_u64() as f64 / u64::MAX as f64;
            (unit - 0.5) * 2.0e15
        }
    }

    macro_rules! range_strategy_int {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let off = (rng.next_u64() as u128) % span;
                    (self.start as i128 + off as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (s, e) = (*self.start(), *self.end());
                    assert!(s <= e, "empty range strategy");
                    let span = (e as i128 - s as i128) as u128 + 1;
                    let off = (rng.next_u64() as u128) % span;
                    (s as i128 + off as i128) as $t
                }
            }
        )*};
    }
    range_strategy_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            let unit = rng.next_u64() as f64 / u64::MAX as f64;
            self.start + unit * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($($name:ident : $idx:tt),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A: 0);
    tuple_strategy!(A: 0, B: 1);
    tuple_strategy!(A: 0, B: 1, C: 2);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
}

pub mod collection {
    //! Collection strategies (`vec`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Inclusive-exclusive bounds on a generated collection length.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        max: usize, // exclusive
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n + 1 }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from a [`SizeRange`].
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// `Vec` strategy: each element from `elem`, length from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min) as u64;
            let len = self.size.min + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! `use proptest::prelude::*;` — same habit as the real crate.
    pub use crate::strategy::{any, Arbitrary, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Define property tests: `proptest! { #[test] fn name(x in strat) { .. } }`.
///
/// Each generated test samples its arguments `cases` times from the
/// deterministic per-test RNG and runs the body once per sample.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg[$cfg] $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            @cfg[$crate::test_runner::ProptestConfig::default()] $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg[$cfg:expr]) => {};
    (@cfg[$cfg:expr]
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg = $cfg;
            let mut __rng = $crate::test_runner::TestRng::deterministic(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for __case in 0..__cfg.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&$strat, &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_impl! { @cfg[$cfg] $($rest)* }
    };
}

/// `assert!` under proptest's spelling.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// `assert_eq!` under proptest's spelling.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// `assert_ne!` under proptest's spelling.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = crate::test_runner::TestRng::deterministic("x");
        let mut b = crate::test_runner::TestRng::deterministic("x");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::test_runner::TestRng::deterministic("y");
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 10u64..20, y in -5i64..5, f in -1.0f64..1.0) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((-5..5).contains(&y));
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn vec_and_tuple_strategies(
            v in crate::collection::vec(0u32..7, 2..10),
            (a, b) in (0u8..4, any::<bool>()),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 10);
            prop_assert!(v.iter().all(|&x| x < 7));
            prop_assert!(a < 4);
            let _ = b;
        }

        #[test]
        fn mut_patterns_work(mut v in crate::collection::vec(any::<u16>(), 0..5)) {
            v.sort_unstable();
            prop_assert!(v.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
