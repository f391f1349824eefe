//! Segmented parallel quicksort (§2.3.1, Figure 5).
//!
//! "The basic intuition of the parallel version is to keep each subset
//! in its own segment, and to pick pivot values and split the keys
//! independently within each segment." Each iteration is a constant
//! number of scan-model steps, and with random pivots the expected
//! iteration count is `O(lg n)` — so expected `O(lg n)` step
//! complexity.

use scan_core::op::{And, Max, Sum};
use scan_core::ops::Bucket;
use scan_core::segmented::Segments;
use scan_pram::{Ctx, Model};

use crate::util::hash64;

/// How the pivot of each segment is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PivotRule {
    /// The first element of the segment (Figure 5's choice).
    First,
    /// A uniformly random element of the segment, derived from the
    /// given seed — the paper's suggestion for the `O(lg n)` expected
    /// bound.
    Random(u64),
}

/// The result of a quicksort run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuicksortRun {
    /// Sorted keys.
    pub keys: Vec<u64>,
    /// Iterations of the pick-pivot/split loop executed.
    pub iterations: usize,
}

/// Segmented quicksort on a step-counting machine.
pub fn quicksort_ctx(ctx: &mut Ctx, keys: &[u64], rule: PivotRule) -> QuicksortRun {
    let n = keys.len();
    if n <= 1 {
        return QuicksortRun {
            keys: keys.to_vec(),
            iterations: 0,
        };
    }
    let mut keys = keys.to_vec();
    let mut segs = Segments::single(n);
    let mut iterations = 0usize;
    // 4n + 64 is far beyond the worst case (first-element pivots on a
    // pathological order take O(n) iterations); exceeding it is a bug.
    let cap = 4 * n + 64;
    loop {
        // Step 1: exit if sorted. Each processor checks its left
        // neighbor; an and-distribute tells everyone the verdict.
        let shifted = ctx.shift_right(&keys, 0u64);
        let ok = ctx.zip(&shifted, &keys, |p, k| p <= k);
        if ctx.reduce::<And, _>(&ok) {
            break;
        }
        assert!(iterations < cap, "quicksort failed to converge");
        iterations += 1;
        // Step 2: pick a pivot within each segment and distribute it.
        let pivots = match rule {
            PivotRule::First => ctx.seg_copy(&keys, &segs),
            PivotRule::Random(seed) => {
                // A random number in the first element of each segment,
                // modulo the segment length, picks the element; a
                // max-distribute of the marked key broadcasts it.
                let idx = ctx.iota(n);
                let rands = ctx.map(&idx, |i| {
                    hash64(seed ^ (iterations as u64) << 32 ^ i as u64)
                });
                let r_head = ctx.seg_copy(&rands, &segs);
                let ones = ctx.constant(n, 1usize);
                let lens = ctx.seg_distribute::<Sum, _>(&ones, &segs);
                let base = segs.head_index_per_element();
                let target: Vec<usize> = (0..n)
                    .map(|i| base[i] + (r_head[i] as usize % lens[i]))
                    .collect();
                ctx.zip(&idx, &target, |i, t| i == t); // charge the compare
                let marked: Vec<u64> = (0..n)
                    .map(|i| if i == target[i] { keys[i] } else { 0 })
                    .collect();
                ctx.seg_distribute::<Max, _>(&marked, &segs)
            }
        };
        // Step 3: compare with the pivot; step 4: split into three
        // groups and insert new segment flags at the group boundaries.
        let buckets = ctx.zip(&keys, &pivots, |k, p| {
            if k < p {
                Bucket::Lo
            } else if k == p {
                Bucket::Mid
            } else {
                Bucket::Hi
            }
        });
        let r = ctx.seg_split3(&keys, &buckets, &segs);
        keys = r.values;
        segs = r.segments;
    }
    QuicksortRun { keys, iterations }
}

/// Quicksort with the default scan-model machine.
pub fn quicksort(keys: &[u64], rule: PivotRule) -> Vec<u64> {
    let mut ctx = Ctx::new(Model::Scan);
    quicksort_ctx(&mut ctx, keys, rule).keys
}

/// Quicksort for floats via the monotone key transform of §3.4.
pub fn quicksort_f64(keys: &[f64], rule: PivotRule) -> Vec<f64> {
    let keyed: Vec<u64> = keys
        .iter()
        .map(|&x| scan_core::simulate::f64_key(x))
        .collect();
    quicksort(&keyed, rule)
        .into_iter()
        .map(scan_core::simulate::f64_unkey)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_sorts(keys: &[u64], rule: PivotRule) -> usize {
        let mut ctx = Ctx::new(Model::Scan);
        let run = quicksort_ctx(&mut ctx, keys, rule);
        let mut expect = keys.to_vec();
        expect.sort_unstable();
        assert_eq!(run.keys, expect);
        run.iterations
    }

    #[test]
    fn figure5_first_iteration() {
        // Keys from Figure 5 (scaled ×10 to keep them integral).
        let keys = [64u64, 92, 34, 16, 87, 41, 92, 34];
        let segs = Segments::single(8);
        let mut ctx = Ctx::new(Model::Scan);
        let pivots = ctx.seg_copy(&keys, &segs);
        assert_eq!(pivots, vec![64; 8]);
        let buckets: Vec<Bucket> = keys
            .iter()
            .map(|&k| {
                if k < 64 {
                    Bucket::Lo
                } else if k == 64 {
                    Bucket::Mid
                } else {
                    Bucket::Hi
                }
            })
            .collect();
        let r = ctx.seg_split3(&keys, &buckets, &segs);
        // Figure 5: [3.4 1.6 4.1 3.4 | 6.4 | 9.2 8.7 9.2]
        assert_eq!(r.values, vec![34, 16, 41, 34, 64, 92, 87, 92]);
        assert_eq!(
            r.segments.flags(),
            &[true, false, false, false, true, true, false, false]
        );
    }

    #[test]
    fn figure5_full_sort() {
        let keys = [64u64, 92, 34, 16, 87, 41, 92, 34];
        assert_eq!(
            quicksort(&keys, PivotRule::First),
            vec![16, 34, 34, 41, 64, 87, 92, 92]
        );
    }

    #[test]
    fn sorts_random_first_pivot() {
        let mut x = 7u64;
        let keys: Vec<u64> = (0..500)
            .map(|_| {
                x = x.wrapping_mul(48271) % 0x7FFFFFFF;
                x % 1000
            })
            .collect();
        assert_sorts(&keys, PivotRule::First);
    }

    #[test]
    fn sorts_random_random_pivot() {
        let mut x = 13u64;
        let keys: Vec<u64> = (0..500)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                x >> 40
            })
            .collect();
        assert_sorts(&keys, PivotRule::Random(99));
    }

    #[test]
    fn expected_logarithmic_iterations() {
        let mut x = 3u64;
        let keys: Vec<u64> = (0..4096)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> 16
            })
            .collect();
        let iters = assert_sorts(&keys, PivotRule::Random(5));
        // lg 4096 = 12; random pivots land within a small constant of it.
        assert!(iters <= 4 * 12, "took {iters} iterations");
    }

    #[test]
    fn already_sorted_exits_immediately() {
        let keys: Vec<u64> = (0..100).collect();
        let mut ctx = Ctx::new(Model::Scan);
        let run = quicksort_ctx(&mut ctx, &keys, PivotRule::First);
        assert_eq!(run.iterations, 0);
    }

    #[test]
    fn all_equal_keys() {
        let keys = vec![7u64; 64];
        let iters = assert_sorts(&keys, PivotRule::First);
        assert_eq!(iters, 0, "equal keys are already sorted");
    }

    #[test]
    fn reverse_sorted_worst_case_still_sorts() {
        let keys: Vec<u64> = (0..128).rev().collect();
        assert_sorts(&keys, PivotRule::First);
        assert_sorts(&keys, PivotRule::Random(1));
    }

    #[test]
    fn duplicates_heavy() {
        let keys: Vec<u64> = (0..300).map(|i| i % 3).collect();
        assert_sorts(&keys, PivotRule::Random(17));
    }

    #[test]
    fn empty_and_single() {
        assert!(quicksort(&[], PivotRule::First).is_empty());
        assert_eq!(quicksort(&[5], PivotRule::First), vec![5]);
    }

    #[test]
    fn float_variant() {
        let keys = [3.5f64, -1.25, 0.0, 9.75, -100.0];
        assert_eq!(
            quicksort_f64(&keys, PivotRule::First),
            vec![-100.0, -1.25, 0.0, 3.5, 9.75]
        );
    }
}
