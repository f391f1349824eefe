//! The halving merge (§2.5.1, Figure 12) — the paper's one *original*
//! algorithm: merge two sorted vectors in `O(n/p + lg n)` steps, which
//! is optimal for `p < n/lg n`.
//!
//! The idea: extract the odd-indexed elements of both vectors (their
//! first, third, ... elements), recursively merge those half-length
//! vectors, then perform **even-insertion**: place each unmerged
//! element directly after the element it originally followed, producing
//! a *near-merge* vector whose disorder consists only of single
//! non-overlapping rotations, which two scans repair:
//!
//! ```text
//! head-copy ← max(max-scan(near-merge), near-merge)
//! result    ← min(min-backscan(near-merge), head-copy)
//! ```
//!
//! As the paper suggests, the recursion communicates **merge-flag
//! vectors** (`false` = next element of `A`, `true` = next element of
//! `B`), which "both uniquely specify how the elements should be merged
//! and specify in which position each element belongs".

use scan_core::op::{Max, Min};
use scan_pram::{Ctx, Model};

/// Maximum key value: the even-insertion rides on a `(key, source)`
/// composite in 64 bits, so keys must leave the top bit free.
pub const MAX_KEY: u64 = (1 << 63) - 1;

/// Merge two sorted vectors on a step-counting machine, returning the
/// merged values. Ties are broken stably (`a` before `b`).
///
/// # Panics
/// If an input is unsorted (debug) or a key exceeds [`MAX_KEY`].
pub fn halving_merge_ctx(ctx: &mut Ctx, a: &[u64], b: &[u64]) -> Vec<u64> {
    let flags = halving_merge_flags(ctx, a, b);
    ctx.flag_merge(&flags, a, b)
}

/// Merge with the default scan-model machine.
pub fn halving_merge(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut ctx = Ctx::new(Model::Scan);
    halving_merge_ctx(&mut ctx, a, b)
}

/// The merge-flag form: `flags[i]` is `true` when position `i` of the
/// merged result comes from `b`.
pub fn halving_merge_flags(ctx: &mut Ctx, a: &[u64], b: &[u64]) -> Vec<bool> {
    for v in [a, b] {
        debug_assert!(v.windows(2).all(|w| w[0] <= w[1]), "input must be sorted");
        assert!(
            v.iter().all(|&k| k <= MAX_KEY),
            "keys must leave the top bit free"
        );
    }
    hm(ctx, a, b)
}

fn hm(ctx: &mut Ctx, a: &[u64], b: &[u64]) -> Vec<bool> {
    if a.is_empty() {
        return vec![true; b.len()];
    }
    if b.is_empty() {
        return vec![false; a.len()];
    }
    if a.len() == 1 {
        return insert_single(ctx, a[0], b, false);
    }
    if b.len() == 1 {
        return insert_single(ctx, b[0], a, true);
    }
    // Extract the odd-indexed elements (first, third, ...) by packing.
    let a0: Vec<u64> = a.iter().step_by(2).copied().collect();
    let b0: Vec<u64> = b.iter().step_by(2).copied().collect();
    ctx.pack(a, &alternating(a.len()));
    ctx.pack(b, &alternating(b.len()));
    let f0 = hm(ctx, &a0, &b0);
    even_insertion(ctx, a, b, &f0)
}

fn alternating(n: usize) -> Vec<bool> {
    (0..n).map(|i| i % 2 == 0).collect()
}

/// Merge a single element into a sorted vector with two scans.
/// `single_is_b` says whether the singleton came from `B`.
fn insert_single(ctx: &mut Ctx, x: u64, v: &[u64], single_is_b: bool) -> Vec<bool> {
    // Stable: `a` elements precede equal `b` elements.
    let pos = if single_is_b {
        // x (from b) goes after all v (from a) elements ≤ x.
        let le = ctx.map(v, |y| y <= x);
        ctx.count(&le)
    } else {
        // x (from a) goes before all v (from b) elements ≥ x.
        let lt = ctx.map(v, |y| y < x);
        ctx.count(&lt)
    };
    let n = v.len() + 1;
    (0..n).map(|i| (i == pos) == single_is_b).collect()
}

/// The even-insertion: given the merge flags `f0` of the half-length
/// vectors, produce the merge flags of the full vectors.
fn even_insertion(ctx: &mut Ctx, a: &[u64], b: &[u64], f0: &[bool]) -> Vec<bool> {
    let m_len = f0.len();
    // Composite key (value << 1 | is_b): order-compatible with the key
    // order, stable (a before b), and carries the flag through the
    // rotation-repair scans.
    let not_f0: Vec<bool> = f0.iter().map(|&f| !f).collect();
    let enum_a = ctx.enumerate(&not_f0);
    let enum_b = ctx.enumerate(f0);
    // Per merged slot: its composite value, and its original successor's
    // composite value if the successor exists.
    let mut merged = Vec::with_capacity(m_len);
    let mut succ = Vec::with_capacity(m_len);
    let mut counts = Vec::with_capacity(m_len);
    for i in 0..m_len {
        let (src, idx, bit) = if f0[i] {
            (b, 2 * enum_b[i], 1u64)
        } else {
            (a, 2 * enum_a[i], 0u64)
        };
        merged.push((src[idx] << 1) | bit);
        if idx + 1 < src.len() {
            succ.push(Some((src[idx + 1] << 1) | bit));
            counts.push(2);
        } else {
            succ.push(None);
            counts.push(1);
        }
    }
    // The loop above fuses two gathers (element + successor) and two
    // elementwise steps (index arithmetic, composite construction).
    ctx.charge_permute_op(m_len);
    ctx.charge_permute_op(m_len);
    ctx.charge_elementwise_op(m_len);
    ctx.charge_elementwise_op(m_len);
    // Allocate the near-merge vector and scatter (element, successor) —
    // two disjoint scatters.
    let alloc = ctx.allocate(&counts);
    let mut near = vec![0u64; alloc.total];
    for i in 0..m_len {
        near[alloc.starts[i]] = merged[i];
        if let Some(s) = succ[i] {
            near[alloc.starts[i] + 1] = s;
        }
    }
    ctx.charge_permute_op(alloc.total);
    ctx.charge_permute_op(alloc.total);
    // x-near-merge: rotate each out-of-order block by one.
    let max_scan = ctx.scan::<Max, _>(&near);
    let head_copy = ctx.zip(&max_scan, &near, |h, x| h.max(x));
    let min_back = ctx.scan_backward::<Min, _>(&near);
    let result = ctx.zip(&min_back, &head_copy, |m, h| m.min(h));
    result.iter().map(|&c| c & 1 == 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(a: &[u64], b: &[u64]) {
        let got = halving_merge(a, b);
        let mut expect: Vec<u64> = a.iter().chain(b).copied().collect();
        expect.sort_unstable();
        assert_eq!(got, expect, "a={a:?} b={b:?}");
    }

    #[test]
    fn figure12_example() {
        let a = [1u64, 7, 10, 13, 15, 20];
        let b = [3u64, 4, 9, 22, 23, 26];
        assert_eq!(
            halving_merge(&a, &b),
            vec![1, 3, 4, 7, 9, 10, 13, 15, 20, 22, 23, 26]
        );
    }

    #[test]
    fn figure12_inner_level_flags() {
        // A' = [1 10 15], B' = [3 9 23] → [F T T F F T]
        let mut ctx = Ctx::new(Model::Scan);
        let flags = halving_merge_flags(&mut ctx, &[1, 10, 15], &[3, 9, 23]);
        assert_eq!(flags, vec![false, true, true, false, false, true]);
    }

    #[test]
    fn empty_and_singletons() {
        check(&[], &[]);
        check(&[5], &[]);
        check(&[], &[5]);
        check(&[5], &[3]);
        check(&[3], &[5]);
        check(&[5], &[5]);
    }

    #[test]
    fn odd_lengths() {
        check(&[1, 4, 9], &[2, 3, 5, 8, 13]);
        check(&[10], &[1, 2, 3, 4, 5, 6, 7]);
        check(&[1, 2, 3, 4, 5, 6, 7], &[0]);
    }

    #[test]
    fn interleaved_and_disjoint_ranges() {
        check(&[1, 3, 5, 7], &[2, 4, 6, 8]);
        check(&[1, 2, 3, 4], &[5, 6, 7, 8]);
        check(&[5, 6, 7, 8], &[1, 2, 3, 4]);
    }

    #[test]
    fn duplicates_within_and_across() {
        check(&[2, 2, 2, 5], &[2, 2, 6]);
        check(&[0, 0, 0, 0], &[0, 0, 0, 0]);
        check(&[1, 1, 2, 3, 3], &[1, 2, 2, 3]);
    }

    #[test]
    fn stability_a_before_b() {
        // With equal keys, flags must place a's copies first.
        let mut ctx = Ctx::new(Model::Scan);
        let flags = halving_merge_flags(&mut ctx, &[5, 5], &[5]);
        assert_eq!(flags, vec![false, false, true]);
    }

    #[test]
    fn random_merges() {
        let mut x = 31u64;
        let mut rng = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        for _ in 0..30 {
            let na = (rng() % 60) as usize;
            let nb = (rng() % 60) as usize;
            let mut a: Vec<u64> = (0..na).map(|_| rng() % 500).collect();
            let mut b: Vec<u64> = (0..nb).map(|_| rng() % 500).collect();
            a.sort_unstable();
            b.sort_unstable();
            check(&a, &b);
        }
    }

    #[test]
    fn step_complexity_is_logarithmic_with_full_processors() {
        // With p = n processors, steps grow ~lg n, not n.
        let a: Vec<u64> = (0..512).map(|i| 2 * i).collect();
        let b: Vec<u64> = (0..512).map(|i| 2 * i + 1).collect();
        let mut ctx = Ctx::new(Model::Scan);
        halving_merge_ctx(&mut ctx, &a, &b);
        let steps_512 = ctx.steps();
        let a2: Vec<u64> = (0..2048).map(|i| 2 * i).collect();
        let b2: Vec<u64> = (0..2048).map(|i| 2 * i + 1).collect();
        let mut ctx2 = Ctx::new(Model::Scan);
        halving_merge_ctx(&mut ctx2, &a2, &b2);
        // 4× the data should cost far less than 4× the steps.
        assert!(
            ctx2.steps() < 2 * steps_512,
            "{} vs {}",
            ctx2.steps(),
            steps_512
        );
    }

    #[test]
    #[should_panic(expected = "top bit")]
    fn oversized_key_rejected() {
        halving_merge(&[u64::MAX], &[1]);
    }
}
