//! List ranking (Table 5): the distance of every node from the end of
//! a linked list.
//!
//! Two implementations, matching Table 5's two rows:
//!
//! - [`wyllie_rank`] — Wyllie's pointer jumping: `O(lg n)` rounds of
//!   `O(1)` steps with `p = n`, but `O(n lg n)` processor-step product;
//! - [`contraction_rank`] — randomized independent-set contraction with
//!   scan-based load balancing (`pack`): the surviving list halves
//!   (in expectation) every round, so total work is `O(n)` and the
//!   processor-step product drops to `O(n)` with `p = n/lg n` — the
//!   optimal row of Table 5 (Cole–Vishkin \[12] achieve it
//!   deterministically; random mate is the scan-friendly variant).
//!
//! The list is given as a `next` array; `next[i] == i` marks the tail.
//! `rank[i]` counts the nodes strictly after `i`.

use scan_pram::{Ctx, Model};

use crate::util::hash64;

/// Wyllie's pointer jumping on a step-counting machine.
pub fn wyllie_rank_ctx(ctx: &mut Ctx, next: &[usize]) -> Vec<u64> {
    let n = next.len();
    if n == 0 {
        return Vec::new();
    }
    let mut nxt = next.to_vec();
    let mut rank: Vec<u64> = ctx.map(&nxt, |_| 0);
    let ids = ctx.iota(n);
    rank = ctx.zip(&rank, &ids, |_, i| u64::from(nxt[i] != i));
    let mut rounds = 0;
    loop {
        rounds += 1;
        assert!(
            rounds <= 2 * n.ilog2().max(1) + 8,
            "pointer jumping diverged"
        );
        // Done when every pointer has reached the tail (the gather's
        // fixed point): one more jump would change nothing.
        let done = nxt.iter().all(|&p| nxt[p] == p);
        ctx.charge_elementwise_op(n);
        ctx.charge_scan_op(n); // the and-distribute of the done flags
        if done {
            break;
        }
        // rank[i] += rank[next[i]]; next[i] = next[next[i]]
        let next_rank = ctx.gather(&rank, &nxt);
        rank = ctx.zip(&rank, &next_rank, |a, b| a + b);
        nxt = ctx.gather(&nxt, &nxt);
    }
    rank
}

/// Wyllie ranking with the default scan-model machine.
pub fn wyllie_rank(next: &[usize]) -> Vec<u64> {
    let mut ctx = Ctx::new(Model::Scan);
    wyllie_rank_ctx(&mut ctx, next)
}

/// Randomized contraction list ranking: splice out an independent set,
/// recurse on the packed survivors, reinsert. Work `O(n)` in
/// expectation.
///
/// As in the optimal P-RAM algorithms the paper cites \[12], the
/// contraction stops once the list fits the processors (`p` elements)
/// and finishes with pointer jumping on the short remainder — the
/// contraction phase costs `O(n/p)` steps, the jumping tail `O(lg p)`.
pub fn contraction_rank_ctx(ctx: &mut Ctx, next: &[usize], seed: u64) -> Vec<u64> {
    let n = next.len();
    if n == 0 {
        return Vec::new();
    }
    // d[i]: weighted distance from i to next[i] (1 for live edges).
    let ids: Vec<usize> = (0..n).collect();
    let d: Vec<u64> = next
        .iter()
        .zip(&ids)
        .map(|(&p, &i)| u64::from(p != i))
        .collect();
    ctx.charge_elementwise_op(n);
    let threshold = ctx.processors().map(|p| p.max(4)).unwrap_or(4);
    rank_rec(ctx, &ids, next, &d, seed, 0, threshold)
}

/// Recursive layer: `nodes[i]` are the original ids (for rng
/// decorrelation), `next`/`d` are positions *within this layer*.
fn rank_rec(
    ctx: &mut Ctx,
    nodes: &[usize],
    next: &[usize],
    d: &[u64],
    seed: u64,
    depth: u32,
    threshold: usize,
) -> Vec<u64> {
    let n = nodes.len();
    assert!(depth < 128, "contraction failed to converge");
    if n <= 2 {
        // rank(tail) = 0; rank(other) = its edge weight.
        let mut rank = vec![0u64; n];
        for i in 0..n {
            if next[i] != i {
                rank[i] = d[i]
                    + if next[next[i]] == next[i] {
                        0
                    } else {
                        d[next[i]]
                    };
            }
        }
        return rank;
    }
    if n <= threshold {
        // The list fits the processors: finish with weighted pointer
        // jumping (O(lg p) steps on ≤ p elements).
        let mut nxt = next.to_vec();
        let mut rank = d.to_vec();
        loop {
            let done = nxt.iter().all(|&p| nxt[p] == p);
            ctx.charge_elementwise_op(n);
            ctx.charge_scan_op(n);
            if done {
                return rank;
            }
            let next_rank = ctx.gather(&rank, &nxt);
            let is_tail: Vec<bool> = nxt.iter().enumerate().map(|(i, &p)| p == i).collect();
            rank = (0..n)
                .map(|i| {
                    if is_tail[i] {
                        0
                    } else {
                        rank[i] + next_rank[i]
                    }
                })
                .collect();
            ctx.charge_elementwise_op(n);
            nxt = ctx.gather(&nxt, &nxt);
        }
    }
    // Independent set: coin(i) && !coin(next[i]), excluding tails and
    // heads-of-tails corner cases handled naturally.
    let coins: Vec<bool> = nodes
        .iter()
        .map(|&v| hash64(seed ^ ((depth as u64) << 48) ^ v as u64) & 1 == 1)
        .collect();
    ctx.charge_elementwise_op(n);
    let next_coin = ctx.gather(&coins, next);
    let spliced: Vec<bool> = (0..n)
        .map(|i| next[i] != i && coins[i] && !next_coin[i])
        .collect();
    ctx.charge_elementwise_op(n);
    // Predecessor pointers (invert next).
    let mut pred = vec![usize::MAX; n];
    for i in 0..n {
        if next[i] != i {
            pred[next[i]] = i;
        }
    }
    ctx.charge_permute_op(n);
    // Splice: pred’s edge absorbs the spliced node’s edge.
    let keep: Vec<bool> = spliced.iter().map(|&s| !s).collect();
    ctx.charge_elementwise_op(n);
    let mut new_next = next.to_vec();
    let mut new_d = d.to_vec();
    for i in 0..n {
        if spliced[i] && pred[i] != usize::MAX && !spliced[pred[i]] {
            new_next[pred[i]] = next[i];
            new_d[pred[i]] = d[pred[i]] + d[i];
        }
    }
    ctx.charge_permute_op(n);
    ctx.charge_elementwise_op(n);
    // Load balance: pack the survivors (Figure 11) and renumber. One
    // pack moves the whole (node, weight, next) record.
    let new_pos = scan_core::ops::enumerate(&keep);
    ctx.charge_scan_op(n);
    let records: Vec<(usize, u64, usize)> =
        (0..n).map(|i| (nodes[i], new_d[i], new_next[i])).collect();
    let kept = ctx.pack(&records, &keep);
    let kept_nodes: Vec<usize> = kept.iter().map(|&(v, _, _)| v).collect();
    let kept_d: Vec<u64> = kept.iter().map(|&(_, w, _)| w).collect();
    let kept_next: Vec<usize> = kept.iter().map(|&(_, _, p)| new_pos[p]).collect();
    ctx.charge_permute_op(kept_nodes.len());
    let kept_rank = rank_rec(
        ctx,
        &kept_nodes,
        &kept_next,
        &kept_d,
        seed,
        depth + 1,
        threshold,
    );
    // Reinsert: a spliced node's rank is its old edge weight plus its
    // old successor's rank.
    let mut rank = vec![0u64; n];
    let mut ki = 0;
    for i in 0..n {
        if keep[i] {
            rank[i] = kept_rank[ki];
            ki += 1;
        }
    }
    for i in 0..n {
        if spliced[i] {
            rank[i] = d[i] + rank[next[i]];
        }
    }
    ctx.charge_permute_op(n);
    ctx.charge_elementwise_op(n);
    rank
}

/// Contraction ranking with the default scan-model machine.
pub fn contraction_rank(next: &[usize], seed: u64) -> Vec<u64> {
    let mut ctx = Ctx::new(Model::Scan);
    contraction_rank_ctx(&mut ctx, next, seed)
}

/// Sequential reference.
pub fn rank_reference(next: &[usize]) -> Vec<u64> {
    let n = next.len();
    let mut rank = vec![0u64; n];
    // Find tail, walk backward via an inverted pointer array.
    let mut pred = vec![usize::MAX; n];
    let mut tail = usize::MAX;
    for i in 0..n {
        if next[i] == i {
            tail = i;
        } else {
            pred[next[i]] = i;
        }
    }
    assert!(tail != usize::MAX || n == 0, "list must have a tail");
    let mut cur = tail;
    let mut r = 0u64;
    while cur != usize::MAX {
        rank[cur] = r;
        r += 1;
        cur = pred[cur];
    }
    rank
}

/// Build a random list permutation of length `n`: returns the `next`
/// array (workload generator for the Table 5 bench).
pub fn random_list(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    let mut next = vec![0usize; n];
    for w in order.windows(2) {
        next[w[0]] = w[1];
    }
    if n > 0 {
        let tail = order[n - 1];
        next[tail] = tail;
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(next: &[usize], seed: u64) {
        let expect = rank_reference(next);
        assert_eq!(wyllie_rank(next), expect, "wyllie on {next:?}");
        assert_eq!(
            contraction_rank(next, seed),
            expect,
            "contraction on {next:?}"
        );
    }

    #[test]
    fn straight_list() {
        // 0→1→2→3→4 (tail 4)
        check(&[1, 2, 3, 4, 4], 1);
    }

    #[test]
    fn single_and_pair() {
        check(&[0], 2);
        check(&[1, 1], 3);
        check(&[], 4);
    }

    #[test]
    fn scrambled_lists() {
        for seed in 0..5 {
            let next = random_list(100, seed * 7 + 1);
            check(&next, seed);
        }
    }

    #[test]
    fn large_list() {
        let next = random_list(5000, 99);
        check(&next, 5);
    }

    #[test]
    fn wyllie_work_exceeds_contraction_work() {
        // Table 5's point: pointer jumping with p = n does Θ(n lg n)
        // processor-steps; the contraction with p = n/lg n does Θ(n).
        let products = |lg_n: u32| {
            let n = 1usize << lg_n;
            let next = random_list(n, 3);
            let mut wy = Ctx::with_processors(Model::Scan, n);
            wyllie_rank_ctx(&mut wy, &next);
            let p = n / lg_n as usize;
            let mut co = Ctx::with_processors(Model::Scan, p);
            contraction_rank_ctx(&mut co, &next, 1);
            (wy.steps() * n as u64, co.steps() * p as u64)
        };
        let (wy16, co16) = products(16);
        assert!(
            wy16 > co16,
            "wyllie {wy16} vs contraction {co16} processor-steps"
        );
        // The gap is the Θ(lg n) work factor, so it must widen with n.
        let (wy12, co12) = products(12);
        let r12 = wy12 as f64 / co12 as f64;
        let r16 = wy16 as f64 / co16 as f64;
        assert!(r16 > r12, "ratio must grow: {r12:.2} → {r16:.2}");
    }

    #[test]
    fn random_list_generator_is_valid() {
        let next = random_list(50, 8);
        // Exactly one tail; all reachable.
        let tails = next.iter().enumerate().filter(|&(i, &p)| i == p).count();
        assert_eq!(tails, 1);
        let ranks = rank_reference(&next);
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        let expect: Vec<u64> = (0..50).collect();
        assert_eq!(sorted, expect, "ranks must be a permutation of 0..n");
    }
}
