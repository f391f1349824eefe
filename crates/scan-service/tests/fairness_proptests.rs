//! Property suite for the weighted fair queue: under arbitrary
//! proptest-generated tenant mixes (weights, queue depths, push
//! orders, batch capacities), no request's wait exceeds the published
//! starvation bound, per-tenant FIFO order is preserved, and nothing
//! is ever lost.
//!
//! The bound under test (derived in `scan_service::queue`):
//!
//! ```text
//! dispatches_waited ≤ ceil((p + 1) · Σweights / capacity) + 1
//! ```
//!
//! where `p` is the request's 0-based position in its tenant's queue
//! at enqueue time and Σweights ranges over every tenant in the mix.

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;
use scan_service::{starvation_bound, FairQueue, TenantId};

/// SplitMix64, for seeded in-test shuffles.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One queued token: (tenant index, per-tenant sequence number,
/// position in tenant queue at push).
type Token = (usize, usize, usize);

/// Build the push list for a mix and seed-shuffle it so adversarial
/// interleavings are covered, then enqueue everything.
fn build(mix_spec: &[(u32, usize)], order_seed: u64) -> (FairQueue<Token>, u64, usize) {
    let weights: BTreeMap<TenantId, u32> = mix_spec
        .iter()
        .enumerate()
        .map(|(t, &(w, _))| (TenantId(t as u64), w))
        .collect();
    let total_weight: u64 = mix_spec.iter().map(|&(w, _)| u64::from(w)).sum();

    // One slot per item, shuffled across tenants; per-tenant sequence
    // numbers are assigned at push time so they reflect actual
    // submission order.
    let mut pushes: Vec<usize> = Vec::new();
    for (t, &(_, count)) in mix_spec.iter().enumerate() {
        pushes.extend(std::iter::repeat_n(t, count));
    }
    for i in (1..pushes.len()).rev() {
        let j = (mix(order_seed.wrapping_add(i as u64)) % (i as u64 + 1)) as usize;
        pushes.swap(i, j);
    }

    let mut q: FairQueue<Token> = FairQueue::new(1, weights);
    let total = pushes.len();
    for t in pushes {
        // With no interleaved pops, queue position == sequence number.
        let pos = q.tenant_depth(TenantId(t as u64));
        q.push(TenantId(t as u64), (t, pos, pos));
    }
    (q, total_weight, total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The headline property: every request is dispatched within its
    /// starvation bound, whatever the tenant mix.
    #[test]
    fn no_request_exceeds_starvation_bound(
        mix_spec in vec((1u32..5, 0usize..30), 1..6),
        capacity in 1usize..17,
        order_seed in any::<u64>(),
    ) {
        let (mut q, total_weight, total) = build(&mix_spec, order_seed);
        let mut drained = 0usize;
        let mut dispatch = 0u64;
        while q.depth() > 0 {
            let batch = q.take_batch(capacity, |_| true);
            prop_assert!(!batch.is_empty(), "no progress with depth {}", q.depth());
            for &(t, seq, pos) in &batch {
                let waited = dispatch + 1;
                let bound = starvation_bound(pos, total_weight, capacity);
                prop_assert!(
                    waited <= bound,
                    "tenant {t} item {seq} (pos {pos}) waited {waited} > bound {bound} \
                     (W={total_weight}, cap={capacity})"
                );
            }
            drained += batch.len();
            dispatch += 1;
        }
        prop_assert_eq!(drained, total, "requests lost in the queue");
    }

    /// Per-tenant FIFO: a tenant's requests are dispatched in
    /// submission order, regardless of interleaving or capacity.
    #[test]
    fn per_tenant_fifo_is_preserved(
        mix_spec in vec((1u32..5, 0usize..30), 1..6),
        capacity in 1usize..17,
        order_seed in any::<u64>(),
    ) {
        let (mut q, _, _) = build(&mix_spec, order_seed);
        let mut next_seq: BTreeMap<usize, usize> = BTreeMap::new();
        while q.depth() > 0 {
            for (t, seq, _) in q.take_batch(capacity, |_| true) {
                let expect = next_seq.entry(t).or_insert(0);
                prop_assert_eq!(seq, *expect, "tenant {} out of order", t);
                *expect += 1;
            }
        }
    }

    /// Abandoned requests are dropped for free: live requests still
    /// meet the bound computed from their original positions, and the
    /// queue still fully drains.
    #[test]
    fn dead_items_never_hurt_live_ones(
        mix_spec in vec((1u32..5, 0usize..20), 1..5),
        capacity in 1usize..9,
        order_seed in any::<u64>(),
        dead_seed in any::<u64>(),
    ) {
        let (mut q, total_weight, total) = build(&mix_spec, order_seed);
        let is_dead =
            |tok: &Token| mix(dead_seed ^ ((tok.0 as u64) << 32 | tok.1 as u64)).is_multiple_of(3);
        let mut live_drained = 0usize;
        let mut dead_dropped = 0usize;
        let mut dispatch = 0u64;
        while q.depth() > 0 {
            let before = q.depth();
            let batch = q.take_batch(capacity, |tok| !is_dead(tok));
            dead_dropped += before - q.depth() - batch.len();
            for &(t, seq, pos) in &batch {
                let waited = dispatch + 1;
                let bound = starvation_bound(pos, total_weight, capacity);
                prop_assert!(
                    waited <= bound,
                    "live tenant {t} item {seq} (pos {pos}) waited {waited} > {bound}"
                );
            }
            live_drained += batch.len();
            dispatch += 1;
            prop_assert!(q.depth() < before, "no progress draining");
        }
        prop_assert_eq!(live_drained + dead_dropped, total);
    }

    /// A single flooding tenant cannot push a small tenant's
    /// head-of-line request past the bound for position 0.
    #[test]
    fn flood_cannot_starve_head_of_line(
        flood in 1usize..200,
        capacity in 2usize..17,
        flood_weight in 1u32..5,
    ) {
        let weights = BTreeMap::from([(TenantId(0), flood_weight), (TenantId(1), 1)]);
        let mut q: FairQueue<u64> = FairQueue::new(1, weights);
        for i in 0..flood {
            q.push(TenantId(0), i as u64);
        }
        q.push(TenantId(1), u64::MAX);
        let total_weight = u64::from(flood_weight) + 1;
        let bound = starvation_bound(0, total_weight, capacity);
        let mut dispatch = 0u64;
        'outer: while q.depth() > 0 {
            for item in q.take_batch(capacity, |_| true) {
                if item == u64::MAX {
                    prop_assert!(
                        dispatch < bound,
                        "victim waited {} > bound {bound}",
                        dispatch + 1
                    );
                    break 'outer;
                }
            }
            dispatch += 1;
        }
    }
}
