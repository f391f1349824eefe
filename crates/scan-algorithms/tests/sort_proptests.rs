//! Differential + stability suite for the fused radix sort.
//!
//! The fused engine (`scan_core::multi_split`) must be a drop-in
//! replacement for the unfused enumerate-per-bucket schedule: same
//! output, same stability guarantee, same scan-model charges — at
//! every digit width, at sizes straddling `PAR_THRESHOLD`, under both
//! parallel schedules. Like `scan-core`'s engine suite, the pool is
//! pinned to 4 lanes so the blocked paths genuinely run parallel even
//! on a single-core CI machine.

use proptest::prelude::*;
use scan_algorithms::sort::fused_radix::{
    fused_radix_sort, fused_radix_sort_digits, fused_radix_sort_digits_ctx,
    fused_radix_sort_pairs_digits, try_fused_radix_sort, try_fused_radix_sort_digits,
};
use scan_algorithms::sort::radix::{split_radix_sort_digits, split_radix_sort_digits_ctx};
use scan_core::parallel::{self, Schedule, PAR_THRESHOLD};
use scan_pram::{Ctx, Model};
use std::sync::{Mutex, Once};

static INIT: Once = Once::new();

/// Pin the pool width to 4 before the lazy pool is first created (the
/// CI container may expose one core, which would silently bypass the
/// parallel scatter paths).
fn setup() {
    INIT.call_once(|| {
        std::env::set_var("SCAN_CORE_THREADS", "4");
        assert_eq!(scan_core::pool::global().threads(), 4);
    });
}

/// Serializes tests that flip the process-wide default schedule.
static SCHED_LOCK: Mutex<()> = Mutex::new(());

fn with_default_schedule<R>(s: Schedule, f: impl FnOnce() -> R) -> R {
    let _guard = SCHED_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    parallel::set_default_schedule(s);
    let r = f();
    parallel::set_default_schedule(Schedule::Pooled);
    r
}

/// Deterministic pseudo-random keys (splitmix64), masked to `bits`.
fn keys(mut seed: u64, n: usize, bits: u32) -> Vec<u64> {
    let mask = if bits >= 64 {
        u64::MAX
    } else {
        (1 << bits) - 1
    };
    (0..n)
        .map(|_| {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) & mask
        })
        .collect()
}

const WIDTHS: [u32; 4] = [1, 4, 8, 11];

#[test]
fn fused_matches_legacy_and_std_across_threshold_and_schedules() {
    setup();
    let sizes = [
        0usize,
        1,
        7,
        1000,
        PAR_THRESHOLD - 1,
        PAR_THRESHOLD,
        PAR_THRESHOLD + 1,
        2 * PAR_THRESHOLD + 7,
    ];
    for sched in [Schedule::Pooled, Schedule::Spawn, Schedule::Sequential] {
        with_default_schedule(sched, || {
            for &n in &sizes {
                let ks = keys(n as u64 ^ 0xDEAD, n, 16);
                let mut expect = ks.clone();
                expect.sort_unstable();
                for w in WIDTHS {
                    let fused = fused_radix_sort_digits(&ks, 16, w);
                    assert_eq!(fused, expect, "sched={sched:?} n={n} w={w}");
                }
                // The legacy path is quadratic in 2^w per pass — check
                // it differentially at one cheap width only for the
                // large sizes.
                let legacy = split_radix_sort_digits(&ks, 16, 8);
                assert_eq!(legacy, expect, "legacy sched={sched:?} n={n}");
            }
        });
    }
}

#[test]
fn stability_with_tagged_duplicates_across_threshold() {
    setup();
    for &n in &[1000usize, PAR_THRESHOLD + 17] {
        // Heavily duplicated 4-bit keys tagged with their original
        // index: a stable sort must keep tags ascending per key.
        let ks = keys(42 + n as u64, n, 4);
        let tags: Vec<u64> = (0..n as u64).collect();
        for w in WIDTHS {
            let (sk, sv) = fused_radix_sort_pairs_digits(&ks, &tags, 4, w);
            let mut expect: Vec<(u64, u64)> =
                ks.iter().copied().zip(tags.iter().copied()).collect();
            expect.sort_by_key(|&(k, _)| k); // std stable sort
            let got: Vec<(u64, u64)> = sk.into_iter().zip(sv).collect();
            assert_eq!(got, expect, "n={n} w={w}");
        }
    }
}

#[test]
fn ctx_charges_match_legacy_at_every_width() {
    setup();
    let ks = keys(7, 512, 16);
    for w in WIDTHS {
        let mut fused_ctx = Ctx::new(Model::Scan);
        let mut legacy_ctx = Ctx::new(Model::Scan);
        let fused = fused_radix_sort_digits_ctx(&mut fused_ctx, &ks, 16, w);
        let legacy = split_radix_sort_digits_ctx(&mut legacy_ctx, &ks, 16, w);
        assert_eq!(fused, legacy, "w={w}");
        assert_eq!(fused_ctx.steps(), legacy_ctx.steps(), "w={w}");
    }
}

#[test]
fn try_fused_agrees_and_reports_typed_errors() {
    setup();
    use scan_core::{deadline, Error, ExecError, ScanDeadline};
    let ks = keys(3, PAR_THRESHOLD + 5, 16);
    assert_eq!(
        try_fused_radix_sort(&ks, 16).unwrap(),
        fused_radix_sort(&ks, 16)
    );
    assert!(matches!(
        try_fused_radix_sort(&[1 << 20], 16),
        Err(Error::WidthOverflow { available: 16, .. })
    ));
    let d = ScanDeadline::manual();
    d.cancel();
    for sched in [Schedule::Pooled, Schedule::Spawn] {
        with_default_schedule(sched, || {
            let r = deadline::with_deadline(&d, || try_fused_radix_sort_digits(&ks, 16, 8));
            assert_eq!(r, Err(Error::Exec(ExecError::Cancelled)), "sched={sched:?}");
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random keys, random width: fused == std unstable sort (values
    /// only) and fused pairs == std stable sort (stability).
    #[test]
    fn fused_sorts_random_keys(
        ks in proptest::collection::vec(0u64..(1 << 16), 0..700),
        wi in 0usize..4,
    ) {
        setup();
        let w = WIDTHS[wi];
        let mut expect = ks.clone();
        expect.sort_unstable();
        prop_assert_eq!(fused_radix_sort_digits(&ks, 16, w), expect);
    }

    /// Fused and legacy schedules are interchangeable on random data.
    #[test]
    fn fused_matches_legacy_random(
        ks in proptest::collection::vec(0u64..(1 << 10), 0..400),
        wi in 0usize..3,
    ) {
        setup();
        let w = [1u32, 4, 8][wi];
        prop_assert_eq!(
            fused_radix_sort_digits(&ks, 10, w),
            split_radix_sort_digits(&ks, 10, w)
        );
    }

    /// Stability under duplicates for the pairs variant.
    #[test]
    fn fused_pairs_stable_random(
        ks in proptest::collection::vec(0u64..16, 0..500),
        wi in 0usize..2,
    ) {
        setup();
        let w = [1u32, 4][wi];
        let tags: Vec<u64> = (0..ks.len() as u64).collect();
        let (sk, sv) = fused_radix_sort_pairs_digits(&ks, &tags, 4, w);
        let mut expect: Vec<(u64, u64)> =
            ks.iter().copied().zip(tags.iter().copied()).collect();
        expect.sort_by_key(|&(k, _)| k);
        let got: Vec<(u64, u64)> = sk.into_iter().zip(sv).collect();
        prop_assert_eq!(got, expect);
    }

    /// The checked variant never panics and agrees with the infallible
    /// path when no deadline is armed.
    #[test]
    fn try_fused_total_random(
        ks in proptest::collection::vec(0u64..(1 << 12), 0..300),
        wi in 0usize..2,
    ) {
        setup();
        let w = [1u32, 8][wi];
        let r = try_fused_radix_sort_digits(&ks, 12, w);
        prop_assert_eq!(r.unwrap(), fused_radix_sort_digits(&ks, 12, w));
    }
}
