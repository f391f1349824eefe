//! Chaos coverage for the fused `multi_split` kernel and the sort
//! built on it: injected key-function panics, delays, cancellation,
//! and deadlines must always terminate as a typed error or a correct
//! result — and the worker pool must stay usable afterwards.

use scan_algorithms::sort::fused_radix::{fused_radix_sort, try_fused_radix_sort_digits};
use scan_core::multi_split::{try_multi_split_into_sched, MultiSplitScratch};
use scan_core::parallel::{Schedule, PAR_THRESHOLD};
use scan_core::{deadline, Error, ExecError, ScanDeadline};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;
use std::time::Duration;

static INIT: Once = Once::new();

/// Pin the pool to 4 lanes so the chaos genuinely crosses threads.
fn setup() {
    INIT.call_once(|| {
        std::env::set_var("SCAN_CORE_THREADS", "4");
        assert_eq!(scan_core::pool::global().threads(), 4);
    });
}

fn keys(mut seed: u64, n: usize) -> Vec<u64> {
    (0..n)
        .map(|_| {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (z ^ (z >> 31)) & 0xFFFF
        })
        .collect()
}

const PAR_SCHEDULES: [Schedule; 2] = [Schedule::Pooled, Schedule::Spawn];

#[test]
fn panicking_key_is_contained_as_worker_lost_and_pool_recovers() {
    setup();
    let n = PAR_THRESHOLD * 2;
    let ks = keys(1, n);
    for sched in PAR_SCHEDULES {
        let calls = AtomicU64::new(0);
        let mut dst = vec![0u64; n];
        let mut scratch = MultiSplitScratch::new();
        let r = try_multi_split_into_sched(
            sched,
            &ks,
            &mut dst,
            16,
            |k| {
                // Panic deep inside one block, mid-histogram.
                if calls.fetch_add(1, Ordering::Relaxed) == (n / 2) as u64 {
                    panic!("chaos: key function exploded");
                }
                (k & 15) as usize
            },
            &mut scratch,
        );
        assert!(
            matches!(r, Err(Error::Exec(ExecError::WorkerLost { .. }))),
            "sched={sched:?} got {r:?}"
        );
        // The pool respawned its worker: the next submission succeeds
        // and is correct.
        let mut expect = ks.clone();
        expect.sort_unstable();
        assert_eq!(fused_radix_sort(&ks, 16), expect, "sched={sched:?}");
    }
}

#[test]
fn expired_deadline_is_typed_under_both_schedules() {
    setup();
    let ks = keys(2, PAR_THRESHOLD * 2);
    for sched in PAR_SCHEDULES {
        let d = ScanDeadline::after(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        let r = deadline::with_deadline(&d, || {
            let mut dst = vec![0u64; ks.len()];
            let mut scratch = MultiSplitScratch::new();
            try_multi_split_into_sched(
                sched,
                &ks,
                &mut dst,
                256,
                |k| (k & 255) as usize,
                &mut scratch,
            )
        });
        assert_eq!(
            r,
            Err(Error::Exec(ExecError::DeadlineExceeded)),
            "sched={sched:?}"
        );
    }
}

#[test]
fn slow_key_under_deadline_terminates_typed_or_correct() {
    setup();
    // A key function slowed by injected delays races a short deadline:
    // the only legal outcomes are a correct sort or a typed error.
    let ks = keys(3, PAR_THRESHOLD + 123);
    let mut expect = ks.clone();
    expect.sort_unstable();
    for case in 0..4u64 {
        let d = ScanDeadline::after(Duration::from_micros(50 + case * 200));
        let r = deadline::with_deadline(&d, || try_fused_radix_sort_digits(&ks, 16, 8));
        match r {
            Ok(sorted) => assert_eq!(sorted, expect, "case={case}"),
            Err(Error::Exec(ExecError::DeadlineExceeded | ExecError::Cancelled)) => {}
            Err(e) => panic!("case={case}: unexpected error {e:?}"),
        }
    }
}

#[test]
fn cancellation_mid_sort_is_typed_and_state_is_reusable() {
    setup();
    let ks = keys(4, PAR_THRESHOLD * 2);
    let d = ScanDeadline::manual();
    d.cancel();
    let r = deadline::with_deadline(&d, || try_fused_radix_sort_digits(&ks, 16, 4));
    assert_eq!(r, Err(Error::Exec(ExecError::Cancelled)));
    // No ambient deadline: the same input sorts fine afterwards.
    let mut expect = ks.clone();
    expect.sort_unstable();
    assert_eq!(try_fused_radix_sort_digits(&ks, 16, 4).unwrap(), expect);
}

#[test]
fn out_of_range_bucket_is_typed_not_a_crash() {
    setup();
    let ks = keys(5, PAR_THRESHOLD * 2);
    for sched in PAR_SCHEDULES {
        let mut dst = vec![0u64; ks.len()];
        let mut scratch = MultiSplitScratch::new();
        let r = try_multi_split_into_sched(
            sched,
            &ks,
            &mut dst,
            8,
            |k| (k & 15) as usize, // up to 15 ≥ 8 buckets
            &mut scratch,
        );
        assert!(
            matches!(r, Err(Error::IndexOutOfBounds { len: 8, .. })),
            "sched={sched:?} got {r:?}"
        );
    }
}
