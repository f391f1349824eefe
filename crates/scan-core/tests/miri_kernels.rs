//! Sanitizer profile for the unsafe kernels: Miri-sized proofs of the
//! engine's disjoint-write discipline.
//!
//! Every unsafe block in `parallel.rs` / `multi_split.rs` claims the
//! same invariant — parallel tasks write disjoint index ranges of an
//! uninitialized buffer, every index is written before `set_len`, and
//! the join establishes happens-before with the reader. Miri checks
//! those claims directly (uninitialized reads, out-of-bounds writes,
//! and data races are all hard errors), but it interprets every
//! instruction, so the production `PAR_THRESHOLD` (16Ki elements)
//! would take hours. The doc-hidden threshold override shrinks the
//! parallel cutoff so the *blocked* path — multiple blocks, real
//! worker threads, uninitialized output — runs on a few hundred
//! elements.
//!
//! The suite is dual-mode: under plain `cargo test` it runs with
//! larger sizes as a cheap regression net; under
//! `cargo +nightly miri test -p scan-core --test miri_kernels`
//! it is the soundness proof. `Schedule::Spawn` is used for the
//! cross-thread proofs because it spawns real threads regardless of
//! pool width (the global pool degrades to sequential on one core);
//! the pool's own unsafe claiming path is proven via `WorkerPool`
//! directly.

use scan_core::parallel::{
    self, map_by_sched, seq_exclusive_scan_by, seq_inclusive_scan_by, seq_reduce_by, Schedule,
};
use scan_core::pool::WorkerPool;
use scan_core::sync::atomic::{AtomicUsize, Ordering};
use scan_core::{multi_split, ops, ExecError, Scan, ScanDeadline};

/// Parallel cutoff while these tests run: small enough that Miri can
/// interpret the blocked path, large enough that the plan still
/// produces several blocks per schedule (`min_block` = 16).
const TEST_THRESHOLD: usize = 64;

/// Input size: comfortably past the shrunken threshold so every
/// schedule takes the blocked path, with a ragged tail so block
/// boundaries don't line up with anything.
fn n() -> usize {
    if cfg!(miri) {
        193
    } else {
        5 * 1024 + 7
    }
}

/// All tests share one process-wide override; setting it to the same
/// value from every test keeps the (parallel) test harness benign.
fn shrink_threshold() {
    parallel::set_par_threshold_override(TEST_THRESHOLD);
}

fn input(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect()
}

const SCHEDS: [Schedule; 4] = [
    Schedule::Spawn,
    Schedule::Pooled,
    Schedule::Lookback,
    Schedule::Sequential,
];

#[test]
fn scan_kernels_are_sound_at_miri_size() {
    shrink_threshold();
    let a = input(n());
    let f = u64::wrapping_add;
    let exc = seq_exclusive_scan_by(&a, 0, f);
    let inc = seq_inclusive_scan_by(&a, 0, f);
    let mut rev = a.clone();
    rev.reverse();
    let mut exc_bwd = seq_exclusive_scan_by(&rev, 0, f);
    exc_bwd.reverse();
    for sched in SCHEDS {
        assert_eq!(Scan::by(0, f).schedule(sched).run(&a).0, exc, "{sched:?}");
        assert_eq!(
            Scan::by(0, f).schedule(sched).inclusive().run(&a).0,
            inc,
            "{sched:?}"
        );
        assert_eq!(
            Scan::by(0, f).schedule(sched).backward().run(&a).0,
            exc_bwd,
            "{sched:?}"
        );
        assert_eq!(
            Scan::by(0, f).schedule(sched).total(&a),
            seq_reduce_by(&a, 0, f),
            "{sched:?}"
        );
    }
}

#[test]
fn fill_kernel_initializes_every_index() {
    shrink_threshold();
    let a = input(n());
    for sched in SCHEDS {
        let m = map_by_sched(sched, &a, |x| x ^ 0xff);
        assert_eq!(m.len(), a.len());
        assert!(m.iter().zip(&a).all(|(&y, &x)| y == x ^ 0xff), "{sched:?}");
    }
}

#[test]
fn multi_split_kernel_is_sound_at_miri_size() {
    shrink_threshold();
    let a = input(n());
    let nbuckets = 5;
    let key = |x: u64| (x % nbuckets as u64) as usize;
    // Reference: stable bucket grouping, sequentially.
    let mut expect = Vec::with_capacity(a.len());
    let mut expect_counts = vec![0usize; nbuckets];
    for b in 0..nbuckets {
        for &x in &a {
            if key(x) == b {
                expect.push(x);
            }
        }
    }
    for &x in &a {
        expect_counts[key(x)] += 1;
    }
    for sched in SCHEDS {
        let mut dst = vec![0u64; a.len()];
        let mut scratch = multi_split::MultiSplitScratch::new();
        let counts =
            multi_split::multi_split_into_sched(sched, &a, &mut dst, nbuckets, key, &mut scratch);
        assert_eq!(dst, expect, "{sched:?}");
        assert_eq!(counts, expect_counts, "{sched:?}");
    }
}

#[test]
fn staged_scatter_is_sound_at_miri_size() {
    // Under Miri, every input the staged scatter can take takes it, and
    // its line copies are plain, so Miri checks the staging and flush
    // pointer arithmetic. `dst` starts mid-line, so the output's first
    // line begins before `dst[0]`; two buckets over several blocks give
    // (bucket, block) segments with full lines and partial lines at
    // both edges. At the staging limit, 2048 buckets, most of each
    // block's lines are empty or hold one element, so its final flush
    // runs over many empty and partial lines. Odd-sized elements take
    // the direct scatter.
    shrink_threshold();
    let a = input(n());
    let mut buf = vec![0u64; a.len() + 8];
    let o = (1..8)
        .find(|&o| !buf[o..].as_ptr().addr().is_multiple_of(64))
        .expect("8-byte steps leave a 64-byte line within 8 elements");
    let odd: Vec<[u32; 3]> = a.iter().map(|&x| [x as u32, (x >> 32) as u32, 1]).collect();
    for nbuckets in [2, multi_split::MAX_STAGED_BUCKETS] {
        let key = move |x: u64| (x >> 3) as usize % nbuckets;
        let mut expect = a.clone();
        expect.sort_by_key(|&x| key(x)); // stable
        let odd_key = move |t: [u32; 3]| (t[0] >> 3) as usize % nbuckets;
        let mut odd_expect = odd.clone();
        odd_expect.sort_by_key(|&t| odd_key(t));
        for sched in SCHEDS {
            let mut scratch = multi_split::MultiSplitScratch::new();
            let dst = &mut buf[o..o + a.len()];
            multi_split::multi_split_into_sched(sched, &a, dst, nbuckets, key, &mut scratch);
            assert_eq!(dst, expect.as_slice(), "{nbuckets} buckets, {sched:?}");
            let mut odd_dst = vec![[0u32; 3]; odd.len()];
            multi_split::multi_split_into_sched(
                sched,
                &odd,
                &mut odd_dst,
                nbuckets,
                odd_key,
                &mut scratch,
            );
            assert_eq!(odd_dst, odd_expect, "{nbuckets} buckets, {sched:?}");
        }
    }
}

#[test]
fn pack_kernel_is_sound_at_miri_size() {
    // Each block stores every element at its cursor and must stop once
    // the cursor reaches its end: one more store would race with the
    // next block's first slot, or land past the last block's capacity.
    // The prefix pattern ends a block on dropped elements after its
    // last kept one, and leaves the blocks after it with none.
    // `ops::pack` takes the default schedule; no other test here
    // reads it.
    shrink_threshold();
    let a = input(n());
    let keeps: [Vec<bool>; 4] = [
        a.iter().map(|&x| x % 3 == 0).collect(),
        vec![false; a.len()],
        vec![true; a.len()],
        (0..a.len()).map(|i| i < a.len() / 3).collect(),
    ];
    for sched in SCHEDS {
        parallel::set_default_schedule(sched);
        for keep in &keeps {
            let expect: Vec<u64> = a
                .iter()
                .zip(keep)
                .filter_map(|(&x, &k)| k.then_some(x))
                .collect();
            let expect_idx: Vec<usize> = (0..a.len()).filter(|&i| keep[i]).collect();
            assert_eq!(ops::pack(&a, keep), expect, "{sched:?}");
            assert_eq!(ops::pack_indices(keep), expect_idx, "{sched:?}");
        }
    }
    parallel::set_default_schedule(Schedule::Pooled);
}

#[test]
fn lookback_descriptor_protocol_is_race_free_under_miri() {
    // The descriptor table's cross-thread handshake on real threads:
    // the payload slot is plain (unsynchronized) memory published via a
    // Release store of the status word and read back under an Acquire
    // load. Miri's data-race detector proves the claim directly — if
    // the ordering were wrong, the successor's slot read would race
    // with the publisher's write.
    use scan_core::lookback::DescTable;
    use scan_core::sync::Arc;
    let table: Arc<DescTable<u64>> = Arc::new(DescTable::new(3));
    let t = Arc::clone(&table);
    let h = std::thread::spawn(move || {
        t.publish_aggregate(1, 5);
        t.publish_prefix(0, 7);
        t.publish_prefix(1, 12);
    });
    // Block 2's lookback must fold agg(1) onto prefix(0) — or observe
    // prefix(1) directly — and land on 12 either way, spinning through
    // EMPTY states until the publisher gets there.
    let seed = table.lookback(2, 0u64, &|a, b| a + b, None);
    assert_eq!(seed, Some(12));
    h.join().unwrap();
    assert_eq!(table.try_prefix(1), Some(12));
    assert!(!table.is_abandoned());
}

#[test]
fn pool_claiming_is_race_free_under_miri() {
    // The pool's lock-free task claiming + `TaskPtr` lifetime erasure,
    // on real worker threads. Every task must run exactly once and the
    // join must publish the writes.
    let pool = WorkerPool::new(3);
    let ntasks = if cfg!(miri) { 24 } else { 256 };
    let hits: Vec<AtomicUsize> = (0..ntasks).map(|_| AtomicUsize::new(0)).collect();
    for _ in 0..2 {
        pool.run(ntasks, |t| {
            hits[t].fetch_add(1, Ordering::Relaxed);
        });
    }
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 2));
}

#[test]
fn pool_cancellation_and_containment_under_miri() {
    let pool = WorkerPool::new(2);
    // Manual deadline: cancelled mid-job, drained without running the
    // remaining tasks to completion.
    let d = ScanDeadline::manual();
    let ran = AtomicUsize::new(0);
    let r = pool.try_run(8, Some(&d), |t| {
        if t == 0 {
            d.cancel();
        }
        ran.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(r, Err(ExecError::Cancelled));
    // A panicking task is contained and surfaces as a typed error.
    let r = pool.try_run(4, None, |t| {
        assert!(t != 2, "task exploded");
    });
    assert!(matches!(r, Err(ExecError::WorkerLost { panics }) if panics >= 1));
    // The pool stays usable afterwards.
    let ok = AtomicUsize::new(0);
    assert_eq!(
        pool.try_run(4, None, |_| {
            ok.fetch_add(1, Ordering::Relaxed);
        }),
        Ok(())
    );
    assert_eq!(ok.load(Ordering::Relaxed), 4);
}
