//! Differential tests for the execution engine: every `*_by` entry
//! point, under both parallel schedules ([`Schedule::Pooled`] and
//! [`Schedule::Spawn`]) and all four scan directions, must agree with
//! the sequential reference at sizes straddling `PAR_THRESHOLD`, and
//! every entry point's `try_*` twin must return `Ok` with the
//! infallible call's output, bit for bit. `pack` and `pack_indices`
//! must agree with an iterator filter at keep densities from none to
//! all, under the same schedules and `Sequential`.
//!
//! The container running CI may expose a single core, which would give
//! the lazy global pool width 1 and silently skip the parallel paths.
//! [`setup`] pins `SCAN_CORE_THREADS=4` before the pool is first
//! touched so the blocked kernels genuinely run multi-threaded here.

// Not meaningful under the loom model-checking cfg (no global pool).
#![cfg(not(loom))]

use proptest::prelude::*;
use scan_core::parallel::{self, Schedule, PAR_THRESHOLD};
use scan_core::segmented::{
    seg_inclusive_scan, seg_inclusive_scan_backward, seg_scan, seg_scan_backward, Segments,
};
use scan_core::{ops, Max, Scan, ScanOp, Sum};
use std::sync::{Mutex, Once};

static INIT: Once = Once::new();

/// Pin the pool width to 4 and force pool creation before any test
/// runs a scan. `Once` serializes this against every other test thread,
/// so the `set_var` cannot race a concurrent pool init reading the
/// environment.
fn setup() {
    INIT.call_once(|| {
        std::env::set_var("SCAN_CORE_THREADS", "4");
        assert_eq!(
            scan_core::pool::global().threads(),
            4,
            "pool must honor SCAN_CORE_THREADS"
        );
    });
}

/// Serializes tests that flip the process-wide default schedule.
static SCHED_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with the default schedule set to `s`, restoring Pooled after.
fn with_default_schedule<R>(s: Schedule, f: impl FnOnce() -> R) -> R {
    let _guard = SCHED_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    parallel::set_default_schedule(s);
    let r = f();
    parallel::set_default_schedule(Schedule::Pooled);
    r
}

const PAR_SCHEDULES: [Schedule; 2] = [Schedule::Pooled, Schedule::Spawn];

/// Sizes that straddle every interesting boundary: empty, tiny, just
/// below/at/above the parallel threshold, a size that is not a multiple
/// of the block plan, and a couple of larger parallel sizes.
fn sizes() -> Vec<usize> {
    vec![
        0,
        1,
        2,
        3,
        7,
        PAR_THRESHOLD - 1,
        PAR_THRESHOLD,
        PAR_THRESHOLD + 1,
        PAR_THRESHOLD + PAR_THRESHOLD / 4 + 1,
        2 * PAR_THRESHOLD + 7,
    ]
}

/// Deterministic pseudo-random data (splitmix64).
fn data(mut seed: u64, n: usize) -> Vec<u64> {
    (0..n)
        .map(|_| {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}

/// Segment head flags with roughly one head per `period` elements.
fn flags(seed: u64, n: usize, period: u64) -> Vec<bool> {
    data(seed ^ 0x5e65, n)
        .iter()
        .map(|&x| x % period == 0)
        .collect()
}

fn wadd(a: u64, b: u64) -> u64 {
    a.wrapping_add(b)
}

/// The segmented `(value, flag)` pair operator over wrapping `+`.
fn seg_wadd((v1, f1): (u64, bool), (v2, f2): (u64, bool)) -> (u64, bool) {
    if f2 {
        (v2, true)
    } else {
        (v1.wrapping_add(v2), f1)
    }
}

/// The bit patterns of `v`, so float results compare bit for bit.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn forward_scans_match_reference(seed in any::<u64>()) {
        setup();
        for n in sizes() {
            let a = data(seed, n);
            let ex = parallel::seq_exclusive_scan_by(&a, 0u64, wadd);
            let inc = parallel::seq_inclusive_scan_by(&a, 0u64, wadd);
            // Float `+` is not associative: the `try_*` twin can match
            // the infallible call bit for bit only because both run the
            // same block plan with the same association.
            let af: Vec<f64> = a.iter().map(|&x| (x >> 11) as f64 / ((x % 997) as f64 + 1.0)).collect();
            let fadd = |x: f64, y: f64| x + y;
            for sched in PAR_SCHEDULES {
                prop_assert_eq!(
                    Scan::by(0u64, wadd).schedule(sched).run(&a).0,
                    ex.clone(),
                    "exclusive fwd n={} sched={:?}", n, sched
                );
                prop_assert_eq!(
                    Scan::by(0u64, wadd).schedule(sched).inclusive().run(&a).0,
                    inc.clone(),
                    "inclusive fwd n={} sched={:?}", n, sched
                );
                prop_assert_eq!(
                    Scan::by(0u64, wadd).schedule(sched).try_run(&a).map(|r| r.0),
                    Ok(ex.clone()),
                    "try exclusive fwd n={} sched={:?}", n, sched
                );
                let try_inc = with_default_schedule(sched, || {
                    Scan::by(0u64, wadd).inclusive().try_run(&a).map(|r| r.0)
                });
                prop_assert_eq!(try_inc, Ok(inc.clone()), "try inclusive fwd n={} sched={:?}", n, sched);

                let f_ex = Scan::by(0.0, fadd).schedule(sched).run(&af).0;
                let f_try_ex = Scan::by(0.0, fadd).schedule(sched).try_run(&af).map(|r| r.0);
                prop_assert!(f_try_ex.is_ok(), "try f64 exclusive n={} sched={:?}", n, sched);
                prop_assert_eq!(
                    bits(&f_try_ex.unwrap_or_default()),
                    bits(&f_ex),
                    "try f64 exclusive bits n={} sched={:?}", n, sched
                );
                let f_inc = Scan::by(0.0, fadd).schedule(sched).inclusive().run(&af).0;
                let f_try_inc = with_default_schedule(sched, || {
                    Scan::by(0.0, fadd).inclusive().try_run(&af).map(|r| r.0)
                });
                prop_assert!(f_try_inc.is_ok(), "try f64 inclusive n={} sched={:?}", n, sched);
                prop_assert_eq!(
                    bits(&f_try_inc.unwrap_or_default()),
                    bits(&f_inc),
                    "try f64 inclusive bits n={} sched={:?}", n, sched
                );
            }
        }
    }

    #[test]
    fn backward_scans_match_reversed_reference(seed in any::<u64>()) {
        setup();
        for n in sizes() {
            let a = data(seed, n);
            let rev: Vec<u64> = a.iter().rev().copied().collect();
            let mut ex = parallel::seq_exclusive_scan_by(&rev, 0u64, u64::max);
            ex.reverse();
            let mut inc = parallel::seq_inclusive_scan_by(&rev, 0u64, u64::max);
            inc.reverse();
            for sched in PAR_SCHEDULES {
                prop_assert_eq!(
                    Scan::by(0u64, u64::max).schedule(sched).backward().run(&a).0,
                    ex.clone(),
                    "exclusive bwd n={} sched={:?}", n, sched
                );
                prop_assert_eq!(
                    Scan::by(0u64, u64::max).schedule(sched).backward().inclusive().run(&a).0,
                    inc.clone(),
                    "inclusive bwd n={} sched={:?}", n, sched
                );
                let (try_ex, try_inc) = with_default_schedule(sched, || {
                    (
                        Scan::by(0u64, u64::max).backward().try_run(&a).map(|r| r.0),
                        Scan::by(0u64, u64::max).backward().inclusive().try_run(&a).map(|r| r.0),
                    )
                });
                prop_assert_eq!(try_ex, Ok(ex.clone()), "try exclusive bwd n={} sched={:?}", n, sched);
                prop_assert_eq!(try_inc, Ok(inc.clone()), "try inclusive bwd n={} sched={:?}", n, sched);
            }
        }
    }

    #[test]
    fn scan_with_total_matches_scan_plus_reduce(seed in any::<u64>()) {
        setup();
        for n in sizes() {
            let a = data(seed, n);
            let ex = parallel::seq_exclusive_scan_by(&a, 0u64, wadd);
            let total = parallel::seq_reduce_by(&a, 0u64, wadd);
            for sched in PAR_SCHEDULES {
                let (got, got_total) = with_default_schedule(sched, || {
                    Scan::by(0u64, wadd).run(&a)
                });
                prop_assert_eq!(got, ex.clone(), "with_total scan n={}", n);
                prop_assert_eq!(got_total, total, "with_total total n={}", n);
                let try_got = with_default_schedule(sched, || {
                    Scan::by(0u64, wadd).try_run(&a)
                });
                prop_assert_eq!(try_got, Ok((ex.clone(), total)), "try with_total n={} sched={:?}", n, sched);
            }
        }
    }

    #[test]
    fn reduce_map_tabulate_zip_match_naive(seed in any::<u64>()) {
        setup();
        for n in sizes() {
            let a = data(seed, n);
            let b = data(seed ^ 0xbeef, n);
            let red_ref = parallel::seq_reduce_by(&a, 0u64, u64::max);
            let map_ref: Vec<u64> = a.iter().map(|&x| x ^ 0xff).collect();
            let tab_ref: Vec<u64> = (0..n).map(|i| (i as u64) * 3).collect();
            let zip_ref: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x.wrapping_add(y)).collect();
            for sched in PAR_SCHEDULES {
                prop_assert_eq!(
                    Scan::by(0u64, u64::max).schedule(sched).total(&a),
                    red_ref,
                    "reduce n={} sched={:?}", n, sched
                );
                prop_assert_eq!(
                    Scan::by(0u64, u64::max).schedule(sched).try_total(&a),
                    Ok(red_ref),
                    "try reduce n={} sched={:?}", n, sched
                );
                prop_assert_eq!(
                    parallel::map_by_sched(sched, &a, |x| x ^ 0xff),
                    map_ref.clone(),
                    "map n={}", n
                );
                let (tab, zip) = with_default_schedule(sched, || {
                    (
                        parallel::tabulate_by(n, |i| (i as u64) * 3),
                        parallel::zip_by(&a, &b, |x: u64, y: u64| x.wrapping_add(y)),
                    )
                });
                prop_assert_eq!(tab, tab_ref.clone(), "tabulate n={}", n);
                prop_assert_eq!(zip, zip_ref.clone(), "zip n={}", n);
            }
        }
    }

    #[test]
    fn segmented_pair_operator_matches_per_segment_reference(seed in any::<u64>()) {
        setup();
        for n in sizes() {
            let a = data(seed, n);
            let f = flags(seed, n, 97);
            let segs = Segments::from_flags(f);

            // Per-segment sequential references, all four directions.
            let mut ex = vec![0u64; n];
            let mut inc = vec![0u64; n];
            let mut bex = vec![0u64; n];
            let mut binc = vec![0u64; n];
            for (s, e) in segs.ranges() {
                let mut acc = 0u64;
                for i in s..e {
                    ex[i] = acc;
                    acc = acc.wrapping_add(a[i]);
                    inc[i] = acc;
                }
                let mut acc = 0u64;
                for i in (s..e).rev() {
                    bex[i] = acc;
                    acc = acc.wrapping_add(a[i]);
                    binc[i] = acc;
                }
            }

            for sched in PAR_SCHEDULES {
                // The library's fused segmented scans (default-schedule
                // entry points).
                let (g_ex, g_inc, g_bex, g_binc) = with_default_schedule(sched, || {
                    (
                        seg_scan::<Sum, _>(&a, &segs),
                        seg_inclusive_scan::<Sum, _>(&a, &segs),
                        seg_scan_backward::<Sum, _>(&a, &segs),
                        seg_inclusive_scan_backward::<Sum, _>(&a, &segs),
                    )
                });
                prop_assert_eq!(g_ex, ex.clone(), "seg excl fwd n={} sched={:?}", n, sched);
                prop_assert_eq!(g_inc, inc.clone(), "seg incl fwd n={}", n);
                prop_assert_eq!(g_bex, bex.clone(), "seg excl bwd n={}", n);
                prop_assert_eq!(g_binc, binc.clone(), "seg incl bwd n={}", n);
                let try_ex = with_default_schedule(sched, || {
                    Scan::op::<Sum, _>().segments(&segs).try_run(&a).map(|r| r.0)
                });
                prop_assert_eq!(try_ex, Ok(ex.clone()), "try seg excl fwd n={} sched={:?}", n, sched);

                // The raw pair operator through the generic engine: the
                // classic (value, flag) associative combine.
                let pairs: Vec<(u64, bool)> =
                    (0..n).map(|i| (a[i], segs.is_head(i))).collect();
                let combined = Scan::by((0u64, false), |(v1, f1), (v2, f2)| {
                    if f2 {
                        (v2, true)
                    } else {
                        (v1.wrapping_add(v2), f1)
                    }
                })
                .schedule(sched)
                .inclusive()
                .run(&pairs)
                .0;
                let got: Vec<u64> = combined.iter().map(|&(v, _)| v).collect();
                prop_assert_eq!(got, inc.clone(), "pair-op seg scan n={} sched={:?}", n, sched);
                let try_combined = with_default_schedule(sched, || {
                    Scan::by((0u64, false), seg_wadd).inclusive().try_run(&pairs).map(|r| r.0)
                });
                prop_assert_eq!(try_combined, Ok(combined), "try pair-op seg scan n={} sched={:?}", n, sched);
            }
        }
    }

    #[test]
    fn pack_and_pack_indices_match_filter(seed in any::<u64>()) {
        setup();
        for n in sizes() {
            let a = data(seed, n);
            let r = data(seed ^ 0x9ac4, n);
            // Keep densities 0, 1/64, 1/2, 63/64 and 1.
            for kept_of_64 in [0u64, 1, 32, 63, 64] {
                let keep: Vec<bool> = r.iter().map(|&x| x % 64 < kept_of_64).collect();
                let want: Vec<u64> = a.iter().zip(&keep).filter(|(_, &k)| k).map(|(&x, _)| x).collect();
                let want_idx: Vec<usize> = (0..n).filter(|&i| keep[i]).collect();
                for sched in PAR_SCHEDULES.into_iter().chain([Schedule::Sequential]) {
                    let (got, got_idx, got_try) = with_default_schedule(sched, || {
                        (ops::pack(&a, &keep), ops::pack_indices(&keep), ops::try_pack(&a, &keep))
                    });
                    prop_assert_eq!(&got, &want, "pack n={} keep={}/64 sched={:?}", n, kept_of_64, sched);
                    prop_assert_eq!(&got_idx, &want_idx, "pack_indices n={} keep={}/64 sched={:?}", n, kept_of_64, sched);
                    prop_assert_eq!(got_try, Ok(want.clone()), "try_pack n={} keep={}/64 sched={:?}", n, kept_of_64, sched);
                }
            }
        }
    }

    #[test]
    fn max_op_library_wrappers_match(seed in any::<u64>()) {
        setup();
        for n in sizes() {
            let a = data(seed, n);
            let ex: Vec<u64> = {
                let mut out = Vec::with_capacity(n);
                let mut acc = Max::identity();
                for &x in &a {
                    out.push(acc);
                    acc = Max::combine(acc, x);
                }
                out
            };
            for sched in PAR_SCHEDULES {
                let got = with_default_schedule(sched, || scan_core::scan::<Max, _>(&a));
                prop_assert_eq!(got, ex.clone(), "scan::<Max> n={} sched={:?}", n, sched);
                let try_got = with_default_schedule(sched, || {
                    Scan::op::<Max, _>().try_run(&a).map(|r| r.0)
                });
                prop_assert_eq!(try_got, Ok(ex.clone()), "try_run::<Max> n={} sched={:?}", n, sched);
            }
        }
    }
}
