//! Randomized chaos properties: under arbitrary seeded injection of
//! delays, panics, and lies, every fallible entry point returns either
//! a correct `Ok` or a typed error — it never hangs (per-case
//! wall-clock watchdog) and never lets a panic escape.
//!
//! Inputs straddle `PAR_THRESHOLD` so the blocked kernels genuinely
//! run on the pinned 4-worker pool, and every case is exercised under
//! both the `Pooled` and `Spawn` schedules.

use std::sync::mpsc;
use std::sync::Once;
use std::time::Duration;

use proptest::prelude::*;
use scan_core::parallel::Schedule;
use scan_core::simulate::{PrimitiveScans, SoftwareScans};
use scan_core::{ExecError, Scan, ScanDeadline};
use scan_fault::{chaos_op, ChaosBackend, ChaosPlan, CheckedExecutor, FaultError};

static INIT: Once = Once::new();

fn setup() {
    INIT.call_once(|| {
        std::env::set_var("SCAN_CORE_THREADS", "4");
        assert_eq!(scan_core::pool::global().threads(), 4);
    });
}

/// Hard per-case watchdog: the property fails (rather than wedging the
/// suite) if a case neither returns nor panics in time.
fn with_timeout<R: Send + 'static>(limit: Duration, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(r) => {
            let _ = handle.join();
            r
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match handle.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => unreachable!("sender dropped without sending or panicking"),
        },
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("chaos case hung past {limit:?}"),
    }
}

const CASE_LIMIT: Duration = Duration::from_secs(20);

fn reference_plus_scan(a: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len());
    let mut acc = 0u64;
    for &x in a {
        out.push(acc);
        acc = acc.wrapping_add(x);
    }
    out
}

/// Delays are kept short and sparse so an undeadlined case still
/// finishes well inside the watchdog window.
fn plan_from(seed: u64, panic_every: u64, delay_every: u64, lie_every: u64) -> ChaosPlan {
    ChaosPlan {
        // 0 stays 0 (disabled); otherwise keep the period ≥ 16.
        delay_every: if delay_every == 0 {
            0
        } else {
            16 + delay_every
        },
        delay_us: 20,
        panic_every,
        lie_every,
        ..ChaosPlan::quiet(seed)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every fallible kernel entry point under operator-level chaos:
    /// `Ok` implies the exact reference result; `Err` is a typed
    /// `ExecError`; nothing hangs or panics through the API.
    #[test]
    fn try_kernels_are_total_under_chaos(
        seed in proptest::strategy::any::<u64>(),
        n in 16_400usize..40_000,
        panic_every in 0u64..4_000,
        delay_every in 0u64..64,
        deadline_ms in 0u64..8,
        pooled in proptest::strategy::any::<bool>(),
    ) {
        setup();
        let sched = if pooled { Schedule::Pooled } else { Schedule::Spawn };
        let (got, reference, clean) = with_timeout(CASE_LIMIT, move || {
            let a: Vec<u64> = (0..n as u64).map(|x| x.wrapping_mul(0x9E37) % 1013).collect();
            let plan = plan_from(seed, panic_every, delay_every, 0);
            let body = move || {
                let scan = Scan::by(0u64, chaos_op(plan, |x: u64, y| x.wrapping_add(y)))
                    .schedule(sched)
                    .try_run(&a)
                    .map(|r| r.0);
                let reduce = Scan::by(0u64, chaos_op(plan, |x: u64, y| x.wrapping_add(y)))
                    .schedule(sched)
                    .try_total(&a);
                let incl = Scan::by(0u64, chaos_op(plan, |x: u64, y| x.wrapping_add(y)))
                    .inclusive()
                    .try_run(&a)
                    .map(|r| r.0);
                (scan, reduce, incl, a.clone())
            };
            let out = if deadline_ms > 0 {
                let d = ScanDeadline::after(Duration::from_millis(deadline_ms));
                scan_core::deadline::with_deadline(&d, body)
            } else {
                body()
            };
            // The pool must be reusable after whatever the case did to
            // it — still inside the watchdog, so a wedged pool fails
            // the case rather than the suite.
            let clean = Scan::by(0, |x: u64, y| x + y)
                .schedule(sched)
                .try_run(&[1u64, 2, 3, 4])
                .map(|r| r.0);
            ((out.0, out.1, out.2), out.3, clean)
        });
        let expect = reference_plus_scan(&reference);
        let total: u64 = reference.iter().fold(0u64, |s, &x| s.wrapping_add(x));
        let (scan, reduce, incl) = got;
        match scan {
            Ok(out) => prop_assert_eq!(out, expect.clone()),
            Err(e) => prop_assert!(matches!(
                e,
                ExecError::WorkerLost { .. } | ExecError::DeadlineExceeded | ExecError::Cancelled
            )),
        }
        match reduce {
            Ok(out) => prop_assert_eq!(out, total),
            Err(e) => prop_assert!(matches!(
                e,
                ExecError::WorkerLost { .. } | ExecError::DeadlineExceeded | ExecError::Cancelled
            )),
        }
        match incl {
            Ok(out) => {
                prop_assert_eq!(out.last().copied(), Some(total));
                prop_assert_eq!(out[0], reference[0]);
            }
            Err(e) => prop_assert!(matches!(
                e,
                ExecError::WorkerLost { .. } | ExecError::DeadlineExceeded | ExecError::Cancelled
            )),
        }
        prop_assert_eq!(clean, Ok(vec![0, 1, 3, 6]));
    }

    /// `CheckedExecutor` under backend-level chaos: the checked calls
    /// return a verified result or a typed `FaultError`; the trait
    /// view always serves the exact reference scan.
    #[test]
    fn checked_executor_is_total_under_chaos(
        seed in proptest::strategy::any::<u64>(),
        n in 16_400usize..40_000,
        panic_every in 0u64..6,
        lie_every in 0u64..6,
        delay_every in 0u64..4,
        retries in 0u32..3,
        scans in 1usize..12,
    ) {
        setup();
        let ok = with_timeout(CASE_LIMIT, move || {
            let a: Vec<u64> = (0..n as u64).map(|x| (x ^ seed) % 4093).collect();
            let good = reference_plus_scan(&a);
            let plan = plan_from(seed, panic_every, delay_every, lie_every);
            let ex = CheckedExecutor::new(Box::new(ChaosBackend::new(SoftwareScans, plan)))
                .with_fallback(Box::new(SoftwareScans))
                .with_retries(retries);
            for _ in 0..scans {
                match ex.checked_plus_scan(&a) {
                    Ok(out) => assert_eq!(out, good, "a verified Ok must be the truth"),
                    Err(FaultError::RetriesExhausted { .. }) | Err(FaultError::Exec(_)) => {}
                    Err(e) => panic!("unexpected error class: {e:?}"),
                }
                // The infallible view must always serve the truth.
                assert_eq!(ex.plus_scan(&a), good);
            }
            true
        });
        prop_assert!(ok);
    }

    /// Checked vector ops keep rejecting adversarial inputs with typed
    /// errors (never panics) while chaos runs in the same process.
    #[test]
    fn checked_ops_stay_typed_under_adversarial_inputs(
        seed in proptest::strategy::any::<u64>(),
        n in 4usize..64,
    ) {
        setup();
        let dup = scan_fault::plan::adversarial::duplicate_permute_indices(n, seed);
        let vals: Vec<u64> = (0..n as u64).collect();
        prop_assert!(scan_core::ops::try_permute(&vals, &dup).is_err());
        let oob = scan_fault::plan::adversarial::out_of_bounds_indices(n, seed);
        prop_assert!(scan_core::ops::try_gather(&vals, &oob).is_err());
        let flags = scan_fault::plan::adversarial::mismatched_flags(n, seed);
        prop_assert!(scan_core::ops::try_pack(&vals, &flags).is_err());
        // And with an expired ambient deadline, the same calls bail
        // with the Exec taxonomy instead of doing the work.
        let d = ScanDeadline::after(Duration::ZERO);
        let idx: Vec<usize> = (0..n).collect();
        let got = scan_core::deadline::with_deadline(&d, || {
            scan_core::ops::try_permute(&vals, &idx)
        });
        prop_assert_eq!(
            got.unwrap_err(),
            scan_core::Error::Exec(ExecError::DeadlineExceeded)
        );
    }
}
