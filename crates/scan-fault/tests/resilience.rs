//! Deterministic end-to-end resilience scenarios: each named failure
//! mode from the chaos harness must terminate with a correct result or
//! a typed error — never a hang, never a panic across the API
//! boundary.
//!
//! Every scenario runs under a hard wall-clock watchdog thread, so a
//! regression that deadlocks the pool or loses a bail signal fails the
//! suite instead of wedging it.

use std::sync::mpsc;
use std::sync::Once;
use std::time::Duration;

use scan_core::parallel::{Schedule, PAR_THRESHOLD};
use scan_core::{ExecError, Scan, ScanDeadline};
use scan_fault::{chaos_op, BreakerConfig, ChaosBackend, ChaosPlan, CheckedExecutor};

static INIT: Once = Once::new();

/// Pin the pool width to 4 before the lazy global pool initializes,
/// so the parallel paths genuinely run even on a single-core CI box.
fn setup() {
    INIT.call_once(|| {
        std::env::set_var("SCAN_CORE_THREADS", "4");
        assert_eq!(scan_core::pool::global().threads(), 4);
    });
}

/// Run `f` on its own thread and fail loudly if it neither returns nor
/// panics within `limit` — the no-hang guarantee, enforced.
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
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("scenario hung past {limit:?}"),
    }
}

fn reference_plus_scan(a: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len());
    let mut acc = 0u64;
    for &x in a {
        out.push(acc);
        acc = acc.wrapping_add(x);
    }
    out
}

/// Scenario 1: an operator that panics mid-scan on a worker thread is
/// contained as `WorkerLost`, the pool survives, and the very next
/// clean submission succeeds on the same pool.
#[test]
fn induced_worker_panic_is_typed_and_pool_recovers() {
    setup();
    with_timeout(Duration::from_secs(30), || {
        let n = 2 * PAR_THRESHOLD;
        let a: Vec<u64> = (0..n as u64).collect();
        for sched in [Schedule::Pooled, Schedule::Spawn] {
            let plan = ChaosPlan {
                panic_every: 1000,
                ..ChaosPlan::quiet(3)
            };
            let op = chaos_op(plan, |x: u64, y: u64| x.wrapping_add(y));
            let got = Scan::by(0u64, op).schedule(sched).try_run(&a).map(|r| r.0);
            assert!(
                matches!(got, Err(ExecError::WorkerLost { panics }) if panics >= 1),
                "{sched:?}: expected WorkerLost, got {got:?}"
            );
            // Clean resubmission on the recovered pool.
            let clean = Scan::by(0u64, |x: u64, y| x.wrapping_add(y))
                .schedule(sched)
                .try_run(&a)
                .map(|r| r.0);
            assert_eq!(
                clean.as_deref(),
                Ok(&reference_plus_scan(&a)[..]),
                "{sched:?}"
            );
        }
    });
}

/// Scenario 2: injected delays push a scan past its deadline; the
/// kernel notices at a block-interior checkpoint and bails with
/// `DeadlineExceeded` instead of sleeping through the whole input.
#[test]
fn delay_past_deadline_is_typed() {
    setup();
    with_timeout(Duration::from_secs(30), || {
        let n = 2 * PAR_THRESHOLD;
        let a: Vec<u64> = vec![1; n];
        for sched in [Schedule::Pooled, Schedule::Spawn] {
            let plan = ChaosPlan {
                delay_every: 32,
                delay_us: 200,
                ..ChaosPlan::quiet(11)
            };
            let op = chaos_op(plan, |x: u64, y: u64| x.wrapping_add(y));
            let d = ScanDeadline::after(Duration::from_millis(2));
            let got = scan_core::deadline::with_deadline(&d, || {
                Scan::by(0u64, op).schedule(sched).try_run(&a).map(|r| r.0)
            });
            assert_eq!(
                got.unwrap_err(),
                ExecError::DeadlineExceeded,
                "{sched:?}: a delayed scan must report its deadline"
            );
        }
    });
}

/// Scenario 3: a persistently lying backend is detected every scan,
/// the breaker quarantines it (observably via stats), and a probation
/// probe re-admits it once it heals.
#[test]
fn lying_backend_is_quarantined_then_readmitted_after_healing() {
    setup();
    with_timeout(Duration::from_secs(30), || {
        use scan_core::simulate::{PrimitiveScans, SoftwareScans};

        // Lies on every one of its first 3 calls, truthful afterwards:
        // a transient corruption that heals mid-campaign.
        let flaky = ChaosBackend::new(
            SoftwareScans,
            ChaosPlan {
                lie_every: 1,
                ..ChaosPlan::quiet(17)
            },
        );
        struct HealingLiar {
            inner: ChaosBackend<SoftwareScans>,
            heal_after: u64,
        }
        impl PrimitiveScans for HealingLiar {
            fn plus_scan(&self, a: &[u64]) -> Vec<u64> {
                if self.inner.calls() >= self.heal_after {
                    SoftwareScans.plus_scan(a)
                } else {
                    self.inner.plus_scan(a)
                }
            }
            fn max_scan(&self, a: &[u64]) -> Vec<u64> {
                if self.inner.calls() >= self.heal_after {
                    SoftwareScans.max_scan(a)
                } else {
                    self.inner.max_scan(a)
                }
            }
        }

        let ex = CheckedExecutor::new(Box::new(HealingLiar {
            inner: flaky,
            heal_after: 3,
        }))
        .with_fallback(Box::new(SoftwareScans))
        .with_retries(0)
        .with_breaker(BreakerConfig {
            failure_threshold: 2,
            base_quarantine: 3,
            max_quarantine: 16,
        });

        let a: Vec<u64> = (0..64).map(|i| (i * 9) % 41).collect();
        let good = reference_plus_scan(&a);
        // Clocks 0 and 1: the liar is attempted, rejected, and the
        // second consecutive failure opens the breaker (until = 4).
        for _ in 0..2 {
            assert_eq!(ex.checked_plus_scan(&a).unwrap(), good);
        }
        assert_eq!(ex.stats().detections, 2);
        assert_eq!(ex.backend_health(0).quarantines, 1);
        // Clocks 2 and 3: skipped — the fallback serves alone.
        for _ in 2..4 {
            assert_eq!(ex.checked_plus_scan(&a).unwrap(), good);
        }
        assert_eq!(
            ex.backend_health(0).skipped,
            2,
            "quarantined backend must be skipped, observably"
        );
        // Clock 4: probe. The liar has made 2 calls and heals after 3,
        // so the probe (call 3) still lies — re-opened, doubled backoff.
        assert_eq!(ex.checked_plus_scan(&a).unwrap(), good);
        let h = ex.backend_health(0);
        assert_eq!((h.probes, h.quarantines), (1, 2));
        // Clocks 5..=9: quarantined again (backoff doubled to 6).
        for _ in 5..10 {
            assert_eq!(ex.checked_plus_scan(&a).unwrap(), good);
        }
        // Clock 10: probe again — the backend has healed; re-admitted.
        assert_eq!(ex.checked_plus_scan(&a).unwrap(), good);
        let h = ex.backend_health(0);
        assert_eq!(h.probes, 2);
        assert_eq!(h.state, scan_fault::BreakerState::Closed);
        // From here the healed primary serves every scan directly.
        let fallbacks = ex.stats().fallbacks;
        for _ in 0..4 {
            assert_eq!(ex.checked_plus_scan(&a).unwrap(), good);
        }
        assert_eq!(ex.stats().fallbacks, fallbacks, "no fallback after healing");
    });
}

/// Scenario 4: chaos panics inside a `CheckedExecutor` backend stay
/// inside it even when the backend's scans run on the worker pool at
/// parallel sizes.
#[test]
fn pooled_chaos_backend_never_leaks_panics() {
    setup();
    with_timeout(Duration::from_secs(60), || {
        use scan_core::simulate::SoftwareScans;
        let n = PAR_THRESHOLD + 123;
        let a: Vec<u64> = (0..n as u64).map(|x| x % 257).collect();
        let good = reference_plus_scan(&a);
        let plan = ChaosPlan {
            panic_every: 3,
            lie_every: 2,
            ..ChaosPlan::quiet(23)
        };
        let ex = CheckedExecutor::new(Box::new(ChaosBackend::new(SoftwareScans, plan)))
            .with_fallback(Box::new(SoftwareScans));
        for _ in 0..20 {
            // The trait view must always serve the truth.
            use scan_core::simulate::PrimitiveScans;
            assert_eq!(ex.plus_scan(&a), good);
        }
        let h = ex.backend_health(0);
        assert!(h.panics > 0, "the schedule must have injected panics");
        assert!(ex.stats().detections > 0, "and lies");
    });
}
