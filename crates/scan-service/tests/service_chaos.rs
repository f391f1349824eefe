//! Chaos scenarios for the front door, with deterministic injection:
//! worker-panic storms, lying backends, deadline storms, a tenant
//! flood, and a mid-batch cancellation. After every storm the service
//! must be **drained** (no queued husks, every accepted request
//! answered), every outcome must be a correct `Ok` or a *typed*
//! error, and nothing may hang (each scenario runs under a hard
//! wall-clock watchdog, mirroring the repo's chaos-test idiom).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

use scan_core::segmented::Segments;
use scan_core::{ExecError, ScanDeadline};
use scan_service::{
    starvation_bound, BatchBackend, PoolBackend, RequestOp, ScanKind, ScanRequest, ScanService,
    ServiceConfig, ServiceError, TenantId,
};

/// Hard per-scenario watchdog: fail loudly instead of wedging CI.
fn with_timeout<R: Send + 'static>(limit: Duration, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    let h = thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(r) => {
            let _ = h.join();
            r
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The scenario panicked: re-raise its message.
            match h.join() {
                Err(p) => std::panic::resume_unwind(p),
                Ok(_) => unreachable!("sender dropped without panicking"),
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("chaos scenario wedged past {limit:?}"),
    }
}

/// Deterministic chaos at the execution seam: every `panic_every`-th
/// segmented call dies to a contained worker panic, every
/// `lie_every`-th returns right-length wrong values (1-based call
/// numbering, panic wins ties). The solo path stays honest so the
/// ladder's bottom rung can prove itself.
struct ChaosSeg {
    calls: AtomicU64,
    panic_every: u64,
    lie_every: u64,
    inner: PoolBackend,
}

impl ChaosSeg {
    fn new(panic_every: u64, lie_every: u64) -> Self {
        ChaosSeg {
            calls: AtomicU64::new(0),
            panic_every,
            lie_every,
            inner: PoolBackend,
        }
    }
}

impl BatchBackend for ChaosSeg {
    fn seg_scan(
        &self,
        kind: ScanKind,
        values: &[u64],
        segs: &Segments,
        deadline: Option<&ScanDeadline>,
    ) -> scan_core::Result<Vec<u64>> {
        let n = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        if self.panic_every != 0 && n.is_multiple_of(self.panic_every) {
            return Err(scan_core::Error::Exec(ExecError::WorkerLost { panics: 1 }));
        }
        if self.lie_every != 0 && n.is_multiple_of(self.lie_every) {
            return Ok(values.iter().map(|v| v ^ 0xdead_beef).collect());
        }
        self.inner.seg_scan(kind, values, segs, deadline)
    }

    fn scan_one(
        &self,
        kind: ScanKind,
        values: &[u64],
        deadline: Option<&ScanDeadline>,
    ) -> scan_core::Result<Vec<u64>> {
        self.inner.scan_one(kind, values, deadline)
    }
}

fn plus_req(tenant: u64, vals: Vec<u64>) -> ScanRequest {
    ScanRequest::new(TenantId(tenant), RequestOp::PlusScan(vals))
}

fn ref_plus(vals: &[u64]) -> Vec<u64> {
    scan_core::scan::<scan_core::Sum, u64>(vals)
}

fn storm_config() -> ServiceConfig {
    ServiceConfig {
        close_target: 8,
        window: Duration::from_micros(100),
        ..ServiceConfig::default()
    }
}

/// Run `threads × per_thread` deterministic +-scans against `svc`,
/// asserting every delivered `Ok` is exact; returns the typed errors.
fn run_storm(svc: &Arc<ScanService<ChaosSeg>>, threads: u64, per_thread: u64) -> Vec<ServiceError> {
    let errors = Arc::new(Mutex::new(Vec::new()));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let svc = Arc::clone(svc);
            let errors = Arc::clone(&errors);
            thread::spawn(move || {
                for i in 0..per_thread {
                    let vals: Vec<u64> = (0..(1 + (t * 13 + i) % 32))
                        .map(|j| t * 100 + i + j)
                        .collect();
                    match svc.submit(plus_req(t % 4, vals.clone())) {
                        Ok(got) => assert_eq!(got, ref_plus(&vals), "corrupt result delivered"),
                        Err(e) => errors.lock().unwrap().push(e),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    Arc::try_unwrap(errors).unwrap().into_inner().unwrap()
}

#[test]
fn worker_panic_storm_never_corrupts_or_hangs() {
    with_timeout(Duration::from_secs(60), || {
        let svc = Arc::new(ScanService::with_backend(
            storm_config(),
            ChaosSeg::new(3, 0),
        ));
        let errors = run_storm(&svc, 8, 40);
        // Panics are contained and retried/fallen back; with an honest
        // solo path every request must end in an exact Ok.
        assert!(errors.is_empty(), "unexpected errors: {errors:?}");
        let h = svc.health();
        assert!(h.is_drained(), "not drained after panic storm: {h:?}");
        assert_eq!(h.failed, 0);
        assert_eq!(h.queue_depth, 0);
    });
}

#[test]
fn lying_backend_storm_is_caught_and_survived() {
    with_timeout(Duration::from_secs(60), || {
        let mut cfg = storm_config();
        cfg.breaker.failure_threshold = 2;
        // Every coalesced call lies; only verification and the honest
        // solo rung stand between the backend and the callers.
        let svc = Arc::new(ScanService::with_backend(cfg, ChaosSeg::new(0, 1)));
        let errors = run_storm(&svc, 8, 40);
        // Verification catches every lie; the solo retry is honest, so
        // no request fails and no corrupt value is ever delivered
        // (run_storm asserts exactness on every Ok).
        assert!(errors.is_empty(), "unexpected errors: {errors:?}");
        let h = svc.health();
        assert!(h.is_drained(), "not drained after lying storm: {h:?}");
        // The breaker must have noticed the coalesced path lying.
        assert!(
            h.backend_health.times_degraded > 0 || h.backend_health.consecutive_failures > 0,
            "breaker never reacted to a lying backend: {h:?}"
        );
    });
}

#[test]
fn deadline_storm_fails_only_the_fused() {
    with_timeout(Duration::from_secs(60), || {
        let svc = Arc::new(ScanService::new(storm_config()));
        let threads = 8u64;
        let per_thread = 30u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let svc = Arc::clone(&svc);
                thread::spawn(move || {
                    for i in 0..per_thread {
                        let vals: Vec<u64> = (0..(1 + (t + i) % 16)).collect();
                        let want = ref_plus(&vals);
                        let mut req = plus_req(t, vals);
                        match (t + i) % 3 {
                            0 => {
                                // Dead on arrival.
                                let d = ScanDeadline::manual();
                                d.cancel();
                                req = req.with_deadline(d);
                            }
                            1 => {
                                // Hair-trigger deadline: may or may not
                                // make it.
                                req = req
                                    .with_deadline(ScanDeadline::after(Duration::from_micros(50)));
                            }
                            _ => {}
                        }
                        let undeadlined = req.deadline.is_none();
                        match svc.submit(req) {
                            Ok(got) => assert_eq!(got, want),
                            Err(ServiceError::Exec(
                                ExecError::DeadlineExceeded | ExecError::Cancelled,
                            )) => {
                                assert!(
                                    !undeadlined,
                                    "request without a deadline was failed by someone else's"
                                );
                            }
                            Err(e) => panic!("unexpected error in deadline storm: {e}"),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let h = svc.health();
        assert!(h.is_drained(), "not drained after deadline storm: {h:?}");
        // Dead-on-arrival requests must actually have been rejected.
        assert!(h.expired_in_queue > 0 || h.failed > 0);
    });
}

#[test]
fn tenant_flood_sheds_typed_and_spares_victims() {
    with_timeout(Duration::from_secs(60), || {
        // Tenant 0 may hold at most 2 queued requests; 8 flooder
        // threads race into that cap, so admission control must shed.
        let cfg = ServiceConfig {
            max_tenant_depth: 2,
            close_target: 16,
            batch_capacity: 32,
            window: Duration::from_micros(300),
            ..ServiceConfig::default()
        };
        let capacity = cfg.batch_capacity;
        let svc = Arc::new(ScanService::new(cfg));

        // Eight flooder threads hammer tenant 0; three victims submit
        // steadily as tenants 1..=3.
        let mut handles = Vec::new();
        for f in 0..8u64 {
            let svc = Arc::clone(&svc);
            handles.push(thread::spawn(move || {
                let mut sheds = 0u64;
                for i in 0..200u64 {
                    let vals: Vec<u64> = (0..8).map(|j| f + i + j).collect();
                    match svc.submit(plus_req(0, vals.clone())) {
                        Ok(got) => assert_eq!(got, ref_plus(&vals)),
                        Err(ServiceError::Overloaded { .. }) => sheds += 1,
                        Err(e) => panic!("flooder saw unexpected error: {e}"),
                    }
                }
                sheds
            }));
        }
        let mut victims = Vec::new();
        for t in 1..=3u64 {
            let svc = Arc::clone(&svc);
            victims.push(thread::spawn(move || {
                for i in 0..60u64 {
                    let vals: Vec<u64> = (0..4).map(|j| t * 10 + i + j).collect();
                    let got = svc
                        .submit(plus_req(t, vals.clone()))
                        .unwrap_or_else(|e| panic!("victim tenant {t} failed: {e}"));
                    assert_eq!(got, ref_plus(&vals));
                }
            }));
        }
        for v in victims {
            v.join().unwrap();
        }
        for h in handles {
            h.join().unwrap();
        }

        let h = svc.health();
        assert!(h.is_drained(), "not drained after flood: {h:?}");
        // Victims never queue more than one request each, so their
        // wait must respect the position-0 starvation bound for the
        // active tenant set (4 tenants, weight 1 each).
        let bound = starvation_bound(0, 4, capacity);
        for t in 1..=3u64 {
            let c = h.tenants.get(&TenantId(t)).expect("victim counters");
            assert_eq!(c.failed, 0);
            assert_eq!(c.shed, 0);
            assert!(
                c.max_wait_dispatches <= bound,
                "tenant {t} waited {} dispatches > bound {bound}",
                c.max_wait_dispatches
            );
        }
        // The flood itself must have been shed in a typed, bounded
        // way, not buffered.
        let flooder = h.tenants.get(&TenantId(0)).expect("flooder counters");
        assert!(flooder.shed > 0, "flood was never shed: {h:?}");
    });
}

/// Backend that cancels a captured token the first time the coalesced
/// path runs — a deterministic mid-batch cancellation.
struct MidBatchCancel {
    victim: ScanDeadline,
    inner: PoolBackend,
}

impl BatchBackend for MidBatchCancel {
    fn seg_scan(
        &self,
        kind: ScanKind,
        values: &[u64],
        segs: &Segments,
        deadline: Option<&ScanDeadline>,
    ) -> scan_core::Result<Vec<u64>> {
        self.victim.cancel();
        self.inner.seg_scan(kind, values, segs, deadline)
    }

    fn scan_one(
        &self,
        kind: ScanKind,
        values: &[u64],
        deadline: Option<&ScanDeadline>,
    ) -> scan_core::Result<Vec<u64>> {
        self.inner.scan_one(kind, values, deadline)
    }
}

#[test]
fn mid_batch_cancellation_spares_batchmates() {
    with_timeout(Duration::from_secs(60), || {
        let victim_token = ScanDeadline::manual();
        let cfg = ServiceConfig {
            close_target: 2,
            window: Duration::from_secs(5),
            ..ServiceConfig::default()
        };
        let svc = Arc::new(ScanService::with_backend(
            cfg,
            MidBatchCancel {
                victim: victim_token.clone(),
                inner: PoolBackend,
            },
        ));

        // Two submitters; the window is long, so the batch closes only
        // when both are queued — they are guaranteed batchmates.
        let svc_a = Arc::clone(&svc);
        let token = victim_token.clone();
        let a =
            thread::spawn(move || svc_a.submit(plus_req(1, vec![1, 2, 3]).with_deadline(token)));
        let svc_b = Arc::clone(&svc);
        let b = thread::spawn(move || svc_b.submit(plus_req(2, vec![4, 5, 6])));

        let res_a = a.join().unwrap();
        let res_b = b.join().unwrap();
        // The cancelled member gets its typed error...
        assert_eq!(res_a, Err(ServiceError::Exec(ExecError::Cancelled)));
        // ...and its batchmate's result is untouched.
        assert_eq!(res_b, Ok(vec![0, 4, 9]));
        let h = svc.health();
        assert!(h.is_drained());
    });
}
