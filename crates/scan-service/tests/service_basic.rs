//! Concurrent correctness of the coalescing front door: many
//! submitter threads, mixed ops and tenants, every response exact, and
//! the service drained afterwards.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use scan_service::{RequestOp, ScanRequest, ScanService, ServiceConfig, ServiceError, TenantId};

/// Reference implementations to check every delivered result against.
fn reference(op: &RequestOp) -> Vec<u64> {
    match op {
        RequestOp::PlusScan(v) => scan_core::scan::<scan_core::Sum, u64>(v),
        RequestOp::MaxScan(v) => scan_core::scan::<scan_core::Max, u64>(v),
        RequestOp::Enumerate(f) => {
            let mapped: Vec<u64> = f.iter().map(|&b| u64::from(b)).collect();
            scan_core::scan::<scan_core::Sum, u64>(&mapped)
        }
        RequestOp::Pack { values, keep } => values
            .iter()
            .zip(keep)
            .filter(|(_, &k)| k)
            .map(|(&v, _)| v)
            .collect(),
    }
}

/// Deterministic per-request op mix.
fn make_op(thread: u64, i: u64) -> RequestOp {
    let len = 1 + ((thread * 31 + i * 7) % 40) as usize;
    let vals: Vec<u64> = (0..len as u64)
        .map(|j| thread * 1000 + i * 17 + j)
        .collect();
    match (thread + i) % 4 {
        0 => RequestOp::PlusScan(vals),
        1 => RequestOp::MaxScan(vals),
        2 => RequestOp::Enumerate(vals.iter().map(|v| v % 3 == 0).collect()),
        _ => {
            let keep = vals.iter().map(|v| v % 2 == 1).collect();
            RequestOp::Pack { values: vals, keep }
        }
    }
}

#[test]
fn concurrent_mixed_ops_all_exact() {
    let svc = Arc::new(ScanService::new(ServiceConfig {
        close_target: 8,
        window: Duration::from_micros(100),
        ..ServiceConfig::default()
    }));
    let threads = 8u64;
    let per_thread = 50u64;

    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let svc = Arc::clone(&svc);
            thread::spawn(move || {
                for i in 0..per_thread {
                    let op = make_op(t, i);
                    let want = reference(&op);
                    let got = svc
                        .submit(ScanRequest::new(TenantId(t % 3), op.clone()))
                        .unwrap_or_else(|e| panic!("thread {t} req {i}: {e}"));
                    assert_eq!(got, want, "thread {t} req {i} wrong result for {op:?}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let h = svc.health();
    assert_eq!(h.submitted, threads * per_thread);
    assert_eq!(h.completed, threads * per_thread);
    assert_eq!(h.failed, 0);
    assert_eq!(h.shed, 0);
    assert!(h.is_drained(), "service not drained: {h:?}");
    // With 8 submitters racing a 100µs window, coalescing must
    // actually happen (this is the crate's whole point).
    assert!(h.batches > 0, "no coalesced batches formed");
    assert!(
        h.mean_batch_occupancy().unwrap_or(0.0) > 1.0,
        "batches never coalesced more than one request: {h:?}"
    );
}

#[test]
fn generous_deadlines_do_not_disturb_results() {
    let svc = Arc::new(ScanService::new(ServiceConfig {
        close_target: 4,
        ..ServiceConfig::default()
    }));
    let handles: Vec<_> = (0..6u64)
        .map(|t| {
            let svc = Arc::clone(&svc);
            thread::spawn(move || {
                for i in 0..20u64 {
                    let op = make_op(t, i);
                    let want = reference(&op);
                    let req = ScanRequest::new(TenantId(t), op)
                        .with_deadline(scan_core::ScanDeadline::after(Duration::from_secs(30)));
                    assert_eq!(svc.submit(req).unwrap(), want);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let h = svc.health();
    assert_eq!(h.failed, 0);
    assert!(h.is_drained());
}

#[test]
fn tenant_admission_cap_is_enforced_and_typed() {
    let svc = ScanService::new(ServiceConfig {
        max_tenant_depth: 0,
        ..ServiceConfig::default()
    });
    let err = svc
        .submit(ScanRequest::new(
            TenantId(9),
            RequestOp::PlusScan(vec![1, 2]),
        ))
        .unwrap_err();
    assert!(matches!(err, ServiceError::Overloaded { .. }));
    let h = svc.health();
    assert_eq!(h.shed, 1);
    assert_eq!(h.tenants.get(&TenantId(9)).unwrap().shed, 1);
}
