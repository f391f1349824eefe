//! A [`BatchBackend`] that routes mega-batches through the sharded
//! executor.
//!
//! Coalesced batches at or above `min_shard_len` run on a
//! [`ShardedExecutor`] — fanned across independent shard threads with
//! loss recovery and verification ([`scan_shard`]) — while small
//! batches and the solo degradation path stay on the ordinary
//! [`PoolBackend`], whose single pool beats the sharding overhead at
//! those sizes.
//!
//! Error mapping back into the service's `scan_core` error space:
//! execution and input errors pass through unchanged; a typed shard
//! loss or degradation (only reachable under
//! [`scan_shard::RecoveryPolicy::Fail`]) is reported as a lost worker,
//! which the service's own retry/degradation ladder already handles.

use scan_core::segmented::Segments;
use scan_core::{ExecError, ScanDeadline};
use scan_shard::{ShardConfig, ShardError, ShardedExecutor};

use crate::backend::{scoped, BatchBackend, PoolBackend, ScanKind};

/// Batch backend executing large batches on a sharded executor.
#[derive(Debug)]
pub struct ShardedBackend {
    executor: ShardedExecutor,
    min_shard_len: usize,
    fallback: PoolBackend,
}

impl ShardedBackend {
    /// Build a backend over a fresh [`ShardedExecutor`]. Batches
    /// shorter than `min_shard_len` run on the single-pool fallback.
    pub fn new(cfg: ShardConfig, min_shard_len: usize) -> Self {
        ShardedBackend {
            executor: ShardedExecutor::new(cfg),
            min_shard_len,
            fallback: PoolBackend,
        }
    }

    /// The underlying executor, for health inspection
    /// ([`ShardedExecutor::health`]).
    pub fn executor(&self) -> &ShardedExecutor {
        &self.executor
    }
}

/// Fold a shard error back into the service's error space.
fn to_core(e: ShardError) -> scan_core::Error {
    match e {
        ShardError::Exec(x) => scan_core::Error::Exec(x),
        ShardError::Invalid(x) => x,
        // Only reachable under RecoveryPolicy::Fail: surface as a lost
        // worker so the service's retry ladder treats it like any
        // other execution failure.
        ShardError::ShardLost { .. } | ShardError::Degraded { .. } => {
            scan_core::Error::Exec(ExecError::WorkerLost { panics: 1 })
        }
    }
}

impl BatchBackend for ShardedBackend {
    fn seg_scan(
        &self,
        kind: ScanKind,
        values: &[u64],
        segs: &Segments,
        deadline: Option<&ScanDeadline>,
    ) -> scan_core::Result<Vec<u64>> {
        if values.len() < self.min_shard_len {
            return self.fallback.seg_scan(kind, values, segs, deadline);
        }
        scoped(deadline, || {
            self.executor.seg_scan(kind, values, segs.flags())
        })
        .map_err(to_core)
    }

    fn scan_one(
        &self,
        kind: ScanKind,
        values: &[u64],
        deadline: Option<&ScanDeadline>,
    ) -> scan_core::Result<Vec<u64>> {
        if values.len() < self.min_shard_len {
            return self.fallback.scan_one(kind, values, deadline);
        }
        scoped(deadline, || self.executor.scan(kind, values)).map_err(to_core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 37 + 5) % 211).collect()
    }

    #[test]
    fn matches_pool_backend_above_and_below_the_floor() {
        let sharded = ShardedBackend::new(
            ShardConfig {
                shards: 3,
                ..ShardConfig::default()
            },
            64,
        );
        let pool = PoolBackend;
        for n in [8usize, 63, 64, 500] {
            let a = data(n);
            let segs = Segments::from_flags((0..n).map(|i| i % 19 == 3).collect());
            for kind in [ScanKind::Sum, ScanKind::Max] {
                assert_eq!(
                    sharded.seg_scan(kind, &a, &segs, None).unwrap(),
                    pool.seg_scan(kind, &a, &segs, None).unwrap(),
                    "seg, n = {n}"
                );
                assert_eq!(
                    sharded.scan_one(kind, &a, None).unwrap(),
                    pool.scan_one(kind, &a, None).unwrap(),
                    "flat, n = {n}"
                );
            }
        }
        // Only the batches at or above the floor reached the executor.
        let h = sharded.executor().health();
        assert!(h.runs >= 1);
        assert_eq!(h.losses, 0);
    }

    #[test]
    fn deadline_propagates_into_the_executor() {
        let sharded = ShardedBackend::new(ShardConfig::default(), 0);
        let d = ScanDeadline::manual();
        d.cancel();
        let a = data(100);
        let segs = Segments::single(a.len());
        assert_eq!(
            sharded.seg_scan(ScanKind::Sum, &a, &segs, Some(&d)),
            Err(scan_core::Error::Exec(ExecError::Cancelled))
        );
        assert_eq!(
            sharded.scan_one(ScanKind::Max, &a, Some(&d)),
            Err(scan_core::Error::Exec(ExecError::Cancelled))
        );
    }

    #[test]
    fn service_routes_through_the_sharded_executor() {
        use crate::request::{RequestOp, ScanRequest, TenantId};
        use crate::service::{ScanService, ServiceConfig};

        let svc = ScanService::sharded(
            ServiceConfig::default(),
            ShardConfig {
                shards: 2,
                ..ShardConfig::default()
            },
            0,
        );
        let a = data(200);
        let got = svc
            .submit(ScanRequest::new(
                TenantId(7),
                RequestOp::PlusScan(a.clone()),
            ))
            .unwrap();
        assert_eq!(got, scan_core::scan::<scan_core::Sum, _>(&a));
        let h = svc.backend().executor().health();
        assert!(h.runs >= 1, "{h:?}");
        assert_eq!(h.losses, 0);
    }

    #[test]
    fn shard_losses_map_to_worker_loss() {
        use scan_shard::LossCause;
        assert_eq!(
            to_core(ShardError::ShardLost {
                shard: 1,
                cause: LossCause::Watchdog,
            }),
            scan_core::Error::Exec(ExecError::WorkerLost { panics: 1 })
        );
        assert_eq!(
            to_core(ShardError::Degraded { live: 0, need: 1 }),
            scan_core::Error::Exec(ExecError::WorkerLost { panics: 1 })
        );
        assert_eq!(
            to_core(ShardError::Exec(ExecError::Cancelled)),
            scan_core::Error::Exec(ExecError::Cancelled)
        );
    }
}
