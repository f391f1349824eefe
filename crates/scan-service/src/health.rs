//! Observability surface of the front door.
//!
//! [`ServiceHealth`] is a point-in-time snapshot assembled under the
//! service lock — every number in it is mutually consistent. It is the
//! contract the chaos suite closes its loops against: after any fault
//! storm, `queue_depth == 0` (drained), `submitted == completed +
//! failed + shed` (no lost responses), and `backend_health` reports
//! which rung of the degradation ladder the coalescer sits on.

use std::collections::BTreeMap;

use crate::request::TenantId;

/// Which execution mode the coalescer is currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceMode {
    /// Healthy: windows close into segmented-scan mega-batches.
    Coalescing,
    /// Quarantined after repeated batch failures: every request runs
    /// one-request-one-kernel until the quarantine elapses.
    Degraded {
        /// Batch-clock tick (dispatch count) at which a coalesced
        /// probe is next allowed.
        until: u64,
    },
}

/// Breaker/ladder state of the coalescing path — the service-level
/// analogue of a backend health record. Quarantine is measured on the
/// *logical batch clock* (dispatch count), not wall time, so the
/// ladder is deterministic under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalescerHealth {
    /// Current execution mode.
    pub mode: ServiceMode,
    /// Batch dispatches performed so far (the logical clock).
    pub dispatches: u64,
    /// Consecutive coalesced-batch failures observed.
    pub consecutive_failures: u32,
    /// Length, in dispatches, of the next quarantine should the
    /// breaker (re-)open. Doubles on each failed probe, capped.
    pub quarantine: u64,
    /// Times the breaker opened (entered Degraded).
    pub times_degraded: u64,
    /// Coalesced batches that needed at least one immediate retry of a
    /// segmented scan, whether or not a retry then succeeded.
    pub batches_retried: u64,
}

/// Per-tenant request accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Requests accepted past admission control.
    pub submitted: u64,
    /// Requests that returned a result.
    pub completed: u64,
    /// Requests shed by admission control (`Overloaded`).
    pub shed: u64,
    /// Requests that ended in any other typed error.
    pub failed: u64,
    /// Worst observed wait, in batch dispatches, between enqueue and
    /// dispatch — the empirical side of the fairness bound.
    pub max_wait_dispatches: u64,
}

/// A consistent snapshot of the service, taken under the state lock.
#[derive(Debug, Clone)]
pub struct ServiceHealth {
    /// Requests currently queued (all tenants).
    pub queue_depth: usize,
    /// Requests accepted past admission control, lifetime.
    pub submitted: u64,
    /// Requests that returned a result, lifetime.
    pub completed: u64,
    /// Requests shed by admission control, lifetime.
    pub shed: u64,
    /// Requests that ended in a non-shed typed error, lifetime.
    pub failed: u64,
    /// Coalesced batches dispatched.
    pub batches: u64,
    /// Requests carried by those batches (Σ batch sizes). Mean batch
    /// occupancy is `batched_requests / batches`.
    pub batched_requests: u64,
    /// Requests executed one-request-one-kernel (degraded mode or
    /// per-member fallback after a batch died).
    pub solo_requests: u64,
    /// Requests rejected because their deadline expired or was
    /// cancelled while they queued (their batch was never touched).
    pub expired_in_queue: u64,
    /// Health of the coalescing path itself (breaker state).
    pub backend_health: CoalescerHealth,
    /// Per-tenant accounting.
    pub tenants: BTreeMap<TenantId, TenantCounters>,
}

impl ServiceHealth {
    /// Mean coalesced-batch occupancy, `None` before the first batch.
    pub fn mean_batch_occupancy(&self) -> Option<f64> {
        (self.batches > 0).then(|| self.batched_requests as f64 / self.batches as f64)
    }

    /// True when every accepted request has been answered and nothing
    /// is queued — the "no lost responses" invariant the chaos suite
    /// asserts after each storm.
    pub fn is_drained(&self) -> bool {
        self.queue_depth == 0 && self.submitted == self.completed + self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty() -> ServiceHealth {
        ServiceHealth {
            queue_depth: 0,
            submitted: 0,
            completed: 0,
            shed: 0,
            failed: 0,
            batches: 0,
            batched_requests: 0,
            solo_requests: 0,
            expired_in_queue: 0,
            backend_health: CoalescerHealth {
                mode: ServiceMode::Coalescing,
                dispatches: 0,
                consecutive_failures: 0,
                quarantine: 8,
                times_degraded: 0,
                batches_retried: 0,
            },
            tenants: BTreeMap::new(),
        }
    }

    #[test]
    fn occupancy_and_drain() {
        let mut h = empty();
        assert!(h.mean_batch_occupancy().is_none());
        assert!(h.is_drained());
        h.submitted = 10;
        h.completed = 7;
        h.failed = 2;
        assert!(!h.is_drained());
        h.failed = 3;
        assert!(h.is_drained());
        h.batches = 4;
        h.batched_requests = 10;
        assert_eq!(h.mean_batch_occupancy(), Some(2.5));
    }
}
