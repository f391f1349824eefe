//! Self-checking scan execution: verify every primitive scan, retry a
//! bounded number of times, then walk a fallback chain under a
//! per-backend circuit breaker.
//!
//! The verifier (see [`crate::verify`]) is complete — an accepted
//! output *is* the reference scan — so anything built on a
//! [`CheckedExecutor`] (in particular `scan_pram::Ctx` with this as
//! its backend) computes exactly what it would compute on fault-free
//! hardware, no matter how corrupted the underlying circuit is. The
//! cost of that guarantee is one O(n) pass per scan plus re-execution
//! of the scans that fail it.
//!
//! Three resilience mechanisms ride on top of verify-and-retry:
//!
//! - **Circuit breaker** ([`BreakerConfig`]): each backend carries a
//!   consecutive-failure counter; at the threshold the backend is
//!   quarantined (state `Open`) and *skipped* for a number of scans
//!   measured on the executor's logical scan clock. When the
//!   quarantine elapses the next scan is a single **probation probe**
//!   — success re-admits the backend, failure re-opens it with
//!   exponentially doubled (capped) backoff. A quarantine ends at
//!   exactly `clock + backoff`.
//! - **Panic containment**: every backend invocation runs under
//!   `catch_unwind`; a panicking backend counts as a failed attempt
//!   (and trips the breaker) instead of unwinding through the caller.
//! - **Deadline awareness**: each scan request begins with a
//!   [`scan_core::deadline::checkpoint`], so an expired or cancelled
//!   ambient [`scan_core::ScanDeadline`] surfaces as
//!   [`FaultError::Exec`] before any backend burns cycles.

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};

use scan_core::simulate::PrimitiveScans;
use scan_core::{Max, Sum};

use crate::breaker::{Breaker, Gate};
use crate::error::FaultError;
use crate::verify::verify_scan;

// The breaker state machine lived in this module before `scan-shard`
// needed it too; keep the historical paths working.
pub use crate::breaker::{BreakerConfig, BreakerState};

/// Health snapshot of one backend in the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendHealth {
    /// Breaker position.
    pub state: BreakerState,
    /// Failed attempts since the last verified success.
    pub consecutive_failures: u32,
    /// Scans during which this backend was skipped while quarantined.
    pub skipped: u64,
    /// Probation probes issued after a quarantine elapsed.
    pub probes: u64,
    /// Times the breaker opened (including re-opens after a failed
    /// probe).
    pub quarantines: u64,
    /// Panics contained by `catch_unwind` around this backend.
    pub panics: u64,
}

#[derive(Debug, Clone, Copy)]
struct HealthInner {
    breaker: Breaker,
    panics: u64,
}

impl HealthInner {
    fn new() -> Self {
        HealthInner {
            breaker: Breaker::new(),
            panics: 0,
        }
    }
}

/// Counters describing what a [`CheckedExecutor`] has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckedStats {
    /// Scan requests served.
    pub scans: u64,
    /// Backend invocations (≥ `scans`; larger when retries happen).
    pub attempts: u64,
    /// Outputs the verifier rejected.
    pub detections: u64,
    /// Re-invocations of the same backend after a rejection.
    pub retries: u64,
    /// Times execution moved past a backend to the next in the chain.
    pub fallbacks: u64,
    /// Scans ultimately served by the sequential reference because the
    /// whole chain kept failing.
    pub rescues: u64,
}

/// A verifying, retrying, falling-back `PrimitiveScans` wrapper with a
/// per-backend circuit breaker.
///
/// Backends are tried in order; each healthy backend gets `1 + retries`
/// attempts (run under `catch_unwind`), each attempt's output is
/// verified in O(n). Backends that keep failing are quarantined and
/// skipped per [`BreakerConfig`], then re-probed after an
/// exponential backoff. If the whole chain fails, the
/// `PrimitiveScans` entry points serve the scan from the in-process
/// sequential reference (and count a rescue), so they *never* return a
/// corrupted scan; the `checked_*` variants instead surface
/// [`FaultError::RetriesExhausted`].
pub struct CheckedExecutor {
    chain: Vec<Box<dyn PrimitiveScans>>,
    retries: u32,
    breaker: BreakerConfig,
    health: RefCell<Vec<HealthInner>>,
    scans: Cell<u64>,
    attempts: Cell<u64>,
    detections: Cell<u64>,
    retried: Cell<u64>,
    fallbacks: Cell<u64>,
    rescues: Cell<u64>,
}

impl core::fmt::Debug for CheckedExecutor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CheckedExecutor")
            .field("chain_len", &self.chain.len())
            .field("retries", &self.retries)
            .field("breaker", &self.breaker)
            .field("stats", &self.stats())
            .finish()
    }
}

impl CheckedExecutor {
    /// An executor whose first choice is `primary`; by default one
    /// retry per backend and no further fallbacks (the sequential
    /// reference always backstops the chain).
    pub fn new(primary: Box<dyn PrimitiveScans>) -> Self {
        CheckedExecutor {
            chain: vec![primary],
            retries: 1,
            breaker: BreakerConfig::default(),
            health: RefCell::new(vec![HealthInner::new()]),
            scans: Cell::new(0),
            attempts: Cell::new(0),
            detections: Cell::new(0),
            retried: Cell::new(0),
            fallbacks: Cell::new(0),
            rescues: Cell::new(0),
        }
    }

    /// Append a backend to the fallback chain (tried after everything
    /// already in the chain).
    pub fn with_fallback(mut self, backend: Box<dyn PrimitiveScans>) -> Self {
        self.chain.push(backend);
        self.health.borrow_mut().push(HealthInner::new());
        self
    }

    /// Retries per backend after a rejected output (default 1).
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Replace the circuit-breaker tuning (see [`BreakerConfig`] for
    /// the defaults).
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }

    /// Health snapshot of backend `i` in the chain.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn backend_health(&self, i: usize) -> BackendHealth {
        let h = self.health.borrow()[i];
        BackendHealth {
            state: h.breaker.state(),
            consecutive_failures: h.breaker.consecutive_failures(),
            skipped: h.breaker.skipped(),
            probes: h.breaker.probes(),
            quarantines: h.breaker.quarantines(),
            panics: h.panics,
        }
    }

    /// Snapshot of the executor's counters.
    pub fn stats(&self) -> CheckedStats {
        CheckedStats {
            scans: self.scans.get(),
            attempts: self.attempts.get(),
            detections: self.detections.get(),
            retries: self.retried.get(),
            fallbacks: self.fallbacks.get(),
            rescues: self.rescues.get(),
        }
    }

    fn run(&self, max: bool, a: &[u64]) -> crate::Result<Vec<u64>> {
        scan_core::deadline::checkpoint()?;
        let clock = self.scans.get();
        self.scans.set(clock + 1);
        let mut attempts_here = 0u32;
        for (b_idx, backend) in self.chain.iter().enumerate() {
            let gate = self.health.borrow_mut()[b_idx].breaker.gate(clock);
            if gate == Gate::Skip {
                continue;
            }
            if b_idx > 0 {
                self.fallbacks.set(self.fallbacks.get() + 1);
            }
            let tries = if gate == Gate::Probe {
                1
            } else {
                1 + self.retries
            };
            for attempt in 0..tries {
                attempts_here += 1;
                self.attempts.set(self.attempts.get() + 1);
                if attempt > 0 {
                    self.retried.set(self.retried.get() + 1);
                }
                // Panic containment: a backend that unwinds is a failed
                // attempt, not our caller's problem.
                let raw = catch_unwind(AssertUnwindSafe(|| {
                    if max {
                        backend.max_scan(a)
                    } else {
                        backend.plus_scan(a)
                    }
                }));
                let verified = match raw {
                    Ok(out) => {
                        let ok = if max {
                            verify_scan::<Max, u64>(a, &out)
                        } else {
                            verify_scan::<Sum, u64>(a, &out)
                        };
                        match ok {
                            Ok(()) => Some(out),
                            Err(_) => {
                                self.detections.set(self.detections.get() + 1);
                                None
                            }
                        }
                    }
                    Err(_) => {
                        self.health.borrow_mut()[b_idx].panics += 1;
                        None
                    }
                };
                match verified {
                    Some(out) => {
                        self.health.borrow_mut()[b_idx].breaker.success();
                        return Ok(out);
                    }
                    None => {
                        let opened = self.health.borrow_mut()[b_idx].breaker.failure(
                            &self.breaker,
                            clock,
                            gate == Gate::Probe,
                        );
                        if opened {
                            break; // stop retrying a quarantined backend
                        }
                    }
                }
            }
        }
        Err(FaultError::RetriesExhausted {
            attempts: attempts_here,
        })
    }

    /// Verified `+-scan`: correct output or a typed error.
    pub fn checked_plus_scan(&self, a: &[u64]) -> crate::Result<Vec<u64>> {
        self.run(false, a)
    }

    /// Verified `max-scan`: correct output or a typed error.
    pub fn checked_max_scan(&self, a: &[u64]) -> crate::Result<Vec<u64>> {
        self.run(true, a)
    }

    fn rescue(&self, max: bool, a: &[u64]) -> Vec<u64> {
        self.rescues.set(self.rescues.get() + 1);
        if max {
            scan_core::scan::<Max, _>(a)
        } else {
            scan_core::scan::<Sum, _>(a)
        }
    }
}

impl PrimitiveScans for CheckedExecutor {
    fn plus_scan(&self, a: &[u64]) -> Vec<u64> {
        self.run(false, a).unwrap_or_else(|_| self.rescue(false, a))
    }

    fn max_scan(&self, a: &[u64]) -> Vec<u64> {
        self.run(true, a).unwrap_or_else(|_| self.rescue(true, a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FaultyCircuitBackend;
    use crate::plan::FaultPlan;
    use scan_core::simulate::SoftwareScans;

    /// A backend that is wrong every time.
    struct AlwaysWrong;
    impl PrimitiveScans for AlwaysWrong {
        fn plus_scan(&self, a: &[u64]) -> Vec<u64> {
            vec![u64::MAX; a.len()]
        }
        fn max_scan(&self, a: &[u64]) -> Vec<u64> {
            vec![u64::MAX; a.len()]
        }
    }

    #[test]
    fn clean_backend_passes_straight_through() {
        let ex = CheckedExecutor::new(Box::new(SoftwareScans));
        let a: Vec<u64> = (0..40).map(|i| i * 3).collect();
        assert_eq!(
            ex.checked_plus_scan(&a).unwrap(),
            scan_core::scan::<Sum, _>(&a)
        );
        assert_eq!(
            ex.checked_max_scan(&a).unwrap(),
            scan_core::scan::<Max, _>(&a)
        );
        let s = ex.stats();
        assert_eq!(s.scans, 2);
        assert_eq!(s.attempts, 2);
        assert_eq!(s.detections, 0);
        assert_eq!(s.rescues, 0);
    }

    #[test]
    fn always_wrong_primary_falls_back() {
        let ex = CheckedExecutor::new(Box::new(AlwaysWrong)).with_fallback(Box::new(SoftwareScans));
        let a: Vec<u64> = (0..20).collect();
        assert_eq!(
            ex.checked_plus_scan(&a).unwrap(),
            scan_core::scan::<Sum, _>(&a)
        );
        let s = ex.stats();
        assert_eq!(s.detections, 2, "both primary attempts rejected");
        assert_eq!(s.retries, 1);
        assert_eq!(s.fallbacks, 1);
    }

    #[test]
    fn exhausted_chain_is_a_typed_error_but_trait_rescues() {
        let ex = CheckedExecutor::new(Box::new(AlwaysWrong)).with_retries(2);
        let a: Vec<u64> = (0..10).collect();
        assert_eq!(
            ex.checked_plus_scan(&a).unwrap_err(),
            FaultError::RetriesExhausted { attempts: 3 }
        );
        // The PrimitiveScans view never returns garbage: it rescues.
        assert_eq!(ex.plus_scan(&a), scan_core::scan::<Sum, _>(&a));
        assert_eq!(ex.stats().rescues, 1);
    }

    #[test]
    fn faulty_circuit_is_tamed() {
        let a: Vec<u64> = (0..64).map(|i| (i * 13) % 127).collect();
        let faulty = FaultyCircuitBackend::new(64, FaultPlan::new(7));
        let ex = CheckedExecutor::new(Box::new(faulty)).with_retries(3);
        for _ in 0..30 {
            assert_eq!(ex.plus_scan(&a), scan_core::scan::<Sum, _>(&a));
            assert_eq!(ex.max_scan(&a), scan_core::scan::<Max, _>(&a));
        }
        let s = ex.stats();
        assert_eq!(s.scans, 60);
        assert!(s.detections > 0, "a plan faulting every scan must trip");
        // Retries plus breaker skips account for every scan: each one
        // was either attempted on the circuit or served while the
        // circuit sat in quarantine.
        let h = ex.backend_health(0);
        assert!(s.attempts + h.skipped > s.scans);
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_skips() {
        let ex = CheckedExecutor::new(Box::new(AlwaysWrong))
            .with_fallback(Box::new(SoftwareScans))
            .with_retries(0)
            .with_breaker(BreakerConfig {
                failure_threshold: 3,
                base_quarantine: 8,
                max_quarantine: 64,
            });
        let a: Vec<u64> = (0..16).collect();
        let good = scan_core::scan::<Sum, _>(&a);
        // Scans at clock 0..=2 attempt the primary and fail; the third
        // failure opens the breaker (until = 2 + 8 = 10).
        for _ in 0..3 {
            assert_eq!(ex.checked_plus_scan(&a).unwrap(), good);
        }
        let h = ex.backend_health(0);
        assert_eq!(h.quarantines, 1);
        assert_eq!(
            h.state,
            BreakerState::Open {
                until: 10,
                backoff: 8
            }
        );
        let attempts_at_open = ex.stats().attempts;
        // Clocks 3..=9: the primary is skipped, not attempted.
        for _ in 3..10 {
            assert_eq!(ex.checked_plus_scan(&a).unwrap(), good);
        }
        let h = ex.backend_health(0);
        assert_eq!(h.skipped, 7, "quarantined backend must be skipped");
        // 7 scans each cost exactly one (fallback) attempt.
        assert_eq!(ex.stats().attempts, attempts_at_open + 7);
        // Clock 10: quarantine elapsed — one probe, which fails and
        // re-opens with doubled backoff.
        assert_eq!(ex.checked_plus_scan(&a).unwrap(), good);
        let h = ex.backend_health(0);
        assert_eq!(h.probes, 1);
        assert_eq!(h.quarantines, 2);
        assert_eq!(
            h.state,
            BreakerState::Open {
                until: 26,
                backoff: 16
            }
        );
    }

    /// Wrong for the first `bad_calls` invocations, correct afterwards.
    struct HealsAfter {
        bad_calls: u64,
        calls: std::cell::Cell<u64>,
    }
    impl PrimitiveScans for HealsAfter {
        fn plus_scan(&self, a: &[u64]) -> Vec<u64> {
            let c = self.calls.get();
            self.calls.set(c + 1);
            if c < self.bad_calls {
                vec![u64::MAX; a.len()]
            } else {
                scan_core::scan::<Sum, _>(a)
            }
        }
        fn max_scan(&self, a: &[u64]) -> Vec<u64> {
            self.plus_scan(a)
        }
    }

    #[test]
    fn probe_readmits_a_healed_backend() {
        let ex = CheckedExecutor::new(Box::new(HealsAfter {
            bad_calls: 1,
            calls: std::cell::Cell::new(0),
        }))
        .with_fallback(Box::new(SoftwareScans))
        .with_retries(0)
        .with_breaker(BreakerConfig {
            failure_threshold: 1,
            base_quarantine: 2,
            max_quarantine: 8,
        });
        let a: Vec<u64> = (0..12).collect();
        let good = scan_core::scan::<Sum, _>(&a);
        // Clock 0: primary lies once, breaker opens (until = 2).
        assert_eq!(ex.checked_plus_scan(&a).unwrap(), good);
        assert_eq!(
            ex.backend_health(0).state,
            BreakerState::Open {
                until: 2,
                backoff: 2
            }
        );
        // Clock 1: skipped.
        assert_eq!(ex.checked_plus_scan(&a).unwrap(), good);
        assert_eq!(ex.backend_health(0).skipped, 1);
        // Clock 2: probe — the backend has healed, so it is re-admitted.
        assert_eq!(ex.checked_plus_scan(&a).unwrap(), good);
        let h = ex.backend_health(0);
        assert_eq!(h.probes, 1);
        assert_eq!(h.state, BreakerState::Closed);
        assert_eq!(h.consecutive_failures, 0);
        // Clock 3: served by the healthy primary again — no new
        // fallbacks.
        let fallbacks = ex.stats().fallbacks;
        assert_eq!(ex.checked_plus_scan(&a).unwrap(), good);
        assert_eq!(ex.stats().fallbacks, fallbacks);
    }

    /// A backend that panics on every call.
    struct AlwaysPanics;
    impl PrimitiveScans for AlwaysPanics {
        fn plus_scan(&self, _a: &[u64]) -> Vec<u64> {
            panic!("injected backend panic");
        }
        fn max_scan(&self, _a: &[u64]) -> Vec<u64> {
            panic!("injected backend panic");
        }
    }

    #[test]
    fn panicking_backend_is_contained_and_counted() {
        let ex = CheckedExecutor::new(Box::new(AlwaysPanics))
            .with_fallback(Box::new(SoftwareScans))
            .with_retries(1);
        let a: Vec<u64> = (0..20).collect();
        // No panic crosses this call; the fallback serves the scan.
        assert_eq!(
            ex.checked_plus_scan(&a).unwrap(),
            scan_core::scan::<Sum, _>(&a)
        );
        let h = ex.backend_health(0);
        assert!(h.panics >= 1);
        assert_eq!(ex.stats().detections, 0, "a panic is not a detection");
    }

    #[test]
    fn expired_ambient_deadline_is_a_typed_error() {
        let ex = CheckedExecutor::new(Box::new(SoftwareScans));
        let d = scan_core::ScanDeadline::after(std::time::Duration::ZERO);
        let got = scan_core::deadline::with_deadline(&d, || ex.checked_plus_scan(&[1, 2, 3]));
        assert_eq!(
            got.unwrap_err(),
            FaultError::Exec(scan_core::ExecError::DeadlineExceeded)
        );
        assert_eq!(ex.stats().scans, 0, "abandoned before any attempt");
    }

    #[test]
    fn empty_input() {
        let ex = CheckedExecutor::new(Box::new(SoftwareScans));
        assert!(ex.checked_plus_scan(&[]).unwrap().is_empty());
    }
}
