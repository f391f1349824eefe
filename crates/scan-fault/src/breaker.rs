//! The per-backend circuit breaker, extracted from the checked
//! executor so other supervisors (notably `scan-shard`'s per-shard
//! health tracking) can reuse the identical state machine.
//!
//! A [`Breaker`] tracks one backend on a caller-supplied **logical
//! clock** (the executor's scan counter, a sharded executor's run
//! counter, ...). The caller asks [`Breaker::gate`] how to treat the
//! backend this tick, reports the outcome via [`Breaker::success`] /
//! [`Breaker::failure`], and the breaker keeps the
//! threshold/quarantine/probe bookkeeping:
//!
//! - `Closed` backends are attempted with the caller's full retry
//!   budget; `failure_threshold` consecutive failures open the breaker.
//! - `Open` backends are skipped until the clock reaches `until`, the
//!   opening tick plus the backoff, then granted exactly one probation
//!   probe — success re-closes the breaker, failure re-opens it with
//!   exponentially doubled (capped) backoff.
//!
//! Quarantines carry no jitter. Every breaker ticks on its own
//! owner's logical clock, so there is no shared wall-clock instant at
//! which a fleet of breakers could re-probe in lockstep, and an exact
//! schedule is what the chaos suites assert.

/// Tuning knobs for the per-backend circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failed attempts (rejected or panicked) that open the
    /// breaker on a backend.
    pub failure_threshold: u32,
    /// Quarantine length, in ticks of the caller's logical clock,
    /// applied the first time a backend opens.
    pub base_quarantine: u64,
    /// Backoff ceiling: each failed probation probe doubles the
    /// quarantine up to this many ticks.
    pub max_quarantine: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            base_quarantine: 8,
            max_quarantine: 1024,
        }
    }
}

/// Breaker position for one backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: the backend is attempted normally.
    Closed,
    /// Quarantined: skipped until the logical clock reaches `until`,
    /// then given one probation probe.
    Open {
        /// Clock value at which the backend becomes probeable.
        until: u64,
        /// Current quarantine length; doubles (capped) per failed
        /// probe.
        backoff: u64,
    },
}

/// How the breaker admits a backend for the current tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Closed breaker: full retry budget.
    Full,
    /// Quarantine elapsed: exactly one probe attempt.
    Probe,
    /// Still quarantined: not attempted at all.
    Skip,
}

/// One backend's breaker state machine plus its lifetime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
    skipped: u64,
    probes: u64,
    quarantines: u64,
}

impl Default for Breaker {
    fn default() -> Self {
        Breaker::new()
    }
}

impl Breaker {
    /// A fresh, closed breaker.
    pub fn new() -> Self {
        Breaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            skipped: 0,
            probes: 0,
            quarantines: 0,
        }
    }

    /// How to treat the backend at logical time `clock`. Counts the
    /// skip or the probe as a side effect, so call it exactly once per
    /// tick the backend is considered.
    pub fn gate(&mut self, clock: u64) -> Gate {
        match self.state {
            BreakerState::Closed => Gate::Full,
            BreakerState::Open { until, .. } if clock < until => {
                self.skipped += 1;
                Gate::Skip
            }
            BreakerState::Open { .. } => {
                self.probes += 1;
                Gate::Probe
            }
        }
    }

    /// Record a verified success: the breaker closes and the failure
    /// streak resets (this is also how a probe re-admits a backend).
    pub fn success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// Record one failed attempt at logical time `clock`. Opens the
    /// breaker when the attempt was a probation probe or the streak
    /// reached `cfg.failure_threshold`; returns `true` iff it opened
    /// (the caller should stop retrying a quarantined backend).
    pub fn failure(&mut self, cfg: &BreakerConfig, clock: u64, probe: bool) -> bool {
        self.consecutive_failures += 1;
        if probe || self.consecutive_failures >= cfg.failure_threshold {
            self.open(cfg, clock);
            true
        } else {
            false
        }
    }

    /// Open (or re-open) the breaker at logical time `clock`, doubling
    /// the backoff (capped) if it was already open. The quarantine ends
    /// at exactly `clock + backoff`.
    pub fn open(&mut self, cfg: &BreakerConfig, clock: u64) {
        let backoff = match self.state {
            BreakerState::Closed => cfg.base_quarantine.max(1),
            BreakerState::Open { backoff, .. } => double_capped(backoff, cfg.max_quarantine),
        };
        self.state = BreakerState::Open {
            until: clock.saturating_add(backoff),
            backoff,
        };
        self.quarantines += 1;
    }

    /// Breaker position.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Failed attempts since the last verified success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Ticks during which this backend was skipped while quarantined.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Probation probes issued after a quarantine elapsed.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Times the breaker opened (including re-opens after a failed
    /// probe).
    pub fn quarantines(&self) -> u64 {
        self.quarantines
    }
}

/// Double a quarantine, capped at `max` (clamped to at least 1).
fn double_capped(current: u64, max: u64) -> u64 {
    current.saturating_mul(2).min(max.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(threshold: u32) -> BreakerConfig {
        BreakerConfig {
            failure_threshold: threshold,
            base_quarantine: 8,
            max_quarantine: 64,
        }
    }

    #[test]
    fn closed_until_threshold_then_quarantine_then_probe() {
        let cfg = exact(3);
        let mut b = Breaker::new();
        // Two failures: still closed (streak below threshold).
        assert_eq!(b.gate(0), Gate::Full);
        assert!(!b.failure(&cfg, 0, false));
        assert_eq!(b.gate(1), Gate::Full);
        assert!(!b.failure(&cfg, 1, false));
        // Third failure at clock 2 opens: until = 2 + 8 = 10.
        assert_eq!(b.gate(2), Gate::Full);
        assert!(b.failure(&cfg, 2, false));
        assert_eq!(
            b.state(),
            BreakerState::Open {
                until: 10,
                backoff: 8
            }
        );
        assert_eq!(b.quarantines(), 1);
        // Clocks 3..=9 skip.
        for clock in 3..10 {
            assert_eq!(b.gate(clock), Gate::Skip);
        }
        assert_eq!(b.skipped(), 7);
        // Clock 10 probes; a failed probe re-opens with doubled backoff.
        assert_eq!(b.gate(10), Gate::Probe);
        assert!(b.failure(&cfg, 10, true));
        assert_eq!(
            b.state(),
            BreakerState::Open {
                until: 26,
                backoff: 16
            }
        );
        assert_eq!(b.probes(), 1);
        // Backoff caps at max_quarantine.
        for _ in 0..4 {
            b.open(&cfg, 0);
        }
        let BreakerState::Open { backoff, .. } = b.state() else {
            panic!("must stay open");
        };
        assert_eq!(backoff, 64);
    }

    #[test]
    fn probe_success_recloses_and_resets_streak() {
        let cfg = exact(1);
        let mut b = Breaker::new();
        assert!(b.failure(&cfg, 0, false));
        assert_eq!(b.gate(8), Gate::Probe);
        b.success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.consecutive_failures(), 0);
        assert_eq!(b.gate(9), Gate::Full);
    }
}
