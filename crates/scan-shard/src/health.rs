//! Observable health of a sharded executor.

use scan_fault::BreakerState;

/// Point-in-time status of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStatus {
    /// The shard's breaker position.
    pub state: BreakerState,
    /// Whether the shard's supervisor thread is still reachable.
    pub alive: bool,
    /// Jobs this shard completed successfully (verified or not yet
    /// verified); a run issues one job per range.
    pub served: u64,
    /// Losses attributed to contained worker panics.
    pub panics: u64,
    /// Losses attributed to watchdog timeouts.
    pub watchdog_losses: u64,
    /// Pieces that failed the assembly pass's check or came back with
    /// the wrong length.
    pub lies: u64,
    /// Losses attributed to a dead supervisor thread.
    pub disconnects: u64,
    /// Times the shard's breaker opened.
    pub quarantines: u64,
    /// Probation probes granted after a quarantine elapsed.
    pub probes: u64,
    /// Runs during which the shard was skipped while quarantined.
    pub skipped: u64,
}

/// Snapshot of the whole executor's health.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// Per-shard status, indexed by shard.
    pub shards: Vec<ShardStatus>,
    /// Scan runs served (sharded or degraded).
    pub runs: u64,
    /// Runs with no shard admitted, which ran on the single-pool
    /// kernels instead.
    pub degraded_runs: u64,
    /// Shard losses observed across all runs (every cause).
    pub losses: u64,
    /// Lost ranges the executor recomputed inline: one per range whose
    /// shard panicked, missed the watchdog, was gone or sent a piece of
    /// the wrong length. Each one is also counted in `inline_rescues`.
    pub recoveries: u64,
    /// Ranges the executor computed itself: every recovery, plus every
    /// range whose piece failed the assembly pass's check. A later
    /// range whose carry a lie reached keeps its verified piece and
    /// only gets the true carry applied again, which is not counted.
    pub inline_rescues: u64,
}

impl ShardHealth {
    /// Shards currently quarantined (breaker open).
    pub fn quarantined(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| !matches!(s.state, BreakerState::Closed))
            .count()
    }
}
