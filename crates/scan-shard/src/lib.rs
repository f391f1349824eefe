//! Sharded scan execution with shard-loss recovery.
//!
//! This crate lifts the paper's block decomposition one level up:
//! instead of blocks within one worker pool, a scan is partitioned
//! into contiguous ranges fanned across several *shards* — independent
//! supervisor threads, each running a sequential [`scan_core::Scan`]
//! over its range with the range's heads ([`scan_core::Scan::heads`])
//! — in one round. Every shard scans its range from the identity, and
//! the executor applies each range's carry while it assembles the
//! output; the carries come from the totals the pieces claim, combined
//! by the same exclusive balanced-tree scan the paper uses for blocks
//! ([`combine`]).
//!
//! Shards are treated as untrusted executors: the only way in is a
//! job channel, the only way out is a per-job reply channel, and loss
//! detection is purely observational (a reply, a watchdog timeout, a
//! closed channel, or output that fails verification). Nothing in the
//! executor shares mutable state with a shard, so a shard that is
//! still running after a watchdog loss cannot touch the run it lost.
//!
//! What the executor guarantees: bit-equal output to the single-pool
//! kernels on every run that is not cancelled or out of time. A lost
//! range is recomputed inline with the same sequential range kernel;
//! lying shards are caught by the parallel pass that assembles the
//! output and checks every element of it, their ranges are recomputed
//! inline, later ranges that a lie reached through its claimed total
//! get their true carry applied again, and the liars are quarantined
//! behind a [`scan_fault::Breaker`] until a probe run readmits them.
//! When no shard is admitted, the run degrades to the single-pool
//! kernels.
//!
//! ```
//! use scan_shard::{ScanKind, ShardConfig, ShardedExecutor};
//!
//! let ex = ShardedExecutor::new(ShardConfig { shards: 4, ..ShardConfig::default() });
//! let data: Vec<u64> = (0..1_000_000).collect();
//! assert_eq!(
//!     ex.scan(ScanKind::Sum, &data).unwrap(),
//!     scan_core::scan::<scan_core::Sum, _>(&data)
//! );
//! // Per-shard breaker state and losses by cause, plus recoveries,
//! // inline rescues and degraded runs.
//! let health = ex.health();
//! assert_eq!((health.losses, health.recoveries), (0, 0));
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod assemble;
pub mod combine;
pub mod error;
pub mod executor;
pub mod health;
mod pool;

pub use error::ShardError;
pub use executor::{ShardConfig, ShardedExecutor};
pub use health::{ShardHealth, ShardStatus};
pub use scan_core::ScanKind;
