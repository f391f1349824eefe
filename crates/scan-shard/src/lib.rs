//! Sharded scan execution with shard-loss recovery.
//!
//! This crate lifts the paper's two-pass scan schedule one level up:
//! instead of blocks within one worker pool, a scan is partitioned
//! into contiguous ranges fanned across several *shards* — independent
//! supervisor threads, each running a sequential [`scan_core::Scan`]
//! over its range, with the range's heads and carry
//! ([`scan_core::Scan::heads`], [`scan_core::Scan::carry`]) — and the
//! per-shard totals are combined by the same exclusive balanced-tree
//! scan the paper uses for blocks ([`combine`]).
//!
//! Shards are deliberately treated as remote executors: the only way
//! in is a job channel, the only way out is a per-job reply channel,
//! and loss detection is purely observational (a reply, a watchdog
//! timeout, a closed channel, or output that fails verification).
//! Nothing in the executor shares mutable state with a shard, so the
//! model extends unchanged to a multi-process transport later.
//!
//! What the executor guarantees under [`RecoveryPolicy::Recover`]:
//! bit-equal output to the single-pool kernels whenever *any* compute
//! path remains — lost ranges are re-executed on survivors with seeded
//! backoff, then inline; lying shards are caught by the parallel pass
//! that assembles the output and checks every element of it, their
//! ranges are recomputed inline, and they are quarantined behind a
//! [`scan_fault::Breaker`] until a probe run readmits them. Under
//! [`RecoveryPolicy::Fail`], the first loss surfaces as a typed
//! [`ShardError`] instead.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod assemble;
pub mod combine;
pub mod error;
pub mod executor;
pub mod health;
mod pool;

pub use error::{LossCause, ShardError};
pub use executor::{RecoveryPolicy, ShardConfig, ShardedExecutor};
pub use health::{ShardHealth, ShardStatus};
pub use scan_core::ScanKind;
