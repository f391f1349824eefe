//! The crate's single swap point for synchronization primitives.
//!
//! Every concurrent module in `scan-core` (`pool`, `deadline`,
//! `parallel`, `multi_split`) imports its sync types from here instead
//! of `std::sync` directly. In a normal build the re-exports *are* the
//! `std` types — zero cost, zero behavior change. Building with
//! `RUSTFLAGS="--cfg loom"` swaps in the [`loom`] model-checker
//! equivalents, which turn every atomic access, lock acquisition, and
//! condvar wait into a scheduling decision the interleaving search can
//! permute. `tests/loom_pool.rs` runs the pool's concurrency scenarios
//! under that search.
//!
//! Two deliberate exceptions stay on `std` even under loom:
//!
//! - `std::thread::scope` in [`crate::parallel`]'s `Spawn` arm — the
//!   loom suite never exercises that schedule, and scoped spawns have
//!   no loom equivalent;
//! - `std::time::Instant` in [`crate::deadline`] — wall-clock expiry
//!   is untestable under a model checker; loom scenarios use
//!   [`crate::deadline::ScanDeadline::manual`] tokens, whose state is
//!   a shimmed atomic and therefore fully explored.

#[cfg(loom)]
pub use loom::sync::{Arc, Condvar, Mutex, MutexGuard};
#[cfg(loom)]
pub use loom::thread;

/// Atomic types behind the swap point (`std::sync::atomic` or
/// `loom::sync::atomic`).
#[cfg(loom)]
pub mod atomic {
    pub use loom::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
}

#[cfg(not(loom))]
pub use std::sync::{Arc, Condvar, Mutex, MutexGuard};
#[cfg(not(loom))]
pub use std::thread;

/// Atomic types behind the swap point (`std::sync::atomic` or
/// `loom::sync::atomic`).
#[cfg(not(loom))]
pub mod atomic {
    pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
}

use self::atomic::{AtomicUsize, Ordering};

/// A process-wide configuration cell: a relaxed atomic word for
/// settings written by test/bench knobs and read by the engines
/// (parallel threshold override, default schedule, cached ISA).
///
/// Publication is `Relaxed` on purpose — a config value carries no
/// happens-before obligation to other memory; readers only need *some*
/// recent value, and every consumer re-reads per call. Keeping the
/// cell here (rather than ad-hoc statics in each engine module) keeps
/// the workspace atomics-confinement invariant: all atomics live
/// behind the audited sync modules, where the loom swap reaches them.
pub struct ConfigCell(AtomicUsize);

impl ConfigCell {
    /// A cell holding `v`.
    pub const fn new(v: usize) -> Self {
        ConfigCell(AtomicUsize::new(v))
    }

    /// Current value.
    pub fn get(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }

    /// Replace the value.
    pub fn set(&self, v: usize) {
        self.0.store(v, Ordering::Relaxed)
    }
}

/// A shared running-minimum cell, used by parallel kernels to latch
/// the first out-of-range index any block observes (`usize::MAX` =
/// none). `Relaxed` suffices: the blocks' writes are joined before the
/// value is read, so the join edge carries the ordering.
pub struct MinCell(AtomicUsize);

impl MinCell {
    /// A cell holding `v`.
    pub const fn new(v: usize) -> Self {
        MinCell(AtomicUsize::new(v))
    }

    /// Lower the cell to `min(current, v)`.
    pub fn lower(&self, v: usize) {
        self.0.fetch_min(v, Ordering::Relaxed);
    }

    /// Current minimum.
    pub fn get(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }
}
