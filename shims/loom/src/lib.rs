//! Hermetic in-tree stand-in for the [`loom`](https://docs.rs/loom)
//! permutation tester, covering the API subset this workspace uses.
//!
//! The workspace builds with no registry access, so the real loom crate
//! cannot be a dependency. This shim implements the same *contract* for
//! the subset `scan-core` needs: [`model`] runs a closure many times,
//! exploring the distinct thread interleavings its sync operations
//! permit, and panics on the first schedule where an assertion fails,
//! a deadlock occurs, or the closure panics.
//!
//! See the private `rt` module for the exploration algorithm and
//! its bounds, and for the deliberate modeling differences from the
//! real loom (sequential consistency, quiescence-gated timeouts).
//!
//! The shim's own types degrade gracefully **outside** [`model`]: with
//! no active exploration they behave exactly like their `std`
//! counterparts, so code ported onto `loom` types still works when a
//! non-loom test path happens to touch it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rt;

pub mod sync;
pub mod thread;

use std::sync::Arc;

/// Exhaustively run `f` under every thread interleaving within the
/// exploration bounds, panicking on the first failing schedule.
///
/// Bounds (see `rt`): preemption bound `LOOM_MAX_PREEMPTIONS`
/// (default 2), execution cap `LOOM_MAX_BRANCHES` (default 20 000).
pub fn model<F>(f: F)
where
    F: Fn() + Sync + Send + 'static,
{
    rt::explore(Arc::new(f));
}
