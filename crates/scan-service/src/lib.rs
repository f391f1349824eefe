//! # scan-service
//!
//! Multi-tenant serving layer for the scan engine: a **coalescing
//! front door** that turns many concurrent small requests (`+-scan`,
//! `max-scan`, `enumerate`, `pack` over short slices) into one
//! segmented-scan mega-batch on the `scan-core` worker pool.
//!
//! The paper's central observation (§2.3) is that segment flags make
//! one scan pass serve arbitrarily many independent scans. This crate
//! is that observation turned into a serving discipline: small
//! requests individually too cheap to amortize a kernel launch are
//! held for a microsecond-scale window, packed into a single fallible
//! segmented [`scan_core::Scan`] call, and demultiplexed back
//! to their submitters — giving each tenant small-request latency with
//! big-batch throughput (`BENCH_service.json` quantifies the ratio).
//!
//! The robustness surface around that fast path:
//!
//! - **Admission control** — bounded global and per-tenant queue
//!   depth; overflow sheds with a typed
//!   [`ServiceError::Overloaded`], never unbounded buffering.
//! - **Deadline propagation** — each request may carry a
//!   [`scan_core::ScanDeadline`]; expiry in the queue rejects just
//!   that request, and mid-batch cancellation never touches
//!   co-batched requests.
//! - **Weighted fairness** — per-tenant deficit-round-robin with a
//!   provable starvation bound ([`queue::starvation_bound`]),
//!   property-tested under arbitrary tenant mixes.
//! - **Graceful degradation** — a contained worker panic re-runs the
//!   batch at once (up to `batch_retries` times), then falls back to
//!   per-request kernels; a breaker quarantines the coalescer itself
//!   (one-request-one-kernel mode) when batches fail persistently.
//! - **Observability** — [`ServiceHealth`] snapshots queue depth,
//!   shed counts, batch occupancy, per-tenant counters, and the
//!   coalescer breaker, and is the contract the chaos suite drains
//!   against.
//!
//! Architecturally the service spawns **no threads**: submitters take
//! turns leading batches (leader–follower on one condvar), so the
//! crate stays inside the repo's spawn/clock confinement rules and
//! inherits the worker pool's panic containment.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod backend;
pub mod error;
pub mod health;
pub mod queue;
pub mod request;
pub mod service;
pub mod sync;

pub use backend::{BatchBackend, PoolBackend, ScanKind};
pub use error::{Result, ServiceError};
pub use health::{CoalescerHealth, ServiceHealth, ServiceMode, TenantCounters};
pub use queue::{starvation_bound, FairQueue};
pub use request::{RequestOp, ScanRequest, TenantId};
pub use service::{ScanService, ServiceConfig};
