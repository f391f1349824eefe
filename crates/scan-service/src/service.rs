//! The coalescing front door: leader–follower batching without
//! dedicated threads.
//!
//! # How a request flows
//!
//! A submitter calls [`ScanService::submit`], which admits (or sheds)
//! the request, enqueues it into the weighted fair queue, and parks on
//! the service condvar. When a close trigger fires — the queue reached
//! `close_target`, or the submitter's own coalescing window elapsed —
//! exactly one parked submitter elects itself *leader*, drains a batch
//! from the fair queue, releases the lock, and executes the whole
//! batch inline on its own thread: the per-kind request payloads are
//! concatenated and run as **one segmented exclusive scan** on the
//! worker pool (paper §2.3 — segment heads make one kernel launch
//! serve every request at once). The leader then demultiplexes the
//! result back into per-request slots, re-acquires the lock, updates
//! the breaker and counters, steps down, and wakes everyone.
//!
//! No thread is ever spawned here: submitters take turns doing the
//! service's work, so the crate stays inside the repo's spawn
//! confinement (`cargo xtask lint` R3) and the service inherits the
//! pool's panic containment for free.
//!
//! # Robustness ladder
//!
//! 1. Coalesced segmented scan, with a batch deadline equal to the
//!    most generous member deadline (capped by `max_batch_duration`)
//!    so one short-fused member can never poison its batchmates.
//! 2. On a contained worker panic, jittered exponential backoff and
//!    retry of the whole batch (bounded by `batch_retries`).
//! 3. On persistent batch failure or a member that fails the O(n)
//!    postcondition check, the affected members re-run individually
//!    (one-request-one-kernel), each under its own deadline.
//! 4. Repeated coalesced failures open a [`scan_fault::Breaker`]: the
//!    service runs *degraded* (every request solo) for a quarantine
//!    measured in batch dispatches, then probes; a failed probe doubles
//!    the quarantine, a successful one restores coalescing.
//!
//! Every rung returns typed [`ServiceError`]s; no path hangs, drops a
//! response, or buffers unboundedly.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use scan_core::segmented::Segments;
use scan_core::{ExecError, Max, ScanDeadline, Sum};
use scan_fault::{verify_scan, Breaker, BreakerConfig, BreakerState, Gate};

use crate::backend::{BatchBackend, PoolBackend, ScanKind};
use crate::error::{Result, ServiceError};
use crate::health::{CoalescerHealth, ServiceHealth, ServiceMode, TenantCounters};
use crate::queue::FairQueue;
use crate::request::{RequestOp, ScanRequest, TenantId};
use crate::sync::SlotFlag;

/// Upper bound on a single condvar park; a safety net under the
/// notify-driven wakeups, and the poll cadence while a batch is in
/// flight.
const WAIT_TICK: Duration = Duration::from_millis(1);
/// Shortest park while waiting for a coalescing window, so an expired
/// window behind an active leader degrades to a bounded poll instead
/// of a spin.
const MIN_WAIT: Duration = Duration::from_micros(50);

/// Tuning knobs of the front door. All fields are public; start from
/// [`ServiceConfig::default`] and override.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Admission bound on total queued requests; beyond it submissions
    /// shed with [`ServiceError::Overloaded`].
    pub max_queue_depth: usize,
    /// Admission bound on one tenant's queued requests.
    pub max_tenant_depth: usize,
    /// Most requests one coalesced batch may carry.
    pub batch_capacity: usize,
    /// Queue depth at which a window closes immediately (without
    /// waiting out the coalescing window).
    pub close_target: usize,
    /// Coalescing window: how long a lone request waits for company
    /// before it closes a batch anyway.
    pub window: Duration,
    /// Per-request payload bound; larger requests are rejected with
    /// [`ServiceError::RequestTooLarge`].
    pub max_request_len: usize,
    /// Hard cap on any batch's execution deadline, so members without
    /// deadlines cannot keep a wedged batch alive forever.
    pub max_batch_duration: Duration,
    /// Whole-batch retries after contained worker panics.
    pub batch_retries: u32,
    /// Base of the exponential retry backoff.
    pub backoff_base: Duration,
    /// Upper bound of the uniform jitter added to each backoff.
    pub backoff_jitter: Duration,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
    /// Consecutive coalesced-batch failures that open the breaker.
    pub failure_threshold: u32,
    /// Initial breaker quarantine, in batch dispatches.
    pub base_quarantine: u64,
    /// Quarantine cap; failed probes double up to this.
    pub max_quarantine: u64,
    /// Verify every demuxed segment against the scan recurrence
    /// (O(n)); catches lying backends per-request.
    pub verify: bool,
    /// Fairness weight for tenants absent from `weights`.
    pub default_weight: u32,
    /// Per-tenant fairness weights (share of each batch rotation).
    pub weights: BTreeMap<TenantId, u32>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_queue_depth: 4096,
            max_tenant_depth: 1024,
            batch_capacity: 512,
            close_target: 64,
            window: Duration::from_micros(200),
            max_request_len: 1 << 20,
            max_batch_duration: Duration::from_secs(2),
            batch_retries: 2,
            backoff_base: Duration::from_micros(50),
            backoff_jitter: Duration::from_micros(100),
            jitter_seed: 0x5cad_0001,
            failure_threshold: 3,
            base_quarantine: 8,
            max_quarantine: 256,
            verify: true,
            default_weight: 1,
            weights: BTreeMap::new(),
        }
    }
}

impl ServiceConfig {
    /// A configuration with coalescing disabled: every request runs
    /// one-request-one-kernel. This is the "naive" baseline the bench
    /// compares against — same front door, no batching.
    pub fn uncoalesced() -> Self {
        ServiceConfig {
            batch_capacity: 1,
            close_target: 1,
            window: Duration::ZERO,
            ..ServiceConfig::default()
        }
    }
}

/// One queued request plus its delivery slot.
struct Entry {
    tenant: TenantId,
    op: RequestOp,
    deadline: Option<ScanDeadline>,
    /// Coalescing-window trigger for this entry.
    window: ScanDeadline,
    /// Set (under the state lock) once a leader claimed this entry;
    /// from then on a result is guaranteed to arrive in `slot`.
    taken: SlotFlag,
    /// Set (under the state lock) when the submitter gave up while
    /// still queued; leaders drop such entries for free.
    abandoned: SlotFlag,
    /// Dispatch-clock reading at enqueue, for fairness accounting.
    enqueued_dispatch: u64,
    /// The delivered result. Filled exactly once, by a leader.
    slot: Mutex<Option<Result<Vec<u64>>>>,
}

impl Entry {
    fn take_result(&self) -> Option<Result<Vec<u64>>> {
        self.slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    fn deliver(&self, res: Result<Vec<u64>>) {
        *self.slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(res);
    }
}

/// Everything behind the service lock.
struct State {
    queue: FairQueue<Arc<Entry>>,
    /// Entries still in the queue whose submitters already left.
    abandoned_in_queue: usize,
    /// True while some submitter is executing a batch.
    leading: bool,
    // Breaker on the logical batch clock.
    dispatches: u64,
    breaker: Breaker,
    times_degraded: u64,
    batches_retried: u64,
    // Lifetime counters.
    submitted: u64,
    completed: u64,
    shed: u64,
    failed: u64,
    batches: u64,
    batched_requests: u64,
    solo_requests: u64,
    expired_in_queue: u64,
    tenants: BTreeMap<TenantId, TenantCounters>,
}

impl State {
    fn live_depth(&self) -> usize {
        self.queue.depth().saturating_sub(self.abandoned_in_queue)
    }
}

/// Side effects of one executed batch, applied to [`State`] under the
/// lock after the leader finishes.
#[derive(Default)]
struct BatchOutcome {
    /// A coalesced segmented scan was attempted (vs. pure solo mode).
    coalesced: bool,
    /// The coalesced attempt failed (kernel error after retries, or a
    /// member flunked verification) — feeds the breaker.
    coalesced_failed: bool,
    /// At least one retry round was needed.
    retried: bool,
    batched: u64,
    solo: u64,
    expired: u64,
}

/// The multi-tenant coalescing scan service.
///
/// Generic over the [`BatchBackend`] so the chaos suite can inject
/// faults at the execution seam; production code uses
/// [`ScanService::new`], which runs on the `scan-core` worker pool.
pub struct ScanService<B: BatchBackend = PoolBackend> {
    cfg: ServiceConfig,
    backend: B,
    state: Mutex<State>,
    cv: Condvar,
}

impl ScanService<PoolBackend> {
    /// A service executing on the process-wide worker pool.
    pub fn new(cfg: ServiceConfig) -> Self {
        Self::with_backend(cfg, PoolBackend)
    }
}

impl<B: BatchBackend> ScanService<B> {
    /// A service executing on a caller-provided backend.
    pub fn with_backend(cfg: ServiceConfig, backend: B) -> Self {
        let state = State {
            queue: FairQueue::new(cfg.default_weight, cfg.weights.clone()),
            abandoned_in_queue: 0,
            leading: false,
            dispatches: 0,
            breaker: Breaker::new(),
            times_degraded: 0,
            batches_retried: 0,
            submitted: 0,
            completed: 0,
            shed: 0,
            failed: 0,
            batches: 0,
            batched_requests: 0,
            solo_requests: 0,
            expired_in_queue: 0,
            tenants: BTreeMap::new(),
        };
        ScanService {
            cfg,
            backend,
            state: Mutex::new(state),
            cv: Condvar::new(),
        }
    }

    /// The configuration this service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Submit one request and block until its typed outcome.
    ///
    /// The calling thread may be drafted to execute a whole batch
    /// (leader–follower): there are no service threads, so submitters
    /// collectively power the coalescer. Returns
    /// [`ServiceError::Overloaded`] instead of queuing beyond the
    /// configured bounds.
    pub fn submit(&self, req: ScanRequest) -> Result<Vec<u64>> {
        req.op.validate(self.cfg.max_request_len)?;
        let tenant = req.tenant;

        // Empty payloads have exactly one correct answer; skip the
        // queue entirely.
        if req.op.is_empty() {
            let mut st = self.lock_state();
            st.submitted += 1;
            st.completed += 1;
            let t = st.tenants.entry(tenant).or_default();
            t.submitted += 1;
            t.completed += 1;
            return Ok(Vec::new());
        }

        let entry = {
            let mut st = self.lock_state();
            // Admission control: bounded queue, per-tenant cap.
            let depth = st.live_depth();
            let tenant_depth = st.queue.tenant_depth(tenant);
            if depth >= self.cfg.max_queue_depth || tenant_depth >= self.cfg.max_tenant_depth {
                st.shed += 1;
                st.tenants.entry(tenant).or_default().shed += 1;
                return Err(ServiceError::Overloaded {
                    depth,
                    tenant_depth,
                });
            }
            let entry = Arc::new(Entry {
                tenant,
                op: req.op,
                deadline: req.deadline,
                window: ScanDeadline::after(self.cfg.window),
                taken: SlotFlag::new(),
                abandoned: SlotFlag::new(),
                enqueued_dispatch: st.dispatches,
                slot: Mutex::new(None),
            });
            st.queue.push(tenant, Arc::clone(&entry));
            st.submitted += 1;
            st.tenants.entry(tenant).or_default().submitted += 1;
            // Wake parked submitters when the close target is hit so
            // one of them leads promptly instead of waiting out a
            // window tick.
            if st.live_depth() >= self.cfg.close_target && !st.leading {
                self.cv.notify_all();
            }
            entry
        };

        self.wait_for(&entry)
    }

    /// Park until `entry` has a result, leading batches when triggers
    /// fire. This loop upholds the no-lost-response invariant: once an
    /// entry is `taken`, some leader is bound to fill its slot, so we
    /// only give up (on our own deadline) while still un-taken.
    fn wait_for(&self, entry: &Arc<Entry>) -> Result<Vec<u64>> {
        let mut st = self.lock_state();
        loop {
            if let Some(res) = entry.take_result() {
                let ok = res.is_ok();
                st.completed += u64::from(ok);
                st.failed += u64::from(!ok);
                let t = st.tenants.entry(entry.tenant).or_default();
                t.completed += u64::from(ok);
                t.failed += u64::from(!ok);
                return res;
            }

            if !entry.taken.is_raised() {
                // Still queued: honor our own deadline without
                // touching anyone else's batch.
                if let Some(d) = &entry.deadline {
                    if let Err(e) = d.check() {
                        entry.abandoned.raise();
                        st.abandoned_in_queue += 1;
                        st.expired_in_queue += 1;
                        st.failed += 1;
                        st.tenants.entry(entry.tenant).or_default().failed += 1;
                        return Err(e.into());
                    }
                }
                let triggered =
                    st.live_depth() >= self.cfg.close_target || entry.window.is_expired();
                if triggered && !st.leading {
                    st.leading = true;
                    st = self.run_batch(st);
                    continue;
                }
            }

            let park = if entry.taken.is_raised() {
                // In flight; the leader notifies on completion, the
                // tick is only a safety net.
                WAIT_TICK
            } else {
                entry
                    .window
                    .remaining()
                    .map_or(WAIT_TICK, |r| r.clamp(MIN_WAIT, WAIT_TICK))
            };
            let (g, _) = self
                .cv
                .wait_timeout(st, park)
                .unwrap_or_else(PoisonError::into_inner);
            st = g;
        }
    }

    /// Leader duty: drain a batch, execute it (lock released), apply
    /// the outcome, step down, wake everyone. Returns with the lock
    /// re-acquired.
    fn run_batch<'a>(&'a self, mut st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        debug_assert!(st.leading);
        let batch = {
            let State {
                queue,
                abandoned_in_queue,
                ..
            } = &mut *st;
            queue.take_batch(self.cfg.batch_capacity, |e: &Arc<Entry>| {
                if e.abandoned.is_raised() {
                    *abandoned_in_queue = abandoned_in_queue.saturating_sub(1);
                    false
                } else {
                    true
                }
            })
        };
        if batch.is_empty() {
            st.leading = false;
            self.cv.notify_all();
            return st;
        }

        let dispatch = st.dispatches;
        st.dispatches += 1;
        for e in &batch {
            e.taken.raise();
            let waited = dispatch.saturating_sub(e.enqueued_dispatch);
            let t = st.tenants.entry(e.tenant).or_default();
            t.max_wait_dispatches = t.max_wait_dispatches.max(waited);
        }
        let gate = st.breaker.gate(dispatch);
        let coalesce_allowed = gate != Gate::Skip;
        let probing = gate == Gate::Probe;
        drop(st);

        // If execution unwinds (a bug, not a contained worker panic —
        // those come back as typed errors), the guard backfills every
        // undelivered slot and steps down, so waiters never wedge on a
        // dead leader.
        let mut guard = LeaderGuard {
            svc: self,
            batch: &batch,
            armed: true,
        };
        let outcome = if self.cfg.batch_capacity > 1 && coalesce_allowed {
            self.execute_coalesced(&batch, dispatch)
        } else {
            self.execute_solo(&batch)
        };
        guard.armed = false;
        drop(guard);

        let mut st = self.lock_state();
        self.apply_outcome(&mut st, &outcome, probing);
        st.leading = false;
        self.cv.notify_all();
        st
    }

    /// Fold one batch's results into the breaker and the counters.
    fn apply_outcome(&self, st: &mut State, out: &BatchOutcome, probing: bool) {
        // Completion/failure tallies are owned by each waiter (in
        // `wait_for`, when it takes its slot) — the leader only
        // accounts for batch-shaped facts, so nothing double-counts.
        st.batches += u64::from(out.coalesced);
        st.batched_requests += out.batched;
        st.solo_requests += out.solo;
        st.expired_in_queue += out.expired;
        st.batches_retried += u64::from(out.retried);
        if !out.coalesced {
            return;
        }
        if out.coalesced_failed {
            // A failed probe re-opens the breaker with doubled
            // quarantine; only a closed breaker opening is a new
            // degradation.
            let opened = st
                .breaker
                .failure(&self.breaker_config(), 0, st.dispatches, probing);
            st.times_degraded += u64::from(opened && !probing);
        } else {
            st.breaker.success();
        }
    }

    /// The coalescer breaker's tuning, in batch dispatches, without
    /// jitter: one breaker has no fleet to spread out.
    fn breaker_config(&self) -> BreakerConfig {
        BreakerConfig {
            failure_threshold: self.cfg.failure_threshold,
            base_quarantine: self.cfg.base_quarantine,
            max_quarantine: self.cfg.max_quarantine,
            jitter: 0,
            jitter_seed: 0,
        }
    }

    /// Execute every member individually (degraded mode, or a
    /// capacity-1 "naive" configuration). Deliveries are *recorded*
    /// here and *counted* in [`Self::apply_outcome`].
    fn execute_solo(&self, batch: &[Arc<Entry>]) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        for e in batch {
            let res = self.exec_one(e, 0);
            out.solo += 1;
            e.deliver(res);
        }
        out
    }

    /// Execute a batch as one segmented scan per scan kind, with the
    /// full robustness ladder.
    fn execute_coalesced(&self, batch: &[Arc<Entry>], dispatch: u64) -> BatchOutcome {
        let mut out = BatchOutcome {
            coalesced: true,
            ..BatchOutcome::default()
        };

        // Triage: members whose deadline already tripped are answered
        // with their typed error and never join the mega-batch — a
        // dead member cannot poison its batchmates.
        let mut live: Vec<&Arc<Entry>> = Vec::with_capacity(batch.len());
        for e in batch {
            match e.deadline.as_ref().map_or(Ok(()), ScanDeadline::check) {
                Ok(()) => live.push(e),
                Err(err) => {
                    out.expired += 1;
                    e.deliver(Err(err.into()));
                }
            }
        }
        out.batched = live.len() as u64;

        // Batch deadline: generous enough for every member (the max of
        // their remaining budgets — a short fuse must not cut short
        // its batchmates), but never beyond the configured cap.
        let mut span = Duration::ZERO;
        let mut unbounded = live.is_empty();
        for e in &live {
            match e.deadline.as_ref().and_then(ScanDeadline::remaining) {
                Some(r) => span = span.max(r),
                None => unbounded = true,
            }
        }
        let budget = if unbounded {
            self.cfg.max_batch_duration
        } else {
            span.min(self.cfg.max_batch_duration)
        };

        // Group by scan kind and run one segmented scan per group.
        for kind in [ScanKind::Sum, ScanKind::Max] {
            let members: Vec<&Arc<Entry>> = live
                .iter()
                .filter(|e| e.op.kind() == kind)
                .copied()
                .collect();
            if members.is_empty() {
                continue;
            }
            let inputs: Vec<Vec<u64>> = members.iter().map(|e| e.op.scan_input()).collect();
            let lengths: Vec<usize> = inputs.iter().map(Vec::len).collect();
            let total: usize = lengths.iter().sum();
            let mut values = Vec::with_capacity(total);
            for v in &inputs {
                values.extend_from_slice(v);
            }
            let segs = Segments::from_lengths(&lengths);
            let token = ScanDeadline::after(budget);

            let scanned =
                self.seg_scan_with_retries(kind, &values, &segs, &token, dispatch, &mut out);
            match scanned {
                Ok(scanned) => {
                    self.demux(kind, &members, &inputs, &lengths, &scanned, &mut out);
                }
                Err(_) => {
                    // The whole group died (kernel error after the
                    // retry budget, or a batch-level deadline that is
                    // not any member's own verdict): next rung, run
                    // every member solo under its own deadline.
                    out.coalesced_failed = true;
                    for e in &members {
                        let res = self.exec_one(e, 0);
                        out.solo += 1;
                        e.deliver(res);
                    }
                }
            }
        }
        out
    }

    /// One segmented scan with jittered-exponential-backoff retries on
    /// contained worker panics.
    fn seg_scan_with_retries(
        &self,
        kind: ScanKind,
        values: &[u64],
        segs: &Segments,
        token: &ScanDeadline,
        dispatch: u64,
        out: &mut BatchOutcome,
    ) -> core::result::Result<Vec<u64>, ServiceError> {
        if values.is_empty() {
            return Ok(Vec::new());
        }
        let mut attempt: u32 = 0;
        loop {
            match self.backend.seg_scan(kind, values, segs, Some(token)) {
                Ok(scanned) if scanned.len() == values.len() => return Ok(scanned),
                Ok(_) | Err(scan_core::Error::Exec(ExecError::WorkerLost { .. }))
                    if attempt < self.cfg.batch_retries =>
                {
                    attempt += 1;
                    out.retried = true;
                    std::thread::sleep(self.backoff(dispatch, attempt, kind));
                }
                Ok(short) => {
                    // Wrong-length output even after retries: treat as
                    // a lying backend at the batch level.
                    debug_assert_ne!(short.len(), values.len());
                    return Err(ServiceError::Corrupted {
                        attempts: attempt + 1,
                    });
                }
                Err(scan_core::Error::Exec(e)) => return Err(ServiceError::Exec(e)),
                Err(e) => return Err(ServiceError::Invalid(e)),
            }
        }
    }

    /// Deterministic backoff: `base · 2^(attempt-1)` plus seeded
    /// uniform jitter so co-located retry storms decorrelate while
    /// tests stay reproducible. The dispatch counter is the jitter
    /// stream and the scan kind is the salt, so the two per-kind
    /// groups of one batch back off on decorrelated schedules.
    fn backoff(&self, dispatch: u64, attempt: u32, kind: ScanKind) -> Duration {
        let policy = scan_core::backoff::Backoff {
            base: self.cfg.backoff_base,
            jitter: self.cfg.backoff_jitter,
            seed: self.cfg.jitter_seed,
        };
        policy.delay(dispatch, attempt, matches!(kind, ScanKind::Max) as u64)
    }

    /// Slice one group's scanned output back into per-member results,
    /// verifying each segment against the scan recurrence. Members
    /// that fail verification (a lying backend) retry individually;
    /// a member cancelled mid-batch gets its typed error while its
    /// batchmates' results deliver untouched.
    fn demux(
        &self,
        kind: ScanKind,
        members: &[&Arc<Entry>],
        inputs: &[Vec<u64>],
        lengths: &[usize],
        scanned: &[u64],
        out: &mut BatchOutcome,
    ) {
        let mut offset = 0usize;
        for ((e, input), &len) in members.iter().zip(inputs).zip(lengths) {
            let seg = &scanned[offset..offset + len];
            offset += len;
            let res = if let Err(err) = e.deadline.as_ref().map_or(Ok(()), ScanDeadline::check) {
                // Cancelled or expired mid-batch: this member's
                // verdict only.
                Err(err.into())
            } else if self.cfg.verify && !verifies(kind, input, seg) {
                // Lying backend on this segment: the coalesced path is
                // suspect (feeds the breaker); the member gets a solo
                // retry with one corruption already on record.
                out.coalesced_failed = true;
                out.solo += 1;
                self.exec_one(e, 1)
            } else {
                Ok(e.op.finish(seg))
            };
            e.deliver(res);
        }
        debug_assert_eq!(offset, scanned.len());
    }

    /// The ladder's bottom rung: one request, one kernel, own
    /// deadline, with the same retry/verify discipline.
    /// `prior_corruptions` carries verification failures already
    /// charged to this request on the coalesced path.
    fn exec_one(&self, e: &Entry, prior_corruptions: u32) -> Result<Vec<u64>> {
        if let Some(d) = &e.deadline {
            d.check()?;
        }
        let kind = e.op.kind();
        let input = e.op.scan_input();
        if input.is_empty() {
            return Ok(e.op.finish(&[]));
        }
        let mut attempt: u32 = 0;
        loop {
            match self.backend.scan_one(kind, &input, e.deadline.as_ref()) {
                Ok(scanned)
                    if scanned.len() == input.len()
                        && (!self.cfg.verify || verifies(kind, &input, &scanned)) =>
                {
                    return Ok(e.op.finish(&scanned));
                }
                Ok(_) if attempt < self.cfg.batch_retries => {
                    attempt += 1;
                    std::thread::sleep(self.backoff(e.enqueued_dispatch, attempt, kind));
                }
                Ok(_) => {
                    return Err(ServiceError::Corrupted {
                        attempts: prior_corruptions + attempt + 1,
                    });
                }
                Err(scan_core::Error::Exec(ExecError::WorkerLost { .. }))
                    if attempt < self.cfg.batch_retries =>
                {
                    attempt += 1;
                    std::thread::sleep(self.backoff(e.enqueued_dispatch, attempt, kind));
                }
                Err(scan_core::Error::Exec(err)) => return Err(ServiceError::Exec(err)),
                Err(err) => return Err(ServiceError::Invalid(err)),
            }
        }
    }

    /// A consistent point-in-time health snapshot.
    pub fn health(&self) -> ServiceHealth {
        let st = self.lock_state();
        ServiceHealth {
            queue_depth: st.live_depth(),
            submitted: st.submitted,
            completed: st.completed,
            shed: st.shed,
            failed: st.failed,
            batches: st.batches,
            batched_requests: st.batched_requests,
            solo_requests: st.solo_requests,
            expired_in_queue: st.expired_in_queue,
            backend_health: CoalescerHealth {
                mode: match st.breaker.state() {
                    BreakerState::Open { until, .. } if st.dispatches < until => {
                        ServiceMode::Degraded { until }
                    }
                    _ => ServiceMode::Coalescing,
                },
                dispatches: st.dispatches,
                consecutive_failures: st.breaker.consecutive_failures(),
                quarantine: match st.breaker.state() {
                    BreakerState::Open { backoff, .. } => backoff,
                    BreakerState::Closed => self.cfg.base_quarantine.max(1),
                },
                times_degraded: st.times_degraded,
                batches_retried: st.batches_retried,
            },
            tenants: st.tenants.clone(),
        }
    }
}

/// Disaster containment for the leader role: on an unwinding leader,
/// deliver a typed error to every slot still empty, then step down and
/// wake the waiters. Disarmed on the normal path.
struct LeaderGuard<'a, B: BatchBackend> {
    svc: &'a ScanService<B>,
    batch: &'a [Arc<Entry>],
    armed: bool,
}

impl<B: BatchBackend> Drop for LeaderGuard<'_, B> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        for e in self.batch {
            let mut slot = e.slot.lock().unwrap_or_else(PoisonError::into_inner);
            if slot.is_none() {
                *slot = Some(Err(ServiceError::Exec(ExecError::WorkerLost { panics: 1 })));
            }
        }
        let mut st = self.svc.lock_state();
        st.leading = false;
        drop(st);
        self.svc.cv.notify_all();
    }
}

/// O(n) postcondition check: `out` must be the exclusive scan of
/// `input` under `kind`.
fn verifies(kind: ScanKind, input: &[u64], out: &[u64]) -> bool {
    match kind {
        ScanKind::Sum => verify_scan::<Sum, u64>(input, out),
        ScanKind::Max => verify_scan::<Max, u64>(input, out),
    }
    .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A fast config for single-submitter tests: zero window so a lone
    /// submitter leads immediately.
    fn quick() -> ServiceConfig {
        ServiceConfig {
            window: Duration::ZERO,
            close_target: 1,
            backoff_base: Duration::ZERO,
            backoff_jitter: Duration::ZERO,
            ..ServiceConfig::default()
        }
    }

    fn plus(v: &[u64]) -> ScanRequest {
        ScanRequest::new(TenantId(1), RequestOp::PlusScan(v.to_vec()))
    }

    #[test]
    fn single_submitter_ops_match_references() {
        let svc = ScanService::new(quick());
        assert_eq!(
            svc.submit(plus(&[3, 1, 4, 1, 5])).unwrap(),
            scan_core::scan::<scan_core::Sum, u64>(&[3, 1, 4, 1, 5])
        );
        assert_eq!(
            svc.submit(ScanRequest::new(
                TenantId(1),
                RequestOp::MaxScan(vec![2, 9, 4, 7])
            ))
            .unwrap(),
            scan_core::scan::<scan_core::Max, u64>(&[2, 9, 4, 7])
        );
        assert_eq!(
            svc.submit(ScanRequest::new(
                TenantId(2),
                RequestOp::Enumerate(vec![true, false, true, true])
            ))
            .unwrap(),
            vec![0, 1, 1, 2]
        );
        assert_eq!(
            svc.submit(ScanRequest::new(
                TenantId(2),
                RequestOp::Pack {
                    values: vec![10, 20, 30, 40],
                    keep: vec![true, false, false, true],
                }
            ))
            .unwrap(),
            vec![10, 40]
        );
        let h = svc.health();
        assert_eq!(h.submitted, 4);
        assert_eq!(h.completed, 4);
        assert!(h.is_drained());
    }

    #[test]
    fn empty_payload_fast_path() {
        let svc = ScanService::new(quick());
        assert_eq!(svc.submit(plus(&[])).unwrap(), Vec::<u64>::new());
        let h = svc.health();
        assert_eq!((h.submitted, h.completed, h.batches), (1, 1, 0));
    }

    #[test]
    fn admission_control_sheds_with_typed_error() {
        let cfg = ServiceConfig {
            max_queue_depth: 0,
            ..quick()
        };
        let svc = ScanService::new(cfg);
        let err = svc.submit(plus(&[1, 2, 3])).unwrap_err();
        assert!(matches!(err, ServiceError::Overloaded { depth: 0, .. }));
        let h = svc.health();
        assert_eq!(h.shed, 1);
        assert_eq!(h.submitted, 0);
        assert_eq!(h.tenants.get(&TenantId(1)).unwrap().shed, 1);
    }

    #[test]
    fn oversized_request_rejected() {
        let cfg = ServiceConfig {
            max_request_len: 4,
            ..quick()
        };
        let svc = ScanService::new(cfg);
        assert!(matches!(
            svc.submit(plus(&[0; 5])).unwrap_err(),
            ServiceError::RequestTooLarge { len: 5, max: 4 }
        ));
    }

    #[test]
    fn dead_on_arrival_deadline_rejects_without_executing() {
        let svc = ScanService::new(quick());
        let d = ScanDeadline::manual();
        d.cancel();
        let err = svc.submit(plus(&[1, 2, 3]).with_deadline(d)).unwrap_err();
        assert_eq!(err, ServiceError::Exec(ExecError::Cancelled));
        let h = svc.health();
        assert_eq!(h.expired_in_queue, 1);
        assert_eq!(h.failed, 1);
        assert!(h.is_drained());
        // The dead entry's husk must not pollute live depth.
        assert_eq!(h.queue_depth, 0);
    }

    /// Backend whose segmented path fails `fail_next` times with a
    /// contained worker panic, while the solo path stays honest.
    struct FlakySeg {
        fail_next: AtomicU32,
        inner: PoolBackend,
    }

    impl FlakySeg {
        fn failing(n: u32) -> Self {
            FlakySeg {
                fail_next: AtomicU32::new(n),
                inner: PoolBackend,
            }
        }
    }

    impl BatchBackend for FlakySeg {
        fn seg_scan(
            &self,
            kind: ScanKind,
            values: &[u64],
            segs: &Segments,
            deadline: Option<&ScanDeadline>,
        ) -> scan_core::Result<Vec<u64>> {
            let left = self.fail_next.load(Ordering::Relaxed);
            if left > 0 {
                self.fail_next.store(left - 1, Ordering::Relaxed);
                return Err(scan_core::Error::Exec(ExecError::WorkerLost { panics: 1 }));
            }
            self.inner.seg_scan(kind, values, segs, deadline)
        }

        fn scan_one(
            &self,
            kind: ScanKind,
            values: &[u64],
            deadline: Option<&ScanDeadline>,
        ) -> scan_core::Result<Vec<u64>> {
            self.inner.scan_one(kind, values, deadline)
        }
    }

    #[test]
    fn worker_panic_retries_then_succeeds() {
        let cfg = ServiceConfig {
            batch_retries: 2,
            ..quick()
        };
        let svc = ScanService::with_backend(cfg, FlakySeg::failing(2));
        assert_eq!(svc.submit(plus(&[1, 2, 3])).unwrap(), vec![0, 1, 3]);
        let h = svc.health();
        assert_eq!(h.backend_health.batches_retried, 1);
        assert_eq!(h.backend_health.consecutive_failures, 0);
        assert_eq!(h.completed, 1);
    }

    #[test]
    fn breaker_opens_degrades_probes_and_heals() {
        let cfg = ServiceConfig {
            batch_retries: 0,
            failure_threshold: 2,
            base_quarantine: 2,
            max_quarantine: 8,
            ..quick()
        };
        // Enough seg failures to trip the breaker and fail one probe.
        let svc = ScanService::with_backend(cfg, FlakySeg::failing(3));

        // Dispatches 0 and 1: coalesced attempts fail, solo fallback
        // still answers correctly; failure 2 opens the breaker.
        for _ in 0..2 {
            assert_eq!(svc.submit(plus(&[5, 6])).unwrap(), vec![0, 5]);
        }
        let h = svc.health();
        assert!(matches!(
            h.backend_health.mode,
            ServiceMode::Degraded { .. }
        ));
        assert_eq!(h.backend_health.times_degraded, 1);
        assert_eq!(h.backend_health.consecutive_failures, 2);

        // Dispatches 2 and 3 run inside the quarantine: pure solo, no
        // coalesced attempt.
        let batches_before = svc.health().batches;
        for _ in 0..2 {
            assert_eq!(svc.submit(plus(&[5, 6])).unwrap(), vec![0, 5]);
        }
        assert_eq!(svc.health().batches, batches_before);

        // Dispatch 4 is the probe; the third injected failure makes it
        // fail, doubling the quarantine.
        assert_eq!(svc.submit(plus(&[5, 6])).unwrap(), vec![0, 5]);
        let h = svc.health();
        assert_eq!(h.backend_health.quarantine, 4);
        assert!(matches!(
            h.backend_health.mode,
            ServiceMode::Degraded { .. }
        ));

        // Ride out the doubled quarantine; the next probe succeeds and
        // the breaker closes with state reset.
        for _ in 0..4 {
            svc.submit(plus(&[5, 6])).unwrap();
        }
        assert_eq!(svc.submit(plus(&[7])).unwrap(), vec![0]);
        let h = svc.health();
        assert_eq!(h.backend_health.mode, ServiceMode::Coalescing);
        assert_eq!(h.backend_health.consecutive_failures, 0);
        assert_eq!(h.backend_health.quarantine, 2);
        // Every request was answered despite the storm.
        assert!(h.is_drained());
        assert_eq!(h.failed, 0);
    }

    /// Backend that lies: right-length output, wrong values.
    struct Liar;

    impl BatchBackend for Liar {
        fn seg_scan(
            &self,
            _kind: ScanKind,
            values: &[u64],
            _segs: &Segments,
            _deadline: Option<&ScanDeadline>,
        ) -> scan_core::Result<Vec<u64>> {
            Ok(vec![u64::MAX; values.len()])
        }

        fn scan_one(
            &self,
            _kind: ScanKind,
            values: &[u64],
            _deadline: Option<&ScanDeadline>,
        ) -> scan_core::Result<Vec<u64>> {
            Ok(vec![u64::MAX; values.len()])
        }
    }

    #[test]
    fn lying_backend_is_caught_not_delivered() {
        let cfg = ServiceConfig {
            batch_retries: 0,
            ..quick()
        };
        let svc = ScanService::with_backend(cfg, Liar);
        let err = svc.submit(plus(&[1, 2, 3])).unwrap_err();
        // One corruption on the coalesced path, one on the solo retry.
        assert_eq!(err, ServiceError::Corrupted { attempts: 2 });
        let h = svc.health();
        assert_eq!(h.failed, 1);
        assert!(h.backend_health.consecutive_failures >= 1);
        assert!(h.is_drained());
    }

    #[test]
    fn uncoalesced_config_runs_one_request_one_kernel() {
        let svc = ScanService::new(ServiceConfig {
            backoff_base: Duration::ZERO,
            backoff_jitter: Duration::ZERO,
            ..ServiceConfig::uncoalesced()
        });
        assert_eq!(svc.submit(plus(&[4, 4])).unwrap(), vec![0, 4]);
        let h = svc.health();
        assert_eq!(h.solo_requests, 1);
        assert_eq!(h.batches, 0);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let svc = ScanService::new(quick());
        let a = svc.backoff(7, 1, ScanKind::Sum);
        let b = svc.backoff(7, 1, ScanKind::Sum);
        assert_eq!(a, b);
        // Different dispatch → (almost surely) different jitter, but
        // always within base·2^(k−1) + jitter bound.
        let cfg = ServiceConfig::default();
        for d in 0..20u64 {
            for attempt in 1..=3u32 {
                let got = svc_backoff(&cfg, d, attempt);
                let cap = cfg.backoff_base * (1 << (attempt - 1)) + cfg.backoff_jitter;
                assert!(got <= cap, "backoff {got:?} above cap {cap:?}");
            }
        }
    }

    fn svc_backoff(cfg: &ServiceConfig, dispatch: u64, attempt: u32) -> Duration {
        let svc = ScanService::new(cfg.clone());
        svc.backoff(dispatch, attempt, ScanKind::Sum)
    }

    /// Exact-value pin: the shared `scan_core::backoff` module must
    /// reproduce the formula this file carried inline before the
    /// extraction, nanosecond for nanosecond.
    #[test]
    fn backoff_matches_the_legacy_inline_formula_exactly() {
        fn legacy_mix(mut z: u64) -> u64 {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn legacy(cfg: &ServiceConfig, dispatch: u64, attempt: u32, kind: ScanKind) -> Duration {
            let exp = cfg
                .backoff_base
                .saturating_mul(1u32 << (attempt - 1).min(10));
            let jitter_ns = cfg.backoff_jitter.as_nanos() as u64;
            if jitter_ns == 0 {
                return exp;
            }
            let stream = cfg
                .jitter_seed
                .wrapping_add(dispatch.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .wrapping_add(u64::from(attempt) << 1)
                .wrapping_add(matches!(kind, ScanKind::Max) as u64);
            exp + Duration::from_nanos(legacy_mix(stream) % jitter_ns)
        }
        let cfg = ServiceConfig::default();
        let svc = ScanService::new(cfg.clone());
        for dispatch in [0u64, 1, 7, 4096] {
            for attempt in 1..=4u32 {
                for kind in [ScanKind::Sum, ScanKind::Max] {
                    assert_eq!(
                        svc.backoff(dispatch, attempt, kind),
                        legacy(&cfg, dispatch, attempt, kind)
                    );
                }
            }
        }
        // The zero-jitter early return too.
        let cfg = quick();
        let svc = ScanService::new(cfg.clone());
        assert_eq!(
            svc.backoff(3, 2, ScanKind::Sum),
            legacy(&cfg, 3, 2, ScanKind::Sum)
        );
    }
}
