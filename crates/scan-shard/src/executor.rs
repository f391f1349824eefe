//! The sharded scan executor.
//!
//! A scan is split into contiguous ranges, one per admitted shard
//! (each shard being an independent supervisor thread running a
//! sequential [`scan_core::Scan`] over its range, `crate::pool`), and
//! runs in one round, the paper's block decomposition lifted one level
//! up:
//!
//! 1. **Scan**: every shard scans its range from the identity and
//!    sends back the resulting *piece*.
//! 2. **Assemble**: one parallel pass on scan-core's global pool, one
//!    task per range, applies each range's carry while it checks every
//!    element of its piece and folds the range's true total. The
//!    carries come from the totals the pieces claim, tree-combined
//!    ([`crate::combine`]); a k-step pass then recomputes any range
//!    whose piece failed from its true carry, and applies the true
//!    carry again to a range whose claimed carry was wrong
//!    (`crate::assemble`).
//!
//! Around that schedule sits the robustness machinery:
//!
//! - **Loss detection** — a shard is lost for a run when it reports a
//!   contained worker panic, misses the watchdog window, closes its
//!   channel (dead supervisor), or returns a piece that the assembly
//!   pass finds wrong (a *lying* shard).
//! - **Recovery** — the executor recomputes every lost range itself,
//!   with the sequential range kernel a shard job runs; it never fails
//!   and is counted in [`ShardHealth::recoveries`].
//! - **Quarantine** — each shard has a [`scan_fault::Breaker`] on the
//!   executor's run clock: repeated losses open it, after which the
//!   shard is skipped until its quarantine elapses and a single probe
//!   run decides readmission.
//! - **Degradation** — when no shard is admitted, the run degrades to
//!   the ordinary single-pool `scan-core` kernels.
//!
//! Determinism: given a fixed [`ChaosPlan`] and config, the whole
//! failure/recovery schedule is reproducible — jobs are numbered in
//! issue order on one counter, one job per range per run, and every
//! quarantine ends at exactly `clock + backoff` on the executor's run
//! clock.

use std::ops::Range;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use scan_core::{ExecError, Max, Scan, ScanDeadline, ScanKind, ScanOp, Sum};
use scan_fault::{Breaker, BreakerConfig, ChaosEvent, ChaosPlan, Gate};

use crate::assemble::assemble;
use crate::combine::piece;
use crate::error::ShardError;
use crate::health::{ShardHealth, ShardStatus};
use crate::pool::{Job, Reply, Shard};

/// Lock a mutex, ignoring poisoning.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Producer index meaning "computed inline by the executor".
const INLINE: usize = usize::MAX;

/// Why a shard was declared lost for (part of) a run; each cause has
/// its own per-shard counter in [`ShardStatus`].
#[derive(Debug, Clone, Copy)]
enum LossCause {
    /// The shard's kernel contained a panic and the job reported
    /// [`ExecError::WorkerLost`]; the shard itself is still alive.
    Panic,
    /// No reply within the watchdog window; a late reply is discarded.
    Watchdog,
    /// A piece failed the assembly pass's check, or came back with the
    /// wrong length.
    Lied,
    /// The supervisor thread is gone: the shard is dead for good.
    Disconnected,
}

/// Tuning knobs for [`ShardedExecutor`].
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Number of shards (independent supervisor threads).
    pub shards: usize,
    /// How long the executor waits for one job's reply before
    /// declaring the shard lost for the run.
    pub watchdog: Duration,
    /// Per-shard circuit-breaker tuning, on the executor's run clock.
    pub breaker: BreakerConfig,
    /// Deterministic fault schedule delivered to shard jobs
    /// ([`ChaosPlan::shard_event_for`]); `None` when quiet.
    pub chaos: Option<ChaosPlan>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 2,
            watchdog: Duration::from_secs(5),
            breaker: BreakerConfig::default(),
            chaos: None,
        }
    }
}

/// Per-shard lifetime counters (losses by cause, successes).
#[derive(Debug, Default, Clone, Copy)]
struct ShardStats {
    served: u64,
    panics: u64,
    watchdog: u64,
    lies: u64,
    disconnects: u64,
}

/// Everything mutable, serialized under one lock: runs are one at a
/// time (like a pool submission), which also keeps the chaos job
/// numbering deterministic.
struct Inner {
    cfg: ShardConfig,
    shards: Vec<Shard>,
    breakers: Vec<Breaker>,
    stats: Vec<ShardStats>,
    clock: u64,
    jobs: u64,
    runs: u64,
    degraded_runs: u64,
    losses: u64,
    recoveries: u64,
    inline_rescues: u64,
}

/// Sharded scan executor: see the module docs for the model.
pub struct ShardedExecutor {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for ShardedExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = lock(&self.inner);
        f.debug_struct("ShardedExecutor")
            .field("shards", &inner.shards.len())
            .field("runs", &inner.runs)
            .finish()
    }
}

impl ShardedExecutor {
    /// Build the executor and spawn its shards.
    pub fn new(cfg: ShardConfig) -> Self {
        let n = cfg.shards.max(1);
        let shards = (0..n).map(Shard::spawn).collect();
        ShardedExecutor {
            inner: Mutex::new(Inner {
                cfg,
                shards,
                breakers: vec![Breaker::new(); n],
                stats: vec![ShardStats::default(); n],
                clock: 0,
                jobs: 0,
                runs: 0,
                degraded_runs: 0,
                losses: 0,
                recoveries: 0,
                inline_rescues: 0,
            }),
        }
    }

    /// Exclusive scan of `data` under `kind`. Copies the input into a
    /// shared buffer; use [`scan_arc`](Self::scan_arc) to avoid the
    /// copy on repeated runs over the same data.
    pub fn scan(&self, kind: ScanKind, data: &[u64]) -> Result<Vec<u64>, ShardError> {
        self.run(kind, &Arc::new(data.to_vec()), None)
    }

    /// Exclusive scan of shared data under `kind`.
    pub fn scan_arc(&self, kind: ScanKind, data: &Arc<Vec<u64>>) -> Result<Vec<u64>, ShardError> {
        self.run(kind, data, None)
    }

    /// Exclusive segmented scan: restarts at every true flag in
    /// `heads` (element 0 always begins a segment).
    pub fn seg_scan(
        &self,
        kind: ScanKind,
        values: &[u64],
        heads: &[bool],
    ) -> Result<Vec<u64>, ShardError> {
        if heads.len() != values.len() {
            return Err(ShardError::Invalid(scan_core::Error::LengthMismatch {
                expected: values.len(),
                actual: heads.len(),
            }));
        }
        self.run(
            kind,
            &Arc::new(values.to_vec()),
            Some(Arc::new(heads.to_vec())),
        )
    }

    /// Health snapshot: per-shard breaker state and loss counters plus
    /// executor-wide run/recovery counters.
    pub fn health(&self) -> ShardHealth {
        let inner = lock(&self.inner);
        ShardHealth {
            shards: (0..inner.shards.len())
                .map(|i| ShardStatus {
                    state: inner.breakers[i].state(),
                    alive: inner.shards[i].alive(),
                    served: inner.stats[i].served,
                    panics: inner.stats[i].panics,
                    watchdog_losses: inner.stats[i].watchdog,
                    lies: inner.stats[i].lies,
                    disconnects: inner.stats[i].disconnects,
                    quarantines: inner.breakers[i].quarantines(),
                    probes: inner.breakers[i].probes(),
                    skipped: inner.breakers[i].skipped(),
                })
                .collect(),
            runs: inner.runs,
            degraded_runs: inner.degraded_runs,
            losses: inner.losses,
            recoveries: inner.recoveries,
            inline_rescues: inner.inline_rescues,
        }
    }

    /// One full sharded run. The ambient [`scan_core::deadline`]
    /// scope, if any, bounds the whole run and is forwarded into every
    /// shard job.
    fn run(
        &self,
        kind: ScanKind,
        data: &Arc<Vec<u64>>,
        heads: Option<Arc<Vec<bool>>>,
    ) -> Result<Vec<u64>, ShardError> {
        match kind {
            ScanKind::Sum => self.run_as::<Sum>(kind, data, heads),
            ScanKind::Max => self.run_as::<Max>(kind, data, heads),
        }
    }

    /// [`run`](Self::run) with `kind`'s operator `O`, which the
    /// executor's own folds (combine, inline rescue, assembly) use.
    fn run_as<O: ScanOp<u64>>(
        &self,
        kind: ScanKind,
        data: &Arc<Vec<u64>>,
        heads: Option<Arc<Vec<bool>>>,
    ) -> Result<Vec<u64>, ShardError> {
        let deadline = scan_core::deadline::current();
        let mut guard = lock(&self.inner);
        let inner = &mut *guard;
        inner.runs += 1;
        inner.clock += 1;
        let clock = inner.clock;
        let n = data.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        if let Some(d) = &deadline {
            d.check().map_err(ShardError::from)?;
        }

        // Admission: breaker-gate every reachable shard.
        let nshards = inner.shards.len();
        let mut probing = vec![false; nshards];
        let mut live = Vec::new();
        for (i, probe) in probing.iter_mut().enumerate() {
            if !inner.shards[i].alive() {
                continue;
            }
            match inner.breakers[i].gate(clock) {
                Gate::Full => live.push(i),
                Gate::Probe => {
                    *probe = true;
                    live.push(i);
                }
                Gate::Skip => {}
            }
        }
        let head_flags = heads.as_deref().map(Vec::as_slice);
        let identity = (O::identity(), false);
        if live.is_empty() {
            // Single-pool degradation: the whole input as one range on
            // the ordinary scan-core schedule.
            inner.degraded_runs += 1;
            return Scan::op::<O, u64>()
                .heads(head_flags)
                .carry(identity)
                .deadline(deadline.as_ref())
                .try_run(data)
                .map(|(out, _)| out)
                .map_err(ShardError::from_core);
        }

        // Partition into one contiguous range per working shard.
        let k = live.len().min(n);
        let ranges = partition(n, k);
        let workers = &live[..k];
        let mut healthy = vec![true; nshards];

        // One round: every range's piece, its exclusive scan from the
        // identity.
        let (pieces, producers): (Vec<_>, Vec<_>) = scan_round::<O>(
            inner,
            kind,
            data,
            &heads,
            &deadline,
            &ranges,
            workers,
            &probing,
            &mut healthy,
            clock,
        )?
        .into_iter()
        .unzip();

        // Apply the carries and verify in one parallel pass
        // (`crate::assemble`); a wrong piece blames its producer.
        let (out, lied) = assemble::<O>(data, head_flags, &ranges, pieces)?;
        for (producer, lied) in producers.into_iter().zip(lied) {
            if lied {
                inner.inline_rescues += 1;
                blame(inner, &mut healthy, producer, &probing, clock);
            }
        }

        // Close the loop on the breakers: every shard that worked this
        // run without a loss or lie is a verified success (this is
        // also how a probing shard gets readmitted).
        for &s in workers {
            if healthy[s] {
                inner.breakers[s].success();
            }
        }
        Ok(out)
    }
}

/// Balanced contiguous partition of `0..n` into `k` non-empty ranges.
fn partition(n: usize, k: usize) -> Vec<Range<usize>> {
    let base = n / k;
    let extra = n % k;
    let mut start = 0;
    (0..k)
        .map(|i| {
            let len = base + usize::from(i < extra);
            let r = start..start + len;
            start += len;
            r
        })
        .collect()
}

/// Issue one job to `shard`, drawing its chaos event from the plan.
/// `None` means the shard is unreachable (send failed).
fn issue(
    inner: &mut Inner,
    kind: ScanKind,
    data: &Arc<Vec<u64>>,
    heads: &Option<Arc<Vec<bool>>>,
    deadline: &Option<ScanDeadline>,
    range: Range<usize>,
    shard: usize,
) -> Option<mpsc::Receiver<Reply>> {
    inner.jobs += 1;
    let inject = inner
        .cfg
        .chaos
        .map_or(ChaosEvent::None, |p| p.shard_event_for(inner.jobs));
    let (tx, rx) = mpsc::channel();
    let job = Job {
        kind,
        data: Arc::clone(data),
        heads: heads.clone(),
        range,
        inject,
        deadline: deadline.clone(),
        reply: tx,
    };
    inner.shards[shard].send(job).then_some(rx)
}

/// Record one shard loss: this-run health, lifetime stats, breaker
/// failure.
fn lose(
    inner: &mut Inner,
    healthy: &mut [bool],
    shard: usize,
    cause: LossCause,
    probing: &[bool],
    clock: u64,
) {
    healthy[shard] = false;
    inner.losses += 1;
    match cause {
        LossCause::Panic => inner.stats[shard].panics += 1,
        LossCause::Watchdog => inner.stats[shard].watchdog += 1,
        LossCause::Lied => inner.stats[shard].lies += 1,
        LossCause::Disconnected => inner.stats[shard].disconnects += 1,
    }
    inner.breakers[shard].failure(&inner.cfg.breaker, clock, probing[shard]);
}

/// Attribute a verification failure to `producer` (no-op for
/// inline-computed ranges, which cannot lie).
fn blame(inner: &mut Inner, healthy: &mut [bool], producer: usize, probing: &[bool], clock: u64) {
    if producer != INLINE {
        lose(inner, healthy, producer, LossCause::Lied, probing, clock);
    }
}

/// Run the one round across the worker shards: one job per range, the
/// range's piece, collected under the watchdog. A range whose shard is
/// lost, or returns a piece of the wrong length, is recomputed inline
/// ([`rescue`]). Returns each range's piece and its producer shard (or
/// [`INLINE`]).
#[allow(clippy::too_many_arguments)]
fn scan_round<O: ScanOp<u64>>(
    inner: &mut Inner,
    kind: ScanKind,
    data: &Arc<Vec<u64>>,
    heads: &Option<Arc<Vec<bool>>>,
    deadline: &Option<ScanDeadline>,
    ranges: &[Range<usize>],
    workers: &[usize],
    probing: &[bool],
    healthy: &mut [bool],
    clock: u64,
) -> Result<Vec<(Vec<u64>, usize)>, ShardError> {
    // Issue every range's job to its shard; one whose send fails is
    // lost here.
    let mut pending = Vec::with_capacity(ranges.len());
    for (range, &s) in ranges.iter().zip(workers) {
        let rx = issue(inner, kind, data, heads, deadline, range.clone(), s);
        if rx.is_none() {
            lose(inner, healthy, s, LossCause::Disconnected, probing, clock);
        }
        pending.push(rx);
    }

    // Collect under the watchdog; every lost range is recomputed inline.
    let mut done = Vec::with_capacity(ranges.len());
    for ((rx, range), &s) in pending.into_iter().zip(ranges).zip(workers) {
        let cause = match rx.map(|rx| rx.recv_timeout(inner.cfg.watchdog)) {
            None => None,
            Some(Ok(Reply { result: Ok(piece) })) if piece.len() == range.len() => {
                inner.stats[s].served += 1;
                done.push((piece, s));
                continue;
            }
            // A piece of the wrong shape is a lie the assembly pass
            // cannot check.
            Some(Ok(Reply { result: Ok(_) })) => Some(LossCause::Lied),
            Some(Ok(Reply {
                result: Err(ExecError::WorkerLost { .. }),
            })) => Some(LossCause::Panic),
            // The caller's deadline tripped inside the shard: the
            // whole run is over, not just this shard.
            Some(Ok(Reply { result: Err(e) })) => return Err(ShardError::Exec(e)),
            Some(Err(RecvTimeoutError::Timeout)) => Some(LossCause::Watchdog),
            Some(Err(RecvTimeoutError::Disconnected)) => {
                inner.shards[s].kill();
                Some(LossCause::Disconnected)
            }
        };
        if let Some(cause) = cause {
            lose(inner, healthy, s, cause, probing, clock);
        }
        done.push(rescue::<O>(inner, data, heads, range.clone())?);
    }
    Ok(done)
}

/// Recover a lost range: compute its piece on the executor's own
/// thread, with the kernel a shard job runs.
fn rescue<O: ScanOp<u64>>(
    inner: &mut Inner,
    data: &[u64],
    heads: &Option<Arc<Vec<bool>>>,
    range: Range<usize>,
) -> Result<(Vec<u64>, usize), ShardError> {
    inner.recoveries += 1;
    inner.inline_rescues += 1;
    let heads = heads.as_deref().map(Vec::as_slice);
    Ok((piece::<O>(data, heads, range, None)?, INLINE))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_core::Segments;

    fn data(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 31 + 7) % 257).collect()
    }

    #[test]
    fn partition_is_balanced_and_total() {
        for n in [1usize, 2, 5, 17, 100] {
            for k in 1..=n.min(8) {
                let ranges = partition(n, k);
                assert_eq!(ranges.len(), k);
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges[k - 1].end, n);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                assert!(ranges.iter().all(|r| !r.is_empty()));
                let (lo, hi) = ranges.iter().fold((usize::MAX, 0), |(lo, hi), r| {
                    (lo.min(r.len()), hi.max(r.len()))
                });
                assert!(hi - lo <= 1, "n={n} k={k}: unbalanced {lo}..{hi}");
            }
        }
    }

    #[test]
    fn matches_single_pool_scan_without_chaos() {
        for shards in [1usize, 2, 3] {
            let ex = ShardedExecutor::new(ShardConfig {
                shards,
                ..ShardConfig::default()
            });
            for n in [0usize, 1, 2, 7, 1000] {
                let a = data(n);
                assert_eq!(
                    ex.scan(ScanKind::Sum, &a).unwrap(),
                    scan_core::scan::<Sum, _>(&a),
                    "sum, shards={shards}, n={n}"
                );
                assert_eq!(
                    ex.scan(ScanKind::Max, &a).unwrap(),
                    scan_core::scan::<Max, _>(&a),
                    "max, shards={shards}, n={n}"
                );
            }
            let h = ex.health();
            assert_eq!(h.losses, 0);
            assert_eq!(h.degraded_runs, 0);
            assert!(h.shards.iter().all(|s| s.alive));
        }
    }

    #[test]
    fn segmented_matches_single_pool() {
        let ex = ShardedExecutor::new(ShardConfig {
            shards: 3,
            ..ShardConfig::default()
        });
        let a = data(500);
        let heads: Vec<bool> = (0..500).map(|i| i % 37 == 5).collect();
        let segs = Segments::from_flags(heads.clone());
        assert_eq!(
            ex.seg_scan(ScanKind::Sum, &a, &heads).unwrap(),
            scan_core::seg_scan::<Sum, u64>(&a, &segs)
        );
        assert_eq!(
            ex.seg_scan(ScanKind::Max, &a, &heads).unwrap(),
            scan_core::seg_scan::<Max, u64>(&a, &segs)
        );
    }

    #[test]
    fn head_length_mismatch_is_typed() {
        let ex = ShardedExecutor::new(ShardConfig::default());
        assert!(matches!(
            ex.seg_scan(ScanKind::Sum, &[1, 2, 3], &[true]),
            Err(ShardError::Invalid(scan_core::Error::LengthMismatch {
                expected: 3,
                actual: 1,
            }))
        ));
    }

    #[test]
    fn cancelled_deadline_aborts_typed() {
        let ex = ShardedExecutor::new(ShardConfig::default());
        let d = ScanDeadline::manual();
        d.cancel();
        let a = data(100);
        let got = scan_core::deadline::with_deadline(&d, || ex.scan(ScanKind::Sum, &a));
        assert_eq!(got, Err(ShardError::Exec(ExecError::Cancelled)));
    }
}
