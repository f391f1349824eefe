//! The sharded scan executor.
//!
//! A scan is split into contiguous ranges, one per admitted shard
//! (each shard being an independent supervisor thread running a
//! sequential [`scan_core::Scan`] over its range, `crate::pool`), and runs in
//! two rounds mirroring the paper's two-pass schedule lifted one level
//! up:
//!
//! 1. **Reduce**: every shard folds its range to a total.
//! 2. **Combine**: the executor tree-combines the totals into
//!    per-shard carries ([`crate::combine`]).
//! 3. **Scan**: every shard produces the exclusive scan of its range
//!    seeded with its carry.
//! 4. **Assemble**: one parallel pass on scan-core's global pool, one
//!    task per range, copies each piece into the output while checking
//!    every element of it and folding the range's true total; a k-step
//!    pass then checks each range against its true carry and
//!    recomputes any range that fails (`crate::assemble`).
//!
//! Around that schedule sits the robustness machinery:
//!
//! - **Loss detection** — a shard is lost for a run when it reports a
//!   contained worker panic, misses the watchdog window, closes its
//!   channel (dead supervisor), or returns a total or a piece that the
//!   assembly pass finds wrong (a *lying* shard).
//! - **Recovery ladder** — lost ranges are re-executed on surviving
//!   shards with seeded, capped backoff between attempts
//!   ([`scan_core::backoff`]); if every survivor fails too, the
//!   executor computes the range inline (trusted, always succeeds).
//! - **Quarantine** — each shard has a [`scan_fault::Breaker`] on the
//!   executor's run clock: repeated losses open it, after which the
//!   shard is skipped until its quarantine elapses and a single probe
//!   run decides readmission.
//! - **Degradation** — when fewer than `min_live` shards are
//!   admitted, the run degrades to the ordinary single-pool
//!   `scan-core` kernels (or fails typed, under
//!   [`RecoveryPolicy::Fail`]).
//!
//! Determinism: given a fixed [`ChaosPlan`] and config, the whole
//! failure/recovery schedule is reproducible — jobs are numbered in
//! issue order on one counter, and every jitter draw is seeded.

use std::ops::Range;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

use scan_core::backoff::Backoff;
use scan_core::segmented::seg_combine;
use scan_core::{ExecError, Max, Scan, ScanDeadline, ScanKind, ScanOp, Sum};
use scan_fault::{Breaker, BreakerConfig, ChaosEvent, ChaosPlan, Gate};

use crate::assemble::assemble;
use crate::combine::{compute, exclusive_combine, range_scan, range_total};
use crate::error::{LossCause, ShardError};
use crate::health::{ShardHealth, ShardStatus};
use crate::pool::{Job, Output, Phase, Reply, Shard};

/// Lock a mutex, ignoring poisoning.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Producer index meaning "computed inline by the executor".
const INLINE: usize = usize::MAX;

/// What the executor does when a shard is lost mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Re-execute lost ranges on survivors (then inline); degrade to
    /// the single-pool kernels when too few shards are live. Runs
    /// return correct results whenever any compute path remains.
    Recover,
    /// Surface the first loss as a typed [`ShardError::ShardLost`]
    /// (or [`ShardError::Degraded`]) instead of recovering — for
    /// callers that own their own retry policy.
    Fail,
}

/// Tuning knobs for [`ShardedExecutor`].
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Number of shards (independent supervisor threads).
    pub shards: usize,
    /// How long the executor waits for one job's reply before
    /// declaring the shard lost for the run.
    pub watchdog: Duration,
    /// Re-execution attempts per lost range before falling back to
    /// the inline (trusted) compute path.
    pub reexec_retries: u32,
    /// Backoff between re-execution attempts (seeded jitter; see
    /// [`scan_core::backoff`]).
    pub backoff: Backoff,
    /// Per-shard circuit-breaker tuning, on the executor's run clock.
    pub breaker: BreakerConfig,
    /// Minimum admitted shards required to run sharded; below this the
    /// run degrades (or fails, under [`RecoveryPolicy::Fail`]).
    pub min_live: usize,
    /// Loss handling policy.
    pub policy: RecoveryPolicy,
    /// Deterministic fault schedule delivered to shard jobs
    /// ([`ChaosPlan::shard_event_for`]); `None` when quiet.
    pub chaos: Option<ChaosPlan>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 2,
            watchdog: Duration::from_secs(5),
            reexec_retries: 3,
            backoff: Backoff {
                base: Duration::from_micros(50),
                jitter: Duration::from_micros(50),
                seed: 0x5aad_c0de_0b57_ac1e,
            },
            breaker: BreakerConfig::default(),
            min_live: 1,
            policy: RecoveryPolicy::Recover,
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
        let mut admitted = vec![false; nshards];
        let mut live = Vec::new();
        for i in 0..nshards {
            if !inner.shards[i].alive() {
                continue;
            }
            match inner.breakers[i].gate(clock) {
                Gate::Full => {
                    admitted[i] = true;
                    live.push(i);
                }
                Gate::Probe => {
                    probing[i] = true;
                    admitted[i] = true;
                    live.push(i);
                }
                Gate::Skip => {}
            }
        }
        let need = inner.cfg.min_live.max(1);
        let head_flags = heads.as_deref().map(Vec::as_slice);
        let identity = (O::identity(), false);
        if live.len() < need {
            inner.degraded_runs += 1;
            if matches!(inner.cfg.policy, RecoveryPolicy::Fail) {
                return Err(ShardError::Degraded {
                    live: live.len(),
                    need,
                });
            }
            // Single-pool degradation: the whole input as one range on
            // the ordinary scan-core schedule.
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
        let workers: Vec<usize> = live[..k].to_vec();
        let mut healthy = vec![true; nshards];

        // Round 1: reduce every range to its pair total.
        let r1 = run_phase::<O>(
            inner,
            kind,
            data,
            &heads,
            &deadline,
            &ranges,
            &workers,
            &admitted,
            &probing,
            &mut healthy,
            clock,
            None,
        )?;
        let mut totals = Vec::with_capacity(k);
        let mut producers1 = Vec::with_capacity(k);
        for (slot, (out, producer)) in r1.into_iter().enumerate() {
            let t = match out {
                Output::Total(t) => t,
                // Defensive: a phase mismatch is recomputed inline.
                Output::Scanned(_) => {
                    inner.inline_rescues += 1;
                    range_total::<O>(data, head_flags, ranges[slot].clone(), None)?
                }
            };
            totals.push(t);
            producers1.push(producer);
        }
        if let Some(d) = &deadline {
            d.check().map_err(ShardError::from)?;
        }

        // Combine: per-shard carries by exclusive tree scan.
        let carries = exclusive_combine(&totals, identity, seg_combine::<O, u64>);

        // Round 2: each range's exclusive scan, seeded with its carry.
        let r2 = run_phase::<O>(
            inner,
            kind,
            data,
            &heads,
            &deadline,
            &ranges,
            &workers,
            &admitted,
            &probing,
            &mut healthy,
            clock,
            Some(&carries),
        )?;
        let mut pieces = Vec::with_capacity(k);
        let mut producers2 = Vec::with_capacity(k);
        for (slot, (piece, producer)) in r2.into_iter().enumerate() {
            let range = ranges[slot].clone();
            match piece {
                Output::Scanned(v) if v.len() == range.len() => {
                    pieces.push(v);
                    producers2.push(producer);
                }
                // A wrong-length or wrong-phase result is a lie in
                // shape rather than value: recompute inline, let the
                // assembly check below settle attribution.
                _ => {
                    inner.inline_rescues += 1;
                    pieces.push(range_scan::<O>(
                        data,
                        head_flags,
                        range,
                        carries[slot],
                        None,
                    )?);
                    producers2.push(INLINE);
                }
            }
        }

        // Assemble and verify in one parallel pass (`crate::assemble`),
        // then attribute lies in range order.
        let (out, verdicts) = assemble::<O>(data, head_flags, &ranges, pieces, &totals, &carries)?;
        for (slot, v) in verdicts.into_iter().enumerate() {
            if v.rescued {
                inner.inline_rescues += 1;
            }
            if v.total_lied {
                blame(inner, &mut healthy, producers1[slot], &probing, clock)?;
            }
            if v.piece_lied {
                blame(inner, &mut healthy, producers2[slot], &probing, clock)?;
            }
        }

        // Close the loop on the breakers: every shard that worked this
        // run without a loss or lie is a verified success (this is
        // also how a probing shard gets readmitted).
        for &s in &workers {
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
#[allow(clippy::too_many_arguments)]
fn issue(
    inner: &mut Inner,
    kind: ScanKind,
    data: &Arc<Vec<u64>>,
    heads: &Option<Arc<Vec<bool>>>,
    deadline: &Option<ScanDeadline>,
    range: Range<usize>,
    phase: Phase,
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
        phase,
        inject,
        deadline: deadline.clone(),
        reply: tx,
    };
    if inner.shards[shard].send(job) {
        Some(rx)
    } else {
        None
    }
}

/// Record one shard loss: this-run health, lifetime stats, breaker
/// failure. Under [`RecoveryPolicy::Fail`] the loss is surfaced as a
/// typed error.
fn lose(
    inner: &mut Inner,
    healthy: &mut [bool],
    shard: usize,
    cause: LossCause,
    probing: &[bool],
    clock: u64,
) -> Result<(), ShardError> {
    healthy[shard] = false;
    inner.losses += 1;
    match cause {
        LossCause::Panic => inner.stats[shard].panics += 1,
        LossCause::Watchdog => inner.stats[shard].watchdog += 1,
        LossCause::Lied => inner.stats[shard].lies += 1,
        LossCause::Disconnected => inner.stats[shard].disconnects += 1,
    }
    inner.breakers[shard].failure(&inner.cfg.breaker, shard as u64, clock, probing[shard]);
    if matches!(inner.cfg.policy, RecoveryPolicy::Fail) {
        return Err(ShardError::ShardLost { shard, cause });
    }
    Ok(())
}

/// Attribute a verification failure to `producer` (no-op for
/// inline-computed ranges, which cannot lie).
fn blame(
    inner: &mut Inner,
    healthy: &mut [bool],
    producer: usize,
    probing: &[bool],
    clock: u64,
) -> Result<(), ShardError> {
    if producer == INLINE {
        return Ok(());
    }
    lose(inner, healthy, producer, LossCause::Lied, probing, clock)
}

/// Run one phase (reduce, or scan when `carries` is given) across the
/// worker shards, with watchdog collection and the recovery ladder.
/// Returns each slot's output and its producer shard (or [`INLINE`]).
#[allow(clippy::too_many_arguments)]
fn run_phase<O: ScanOp<u64>>(
    inner: &mut Inner,
    kind: ScanKind,
    data: &Arc<Vec<u64>>,
    heads: &Option<Arc<Vec<bool>>>,
    deadline: &Option<ScanDeadline>,
    ranges: &[Range<usize>],
    workers: &[usize],
    admitted: &[bool],
    probing: &[bool],
    healthy: &mut [bool],
    clock: u64,
    carries: Option<&[(u64, bool)]>,
) -> Result<Vec<(Output, usize)>, ShardError> {
    let phase_for = |slot: usize| match carries {
        None => Phase::Reduce,
        Some(c) => Phase::Scan { carry: c[slot] },
    };
    let salt = u64::from(carries.is_some());
    let mut outputs: Vec<Option<(Output, usize)>> = (0..ranges.len()).map(|_| None).collect();
    let mut pending = Vec::new();
    let mut to_recover = Vec::new();

    // Issue every slot's job to its assigned shard.
    for (slot, range) in ranges.iter().enumerate() {
        let s = workers[slot];
        if !healthy[s] || !inner.shards[s].alive() {
            // Lost in an earlier phase: route straight to recovery
            // (the loss was already recorded).
            to_recover.push(slot);
            continue;
        }
        match issue(
            inner,
            kind,
            data,
            heads,
            deadline,
            range.clone(),
            phase_for(slot),
            s,
        ) {
            Some(rx) => pending.push((slot, s, rx)),
            None => {
                lose(inner, healthy, s, LossCause::Disconnected, probing, clock)?;
                to_recover.push(slot);
            }
        }
    }

    // Collect under the watchdog.
    for (slot, s, rx) in pending {
        match rx.recv_timeout(inner.cfg.watchdog) {
            Ok(Reply {
                result: Ok(out), ..
            }) => {
                inner.stats[s].served += 1;
                outputs[slot] = Some((out, s));
            }
            Ok(Reply {
                result: Err(ExecError::WorkerLost { .. }),
                ..
            }) => {
                lose(inner, healthy, s, LossCause::Panic, probing, clock)?;
                to_recover.push(slot);
            }
            // The caller's deadline tripped inside the shard: the
            // whole run is over, not just this shard.
            Ok(Reply { result: Err(e), .. }) => return Err(ShardError::Exec(e)),
            Err(RecvTimeoutError::Timeout) => {
                lose(inner, healthy, s, LossCause::Watchdog, probing, clock)?;
                to_recover.push(slot);
            }
            Err(RecvTimeoutError::Disconnected) => {
                inner.shards[s].kill();
                lose(inner, healthy, s, LossCause::Disconnected, probing, clock)?;
                to_recover.push(slot);
            }
        }
    }

    // Recovery ladder: survivors with backoff, then inline.
    for slot in to_recover {
        let range = ranges[slot].clone();
        let mut recovered = None;
        for attempt in 1..=inner.cfg.reexec_retries {
            let survivors: Vec<usize> = (0..inner.shards.len())
                .filter(|&s| admitted[s] && healthy[s] && inner.shards[s].alive())
                .collect();
            if survivors.is_empty() {
                break;
            }
            let s = survivors[(slot + attempt as usize) % survivors.len()];
            thread::sleep(inner.cfg.backoff.delay(slot as u64, attempt, salt));
            let Some(rx) = issue(
                inner,
                kind,
                data,
                heads,
                deadline,
                range.clone(),
                phase_for(slot),
                s,
            ) else {
                lose(inner, healthy, s, LossCause::Disconnected, probing, clock)?;
                continue;
            };
            match rx.recv_timeout(inner.cfg.watchdog) {
                Ok(Reply {
                    result: Ok(out), ..
                }) => {
                    inner.stats[s].served += 1;
                    inner.recoveries += 1;
                    recovered = Some((out, s));
                    break;
                }
                Ok(Reply {
                    result: Err(ExecError::WorkerLost { .. }),
                    ..
                }) => lose(inner, healthy, s, LossCause::Panic, probing, clock)?,
                Ok(Reply { result: Err(e), .. }) => return Err(ShardError::Exec(e)),
                Err(RecvTimeoutError::Timeout) => {
                    lose(inner, healthy, s, LossCause::Watchdog, probing, clock)?;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    inner.shards[s].kill();
                    lose(inner, healthy, s, LossCause::Disconnected, probing, clock)?;
                }
            }
        }
        let produced = match recovered {
            Some(x) => x,
            None => rescue::<O>(inner, data, heads, range, phase_for(slot))?,
        };
        outputs[slot] = Some(produced);
    }

    let mut done = Vec::with_capacity(ranges.len());
    for (slot, o) in outputs.into_iter().enumerate() {
        match o {
            Some(x) => done.push(x),
            // Defensive: never reached, but the phase must stay total.
            None => done.push(rescue::<O>(
                inner,
                data,
                heads,
                ranges[slot].clone(),
                phase_for(slot),
            )?),
        }
    }
    Ok(done)
}

/// The trusted bottom rung of the recovery ladder: compute the slot on
/// the executor's own thread, with the kernels a shard job runs.
fn rescue<O: ScanOp<u64>>(
    inner: &mut Inner,
    data: &[u64],
    heads: &Option<Arc<Vec<bool>>>,
    range: Range<usize>,
    phase: Phase,
) -> Result<(Output, usize), ShardError> {
    inner.inline_rescues += 1;
    let heads = heads.as_deref().map(Vec::as_slice);
    Ok((compute::<O>(data, heads, range, phase, None)?, INLINE))
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
