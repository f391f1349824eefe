//! A lazily-initialized persistent worker pool for the scan engine.
//!
//! The seed engine spawned fresh scoped OS threads on *every* scan call
//! (two `thread::scope` rounds per scan). That per-call setup cost is
//! exactly what the paper's "scans are unit-time primitives" thesis says
//! should not exist, so this module replaces it with one process-wide
//! pool: [`global()`] builds `available_parallelism()` workers on first
//! use (override with the `SCAN_CORE_THREADS` environment variable) and
//! every subsequent scan only has to wake them.
//!
//! Design notes:
//!
//! - **Dependency-free**: a `Mutex`/`Condvar` gate broadcasts one job at
//!   a time to the workers; tasks inside a job are claimed with a single
//!   `fetch_add` each, so block-level load balancing is lock-free.
//! - **The submitter participates**: a pool of `k` threads keeps `k - 1`
//!   parked workers, and the thread calling [`WorkerPool::run`] executes
//!   tasks alongside them. A job therefore always completes even if no
//!   worker ever wakes.
//! - **Clean sequential fallback**: a pool of size 1 spawns no threads
//!   at all and `run` degrades to a plain loop; the same happens for a
//!   contended or re-entrant submission, which also makes nested `run`
//!   calls deadlock-free by construction.
//! - **Panic transparency**: a panicking task is caught on the worker,
//!   carried to the submitter, and resumed there — same observable
//!   behavior as the scoped-spawn engine it replaces. The fallible
//!   [`WorkerPool::try_run`] entry point instead *contains* the panic
//!   and reports a typed [`ExecError::WorkerLost`], so callers opting
//!   into the resilient API never see a replayed payload.
//! - **Worker supervision**: a worker thread that somehow unwinds out
//!   of its loop (tasks are caught individually, but e.g. a panic
//!   payload whose own `Drop` panics can escape) is replaced by a
//!   freshly spawned worker, observable via
//!   [`WorkerPool::respawns`]. The pool never shrinks below its
//!   configured width because of a panic.
//! - **Deadlines are cooperative**: [`WorkerPool::try_run`] accepts an
//!   optional [`ScanDeadline`]; workers re-check it before every task
//!   claim and a submitter-side watchdog latches expiry while waiting,
//!   after which unstarted tasks are drained unexecuted. A task that is
//!   already running is never interrupted — `try_run` must wait for
//!   in-flight tasks before returning (the task closure is borrowed) —
//!   so long-running operators should themselves check the token (the
//!   fallible scan engine does, at a fixed stride).

use crate::deadline::ScanDeadline;
use crate::error::ExecError;
use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::{thread, Arc, Condvar, Mutex, MutexGuard};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
#[cfg(not(loom))]
use std::sync::OnceLock;
use std::sync::PoisonError;
use std::time::Duration;

/// Hard cap on the pool width, far above any sane `SCAN_CORE_THREADS`.
const MAX_THREADS: usize = 512;

/// How often the submitter-side watchdog re-checks a submission's
/// deadline while waiting for stragglers.
const WATCHDOG_TICK: Duration = Duration::from_millis(5);

/// Lock a mutex, ignoring poisoning (no task code runs under our locks,
/// so a poisoned lock still guards consistent data).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Condvar wait with the same poisoning policy as [`lock`].
fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

/// Bounded condvar wait with the same poisoning policy as [`lock`].
fn wait_for<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>, dur: Duration) -> MutexGuard<'a, T> {
    cv.wait_timeout(g, dur)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

/// Type-erased pointer to the job's task closure.
///
/// SAFETY: `WorkerPool::run` keeps the pointee alive until every task of
/// the job has finished (it blocks on the job's completion count), and
/// no worker dereferences the pointer after claiming a task index `>=
/// ntasks`, so the pointer is never read after `run` returns.
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (`dyn Fn(usize) + Sync`) and stays
// alive for every dereference — `drive` blocks until all tasks finish
// before its borrow of the closure ends (see the type docs above).
unsafe impl Send for TaskPtr {}
// SAFETY: sharing `&TaskPtr` across workers only ever yields `&dyn Fn`
// calls on a `Sync` closure; no mutation is reachable through it.
unsafe impl Sync for TaskPtr {}

/// Completion state of one job.
#[derive(Default)]
struct Done {
    /// Tasks fully executed (or drained after an abort) so far.
    finished: usize,
    /// Number of task panics contained within this job.
    panics: u32,
    /// First panic payload observed, carried back to the submitter.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// One batch of `ntasks` independent tasks sharing a claim counter.
struct Job {
    task: TaskPtr,
    ntasks: usize,
    next: AtomicUsize,
    /// Once set, tasks not yet started are claimed and marked finished
    /// without executing, so the job converges quickly.
    aborted: AtomicBool,
    /// Deadline attached to the submission, if any; workers re-check it
    /// before every claim so an expired job drains without waiting for
    /// the submitter's watchdog.
    deadline: Option<ScanDeadline>,
    done: Mutex<Done>,
    done_cv: Condvar,
}

impl Job {
    /// True once the job should stop doing real work.
    fn bailed(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
            || self.deadline.as_ref().is_some_and(|d| d.check().is_err())
    }

    /// Claim and execute tasks until the job is exhausted.
    fn run_tasks(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.ntasks {
                return;
            }
            let result = if self.bailed() {
                // Drain: count the task finished without running it.
                Ok(())
            } else {
                // SAFETY: `i < ntasks`, so the submitter is still inside
                // `run`/`try_run` and the closure is alive (see
                // `TaskPtr`).
                let task = unsafe { &*self.task.0 };
                catch_unwind(AssertUnwindSafe(|| task(i)))
            };
            let mut done = lock(&self.done);
            done.finished += 1;
            if let Err(payload) = result {
                done.panics += 1;
                done.panic.get_or_insert(payload);
            }
            if done.finished == self.ntasks {
                self.done_cv.notify_all();
            }
        }
    }
}

/// The broadcast slot the workers watch.
#[derive(Default)]
struct Gate {
    /// Bumped on every post so sleeping workers can tell old from new.
    epoch: u64,
    /// The job currently being offered, if any.
    job: Option<Arc<Job>>,
    /// Set once, on pool drop.
    shutdown: bool,
}

struct Shared {
    gate: Mutex<Gate>,
    work_cv: Condvar,
    /// Workers replaced after an unwind escaped a worker thread.
    respawns: AtomicUsize,
}

fn worker_loop(shared: &Shared) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut gate = lock(&shared.gate);
            loop {
                if gate.shutdown {
                    return;
                }
                if gate.epoch != seen_epoch {
                    seen_epoch = gate.epoch;
                    if let Some(job) = gate.job.clone() {
                        break job;
                    }
                } else {
                    gate = wait(&shared.work_cv, gate);
                }
            }
        };
        job.run_tasks();
    }
}

/// Supervision guard held for the lifetime of a worker thread: if the
/// worker unwinds out of [`worker_loop`] (individual tasks are caught,
/// but e.g. a panic payload whose `Drop` itself panics can escape the
/// accounting path), the guard spawns a replacement worker so the pool
/// keeps its configured width.
struct Respawn {
    shared: Arc<Shared>,
    name: String,
}

impl Drop for Respawn {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.respawns.fetch_add(1, Ordering::Relaxed);
            spawn_worker(&self.shared, self.name.clone());
        }
    }
}

/// Body of every worker thread, original or respawned.
fn worker_body(shared: Arc<Shared>, name: String) {
    let _guard = Respawn {
        shared: Arc::clone(&shared),
        name,
    };
    worker_loop(&shared);
    // Clean shutdown: the guard drops without panicking, so it is inert.
}

/// Spawn one worker thread. A failed spawn is tolerated — the pool just
/// runs narrower (and a failed *respawn* leaves the submitter and the
/// surviving workers to finish jobs, which they always can).
fn spawn_worker(shared: &Arc<Shared>, name: String) -> Option<thread::JoinHandle<()>> {
    let sh = Arc::clone(shared);
    let n = name.clone();
    thread::Builder::new()
        .name(name)
        .spawn(move || worker_body(sh, n))
        .ok()
}

/// A persistent pool of worker threads executing indexed task batches.
///
/// Most code should use the process-wide [`global()`] pool; constructing
/// private pools is mainly for tests and benchmarks that need a specific
/// width regardless of the host.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Serializes submissions; `try_lock` keeps re-entrant or contended
    /// callers on the inline path instead of deadlocking.
    submit: Mutex<()>,
    threads: usize,
    handles: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl WorkerPool {
    /// Build a pool of `threads` total execution lanes: `threads - 1`
    /// parked workers plus the submitting thread itself. `threads <= 1`
    /// spawns nothing and makes [`run`](Self::run) purely sequential.
    pub fn new(threads: usize) -> Self {
        let want = threads.clamp(1, MAX_THREADS);
        let shared = Arc::new(Shared {
            gate: Mutex::new(Gate::default()),
            work_cv: Condvar::new(),
            respawns: AtomicUsize::new(0),
        });
        let mut handles = Vec::new();
        for i in 1..want {
            // A failed spawn just narrows the pool; `run` still works.
            if let Some(h) = spawn_worker(&shared, format!("scan-core-{i}")) {
                handles.push(h);
            }
        }
        WorkerPool {
            shared,
            submit: Mutex::new(()),
            threads: handles.len() + 1,
            handles,
        }
    }

    /// Number of execution lanes (parked workers + the submitter).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of worker threads that have been replaced after a panic
    /// escaped a worker. Zero in a healthy pool.
    pub fn respawns(&self) -> usize {
        self.shared.respawns.load(Ordering::Relaxed)
    }

    /// Execute `task(0), task(1), ..., task(ntasks - 1)`, distributing
    /// the indices across the pool, and return when all have finished.
    ///
    /// Tasks may run in any order and concurrently; the closure must
    /// make concurrent index-disjoint work safe (the scan engine does
    /// this by giving every index a disjoint output range). Completion
    /// of `run` happens-after every task, so results written by tasks
    /// are visible to the caller without extra synchronization.
    ///
    /// # Panics
    /// If a task panics, the first payload is re-raised on the calling
    /// thread after the remaining tasks finish.
    pub fn run<F>(&self, ntasks: usize, task: F)
    where
        F: Fn(usize) + Sync,
    {
        if ntasks == 0 {
            return;
        }
        if self.threads == 1 || ntasks == 1 {
            for i in 0..ntasks {
                task(i);
            }
            return;
        }
        // One job at a time: a second submitter (or a task submitting
        // from inside the pool) runs inline instead of queueing.
        let Ok(_submission) = self.submit.try_lock() else {
            for i in 0..ntasks {
                task(i);
            }
            return;
        };
        let (_, payload) = self.drive(ntasks, None, &task);
        if let Some(p) = payload {
            resume_unwind(p);
        }
    }

    /// Fallible variant of [`run`](Self::run): executes the task batch
    /// under an optional [`ScanDeadline`] and reports failures as typed
    /// errors instead of panicking.
    ///
    /// - A panicking task is contained (its payload is dropped, never
    ///   replayed) and the whole submission fails with
    ///   [`ExecError::WorkerLost`] carrying the panic count. Remaining
    ///   tasks still run, so sibling outputs stay consistent.
    /// - When `deadline` trips, tasks not yet started are drained
    ///   unexecuted and the submission fails with
    ///   [`ExecError::DeadlineExceeded`] (or
    ///   [`ExecError::Cancelled`]). Cancellation is cooperative: an
    ///   in-flight task is never interrupted, so `try_run` returns only
    ///   after every claimed task has yielded.
    ///
    /// Panic containment takes precedence: if tasks both panicked and
    /// overran the deadline, the error is `WorkerLost`.
    pub fn try_run<F>(
        &self,
        ntasks: usize,
        deadline: Option<&ScanDeadline>,
        task: F,
    ) -> Result<(), ExecError>
    where
        F: Fn(usize) + Sync,
    {
        if let Some(d) = deadline {
            d.check()?;
        }
        if ntasks == 0 {
            return Ok(());
        }
        let inline = |task: &F| -> Result<(), ExecError> {
            let mut panics = 0u32;
            for i in 0..ntasks {
                if deadline.is_some_and(|d| d.check().is_err()) {
                    break;
                }
                if catch_unwind(AssertUnwindSafe(|| task(i))).is_err() {
                    panics += 1;
                }
            }
            if panics > 0 {
                return Err(ExecError::WorkerLost { panics });
            }
            if let Some(d) = deadline {
                d.check()?;
            }
            Ok(())
        };
        if self.threads == 1 || ntasks == 1 {
            return inline(&task);
        }
        let Ok(_submission) = self.submit.try_lock() else {
            return inline(&task);
        };
        let (panics, payload) = self.drive(ntasks, deadline, &task);
        drop(payload);
        if panics > 0 {
            return Err(ExecError::WorkerLost { panics });
        }
        if let Some(d) = deadline {
            d.check()?;
        }
        Ok(())
    }

    /// Post one job, participate, and wait for completion. Returns the
    /// contained panic count and the first panic payload.
    ///
    /// Must be called with the submission lock held. On return the gate
    /// has been restored to a clean state: the job slot is empty and
    /// the epoch advanced past the job, so no later submission (or
    /// late-waking worker) can observe this job again.
    fn drive(
        &self,
        ntasks: usize,
        deadline: Option<&ScanDeadline>,
        task: &(dyn Fn(usize) + Sync),
    ) -> (u32, Option<Box<dyn std::any::Any + Send>>) {
        let wide: *const (dyn Fn(usize) + Sync + '_) = task;
        // SAFETY: lifetime-erasing transmute only (pointer-to-pointer,
        // same vtable layout): `drive` blocks until every task has
        // finished, so `task` outlives all dereferences of the erased
        // pointer (see `TaskPtr`).
        #[allow(clippy::missing_transmute_annotations)]
        let erased: TaskPtr = TaskPtr(unsafe { std::mem::transmute(wide) });
        let job = Arc::new(Job {
            task: erased,
            ntasks,
            next: AtomicUsize::new(0),
            aborted: AtomicBool::new(false),
            deadline: deadline.cloned(),
            done: Mutex::new(Done::default()),
            done_cv: Condvar::new(),
        });
        {
            let mut gate = lock(&self.shared.gate);
            gate.epoch = gate.epoch.wrapping_add(1);
            gate.job = Some(Arc::clone(&job));
            self.shared.work_cv.notify_all();
        }
        // Participate: the submitter is the pool's extra lane. Contain
        // any unwind that escapes the accounting path (e.g. a panic
        // payload whose own `Drop` panics) and keep participating —
        // every attempt claims at least one task, so this terminates,
        // and it guarantees progress even if every worker died.
        while catch_unwind(AssertUnwindSafe(|| job.run_tasks())).is_err() {}
        let (panics, payload) = {
            let mut done = lock(&job.done);
            while done.finished < ntasks {
                match deadline {
                    // Watchdog: bounded waits so an expired deadline is
                    // latched and the job switches to drain mode even
                    // if no running task ever checks the token.
                    Some(d) => {
                        done = wait_for(&job.done_cv, done, WATCHDOG_TICK);
                        if d.check().is_err() {
                            job.aborted.store(true, Ordering::Release);
                        }
                    }
                    None => done = wait(&job.done_cv, done),
                }
            }
            (done.panics, done.panic.take())
        };
        {
            // Leave a clean gate: clear the finished job *and* advance
            // the epoch, so a worker waking late observes "new epoch,
            // nothing to do" rather than re-examining a stale job.
            let mut gate = lock(&self.shared.gate);
            if gate.job.as_ref().is_some_and(|j| Arc::ptr_eq(j, &job)) {
                gate.job = None;
                gate.epoch = gate.epoch.wrapping_add(1);
            }
        }
        (panics, payload)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut gate = lock(&self.shared.gate);
            gate.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Parse a `SCAN_CORE_THREADS` value: a positive integer (surrounding
/// whitespace tolerated), capped at [`MAX_THREADS`]. Zero, negative,
/// empty, and garbage values are rejected (`None`), which makes the
/// pool fall back to `available_parallelism()` rather than building a
/// zero-width or absurdly wide pool.
#[cfg_attr(loom, allow(dead_code))] // only `global()` (not(loom)) calls it
fn parse_threads(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n.min(MAX_THREADS)),
        _ => None,
    }
}

/// Pool width for the global pool: `SCAN_CORE_THREADS` if set to a
/// positive integer, else `available_parallelism()`.
#[cfg(not(loom))]
fn configured_threads() -> usize {
    if let Ok(v) = std::env::var("SCAN_CORE_THREADS") {
        if let Some(n) = parse_threads(&v) {
            return n;
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process-wide pool, built on first use. `SCAN_CORE_THREADS=k`
/// (read once, at that first use) overrides the width; `k = 1` disables
/// parallel execution entirely.
///
/// Not available under `cfg(loom)`: a `static` pool would leak model
/// state across explored executions. Loom scenarios build private
/// pools inside `loom::model` instead.
#[cfg(not(loom))]
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(configured_threads()))
}

/// Width of the [`global`] pool (1 under `cfg(loom)`, where no global
/// pool exists and the pooled schedule degrades to sequential).
pub(crate) fn global_threads() -> usize {
    #[cfg(not(loom))]
    {
        global().threads()
    }
    #[cfg(loom)]
    {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = WorkerPool::new(4);
        for ntasks in [0usize, 1, 2, 3, 7, 64, 1000] {
            let hits: Vec<AtomicUsize> = (0..ntasks).map(|_| AtomicUsize::new(0)).collect();
            pool.run(ntasks, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn results_are_visible_after_run() {
        let pool = WorkerPool::new(3);
        let mut out = vec![0u64; 100];
        {
            let slots: Vec<Mutex<&mut u64>> = out.iter_mut().map(Mutex::new).collect();
            pool.run(100, |i| {
                **lock(&slots[i]) = (i as u64) * 3;
            });
        }
        assert!(out.iter().enumerate().all(|(i, &v)| v == (i as u64) * 3));
    }

    #[test]
    fn pool_is_reusable_across_many_jobs() {
        let pool = WorkerPool::new(4);
        let total = AtomicU64::new(0);
        for _ in 0..200 {
            pool.run(8, |i| {
                total.fetch_add(i as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 200 * (0..8).sum::<u64>());
    }

    #[test]
    fn single_thread_pool_is_sequential() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let hits = AtomicUsize::new(0);
        pool.run(10, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn task_panic_propagates_to_submitter() {
        let pool = WorkerPool::new(4);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, |i| {
                assert!(i != 9, "task nine exploded");
            });
        }));
        let msg = match caught {
            Err(p) => p
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_default(),
            Ok(()) => panic!("expected the job to panic"),
        };
        assert!(msg.contains("task nine exploded"), "got: {msg}");
        // The pool must survive a panicking job.
        let hits = AtomicUsize::new(0);
        pool.run(8, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn concurrent_submitters_all_complete() {
        let pool = WorkerPool::new(4);
        let total = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..6 {
                s.spawn(|| {
                    for _ in 0..50 {
                        pool.run(16, |i| {
                            total.fetch_add(i as u64 + 1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        let per_job: u64 = (1..=16).sum();
        assert_eq!(total.load(Ordering::Relaxed), 6 * 50 * per_job);
    }

    #[test]
    fn reentrant_run_degrades_to_inline() {
        let pool = WorkerPool::new(4);
        let inner_hits = AtomicUsize::new(0);
        pool.run(4, |_| {
            // A task submitting to its own pool must not deadlock.
            pool.run(4, |_| {
                inner_hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(inner_hits.load(Ordering::Relaxed), 16);
    }

    #[cfg(not(loom))]
    #[test]
    fn global_pool_is_a_singleton() {
        let a = global() as *const WorkerPool;
        let b = global() as *const WorkerPool;
        assert_eq!(a, b);
        assert!(global().threads() >= 1);
    }

    #[test]
    fn try_run_executes_every_task_once() {
        let pool = WorkerPool::new(4);
        let d = ScanDeadline::after(Duration::from_secs(60));
        for ntasks in [0usize, 1, 7, 64] {
            let hits: Vec<AtomicUsize> = (0..ntasks).map(|_| AtomicUsize::new(0)).collect();
            pool.try_run(ntasks, Some(&d), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn try_run_contains_panics_as_worker_lost() {
        let pool = WorkerPool::new(4);
        let err = pool
            .try_run(16, None, |i| {
                assert!(i != 5, "induced task failure");
            })
            .unwrap_err();
        assert!(matches!(err, ExecError::WorkerLost { panics } if panics >= 1));
        // Regression (satellite): the recovery must leave a clean gate —
        // no stale job, epoch advanced — and the *next* submission must
        // behave normally on both the panicking and fallible paths.
        {
            let gate = lock(&pool.shared.gate);
            assert!(gate.job.is_none(), "stale job left in the gate");
        }
        let hits = AtomicUsize::new(0);
        pool.run(32, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 32);
        let d = ScanDeadline::after(Duration::from_secs(60));
        assert!(pool.try_run(8, Some(&d), |_| {}).is_ok());
    }

    #[test]
    fn try_run_counts_multiple_panics() {
        // Width 1 forces the inline path: deterministic panic count.
        let pool = WorkerPool::new(1);
        let err = pool
            .try_run(10, None, |i| {
                assert!(i % 2 == 0, "odd task failure");
            })
            .unwrap_err();
        assert_eq!(err, ExecError::WorkerLost { panics: 5 });
    }

    #[test]
    fn try_run_expired_deadline_runs_nothing() {
        let pool = WorkerPool::new(4);
        let d = ScanDeadline::at(std::time::Instant::now());
        let ran = AtomicUsize::new(0);
        let err = pool
            .try_run(16, Some(&d), |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap_err();
        assert_eq!(err, ExecError::DeadlineExceeded);
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn try_run_deadline_mid_job_drains_and_reports() {
        let pool = WorkerPool::new(2);
        let d = ScanDeadline::after(Duration::from_millis(10));
        let ran = AtomicUsize::new(0);
        let err = pool
            .try_run(64, Some(&d), |i| {
                if i < 2 {
                    std::thread::sleep(Duration::from_millis(40));
                }
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap_err();
        assert_eq!(err, ExecError::DeadlineExceeded);
        // The tasks claimed after expiry were drained, not executed.
        assert!(ran.load(Ordering::Relaxed) < 64);
        // The pool is reusable afterwards.
        assert!(pool.try_run(8, None, |_| {}).is_ok());
    }

    #[test]
    fn try_run_cancellation_is_typed() {
        let pool = WorkerPool::new(4);
        let d = ScanDeadline::manual();
        d.cancel();
        assert_eq!(pool.try_run(8, Some(&d), |_| {}), Err(ExecError::Cancelled));
    }

    #[test]
    fn gate_is_clean_after_each_job() {
        let pool = WorkerPool::new(4);
        let e0 = lock(&pool.shared.gate).epoch;
        pool.run(8, |_| {});
        let gate = lock(&pool.shared.gate);
        assert!(gate.job.is_none());
        // One bump to post the job, one to retire it.
        assert_eq!(gate.epoch, e0 + 2);
    }

    #[test]
    fn thread_count_parsing_rejects_junk() {
        // Rejected: zero width, signs, garbage, empty/whitespace.
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-3"), None);
        assert_eq!(parse_threads("abc"), None);
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("   "), None);
        assert_eq!(parse_threads("3.5"), None);
        assert_eq!(parse_threads("8 cores"), None);
    }

    #[test]
    fn thread_count_parsing_accepts_and_caps() {
        assert_eq!(parse_threads("1"), Some(1));
        assert_eq!(parse_threads("  8  "), Some(8));
        assert_eq!(parse_threads("512"), Some(MAX_THREADS));
        // Huge-but-parseable values clamp to the cap instead of
        // attempting to spawn millions of workers.
        assert_eq!(parse_threads("99999999"), Some(MAX_THREADS));
        assert_eq!(parse_threads(&usize::MAX.to_string()), Some(MAX_THREADS));
        // Overflowing usize is a parse error, not a panic.
        assert_eq!(parse_threads("999999999999999999999999999"), None);
    }

    #[test]
    fn width_one_pool_spawns_no_workers() {
        // `new(0)` clamps up to 1; neither width spawns OS threads.
        for req in [0usize, 1] {
            let pool = WorkerPool::new(req);
            assert_eq!(pool.threads(), 1);
            assert!(pool.handles.is_empty(), "width-1 pool spawned workers");
            assert_eq!(pool.respawns(), 0);
        }
    }

    #[test]
    fn width_one_try_run_honors_cancellation() {
        let pool = WorkerPool::new(1);
        let d = ScanDeadline::manual();
        let ran = AtomicUsize::new(0);
        let err = pool
            .try_run(8, Some(&d), |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 2 {
                    d.cancel();
                }
            })
            .unwrap_err();
        assert_eq!(err, ExecError::Cancelled);
        // Sequential fallback: tasks 0..=2 ran, the cancellation was
        // seen before task 3, nothing after it executed.
        assert_eq!(ran.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn width_one_nested_run_is_inline() {
        let pool = WorkerPool::new(1);
        let inner_hits = AtomicUsize::new(0);
        pool.run(3, |_| {
            pool.run(3, |_| {
                inner_hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(inner_hits.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn respawn_guard_replaces_a_dead_worker() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.respawns(), 0);
        let shared = Arc::clone(&pool.shared);
        let h = std::thread::Builder::new()
            .spawn(move || {
                let _guard = Respawn {
                    shared,
                    name: "scan-core-doomed".into(),
                };
                panic!("induced worker death");
            })
            .unwrap();
        assert!(h.join().is_err());
        // The guard ran during the unwind: a replacement was spawned
        // and counted before `join` returned.
        assert_eq!(pool.respawns(), 1);
        // The pool (now including the replacement worker) still works.
        let total = AtomicU64::new(0);
        pool.run(16, |i| {
            total.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), (0..16).sum::<u64>());
    }
}
