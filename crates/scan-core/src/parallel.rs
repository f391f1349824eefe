//! The execution engine: blocked two-pass parallel scans over a
//! persistent worker pool, with fused map/scan/reduce kernels.
//!
//! Every scan in this crate funnels through one generic blocked engine.
//! The engine reads its input through a *load* closure and writes its
//! output through an *emit* closure, which is what lets the derived
//! operations fuse away their intermediate vectors: `enumerate` loads
//! `usize::from(flag[i])` instead of materializing a 0/1 vector,
//! segmented scans load `(value, flag)` pairs on the fly, and backward
//! scans walk the blocks right-to-left instead of allocating a reversed
//! copy of the input.
//!
//! The parallel algorithm is the classic work-efficient two-pass scheme,
//! the flat rendering of the tree algorithm of the paper's §3.1:
//!
//! 1. **Up sweep** — split the input into `B` balanced contiguous
//!    blocks; each worker reduces its block (`B` partial sums).
//! 2. Exclusive scan of the `B` block sums (tiny, sequential). The
//!    final accumulator of this step is the total reduction, which
//!    [`crate::scan_with_total`] returns without any extra pass.
//! 3. **Down sweep** — each worker re-scans its block locally, seeded
//!    with its block's offset from step 2, writing directly into the
//!    (uninitialized) output buffer.
//!
//! Total work is `2n` combines — twice sequential, like the paper's tree
//! circuit — and span is `O(n/p + p)`. Below [`PAR_THRESHOLD`] elements
//! the sequential loop wins and is used directly.
//!
//! Work is executed by the lazily-initialized global worker pool
//! ([`crate::pool`]); a pool of width 1 (e.g. `SCAN_CORE_THREADS=1`)
//! falls back to the sequential kernels. The seed engine's per-call
//! `thread::scope` spawning survives as [`Schedule::Spawn`], a reference
//! schedule used to differential-test and benchmark the pool against.
//! Both schedules use the same block plan, so for a given pool width
//! they reassociate the operator identically and produce bit-identical
//! results even for non-associative operators like float addition.
//!
//! Every span — sequential, blocked down sweep, or lookback block —
//! runs one fused loop: load element `i`, combine it into the running
//! state, emit the state for `i`. Typed operators, closures and the
//! segmented pair operator all take it, at every element width.
//!
//! **Single-pass lookback** ([`Schedule::Lookback`], [`crate::lookback`])
//! replaces the two passes over the input with one, chaining block
//! offsets through a descriptor array instead of a barriered offset
//! scan. The two-pass engine stays as the differential baseline,
//! exactly like `Spawn`.
//!
//! Each engine has one body for both kinds of entry point: the
//! infallible ones run it with no deadline, and their `try_*`
//! counterparts run it under a deadline token that is checked between
//! strides, with worker panics contained as typed errors.
//!
//! Scans and reductions reach these engines through one descriptor,
//! [`crate::Scan`]: a closure operator is [`crate::Scan::by`], and
//! [`crate::Scan::schedule`] picks a [`Schedule`] for one call. This
//! module keeps the engines, the schedule switch, the sequential
//! reference loops (`seq_*_by`), the elementwise kernels (`map_by`,
//! `tabulate_by`, `zip_by`), the compaction behind `ops::pack`, and
//! the transparent-huge-page hint that every fresh engine output takes
//! before its first write ([`advise_huge_pages`]).

use crate::deadline::ScanDeadline;
use crate::error::ExecError;
use crate::pool;
use crate::sync::ConfigCell;
use core::convert::Infallible;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Inputs shorter than this are scanned sequentially; the extra pass
/// and cross-thread handoff do not pay for themselves below roughly
/// this size.
pub const PAR_THRESHOLD: usize = 1 << 14;

/// Smallest block worth handing to a worker (amortizes the handoff and
/// the second pass).
const MIN_BLOCK: usize = PAR_THRESHOLD / 4;

/// Test-only override of [`PAR_THRESHOLD`] (0 = off, the default).
///
/// The unsafe kernels only run above the threshold, so proving them
/// with Miri at the production size (16Ki elements, interpreted
/// instruction by instruction) would take hours. The sanitizer test
/// profile sets this to a few hundred so the blocked path — disjoint
/// uninitialized writes, `set_len`, cross-thread handoff — runs on
/// Miri-sized inputs. [`MIN_BLOCK`] scales with it (override / 4) so
/// the block plan keeps its production shape.
static PAR_OVERRIDE: ConfigCell = ConfigCell::new(0);

/// Set the [`PAR_THRESHOLD`] override (`0` restores the default).
/// Process-wide; for sanitizer/test profiles only.
#[doc(hidden)]
pub fn set_par_threshold_override(n: usize) {
    PAR_OVERRIDE.set(n);
}

/// Effective parallel threshold (the override, if set).
pub(crate) fn par_threshold() -> usize {
    match PAR_OVERRIDE.get() {
        0 => PAR_THRESHOLD,
        n => n,
    }
}

/// Effective minimum block size, scaled to the active threshold.
fn min_block() -> usize {
    match PAR_OVERRIDE.get() {
        0 => MIN_BLOCK,
        n => (n / 4).max(1),
    }
}

/// Elements processed between cancellation checks inside a block on the
/// fallible (`try_*`) paths. Coarse enough that the check (two relaxed
/// atomic loads once an expiry is latched) vanishes in the combine
/// work, fine enough that a cancel is observed in microseconds.
pub(crate) const CANCEL_STRIDE: usize = 4096;

/// How the blocked engine executes its blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// The persistent global worker pool (the default).
    Pooled,
    /// Fresh scoped OS threads per call — the seed engine's schedule,
    /// kept as a reference for differential tests and benchmarks.
    Spawn,
    /// Force the sequential kernels regardless of input size.
    Sequential,
    /// Single-pass decoupled lookback over the pool: each block scans
    /// once and chains its offset through a descriptor array
    /// ([`crate::lookback`]) instead of a second pass. Reassociates
    /// like the sequential kernel *per block*, but the block
    /// decomposition differs from the two-pass plan, so only exact
    /// (freely reassociable) operators should compare bit-identical
    /// across schedules.
    Lookback,
}

static DEFAULT_SCHEDULE: ConfigCell = ConfigCell::new(0);

/// Set the schedule used by every entry point that does not take an
/// explicit one (process-wide). Intended for benchmarks and tests that
/// compare engines; library code should leave this at
/// [`Schedule::Pooled`].
pub fn set_default_schedule(s: Schedule) {
    let v = match s {
        Schedule::Pooled => 0,
        Schedule::Spawn => 1,
        Schedule::Sequential => 2,
        Schedule::Lookback => 3,
    };
    DEFAULT_SCHEDULE.set(v);
}

/// The schedule currently used by the implicit-schedule entry points.
pub fn default_schedule() -> Schedule {
    match DEFAULT_SCHEDULE.get() {
        1 => Schedule::Spawn,
        2 => Schedule::Sequential,
        3 => Schedule::Lookback,
        _ => Schedule::Pooled,
    }
}

/// Sequential exclusive scan with an explicit operator. Reference
/// implementation for the whole crate: everything else must agree with it.
pub fn seq_exclusive_scan_by<T, F>(a: &[T], identity: T, f: F) -> Vec<T>
where
    T: Copy,
    F: Fn(T, T) -> T,
{
    let mut out = Vec::with_capacity(a.len());
    let mut acc = identity;
    for &x in a {
        out.push(acc);
        acc = f(acc, x);
    }
    out
}

/// Sequential inclusive scan with an explicit operator.
pub fn seq_inclusive_scan_by<T, F>(a: &[T], identity: T, f: F) -> Vec<T>
where
    T: Copy,
    F: Fn(T, T) -> T,
{
    let mut out = Vec::with_capacity(a.len());
    let mut acc = identity;
    for &x in a {
        acc = f(acc, x);
        out.push(acc);
    }
    out
}

/// Sequential reduction with an explicit operator.
pub fn seq_reduce_by<T, F>(a: &[T], identity: T, f: F) -> T
where
    T: Copy,
    F: Fn(T, T) -> T,
{
    let mut acc = identity;
    for &x in a {
        acc = f(acc, x);
    }
    acc
}

/// Traversal direction + exclusive/inclusive flavor of a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// The paper's scan: forward, element `i` excluded from its output.
    ExclusiveFwd,
    /// Forward, element `i` included.
    InclusiveFwd,
    /// Right-to-left, element `i` excluded.
    ExclusiveBwd,
    /// Right-to-left, element `i` included.
    InclusiveBwd,
}

impl Mode {
    pub(crate) fn new(inclusive: bool, backward: bool) -> Mode {
        match (inclusive, backward) {
            (false, false) => Mode::ExclusiveFwd,
            (true, false) => Mode::InclusiveFwd,
            (false, true) => Mode::ExclusiveBwd,
            (true, true) => Mode::InclusiveBwd,
        }
    }

    pub(crate) fn backward(self) -> bool {
        matches!(self, Mode::ExclusiveBwd | Mode::InclusiveBwd)
    }

    pub(crate) fn inclusive(self) -> bool {
        matches!(self, Mode::InclusiveFwd | Mode::InclusiveBwd)
    }
}

/// Raw output pointer that may cross thread boundaries.
///
/// SAFETY: every engine task writes a disjoint index range, and the
/// engine joins all tasks (pool completion or scope join, both of which
/// establish happens-before) before reading the buffer.
pub(crate) struct SendPtr<T>(*mut T);

// SAFETY: `SendPtr` is a capability to write disjoint indices of one
// buffer from multiple threads (see the type docs); the pointee is
// `Send`, every task writes a range no other task touches, and the
// engine joins all tasks before reading, so cross-thread moves of the
// wrapper are sound.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: shared references to `SendPtr` only expose the raw pointer
// (`get`), never a `&T`/`&mut T`; aliasing discipline is enforced at
// the write sites (disjoint index ranges per task, see above).
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Wrap a raw output pointer; the caller promises the disjoint-write
    /// + join discipline documented on the type.
    pub(crate) fn new(p: *mut T) -> Self {
        SendPtr(p)
    }

    /// Accessor (rather than field access) so closures capture the whole
    /// `SendPtr` — edition-2021 disjoint capture would otherwise grab the
    /// raw `*mut T` field, which is not `Sync`.
    pub(crate) fn get(self) -> *mut T {
        self.0
    }
}

/// The deadline budget an engine runs under: the one thing the
/// infallible and the `try_*` entry points differ in. The sequential
/// scan ([`seq_scan`]), the blocked scan ([`blocked_scan`]), the
/// blocked reduction ([`reduce_engine`]), the single-pass lookback
/// scan and `multi_split` each have one body, generic over it:
///
/// - [`NoDeadline`], under the infallible entry points: the error is
///   [`Infallible`], nothing is checked, every span runs as one
///   stride, and a panicking task reaches the caller with the
///   operator's own payload ([`pool::WorkerPool::run`] re-raises it);
/// - `Option<&ScanDeadline>`, under the `try_*` entry points: the
///   token is checked between blocks, after every phase and every
///   [`CANCEL_STRIDE`] elements inside a block, and a panicking task
///   is contained as [`ExecError::WorkerLost`]
///   ([`pool::WorkerPool::try_run`]).
pub(crate) trait Budget: Copy + Sync {
    /// What a spent budget reports.
    type Err;
    /// Elements a span runs between two checks.
    const STRIDE: usize;
    /// `Err` once the budget is spent. A spent budget stays spent (the
    /// token's cancel flag and expiry latch never clear), so one check
    /// after a phase is authoritative for every stride that stopped
    /// early inside it.
    fn check(self) -> Result<(), Self::Err>;
    /// The token the lookback spin checkpoints poll.
    fn deadline(&self) -> Option<&ScanDeadline>;
    /// [`Self::Err`] as an execution error, for callers that mix
    /// budget failures with precondition errors.
    fn exec_error(e: Self::Err) -> ExecError;
    /// Execute `task(0..nblocks)` under `sched`.
    fn run_blocks<F: Fn(usize) + Sync>(
        self,
        sched: Schedule,
        nblocks: usize,
        task: F,
    ) -> Result<(), Self::Err>;
}

/// The budget of the infallible entry points; see [`Budget`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct NoDeadline;

impl Budget for NoDeadline {
    type Err = Infallible;
    const STRIDE: usize = usize::MAX;

    fn check(self) -> Result<(), Infallible> {
        Ok(())
    }

    fn deadline(&self) -> Option<&ScanDeadline> {
        None
    }

    fn exec_error(e: Infallible) -> ExecError {
        match e {}
    }

    /// Panics in tasks propagate to the caller under every schedule.
    fn run_blocks<F: Fn(usize) + Sync>(
        self,
        sched: Schedule,
        nblocks: usize,
        task: F,
    ) -> Result<(), Infallible> {
        match sched {
            // Under `cfg(loom)` there is no global pool (a static would
            // leak state across explored executions), so the pooled
            // schedule degrades to the sequential loop; the loom suite
            // models `WorkerPool` directly instead. `Lookback` reaches
            // here only for its non-scan phases (reduce/fill), which
            // run on the pool like `Pooled`.
            #[cfg(not(loom))]
            Schedule::Pooled | Schedule::Lookback => pool::global().run(nblocks, task),
            #[cfg(loom)]
            Schedule::Pooled | Schedule::Lookback => {
                for b in 0..nblocks {
                    task(b);
                }
            }
            Schedule::Spawn => {
                std::thread::scope(|s| {
                    for b in 0..nblocks {
                        let task = &task;
                        s.spawn(move || task(b));
                    }
                });
            }
            Schedule::Sequential => {
                for b in 0..nblocks {
                    task(b);
                }
            }
        }
        Ok(())
    }
}

/// The budget of the `try_*` entry points: the ambient or explicit
/// deadline token, if any; see [`Budget`].
impl Budget for Option<&ScanDeadline> {
    type Err = ExecError;
    const STRIDE: usize = CANCEL_STRIDE;

    fn check(self) -> Result<(), ExecError> {
        match self {
            Some(d) => d.check(),
            None => Ok(()),
        }
    }

    fn deadline(&self) -> Option<&ScanDeadline> {
        *self
    }

    fn exec_error(e: ExecError) -> ExecError {
        e
    }

    /// Typed errors instead of replayed panics. Under
    /// [`Schedule::Pooled`] this is the pool's supervised `try_run`
    /// (panic containment + watchdog); the other schedules contain
    /// panics locally, so no schedule lets an operator panic cross
    /// this boundary.
    fn run_blocks<F: Fn(usize) + Sync>(
        self,
        sched: Schedule,
        nblocks: usize,
        task: F,
    ) -> Result<(), ExecError> {
        match sched {
            // See `NoDeadline::run_blocks`: no global pool under `cfg(loom)`.
            #[cfg(not(loom))]
            Schedule::Pooled | Schedule::Lookback => pool::global().try_run(nblocks, self, task),
            #[cfg(loom)]
            Schedule::Pooled | Schedule::Lookback => {
                for b in 0..nblocks {
                    if self.check().is_err() {
                        break;
                    }
                    task(b);
                }
                self.check()
            }
            Schedule::Spawn => {
                let r = catch_unwind(AssertUnwindSafe(|| {
                    std::thread::scope(|s| {
                        for b in 0..nblocks {
                            let task = &task;
                            s.spawn(move || task(b));
                        }
                    });
                }));
                if r.is_err() {
                    return Err(ExecError::WorkerLost { panics: 1 });
                }
                self.check()
            }
            Schedule::Sequential => {
                let mut panics = 0u32;
                for b in 0..nblocks {
                    if self.check().is_err() {
                        break;
                    }
                    if catch_unwind(AssertUnwindSafe(|| task(b))).is_err() {
                        panics += 1;
                    }
                }
                if panics > 0 {
                    return Err(ExecError::WorkerLost { panics });
                }
                self.check()
            }
        }
    }
}

/// Number of execution lanes the schedule will use. Both parallel
/// schedules plan against the pool width so their block decomposition
/// (and hence operator reassociation) is identical.
pub(crate) fn engine_width(sched: Schedule) -> usize {
    match sched {
        Schedule::Sequential => 1,
        Schedule::Spawn | Schedule::Pooled | Schedule::Lookback => pool::global_threads(),
    }
}

/// Should `n` elements run on the blocked parallel path?
pub(crate) fn go_parallel(sched: Schedule, n: usize) -> bool {
    n >= par_threshold()
        && match sched {
            Schedule::Sequential => false,
            // Spawning works regardless of pool width (the seed engine
            // spawned threads even on one core); the pool degrades to
            // sequential when it has a single lane.
            Schedule::Spawn => true,
            Schedule::Pooled => pool::global_threads() > 1,
            // Lookback pays off at any width: even inline on a width-1
            // pool it reads the input once instead of twice.
            Schedule::Lookback => true,
        }
}

/// Number of balanced blocks for an `n`-element input on `workers`
/// lanes: at most 4 blocks per worker, each at least [`MIN_BLOCK`]
/// elements, and — when there are more blocks than workers — a multiple
/// of the worker count so no worker is left holding a lone tail block.
pub(crate) fn plan_blocks(n: usize, workers: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let workers = workers.max(1);
    let mut b = (n / min_block()).clamp(1, 4 * workers);
    if b > workers {
        b -= b % workers;
    }
    b
}

/// Half-open index range of block `b` of `nblocks` over `n` elements.
/// Blocks partition `0..n` and differ in length by at most one.
pub(crate) fn block_range(n: usize, nblocks: usize, b: usize) -> core::ops::Range<usize> {
    let base = n / nblocks;
    let rem = n % nblocks;
    let start = b * base + b.min(rem);
    start..start + base + usize::from(b < rem)
}

/// Block `r` of `s`, cut with `split_at`: `r` comes from
/// [`block_range`] over `s.len()` elements.
fn cut<T>(s: &[T], r: core::ops::Range<usize>) -> &[T] {
    s.split_at(r.end).0.split_at(r.start).1
}

/// One contiguous span of a scan, in traversal order. `write(i,
/// state)` receives each index's scan state (pre- or post-combine per
/// `mode`); the return value is the carry-out — the inclusive fold of
/// the span into `seed`. Every scan path (sequential, blocked down
/// sweep, lookback block) funnels through this one loop, which loads
/// index `i` before it writes `i` and never visits `i` again.
pub(crate) fn scan_span<S, L, F, W>(
    r: core::ops::Range<usize>,
    load: &L,
    seed: S,
    f: &F,
    mode: Mode,
    write: &mut W,
) -> S
where
    S: Copy,
    L: Fn(usize) -> S,
    F: Fn(S, S) -> S,
    W: FnMut(usize, S),
{
    let mut acc = seed;
    // One loop per mode: with the mode tested inside a shared loop, the
    // strided `try_*` spans ran up to 1.7× slower in `bench_small`.
    match mode {
        Mode::ExclusiveFwd => {
            for i in r {
                let x = load(i);
                write(i, acc);
                acc = f(acc, x);
            }
        }
        Mode::InclusiveFwd => {
            for i in r {
                acc = f(acc, load(i));
                write(i, acc);
            }
        }
        Mode::ExclusiveBwd => {
            for i in r.rev() {
                let x = load(i);
                write(i, acc);
                acc = f(acc, x);
            }
        }
        Mode::InclusiveBwd => {
            for i in r.rev() {
                acc = f(acc, load(i));
                write(i, acc);
            }
        }
    }
    acc
}

/// `r` cut into strides of at most `stride` elements, in traversal
/// order (right-to-left when `backward`).
fn strides(
    r: core::ops::Range<usize>,
    stride: usize,
    backward: bool,
) -> impl Iterator<Item = core::ops::Range<usize>> {
    (0..r.len().div_ceil(stride)).map(move |k| {
        if backward {
            let hi = r.end - k * stride;
            hi - (hi - r.start).min(stride)..hi
        } else {
            let lo = r.start + k * stride;
            lo..lo + (r.end - lo).min(stride)
        }
    })
}

/// [`scan_span`] under `budget`: in strides of [`Budget::STRIDE`]
/// elements, checking the budget between them. On `Err` the span
/// stopped part-way and the caller discards what it wrote.
pub(crate) fn budget_scan_span<B, S, L, F, W>(
    r: core::ops::Range<usize>,
    load: &L,
    seed: S,
    f: &F,
    mode: Mode,
    budget: B,
    write: &mut W,
) -> Result<S, B::Err>
where
    B: Budget,
    S: Copy,
    L: Fn(usize) -> S,
    F: Fn(S, S) -> S,
    W: FnMut(usize, S),
{
    // One stride (always under `NoDeadline`): hand the whole range
    // over, so the optimizer sees the span's bounds and drops the
    // load closure's index checks.
    if r.len() <= B::STRIDE {
        return Ok(scan_span(r, load, seed, f, mode, write));
    }
    let mut acc = seed;
    for (k, s) in strides(r, B::STRIDE, mode.backward()).enumerate() {
        if k > 0 {
            budget.check()?;
        }
        acc = scan_span(s, load, acc, f, mode, write);
    }
    Ok(acc)
}

/// One contiguous span of a reduction in traversal order: the fold of
/// the span into `seed`, in the same order as [`scan_span`], so
/// non-commutative operators (the segmented pair combine) fold alike.
pub(crate) fn reduce_span<S, L, F>(
    r: core::ops::Range<usize>,
    load: &L,
    seed: S,
    f: &F,
    mode: Mode,
) -> S
where
    S: Copy,
    L: Fn(usize) -> S,
    F: Fn(S, S) -> S,
{
    let mut acc = seed;
    if mode.backward() {
        for i in r.rev() {
            acc = f(acc, load(i));
        }
    } else {
        for i in r {
            acc = f(acc, load(i));
        }
    }
    acc
}

/// [`reduce_span`] under `budget`; same contract as
/// [`budget_scan_span`].
pub(crate) fn budget_reduce_span<B, S, L, F>(
    r: core::ops::Range<usize>,
    load: &L,
    seed: S,
    f: &F,
    mode: Mode,
    budget: B,
) -> Result<S, B::Err>
where
    B: Budget,
    S: Copy,
    L: Fn(usize) -> S,
    F: Fn(S, S) -> S,
{
    // One stride: as in `budget_scan_span`.
    if r.len() <= B::STRIDE {
        return Ok(reduce_span(r, load, seed, f, mode));
    }
    let mut acc = seed;
    for (k, s) in strides(r, B::STRIDE, mode.backward()).enumerate() {
        if k > 0 {
            budget.check()?;
        }
        acc = reduce_span(s, load, acc, f, mode);
    }
    Ok(acc)
}

/// Bytes in one transparent huge page (a PMD-mapped page on x86_64).
const HUGE_PAGE: usize = 2 << 20;

/// Ask Linux to back the whole 2 MiB-aligned pages inside `v`'s
/// capacity with transparent huge pages (`madvise(MADV_HUGEPAGE)`), so
/// that first touch of a fresh output faults once per 2 MiB instead of
/// once per 4 KiB. Call it on a fresh allocation, before its first
/// write, and only on one that will be written up to its capacity: a
/// huge page is backed in full on first touch.
///
/// The advice changes how the pages are backed, never what they hold,
/// so the syscall's result is ignored. Nothing happens when no whole
/// aligned page fits in the capacity (so no output under 2 MiB reaches
/// the syscall), on targets other than Linux on x86_64, or under Miri,
/// and the kernel ignores the advice when its THP mode is `never`.
#[inline]
pub fn advise_huge_pages<T>(v: &mut Vec<T>) {
    if let Some(r) = huge_interior(v.as_ptr().addr(), v.capacity(), size_of::<T>()) {
        madvise_huge(r);
    }
}

/// The whole [`HUGE_PAGE`]-aligned pages inside `len` elements of
/// `size` bytes from address `addr`, as an address range; `None` when
/// none fits, or when the byte count or the end would overflow.
fn huge_interior(addr: usize, len: usize, size: usize) -> Option<core::ops::Range<usize>> {
    let end = addr.checked_add(len.checked_mul(size)?)?;
    let start = addr.checked_next_multiple_of(HUGE_PAGE)?;
    let end = end - end % HUGE_PAGE;
    (start < end).then_some(start..end)
}

/// `madvise(MADV_HUGEPAGE)` over `r`, whole huge pages inside an
/// allocation the caller owns.
#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
fn madvise_huge(r: core::ops::Range<usize>) {
    use core::ffi::{c_int, c_void};
    use core::ptr::without_provenance_mut;
    // The C library `std` already links on this target.
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    // Linux's `asm-generic/mman-common.h`.
    const MADV_HUGEPAGE: c_int = 14;
    // SAFETY: `madvise` reads and writes no memory of this process. `r`
    // is page-aligned and lies inside one live allocation, and
    // `MADV_HUGEPAGE` changes only how its pages are backed, never what
    // they hold. Any failure (e.g. `EINVAL` from a kernel built without
    // THP) leaves the default 4 KiB backing, so the result is ignored.
    let _ = unsafe { madvise(without_provenance_mut(r.start), r.len(), MADV_HUGEPAGE) };
}

/// Elsewhere the hint has no system call to make.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri))))]
fn madvise_huge(_: core::ops::Range<usize>) {}

/// The scan engine. Returns the emitted output vector and the total
/// reduction of all loaded values (in traversal order). Small inputs,
/// [`Schedule::Sequential`] and one-block plans run [`seq_scan`];
/// [`Schedule::Lookback`] runs [`crate::lookback`]'s single pass;
/// everything else [`blocked_scan`].
///
/// `f` must be associative with identity `identity`; the parallel
/// schedules reassociate combines across blocks. The `budget` strides
/// the spans but never changes the block plan or the association.
#[allow(clippy::too_many_arguments)]
pub(crate) fn engine<B, S, U, L, F, E>(
    sched: Schedule,
    n: usize,
    load: L,
    identity: S,
    f: F,
    emit: E,
    mode: Mode,
    budget: B,
) -> Result<(Vec<U>, S), B::Err>
where
    B: Budget,
    S: Copy + Send + Sync,
    U: Copy + Send + Sync,
    L: Fn(usize) -> S + Sync,
    F: Fn(S, S) -> S + Sync,
    E: Fn(usize, S) -> U + Sync,
{
    budget.check()?;
    let (load, f, emit) = (&load, &f, &emit);
    if !go_parallel(sched, n) {
        return seq_scan(n, load, identity, f, emit, mode, budget);
    }
    if sched == Schedule::Lookback {
        return crate::lookback::engine(n, load, identity, f, emit, mode, budget);
    }
    let nblocks = plan_blocks(n, engine_width(sched));
    if nblocks <= 1 {
        return seq_scan(n, load, identity, f, emit, mode, budget);
    }
    blocked_scan(sched, n, nblocks, load, identity, f, emit, mode, budget)
}

/// The sequential scan: one span over `0..n`, emitted into a fresh
/// vector. A function of its own, apart from [`blocked_scan`]: its loop
/// keeps the load closure's alias facts only while the closure arrives
/// as a reference parameter, not as a local the blocked path lends to
/// other threads.
fn seq_scan<B, S, U, L, F, E>(
    n: usize,
    load: &L,
    identity: S,
    f: &F,
    emit: &E,
    mode: Mode,
    budget: B,
) -> Result<(Vec<U>, S), B::Err>
where
    B: Budget,
    S: Copy,
    U: Copy,
    L: Fn(usize) -> S,
    F: Fn(S, S) -> S,
    E: Fn(usize, S) -> U,
{
    let mut out: Vec<U> = Vec::with_capacity(n);
    advise_huge_pages(&mut out);
    let o = out.as_mut_ptr();
    // SAFETY: single-threaded; the span writes each index in `0..n`
    // once, and `set_len` runs only if it ran to the end (on `Err` the
    // vector is dropped at length 0; `U: Copy`, nothing to drop).
    let mut write = |i: usize, s: S| unsafe { o.add(i).write(emit(i, s)) };
    let acc = budget_scan_span(0..n, load, identity, f, mode, budget, &mut write)?;
    // SAFETY: the whole span ran, initializing every index.
    unsafe { out.set_len(n) };
    Ok((out, acc))
}

/// The blocked two-pass scan over `nblocks` blocks; the final
/// accumulator of its block-offset scan is the total, at no extra
/// cost.
#[allow(clippy::too_many_arguments)]
fn blocked_scan<B, S, U, L, F, E>(
    sched: Schedule,
    n: usize,
    nblocks: usize,
    load: &L,
    identity: S,
    f: &F,
    emit: &E,
    mode: Mode,
    budget: B,
) -> Result<(Vec<U>, S), B::Err>
where
    B: Budget,
    S: Copy + Send + Sync,
    U: Copy + Send + Sync,
    L: Fn(usize) -> S + Sync,
    F: Fn(S, S) -> S + Sync,
    E: Fn(usize, S) -> U + Sync,
{
    // Up sweep: one partial reduction per block, in traversal order.
    let mut partials = vec![identity; nblocks];
    {
        let p = SendPtr(partials.as_mut_ptr());
        budget.run_blocks(sched, nblocks, move |b| {
            let r = block_range(n, nblocks, b);
            // A block that runs out of budget keeps the identity
            // partial; the phase check below discards the pass.
            if let Ok(acc) = budget_reduce_span(r, load, identity, f, mode, budget) {
                // SAFETY: task `b` writes only index `b` (see `SendPtr`).
                unsafe { p.get().add(b).write(acc) };
            }
        })?;
    }
    budget.check()?;

    // Scan of block sums (small, sequential), in place; the final
    // accumulator is the total reduction.
    let mut offsets = partials;
    let mut acc = identity;
    if mode.backward() {
        for o in offsets.iter_mut().rev() {
            let x = *o;
            *o = acc;
            acc = f(acc, x);
        }
    } else {
        for o in offsets.iter_mut() {
            let x = *o;
            *o = acc;
            acc = f(acc, x);
        }
    }
    let total = acc;

    // Down sweep: local re-scan seeded with the block offset, written
    // straight into uninitialized output — no identity pre-fill pass.
    // On an error the output is dropped at length 0, so its partially
    // initialized prefix is never exposed (`U: Copy`, nothing to drop).
    let mut out: Vec<U> = Vec::with_capacity(n);
    advise_huge_pages(&mut out);
    {
        let o = SendPtr(out.as_mut_ptr());
        let offsets = &offsets;
        budget.run_blocks(sched, nblocks, move |b| {
            let r = block_range(n, nblocks, b);
            // SAFETY: blocks are disjoint and cover `0..n`, so task `b`
            // writes each of its indices at most once; `set_len` runs
            // only if every block finished (phase check below).
            let mut write = |i: usize, s: S| unsafe { o.get().add(i).write(emit(i, s)) };
            // A block that runs out of budget stops part-way; the phase
            // check below keeps `set_len` off its unwritten tail.
            let _ = budget_scan_span(r, load, offsets[b], f, mode, budget, &mut write);
        })?;
    }
    budget.check()?;
    // SAFETY: every index in `0..n` was initialized by exactly one block.
    unsafe { out.set_len(n) };
    Ok((out, total))
}

/// Blocked reduction through a load closure, under `budget` (see
/// [`engine`]).
pub(crate) fn reduce_engine<B, S, L, F>(
    sched: Schedule,
    n: usize,
    load: L,
    identity: S,
    f: F,
    budget: B,
) -> Result<S, B::Err>
where
    B: Budget,
    S: Copy + Send + Sync,
    L: Fn(usize) -> S + Sync,
    F: Fn(S, S) -> S + Sync,
{
    budget.check()?;
    let mode = Mode::ExclusiveFwd;
    if !go_parallel(sched, n) {
        return budget_reduce_span(0..n, &load, identity, &f, mode, budget);
    }
    let nblocks = plan_blocks(n, engine_width(sched));
    let mut partials = vec![identity; nblocks];
    {
        let p = SendPtr(partials.as_mut_ptr());
        let load = &load;
        let f = &f;
        budget.run_blocks(sched, nblocks, move |b| {
            let r = block_range(n, nblocks, b);
            // Out of budget: the identity partial stays, and the phase
            // check below discards the pass.
            if let Ok(acc) = budget_reduce_span(r, load, identity, f, mode, budget) {
                // SAFETY: task `b` writes only index `b`.
                unsafe { p.get().add(b).write(acc) };
            }
        })?;
    }
    budget.check()?;
    Ok(seq_reduce_by(&partials, identity, f))
}

/// Blocked elementwise tabulation: `out[i] = g(i)`, written straight
/// into uninitialized output.
pub(crate) fn fill_engine<U, G>(sched: Schedule, n: usize, g: G) -> Vec<U>
where
    U: Copy + Send + Sync,
    G: Fn(usize) -> U + Sync,
{
    let mut out: Vec<U> = Vec::with_capacity(n);
    advise_huge_pages(&mut out);
    if !go_parallel(sched, n) {
        out.extend((0..n).map(g));
        return out;
    }
    let nblocks = plan_blocks(n, engine_width(sched));
    {
        let o = SendPtr(out.as_mut_ptr());
        let g = &g;
        let Ok(()) = NoDeadline.run_blocks(sched, nblocks, move |b| {
            for i in block_range(n, nblocks, b) {
                // SAFETY: blocks are disjoint and cover `0..n`.
                unsafe { o.get().add(i).write(g(i)) };
            }
        });
    }
    // SAFETY: every index in `0..n` was initialized by exactly one block.
    unsafe { out.set_len(n) };
    out
}

/// Blocked compaction, the paper's `pack` (§2.5): `item(i, src[i])` for
/// each `i` with `keep[i]`, in order, in a vector of exactly that
/// length. It runs on the scans' block plan, as one block wherever
/// [`go_parallel`] declines: below the threshold, under
/// [`Schedule::Sequential`], or `Pooled` on a one-lane pool.
///
/// Pass 1 counts each block's kept flags; an exclusive scan of the
/// counts gives block `b` its output range `bounds[b]..bounds[b + 1]`
/// and the total. Pass 2 is the enumerate and the permute in one
/// loop: each block stores every element at its cursor and advances
/// the cursor by the element's flag, so the next element overwrites a
/// dropped one, with no branch on the flag. It stops once the cursor
/// reaches the block's end, so no store leaves the block's range.
///
/// # Panics
/// If `src` and `keep` differ in length.
pub(crate) fn pack_engine<T, U, F>(sched: Schedule, src: &[T], keep: &[bool], item: F) -> Vec<U>
where
    T: Copy + Sync,
    U: Copy + Send + Sync,
    F: Fn(usize, T) -> U + Sync,
{
    assert_eq!(src.len(), keep.len(), "pack length mismatch");
    let n = keep.len();
    let (sched, nblocks) = if go_parallel(sched, n) {
        (sched, plan_blocks(n, engine_width(sched)))
    } else {
        (Schedule::Sequential, 1)
    };

    // Pass 1: block `b`'s kept count lands in `bounds[b + 1]`.
    let mut bounds = vec![0usize; nblocks + 1];
    {
        let c = SendPtr(bounds.as_mut_ptr());
        let Ok(()) = NoDeadline.run_blocks(sched, nblocks, move |b| {
            let kept = cut(keep, block_range(n, nblocks, b))
                .iter()
                .filter(|&&k| k)
                .count();
            // SAFETY: task `b` writes only index `b + 1 <= nblocks`.
            unsafe { c.get().add(b + 1).write(kept) };
        });
    }
    let mut total = 0;
    for x in bounds.iter_mut() {
        total += *x;
        *x = total;
    }

    // Pass 2: each block fills exactly `bounds[b]..bounds[b + 1]`.
    let mut out: Vec<U> = Vec::with_capacity(total);
    advise_huge_pages(&mut out);
    {
        let o = SendPtr(out.as_mut_ptr());
        let (bounds, item) = (&bounds, &item);
        let Ok(()) = NoDeadline.run_blocks(sched, nblocks, move |b| {
            let Some(&[start, end]) = bounds.get(b..b + 2) else {
                return;
            };
            let r = block_range(n, nblocks, b);
            let base = r.start;
            let (src, keep) = (cut(src, r.clone()), cut(keep, r));
            let mut at = start;
            for (j, (&x, &k)) in src.iter().zip(keep).enumerate() {
                if at == end {
                    break;
                }
                // SAFETY: `start <= at < end <= total`, and only this
                // block writes `start..end`. A dropped element's store
                // is overwritten by the next one's; the cursor passes a
                // slot only after a kept element's store to it.
                unsafe { o.get().add(at).write(item(base + j, x)) };
                at += usize::from(k);
            }
        });
    }
    // SAFETY: every block ran (tasks `0..nblocks`, `bounds` has
    // `nblocks + 1` entries) and passed all of its kept elements, as
    // many as pass 1 counted, so each slot of `0..total` holds the kept
    // element its block's cursor last stored there.
    unsafe { out.set_len(total) };
    out
}

/// Run `f`, an engine call under a deadline budget, contained: a
/// panicking operator (or load/emit closure) surfaces as
/// [`ExecError::WorkerLost`], and nothing unwinds out of this function.
/// The budget checks the deadline token between blocks, after every
/// phase and every [`CANCEL_STRIDE`] elements inside a block (a spent
/// token makes every remaining stride stop early, and its latch makes
/// the phase checks authoritative, so a stopped block's partial output
/// is never used). On success the result is the infallible call's,
/// bit for bit (under [`Schedule::Lookback`] only for exact operators:
/// which blocks take its seeded fast path, and so its association,
/// depends on timing).
pub(crate) fn contain<R>(f: impl FnOnce() -> Result<R, ExecError>) -> Result<R, ExecError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or(Err(ExecError::WorkerLost { panics: 1 }))
}

/// Parallel elementwise map into a fresh vector (the paper's
/// per-processor arithmetic step, §2.1). Sequential below the threshold.
pub fn map_by<T, U, F>(a: &[T], f: F) -> Vec<U>
where
    T: Copy + Send + Sync,
    U: Copy + Send + Sync,
    F: Fn(T) -> U + Sync,
{
    map_by_sched(default_schedule(), a, f)
}

/// [`map_by`] under an explicit [`Schedule`].
pub fn map_by_sched<T, U, F>(sched: Schedule, a: &[T], f: F) -> Vec<U>
where
    T: Copy + Send + Sync,
    U: Copy + Send + Sync,
    F: Fn(T) -> U + Sync,
{
    fill_engine(sched, a.len(), |i| f(a[i]))
}

/// Parallel tabulation: `out[i] = g(i)` for `i` in `0..n`. The fused
/// form of "build an index-derived vector then map it".
pub fn tabulate_by<U, G>(n: usize, g: G) -> Vec<U>
where
    U: Copy + Send + Sync,
    G: Fn(usize) -> U + Sync,
{
    fill_engine(default_schedule(), n, g)
}

/// Parallel elementwise zip-map of two equal-length vectors.
///
/// # Panics
/// If the lengths differ.
pub fn zip_by<A, B, U, F>(a: &[A], b: &[B], f: F) -> Vec<U>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    U: Copy + Send + Sync,
    F: Fn(A, B) -> U + Sync,
{
    assert_eq!(a.len(), b.len(), "zip_by length mismatch");
    fill_engine(default_schedule(), a.len(), |i| f(a[i], b[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scan;

    #[test]
    fn seq_exclusive_matches_paper_example() {
        let a = [2u64, 1, 2, 3, 5, 8, 13, 21];
        assert_eq!(
            seq_exclusive_scan_by(&a, 0, |x, y| x + y),
            vec![0, 2, 3, 5, 8, 13, 21, 34]
        );
    }

    #[test]
    fn empty_and_single() {
        let e: [u32; 0] = [];
        assert!(seq_exclusive_scan_by(&e, 0, |a, b| a + b).is_empty());
        assert!(Scan::by(0, |a, b| a + b).run(&e).0.is_empty());
        assert!(Scan::by(0, |a, b| a + b).backward().run(&e).0.is_empty());
        assert_eq!(seq_exclusive_scan_by(&[7u32], 0, |a, b| a + b), vec![0]);
        assert_eq!(seq_inclusive_scan_by(&[7u32], 0, |a, b| a + b), vec![7]);
        assert_eq!(
            Scan::by(0, |a, b| a + b)
                .backward()
                .inclusive()
                .run(&[7u32])
                .0,
            vec![7]
        );
    }

    #[test]
    fn par_matches_seq_exclusive() {
        let n = PAR_THRESHOLD * 3 + 17;
        let a: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(2654435761)).collect();
        let seq = seq_exclusive_scan_by(&a, 0, |x, y| x.wrapping_add(y));
        for sched in [
            Schedule::Pooled,
            Schedule::Lookback,
            Schedule::Spawn,
            Schedule::Sequential,
        ] {
            let got = Scan::by(0u64, |x, y| x.wrapping_add(y))
                .schedule(sched)
                .run(&a)
                .0;
            assert_eq!(seq, got, "schedule {sched:?}");
        }
    }

    #[test]
    fn par_matches_seq_inclusive_max() {
        let n = PAR_THRESHOLD * 2 + 3;
        let a: Vec<u64> = (0..n as u64).map(|i| (i * 48271) % 104729).collect();
        let seq = seq_inclusive_scan_by(&a, 0, |x, y| x.max(y));
        for sched in [Schedule::Pooled, Schedule::Lookback, Schedule::Spawn] {
            assert_eq!(
                seq,
                Scan::by(0, |x, y| x.max(y))
                    .schedule(sched)
                    .inclusive()
                    .run(&a)
                    .0
            );
        }
    }

    #[test]
    fn backward_scans_match_reversed_forward() {
        for n in [0usize, 1, 5, 1000, PAR_THRESHOLD * 2 + 7] {
            let a: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9e3779b9)).collect();
            let mut rev = a.clone();
            rev.reverse();
            let mut expect_exc = seq_exclusive_scan_by(&rev, 0u64, |x, y| x.wrapping_add(y));
            expect_exc.reverse();
            let mut expect_inc = seq_inclusive_scan_by(&rev, 0u64, |x, y| x.wrapping_add(y));
            expect_inc.reverse();
            for sched in [
                Schedule::Pooled,
                Schedule::Lookback,
                Schedule::Spawn,
                Schedule::Sequential,
            ] {
                assert_eq!(
                    Scan::by(0u64, |x, y| x.wrapping_add(y))
                        .schedule(sched)
                        .backward()
                        .run(&a)
                        .0,
                    expect_exc,
                    "n={n} sched={sched:?}"
                );
                assert_eq!(
                    Scan::by(0u64, |x, y| x.wrapping_add(y))
                        .schedule(sched)
                        .backward()
                        .inclusive()
                        .run(&a)
                        .0,
                    expect_inc,
                    "n={n} sched={sched:?}"
                );
            }
        }
    }

    #[test]
    fn with_total_agrees_with_reduce() {
        for n in [0usize, 1, 100, PAR_THRESHOLD + 1] {
            let a: Vec<u64> = (0..n as u64).collect();
            let (s, t) = Scan::by(0, |x, y| x + y).run(&a);
            assert_eq!(s, seq_exclusive_scan_by(&a, 0, |x, y| x + y));
            assert_eq!(t, seq_reduce_by(&a, 0, |x, y| x + y));
        }
    }

    #[test]
    fn fused_map_scan_variants() {
        let n = PAR_THRESHOLD + 9;
        let flags: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let ones: Vec<usize> = flags.iter().map(|&f| usize::from(f)).collect();
        assert_eq!(
            Scan::by(0, |a, b| a + b)
                .run(&map_by(&flags, usize::from))
                .0,
            seq_exclusive_scan_by(&ones, 0, |a, b| a + b)
        );
        let (s, t) = Scan::by(0, |a, b| a + b).run(&map_by(&flags, usize::from));
        assert_eq!(s, seq_exclusive_scan_by(&ones, 0, |a, b| a + b));
        assert_eq!(t, ones.iter().sum::<usize>());
        let mut rev_ones = ones.clone();
        rev_ones.reverse();
        let mut expect = seq_exclusive_scan_by(&rev_ones, 0, |a, b| a + b);
        expect.reverse();
        assert_eq!(
            Scan::by(0, |a, b| a + b)
                .backward()
                .run(&map_by(&flags, usize::from))
                .0,
            expect
        );
        assert_eq!(
            Scan::by(0, |a, b| a + b).total(&map_by(&flags, usize::from)),
            ones.iter().sum::<usize>()
        );
    }

    #[test]
    fn reduce_matches() {
        let n = PAR_THRESHOLD * 2 + 5;
        let a: Vec<u64> = (0..n as u64).collect();
        for sched in [
            Schedule::Pooled,
            Schedule::Lookback,
            Schedule::Spawn,
            Schedule::Sequential,
        ] {
            assert_eq!(
                Scan::by(0, |x, y| x + y).schedule(sched).total(&a),
                (n as u64 - 1) * (n as u64) / 2
            );
        }
    }

    #[test]
    fn map_zip_and_tabulate() {
        let a: Vec<u32> = (0..100).collect();
        let b: Vec<u32> = (0..100).map(|i| i * 2).collect();
        assert_eq!(map_by(&a, |x| x + 1)[99], 100);
        assert_eq!(zip_by(&a, &b, |x, y| x + y)[10], 30);
        let big: Vec<u32> = (0..PAR_THRESHOLD as u32 * 2).collect();
        let m = map_by(&big, |x| x ^ 1);
        assert_eq!(m[5], 4);
        assert_eq!(m.len(), big.len());
        let zipped = zip_by(&big, &big, |x, y| x + y);
        assert_eq!(zipped[9], 18);
        assert_eq!(zipped.len(), big.len());
        let t = tabulate_by(PAR_THRESHOLD + 3, |i| i as u64 * 7);
        assert_eq!(t.len(), PAR_THRESHOLD + 3);
        assert!(t.iter().enumerate().all(|(i, &v)| v == i as u64 * 7));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn zip_length_mismatch_panics() {
        zip_by(&[1u32, 2], &[1u32], |a, b| a + b);
    }

    #[test]
    fn block_plan_partitions_exactly() {
        // Adversarial sizes around the threshold and block-multiple
        // boundaries: the plan must partition 0..n into balanced blocks
        // and, when there are more blocks than workers, a multiple of
        // the worker count (the seed engine could leave a lone tiny
        // tail block: `4·workers + 1` chunks).
        let sizes = [
            PAR_THRESHOLD - 1,
            PAR_THRESHOLD,
            PAR_THRESHOLD + 1,
            MIN_BLOCK * 16 - 1,
            MIN_BLOCK * 16,
            MIN_BLOCK * 16 + 1,
            MIN_BLOCK * 17 + 3,
            1 << 20,
            (1 << 20) + 1,
        ];
        for workers in [1usize, 2, 3, 4, 7, 8, 64] {
            for &n in &sizes {
                let nb = plan_blocks(n, workers);
                assert!(nb >= 1);
                assert!(nb <= 4 * workers);
                if nb > workers {
                    assert_eq!(nb % workers, 0, "n={n} workers={workers} nb={nb}");
                }
                // Ranges partition 0..n, in order, balanced to ±1.
                let mut next = 0usize;
                let base = n / nb;
                for b in 0..nb {
                    let r = block_range(n, nb, b);
                    assert_eq!(r.start, next, "n={n} nb={nb} b={b}");
                    let len = r.end - r.start;
                    assert!(len == base || len == base + 1, "n={n} nb={nb} b={b}");
                    next = r.end;
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn schedules_reassociate_identically() {
        // Same block plan on both parallel schedules: even a
        // non-associative operator (float addition) must come out
        // bit-identical between Pooled and Spawn.
        let n = PAR_THRESHOLD * 2 + 13;
        let a: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let pooled = Scan::by(0.0, |x, y| x + y)
            .schedule(Schedule::Pooled)
            .run(&a)
            .0;
        let spawn = Scan::by(0.0, |x, y| x + y)
            .schedule(Schedule::Spawn)
            .run(&a)
            .0;
        if pool::global_threads() > 1 {
            assert_eq!(pooled, spawn);
        } else {
            // Width-1 pool: Pooled falls back to the sequential kernel.
            assert_eq!(pooled, seq_exclusive_scan_by(&a, 0.0, |x, y| x + y));
        }
    }

    #[test]
    fn default_schedule_roundtrip() {
        assert_eq!(default_schedule(), Schedule::Pooled);
        set_default_schedule(Schedule::Sequential);
        assert_eq!(default_schedule(), Schedule::Sequential);
        set_default_schedule(Schedule::Pooled);
        assert_eq!(default_schedule(), Schedule::Pooled);
    }

    #[test]
    fn try_scans_match_infallible_on_the_happy_path() {
        let n = PAR_THRESHOLD * 2 + 13;
        let a: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9e3779b9)).collect();
        for sched in [
            Schedule::Pooled,
            Schedule::Lookback,
            Schedule::Spawn,
            Schedule::Sequential,
        ] {
            assert_eq!(
                Scan::by(0, u64::wrapping_add)
                    .schedule(sched)
                    .try_run(&a)
                    .map(|r| r.0)
                    .unwrap(),
                Scan::by(0, u64::wrapping_add).schedule(sched).run(&a).0,
                "sched {sched:?}"
            );
        }
        assert_eq!(
            Scan::by(0, u64::wrapping_add)
                .inclusive()
                .try_run(&a)
                .map(|r| r.0)
                .unwrap(),
            Scan::by(0, u64::wrapping_add).inclusive().run(&a).0
        );
        assert_eq!(
            Scan::by(0, u64::wrapping_add)
                .backward()
                .try_run(&a)
                .map(|r| r.0)
                .unwrap(),
            Scan::by(0, u64::wrapping_add).backward().run(&a).0
        );
        assert_eq!(
            Scan::by(0, u64::wrapping_add)
                .backward()
                .inclusive()
                .try_run(&a)
                .map(|r| r.0)
                .unwrap(),
            Scan::by(0, u64::wrapping_add)
                .backward()
                .inclusive()
                .run(&a)
                .0
        );
        let (s, t) = Scan::by(0, u64::wrapping_add).try_run(&a).unwrap();
        let (es, et) = Scan::by(0, u64::wrapping_add).run(&a);
        assert_eq!((s, t), (es, et));
        assert_eq!(
            Scan::by(0, u64::wrapping_add).try_total(&a).unwrap(),
            Scan::by(0, u64::wrapping_add).total(&a)
        );
    }

    #[test]
    fn try_scan_under_live_deadline_succeeds() {
        let n = PAR_THRESHOLD + 5;
        let a: Vec<u64> = (0..n as u64).collect();
        let d = ScanDeadline::after(std::time::Duration::from_secs(60));
        let got = crate::deadline::with_deadline(&d, || {
            Scan::by(0, |x, y| x + y).try_run(&a).map(|r| r.0)
        });
        assert_eq!(got.unwrap(), Scan::by(0, |x, y| x + y).run(&a).0);
    }

    #[test]
    fn try_scan_with_expired_deadline_is_typed() {
        let a: Vec<u64> = (0..(PAR_THRESHOLD as u64 * 2)).collect();
        let d = ScanDeadline::at(std::time::Instant::now());
        for sched in [
            Schedule::Pooled,
            Schedule::Lookback,
            Schedule::Spawn,
            Schedule::Sequential,
        ] {
            let got = crate::deadline::with_deadline(&d, || {
                Scan::by(0, |x, y| x + y)
                    .schedule(sched)
                    .try_run(&a)
                    .map(|r| r.0)
            });
            assert_eq!(got, Err(ExecError::DeadlineExceeded), "sched {sched:?}");
            // Infallible APIs never fail on a deadline (DESIGN.md §10).
            let got = crate::deadline::with_deadline(&d, || {
                Scan::by(0, |x, y| x + y).schedule(sched).run(&a).0
            });
            assert_eq!(
                got,
                seq_exclusive_scan_by(&a, 0, |x, y| x + y),
                "infallible, sched {sched:?}"
            );
        }
        let got = crate::deadline::with_deadline(&d, || Scan::by(0, |x, y| x + y).try_total(&a));
        assert_eq!(got, Err(ExecError::DeadlineExceeded));
    }

    #[test]
    fn try_scan_observes_mid_flight_cancellation() {
        // The load closure cancels the token partway through the up
        // sweep: deterministic mid-flight cancellation with no timing.
        let n = PAR_THRESHOLD * 4;
        let a: Vec<u64> = (0..n as u64).collect();
        for sched in [
            Schedule::Pooled,
            Schedule::Lookback,
            Schedule::Spawn,
            Schedule::Sequential,
        ] {
            let d = ScanDeadline::manual();
            let seen = AtomicUsize::new(0);
            let got = crate::deadline::with_deadline(&d, || {
                let d = &d;
                let seen = &seen;
                contain(|| {
                    engine(
                        sched,
                        n,
                        |i| {
                            if seen.fetch_add(1, Ordering::Relaxed) == 3 * CANCEL_STRIDE {
                                d.cancel();
                            }
                            a[i]
                        },
                        0u64,
                        |x, y| x + y,
                        |_, s| s,
                        Mode::ExclusiveFwd,
                        Some(d),
                    )
                })
            });
            assert_eq!(
                got.map(|r| r.1),
                Err(ExecError::Cancelled),
                "sched {sched:?}"
            );
            // The strided bail-out means cancellation stopped the work
            // well short of the two full passes.
            assert!(
                seen.load(Ordering::Relaxed) < 2 * n,
                "sched {sched:?} did all the work anyway"
            );
        }
    }

    #[test]
    fn try_scan_contains_operator_panics() {
        let n = PAR_THRESHOLD * 2;
        let a: Vec<u64> = (0..n as u64).collect();
        for sched in [
            Schedule::Pooled,
            Schedule::Lookback,
            Schedule::Spawn,
            Schedule::Sequential,
        ] {
            let got = Scan::by(0, |x, y| {
                assert!(x + y < 1_000_000, "operator exploded");
                x + y
            })
            .schedule(sched)
            .try_run(&a)
            .map(|r| r.0);
            assert!(
                matches!(got, Err(ExecError::WorkerLost { panics }) if panics >= 1),
                "sched {sched:?}: {got:?}"
            );
            // The infallible entry points re-raise the operator's own
            // panic; only `Spawn`'s thread scope raises its own message.
            let explode = |x: u64, y: u64| {
                assert!(x + y < 1_000_000, "operator exploded");
                x + y
            };
            for (what, msg) in [
                (
                    "run",
                    panic_message(|| Scan::by(0, explode).schedule(sched).run(&a).0),
                ),
                (
                    "total",
                    panic_message(|| Scan::by(0, explode).schedule(sched).total(&a)),
                ),
            ] {
                let msg = msg.unwrap_or_else(|| panic!("sched {sched:?}: {what} did not panic"));
                assert!(
                    sched == Schedule::Spawn || msg.contains("operator exploded"),
                    "sched {sched:?}: {what} raised {msg:?}"
                );
            }
        }
        // Small inputs take the sequential path inside the contained
        // engine call and must be contained there too.
        let small: Vec<u64> = (0..100).collect();
        let got = Scan::by(0, |_, _| -> u64 { panic!("tiny boom") })
            .try_run(&small)
            .map(|r| r.0);
        assert!(matches!(got, Err(ExecError::WorkerLost { .. })));
        let got = Scan::by(0, |_, _| -> u64 { panic!("tiny boom") }).try_total(&small);
        assert!(matches!(got, Err(ExecError::WorkerLost { .. })));
    }

    #[test]
    fn huge_interior_holds_only_whole_aligned_pages() {
        const H: usize = HUGE_PAGE;
        // Under 2 MiB: none, aligned or not.
        assert_eq!(huge_interior(4 * H, H - 1, 1), None);
        assert_eq!(huge_interior(4 * H + 16, H, 1), None);
        // Exactly one aligned page, in bytes or in `u64`s.
        assert_eq!(huge_interior(4 * H, H, 1), Some(4 * H..5 * H));
        assert_eq!(huge_interior(4 * H, H / 8, 8), Some(4 * H..5 * H));
        // 4 MiB from an unaligned start: the one page inside.
        assert_eq!(huge_interior(4 * H + 4096, 2 * H, 1), Some(5 * H..6 * H));
        // 32 MiB of `u64` behind the C allocator's 16-byte header: 15
        // of its 16 pages.
        assert_eq!(huge_interior(7 * H + 16, 1 << 22, 8), Some(8 * H..23 * H));
        // A zero-sized `T`: capacity `usize::MAX`, no bytes.
        let mut v: Vec<()> = Vec::with_capacity(1);
        assert_eq!(v.capacity(), usize::MAX);
        assert_eq!(huge_interior(v.as_ptr().addr(), v.capacity(), 0), None);
        advise_huge_pages(&mut v);
        // Overflow is none, never a panic: the byte count, the end, and
        // the first boundary past the start.
        assert_eq!(huge_interior(H, usize::MAX, 8), None);
        assert_eq!(huge_interior(usize::MAX - H, 2 * H, 1), None);
        assert_eq!(huge_interior(usize::MAX - 16, 0, 1), None);
    }

    /// The message of the panic `f` raises, or `None` if it returns.
    fn panic_message<R>(f: impl FnOnce() -> R) -> Option<String> {
        let payload = catch_unwind(AssertUnwindSafe(f)).err()?;
        Some(match payload.downcast_ref::<&str>() {
            Some(s) => s.to_string(),
            None => payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default(),
        })
    }

    use std::sync::atomic::{AtomicUsize, Ordering};
}
