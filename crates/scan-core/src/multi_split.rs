//! Fused multi-way split: one-pass histogram / rank / scatter.
//!
//! The paper's `split` (§2.2.1) routes elements into 2 buckets with two
//! enumerate-scans; the Connection Machine refinement splits into `2^w`
//! buckets by running one enumerate per bucket — `2^w` full scans and
//! `O(2^w · n)` traffic per radix pass. This module fuses the whole
//! pass into three sweeps of total work `O(n + blocks · 2^w)`:
//!
//! 1. **Histogram** — one read of the input. Each block computes a
//!    private bucket histogram and caches every element's bucket id in
//!    a `u16` digit buffer (so the scatter never re-evaluates the key
//!    function, which keeps the disjoint-write argument independent of
//!    the key closure's determinism).
//! 2. **One exclusive `+`-scan** over the `blocks × 2^w` count matrix,
//!    stored **column-major** (`mat[k * nblocks + b]` = count of bucket
//!    `k` in block `b`). Scanning the flat matrix in memory order walks
//!    bucket-major: after the scan, `mat[k * nblocks + b]` is exactly
//!    the output position of block `b`'s first element of bucket `k`,
//!    and the column heads `mat[k * nblocks]` are the bucket bases —
//!    both fall out of a single scan.
//! 3. **Scatter** — one write pass. Each block loads its cursor row
//!    from the scanned matrix and moves elements to their final
//!    positions through a per-block cursor array. For an output of at
//!    least 16 MiB, on a host with streaming stores, it stages them in
//!    one 64-byte line per bucket and writes each full line of its own
//!    segment with streaming stores, which skip the read for ownership
//!    (DESIGN.md §11).
//!
//! The result is stable: within a block, source order is preserved by
//! the monotone cursors; across blocks, by the block-major order of the
//! matrix columns. The inner loops are chunked (deadline checkpoints at
//! [`CANCEL_STRIDE`][crate::parallel] boundaries on the `try_*` path)
//! and branch-light so the compiler can keep them in registers.

use crate::deadline;
use crate::element::ScanElem;
use crate::error::{Error, Result};
use crate::parallel::{
    block_range, default_schedule, engine_width, go_parallel, plan_blocks, scan_span, Budget, Mode,
    NoDeadline, Schedule, SendPtr, CANCEL_STRIDE,
};
use crate::simd::{self, LINE};
use crate::sync::MinCell;
use core::ptr;

/// Maximum bucket count a single `multi_split` accepts (the digit
/// cache is `u16`, so bucket ids must fit 16 bits).
pub const MAX_BUCKETS: usize = 1 << 16;

/// Most buckets the staged scatter serves: 2048, a radix sort's 11-bit
/// digits, the top digit its split-first sort splits 32-bit keys on. The
/// staging lines, 64 bytes per bucket, then take 128 KiB per block and
/// stay in L2. Measured at 256 and 2048 buckets only (DESIGN.md §11):
/// a staged 2048-bucket pass costs about 1.2× a staged 256-bucket one,
/// and the direct scatter about 1.9×.
pub const MAX_STAGED_BUCKETS: usize = 2048;

/// Smallest `dst`, in bytes, the staged scatter serves. Streaming stores
/// pay only once the output no longer fits in cache: on a 2-vCPU Xeon
/// guest (2 MiB L2 per core), a warm 256-bucket pass of `u64` costs the
/// same either way at 16 MiB, 8–37% more streamed at 8 MiB, and 19–42%
/// less from 28 MiB on. The crossover moves with cache size, and this
/// value was tuned on that one host only. Unit tests and Miri stage
/// every eligible input (any non-empty `dst`), so the staging
/// arithmetic runs at the sizes they can check.
const MIN_STAGED_BYTES: usize = if cfg!(any(test, miri)) { 1 } else { 16 << 20 };

/// One bucket's staging line, aligned like the line of `dst` it fills.
#[repr(C, align(64))]
struct Line([u8; LINE]);

const _: () = assert!(align_of::<Line>() == LINE);

/// Whether a split of `len` elements of `T` into `nbuckets` buckets
/// takes the staged scatter when `stream` says whether full lines are
/// streamed ([`simd::stream_lines`] on this host): the element size is
/// a power of two no larger than a line, the staging lines fit
/// [`MAX_STAGED_BUCKETS`], the output holds at least 16 MiB, and
/// `stream` holds. Staging without streaming stores gains nothing, so
/// other hosts and inputs take the direct scatter. A `dst` must also be
/// aligned to the element size, which a `Vec<T>` always is. A radix
/// sort reads this to pick the digit width of its passes over a bucket
/// too big for cache.
pub fn stages<T>(len: usize, nbuckets: usize, stream: bool) -> bool {
    let size = size_of::<T>();
    size.is_power_of_two()
        && size <= LINE
        && nbuckets <= MAX_STAGED_BUCKETS
        && len.saturating_mul(size) >= MIN_STAGED_BYTES
        && stream
}

/// Whether phase 3 stages its output lines: [`stages`] on this host,
/// with `dst` aligned to its element size (so every line boundary
/// falls between elements). Unit tests and Miri stage without
/// streaming stores, with plain line copies, to check the staging
/// arithmetic.
fn staged<T>(dst: &[T], nbuckets: usize) -> bool {
    stages::<T>(
        dst.len(),
        nbuckets,
        cfg!(any(test, miri)) || simd::stream_lines(),
    ) && dst.as_ptr().addr().is_multiple_of(size_of::<T>())
}

/// Hands `put` the cached digit and the element at every index of `r`,
/// in order, checking `budget` every [`CANCEL_STRIDE`] elements. A spent
/// budget stops the block early; the post-phase check reports it.
/// Always inlined, so that the scatter closures' captures stay in
/// registers.
#[inline(always)]
fn for_each_digit<T: Copy, B: Budget>(
    src: &[T],
    digits: &[u16],
    r: core::ops::Range<usize>,
    budget: B,
    mut put: impl FnMut(usize, T),
) {
    let (Some(src), Some(digits)) = (src.get(r.clone()), digits.get(r)) else {
        return; // never taken: phase 1 split `src` on the same `r`
    };
    for (src, digits) in src.chunks(CANCEL_STRIDE).zip(digits.chunks(CANCEL_STRIDE)) {
        for (&x, &k) in src.iter().zip(digits) {
            put(usize::from(k), x);
        }
        if budget.check().is_err() {
            break; // `dst` stays initialized; caller sees the error
        }
    }
}

/// Reusable scratch for [`multi_split_into`]: the per-element digit
/// cache and the `blocks × buckets` count matrix. Hoisting the scratch
/// across the passes of a radix sort removes all per-pass allocation
/// beyond the ping-pong buffers themselves; a reused digit cache is
/// overwritten, not zeroed again.
#[derive(Debug, Default)]
pub struct MultiSplitScratch {
    digits: Vec<u16>,
    counts: Vec<usize>,
}

impl MultiSplitScratch {
    /// Empty scratch; the buffers grow on first use and are reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Shared fused implementation, under `budget` (see [`Budget`]).
/// Under [`NoDeadline`] operator panics propagate and the only
/// reachable errors are precondition violations (length mismatch /
/// out-of-range bucket).
fn multi_split_core<B, T, K>(
    sched: Schedule,
    src: &[T],
    dst: &mut [T],
    nbuckets: usize,
    key: &K,
    scratch: &mut MultiSplitScratch,
    budget: B,
) -> Result<Vec<usize>>
where
    B: Budget,
    T: ScanElem,
    K: Fn(T) -> usize + Sync,
{
    assert!(nbuckets >= 1, "multi_split: need at least one bucket");
    assert!(
        nbuckets <= MAX_BUCKETS,
        "multi_split: {nbuckets} buckets exceeds MAX_BUCKETS ({MAX_BUCKETS})"
    );
    let n = src.len();
    if dst.len() != n {
        return Err(Error::LengthMismatch {
            expected: n,
            actual: dst.len(),
        });
    }
    if n == 0 {
        return Ok(vec![0; nbuckets]);
    }

    let nblocks = if go_parallel(sched, n) {
        plan_blocks(n, engine_width(sched))
    } else {
        1
    };
    // A single block needs no cross-thread handoff under any schedule.
    let sched = if nblocks == 1 {
        Schedule::Sequential
    } else {
        sched
    };

    // Phase 1 writes every digit phase 3 reads, and every error returns
    // before phase 3, so the cache is never zero-filled: it is only
    // reserved here (a reused scratch pays nothing), phase 1 writes it
    // through its pointer, and its length is set once phase 1's checks
    // pass.
    scratch.digits.clear();
    scratch.digits.reserve(n);
    scratch.counts.clear();
    scratch.counts.resize(nblocks * nbuckets, 0);

    // Phase 1: per-block histograms + digit cache, one read of `src`.
    // First out-of-range bucket id seen by any block (MAX = none).
    let oob = MinCell::new(usize::MAX);
    {
        let dig = SendPtr::new(scratch.digits.as_mut_ptr());
        let cnt = SendPtr::new(scratch.counts.as_mut_ptr());
        let hist = |b: usize| {
            let r = block_range(n, nblocks, b);
            let mut local = vec![0usize; nbuckets];
            let dig = dig.get();
            let Some(block) = src.get(r.clone()) else {
                // `r` lies in `0..n`: never taken, but no digit of `r`
                // is written, so the split must fail.
                oob.lower(nbuckets);
                return;
            };
            let chunks = (r.start..).step_by(CANCEL_STRIDE);
            'chunks: for (lo, chunk) in chunks.zip(block.chunks(CANCEL_STRIDE)) {
                for (i, &x) in chunk.iter().enumerate() {
                    let k = key(x);
                    let Some(c) = local.get_mut(k) else {
                        oob.lower(k);
                        break 'chunks;
                    };
                    *c += 1;
                    // SAFETY: `i + lo` is in this block's disjoint range.
                    unsafe { dig.add(lo + i).write(k as u16) };
                }
                if budget.check().is_err() {
                    break; // bail latch; post-phase check is authoritative
                }
            }
            let cnt = cnt.get();
            for (k, &c) in local.iter().enumerate() {
                // SAFETY: column-major slot (k, b) is written only by block b.
                unsafe { cnt.add(k * nblocks + b).write(c) };
            }
        };
        budget
            .run_blocks(sched, nblocks, hist)
            .map_err(B::exec_error)?;
    }
    let bad = oob.get();
    if bad != usize::MAX {
        return Err(Error::IndexOutOfBounds {
            index: bad,
            len: nbuckets,
        });
    }
    budget.check().map_err(B::exec_error)?;
    // SAFETY: the capacity is at least `n` (reserved above), and every
    // block ran its whole range: a block stops early only on an
    // out-of-range digit (also latched for a range outside `src`) or a
    // failed budget check, and both return above (a deadline or
    // cancellation, once seen, stays seen). So digits `0..n` are all
    // written.
    unsafe { scratch.digits.set_len(n) };

    // Phase 2: ONE exclusive +-scan over the flat column-major matrix.
    // Memory order is bucket-major then block-major, so the scanned
    // slot (k, b) is the stable output offset for that (bucket, block)
    // pair, and column heads are the bucket bases.
    // In place through `scan_span`, the scans' own loop: it loads index
    // `i` before it writes `i` and never visits `i` again, so reading
    // through the write pointer is sound.
    let acc = {
        let m = scratch.counts.len();
        let ptr = SendPtr::new(scratch.counts.as_mut_ptr());
        // SAFETY: single-threaded pass; `scan_span` loads index `i`
        // before it writes `i`, and never visits `i` again.
        let load = |i: usize| unsafe { *ptr.get().add(i) };
        // SAFETY: as above — `i` was already loaded when this runs, and
        // is not loaded again.
        let mut write = |i: usize, s: usize| unsafe { ptr.get().add(i).write(s) };
        scan_span(
            0..m,
            &load,
            0usize,
            &|a: usize, b: usize| a.wrapping_add(b),
            Mode::ExclusiveFwd,
            &mut write,
        )
    };
    debug_assert_eq!(acc, n, "histogram must cover the input exactly");
    // Bucket k's count is the next column head (or `acc`) less its own.
    let heads = scratch.counts.iter().step_by(nblocks);
    let counts: Vec<usize> = heads
        .clone()
        .zip(heads.skip(1).chain([&acc]))
        .map(|(&base, &next)| next - base)
        .collect();

    // Phase 3: scatter, one write pass over `dst`.
    {
        let staged = staged(dst, nbuckets);
        let stream = staged && simd::stream_lines();
        let dst_addr = dst.as_ptr().addr();
        let out = SendPtr::new(dst.as_mut_ptr());
        let mat = &scratch.counts;
        let digits = &scratch.digits;
        let scat = |b: usize| {
            let r = block_range(n, nblocks, b);
            let mut cur: Vec<usize> = mat.iter().skip(b).step_by(nblocks).copied().collect();
            let out = out.get();
            if !staged {
                for_each_digit(src, digits, r, budget, |k, x| {
                    // Phase 1 checked every digit against `nbuckets`.
                    let Some(c) = cur.get_mut(k) else { return };
                    let p = *c;
                    *c = p + 1;
                    // SAFETY: positions are an exact partition of 0..n —
                    // block b's bucket-k cursor starts at the scanned
                    // matrix slot (k, b) and advances once per cached
                    // digit, so no two writes (in any block) collide.
                    unsafe { out.add(p).write(x) };
                });
                return;
            }
            // Staged: bucket k's pending elements wait in line k, at the
            // slot their output position has in its 64-byte line of
            // `dst`. Block b owns `from..cur` of bucket k's segment.
            // `lanes` is computed where it is used, so it folds to a
            // constant.
            let phase = dst_addr % LINE / size_of::<T>(); // slot of dst[0]
            let mut seg: Vec<[usize; 2]> = cur.into_iter().map(|c| [c, c]).collect();
            let mut lines = Box::<[Line]>::new_uninit_slice(nbuckets);
            let stage = lines.as_mut_ptr().cast::<T>();
            for_each_digit(src, digits, r, budget, |k, x| {
                let lanes = LINE / size_of::<T>();
                // Phase 1 checked every digit against `nbuckets`.
                let Some([from, cur]) = seg.get_mut(k) else {
                    return;
                };
                let (from, p) = (*from, *cur);
                *cur = p + 1;
                let s = (phase + p) % lanes;
                // SAFETY: `seg.get_mut(k)` succeeded, so k < nbuckets, and
                // s < lanes: the slot lies in `lines[k]`. Lines are 64-byte
                // aligned and `size_of::<T>()` is a power of two no larger
                // than 64, so the slot is aligned for `T`.
                unsafe { stage.add(k * lanes + s).write(x) };
                if s + 1 < lanes {
                    return;
                }
                // Position p ends its line. Every slot from the line's
                // start, or from `from` if that is later, holds this
                // block's element for that position.
                if p + 1 >= from + lanes {
                    // SAFETY: the whole line `p + 1 - lanes..=p` lies in
                    // block b's own segment (as in the direct path, no
                    // other write touches it), and it starts 64-byte
                    // aligned because p ends a line of `dst`'s addresses.
                    // The fence below ends the block's streamed stores.
                    unsafe {
                        simd::copy_line(
                            out.add(p + 1 - lanes).cast(),
                            stage.add(k * lanes).cast(),
                            stream,
                        );
                    }
                } else {
                    let m = p + 1 - from;
                    // SAFETY: `from..=p` is block b's own and was staged
                    // in the line's last m slots.
                    unsafe {
                        ptr::copy_nonoverlapping(
                            stage.add(k * lanes + lanes - m),
                            out.add(from),
                            m,
                        );
                    }
                }
            });
            // Each bucket's unfinished last line: the m positions before
            // `cur` that share its line and that block b owns.
            let lanes = LINE / size_of::<T>();
            for (k, &[from, cur]) in seg.iter().enumerate() {
                let s = (phase + cur) % lanes;
                let m = s.min(cur - from);
                // SAFETY: `cur - m..cur` is block b's own, staged in slots
                // `s - m..s` of line k since the line's last flush.
                unsafe {
                    ptr::copy_nonoverlapping(stage.add(k * lanes + s - m), out.add(cur - m), m)
                };
            }
            simd::line_fence(stream);
        };
        budget
            .run_blocks(sched, nblocks, scat)
            .map_err(B::exec_error)?;
        budget.check().map_err(B::exec_error)?;
    }
    Ok(counts)
}

/// Stable `nbuckets`-way split of `src` into `dst` under an explicit
/// schedule, returning the per-bucket counts. `key` maps each element
/// to its bucket in `0..nbuckets`; elements are grouped by bucket in
/// the output, preserving input order within each bucket (exactly the
/// order `⌈d/w⌉` radix passes need).
///
/// # Panics
/// If `nbuckets` is 0 or exceeds [`MAX_BUCKETS`], if `dst.len() !=
/// src.len()`, or if `key` returns a bucket `>= nbuckets`.
pub fn multi_split_into_sched<T, K>(
    sched: Schedule,
    src: &[T],
    dst: &mut [T],
    nbuckets: usize,
    key: K,
    scratch: &mut MultiSplitScratch,
) -> Vec<usize>
where
    T: ScanElem,
    K: Fn(T) -> usize + Sync,
{
    match multi_split_core(sched, src, dst, nbuckets, &key, scratch, NoDeadline) {
        Ok(counts) => counts,
        Err(Error::IndexOutOfBounds { index, len }) => {
            panic!("multi_split: key mapped to bucket {index}, but only {len} buckets exist")
        }
        Err(e) => panic!("multi_split: {e}"),
    }
}

/// [`multi_split_into_sched`] under the process-default schedule.
pub fn multi_split_into<T, K>(
    src: &[T],
    dst: &mut [T],
    nbuckets: usize,
    key: K,
    scratch: &mut MultiSplitScratch,
) -> Vec<usize>
where
    T: ScanElem,
    K: Fn(T) -> usize + Sync,
{
    multi_split_into_sched(default_schedule(), src, dst, nbuckets, key, scratch)
}

/// Allocating convenience: stable multi-way split returning the
/// reordered vector and the per-bucket counts.
pub fn multi_split_by<T, K>(a: &[T], nbuckets: usize, key: K) -> (Vec<T>, Vec<usize>)
where
    T: ScanElem,
    K: Fn(T) -> usize + Sync,
{
    if a.is_empty() {
        return (Vec::new(), vec![0; nbuckets.max(1)]);
    }
    let mut dst = a.to_vec(); // fully overwritten by the scatter
    let mut scratch = MultiSplitScratch::new();
    let counts = multi_split_into(a, &mut dst, nbuckets, key, &mut scratch);
    (dst, counts)
}

/// Fallible [`multi_split_into_sched`]: cooperates with the ambient
/// [`ScanDeadline`][crate::ScanDeadline] (checked at block boundaries
/// and every few thousand elements), contains operator panics as
/// [`ExecError::WorkerLost`][crate::ExecError::WorkerLost], and
/// reports an out-of-range bucket as [`Error::IndexOutOfBounds`]
/// instead of panicking. On error, `dst`'s contents are unspecified
/// (but initialized).
pub fn try_multi_split_into_sched<T, K>(
    sched: Schedule,
    src: &[T],
    dst: &mut [T],
    nbuckets: usize,
    key: K,
    scratch: &mut MultiSplitScratch,
) -> Result<Vec<usize>>
where
    T: ScanElem,
    K: Fn(T) -> usize + Sync,
{
    let d = deadline::current();
    multi_split_core(sched, src, dst, nbuckets, &key, scratch, d.as_ref())
}

/// [`try_multi_split_into_sched`] under the process-default schedule.
pub fn try_multi_split_into<T, K>(
    src: &[T],
    dst: &mut [T],
    nbuckets: usize,
    key: K,
    scratch: &mut MultiSplitScratch,
) -> Result<Vec<usize>>
where
    T: ScanElem,
    K: Fn(T) -> usize + Sync,
{
    try_multi_split_into_sched(default_schedule(), src, dst, nbuckets, key, scratch)
}

/// Fallible allocating convenience.
pub fn try_multi_split_by<T, K>(a: &[T], nbuckets: usize, key: K) -> Result<(Vec<T>, Vec<usize>)>
where
    T: ScanElem,
    K: Fn(T) -> usize + Sync,
{
    deadline::checkpoint()?;
    if a.is_empty() {
        return Ok((Vec::new(), vec![0; nbuckets.max(1)]));
    }
    let mut dst = a.to_vec();
    let mut scratch = MultiSplitScratch::new();
    let counts = try_multi_split_into(a, &mut dst, nbuckets, key, &mut scratch)?;
    Ok((dst, counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecError, ScanDeadline};

    fn keys(seed: u64, n: usize, bits: u32) -> Vec<u64> {
        let mask = if bits >= 64 {
            u64::MAX
        } else {
            (1 << bits) - 1
        };
        let mut x = seed;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x & mask
            })
            .collect()
    }

    fn reference<T: ScanElem>(
        a: &[T],
        nbuckets: usize,
        key: impl Fn(T) -> usize,
    ) -> (Vec<T>, Vec<usize>) {
        let mut out = Vec::with_capacity(a.len());
        let mut counts = vec![0usize; nbuckets];
        for (k, c) in counts.iter_mut().enumerate() {
            for &x in a {
                if key(x) == k {
                    out.push(x);
                    *c += 1;
                }
            }
        }
        (out, counts)
    }

    #[test]
    fn splits_small_input_stably() {
        let a = [5u64, 7, 3, 1, 4, 2, 7, 2];
        let (got, counts) = multi_split_by(&a, 4, |k| (k & 3) as usize);
        let (want, want_counts) = reference(&a, 4, |k| (k & 3) as usize);
        assert_eq!(got, want);
        assert_eq!(counts, want_counts);
        assert_eq!(counts.iter().sum::<usize>(), a.len());
    }

    #[test]
    fn matches_reference_across_sizes_and_schedules() {
        for sched in [Schedule::Sequential, Schedule::Pooled, Schedule::Spawn] {
            for n in [
                0usize,
                1,
                5,
                1000,
                crate::parallel::PAR_THRESHOLD - 1,
                crate::parallel::PAR_THRESHOLD + 3,
            ] {
                let a = keys(0x9E3779B97F4A7C15 ^ n as u64, n, 8);
                let key = |k: u64| (k & 15) as usize;
                let mut dst = vec![0u64; n];
                let mut scratch = MultiSplitScratch::new();
                let counts = multi_split_into_sched(sched, &a, &mut dst, 16, key, &mut scratch);
                let (want, want_counts) = reference(&a, 16, key);
                assert_eq!(dst, want, "sched={sched:?} n={n}");
                assert_eq!(counts, want_counts, "sched={sched:?} n={n}");
            }
        }
    }

    #[test]
    fn scratch_reuse_across_changing_shapes() {
        let mut scratch = MultiSplitScratch::new();
        for (n, nbuckets) in [(100usize, 4usize), (17, 256), (3000, 2), (100, 100)] {
            let a = keys(n as u64 * 31 + nbuckets as u64, n, 32);
            let key = move |k: u64| (k as usize) % nbuckets;
            let mut dst = vec![0u64; n];
            let counts = multi_split_into(&a, &mut dst, nbuckets, key, &mut scratch);
            let (want, want_counts) = reference(&a, nbuckets, key);
            assert_eq!(dst, want);
            assert_eq!(counts, want_counts);
        }
        // Two failing calls leave the digit cache part-written (phase 1
        // of the first stops at an out-of-range bucket, the second never
        // starts); a smaller and then a larger shape must not read what
        // they left.
        let a = keys(0xFA11, 5000, 32);
        let mut dst = vec![0u64; a.len()];
        let oob = try_multi_split_into(&a, &mut dst, 4, |k| (k % 5) as usize, &mut scratch);
        assert!(matches!(oob, Err(Error::IndexOutOfBounds { len: 4, .. })));
        let d = ScanDeadline::manual();
        d.cancel();
        let cancelled = deadline::with_deadline(&d, || {
            try_multi_split_into(&a, &mut dst, 8, |k| (k % 8) as usize, &mut scratch)
        });
        assert_eq!(cancelled, Err(Error::Exec(ExecError::Cancelled)));
        for (n, nbuckets) in [(1000usize, 16usize), (9000, 64)] {
            let a = keys(n as u64 * 17 + nbuckets as u64, n, 32);
            let key = move |k: u64| (k as usize) % nbuckets;
            let mut dst = vec![0u64; n];
            let counts = multi_split_into(&a, &mut dst, nbuckets, key, &mut scratch);
            let (want, want_counts) = reference(&a, nbuckets, key);
            assert_eq!(dst, want, "n={n} buckets={nbuckets}");
            assert_eq!(counts, want_counts, "n={n} buckets={nbuckets}");
        }
    }

    #[test]
    fn single_bucket_is_identity() {
        let a = keys(7, 257, 64);
        let (got, counts) = multi_split_by(&a, 1, |_| 0);
        assert_eq!(got, a);
        assert_eq!(counts, vec![257]);
    }

    #[test]
    fn empty_input() {
        let (got, counts) = multi_split_by::<u64, _>(&[], 8, |_| 0);
        assert!(got.is_empty());
        assert_eq!(counts, vec![0; 8]);
    }

    #[test]
    fn tuples_split_stably() {
        // Pair payloads tag the original index; equal buckets keep order.
        let a: Vec<(u64, u64)> = [3u64, 1, 3, 1, 3, 0]
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u64))
            .collect();
        let (got, _) = multi_split_by(&a, 4, |(k, _)| k as usize);
        assert_eq!(got, vec![(0, 5), (1, 1), (1, 3), (3, 0), (3, 2), (3, 4)]);
    }

    #[test]
    #[should_panic(expected = "only 4 buckets exist")]
    fn out_of_range_bucket_panics() {
        let a = [1u64, 2, 9];
        multi_split_by(&a, 4, |k| k as usize);
    }

    #[test]
    fn try_reports_out_of_range_bucket() {
        let a = keys(3, 100, 8);
        let mut dst = vec![0u64; 100];
        let mut scratch = MultiSplitScratch::new();
        let r = try_multi_split_into(&a, &mut dst, 4, |k| k as usize, &mut scratch);
        assert!(matches!(r, Err(Error::IndexOutOfBounds { len: 4, .. })));
    }

    #[test]
    fn try_reports_length_mismatch() {
        let a = [1u64, 2, 3];
        let mut dst = vec![0u64; 2];
        let mut scratch = MultiSplitScratch::new();
        let r = try_multi_split_into(&a, &mut dst, 2, |k| (k & 1) as usize, &mut scratch);
        assert_eq!(
            r,
            Err(Error::LengthMismatch {
                expected: 3,
                actual: 2
            })
        );
    }

    #[test]
    fn try_honors_cancelled_deadline() {
        for sched in [Schedule::Sequential, Schedule::Pooled, Schedule::Spawn] {
            let a = keys(11, crate::parallel::PAR_THRESHOLD * 2, 8);
            let d = ScanDeadline::manual();
            d.cancel();
            let r = deadline::with_deadline(&d, || {
                try_multi_split_by(&a, 16, |k| (k & 15) as usize).map(|(v, _)| v[0])
            });
            let _ = sched; // schedules share the ambient-deadline path
            assert_eq!(r, Err(Error::Exec(ExecError::Cancelled)));
        }
    }

    /// An element type for the line-shape sweep: built from a random
    /// word, bucketed by a key drawn from it.
    trait Elem: ScanElem {
        fn make(x: u64) -> Self;
        fn key(self) -> u64;
    }
    impl Elem for u32 {
        fn make(x: u64) -> Self {
            x as u32
        }
        fn key(self) -> u64 {
            u64::from(self)
        }
    }
    impl Elem for u64 {
        fn make(x: u64) -> Self {
            x
        }
        fn key(self) -> u64 {
            self
        }
    }
    impl Elem for (u64, u64) {
        fn make(x: u64) -> Self {
            (x, !x)
        }
        fn key(self) -> u64 {
            self.0
        }
    }
    /// 16 bytes, 4 of them padding.
    impl Elem for (u64, u32) {
        fn make(x: u64) -> Self {
            (x, x as u32)
        }
        fn key(self) -> u64 {
            self.0
        }
    }
    /// 8 bytes at 4-byte alignment: staged only where `dst` is 8-aligned.
    impl Elem for [u32; 2] {
        fn make(x: u64) -> Self {
            [x as u32, (x >> 32) as u32]
        }
        fn key(self) -> u64 {
            u64::from(self[0])
        }
    }
    /// 12 bytes: never staged.
    impl Elem for [u32; 3] {
        fn make(x: u64) -> Self {
            [x as u32, (x >> 32) as u32, 7]
        }
        fn key(self) -> u64 {
            u64::from(self[0])
        }
    }

    /// The staging cutoff is a radix sort's 2048 buckets (11-bit digits).
    const SWEEP_BUCKETS: [usize; 4] = [1, 2, MAX_STAGED_BUCKETS, MAX_STAGED_BUCKETS + 1];
    const SWEEP_SCHEDS: [Schedule; 3] = [Schedule::Sequential, Schedule::Pooled, Schedule::Spawn];

    /// Straddles the parallel cutoff; no size is a multiple of a line.
    fn sweep_sizes() -> [usize; 3] {
        let t = crate::parallel::PAR_THRESHOLD;
        [37, t - 1, t + 3]
    }

    /// Split `a` into every `dst` that `dsts` yields, under every
    /// schedule and sweep bucket count, against a stable sort by bucket.
    fn sweep<T: Elem>(mut dsts: impl FnMut(usize, &mut dyn FnMut(&mut [T]))) {
        for n in sweep_sizes() {
            let a: Vec<T> = keys(0xC0FFEE ^ n as u64, n, 64)
                .into_iter()
                .map(T::make)
                .collect();
            for nbuckets in SWEEP_BUCKETS {
                let key = move |x: T| (x.key() % nbuckets as u64) as usize;
                let mut want = a.clone();
                want.sort_by_key(|&x| key(x));
                let mut want_counts = vec![0usize; nbuckets];
                for &x in &a {
                    want_counts[key(x)] += 1;
                }
                dsts(n, &mut |dst: &mut [T]| {
                    for sched in SWEEP_SCHEDS {
                        let mut scratch = MultiSplitScratch::new();
                        let counts =
                            multi_split_into_sched(sched, &a, dst, nbuckets, key, &mut scratch);
                        let at = dst.as_ptr().addr() % LINE;
                        let shape = format!(
                            "{} n={n} buckets={nbuckets} {sched:?} dst%64={at}",
                            core::any::type_name::<T>()
                        );
                        assert!(dst == want.as_slice(), "{shape}");
                        assert_eq!(counts, want_counts, "{shape}");
                    }
                });
            }
        }
    }

    /// `dst` as `&mut buf[o..]` for o = 0..8, so lines start at every
    /// element offset a `Vec`'s own alignment allows.
    fn offset_dsts<T: Elem>(n: usize, run: &mut dyn FnMut(&mut [T])) {
        let mut buf = vec![T::make(0); n + 8];
        for o in 0..8 {
            run(&mut buf[o..o + n]);
        }
    }

    #[test]
    fn staged_scatter_matches_reference_for_every_line_shape() {
        sweep::<u32>(offset_dsts);
        sweep::<u64>(offset_dsts);
        sweep::<(u64, u64)>(offset_dsts);
        sweep::<(u64, u32)>(offset_dsts);
        sweep::<[u32; 3]>(offset_dsts);
        // 8-byte elements at every 4-byte offset: half of them are
        // misaligned for their size and take the direct scatter.
        sweep::<[u32; 2]>(|n, run| {
            let mut words = vec![0u32; 2 * n + 8];
            for o in 0..8 {
                let pairs = words[o..o + 2 * n].as_mut_ptr().cast::<[u32; 2]>();
                // SAFETY: `[u32; 2]` has `u32`'s alignment, and its n
                // elements are the 2n words of the subslice.
                run(unsafe { core::slice::from_raw_parts_mut(pairs, n) });
            }
        });
    }

    #[test]
    fn staging_is_chosen_from_size_alignment_and_buckets() {
        let words = vec![0u32; 64];
        assert!(staged(&words[1..], MAX_STAGED_BUCKETS));
        assert!(!staged(&words[1..], MAX_STAGED_BUCKETS + 1));
        let pairs_at = |o: usize| {
            let p = words[o..].as_ptr().cast::<[u32; 2]>();
            // SAFETY: `[u32; 2]` has `u32`'s alignment, and 4 of them
            // fit in the words from `o` on.
            unsafe { core::slice::from_raw_parts(p, 4) }
        };
        let even = usize::from(!words.as_ptr().addr().is_multiple_of(8));
        assert!(staged(pairs_at(even), 256));
        assert!(!staged(pairs_at(even + 1), 256));
        assert!(!staged(&[[0u32; 3]; 4], 256));
        assert!(!staged(&[(); 4], 256));
        assert!(!staged(&[[0u64; 16]; 2], 2));
    }

    #[test]
    fn try_matches_infallible_when_unbounded() {
        let a = keys(23, crate::parallel::PAR_THRESHOLD + 17, 16);
        let key = |k: u64| (k & 0xFF) as usize;
        let (want, want_counts) = multi_split_by(&a, 256, key);
        let (got, counts) = try_multi_split_by(&a, 256, key).unwrap();
        assert_eq!(got, want);
        assert_eq!(counts, want_counts);
    }
}
