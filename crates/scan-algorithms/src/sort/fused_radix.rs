//! Multi-digit split radix sort on the fused `multi_split` engine.
//!
//! Algorithmically identical to
//! [`split_radix_sort_digits_ctx`][crate::sort::radix::split_radix_sort_digits_ctx]
//! — `⌈key_bits / digit_bits⌉` stable passes over `2^digit_bits`
//! buckets — but each pass runs as ONE fused histogram / scan /
//! scatter ([`scan_core::multi_split`]) over ping-pong buffers instead
//! of `2^w` whole-vector enumerate-scans, cutting the per-pass work
//! from `O(2^w · n)` to `O(n + blocks · 2^w)`. Step charges on the
//! `Ctx` machine are unchanged (see [`Ctx::multi_split`][Ctx]): fusion
//! is an execution detail, not a different scan-model algorithm.
//!
//! Each pass moves every key once in and once out. Pass 1 reads the
//! caller's keys (or the zipped pairs) directly, and both ping-pong
//! buffers are zeroed allocations, whose pages the OS maps on first
//! write, so no copy of the input precedes the first pass. Both are
//! advised onto transparent huge pages before that write
//! ([`advise_huge_pages`]), so a 32 MiB buffer faults about 528 times
//! instead of 8193. From a 16 MiB output on, on a host with streaming
//! stores, the scatter writes whole output lines with them (DESIGN.md
//! §11). Key widths above 64 sort as 64: every `u64` key fits.
//!
//! [`fused_radix_sort`] and [`try_fused_radix_sort`] sort large inputs
//! split-first, as the paper's segmented quicksort (§2.3.1) splits once
//! and then sorts every segment on its own. Where a 2048-bucket pass
//! over the keys stages and streams its lines (from 2^21 keys on a host
//! with streaming stores), one pooled split on the keys' top digit of
//! at most 11 bits writes the one fresh output, and every bucket is
//! then sorted in place on the bits below that digit: buckets of at
//! most 2^16 keys by a sequential LSD in cache, many to a pool task,
//! larger ones by pooled `multi_split` passes. The top digit ends at the
//! highest set bit of the keys' OR, so keys declared wider than they
//! are do not spend the split on zero bits. Everywhere else (below
//! 16 MiB of keys, under `SCAN_CORE_SIMD=0`, off `x86_64`) they run
//! 8-bit digit passes (DESIGN.md §11).

use scan_core::multi_split::{
    multi_split_into, stages, try_multi_split_into, MultiSplitScratch, MAX_STAGED_BUCKETS,
};
use scan_core::parallel::advise_huge_pages;
use scan_core::{pool, simd, Error, Or, Result, Scan};
use scan_pram::{Ctx, Model};
use std::borrow::Cow;
use std::convert::Infallible;
use std::sync::{Mutex, PoisonError};

/// Largest bucket, in keys, that the split-first sort sorts in cache:
/// 2^16 `u64` keys are 512 KiB, so a bucket and its scratch fit one
/// core's 2 MiB L2 (the 2-vCPU Xeon guest the sort was tuned on).
/// Larger buckets take pooled `multi_split` passes.
const CACHE_BUCKET: usize = 1 << 16;

/// The OR of all keys, which holds every bit a key uses, or `Err` with
/// the first key that does not fit in `key_bits` bits. One pooled OR
/// clears an input that fits; only a bad key pays for the sequential
/// search that names the first one.
fn keys_or(keys: &[u64], key_bits: u32) -> core::result::Result<u64, u64> {
    let or = Scan::op::<Or, u64>().total(keys);
    if key_bits >= u64::BITS || or >> key_bits == 0 {
        return Ok(or);
    }
    keys.iter()
        .copied()
        .find(|&k| k >> key_bits != 0)
        .map_or(Ok(or), Err)
}

/// The key width the radix passes visit — `key_bits`, clamped to 64,
/// since every `u64` key fits 64 bits — or `Err` with the first key
/// that does not fit in `key_bits` bits ([`keys_or`]).
fn key_width(keys: &[u64], key_bits: u32) -> core::result::Result<u32, u64> {
    if key_bits >= u64::BITS {
        return Ok(u64::BITS);
    }
    keys_or(keys, key_bits).map(|_| key_bits)
}

/// The width of each of the fewest balanced digits of at most 11 bits
/// (a 2048-bucket pass) that cover `key_bits`, clamped to `1..=64`.
fn wide_digit(key_bits: u32) -> u32 {
    let key_bits = key_bits.clamp(1, u64::BITS);
    key_bits.div_ceil(key_bits.div_ceil(MAX_STAGED_BUCKETS.ilog2()))
}

/// The digit width of `n` keys of `key_bits` bits, where `stream` says
/// whether this host streams `multi_split`'s lines: [`wide_digit`] when
/// a 2048-bucket pass over the keys takes the staged scatter, otherwise
/// 8 bits. Both are capped at `key_bits`. [`split_first`]'s buckets
/// above [`CACHE_BUCKET`] keys take it.
fn digit_bits(key_bits: u32, n: usize, stream: bool) -> u32 {
    if !stages::<u64>(n, MAX_STAGED_BUCKETS, stream) {
        return key_bits.clamp(1, 8);
    }
    wide_digit(key_bits)
}

/// Whether [`fused_radix_sort`] and [`try_fused_radix_sort`] sort `n`
/// keys [`split_first`], where `stream` says whether this host streams
/// `multi_split`'s lines: exactly where a 2048-bucket pass over them
/// takes the staged scatter, so the split streams the one fresh output.
fn splits_first(n: usize, stream: bool) -> bool {
    stages::<u64>(n, MAX_STAGED_BUCKETS, stream)
}

/// A key's `width`-bit digit at bit `shift`, as a bucket id.
fn digit_at(shift: u32, width: u32) -> impl Fn(u64) -> usize + Copy + Sync {
    let mask = (1u64 << width) - 1;
    move |k| ((k >> shift) & mask) as usize
}

/// `r`'s value, or the panic of the infallible sorts for a key that
/// does not fit in `key_bits` bits.
///
/// # Panics
/// If `r` names such a key.
fn expect_fits<T>(r: core::result::Result<T, u64>, key_bits: u32) -> T {
    r.unwrap_or_else(|bad| panic!("key {bad} does not fit in {key_bits} bits"))
}

/// `r`, with a key that does not fit in `key_bits` bits as an
/// [`Error::WidthOverflow`].
fn check_fits<T>(r: core::result::Result<T, u64>, key_bits: u32) -> Result<T> {
    r.map_err(|bad| Error::WidthOverflow {
        required: 64 - bad.leading_zeros(),
        available: key_bits,
    })
}

/// [`key_width`] for the infallible sorts.
///
/// # Panics
/// If a key does not fit in `key_bits` bits.
pub(crate) fn expect_key_width(keys: &[u64], key_bits: u32) -> u32 {
    expect_fits(key_width(keys, key_bits), key_bits)
}

/// [`key_width`] for the `try_*` sorts: a key that does not fit is an
/// [`Error::WidthOverflow`].
pub(crate) fn check_key_width(keys: &[u64], key_bits: u32) -> Result<u32> {
    check_fits(key_width(keys, key_bits), key_bits)
}

/// The digit passes of one sort over two ping-pong buffers, returning
/// the sorted one. `pass(src, dst, shift)` splits `src` into `dst` by
/// the digit at bit `shift`. Pass 1 reads `input` itself, so nothing
/// copies it first. An owned `input` becomes the second buffer; a new
/// buffer starts zeroed, so its pages are mapped on first write, and is
/// advised onto transparent huge pages before it. With no passes,
/// `input` is returned as a `Vec`.
fn ping_pong<T, E>(
    input: Cow<'_, [T]>,
    key_bits: u32,
    digit_bits: u32,
    mut pass: impl FnMut(&[T], &mut [T], u32) -> core::result::Result<(), E>,
) -> core::result::Result<Vec<T>, E>
where
    T: Copy + Default,
{
    if key_bits == 0 {
        return Ok(input.into_owned());
    }
    let n = input.len();
    let fresh = || {
        let mut v = vec![T::default(); n];
        advise_huge_pages(&mut v);
        v
    };
    let mut a = fresh();
    pass(&input, &mut a, 0)?;
    let mut b = match input {
        Cow::Owned(v) => v,
        Cow::Borrowed(_) => fresh(),
    };
    let mut shift = digit_bits;
    while shift < key_bits {
        pass(&a, &mut b, shift)?;
        core::mem::swap(&mut a, &mut b);
        shift += digit_bits;
    }
    Ok(a)
}

/// The split-first sort of `keys`, whose OR is `or`. One split on the
/// top [`wide_digit`] of the OR's width writes the one fresh output,
/// advised onto transparent huge pages; every bucket is then sorted in
/// place on the bits below that digit. Buckets of at most
/// [`CACHE_BUCKET`] keys go, about 16 tasks' worth per pool lane, to
/// [`sort_in_cache`]; each larger one takes `pass`es at [`digit_bits`]'
/// width, ping-ponging with one scratch shared by all of them.
///
/// `pass(src, dst, shift, width)` splits `src` into `dst` by the
/// `width`-bit digit at bit `shift` and returns the bucket counts;
/// `fan_out(ntasks, task)` runs `task(0..ntasks)` on the pool.
fn split_first<E>(
    keys: &[u64],
    or: u64,
    mut pass: impl FnMut(&[u64], &mut [u64], u32, u32) -> core::result::Result<Vec<usize>, E>,
    fan_out: impl FnOnce(usize, &(dyn Fn(usize) + Sync)) -> core::result::Result<(), E>,
) -> core::result::Result<Vec<u64>, E> {
    let bits = u64::BITS - or.leading_zeros();
    if bits == 0 {
        return Ok(keys.to_vec());
    }
    let top = wide_digit(bits);
    let low = bits - top;
    let mut out = vec![0u64; keys.len()];
    advise_huge_pages(&mut out);
    let counts = pass(keys, &mut out, low, top)?;
    if low == 0 {
        return Ok(out);
    }

    // Cut `out` into its buckets: the small ones in groups of about
    // `share` keys, one group per task, and each big one alone. A bucket
    // of one key is sorted already.
    let small: usize = counts.iter().filter(|&&c| c <= CACHE_BUCKET).sum();
    let share = small.div_ceil(16 * pool::global().threads()).max(1);
    let (mut tasks, mut big) = (Vec::new(), Vec::new());
    let (mut group, mut grouped) = (Vec::new(), 0);
    let mut rest = out.as_mut_slice();
    for &c in &counts {
        let (bucket, tail) = core::mem::take(&mut rest).split_at_mut(c);
        rest = tail;
        if c < 2 {
            continue;
        }
        if c > CACHE_BUCKET {
            big.push(bucket);
            continue;
        }
        group.push(bucket);
        grouped += c;
        if grouped >= share {
            tasks.push(Mutex::new(core::mem::take(&mut group)));
            grouped = 0;
        }
    }
    if !group.is_empty() {
        tasks.push(Mutex::new(group));
    }
    fan_out(tasks.len(), &|i| {
        if let Some(group) = tasks.get(i) {
            let mut group = group.lock().unwrap_or_else(PoisonError::into_inner);
            sort_in_cache(&mut group, low);
        }
    })?;
    drop(tasks); // ends the groups' borrows of `out`

    let mut scratch = vec![0u64; big.iter().map(|b| b.len()).max().unwrap_or(0)];
    advise_huge_pages(&mut scratch);
    for bucket in big {
        let Some(tmp) = scratch.get_mut(..bucket.len()) else {
            continue;
        };
        let width = digit_bits(low, bucket.len(), simd::stream_lines());
        let mut shift = 0;
        while shift < low {
            pass(bucket, tmp, shift, width)?;
            shift += width;
            if shift < low {
                pass(tmp, bucket, shift, width)?;
                shift += width;
            } else {
                bucket.copy_from_slice(tmp);
            }
        }
    }
    Ok(out)
}

/// Sorts each of `buckets` on its low `bits` bits, one at a time, by a
/// sequential LSD on byte digits, whose 256 counters stay in L1. Each
/// digit's pass reads the bucket once for its histogram, then moves it
/// into a scratch sized to the largest bucket, or back; an odd last
/// pass copies it home.
fn sort_in_cache(buckets: &mut [&mut [u64]], bits: u32) {
    let passes = bits.div_ceil(u8::BITS);
    if passes == 0 {
        return;
    }
    let width = bits.div_ceil(passes);
    let digit = |k: u64, shift: u32| usize::from(((k >> shift) & ((1 << width) - 1)) as u8);
    let mut tmp = vec![0u64; buckets.iter().map(|b| b.len()).max().unwrap_or(0)];
    let mut count = [0usize; 1 << u8::BITS];
    for keys in buckets.iter_mut() {
        let Some(tmp) = tmp.get_mut(..keys.len()) else {
            continue;
        };
        let (mut src, mut dst) = (&mut **keys, &mut *tmp);
        for shift in (0..passes).map(|p| p * width) {
            count.fill(0);
            for &k in src.iter() {
                if let Some(c) = count.get_mut(digit(k, shift)) {
                    *c += 1;
                }
            }
            // Each digit's count becomes its first position.
            let mut at = 0;
            for c in count.iter_mut() {
                let m = *c;
                *c = at;
                at += m;
            }
            for &k in src.iter() {
                if let Some(c) = count.get_mut(digit(k, shift)) {
                    if let Some(slot) = dst.get_mut(*c) {
                        *slot = k;
                    }
                    *c += 1;
                }
            }
            core::mem::swap(&mut src, &mut dst);
        }
        if passes % 2 == 1 {
            keys.copy_from_slice(tmp);
        }
    }
}

/// Fused multi-digit split radix sort on a step-counting machine,
/// ascending and stable. Charges the same steps per pass as the
/// unfused multi-digit schedule (`2^w` scans, `2^w + 2` elementwise,
/// one permute), so Table 1/Table 4 accounting is identical.
///
/// # Panics
/// If a key exceeds `key_bits` bits, or `digit_bits` is 0 or > 16.
pub fn fused_radix_sort_digits_ctx(
    ctx: &mut Ctx,
    keys: &[u64],
    key_bits: u32,
    digit_bits: u32,
) -> Vec<u64> {
    assert!((1..=16).contains(&digit_bits), "digit width must be 1..=16");
    let key_bits = expect_key_width(keys, key_bits);
    let n = keys.len();
    let buckets = 1usize << digit_bits;
    let mask = (buckets - 1) as u64;
    let mut scratch = MultiSplitScratch::new();
    let pass = |src: &[u64], dst: &mut [u64], shift: u32| {
        // Same charges as the enumerate-per-bucket schedule (see
        // `Ctx::multi_split`): digit map, per-bucket flag + enumerate,
        // destination arithmetic, scatter.
        ctx.charge_elementwise_op(n);
        for _ in 0..buckets {
            ctx.charge_elementwise_op(n);
            ctx.charge_scan_op(n);
        }
        ctx.charge_elementwise_op(n);
        ctx.charge_permute_op(n);
        multi_split_into(
            src,
            dst,
            buckets,
            move |k| ((k >> shift) & mask) as usize,
            &mut scratch,
        );
        Ok::<_, Infallible>(())
    };
    let Ok(sorted) = ping_pong(Cow::Borrowed(keys), key_bits, digit_bits, pass);
    sorted
}

/// Fused multi-digit sort with the default scan-model machine.
pub fn fused_radix_sort_digits(keys: &[u64], key_bits: u32, digit_bits: u32) -> Vec<u64> {
    let mut ctx = Ctx::new(Model::Scan);
    fused_radix_sort_digits_ctx(&mut ctx, keys, key_bits, digit_bits)
}

/// Fused radix sort — the engine's production sort path. Where a
/// 2048-bucket pass over the keys stages its lines (from 2^21 keys on a
/// host with streaming stores), it sorts split-first: one split on the
/// top digit of at most 11 bits below the keys' highest set bit, then
/// every bucket sorted in place, in cache up to 2^16 keys. Otherwise it
/// runs 8-bit digit passes, capped at `key_bits`.
///
/// # Panics
/// If a key exceeds `key_bits` bits.
pub fn fused_radix_sort(keys: &[u64], key_bits: u32) -> Vec<u64> {
    let stream = simd::stream_lines();
    if splits_first(keys.len(), stream) {
        return split_first_sort(keys, key_bits);
    }
    fused_radix_sort_digits(keys, key_bits, digit_bits(key_bits, keys.len(), stream))
}

/// [`split_first`] for the infallible sort, at any size.
///
/// # Panics
/// If a key exceeds `key_bits` bits.
fn split_first_sort(keys: &[u64], key_bits: u32) -> Vec<u64> {
    let or = expect_fits(keys_or(keys, key_bits), key_bits);
    let mut scratch = MultiSplitScratch::new();
    let pass = |src: &[u64], dst: &mut [u64], shift: u32, width: u32| {
        let key = digit_at(shift, width);
        Ok::<_, Infallible>(multi_split_into(src, dst, 1 << width, key, &mut scratch))
    };
    let fan_out = |ntasks: usize, task: &(dyn Fn(usize) + Sync)| {
        pool::global().run(ntasks, task);
        Ok(())
    };
    let Ok(sorted) = split_first(keys, or, pass, fan_out);
    sorted
}

/// Fused stable sort of `(key, payload)` pairs by key.
///
/// # Panics
/// Like [`fused_radix_sort_digits`], plus a length mismatch between
/// `keys` and `payloads`.
pub fn fused_radix_sort_pairs_digits(
    keys: &[u64],
    payloads: &[u64],
    key_bits: u32,
    digit_bits: u32,
) -> (Vec<u64>, Vec<u64>) {
    assert!((1..=16).contains(&digit_bits), "digit width must be 1..=16");
    assert_eq!(keys.len(), payloads.len(), "pairs length mismatch");
    let key_bits = expect_key_width(keys, key_bits);
    let buckets = 1usize << digit_bits;
    let mask = (buckets - 1) as u64;
    let pairs: Vec<(u64, u64)> = keys.iter().copied().zip(payloads.iter().copied()).collect();
    let mut scratch = MultiSplitScratch::new();
    let pass = |src: &[(u64, u64)], dst: &mut [(u64, u64)], shift: u32| {
        multi_split_into(
            src,
            dst,
            buckets,
            move |(k, _)| ((k >> shift) & mask) as usize,
            &mut scratch,
        );
        Ok::<_, Infallible>(())
    };
    let Ok(sorted) = ping_pong(Cow::Owned(pairs), key_bits, digit_bits, pass);
    (
        sorted.iter().map(|&(k, _)| k).collect(),
        sorted.iter().map(|&(_, v)| v).collect(),
    )
}

/// Checked fused sort: typed errors instead of panics for data-
/// dependent failures — [`Error::WidthOverflow`] for a key that does
/// not fit `key_bits`, [`Error::Exec`] when the ambient
/// [`ScanDeadline`][scan_core::ScanDeadline] expires or a key-function
/// panic is contained by the pool.
///
/// # Panics
/// Only on the static contract: `digit_bits` 0 or > 16.
pub fn try_fused_radix_sort_digits(
    keys: &[u64],
    key_bits: u32,
    digit_bits: u32,
) -> Result<Vec<u64>> {
    assert!((1..=16).contains(&digit_bits), "digit width must be 1..=16");
    scan_core::deadline::checkpoint()?;
    let key_bits = check_key_width(keys, key_bits)?;
    let buckets = 1usize << digit_bits;
    let mask = (buckets - 1) as u64;
    let mut scratch = MultiSplitScratch::new();
    let pass = |src: &[u64], dst: &mut [u64], shift: u32| {
        try_multi_split_into(
            src,
            dst,
            buckets,
            move |k| ((k >> shift) & mask) as usize,
            &mut scratch,
        )
        .map(drop)
    };
    ping_pong(Cow::Borrowed(keys), key_bits, digit_bits, pass)
}

/// Checked fused sort on [`fused_radix_sort`]'s path, split-first
/// where that sort splits first, with [`try_fused_radix_sort_digits`]'
/// typed errors: its splits, and the pool tasks that sort its buckets,
/// run under the ambient deadline.
pub fn try_fused_radix_sort(keys: &[u64], key_bits: u32) -> Result<Vec<u64>> {
    let stream = simd::stream_lines();
    if splits_first(keys.len(), stream) {
        return try_split_first_sort(keys, key_bits);
    }
    try_fused_radix_sort_digits(keys, key_bits, digit_bits(key_bits, keys.len(), stream))
}

/// [`split_first`] for the checked sort, at any size: its passes and
/// its tasks run under the ambient deadline.
fn try_split_first_sort(keys: &[u64], key_bits: u32) -> Result<Vec<u64>> {
    scan_core::deadline::checkpoint()?;
    let or = check_fits(keys_or(keys, key_bits), key_bits)?;
    let deadline = scan_core::deadline::current();
    let mut scratch = MultiSplitScratch::new();
    let pass = |src: &[u64], dst: &mut [u64], shift: u32, width: u32| {
        try_multi_split_into(src, dst, 1 << width, digit_at(shift, width), &mut scratch)
    };
    let fan_out = |ntasks: usize, task: &(dyn Fn(usize) + Sync)| {
        Ok(pool::global().try_run(ntasks, deadline.as_ref(), task)?)
    };
    split_first(keys, or, pass, fan_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::radix::split_radix_sort_digits_ctx;
    use scan_core::{deadline, ExecError, ScanDeadline};

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

    #[test]
    fn sorts_for_every_width() {
        let ks = keys(5, 600, 16);
        let mut expect = ks.clone();
        expect.sort_unstable();
        for w in [1u32, 2, 3, 4, 8, 11, 16] {
            assert_eq!(fused_radix_sort_digits(&ks, 16, w), expect, "w={w}");
        }
        assert_eq!(fused_radix_sort(&ks, 16), expect);
    }

    #[test]
    fn matches_legacy_path_and_charges() {
        let ks = keys(77, 256, 16);
        let mut fused_ctx = Ctx::new(Model::Scan);
        let mut legacy_ctx = Ctx::new(Model::Scan);
        for w in [1u32, 4, 8] {
            fused_ctx.reset_stats();
            legacy_ctx.reset_stats();
            let fused = fused_radix_sort_digits_ctx(&mut fused_ctx, &ks, 16, w);
            let legacy = split_radix_sort_digits_ctx(&mut legacy_ctx, &ks, 16, w);
            assert_eq!(fused, legacy, "w={w}");
            assert_eq!(
                fused_ctx.steps(),
                legacy_ctx.steps(),
                "fusion must not change scan-model accounting (w={w})"
            );
        }
    }

    #[test]
    fn stability_via_pairs() {
        let ks = [3u64, 1, 3, 1, 3];
        let payloads = [0u64, 1, 2, 3, 4];
        let (k, v) = fused_radix_sort_pairs_digits(&ks, &payloads, 2, 1);
        assert_eq!(k, vec![1, 1, 3, 3, 3]);
        assert_eq!(v, vec![1, 3, 0, 2, 4]);
    }

    #[test]
    fn empty_single_and_zero_bits() {
        assert!(fused_radix_sort(&[], 8).is_empty());
        assert_eq!(fused_radix_sort(&[9], 8), vec![9]);
        assert_eq!(fused_radix_sort(&[0, 0, 0], 0), vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_key_panics() {
        fused_radix_sort(&[256], 8);
    }

    #[test]
    fn try_reports_oversized_key() {
        assert_eq!(
            try_fused_radix_sort(&[256], 8),
            Err(Error::WidthOverflow {
                required: 9,
                available: 8
            })
        );
    }

    #[test]
    fn try_honors_cancellation() {
        let ks = keys(9, 50_000, 16);
        let d = ScanDeadline::manual();
        d.cancel();
        let r = deadline::with_deadline(&d, || try_fused_radix_sort(&ks, 16));
        assert_eq!(r, Err(Error::Exec(ExecError::Cancelled)));
    }

    #[test]
    fn widths_above_64_sort_as_64() {
        use crate::sort::radix::{
            split_radix_sort, split_radix_sort_ctx, split_radix_sort_digits,
            split_radix_sort_digits_ctx, split_radix_sort_pairs, split_radix_sort_pairs_ctx,
            try_split_radix_sort, try_split_radix_sort_digits,
        };
        // Keys with high bits set: a pass that re-sorts by low bits
        // (a shift of 64 or more, masked to `shift % 64`) unsorts them.
        let mut ks = vec![3u64, 0x100, 1, 0x200, 2, u64::MAX, 1 << 63];
        ks.extend(keys(0xD1CE, 300, 64));
        let mut expect = ks.clone();
        expect.sort_unstable();
        let tags: Vec<u64> = (0..ks.len() as u64).collect();
        let mut by_key: Vec<(u64, u64)> = ks.iter().copied().zip(tags.iter().copied()).collect();
        by_key.sort_by_key(|&(k, _)| k); // stable: the sorts' order
        let expect_pairs: (Vec<u64>, Vec<u64>) = by_key.into_iter().unzip();
        let ctx = || Ctx::new(Model::Scan);
        for bits in [65u32, 72, 128, u32::MAX] {
            #[rustfmt::skip] // one entry point per row
            let sorts = [
                ("fused_radix_sort", fused_radix_sort(&ks, bits)),
                ("fused w=7", fused_radix_sort_digits(&ks, bits, 7)),
                ("fused w=16", fused_radix_sort_digits(&ks, bits, 16)),
                ("fused ctx", fused_radix_sort_digits_ctx(&mut ctx(), &ks, bits, 7)),
                ("try_fused", try_fused_radix_sort(&ks, bits).unwrap()),
                ("try_fused w=7", try_fused_radix_sort_digits(&ks, bits, 7).unwrap()),
                ("split_radix_sort", split_radix_sort(&ks, bits)),
                ("split ctx", split_radix_sort_ctx(&mut ctx(), &ks, bits)),
                ("split w=7", split_radix_sort_digits(&ks, bits, 7)),
                ("split ctx w=7", split_radix_sort_digits_ctx(&mut ctx(), &ks, bits, 7)),
                ("try_split", try_split_radix_sort(&ks, bits).unwrap()),
                ("try_split w=7", try_split_radix_sort_digits(&ks, bits, 7).unwrap()),
            ];
            for (name, got) in sorts {
                assert_eq!(got, expect, "{name} at key_bits={bits}");
            }
            #[rustfmt::skip]
            let pairs = [
                ("fused pairs", fused_radix_sort_pairs_digits(&ks, &tags, bits, 7)),
                ("split pairs", split_radix_sort_pairs(&ks, &tags, bits)),
                ("split pairs ctx", split_radix_sort_pairs_ctx(&mut ctx(), &ks, &tags, bits)),
            ];
            for (name, got) in pairs {
                assert_eq!(got, expect_pairs, "{name} at key_bits={bits}");
            }
        }
    }

    #[test]
    fn try_matches_infallible_when_unbounded() {
        let ks = keys(13, 4096, 24);
        assert_eq!(
            try_fused_radix_sort(&ks, 24).unwrap(),
            fused_radix_sort(&ks, 24)
        );
    }

    /// The formatted message of the panic `f` raises.
    fn panic_message(f: impl FnOnce() -> Vec<u64> + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("the sort must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn width_errors_name_the_first_bad_key_on_the_pooled_path() {
        use crate::sort::radix::{split_radix_sort, try_split_radix_sort};
        // Long enough for the pooled OR to split into blocks; the OR of
        // all keys has bit 20 set, but the first bad key needs 18 bits.
        let n = 2 * scan_core::parallel::PAR_THRESHOLD + 7;
        let mut ks = keys(0xBAD, n, 16);
        ks[100] = 1 << 17;
        ks[n - 50] = 1 << 20;
        let named = "key 131072 does not fit in 16 bits";
        let msg = panic_message(|| fused_radix_sort(&ks, 16));
        assert!(msg.contains(named), "fused_radix_sort: {msg}");
        let msg = panic_message(|| split_radix_sort(&ks, 16));
        assert!(msg.contains(named), "split_radix_sort: {msg}");
        let overflow = Err(Error::WidthOverflow {
            required: 18,
            available: 16,
        });
        assert_eq!(try_fused_radix_sort(&ks, 16), overflow);
        assert_eq!(try_split_radix_sort(&ks, 16), overflow);
    }

    #[test]
    fn wide_digits_exactly_where_a_2048_bucket_pass_stages() {
        // 2^21 `u64` keys are 16 MiB, the staged scatter's cutoff. Below
        // it, or without streaming stores, the digits stay at 8 bits.
        let cut = 1 << 21;
        for (bits, wide, passes) in [(8u32, 8u32, 1u32), (16, 8, 2), (32, 11, 3), (64, 11, 6)] {
            let w = digit_bits(bits, cut, true);
            assert_eq!((w, bits.div_ceil(w)), (wide, passes), "key_bits={bits}");
            assert_eq!(digit_bits(bits, cut - 1, true), 8, "key_bits={bits}");
            assert_eq!(digit_bits(bits, cut, false), 8, "key_bits={bits}");
        }
        // Widths above 64 count as 64; zero bits still name a digit.
        assert_eq!(digit_bits(u32::MAX, cut, true), 11);
        assert_eq!(digit_bits(0, cut, true), 1);
    }

    #[test]
    fn split_first_exactly_where_a_2048_bucket_pass_stages() {
        let cut = 1 << 21;
        assert!(splits_first(cut, true));
        assert!(splits_first(cut + 1, true));
        assert!(!splits_first(cut - 1, true));
        assert!(!splits_first(cut, false));
        assert!(!splits_first(0, true));
    }

    /// Both split-first entries on `ks` declared `key_bits` wide, against
    /// `sort_unstable`.
    fn assert_split_first_sorts(what: &str, ks: &[u64], key_bits: u32) {
        let mut want = ks.to_vec();
        want.sort_unstable();
        let n = ks.len();
        assert!(
            split_first_sort(ks, key_bits) == want,
            "split_first_sort: {what}, n={n}, key_bits={key_bits}"
        );
        assert!(
            try_split_first_sort(ks, key_bits).as_deref() == Ok(want.as_slice()),
            "try_split_first_sort: {what}, n={n}, key_bits={key_bits}"
        );
    }

    #[test]
    fn split_first_sorts_every_shape() {
        let n = 40_000;
        for bits in [16u32, 32, 64] {
            assert_split_first_sorts("uniform", &keys(bits.into(), n, bits), bits);
        }
        assert_split_first_sorts("all equal", &vec![0xDEAD_BEEF; n], 32);
        let two: Vec<u64> = keys(3, n, 64).iter().map(|k| (k & 1) << 31 | 5).collect();
        assert_split_first_sorts("two values", &two, 32);
        let sorted: Vec<u64> = (0..n as u64).map(|i| i * 104_729).collect();
        assert_split_first_sorts("sorted", &sorted, 64);
        let reversed: Vec<u64> = sorted.iter().rev().copied().collect();
        assert_split_first_sorts("reversed", &reversed, 64);
        // Declared wider than they are: the top digit sits at the OR's
        // highest set bit, not at the declared width.
        assert_split_first_sorts("below 2^21 as 32 bits", &keys(21, n, 21), 32);
        assert_split_first_sorts("u32 range as 64 bits", &keys(32, n, 32), 64);
        assert_split_first_sorts("all zero, 0 bits", &vec![0; n], 0);
        for bits in [65, 128, u32::MAX] {
            let mut ks = keys(65, n, 64);
            ks.extend([u64::MAX, 0, 1 << 63]);
            assert_split_first_sorts("above 64 bits", &ks, bits);
        }
        assert_split_first_sorts("empty", &[], 32);
        assert_split_first_sorts("one key", &[7], 32);
        assert_split_first_sorts("one key, 64 bits", &[u64::MAX], 64);
    }

    #[test]
    fn split_first_sorts_big_buckets_beside_small_ones() {
        // 32-bit keys split on their top 11 bits (21..32). Bucket 5 holds
        // more keys than the in-cache limit, bucket 9 exactly the limit,
        // bucket 10 one more; the rest are spread over every bucket.
        let low = |seed: u64, n: usize| keys(seed, n, 21).into_iter();
        let mut ks: Vec<u64> = low(1, 3 * CACHE_BUCKET).map(|k| 5 << 21 | k).collect();
        ks.extend(low(2, CACHE_BUCKET).map(|k| 9 << 21 | k));
        ks.extend(low(3, CACHE_BUCKET + 1).map(|k| 10 << 21 | k));
        ks.extend(keys(4, 20_000, 32));
        ks.push(u64::from(u32::MAX));
        // Interleave the buckets, so the split has to gather them.
        let mut x = 0x5EED_u64;
        for i in (1..ks.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ks.swap(i, (x % (i as u64 + 1)) as usize);
        }
        assert_split_first_sorts("big and small buckets", &ks, 32);
        // Only big buckets: two top digits, one of them also at the limit.
        let mut two: Vec<u64> = low(5, CACHE_BUCKET + 7).map(|k| 3 << 21 | k).collect();
        two.extend(low(6, CACHE_BUCKET).map(|k| 2047 << 21 | k));
        assert_split_first_sorts("two buckets", &two, 32);
    }

    #[test]
    fn split_first_errors_are_typed() {
        let ks = keys(9, 50_000, 32);
        let d = ScanDeadline::manual();
        d.cancel();
        let r = deadline::with_deadline(&d, || try_split_first_sort(&ks, 32));
        assert_eq!(r, Err(Error::Exec(ExecError::Cancelled)));
        let d = ScanDeadline::after(std::time::Duration::ZERO);
        let r = deadline::with_deadline(&d, || try_split_first_sort(&ks, 32));
        assert_eq!(r, Err(Error::Exec(ExecError::DeadlineExceeded)));
        // The first bad key is named, not the OR's width, as on the LSD
        // path (`width_errors_name_the_first_bad_key_on_the_pooled_path`).
        let n = 2 * scan_core::parallel::PAR_THRESHOLD + 7;
        let mut ks = keys(0xBAD, n, 16);
        ks[100] = 1 << 17;
        ks[n - 50] = 1 << 20;
        let msg = panic_message(|| split_first_sort(&ks, 16));
        assert!(msg.contains("key 131072 does not fit in 16 bits"), "{msg}");
        assert_eq!(
            try_split_first_sort(&ks, 16),
            Err(Error::WidthOverflow {
                required: 18,
                available: 16
            })
        );
    }
}
