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
//! Pass 1 reads the caller's keys (or the zipped pairs) directly, and
//! every fresh buffer is a zeroed allocation, advised onto transparent
//! huge pages ([`advise_huge_pages`]) before its first write, so a
//! 32 MiB buffer faults about 528 times instead of 8193. From a 16 MiB
//! output on, on a host with streaming stores, the scatter writes whole
//! output lines with them. Key widths above 64 sort as 64.
//!
//! [`fused_radix_sort`] and [`try_fused_radix_sort`] sort split-first
//! at every size and on every host, as the paper's segmented quicksort
//! (§2.3.1) splits once and then sorts every segment on its own. One
//! pooled split on the top digit below the keys' highest set bit, sized
//! so that buckets hold about 2^11 keys, writes the one fresh output;
//! every bucket is then sorted in place on the bits below that digit,
//! in cache up to 2^16 keys, many buckets to a pool task. Below 2^13
//! keys there is no split: the keys are sorted as one bucket, on the
//! calling thread (DESIGN.md §11).

use scan_core::multi_split::{
    multi_split_into, stages, try_multi_split_into, MultiSplitScratch, MAX_STAGED_BUCKETS,
};
use scan_core::parallel::advise_huge_pages;
use scan_core::{pool, simd, Error, Or, Result, Scan};
use scan_pram::{Ctx, Model};
use std::borrow::Cow;
use std::convert::Infallible;
use std::sync::{Mutex, PoisonError};

/// Largest bucket, in keys, sorted in cache: 2^16 `u64` keys are
/// 512 KiB, so a bucket and its scratch fit one core's 2 MiB L2 (the
/// 2-vCPU Xeon guest the sort was tuned on), and its positions fit
/// [`InCache`]'s `u32` counters. Larger buckets take pooled passes.
const CACHE_BUCKET: usize = 1 << 16;

/// The keys a bucket of the split aims to hold, as a power of two: 2^11
/// keys and their scratch stay in L1, and 22 bits of them take 2 passes.
const BUCKET_BITS: u32 = 11;

/// Fewest keys [`fused_radix_sort`] splits. Fewer are sorted as one
/// bucket, in cache on the calling thread, with no pool task: below
/// about 2^13 keys of 16 to 64 bits a split cost more than it saved, at
/// pool widths 1 and 2 (DESIGN.md §11).
const SPLIT_FROM: usize = 1 << 13;

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

/// The width of the split digit of `n` keys whose OR is `bits` wide: 0,
/// no split, below [`SPLIT_FROM`] keys or for no bits; otherwise
/// [`wide_digit`] of `bits`, narrowed so that a bucket holds about
/// 2^[`BUCKET_BITS`] keys.
fn split_digit(bits: u32, n: usize) -> u32 {
    if bits == 0 || n < SPLIT_FROM {
        return 0;
    }
    wide_digit(bits).min(n.ilog2() - BUCKET_BITS)
}

/// The digit width of the pooled passes over a bucket of more than
/// [`CACHE_BUCKET`] keys, `n` of them with `key_bits` bits left, where
/// `stream` says whether this host streams `multi_split`'s lines:
/// [`wide_digit`] where a 2048-bucket pass stages, otherwise 8 bits.
fn digit_bits(key_bits: u32, n: usize, stream: bool) -> u32 {
    if !stages::<u64>(n, MAX_STAGED_BUCKETS, stream) {
        return key_bits.clamp(1, 8);
    }
    wide_digit(key_bits)
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

/// The split-first sort of `keys`, whose OR is `or`. Below
/// [`SPLIT_FROM`] keys, one copy of them is sorted as one bucket, on
/// the calling thread. Otherwise one split on the top [`split_digit`]
/// of the OR's width writes the one fresh, huge-page-advised output,
/// and every bucket is then sorted in place on the bits below it:
/// buckets of at most [`CACHE_BUCKET`] keys by [`InCache`], about 16
/// tasks' worth per pool lane, and each larger one by `pass`es at
/// [`digit_bits`]' width, with one scratch shared by all of them.
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
    let top = split_digit(bits, keys.len());
    if top == 0 {
        let mut out = keys.to_vec();
        InCache::default().sort(&mut out, bits);
        return Ok(out);
    }
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
            let mut lsd = InCache::default();
            for bucket in group.iter_mut() {
                lsd.sort(bucket, low);
            }
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

/// The in-cache LSD of buckets of at most [`CACHE_BUCKET`] keys, with
/// one task's scratch, reused from bucket to bucket.
#[derive(Default)]
struct InCache {
    /// The buffer each pass moves a bucket into, or back out of.
    tmp: Vec<u64>,
    /// One row of digit counters per pass.
    counts: Vec<u32>,
}

impl InCache {
    /// The passes and the digit width of the LSD of `m` keys on `bits`
    /// bits: as few passes as digits of up to `c` bits need, where
    /// `c = ⌈log2 m⌉` clamped to `3..=11`, each of the width that
    /// balances them, and the last of the bits left. A digit then has
    /// about as many counters as the bucket has keys, at most 2048.
    fn digits(m: usize, bits: u32) -> (u32, u32) {
        let c = m.next_power_of_two().ilog2().clamp(3, BUCKET_BITS);
        let passes = bits.div_ceil(c);
        (passes, bits.div_ceil(passes))
    }

    /// Sorts `keys`, whose bits above the low `bits` are all equal, on
    /// those low bits. Each read of `keys` counts the digits of two
    /// passes, into rows of `u32` counters; each pass then moves them
    /// into `tmp`, or back, and an odd last pass copies them home.
    fn sort(&mut self, keys: &mut [u64], bits: u32) {
        let m = keys.len();
        if m < 2 || bits == 0 {
            return;
        }
        let (passes, width) = Self::digits(m, bits);
        let radix = 1usize << width;
        self.tmp.resize(self.tmp.len().max(m), 0);
        let Some(tmp) = self.tmp.get_mut(..m) else {
            return;
        };
        // One row per pass, the last one only as wide as its digit.
        let last = bits - (passes - 1) * width;
        self.counts.clear();
        self.counts
            .resize((passes as usize - 1) * radix + (1 << last), 0);
        let pairs = self.counts.chunks_mut(2 * radix);
        for (pair, shift) in pairs.zip((0..u64::BITS).step_by(2 * width as usize)) {
            let (lo, hi) = pair.split_at_mut(radix.min(pair.len()));
            let (lo_mask, hi_mask) = (lo.len() - 1, hi.len().wrapping_sub(1));
            for &k in keys.iter() {
                let k = (k >> shift) as usize;
                if let Some(c) = lo.get_mut(k & lo_mask) {
                    *c += 1;
                }
                if let Some(c) = hi.get_mut(k >> width & hi_mask) {
                    *c += 1;
                }
            }
        }
        // Each digit's count becomes its first position.
        for row in self.counts.chunks_mut(radix) {
            let mut at = 0;
            for c in row {
                (*c, at) = (at, at + *c);
            }
        }
        let (mut src, mut dst) = (&mut *keys, &mut *tmp);
        let rows = self.counts.chunks_mut(radix);
        for (row, shift) in rows.zip((0..u64::BITS).step_by(width as usize)) {
            let mask = row.len() - 1;
            for &k in src.iter() {
                if let Some(c) = row.get_mut((k >> shift) as usize & mask) {
                    if let Some(slot) = dst.get_mut(*c as usize) {
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
        multi_split_into(src, dst, buckets, digit_at(shift, digit_bits), &mut scratch);
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

/// Fused radix sort — the engine's production sort path, split-first
/// at every size and on every host. Below 2^13 keys it sorts one copy
/// of them in cache, on the calling thread. Otherwise one pooled split
/// on the top digit below the keys' highest set bit, of at most 11 bits
/// and sized so that buckets hold about 2^11 keys, writes the output,
/// and every bucket is then sorted in place, in cache up to 2^16 keys.
///
/// # Panics
/// If a key exceeds `key_bits` bits.
pub fn fused_radix_sort(keys: &[u64], key_bits: u32) -> Vec<u64> {
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
    let pairs: Vec<(u64, u64)> = keys.iter().copied().zip(payloads.iter().copied()).collect();
    let mut scratch = MultiSplitScratch::new();
    let pass = |src: &[(u64, u64)], dst: &mut [(u64, u64)], shift: u32| {
        let (key, n) = (digit_at(shift, digit_bits), 1 << digit_bits);
        multi_split_into(src, dst, n, move |(k, _)| key(k), &mut scratch);
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
    let mut scratch = MultiSplitScratch::new();
    let pass = |src: &[u64], dst: &mut [u64], shift: u32| {
        let key = digit_at(shift, digit_bits);
        try_multi_split_into(src, dst, 1 << digit_bits, key, &mut scratch).map(drop)
    };
    ping_pong(Cow::Borrowed(keys), key_bits, digit_bits, pass)
}

/// Checked fused sort on [`fused_radix_sort`]'s path, with
/// [`try_fused_radix_sort_digits`]' typed errors: its splits, and the
/// pool tasks that sort its buckets, run under the ambient deadline.
pub fn try_fused_radix_sort(keys: &[u64], key_bits: u32) -> Result<Vec<u64>> {
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
        // Only buckets of more than 2^16 keys take pooled passes, with
        // 1 to 63 bits left below the split digit. 2^21 `u64` keys are
        // 16 MiB, the staged scatter's cutoff. Below it, or without
        // streaming stores, the digits stay at 8 bits.
        let cut = 1 << 21;
        for (bits, wide, passes) in [(8u32, 8u32, 1u32), (16, 8, 2), (32, 11, 3), (63, 11, 6)] {
            let w = digit_bits(bits, cut, true);
            assert_eq!((w, bits.div_ceil(w)), (wide, passes), "key_bits={bits}");
            assert_eq!(digit_bits(bits, cut - 1, true), 8, "key_bits={bits}");
            assert_eq!(digit_bits(bits, cut, false), 8, "key_bits={bits}");
        }
    }

    #[test]
    fn split_digit_fills_buckets_of_about_2048_keys() {
        // Below 2^13 keys, and for keys with no bits, nothing splits.
        for (bits, at_cut) in [(1u32, 1u32), (8, 2), (32, 2), (64, 2)] {
            assert_eq!(split_digit(bits, 0), 0, "key_bits={bits}");
            assert_eq!(split_digit(bits, 8191), 0, "key_bits={bits}");
            assert_eq!(split_digit(bits, 8192), at_cut, "key_bits={bits}");
        }
        assert_eq!(split_digit(0, 1 << 22), 0);
        // Above it, 2^11 keys a bucket, up to the widest balanced digit
        // of at most 11 bits of the OR's width.
        for (bits, n, top) in [
            (32u32, (1usize << 14) - 1, 2u32),
            (32, (1 << 14) + 1, 3),
            (32, 1 << 17, 6),
            (32, 1 << 20, 9),
            (32, (1 << 21) - 1, 9),
            (32, 1 << 21, 10),
            (32, 1 << 22, 11),
            (32, 1 << 24, 11),
            (64, 1 << 30, 11),
            (21, 1 << 22, 11),
            (12, 1 << 22, 6),
            (12, 1 << 14, 3),
            (3, 1 << 22, 3),
        ] {
            assert_eq!(split_digit(bits, n), top, "key_bits={bits}, n={n}");
        }
    }

    /// Keys of `bits` bits from `seed`, with the bits above them set to
    /// one tag, as a bucket of the split holds them.
    fn bucket(seed: u64, m: usize, bits: u32) -> Vec<u64> {
        let tag = 0x5A5A_5A5A_5A5A_5A5A_u64.checked_shl(bits).unwrap_or(0);
        keys(seed, m, bits).into_iter().map(|k| tag | k).collect()
    }

    #[test]
    fn in_cache_lsd_sorts_every_length_and_width() {
        let mut lsd = InCache::default();
        let mut parities = [false; 2];
        for m in [0usize, 1, 2, 3, 7, 2047, 2048, 2049, CACHE_BUCKET] {
            for bits in [1u32, 8, 10, 11, 12, 21, 22, 53, 64] {
                let mut ks = bucket(u64::from(bits) << 20 | m as u64, m, bits);
                let mut want = ks.clone();
                want.sort_unstable();
                lsd.sort(&mut ks, bits);
                assert!(ks == want, "m={m}, bits={bits}");
                if m >= 2 {
                    parities[InCache::digits(m, bits).0 as usize % 2] = true;
                }
            }
        }
        assert_eq!(parities, [true, true], "both pass parities must run");
    }

    #[test]
    fn in_cache_widths_follow_the_bucket() {
        // ⌈log2 m⌉, clamped to 3..=11, bounds a digit; the passes are
        // balanced. A floor would give the half of ~2048-key buckets
        // just under 2048 a third pass.
        for (m, bits, digits) in [
            (2048usize, 21u32, (2u32, 11u32)),
            (2047, 21, (2, 11)),
            (1025, 21, (2, 11)),
            (1024, 21, (3, 7)),
            (2049, 21, (2, 11)),
            (4096, 32, (3, 11)),
            (1 << 16, 53, (5, 11)),
            (1 << 16, 64, (6, 11)),
            (3, 8, (3, 3)),
            (2, 1, (1, 1)),
            (100, 12, (2, 6)),
        ] {
            assert_eq!(InCache::digits(m, bits), digits, "m={m}, bits={bits}");
        }
    }

    #[test]
    fn the_rule_sorts_each_side_of_every_cutoff() {
        for n in [0usize, 1, 2, 8191, 1 << 13, (1 << 14) + 1, 1 << 17] {
            for bits in [8u32, 16, 32, 64] {
                assert_split_first_sorts(
                    "uniform",
                    &keys(u64::from(bits) + n as u64, n, bits),
                    bits,
                );
            }
            assert_split_first_sorts("u32 range as 64 bits", &keys(n as u64, n, 32), 64);
        }
    }

    /// Both entries on `ks` declared `key_bits` wide, against
    /// `sort_unstable`.
    fn assert_split_first_sorts(what: &str, ks: &[u64], key_bits: u32) {
        let mut want = ks.to_vec();
        want.sort_unstable();
        let n = ks.len();
        assert!(
            fused_radix_sort(ks, key_bits) == want,
            "fused_radix_sort: {what}, n={n}, key_bits={key_bits}"
        );
        assert!(
            try_fused_radix_sort(ks, key_bits).as_deref() == Ok(want.as_slice()),
            "try_fused_radix_sort: {what}, n={n}, key_bits={key_bits}"
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
        // About 2^18.4 32-bit keys split on their top 7 bits (25..32).
        // Bucket 5 holds more keys than the in-cache limit, bucket 9
        // exactly the limit, bucket 10 one more; the rest are spread over
        // the other buckets.
        let low = |seed: u64, n: usize| keys(seed, n, 25).into_iter();
        let mut ks: Vec<u64> = low(1, 3 * CACHE_BUCKET).map(|k| 5 << 25 | k).collect();
        ks.extend(low(2, CACHE_BUCKET).map(|k| 9 << 25 | k));
        ks.extend(low(3, CACHE_BUCKET + 1).map(|k| 10 << 25 | k));
        ks.extend(
            keys(4, 20_000, 32)
                .into_iter()
                .filter(|k| ![5, 9, 10].contains(&(k >> 25))),
        );
        ks.push(u64::from(u32::MAX));
        assert_eq!(split_digit(32, ks.len()), 7);
        // Interleave the buckets, so the split has to gather them.
        let mut x = 0x5EED_u64;
        for i in (1..ks.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ks.swap(i, (x % (i as u64 + 1)) as usize);
        }
        assert_split_first_sorts("big and small buckets", &ks, 32);
        // Only big buckets: two top digits of 6 bits, one of them also
        // at the limit.
        let low = |seed: u64, n: usize| keys(seed, n, 26).into_iter();
        let mut two: Vec<u64> = low(5, CACHE_BUCKET + 7).map(|k| 3 << 26 | k).collect();
        two.extend(low(6, CACHE_BUCKET).map(|k| 63 << 26 | k));
        assert_eq!(split_digit(32, two.len()), 6);
        assert_split_first_sorts("two buckets", &two, 32);
    }

    #[test]
    fn split_first_errors_are_typed() {
        let ks = keys(9, 50_000, 32);
        let d = ScanDeadline::manual();
        d.cancel();
        let r = deadline::with_deadline(&d, || try_fused_radix_sort(&ks, 32));
        assert_eq!(r, Err(Error::Exec(ExecError::Cancelled)));
        let d = ScanDeadline::after(std::time::Duration::ZERO);
        let r = deadline::with_deadline(&d, || try_fused_radix_sort(&ks, 32));
        assert_eq!(r, Err(Error::Exec(ExecError::DeadlineExceeded)));
        // The first bad key is named, not the OR's width, as on the LSD
        // path (`width_errors_name_the_first_bad_key_on_the_pooled_path`).
        let n = 2 * scan_core::parallel::PAR_THRESHOLD + 7;
        let mut ks = keys(0xBAD, n, 16);
        ks[100] = 1 << 17;
        ks[n - 50] = 1 << 20;
        let msg = panic_message(|| fused_radix_sort(&ks, 16));
        assert!(msg.contains("key 131072 does not fit in 16 bits"), "{msg}");
        assert_eq!(
            try_fused_radix_sort(&ks, 16),
            Err(Error::WidthOverflow {
                required: 18,
                available: 16
            })
        );
    }
}
