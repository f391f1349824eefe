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
//! [`fused_radix_sort`] and [`try_fused_radix_sort`] pick the digit
//! width from the pass the keys will take. Where a 2048-bucket pass
//! over them stages and streams its lines, they use the fewest balanced
//! digits of at most 11 bits: three 11-bit passes for 32-bit keys, six
//! for 64-bit ones, two 8-bit ones for 16-bit keys. A staged 2048-bucket
//! pass costs about 1.2× a staged 256-bucket one, so three passes beat
//! four. Everywhere else (below 16 MiB of keys, under `SCAN_CORE_SIMD=0`,
//! off `x86_64`) a 2048-bucket pass would take the direct scatter, about
//! 1.9× a staged 256-bucket pass, and the digits stay at 8 bits
//! (DESIGN.md §11).

use scan_core::multi_split::{
    multi_split_into, stages, try_multi_split_into, MultiSplitScratch, MAX_STAGED_BUCKETS,
};
use scan_core::parallel::advise_huge_pages;
use scan_core::{simd, Error, Or, Result, Scan};
use scan_pram::{Ctx, Model};
use std::borrow::Cow;
use std::convert::Infallible;

/// The key width the radix passes visit — `key_bits`, clamped to 64,
/// since every `u64` key fits 64 bits — or `Err` with the first key
/// that does not fit in `key_bits` bits. One pooled OR of all keys
/// clears an input that fits; only a bad key pays for the sequential
/// search that names the first one.
fn key_width(keys: &[u64], key_bits: u32) -> core::result::Result<u32, u64> {
    if key_bits >= u64::BITS {
        return Ok(u64::BITS);
    }
    let fits = |k: u64| k >> key_bits == 0;
    if fits(Scan::op::<Or, u64>().total(keys)) {
        return Ok(key_bits);
    }
    keys.iter()
        .copied()
        .find(|&k| !fits(k))
        .map_or(Ok(key_bits), Err)
}

/// The digit width [`fused_radix_sort`] and [`try_fused_radix_sort`]
/// use for `n` keys of `key_bits` bits, where `stream` says whether
/// this host streams `multi_split`'s lines: the fewest balanced digits
/// of at most 11 bits when a 2048-bucket pass over the keys takes the
/// staged scatter, otherwise 8 bits. Both are capped at `key_bits`.
fn digit_bits(key_bits: u32, n: usize, stream: bool) -> u32 {
    if !stages::<u64>(n, MAX_STAGED_BUCKETS, stream) {
        return key_bits.clamp(1, 8);
    }
    let key_bits = key_bits.clamp(1, u64::BITS);
    key_bits.div_ceil(key_bits.div_ceil(MAX_STAGED_BUCKETS.ilog2()))
}

/// [`key_width`] for the infallible sorts.
///
/// # Panics
/// If a key does not fit in `key_bits` bits.
pub(crate) fn expect_key_width(keys: &[u64], key_bits: u32) -> u32 {
    key_width(keys, key_bits)
        .unwrap_or_else(|bad| panic!("key {bad} does not fit in {key_bits} bits"))
}

/// [`key_width`] for the `try_*` sorts: a key that does not fit is an
/// [`Error::WidthOverflow`].
pub(crate) fn check_key_width(keys: &[u64], key_bits: u32) -> Result<u32> {
    key_width(keys, key_bits).map_err(|bad| Error::WidthOverflow {
        required: 64 - bad.leading_zeros(),
        available: key_bits,
    })
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

/// Fused radix sort with the default digit width — the engine's
/// production sort path: the fewest balanced digits of at most 11 bits
/// where a 2048-bucket pass stages its lines (from 2^21 keys on a host
/// with streaming stores), otherwise 8 bits, both capped at `key_bits`.
///
/// # Panics
/// If a key exceeds `key_bits` bits.
pub fn fused_radix_sort(keys: &[u64], key_bits: u32) -> Vec<u64> {
    let w = digit_bits(key_bits, keys.len(), simd::stream_lines());
    fused_radix_sort_digits(keys, key_bits, w)
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

/// Checked fused sort with [`fused_radix_sort`]'s digit width.
pub fn try_fused_radix_sort(keys: &[u64], key_bits: u32) -> Result<Vec<u64>> {
    let w = digit_bits(key_bits, keys.len(), simd::stream_lines());
    try_fused_radix_sort_digits(keys, key_bits, w)
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
}
