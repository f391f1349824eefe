//! The split radix sort (§2.2.1, Figure 2).
//!
//! "The algorithm loops over the bits of the keys, starting at the
//! lowest bit, executing a `split` operation on each iteration." Each
//! `split` is a constant number of program steps in the scan model, so
//! sorting `d`-bit keys takes `O(d)` steps — `O(lg n)` when keys are
//! `O(lg n)` bits. This is the sort the Connection Machine's
//! instruction set shipped.

use super::fused_radix::{check_key_width, expect_key_width};
use scan_pram::{Ctx, Model};

/// Split radix sort of unsigned keys, ascending and stable, on a
/// step-counting machine. Only the low `key_bits` bits participate;
/// higher bits must be zero.
///
/// # Panics
/// If a key has a set bit at or above `key_bits`.
pub fn split_radix_sort_ctx(ctx: &mut Ctx, keys: &[u64], key_bits: u32) -> Vec<u64> {
    let key_bits = expect_key_width(keys, key_bits);
    let mut a = keys.to_vec();
    // define split-radix-sort(A, number-of-bits):
    //   for i from 0 to (number-of-bits − 1): A ← split(A, A⟨i⟩)
    for i in 0..key_bits {
        let flags = ctx.map(&a, |k| (k >> i) & 1 == 1);
        a = ctx.split(&a, &flags);
    }
    a
}

/// Split radix sort with the default scan-model machine.
pub fn split_radix_sort(keys: &[u64], key_bits: u32) -> Vec<u64> {
    let mut ctx = Ctx::new(Model::Scan);
    split_radix_sort_ctx(&mut ctx, keys, key_bits)
}

/// Multi-digit split radix sort: processes `digit_bits` key bits per
/// pass with a `2^digit_bits`-way split (one enumerate per bucket) —
/// the standard Connection Machine refinement of §2.2.1's one-bit
/// split. `digit_bits = 1` reduces to [`split_radix_sort_ctx`]'s
/// schedule; wider digits trade fewer passes for more scans per pass
/// (`⌈d/w⌉ · 2^w` scans total), the ablation the benches sweep.
///
/// # Panics
/// If a key exceeds `key_bits` bits, or `digit_bits` is 0 or > 16.
pub fn split_radix_sort_digits_ctx(
    ctx: &mut Ctx,
    keys: &[u64],
    key_bits: u32,
    digit_bits: u32,
) -> Vec<u64> {
    assert!((1..=16).contains(&digit_bits), "digit width must be 1..=16");
    let key_bits = expect_key_width(keys, key_bits);
    let buckets = 1usize << digit_bits;
    let mut a = keys.to_vec();
    // Flag and destination buffers are hoisted out of the bucket loop
    // (and the pass loop): each bucket refills them in place, so the
    // only per-pass allocations left are the scans' own outputs.
    let mut ones = vec![0usize; a.len()];
    let mut dest = vec![0usize; a.len()];
    let mut shift = 0;
    while shift < key_bits {
        let mask = (buckets - 1) as u64;
        // One enumerate per bucket value, then a bucket-base offset —
        // a 2^w-way stable split in 2^w scans plus one permute.
        let digit: Vec<u64> = ctx.map(&a, |k| (k >> shift) & mask);
        let mut base = 0usize;
        for b in 0..buckets as u64 {
            for (o, &d) in ones.iter_mut().zip(digit.iter()) {
                *o = usize::from(d == b);
            }
            ctx.charge_elementwise_op(a.len());
            ctx.charge_scan_op(a.len());
            let (ranks, count) = scan_core::scan_with_total::<scan_core::op::Sum, _>(&ones);
            for ((d, &k), &r) in dest.iter_mut().zip(&digit).zip(&ranks) {
                if k == b {
                    *d = base + r;
                }
            }
            base += count;
        }
        ctx.charge_elementwise_op(a.len());
        a = ctx.permute_unchecked(&a, &dest);
        shift += digit_bits;
    }
    a
}

/// Multi-digit sort with the default scan-model machine.
pub fn split_radix_sort_digits(keys: &[u64], key_bits: u32, digit_bits: u32) -> Vec<u64> {
    let mut ctx = Ctx::new(Model::Scan);
    split_radix_sort_digits_ctx(&mut ctx, keys, key_bits, digit_bits)
}

/// Checked split radix sort: typed errors instead of panics.
/// An oversized key reports
/// [`Error::WidthOverflow`][scan_core::Error::WidthOverflow]; an
/// expired or cancelled ambient
/// [`ScanDeadline`][scan_core::ScanDeadline] reports
/// [`Error::Exec`][scan_core::Error::Exec], checked before every bit
/// pass and inside the underlying checked split.
pub fn try_split_radix_sort(keys: &[u64], key_bits: u32) -> scan_core::Result<Vec<u64>> {
    scan_core::deadline::checkpoint()?;
    let key_bits = check_key_width(keys, key_bits)?;
    let mut a = keys.to_vec();
    for i in 0..key_bits {
        scan_core::deadline::checkpoint()?;
        let flags: Vec<bool> = a.iter().map(|&k| (k >> i) & 1 == 1).collect();
        a = scan_core::ops::try_split(&a, &flags)?;
    }
    Ok(a)
}

/// Checked multi-digit split radix sort (the unfused enumerate-per-
/// bucket schedule): typed errors for oversized keys and deadline
/// expiry, checked once per bucket scan.
///
/// # Panics
/// Only on the static contract: `digit_bits` 0 or > 16.
pub fn try_split_radix_sort_digits(
    keys: &[u64],
    key_bits: u32,
    digit_bits: u32,
) -> scan_core::Result<Vec<u64>> {
    assert!((1..=16).contains(&digit_bits), "digit width must be 1..=16");
    scan_core::deadline::checkpoint()?;
    let key_bits = check_key_width(keys, key_bits)?;
    let buckets = 1usize << digit_bits;
    let mut a = keys.to_vec();
    let mut ones = vec![0usize; a.len()];
    let mut dest = vec![0usize; a.len()];
    let mut shift = 0;
    while shift < key_bits {
        let mask = (buckets - 1) as u64;
        let digit: Vec<u64> = a.iter().map(|&k| (k >> shift) & mask).collect();
        let mut base = 0usize;
        for b in 0..buckets as u64 {
            for (o, &d) in ones.iter_mut().zip(digit.iter()) {
                *o = usize::from(d == b);
            }
            let (ranks, count) = scan_core::Scan::op::<scan_core::op::Sum, _>().try_run(&ones)?;
            for ((d, &k), &r) in dest.iter_mut().zip(&digit).zip(&ranks) {
                if k == b {
                    *d = base + r;
                }
            }
            base += count;
        }
        // `dest` is a permutation by construction (each index gets the
        // unique rank of its bucket occupancy).
        a = scan_core::ops::permute_unchecked(&a, &dest);
        shift += digit_bits;
    }
    Ok(a)
}

/// Split radix sort of `(key, payload)` pairs — "since integers,
/// characters, and floating-point numbers can all be sorted with a
/// radix sort, a radix sort suffices for almost all sorting of
/// fixed-length keys required in practice."
pub fn split_radix_sort_pairs_ctx(
    ctx: &mut Ctx,
    keys: &[u64],
    payloads: &[u64],
    key_bits: u32,
) -> (Vec<u64>, Vec<u64>) {
    assert_eq!(keys.len(), payloads.len(), "pairs length mismatch");
    let mut pairs: Vec<(u64, u64)> = keys.iter().copied().zip(payloads.iter().copied()).collect();
    // Widths above 64 sort as 64: every `u64` key fits.
    for i in 0..key_bits.min(u64::BITS) {
        let flags = ctx.map(&pairs, |(k, _)| (k >> i) & 1 == 1);
        pairs = ctx.split(&pairs, &flags);
    }
    (
        pairs.iter().map(|&(k, _)| k).collect(),
        pairs.iter().map(|&(_, v)| v).collect(),
    )
}

/// Pair sort with the default scan-model machine.
pub fn split_radix_sort_pairs(
    keys: &[u64],
    payloads: &[u64],
    key_bits: u32,
) -> (Vec<u64>, Vec<u64>) {
    let mut ctx = Ctx::new(Model::Scan);
    split_radix_sort_pairs_ctx(&mut ctx, keys, payloads, key_bits)
}

/// Sort signed keys by biasing into unsigned (order-preserving).
pub fn split_radix_sort_i64(keys: &[i64]) -> Vec<i64> {
    let biased: Vec<u64> = keys.iter().map(|&k| (k as u64) ^ (1 << 63)).collect();
    split_radix_sort(&biased, 64)
        .into_iter()
        .map(|k| (k ^ (1 << 63)) as i64)
        .collect()
}

/// Sort floating-point keys via the monotone bit transform of §3.4
/// (non-NaN inputs).
pub fn split_radix_sort_f64(keys: &[f64]) -> Vec<f64> {
    let keyed: Vec<u64> = keys
        .iter()
        .map(|&x| scan_core::simulate::f64_key(x))
        .collect();
    split_radix_sort(&keyed, 64)
        .into_iter()
        .map(scan_core::simulate::f64_unkey)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_pram::StepKind;

    #[test]
    fn figure2_trace() {
        // A = [5 7 3 1 4 2 7 2] (3-bit values)
        let a = [5u64, 7, 3, 1, 4, 2, 7, 2];
        let mut ctx = Ctx::new(Model::Scan);
        // After bit 0: [4 2 2 5 7 3 1 7]
        let f0: Vec<bool> = a.iter().map(|&k| k & 1 == 1).collect();
        let s1 = scan_core::ops::split(&a, &f0);
        assert_eq!(s1, vec![4, 2, 2, 5, 7, 3, 1, 7]);
        // After bit 1: [4 5 1 2 2 7 3 7]
        let f1: Vec<bool> = s1.iter().map(|&k| (k >> 1) & 1 == 1).collect();
        let s2 = scan_core::ops::split(&s1, &f1);
        assert_eq!(s2, vec![4, 5, 1, 2, 2, 7, 3, 7]);
        // After bit 2: [1 2 2 3 4 5 7 7]
        let f2: Vec<bool> = s2.iter().map(|&k| (k >> 2) & 1 == 1).collect();
        let s3 = scan_core::ops::split(&s2, &f2);
        assert_eq!(s3, vec![1, 2, 2, 3, 4, 5, 7, 7]);
        // And the full routine agrees.
        assert_eq!(split_radix_sort_ctx(&mut ctx, &a, 3), s3);
    }

    #[test]
    fn sorts_random_keys() {
        let mut x = 42u64;
        let keys: Vec<u64> = (0..1000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 20) & 0xFFFF
            })
            .collect();
        let got = split_radix_sort(&keys, 16);
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn step_complexity_is_linear_in_bits() {
        let keys: Vec<u64> = (0..256).rev().collect();
        let mut ctx8 = Ctx::new(Model::Scan);
        split_radix_sort_ctx(&mut ctx8, &keys, 8);
        let mut ctx16 = Ctx::new(Model::Scan);
        split_radix_sort_ctx(&mut ctx16, &keys, 16);
        assert_eq!(ctx16.steps(), 2 * ctx8.steps());
        // O(1) scan-model steps per bit: per pass = 1 map + split's ops.
        assert_eq!(ctx8.stats().ops_of(StepKind::Permute), 8);
    }

    #[test]
    fn erew_pays_the_lg_factor() {
        let keys: Vec<u64> = (0..1024).map(|i| (i * 37) % 1024).collect();
        let mut scan_ctx = Ctx::new(Model::Scan);
        let mut erew_ctx = Ctx::new(Model::Erew);
        let a = split_radix_sort_ctx(&mut scan_ctx, &keys, 10);
        let b = split_radix_sort_ctx(&mut erew_ctx, &keys, 10);
        assert_eq!(a, b);
        // EREW steps / scan-model steps should approach the lg factor.
        assert!(erew_ctx.steps() > 2 * scan_ctx.steps());
    }

    #[test]
    fn stability_via_pairs() {
        // Two equal keys keep their payload order.
        let keys = [3u64, 1, 3, 1, 3];
        let payloads = [0u64, 1, 2, 3, 4];
        let (k, v) = split_radix_sort_pairs(&keys, &payloads, 2);
        assert_eq!(k, vec![1, 1, 3, 3, 3]);
        assert_eq!(v, vec![1, 3, 0, 2, 4]);
    }

    #[test]
    fn signed_and_float_sorts() {
        assert_eq!(
            split_radix_sort_i64(&[3, -1, 0, -7, 5]),
            vec![-7, -1, 0, 3, 5]
        );
        assert_eq!(
            split_radix_sort_f64(&[2.5, -0.5, 1e10, -1e10, 0.0]),
            vec![-1e10, -0.5, 0.0, 2.5, 1e10]
        );
    }

    #[test]
    fn empty_and_single() {
        assert!(split_radix_sort(&[], 8).is_empty());
        assert_eq!(split_radix_sort(&[9], 8), vec![9]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_key_rejected() {
        split_radix_sort(&[256], 8);
    }

    #[test]
    fn zero_bits_is_identity() {
        assert_eq!(split_radix_sort(&[0, 0, 0], 0), vec![0, 0, 0]);
    }

    #[test]
    fn multi_digit_sorts_for_every_width() {
        let mut x = 5u64;
        let keys: Vec<u64> = (0..600)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(11);
                (x >> 30) & 0xFFFF
            })
            .collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        for w in [1u32, 2, 4, 8, 16] {
            assert_eq!(split_radix_sort_digits(&keys, 16, w), expect, "w={w}");
        }
        // Non-dividing digit width (16 bits in 3-bit digits).
        assert_eq!(split_radix_sort_digits(&keys, 16, 3), expect);
    }

    #[test]
    fn multi_digit_stability() {
        let keys = [0x13u64, 0x11, 0x23, 0x21, 0x13];
        let sorted = split_radix_sort_digits(&keys, 8, 4);
        assert_eq!(sorted, vec![0x11, 0x13, 0x13, 0x21, 0x23]);
    }

    #[test]
    fn try_variants_sort_and_report_typed_errors() {
        use scan_core::{deadline, Error, ExecError, ScanDeadline};
        let keys: Vec<u64> = (0..500).map(|i| (i * 131) % 1024).collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(try_split_radix_sort(&keys, 10), Ok(expect.clone()));
        assert_eq!(try_split_radix_sort_digits(&keys, 10, 4), Ok(expect));
        // Oversized key: typed, not a panic.
        assert_eq!(
            try_split_radix_sort(&[256], 8),
            Err(Error::WidthOverflow {
                required: 9,
                available: 8
            })
        );
        assert_eq!(
            try_split_radix_sort_digits(&[300], 8, 4),
            Err(Error::WidthOverflow {
                required: 9,
                available: 8
            })
        );
        // Cancelled ambient deadline: typed, not a hang or panic.
        let d = ScanDeadline::manual();
        d.cancel();
        let r = deadline::with_deadline(&d, || try_split_radix_sort(&keys, 10));
        assert_eq!(r, Err(Error::Exec(ExecError::Cancelled)));
        let r = deadline::with_deadline(&d, || try_split_radix_sort_digits(&keys, 10, 2));
        assert_eq!(r, Err(Error::Exec(ExecError::Cancelled)));
    }

    #[test]
    fn digit_width_trades_passes_for_scans() {
        use scan_pram::StepKind;
        let keys: Vec<u64> = (0..256).rev().collect();
        let scans_for = |w: u32| {
            let mut ctx = Ctx::new(Model::Scan);
            split_radix_sort_digits_ctx(&mut ctx, &keys, 16, w);
            (
                ctx.stats().ops_of(StepKind::Scan),
                ctx.stats().ops_of(StepKind::Permute),
            )
        };
        let (s1, p1) = scans_for(1);
        let (s4, p4) = scans_for(4);
        assert_eq!(p1, 16, "one permute per pass");
        assert_eq!(p4, 4);
        assert_eq!(s1, 16 * 2);
        assert_eq!(s4, 4 * 16, "2^w scans per pass");
        let _ = (s1, s4);
    }
}
