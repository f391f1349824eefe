//! §3.4: simulating *all* the paper's scans with just two primitives —
//! an integer `+-scan` and an integer `max-scan`.
//!
//! The hardware of Section 3 implements exactly two operations on
//! unsigned `m`-bit fields. This module reproduces the constructions the
//! paper gives for everything else:
//!
//! - **min-scan**: invert the source, `max-scan`, invert the result;
//! - **or-scan / and-scan**: 1-bit `max-scan` / `min-scan`;
//! - **signed max/min**: order-preserving bias into unsigned;
//! - **floating-point max/min**: "flipping the exponent and significand
//!   if the sign bit is set" — the standard monotone bit transform;
//! - **segmented max-scan** (Figure 16): append the segment number above
//!   the value bits, run an *unsegmented* `max-scan`, strip the append;
//! - **segmented +-scan**: unsegmented `+-scan`, copy each segment
//!   head's scan value across the segment (itself a segmented
//!   max-scan), subtract;
//! - **backward scans**: read the vector in reverse order.
//!
//! The primitive pair is abstracted as [`PrimitiveScans`] so the same
//! constructions can run over the software kernels ([`SoftwareScans`])
//! or over the cycle-accurate hardware simulator in the `scan-circuit`
//! crate, which implements this trait for its tree circuit.

use crate::error::{Error, Result};
use crate::op::{Max, Sum};
use crate::parallel;
use crate::scan::{scan, Scan};
use crate::segmented::Segments;

/// The two primitive scans of the paper's hardware: exclusive `+-scan`
/// (wrapping) and exclusive `max-scan` (identity 0) over unsigned words.
pub trait PrimitiveScans {
    /// Exclusive wrapping `+-scan` over `u64` words.
    fn plus_scan(&self, a: &[u64]) -> Vec<u64>;
    /// Exclusive `max-scan` over `u64` words; position 0 receives 0.
    fn max_scan(&self, a: &[u64]) -> Vec<u64>;
    /// Backward exclusive `+-scan` (§3.4): by default "implemented by
    /// simply reading the vector into the processors in reverse order",
    /// which is what a hardware backend does. Software backends override
    /// this with a direction-aware kernel that never materialises the
    /// reversed vector.
    fn back_plus_scan(&self, a: &[u64]) -> Vec<u64> {
        let mut out = self.plus_scan(&reversed(a));
        out.reverse();
        out
    }
    /// Backward exclusive `max-scan`; see [`Self::back_plus_scan`].
    fn back_max_scan(&self, a: &[u64]) -> Vec<u64> {
        let mut out = self.max_scan(&reversed(a));
        out.reverse();
        out
    }
}

/// Reverse-order copy used by the default (hardware-style) backward
/// scans, which feed the processors in reverse per §3.4.
fn reversed(a: &[u64]) -> Vec<u64> {
    let mut r = a.to_vec();
    r.reverse();
    r
}

/// Shared backends delegate: a counted handle scans like its target,
/// so one backend instance can serve several consumers (e.g. a checked
/// executor *and* the harness reading its fault counters).
impl<B: PrimitiveScans + ?Sized> PrimitiveScans for std::rc::Rc<B> {
    fn plus_scan(&self, a: &[u64]) -> Vec<u64> {
        (**self).plus_scan(a)
    }
    fn max_scan(&self, a: &[u64]) -> Vec<u64> {
        (**self).max_scan(a)
    }
    fn back_plus_scan(&self, a: &[u64]) -> Vec<u64> {
        (**self).back_plus_scan(a)
    }
    fn back_max_scan(&self, a: &[u64]) -> Vec<u64> {
        (**self).back_max_scan(a)
    }
}

impl<B: PrimitiveScans + ?Sized> PrimitiveScans for &B {
    fn plus_scan(&self, a: &[u64]) -> Vec<u64> {
        (**self).plus_scan(a)
    }
    fn max_scan(&self, a: &[u64]) -> Vec<u64> {
        (**self).max_scan(a)
    }
    fn back_plus_scan(&self, a: &[u64]) -> Vec<u64> {
        (**self).back_plus_scan(a)
    }
    fn back_max_scan(&self, a: &[u64]) -> Vec<u64> {
        (**self).back_max_scan(a)
    }
}

/// [`PrimitiveScans`] backed by this crate's software kernels.
#[derive(Debug, Default, Clone, Copy)]
pub struct SoftwareScans;

impl PrimitiveScans for SoftwareScans {
    fn plus_scan(&self, a: &[u64]) -> Vec<u64> {
        scan::<Sum, _>(a)
    }
    fn max_scan(&self, a: &[u64]) -> Vec<u64> {
        // u64 max identity is 0 == u64::MIN, matching the hardware's
        // grounded parent input at the root.
        scan::<Max, _>(a)
    }
    fn back_plus_scan(&self, a: &[u64]) -> Vec<u64> {
        Scan::by(0u64, |x, y| x.wrapping_add(y)).backward().run(a).0
    }
    fn back_max_scan(&self, a: &[u64]) -> Vec<u64> {
        Scan::by(0u64, u64::max).backward().run(a).0
    }
}

/// `min-scan` from `max-scan`: invert, scan, invert.
pub fn min_scan_u64<B: PrimitiveScans>(b: &B, a: &[u64]) -> Vec<u64> {
    let inv = parallel::map_by(a, |x| !x);
    parallel::map_by(&b.max_scan(&inv), |x| !x)
}

/// `or-scan` as a 1-bit `max-scan`.
pub fn or_scan<B: PrimitiveScans>(b: &B, a: &[bool]) -> Vec<bool> {
    let bits = parallel::map_by(a, u64::from);
    parallel::map_by(&b.max_scan(&bits), |x| x != 0)
}

/// `and-scan` as a 1-bit `min-scan`.
pub fn and_scan<B: PrimitiveScans>(b: &B, a: &[bool]) -> Vec<bool> {
    // A 1-bit min-scan: complement, 1-bit max-scan, complement.
    let bits = parallel::map_by(a, |x| u64::from(!x));
    parallel::map_by(&b.max_scan(&bits), |x| x == 0)
}

/// Order-preserving bias from `i64` to `u64` (flip the sign bit).
#[inline]
pub fn i64_key(x: i64) -> u64 {
    (x as u64) ^ (1 << 63)
}

/// Inverse of [`i64_key`].
#[inline]
pub fn i64_unkey(k: u64) -> i64 {
    (k ^ (1 << 63)) as i64
}

/// Signed `max-scan` via the unsigned primitive. Position 0 receives
/// `i64::MIN` (the identity, which is what the biased 0 maps back to).
pub fn max_scan_i64<B: PrimitiveScans>(b: &B, a: &[i64]) -> Vec<i64> {
    let keys = parallel::map_by(a, i64_key);
    parallel::map_by(&b.max_scan(&keys), i64_unkey)
}

/// Signed `min-scan` via the unsigned primitive.
pub fn min_scan_i64<B: PrimitiveScans>(b: &B, a: &[i64]) -> Vec<i64> {
    let keys = parallel::map_by(a, |x| !i64_key(x));
    parallel::map_by(&b.max_scan(&keys), |k| i64_unkey(!k))
}

/// Signed `+-scan`: two's-complement wrapping addition is bit-identical
/// to unsigned, so the unsigned primitive serves directly.
pub fn plus_scan_i64<B: PrimitiveScans>(b: &B, a: &[i64]) -> Vec<i64> {
    let bits = parallel::map_by(a, |x| x as u64);
    parallel::map_by(&b.plus_scan(&bits), |x| x as i64)
}

/// The monotone bit transform for `f64`: if the sign bit is set, flip
/// every bit ("flipping the exponent and significand"); otherwise set
/// the sign bit. Total order matches `<` on non-NaN floats.
#[inline]
pub fn f64_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Inverse of [`f64_key`].
#[inline]
pub fn f64_unkey(k: u64) -> f64 {
    if k >> 63 == 1 {
        f64::from_bits(k & !(1 << 63))
    } else {
        f64::from_bits(!k)
    }
}

/// Floating-point `max-scan` via the unsigned primitive. Position 0
/// receives `-∞` (the identity).
pub fn max_scan_f64<B: PrimitiveScans>(b: &B, a: &[f64]) -> Vec<f64> {
    let keys = parallel::map_by(a, f64_key);
    let mut out = parallel::map_by(&b.max_scan(&keys), f64_unkey);
    if let Some(first) = out.first_mut() {
        *first = f64::NEG_INFINITY;
    }
    out
}

/// Floating-point `min-scan` via the unsigned primitive. Position 0
/// receives `+∞`.
pub fn min_scan_f64<B: PrimitiveScans>(b: &B, a: &[f64]) -> Vec<f64> {
    let keys = parallel::map_by(a, |x| !f64_key(x));
    let mut out = parallel::map_by(&b.max_scan(&keys), |k| f64_unkey(!k));
    if let Some(first) = out.first_mut() {
        *first = f64::INFINITY;
    }
    out
}

/// Bits needed to store `x`.
fn bits_for(x: u64) -> u32 {
    64 - x.leading_zeros()
}

/// Segmented `max-scan` from the unsegmented primitive (Figure 16).
///
/// Appends the segment number above the top `value_bits` bits of each
/// value, runs one unsegmented `max-scan`, strips the append, and
/// places 0 at segment heads.
///
/// # Errors
/// [`Error::WidthOverflow`] if a value needs more than `value_bits`
/// bits or `value_bits + ⌈lg(#segments+1)⌉ > 64`.
pub fn seg_max_scan_via_primitives<B: PrimitiveScans>(
    b: &B,
    values: &[u64],
    segs: &Segments,
    value_bits: u32,
) -> Result<Vec<u64>> {
    assert_eq!(values.len(), segs.len(), "seg_max_scan length mismatch");
    if values.is_empty() {
        return Ok(Vec::new());
    }
    for &v in values {
        if bits_for(v) > value_bits {
            return Err(Error::WidthOverflow {
                required: bits_for(v),
                available: value_bits,
            });
        }
    }
    // Seg-Number = SFlag + enumerate(SFlag): 1-based segment ids.
    // Wrapping on purpose: the backend may be a deliberately faulty
    // circuit under fault injection, and garbage scan output must
    // produce garbage values, not a panic.
    let flags01: Vec<u64> = (0..segs.len())
        .map(|i| u64::from(segs.is_head(i)))
        .collect();
    let enumerated = b.plus_scan(&flags01);
    let seg_number: Vec<u64> = flags01
        .iter()
        .zip(&enumerated)
        .map(|(&f, &e)| f.wrapping_add(e))
        .collect();
    let seg_bits = bits_for(seg_number.last().copied().unwrap_or(0));
    if value_bits + seg_bits > 64 {
        return Err(Error::WidthOverflow {
            required: value_bits + seg_bits,
            available: 64,
        });
    }
    // B = append(Seg-Number, A); C = extract-bot(max-scan(B)).
    let composite: Vec<u64> = seg_number
        .iter()
        .zip(values)
        .map(|(&s, &v)| (s << value_bits) | v)
        .collect();
    let mask = if value_bits == 64 {
        u64::MAX
    } else {
        (1u64 << value_bits) - 1
    };
    let scanned = b.max_scan(&composite);
    Ok((0..values.len())
        .map(|i| {
            if segs.is_head(i) {
                0
            } else {
                scanned.get(i).copied().unwrap_or(0) & mask
            }
        })
        .collect())
}

/// Segmented `+-scan` from the unsegmented primitives: one `+-scan`,
/// one segmented head-copy (itself a segmented `max-scan`), one
/// subtraction.
///
/// # Errors
/// [`Error::WidthOverflow`] if the running totals do not fit in
/// `value_bits` bits (the head-copy rides on the Figure 16 composite).
pub fn seg_plus_scan_via_primitives<B: PrimitiveScans>(
    b: &B,
    values: &[u64],
    segs: &Segments,
    value_bits: u32,
) -> Result<Vec<u64>> {
    assert_eq!(values.len(), segs.len(), "seg_plus_scan length mismatch");
    if values.is_empty() {
        return Ok(Vec::new());
    }
    let s = b.plus_scan(values);
    // Value of the scan at each segment head, copied across the segment.
    // Heads hold (s[i] + value placeholder); a segmented max-scan of
    // `head ? s : 0` followed by combining with the element's own marked
    // value gives the inclusive head-copy.
    let marked: Vec<u64> = (0..values.len())
        .map(|i| {
            if segs.is_head(i) {
                s.get(i).copied().unwrap_or(0)
            } else {
                0
            }
        })
        .collect();
    let excl = seg_max_scan_via_primitives(b, &marked, segs, value_bits)?;
    let head_copy: Vec<u64> = excl.iter().zip(&marked).map(|(&e, &m)| e.max(m)).collect();
    Ok(s.iter()
        .zip(&head_copy)
        .map(|(&x, &h)| x.wrapping_sub(h))
        .collect())
}

/// Backward `+-scan` (§3.4): reads the vector in reverse order on
/// hardware backends; software backends run a direction-aware kernel.
pub fn back_plus_scan<B: PrimitiveScans>(b: &B, a: &[u64]) -> Vec<u64> {
    b.back_plus_scan(a)
}

/// Backward `max-scan`; see [`back_plus_scan`].
pub fn back_max_scan<B: PrimitiveScans>(b: &B, a: &[u64]) -> Vec<u64> {
    b.back_max_scan(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{And, Min, Or};
    use crate::segmented::seg_scan;

    const B: SoftwareScans = SoftwareScans;

    #[test]
    fn min_from_max() {
        let a = [5u64, 3, 8, 1, 9];
        assert_eq!(min_scan_u64(&B, &a), scan::<Min, _>(&a));
    }

    #[test]
    fn or_and_from_one_bit() {
        let a = [false, true, false, true, false];
        assert_eq!(or_scan(&B, &a), scan::<Or, _>(&a));
        let c = [true, true, false, true];
        assert_eq!(and_scan(&B, &c), scan::<And, _>(&c));
    }

    #[test]
    fn signed_scans() {
        let a = [-5i64, 3, -9, 7, 0];
        assert_eq!(max_scan_i64(&B, &a), scan::<Max, _>(&a));
        assert_eq!(min_scan_i64(&B, &a), scan::<Min, _>(&a));
        assert_eq!(plus_scan_i64(&B, &a), scan::<Sum, _>(&a));
    }

    #[test]
    fn i64_key_is_monotone() {
        let v = [i64::MIN, -100, -1, 0, 1, 99, i64::MAX];
        let keys: Vec<u64> = v.iter().map(|&x| i64_key(x)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        v.iter().for_each(|&x| assert_eq!(i64_unkey(i64_key(x)), x));
    }

    #[test]
    fn f64_key_is_monotone() {
        let v = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -0.0,
            0.0,
            1e-300,
            3.25,
            f64::INFINITY,
        ];
        let keys: Vec<u64> = v.iter().map(|&x| f64_key(x)).collect();
        for w in keys.windows(2) {
            assert!(w[0] <= w[1], "keys must be nondecreasing");
        }
        for &x in &v {
            let back = f64_unkey(f64_key(x));
            assert!(back == x || (back == 0.0 && x == 0.0));
        }
    }

    #[test]
    fn float_scans_match_direct() {
        let a = [3.5f64, -1.0, 7.25, 2.0, -9.5];
        assert_eq!(max_scan_f64(&B, &a), scan::<Max, _>(&a));
        assert_eq!(min_scan_f64(&B, &a), scan::<Min, _>(&a));
    }

    #[test]
    fn figure16_seg_max_scan() {
        // A = [5 1 3 4 3 9 2 6], SFlag = [T F T F F F T F]
        // Result = [0 5 0 3 4 4 0 2]
        let a = [5u64, 1, 3, 4, 3, 9, 2, 6];
        let segs = Segments::from_flags(vec![true, false, true, false, false, false, true, false]);
        let got = seg_max_scan_via_primitives(&B, &a, &segs, 8).unwrap();
        assert_eq!(got, vec![0, 5, 0, 3, 4, 4, 0, 2]);
        assert_eq!(got, seg_scan::<Max, _>(&a, &segs));
    }

    #[test]
    fn seg_plus_scan_matches_direct() {
        let a = [5u64, 1, 3, 4, 3, 9, 2, 6];
        let segs = Segments::from_flags(vec![true, false, true, false, false, false, true, false]);
        let got = seg_plus_scan_via_primitives(&B, &a, &segs, 16).unwrap();
        assert_eq!(got, seg_scan::<Sum, _>(&a, &segs));
        assert_eq!(got, vec![0, 5, 0, 3, 7, 10, 0, 2]);
    }

    #[test]
    fn seg_scans_random_match_direct() {
        let mut x = 12345u64;
        let mut rng = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        let n = 500;
        let vals: Vec<u64> = (0..n).map(|_| rng() % 1000).collect();
        let flags: Vec<bool> = (0..n).map(|_| rng() % 7 == 0).collect();
        let segs = Segments::from_flags(flags);
        assert_eq!(
            seg_max_scan_via_primitives(&B, &vals, &segs, 16).unwrap(),
            seg_scan::<Max, _>(&vals, &segs)
        );
        assert_eq!(
            seg_plus_scan_via_primitives(&B, &vals, &segs, 32).unwrap(),
            seg_scan::<Sum, _>(&vals, &segs)
        );
    }

    #[test]
    fn width_overflow_detected() {
        let a = [300u64, 1];
        let segs = Segments::single(2);
        assert!(matches!(
            seg_max_scan_via_primitives(&B, &a, &segs, 8),
            Err(Error::WidthOverflow { .. })
        ));
        // 60-bit values with >16 segments cannot fit.
        let big = vec![u64::MAX >> 4; 40];
        let every = Segments::from_flags(vec![true; 40]);
        assert!(matches!(
            seg_max_scan_via_primitives(&B, &big, &every, 60),
            Err(Error::WidthOverflow { .. })
        ));
    }

    #[test]
    fn backward_primitives() {
        let a = [1u64, 2, 3, 4];
        assert_eq!(back_plus_scan(&B, &a), vec![9, 7, 4, 0]);
        assert_eq!(back_max_scan(&B, &a), vec![4, 4, 4, 0]);
    }

    #[test]
    fn empty_inputs() {
        assert!(min_scan_u64(&B, &[]).is_empty());
        assert!(or_scan(&B, &[]).is_empty());
        assert!(max_scan_f64(&B, &[]).is_empty());
        let segs = Segments::from_flags(vec![]);
        assert!(seg_max_scan_via_primitives(&B, &[], &segs, 8)
            .unwrap()
            .is_empty());
        assert!(seg_plus_scan_via_primitives(&B, &[], &segs, 8)
            .unwrap()
            .is_empty());
    }
}
