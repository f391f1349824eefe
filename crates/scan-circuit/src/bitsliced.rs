//! Bit-sliced vector arithmetic — the Connection Machine's execution
//! style. The CM-1/CM-2 processors the paper reports numbers for are
//! **bit-serial**: an `m`-bit vector operation is `m` single-bit steps
//! executed by every processor at once. This module reproduces that
//! model in software: a vector of `m`-bit integers is stored as `m`
//! bit *planes*, and each plane operation processes 64 lanes per word
//! with plain word-wide boolean logic.
//!
//! It serves two purposes: it is the "processor side" companion to the
//! bit-serial scan network (both consume one bit per cycle, which is
//! why the paper can overlap them), and its per-plane step counts are
//! the `d`-bit costs the Table 4 models charge.

/// A vector of `m`-bit unsigned integers in bit-plane layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSlicedVec {
    n: usize,
    /// `planes[k]` holds bit `k` of every lane, 64 lanes per word.
    planes: Vec<Vec<u64>>,
}

fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

impl BitSlicedVec {
    /// Slice a vector of values into `m_bits` planes.
    ///
    /// # Panics
    /// If a value does not fit in `m_bits` (1..=64).
    pub fn from_slice(values: &[u64], m_bits: u32) -> Self {
        assert!((1..=64).contains(&m_bits));
        let mask = if m_bits == 64 {
            u64::MAX
        } else {
            (1u64 << m_bits) - 1
        };
        for &v in values {
            assert!(v & !mask == 0, "value {v} does not fit in {m_bits} bits");
        }
        let n = values.len();
        let w = words_for(n);
        let mut planes = vec![vec![0u64; w]; m_bits as usize];
        for (i, &v) in values.iter().enumerate() {
            for (k, plane) in planes.iter_mut().enumerate() {
                if (v >> k) & 1 == 1 {
                    plane[i / 64] |= 1 << (i % 64);
                }
            }
        }
        BitSlicedVec { n, planes }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no lanes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Field width in bits.
    pub fn m_bits(&self) -> u32 {
        self.planes.len() as u32
    }

    /// Reassemble the lane values.
    pub fn to_vec(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.n];
        for (k, plane) in self.planes.iter().enumerate() {
            for (i, v) in out.iter_mut().enumerate() {
                if (plane[i / 64] >> (i % 64)) & 1 == 1 {
                    *v |= 1 << k;
                }
            }
        }
        out
    }

    fn lane_mask(&self) -> u64 {
        // Valid lanes of the final word.
        let r = self.n % 64;
        if r == 0 {
            u64::MAX
        } else {
            (1u64 << r) - 1
        }
    }

    fn assert_compatible(&self, other: &Self) {
        assert_eq!(self.n, other.n, "lane count mismatch");
        assert_eq!(self.m_bits(), other.m_bits(), "width mismatch");
    }

    /// Lanewise wrapping addition: a ripple-carry adder run plane by
    /// plane — `m` single-bit steps, every lane in parallel (the CM's
    /// integer add).
    pub fn add(&self, other: &Self) -> Self {
        self.assert_compatible(other);
        let w = words_for(self.n);
        let mut carry = vec![0u64; w];
        let mut planes = Vec::with_capacity(self.planes.len());
        for (pa, pb) in self.planes.iter().zip(&other.planes) {
            let mut plane = vec![0u64; w];
            for j in 0..w {
                let (a, b, c) = (pa[j], pb[j], carry[j]);
                plane[j] = a ^ b ^ c;
                carry[j] = (a & b) | (a & c) | (b & c);
            }
            planes.push(plane);
        }
        BitSlicedVec { n: self.n, planes }
    }

    /// Lanewise comparison `self < other`, one bit per lane, computed
    /// MSB-first in `m` single-bit steps.
    pub fn lt_mask(&self, other: &Self) -> Vec<u64> {
        self.assert_compatible(other);
        let w = words_for(self.n);
        let mut lt = vec![0u64; w]; // decided: self < other
        let mut gt = vec![0u64; w]; // decided: self > other
        for k in (0..self.planes.len()).rev() {
            let pa = &self.planes[k];
            let pb = &other.planes[k];
            for j in 0..w {
                let undecided = !(lt[j] | gt[j]);
                lt[j] |= undecided & !pa[j] & pb[j];
                gt[j] |= undecided & pa[j] & !pb[j];
            }
        }
        if w > 0 {
            let m = self.lane_mask();
            lt[w - 1] &= m;
        }
        lt
    }

    /// Lanewise select: where `mask` has a 1, take `a`'s lane,
    /// otherwise `b`'s.
    pub fn select(mask: &[u64], a: &Self, b: &Self) -> Self {
        a.assert_compatible(b);
        assert_eq!(mask.len(), words_for(a.n), "mask length mismatch");
        let planes = a
            .planes
            .iter()
            .zip(&b.planes)
            .map(|(pa, pb)| {
                pa.iter()
                    .zip(pb)
                    .zip(mask)
                    .map(|((&x, &y), &m)| (x & m) | (y & !m))
                    .collect()
            })
            .collect();
        BitSlicedVec { n: a.n, planes }
    }

    /// Lanewise maximum in `2m` single-bit steps (compare + select).
    pub fn max(&self, other: &Self) -> Self {
        let lt = self.lt_mask(other);
        Self::select(&lt, other, self)
    }

    /// Lanewise minimum.
    pub fn min(&self, other: &Self) -> Self {
        let lt = self.lt_mask(other);
        Self::select(&lt, self, other)
    }

    /// Lanewise bitwise and (one step per plane).
    pub fn and(&self, other: &Self) -> Self {
        self.assert_compatible(other);
        let planes = self
            .planes
            .iter()
            .zip(&other.planes)
            .map(|(pa, pb)| pa.iter().zip(pb).map(|(&a, &b)| a & b).collect())
            .collect();
        BitSlicedVec { n: self.n, planes }
    }

    /// Lanewise bitwise or.
    pub fn or(&self, other: &Self) -> Self {
        self.assert_compatible(other);
        let planes = self
            .planes
            .iter()
            .zip(&other.planes)
            .map(|(pa, pb)| pa.iter().zip(pb).map(|(&a, &b)| a | b).collect())
            .collect();
        BitSlicedVec { n: self.n, planes }
    }

    /// Lanewise shift left by one bit (a plane rotation with a zero
    /// plane shifted in) — multiply by two modulo `2^m`.
    pub fn shl1(&self) -> Self {
        let w = words_for(self.n);
        let mut planes = Vec::with_capacity(self.planes.len());
        planes.push(vec![0u64; w]);
        planes.extend_from_slice(&self.planes[..self.planes.len() - 1]);
        BitSlicedVec { n: self.n, planes }
    }

    /// Single-bit plane steps a lanewise add costs: `m` (the Table 4
    /// models' `d`).
    pub fn add_bit_steps(&self) -> u64 {
        self.m_bits() as u64
    }

    /// Single-bit plane steps a lanewise max costs: `2m`.
    pub fn max_bit_steps(&self) -> u64 {
        2 * self.m_bits() as u64
    }

    /// Shift every value `k` lanes toward higher indices: lane `i` of
    /// the result holds lane `i - k` of `self`, and the vacated low
    /// lanes hold zero (the identity of both `+` and unsigned `max`).
    /// This is the neighbor communication step of a Kogge–Stone scan,
    /// done with word-wide shifts on every plane.
    pub fn shift_lanes_up(&self, k: usize) -> Self {
        let w = words_for(self.n);
        let word_off = k / 64;
        let s = (k % 64) as u32;
        let planes = self
            .planes
            .iter()
            .map(|p| {
                let mut out = vec![0u64; w];
                for (j, slot) in out.iter_mut().enumerate().skip(word_off) {
                    let lo = p[j - word_off] << s;
                    let hi = if s > 0 && j > word_off {
                        p[j - word_off - 1] >> (64 - s)
                    } else {
                        0
                    };
                    *slot = lo | hi;
                }
                out
            })
            .collect();
        BitSlicedVec { n: self.n, planes }
    }
}

/// A `PrimitiveScans` backend that runs the two primitive scans in the
/// Connection Machine's *processor-side* style: a Kogge–Stone scan of
/// `⌈lg n⌉` rounds, each round one lanewise bit-sliced `add`/`max` over
/// the whole vector. No tree hardware — this is what the paper's scan
/// primitive replaces, and it is the natural independent fallback when
/// the tree circuit itself is suspected faulty.
///
/// Counts the single-bit plane steps consumed (`m` per add round, `2m`
/// per max round), the bit-serial cost the Table 4 models charge.
#[derive(Debug)]
pub struct BitslicedScans {
    m_bits: u32,
    bit_steps: core::cell::Cell<u64>,
    scans: core::cell::Cell<u64>,
}

impl BitslicedScans {
    /// A backend operating on `m`-bit fields (1..=64).
    ///
    /// # Panics
    /// If `m_bits` is 0 or exceeds 64.
    pub fn new(m_bits: u32) -> Self {
        assert!((1..=64).contains(&m_bits), "field width must be 1..=64");
        BitslicedScans {
            m_bits,
            bit_steps: core::cell::Cell::new(0),
            scans: core::cell::Cell::new(0),
        }
    }

    /// The field width in bits.
    pub fn m_bits(&self) -> u32 {
        self.m_bits
    }

    /// Total single-bit plane steps consumed by all scans so far.
    pub fn bit_steps(&self) -> u64 {
        self.bit_steps.get()
    }

    /// Number of primitive scans executed.
    pub fn scans(&self) -> u64 {
        self.scans.get()
    }

    fn run(&self, max: bool, a: &[u64]) -> Vec<u64> {
        if a.is_empty() {
            return Vec::new();
        }
        let mut x = BitSlicedVec::from_slice(a, self.m_bits);
        let mut d = 1usize;
        while d < a.len() {
            let shifted = x.shift_lanes_up(d);
            let step = if max {
                x.max_bit_steps()
            } else {
                x.add_bit_steps()
            };
            x = if max {
                x.max(&shifted)
            } else {
                x.add(&shifted)
            };
            self.bit_steps.set(self.bit_steps.get() + step);
            d *= 2;
        }
        self.scans.set(self.scans.get() + 1);
        // Inclusive → exclusive: shift once more, identity enters lane 0.
        x.shift_lanes_up(1).to_vec()
    }
}

impl scan_core::simulate::PrimitiveScans for BitslicedScans {
    fn plus_scan(&self, a: &[u64]) -> Vec<u64> {
        self.run(false, a)
    }

    fn max_scan(&self, a: &[u64]) -> Vec<u64> {
        self.run(true, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, m: u32, seed: u64) -> Vec<u64> {
        let mask = if m == 64 { u64::MAX } else { (1 << m) - 1 };
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 17) & mask
            })
            .collect()
    }

    #[test]
    fn roundtrip() {
        for n in [0usize, 1, 63, 64, 65, 200] {
            let v = sample(n, 16, 5);
            assert_eq!(BitSlicedVec::from_slice(&v, 16).to_vec(), v);
        }
    }

    #[test]
    fn add_matches_scalar() {
        for m in [1u32, 8, 16, 64] {
            let a = sample(100, m, 1);
            let b = sample(100, m, 2);
            let mask = if m == 64 { u64::MAX } else { (1 << m) - 1 };
            let sa = BitSlicedVec::from_slice(&a, m);
            let sb = BitSlicedVec::from_slice(&b, m);
            let expect: Vec<u64> = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| x.wrapping_add(y) & mask)
                .collect();
            assert_eq!(sa.add(&sb).to_vec(), expect, "m={m}");
        }
    }

    #[test]
    fn comparison_and_minmax_match_scalar() {
        for m in [1u32, 4, 12, 32] {
            let a = sample(130, m, 3);
            let b = sample(130, m, 4);
            let sa = BitSlicedVec::from_slice(&a, m);
            let sb = BitSlicedVec::from_slice(&b, m);
            let lt = sa.lt_mask(&sb);
            for i in 0..a.len() {
                let bit = (lt[i / 64] >> (i % 64)) & 1 == 1;
                assert_eq!(bit, a[i] < b[i], "lt lane {i} (m={m})");
            }
            let maxes: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x.max(y)).collect();
            let mins: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x.min(y)).collect();
            assert_eq!(sa.max(&sb).to_vec(), maxes, "max m={m}");
            assert_eq!(sa.min(&sb).to_vec(), mins, "min m={m}");
        }
    }

    #[test]
    fn logical_ops_and_shift() {
        let a = sample(70, 8, 5);
        let b = sample(70, 8, 6);
        let sa = BitSlicedVec::from_slice(&a, 8);
        let sb = BitSlicedVec::from_slice(&b, 8);
        let ands: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x & y).collect();
        let ors: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x | y).collect();
        let shls: Vec<u64> = a.iter().map(|&x| (x << 1) & 0xFF).collect();
        assert_eq!(sa.and(&sb).to_vec(), ands);
        assert_eq!(sa.or(&sb).to_vec(), ors);
        assert_eq!(sa.shl1().to_vec(), shls);
    }

    #[test]
    fn bit_step_accounting() {
        let a = BitSlicedVec::from_slice(&[1, 2, 3], 16);
        assert_eq!(a.add_bit_steps(), 16);
        assert_eq!(a.max_bit_steps(), 32);
    }

    #[test]
    fn empty_and_exact_word_boundaries() {
        let e = BitSlicedVec::from_slice(&[], 8);
        assert!(e.is_empty());
        assert!(e.add(&e).to_vec().is_empty());
        let v = sample(128, 8, 7);
        let s = BitSlicedVec::from_slice(&v, 8);
        assert_eq!(s.add(&s).to_vec().len(), 128);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_rejected() {
        BitSlicedVec::from_slice(&[256], 8);
    }

    #[test]
    #[should_panic(expected = "lane count mismatch")]
    fn mismatched_lanes_rejected() {
        let a = BitSlicedVec::from_slice(&[1], 8);
        let b = BitSlicedVec::from_slice(&[1, 2], 8);
        a.add(&b);
    }

    #[test]
    fn lane_shift_matches_scalar() {
        for n in [1usize, 5, 63, 64, 65, 130, 200] {
            let v = sample(n, 12, 11);
            let s = BitSlicedVec::from_slice(&v, 12);
            for k in [0usize, 1, 2, 63, 64, 65, 100] {
                let expect: Vec<u64> = (0..n).map(|i| if i >= k { v[i - k] } else { 0 }).collect();
                assert_eq!(s.shift_lanes_up(k).to_vec(), expect, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn bitsliced_backend_matches_reference_scans() {
        use scan_core::simulate::PrimitiveScans;
        let b = BitslicedScans::new(16);
        for n in [0usize, 1, 2, 7, 64, 65, 200] {
            let v = sample(n, 16, n as u64 + 21);
            let mut plus = Vec::with_capacity(n);
            let mut max = Vec::with_capacity(n);
            let (mut s, mut m) = (0u64, 0u64);
            for &x in &v {
                plus.push(s & 0xFFFF);
                max.push(m);
                s = s.wrapping_add(x);
                m = m.max(x);
            }
            assert_eq!(b.plus_scan(&v), plus, "plus n={n}");
            assert_eq!(b.max_scan(&v), max, "max n={n}");
        }
        assert!(b.scans() >= 12);
        assert!(b.bit_steps() > 0);
    }

    #[test]
    fn bitsliced_backend_counts_kogge_stone_rounds() {
        use scan_core::simulate::PrimitiveScans;
        let b = BitslicedScans::new(8);
        b.plus_scan(&[1; 64]); // 6 rounds × 8 bit steps
        assert_eq!(b.bit_steps(), 48);
        b.max_scan(&[1; 64]); // 6 rounds × 16 bit steps
        assert_eq!(b.bit_steps(), 48 + 96);
        assert_eq!(b.scans(), 2);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn bitsliced_backend_rejects_oversized_values() {
        use scan_core::simulate::PrimitiveScans;
        BitslicedScans::new(8).plus_scan(&[256]);
    }
}
