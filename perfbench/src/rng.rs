//! The seeded generator every workload draws its inputs from.

/// SplitMix64: tiny, fast, and the same stream on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, kept apart from other workloads' streams by
    /// `label`, so that one seed gives each workload its own inputs.
    pub fn new(seed: u64, label: &str) -> Self {
        let tag = label.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        Rng(seed ^ tag)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (multiply-shift; `bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `n` values below 2^32, so no `+-scan` of up to 2^32 of them wraps.
    pub fn u32_values(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_u64() >> 32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_label() {
        let a = Rng::new(7, "bulk").u32_values(64);
        assert_eq!(a, Rng::new(7, "bulk").u32_values(64));
        assert_ne!(a, Rng::new(8, "bulk").u32_values(64));
        assert_ne!(a, Rng::new(7, "sort").u32_values(64));
        assert!(a.iter().all(|&x| x < 1 << 32));
        let mut r = Rng::new(1, "x");
        assert!((0..1000).all(|_| r.below(10) < 10 && (0.0..1.0).contains(&r.unit())));
    }
}
