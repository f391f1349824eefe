//! Shared workload generators and table formatting for the
//! reproduction harness. Each `table*` binary regenerates one table of
//! the paper; the Criterion benches measure wall clock on the pooled
//! parallel kernels (`scan_core::parallel`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A deterministic splitmix64-based generator (no external RNG needed
/// in the harness path).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeded generator. Splitmix64 accepts any 64-bit seed (including
    /// 0), so all bits of `seed` select a distinct stream — an earlier
    /// revision forced the low bit on, silently aliasing seed `2k` with
    /// `2k+1`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next raw 64-bit value.
    // Deliberately named like `Iterator::next`; the generator is
    // infinite, so the iterator protocol's `Option` would only add noise.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform value below `bound`, without modulo bias.
    ///
    /// Lemire's multiply-shift method with a rejection loop: accept the
    /// high word of `x * bound` unless the low word falls in the
    /// aliased region `[0, 2^64 mod bound)`, in which case redraw.
    /// The expected number of redraws is below one for every `bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        let bound = bound.max(1);
        // 2^64 mod bound, computed without u128 division by 2^64.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next();
            let wide = u128::from(x) * u128::from(bound);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }
}

/// Random keys bounded by `2^bits`.
pub fn random_keys(n: usize, bits: u32, seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    let mask = if bits >= 64 {
        u64::MAX
    } else {
        (1 << bits) - 1
    };
    (0..n).map(|_| rng.next() & mask).collect()
}

/// A random multigraph with `m` candidate edges (self-loops skipped).
pub fn random_graph(n: usize, m: usize, seed: u64) -> Vec<(usize, usize, u64)> {
    let mut rng = Rng::new(seed);
    (0..m)
        .filter_map(|_| {
            let u = rng.below(n as u64) as usize;
            let v = rng.below(n as u64) as usize;
            (u != v).then(|| (u, v, rng.below(1 << 20)))
        })
        .collect()
}

/// A connected random graph: a random spanning path plus extra edges.
pub fn connected_graph(n: usize, extra: usize, seed: u64) -> Vec<(usize, usize, u64)> {
    let mut rng = Rng::new(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        perm.swap(i, j);
    }
    let mut edges: Vec<(usize, usize, u64)> = perm
        .windows(2)
        .map(|w| (w[0], w[1], rng.below(1 << 20)))
        .collect();
    edges.extend(random_graph(n, extra, seed ^ 0xabcdef));
    edges
}

/// Random sorted vector.
pub fn sorted_keys(n: usize, bits: u32, seed: u64) -> Vec<u64> {
    let mut v = random_keys(n, bits, seed);
    v.sort_unstable();
    v
}

/// Random points in a square of the given half-extent.
pub fn random_points(n: usize, extent: i64, seed: u64) -> Vec<(i64, i64)> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| {
            (
                (rng.next() as i64).rem_euclid(2 * extent) - extent,
                (rng.next() as i64).rem_euclid(2 * extent) - extent,
            )
        })
        .collect()
}

/// Print a row of right-aligned cells under the given widths.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let row: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}"))
        .collect();
    println!("{}", row.join("  "));
}

/// Print a rule matching the widths.
pub fn print_rule(widths: &[usize]) {
    let row: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    println!("{}", row.join("  "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(5);
        let mut b = Rng::new(5);
        for _ in 0..10 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn adjacent_seeds_give_distinct_streams() {
        // The old constructor OR'd the low seed bit on, aliasing 2 and 3.
        let mut a = Rng::new(2);
        let mut b = Rng::new(3);
        assert_ne!(
            (0..4).map(|_| a.next()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = Rng::new(42);
        for bound in [1u64, 2, 3, 7, 1000, u64::MAX / 2 + 1] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
        // bound=3 splits 2^64 unevenly for a modulo reduction; the
        // rejection sampler must keep all three residues near 1/3.
        let mut counts = [0u64; 3];
        for _ in 0..30_000 {
            counts[rng.below(3) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "skewed counts: {counts:?}");
        }
        // Degenerate bound: stay total rather than divide by zero.
        assert_eq!(rng.below(0), 0);
    }

    #[test]
    fn workloads_have_requested_shapes() {
        assert_eq!(random_keys(100, 8, 1).len(), 100);
        assert!(random_keys(100, 8, 1).iter().all(|&k| k < 256));
        let s = sorted_keys(50, 16, 2);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        let g = connected_graph(20, 10, 3);
        assert!(g.len() >= 19);
        let p = random_points(30, 100, 4);
        assert!(p.iter().all(|&(x, y)| x.abs() <= 100 && y.abs() <= 100));
    }
}
