//! Order statistics and interval arithmetic over measured samples.

/// Fewest samples that must lie beyond a reported tail percentile. A
/// p90 over fewer than 100 samples rests on a handful of values.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q * len` samples at or below it. `None` when empty.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    let rank = quantile_rank(sorted.len(), q)?;
    Some(sorted[rank])
}

/// Index [`quantile`] reads for `len` samples.
fn quantile_rank(len: usize, q: f64) -> Option<usize> {
    if len == 0 {
        return None;
    }
    // The epsilon keeps `0.9 * 100` from rounding up past rank 90.
    let rank = (q.clamp(0.0, 1.0) * len as f64 - 1e-9).ceil() as usize;
    Some(rank.clamp(1, len) - 1)
}

/// Median of unsorted samples (nearest rank). `None` when empty.
pub fn median(samples: &[u64]) -> Option<u64> {
    let mut s = samples.to_vec();
    s.sort_unstable();
    quantile(&s, 0.5)
}

/// Median of unsorted floating-point samples (nearest rank).
pub fn median_f64(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = quantile_rank(s.len(), 0.5)?;
    Some(s[rank])
}

/// Fewest samples with [`TAIL_MIN_BEYOND`] beyond their `q` quantile
/// (`q < 1`): 100 for a p90.
pub fn tail_min_samples(q: f64) -> usize {
    (TAIL_MIN_BEYOND as f64 / (1.0 - q) - 1e-9).ceil() as usize
}

/// The `q` quantile of an ascending slice, but only when at least
/// [`TAIL_MIN_BEYOND`] samples lie beyond it; otherwise an error naming
/// how many samples the run would have needed.
pub fn guarded_tail(sorted: &[u64], q: f64) -> Result<u64, String> {
    let len = sorted.len();
    let beyond = quantile_rank(len, q).map_or(0, |r| len - 1 - r);
    if beyond < TAIL_MIN_BEYOND {
        let need = tail_min_samples(q);
        return Err(format!(
            "p{:.0} over {len} samples has {beyond} beyond it; a run needs at least {need} samples",
            q * 100.0
        ));
    }
    Ok(sorted[len - 1 - beyond])
}

/// Length of `[start, end)` not covered by any of `children`, each
/// clipped to the parent first. Children may overlap one another and
/// may come from other threads: only the covered time counts, once.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(quantile(&s, 0.5), Some(5));
        assert_eq!(quantile(&s, 0.9), Some(9));
        assert_eq!(quantile(&s, 1.0), Some(10));
        assert_eq!(quantile(&s, 0.0), Some(1));
        assert_eq!(quantile(&[7], 0.9), Some(7));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[9, 1, 5]), Some(5));
        assert_eq!(median_f64(&[0.3, 0.1, 0.2, 0.4]), Some(0.2));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(guarded_tail(&s, 0.9), Ok(90));
        let short: Vec<u64> = (1..=99).collect();
        let err = guarded_tail(&short, 0.9).unwrap_err();
        assert!(
            err.contains("9 beyond") && err.contains("100 samples"),
            "{err}"
        );
        assert!(guarded_tail(&[], 0.9).is_err());
        let many: Vec<u64> = (1..=1000).collect();
        assert_eq!(guarded_tail(&many, 0.99), Ok(990));
        assert_eq!(tail_min_samples(0.9), 100);
        assert_eq!(tail_min_samples(0.99), 1000);
        assert_eq!(tail_min_samples(0.5), 20);
    }

    #[test]
    fn self_time_counts_covered_time_once() {
        // Parent on one thread, children on others: overlapping children
        // and one that runs past the parent's end.
        let parent = (0, 100);
        let children = [(20, 50), (10, 30), (90, 120)];
        assert_eq!(self_time(parent, &children), 100 - 40 - 10);
        assert_eq!(self_time(parent, &[]), 100);
        assert_eq!(self_time(parent, &[(200, 300)]), 100);
        assert_eq!(self_time(parent, &[(0, 100), (10, 20)]), 0);
        assert_eq!(self_time((50, 60), &[(0, 55)]), 5);
    }
}
