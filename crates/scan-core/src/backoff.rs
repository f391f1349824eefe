//! Deterministic, seeded retry/backoff arithmetic.
//!
//! Every resilience layer in this repository needs the same two
//! ingredients when something fails: an **exponential schedule**
//! (retry later, twice as much later each time, capped) and a
//! **seeded jitter draw** (spread co-failing parties apart without
//! giving up reproducibility). Before this module existed the service
//! layer and the fault layer each carried a private copy of the same
//! SplitMix64-finalizer arithmetic; they now share this one.
//!
//! Everything here is **pure arithmetic** — no clocks are read and no
//! sleeping happens (the repository's lint confines `Instant::now` to
//! `deadline.rs`). Callers decide what to do with the returned values:
//! `scan-service` sleeps for a [`Backoff::delay`], and the `scan-fault`
//! breaker (which also quarantines `scan-shard`'s shards) adds a
//! [`jitter`] draw to a quarantine measured in logical scans.
//!
//! The jitter draw is a pure function of `(seed, stream, attempt)`:
//! replaying the same failure sequence reproduces the same schedule,
//! which is what makes the chaos suites assertable to exact values.

use core::time::Duration;

/// The 64-bit golden-ratio increment used by SplitMix64.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step: advance `z` by the golden-ratio increment and
/// run the output finalizer. This is the shared deterministic entropy
/// behind every jitter draw in the repository (it is exactly
/// `scan_fault::SplitMix64::next` on a state of `z`).
#[inline]
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combine a seed, a stream discriminator (dispatch counter, backend
/// index, shard index, ...) and a per-stream step (attempt number,
/// quarantine count, ...) into one jitter-stream key.
///
/// The stream is spread by the golden-ratio constant so adjacent
/// discriminators land in unrelated parts of the state space; the step
/// is shifted left so it cannot collide with a low-entropy seed.
#[inline]
#[must_use]
pub fn stream_key(seed: u64, stream: u64, step: u64) -> u64 {
    seed.wrapping_add(stream.wrapping_mul(GOLDEN))
        .wrapping_add(step << 1)
}

/// A deterministic jitter draw in `0..bound` (`0` when `bound == 0`).
///
/// Pure function of `(key, bound)`; feed it a [`stream_key`] to get
/// the repository-standard draw.
#[inline]
#[must_use]
pub fn jitter(key: u64, bound: u64) -> u64 {
    if bound == 0 {
        0
    } else {
        mix(key) % bound
    }
}

/// The exponential term of a backoff schedule: `base · 2^(attempt-1)`,
/// with the shift capped at 10 (so attempt 11 and beyond wait 1024×
/// base) and saturating `Duration` arithmetic.
///
/// `attempt` is 1-based; an (out-of-contract) `attempt == 0` is
/// treated as attempt 1.
#[inline]
#[must_use]
pub fn exponential(base: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32 << attempt.saturating_sub(1).min(10))
}

/// Double a logical-clock quarantine, capped at `max` (which is
/// clamped to at least 1). Used by breakers whose backoff is measured
/// in scans rather than wall time.
#[inline]
#[must_use]
pub fn double_capped(current: u64, max: u64) -> u64 {
    current.saturating_mul(2).min(max.max(1))
}

/// A seeded wall-clock backoff policy: exponential base plus bounded
/// uniform jitter.
///
/// [`delay`](Backoff::delay) is a pure function of the policy and of
/// `(stream, attempt, salt)`, so a replayed failure sequence sleeps
/// the same schedule — the property the service-level tests pin to
/// exact values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// The exponential term's base: attempt `k` waits `base · 2^(k-1)`.
    pub base: Duration,
    /// Upper bound of the uniform jitter added to each delay;
    /// `Duration::ZERO` disables jitter (exact schedule).
    pub jitter: Duration,
    /// Seed for the jitter draw.
    pub seed: u64,
}

impl Backoff {
    /// The delay before retry number `attempt` (1-based) of logical
    /// stream `stream` (a dispatch counter, ...). `salt`
    /// decorrelates otherwise-identical streams (e.g. the scan-kind
    /// bit in the service layer); pass `0` when unused.
    #[must_use]
    pub fn delay(&self, stream: u64, attempt: u32, salt: u64) -> Duration {
        let exp = exponential(self.base, attempt);
        let bound = self.jitter.as_nanos() as u64;
        let key = stream_key(self.seed, stream, u64::from(attempt)).wrapping_add(salt);
        exp.saturating_add(Duration::from_nanos(jitter(key, bound)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference SplitMix64 step, written out independently so the
    /// shared `mix` cannot drift from the generators it replaced
    /// (`scan_fault::SplitMix64::next` and the service's old private
    /// finalizer).
    fn reference_splitmix_next(state: u64) -> u64 {
        let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn mix_matches_splitmix64_next_exactly() {
        for s in [0u64, 1, 42, 0x5eed_b10c_ba5e_0ff5, u64::MAX] {
            assert_eq!(mix(s), reference_splitmix_next(s));
        }
        // Exact-value pins: these are load-bearing — the scan-fault
        // breaker tests and the service backoff tests assume draws
        // derived from exactly this function.
        assert_eq!(mix(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix(1), 0x910A_2DEC_8902_5CC1);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for stream in 0..8u64 {
            for step in 0..8u64 {
                let key = stream_key(0xfeed_beef, stream, step);
                let a = jitter(key, 6);
                assert_eq!(a, jitter(key, 6), "same key, same draw");
                assert!(a < 6);
            }
        }
        assert_eq!(jitter(123, 0), 0, "zero bound disables jitter");
        assert_eq!(jitter(123, 1), 0, "bound 1 can only draw 0");
    }

    #[test]
    fn stream_key_matches_the_extracted_formulas() {
        // The scan-fault breaker's draw key was
        //   jitter_seed + b_idx·GOLDEN + (quarantines << 1)
        // and the service's was
        //   jitter_seed + dispatch·GOLDEN + (attempt << 1) + kind_bit.
        let seed = 0x5eed_b10c_ba5e_0ff5u64;
        let legacy_fault = seed
            .wrapping_add(3u64.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(5u64 << 1);
        assert_eq!(stream_key(seed, 3, 5), legacy_fault);
        let legacy_service = seed
            .wrapping_add(17u64.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(2u64 << 1)
            .wrapping_add(1);
        assert_eq!(stream_key(seed, 17, 2).wrapping_add(1), legacy_service);
    }

    #[test]
    fn exponential_doubles_then_caps() {
        let b = Duration::from_millis(3);
        assert_eq!(exponential(b, 1), b);
        assert_eq!(exponential(b, 2), b * 2);
        assert_eq!(exponential(b, 5), b * 16);
        assert_eq!(exponential(b, 11), b * 1024);
        assert_eq!(exponential(b, 40), b * 1024, "shift caps at 10");
        assert_eq!(exponential(b, 0), b, "attempt 0 treated as 1");
        // Saturation instead of overflow.
        let _ = exponential(Duration::MAX, 11);
    }

    #[test]
    fn double_capped_schedule() {
        assert_eq!(double_capped(8, 64), 16);
        assert_eq!(double_capped(40, 64), 64);
        assert_eq!(double_capped(64, 64), 64);
        assert_eq!(double_capped(u64::MAX, u64::MAX), u64::MAX);
        assert_eq!(double_capped(5, 0), 1, "cap clamps to at least 1");
    }

    #[test]
    fn backoff_delay_exact_values() {
        let p = Backoff {
            base: Duration::from_micros(100),
            jitter: Duration::from_micros(10),
            seed: 0x5cad_0001,
        };
        // Pure function: replays identically.
        for attempt in 1..=4 {
            for stream in [0u64, 1, 99] {
                assert_eq!(p.delay(stream, attempt, 0), p.delay(stream, attempt, 0));
                let exp = exponential(p.base, attempt);
                let d = p.delay(stream, attempt, 0);
                assert!(d >= exp && d < exp + p.jitter + Duration::from_nanos(1));
            }
        }
        // Exact pin of one draw, derived by hand from the formula:
        // key = stream_key(seed, 7, 2), bound = 10_000 ns.
        let key = stream_key(0x5cad_0001, 7, 2);
        let expect = exponential(p.base, 2) + Duration::from_nanos(mix(key) % 10_000);
        assert_eq!(p.delay(7, 2, 0), expect);
        // Zero jitter → pure exponential.
        let exact = Backoff {
            jitter: Duration::ZERO,
            ..p
        };
        assert_eq!(exact.delay(7, 3, 0), exponential(p.base, 3));
        // The salt moves the draw (almost surely) but never the bound.
        let with_salt = p.delay(7, 2, 1);
        assert!(with_salt >= exponential(p.base, 2));
    }
}
