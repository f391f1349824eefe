//! Deterministic chaos injection: delays, panics, and wrong results on
//! a seeded schedule.
//!
//! A [`ChaosPlan`] is a pure function from a 1-based call index to a
//! [`ChaosEvent`], so any run is reproducible from the plan alone. Two
//! adapters deliver the schedule into the scan stack:
//!
//! - [`ChaosBackend`] wraps any `PrimitiveScans` backend and injects
//!   the scheduled event per *scan call* — sleeping, panicking, or
//!   corrupting one output element. Feed it to a
//!   [`CheckedExecutor`](crate::CheckedExecutor) to exercise the
//!   verifier, breaker, and panic containment.
//! - [`chaos_op`] wraps a binary scan operator and injects delays and
//!   panics per *operator application* (never lies — a lying operator
//!   would make the scan's own output ill-defined). Feed it to the
//!   `scan_core::try_*` kernels to exercise deadline checkpoints and
//!   worker-panic recovery.
//!
//! The resilience contract under chaos: every `try_*` entry point and
//! `CheckedExecutor::checked_*` call either returns the correct result
//! or a typed error — it never hangs and never lets a panic cross the
//! API boundary.

use std::cell::Cell;
// xtask-allow: atomics-confinement cross-thread call counter local to the chaos harness, never swapped under loom
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use scan_core::simulate::PrimitiveScans;

use crate::plan::SplitMix64;

/// What the chaos schedule does to one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Run the call untouched.
    None,
    /// Sleep for the given duration before running the call.
    Delay(Duration),
    /// Panic instead of running the call.
    Panic,
    /// Run the call but corrupt its result.
    Lie,
    /// Kill the executing shard mid-job (delivered by `scan-shard`'s
    /// supervisor loop, which exits without replying: the executor
    /// sees the job's reply channel close, a disconnect, so the
    /// dead-shard detection and the executor's inline recomputation of
    /// the lost range are what get exercised).
    ShardKill,
    /// Corrupt the last element of the piece a shard returns (its
    /// range's scan from the identity). The executor reads the range's
    /// claimed total off that element, so the lie reaches the carries
    /// of every later range as well: the assembly pass's check, its
    /// inline recomputation of the liar's range, its re-application of
    /// the true carry to the later ranges, and the breaker quarantine
    /// are what get exercised.
    CarryCorrupt,
}

/// A seeded, deterministic schedule of chaos events.
///
/// Each `*_every` period is independent; `0` disables that event kind.
/// When several kinds land on the same call the precedence is
/// panic > lie > delay. Call indices are 1-based, so the first
/// `every - 1` calls of each kind run clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed for the value-corruption stream (which element lies, and
    /// by how much).
    pub seed: u64,
    /// Inject a delay every this many calls (0 = never).
    pub delay_every: u64,
    /// Length of each injected delay, in microseconds.
    pub delay_us: u64,
    /// Panic every this many calls (0 = never).
    pub panic_every: u64,
    /// Corrupt the result every this many calls (0 = never).
    pub lie_every: u64,
    /// Kill the executing shard every this many *shard jobs*
    /// (0 = never). Only consulted by [`ChaosPlan::shard_event_for`].
    pub shard_kill_every: u64,
    /// Delay a shard job every this many shard jobs (0 = never); the
    /// delay length reuses `delay_us`. Only consulted by
    /// [`ChaosPlan::shard_event_for`].
    pub shard_delay_every: u64,
    /// Corrupt the last element of a shard's piece, the one its
    /// claimed total is read from, every this many shard jobs
    /// (0 = never). Only consulted by [`ChaosPlan::shard_event_for`].
    pub carry_corrupt_every: u64,
}

impl ChaosPlan {
    /// A plan that injects nothing.
    pub fn quiet(seed: u64) -> Self {
        ChaosPlan {
            seed,
            delay_every: 0,
            delay_us: 0,
            panic_every: 0,
            lie_every: 0,
            shard_kill_every: 0,
            shard_delay_every: 0,
            carry_corrupt_every: 0,
        }
    }

    /// The scheduled event for 1-based call number `call`.
    pub fn event_for(&self, call: u64) -> ChaosEvent {
        let due = |every: u64| every != 0 && call.is_multiple_of(every);
        if due(self.panic_every) {
            ChaosEvent::Panic
        } else if due(self.lie_every) {
            ChaosEvent::Lie
        } else if due(self.delay_every) {
            ChaosEvent::Delay(Duration::from_micros(self.delay_us))
        } else {
            ChaosEvent::None
        }
    }

    /// The scheduled event for 1-based shard-job number `call`.
    ///
    /// Shard jobs count on their own clock, separate from scan calls,
    /// so a plan can torment a `scan-shard` executor without touching
    /// the backends underneath it. Precedence when several kinds land
    /// on the same job: shard-kill > carry-corrupt > delay. The delay
    /// length reuses `delay_us`.
    pub fn shard_event_for(&self, call: u64) -> ChaosEvent {
        let due = |every: u64| every != 0 && call.is_multiple_of(every);
        if due(self.shard_kill_every) {
            ChaosEvent::ShardKill
        } else if due(self.carry_corrupt_every) {
            ChaosEvent::CarryCorrupt
        } else if due(self.shard_delay_every) {
            ChaosEvent::Delay(Duration::from_micros(self.delay_us))
        } else {
            ChaosEvent::None
        }
    }
}

/// A `PrimitiveScans` wrapper that subjects every scan call to a
/// [`ChaosPlan`].
///
/// Lies corrupt exactly one seed-chosen output element by a nonzero
/// seed-chosen amount, so the exclusive-scan verifier is guaranteed to
/// reject the output. Panics unwind with a `"chaos:"` payload; pair
/// with a [`CheckedExecutor`](crate::CheckedExecutor), which contains
/// them.
#[derive(Debug)]
pub struct ChaosBackend<B> {
    inner: B,
    plan: ChaosPlan,
    calls: Cell<u64>,
}

impl<B> ChaosBackend<B> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: B, plan: ChaosPlan) -> Self {
        ChaosBackend {
            inner,
            plan,
            calls: Cell::new(0),
        }
    }

    /// Scan calls made so far (clean and chaotic).
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: PrimitiveScans> ChaosBackend<B> {
    fn run(&self, max: bool, a: &[u64]) -> Vec<u64> {
        let call = self.calls.get() + 1;
        self.calls.set(call);
        match self.plan.event_for(call) {
            ChaosEvent::Panic => panic!("chaos: injected panic at call {call}"),
            // xtask-allow: no-raw-clock an injected delay is a scheduled fault, and it has to take wall time to be one
            ChaosEvent::Delay(d) => std::thread::sleep(d),
            // Shard events never fire from `event_for`; they are
            // scheduled by `shard_event_for` and delivered by the
            // shard executor, not per-backend wrappers.
            ChaosEvent::None
            | ChaosEvent::Lie
            | ChaosEvent::ShardKill
            | ChaosEvent::CarryCorrupt => {}
        }
        let mut out = if max {
            self.inner.max_scan(a)
        } else {
            self.inner.plus_scan(a)
        };
        if self.plan.event_for(call) == ChaosEvent::Lie && !out.is_empty() {
            let mut rng = SplitMix64(self.plan.seed ^ call.wrapping_mul(0x9E3779B97F4A7C15));
            let pos = rng.below(out.len() as u64) as usize;
            out[pos] ^= 1 + rng.below(u64::MAX - 1);
        }
        out
    }
}

impl<B: PrimitiveScans> PrimitiveScans for ChaosBackend<B> {
    fn plus_scan(&self, a: &[u64]) -> Vec<u64> {
        self.run(false, a)
    }

    fn max_scan(&self, a: &[u64]) -> Vec<u64> {
        self.run(true, a)
    }
}

/// Wrap a binary scan operator so every application is counted against
/// `plan` (shared across all worker threads via one atomic counter) and
/// the scheduled delays and panics fire mid-scan.
///
/// Lie events are deliberately ignored here: an operator that returns
/// wrong values produces a *well-formed but wrong* scan, which is the
/// backend layer's failure mode, not the kernel layer's. Delays
/// exercise deadline checkpoints; panics exercise worker containment.
pub fn chaos_op<T, F>(plan: ChaosPlan, f: F) -> impl Fn(T, T) -> T + Sync
where
    F: Fn(T, T) -> T + Sync,
{
    // xtask-allow: atomics-confinement fault-injection probe shared across workers; deliberately outside the audited sync modules
    let calls = AtomicU64::new(0);
    move |x, y| {
        // xtask-allow: atomics-confinement relaxed count of operator applications drives the injection schedule only
        let call = calls.fetch_add(1, Ordering::Relaxed) + 1;
        match plan.event_for(call) {
            ChaosEvent::Panic => panic!("chaos: injected operator panic at application {call}"),
            // xtask-allow: no-raw-clock an injected delay is a scheduled fault, and it has to take wall time to be one
            ChaosEvent::Delay(d) => std::thread::sleep(d),
            ChaosEvent::None
            | ChaosEvent::Lie
            | ChaosEvent::ShardKill
            | ChaosEvent::CarryCorrupt => {}
        }
        f(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_core::simulate::SoftwareScans;
    use scan_core::Sum;

    #[test]
    fn schedule_is_deterministic_with_panic_precedence() {
        let p = ChaosPlan {
            delay_every: 2,
            delay_us: 5,
            panic_every: 6,
            lie_every: 3,
            ..ChaosPlan::quiet(1)
        };
        let events: Vec<ChaosEvent> = (1..=6).map(|c| p.event_for(c)).collect();
        assert_eq!(
            events,
            vec![
                ChaosEvent::None,
                ChaosEvent::Delay(Duration::from_micros(5)),
                ChaosEvent::Lie,
                ChaosEvent::Delay(Duration::from_micros(5)),
                ChaosEvent::None,
                ChaosEvent::Panic, // beats both lie (6 % 3) and delay (6 % 2)
            ]
        );
        assert_eq!(p.event_for(12), ChaosEvent::Panic);
        let quiet = ChaosPlan::quiet(9);
        assert!((1..100).all(|c| quiet.event_for(c) == ChaosEvent::None));
    }

    #[test]
    fn shard_schedule_is_deterministic_with_kill_precedence() {
        let p = ChaosPlan {
            delay_us: 9,
            shard_kill_every: 6,
            shard_delay_every: 2,
            carry_corrupt_every: 3,
            ..ChaosPlan::quiet(1)
        };
        let events: Vec<ChaosEvent> = (1..=6).map(|c| p.shard_event_for(c)).collect();
        assert_eq!(
            events,
            vec![
                ChaosEvent::None,
                ChaosEvent::Delay(Duration::from_micros(9)),
                ChaosEvent::CarryCorrupt,
                ChaosEvent::Delay(Duration::from_micros(9)),
                ChaosEvent::None,
                ChaosEvent::ShardKill, // beats corrupt (6 % 3) and delay (6 % 2)
            ]
        );
        // The shard clock is independent of the scan-call clock.
        assert!((1..100).all(|c| p.event_for(c) == ChaosEvent::None));
        let quiet = ChaosPlan::quiet(9);
        assert!((1..100).all(|c| quiet.shard_event_for(c) == ChaosEvent::None));
    }

    #[test]
    fn lies_are_always_detectable_and_reproducible() {
        let a: Vec<u64> = (0..32).map(|i| i * 7).collect();
        let good = scan_core::scan::<Sum, _>(&a);
        let plan = ChaosPlan {
            lie_every: 2,
            ..ChaosPlan::quiet(42)
        };
        let run = || {
            let b = ChaosBackend::new(SoftwareScans, plan);
            (b.plus_scan(&a), b.plus_scan(&a), b.plus_scan(&a))
        };
        let (c1, c2, c3) = run();
        assert_eq!(c1, good, "call 1 is clean");
        assert_ne!(c2, good, "call 2 lies");
        assert_eq!(c3, good, "call 3 is clean");
        assert_eq!(run().1, c2, "same plan, same lie");
        assert!(
            crate::verify::verify_scan::<Sum, u64>(&a, &c2).is_err(),
            "a chaos lie must never verify"
        );
    }

    #[test]
    fn panics_fire_on_schedule() {
        let plan = ChaosPlan {
            panic_every: 2,
            ..ChaosPlan::quiet(0)
        };
        let b = ChaosBackend::new(SoftwareScans, plan);
        let a = [1u64, 2, 3];
        assert_eq!(b.plus_scan(&a), scan_core::scan::<Sum, _>(&a));
        let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.plus_scan(&a)));
        assert!(got.is_err(), "call 2 must panic");
        assert_eq!(b.calls(), 2);
    }

    #[test]
    fn chaos_op_counts_across_applications() {
        let plan = ChaosPlan {
            panic_every: 5,
            ..ChaosPlan::quiet(0)
        };
        let op = chaos_op(plan, |x: u64, y: u64| x + y);
        for _ in 0..4 {
            op(1, 1);
        }
        let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| op(1, 1)));
        assert!(got.is_err(), "5th application must panic");
        // Lie events are a no-op for operators.
        let lying = chaos_op(
            ChaosPlan {
                lie_every: 1,
                ..ChaosPlan::quiet(0)
            },
            |x: u64, y: u64| x + y,
        );
        assert_eq!(lying(2, 3), 5);
    }

    #[test]
    fn chaos_backend_under_checked_executor_always_serves_truth() {
        let a: Vec<u64> = (0..48).map(|i| (i * 5) % 31).collect();
        let good = scan_core::scan::<Sum, _>(&a);
        let plan = ChaosPlan {
            delay_every: 7,
            delay_us: 10,
            panic_every: 5,
            lie_every: 3,
            ..ChaosPlan::quiet(7)
        };
        let ex = crate::CheckedExecutor::new(Box::new(ChaosBackend::new(SoftwareScans, plan)))
            .with_fallback(Box::new(SoftwareScans));
        for _ in 0..40 {
            assert_eq!(ex.plus_scan(&a), good);
        }
        let h = ex.backend_health(0);
        assert!(h.panics > 0, "schedule must have injected panics");
        assert!(
            ex.stats().detections > 0,
            "schedule must have injected lies"
        );
    }
}
