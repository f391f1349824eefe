//! Deterministic chaos suite for the sharded executor.
//!
//! Every scenario is driven by a seeded [`ChaosPlan`] delivered
//! through the shard job stream ([`ChaosPlan::shard_event_for`]), so
//! the whole failure/recovery schedule replays identically: which job
//! is killed, delayed, or corrupted depends only on the plan's periods
//! and the executor's job counter.

use std::time::Duration;

use scan_core::{Max, Segments, Sum};
use scan_fault::{BreakerConfig, BreakerState, ChaosPlan};
use scan_shard::{ScanKind, ShardConfig, ShardHealth, ShardStatus, ShardedExecutor};

fn data(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| (i * 131 + 17) % 509).collect()
}

fn cfg(shards: usize, chaos: ChaosPlan) -> ShardConfig {
    ShardConfig {
        shards,
        chaos: Some(chaos),
        ..ShardConfig::default()
    }
}

/// A shard killed mid-scan: its ranges are recomputed inline and the
/// output stays bit-equal to the single-pool kernel.
#[test]
fn killed_shard_recovers_bit_equal() {
    let plan = ChaosPlan {
        shard_kill_every: 2,
        ..ChaosPlan::quiet(7)
    };
    let ex = ShardedExecutor::new(cfg(3, plan));
    let a = data(1000);
    let want = scan_core::scan::<Sum, _>(&a);
    assert_eq!(ex.scan(ScanKind::Sum, &a).unwrap(), want);
    let h = ex.health();
    assert!(h.losses >= 1, "kill must register as a loss: {h:?}");
    assert!(
        h.recoveries + h.inline_rescues >= 1,
        "lost ranges must be re-executed: {h:?}"
    );
    assert!(
        h.shards.iter().any(|s| s.disconnects >= 1),
        "a killed shard is observed as disconnected: {h:?}"
    );
    // Later runs keep serving correct answers no matter how many
    // shards the plan has taken down by now.
    assert_eq!(ex.scan(ScanKind::Sum, &a).unwrap(), want);
}

/// A stalled shard trips the watchdog, is declared lost, and its range
/// is computed by the trusted inline path.
#[test]
fn stalled_shard_trips_watchdog() {
    let plan = ChaosPlan {
        shard_delay_every: 1,
        delay_us: 100_000,
        ..ChaosPlan::quiet(11)
    };
    let ex = ShardedExecutor::new(ShardConfig {
        watchdog: Duration::from_millis(10),
        ..cfg(2, plan)
    });
    let a = data(300);
    assert_eq!(
        ex.scan(ScanKind::Sum, &a).unwrap(),
        scan_core::scan::<Sum, _>(&a)
    );
    let h = ex.health();
    assert!(
        h.shards.iter().any(|s| s.watchdog_losses >= 1),
        "stall must be seen as a watchdog loss: {h:?}"
    );
    assert!(h.inline_rescues >= 1, "{h:?}");
}

/// Every lost range takes the one recovery path: the executor
/// recomputes it inline and hands it to no other shard.
#[test]
fn lost_ranges_are_recomputed_inline() {
    // Shard-job clock, one job per range: 1 → shard 0, 2 → shard 1
    // (killed), 3 → shard 2, 4 → shard 3 (killed). Handing a lost
    // range to another shard would issue job 5 and 6, and show up as
    // a third `served` or a third loss.
    let plan = ChaosPlan {
        shard_kill_every: 2,
        ..ChaosPlan::quiet(7)
    };
    let ex = ShardedExecutor::new(cfg(4, plan));
    let a = data(1000);
    assert_eq!(
        ex.scan(ScanKind::Sum, &a).unwrap(),
        scan_core::scan::<Sum, _>(&a)
    );
    let shard = |alive, served, disconnects| ShardStatus {
        state: BreakerState::Closed,
        alive,
        served,
        panics: 0,
        watchdog_losses: 0,
        lies: 0,
        disconnects,
        quarantines: 0,
        probes: 0,
        skipped: 0,
    };
    let want = ShardHealth {
        shards: vec![
            shard(true, 1, 0),
            shard(false, 0, 1),
            shard(true, 1, 0),
            shard(false, 0, 1),
        ],
        runs: 1,
        degraded_runs: 0,
        losses: 2,
        recoveries: 2,
        inline_rescues: 2,
    };
    assert_eq!(ex.health(), want);

    // Both shards stall past the watchdog: both ranges are recovered
    // inline, none is served.
    let plan = ChaosPlan {
        shard_delay_every: 1,
        delay_us: 100_000,
        ..ChaosPlan::quiet(11)
    };
    let ex = ShardedExecutor::new(ShardConfig {
        watchdog: Duration::from_millis(10),
        ..cfg(2, plan)
    });
    let a = data(300);
    assert_eq!(
        ex.scan(ScanKind::Sum, &a).unwrap(),
        scan_core::scan::<Sum, _>(&a)
    );
    let h = ex.health();
    assert_eq!((h.recoveries, h.inline_rescues), (2, 2), "{h:?}");
    assert!(h.shards.iter().all(|s| s.served == 0), "{h:?}");
}

/// A lying shard (corrupted carry, then corrupted output) is caught by
/// the verification pass, fixed in place, quarantined by its breaker,
/// and readmitted through a clean probation probe. Output is bit-equal
/// on every run throughout.
#[test]
fn lying_shard_is_quarantined_then_probed_back() {
    let plan = ChaosPlan {
        carry_corrupt_every: 5,
        ..ChaosPlan::quiet(13)
    };
    let ex = ShardedExecutor::new(ShardConfig {
        breaker: BreakerConfig {
            failure_threshold: 1,
            base_quarantine: 2,
            ..BreakerConfig::default()
        },
        ..cfg(2, plan)
    });
    let a = data(200);
    let want = scan_core::scan::<Sum, _>(&a);
    let seg_heads: Vec<bool> = (0..a.len()).map(|i| i % 23 == 4).collect();
    let seg_want = scan_core::seg_scan::<Sum, u64>(&a, &Segments::from_flags(seg_heads.clone()));

    // Readmission = a shard observed Open at one snapshot and Closed
    // at a later one, having served at least one probation probe in
    // between.
    let mut was_open = [false; 2];
    let mut saw_quarantine = false;
    let mut saw_readmission = false;
    for run in 0..30 {
        // Alternate flat and segmented so both kernels face the liar.
        if run % 2 == 0 {
            assert_eq!(ex.scan(ScanKind::Sum, &a).unwrap(), want, "run {run}");
        } else {
            assert_eq!(
                ex.seg_scan(ScanKind::Sum, &a, &seg_heads).unwrap(),
                seg_want,
                "run {run}"
            );
        }
        let h = ex.health();
        for (i, s) in h.shards.iter().enumerate() {
            match s.state {
                BreakerState::Open { .. } => {
                    saw_quarantine = true;
                    was_open[i] = true;
                }
                BreakerState::Closed => {
                    if was_open[i] && s.probes >= 1 {
                        saw_readmission = true;
                    }
                }
            }
        }
        if saw_quarantine && saw_readmission {
            break;
        }
    }
    let h = ex.health();
    assert!(saw_quarantine, "a lie must open the liar's breaker: {h:?}");
    assert!(
        saw_readmission,
        "a clean probe must reclose the breaker: {h:?}"
    );
    assert!(h.shards.iter().map(|s| s.lies).sum::<u64>() >= 1, "{h:?}");
    assert!(
        h.inline_rescues >= 1,
        "lie fixups are counted as inline rescues: {h:?}"
    );
    assert!(
        h.shards.iter().all(|s| s.alive),
        "lying shards are quarantined, not killed: {h:?}"
    );
}

/// A lie in the last element of a piece also reaches the claimed carry
/// of every later range. The liar's range is recomputed inline, the
/// later ranges' verified pieces get the true carry applied again,
/// the output stays bit-equal, and only the liar is blamed.
#[test]
fn lie_in_a_last_element_is_repaired_downstream() {
    // Shard-job clock: run 1 lies at job 2 (shard 1, the middle
    // range); run 2 at jobs 4 (shard 0, the first range) and 6
    // (shard 2, the final one).
    let plan = ChaosPlan {
        carry_corrupt_every: 2,
        ..ChaosPlan::quiet(37)
    };
    let ex = ShardedExecutor::new(cfg(3, plan));
    let a = data(300);
    assert_eq!(
        ex.scan(ScanKind::Sum, &a).unwrap(),
        scan_core::scan::<Sum, _>(&a)
    );
    // The only head sits in the last range, so that range takes the
    // first range's lie through its carry up to element 250.
    let heads: Vec<bool> = (0..a.len()).map(|i| i == 250).collect();
    assert_eq!(
        ex.seg_scan(ScanKind::Sum, &a, &heads).unwrap(),
        scan_core::seg_scan::<Sum, u64>(&a, &Segments::from_flags(heads.clone()))
    );
    let shard = |lies| ShardStatus {
        state: BreakerState::Closed,
        alive: true,
        served: 2,
        panics: 0,
        watchdog_losses: 0,
        lies,
        disconnects: 0,
        quarantines: 0,
        probes: 0,
        skipped: 0,
    };
    let want = ShardHealth {
        shards: vec![shard(1), shard(1), shard(1)],
        runs: 2,
        degraded_runs: 0,
        losses: 3,
        recoveries: 0,
        inline_rescues: 3,
    };
    assert_eq!(ex.health(), want);
}

/// When the plan kills every shard, the executor finishes the first
/// run inline and then degrades to the single-pool kernels — still
/// bit-equal, with the degradation visible in the health snapshot.
#[test]
fn total_shard_loss_degrades_gracefully() {
    let plan = ChaosPlan {
        shard_kill_every: 1,
        ..ChaosPlan::quiet(17)
    };
    let ex = ShardedExecutor::new(cfg(2, plan));
    let a = data(400);
    let want = scan_core::scan::<Max, _>(&a);
    assert_eq!(ex.scan(ScanKind::Max, &a).unwrap(), want);
    assert_eq!(ex.scan(ScanKind::Max, &a).unwrap(), want);
    let h = ex.health();
    assert!(h.shards.iter().all(|s| !s.alive), "{h:?}");
    assert!(h.inline_rescues >= 2, "{h:?}");
    assert!(h.degraded_runs >= 1, "{h:?}");
    assert_eq!(h.runs, 2);
}

/// The chaos schedule is a pure function of the plan and the job
/// counter: two executors with identical configs observe identical
/// histories.
#[test]
fn chaos_schedule_replays_identically() {
    let mk = || {
        ShardedExecutor::new(ShardConfig {
            watchdog: Duration::from_millis(25),
            ..cfg(
                3,
                ChaosPlan {
                    shard_kill_every: 7,
                    carry_corrupt_every: 5,
                    shard_delay_every: 3,
                    delay_us: 1,
                    ..ChaosPlan::quiet(23)
                },
            )
        })
    };
    let (ex1, ex2) = (mk(), mk());
    let a = data(600);
    for _ in 0..4 {
        let r1 = ex1.scan(ScanKind::Sum, &a);
        let r2 = ex2.scan(ScanKind::Sum, &a);
        assert_eq!(r1, r2);
        assert_eq!(r1.unwrap(), scan_core::scan::<Sum, _>(&a));
    }
    let (h1, h2) = (ex1.health(), ex2.health());
    assert_eq!(h1, h2, "replay must produce identical health");
    assert!(h1.losses >= 1);
}

/// Breaker states reported by `health()` are the real gate: a
/// quarantined shard shows `Open` and is skipped until its clock
/// comes up.
#[test]
fn health_reports_breaker_state() {
    let ex = ShardedExecutor::new(ShardConfig {
        breaker: BreakerConfig {
            failure_threshold: 1,
            base_quarantine: 1000,
            ..BreakerConfig::default()
        },
        ..cfg(
            3,
            ChaosPlan {
                carry_corrupt_every: 2,
                ..ChaosPlan::quiet(29)
            },
        )
    });
    let a = data(90);
    let want = scan_core::scan::<Sum, _>(&a);
    for _ in 0..4 {
        assert_eq!(ex.scan(ScanKind::Sum, &a).unwrap(), want);
    }
    let h = ex.health();
    assert!(h.quarantined() >= 1, "{h:?}");
    assert!(
        h.shards
            .iter()
            .any(|s| matches!(s.state, BreakerState::Open { .. }) && s.skipped >= 1),
        "{h:?}"
    );
}

/// One pinned attribution scenario: eight runs cycling flat Sum, flat
/// Max, segmented Sum and segmented Max over growing `n`, with heads
/// inside ranges and on range starts, under breakers that never open
/// (so the job schedule is fixed by the plan alone). Every run must be
/// `Ok` and equal scan-core's answer. Returns the run outcomes (`.` for
/// each `Ok`) and the final health.
fn attribution_scenario(shards: usize, every: u64) -> (String, ShardHealth) {
    let ex = ShardedExecutor::new(ShardConfig {
        breaker: BreakerConfig {
            failure_threshold: u32::MAX,
            ..BreakerConfig::default()
        },
        ..cfg(
            shards,
            ChaosPlan {
                carry_corrupt_every: every,
                ..ChaosPlan::quiet(31)
            },
        )
    });
    let mut outcomes = String::new();
    for run in 0..8usize {
        // `n` divisible by 12 splits exactly 2, 3 and 4 ways: the
        // heads at n/4, n/3 and n/2 start ranges, while the range
        // starts at 2n/3 and 3n/4 are not heads.
        let n = 12 * (10 + 3 * run);
        let a = data(n);
        let heads: Vec<bool> = (0..n)
            .map(|i| i % 29 == 11 || i == n / 4 || i == n / 3 || i == n / 2)
            .collect();
        let segs = Segments::from_flags(heads.clone());
        let (got, want) = match run % 4 {
            0 => (ex.scan(ScanKind::Sum, &a), scan_core::scan::<Sum, _>(&a)),
            1 => (ex.scan(ScanKind::Max, &a), scan_core::scan::<Max, _>(&a)),
            2 => (
                ex.seg_scan(ScanKind::Sum, &a, &heads),
                scan_core::seg_scan::<Sum, u64>(&a, &segs),
            ),
            _ => (
                ex.seg_scan(ScanKind::Max, &a, &heads),
                scan_core::seg_scan::<Max, u64>(&a, &segs),
            ),
        };
        let ctx = format!("shards={shards} every={every} run={run}");
        match got {
            Ok(v) => {
                assert_eq!(v, want, "{ctx}");
                outcomes.push('.');
            }
            Err(e) => panic!("{ctx}: unexpected {e:?}"),
        }
    }
    (outcomes, ex.health())
}

/// Lie attribution, pinned: 16 scenarios (1–4 shards, lie periods 1,
/// 2, 3 and 5), each compared field by field with a pinned outcome
/// string and health. Any change to how lies are detected, repaired or
/// blamed shows up as a different `inline_rescues`, `lies` or `served`.
///
/// A run issues one job per range, so every shard serves 8 jobs, and
/// job `j` goes to shard `(j - 1) % shards`. A lie flips the last
/// element of the job's piece, which fails the check at that range
/// only: each shard's `lies` counts the multiples of the period among
/// its jobs, and `inline_rescues` is their sum. The later ranges whose
/// carry the lie reached get the true carry applied again, which is
/// not a rescue.
#[test]
fn lie_attribution_is_pinned() {
    /// `(shards, carry_corrupt_every, outcomes, inline_rescues,
    /// per-shard (served, lies))`.
    type Row = (usize, u64, &'static str, u64, &'static [(u64, u64)]);
    #[rustfmt::skip]
    const PINNED: [Row; 16] = [
        (1, 1, "........", 8, &[(8, 8)]),
        (1, 2, "........", 4, &[(8, 4)]),
        (1, 3, "........", 2, &[(8, 2)]),
        (1, 5, "........", 1, &[(8, 1)]),
        (2, 1, "........", 16, &[(8, 8), (8, 8)]),
        (2, 2, "........", 8, &[(8, 0), (8, 8)]),
        (2, 3, "........", 5, &[(8, 3), (8, 2)]),
        (2, 5, "........", 3, &[(8, 2), (8, 1)]),
        (3, 1, "........", 24, &[(8, 8), (8, 8), (8, 8)]),
        (3, 2, "........", 12, &[(8, 4), (8, 4), (8, 4)]),
        (3, 3, "........", 8, &[(8, 0), (8, 0), (8, 8)]),
        (3, 5, "........", 4, &[(8, 1), (8, 2), (8, 1)]),
        (4, 1, "........", 32, &[(8, 8), (8, 8), (8, 8), (8, 8)]),
        (4, 2, "........", 16, &[(8, 0), (8, 8), (8, 0), (8, 8)]),
        (4, 3, "........", 10, &[(8, 2), (8, 3), (8, 3), (8, 2)]),
        (4, 5, "........", 6, &[(8, 2), (8, 2), (8, 1), (8, 1)]),
    ];
    let grid = (1..=4usize).flat_map(|shards| [1u64, 2, 3, 5].map(|every| (shards, every)));
    for ((shards, every), row) in grid.zip(PINNED) {
        let (_, _, outcomes, inline_rescues, per_shard) = row;
        assert_eq!((row.0, row.1), (shards, every));
        let ctx = format!("shards={shards} every={every}");
        let (got, health) = attribution_scenario(shards, every);
        assert_eq!(got, outcomes, "{ctx}");
        let lies: u64 = per_shard.iter().map(|&(_, lies)| lies).sum();
        let want = ShardHealth {
            shards: per_shard
                .iter()
                .map(|&(served, lies)| ShardStatus {
                    state: BreakerState::Closed,
                    alive: true,
                    served,
                    panics: 0,
                    watchdog_losses: 0,
                    lies,
                    disconnects: 0,
                    quarantines: 0,
                    probes: 0,
                    skipped: 0,
                })
                .collect(),
            runs: 8,
            degraded_runs: 0,
            losses: lies,
            recoveries: 0,
            inline_rescues,
        };
        assert_eq!(health, want, "{ctx}");
    }
}
