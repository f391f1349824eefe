//! Old-versus-new execution engine benchmark.
//!
//! Times the headline kernels under the seed engine's schedule
//! (fresh `thread::scope` spawns per call, unfused kernels with
//! materialized intermediate vectors) against the current engine
//! (persistent worker pool, fused map→scan kernels), across sizes
//! `2^14 .. 2^24`, and writes the medians to `BENCH_engine.json` at
//! the repository root.
//!
//! Every timed pair is also checked for equality — the two engines
//! must agree bit-for-bit on these integer kernels, so a reported
//! speedup can never hide a wrong answer.
//!
//! The sort section times three things per size: the legacy 1-bit
//! engine sort under both schedules, the fused `multi_split` sort
//! against this run's legacy sort (so its speedup column is the
//! fused-vs-legacy ratio on this machine), and a digit-width sweep
//! (w ∈ {1, 4, 8}) of the unfused enumerate-per-bucket schedule vs the
//! fused kernel. The `sort(…-bit)` rows then sweep the default sort
//! against 8-bit fused passes from 2^8 to 2^20 keys of 16, 32 and 64
//! bits (DESIGN.md §11). Two roofline rows per size bound the scans from
//! below: `memcpy` (reused destination — the raw bandwidth floor) and
//! `memcpy(fresh)` (`a.to_vec()` — the floor for a kernel that must
//! allocate and return a fresh `Vec`, which at large n is dominated
//! by first-touch page faults, not the copy).
//!
//! The JSON records the actual pool width, the SIMD ISA the dispatcher
//! selected, and a derived GB/s column for the bandwidth-bound rows
//! (16 bytes of traffic per element: one streamed read, one streamed
//! write) so the roofline gap is readable straight off the file.
//!
//! Usage:
//!   cargo run --release -p scan-bench --bin bench_engine
//!   cargo run --release -p scan-bench --bin bench_engine -- --smoke
//!   cargo run --release -p scan-bench --bin bench_engine -- --out path.json
//!   cargo run --release -p scan-bench --bin bench_engine -- --smoke --chaos
//!
//! `--chaos` appends a resilience smoke section: the fallible kernels
//! run under seeded delay/panic injection (see `scan_fault::ChaosPlan`)
//! with per-scenario timings, equality checks on every `Ok`, and a
//! watchdog proving nothing hangs.

use scan_algorithms::sort::fused_radix::{fused_radix_sort, fused_radix_sort_digits};
use scan_algorithms::sort::radix::{split_radix_sort, split_radix_sort_digits};
use scan_bench::random_keys;
use scan_core::ops::{enumerate, pack};
use scan_core::parallel::{self, Schedule};
use scan_core::segmented::{seg_scan, Segments};
use scan_core::{scan, Max, Scan, Sum};
use std::time::Instant;

/// One kernel measurement: median ns per call for both engines.
struct Row {
    kernel: &'static str,
    n: usize,
    old_ns: u128,
    new_ns: u128,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.old_ns as f64 / self.new_ns.max(1) as f64
    }

    /// Derived bandwidth of the `new` engine for the rows that stream
    /// one read + one write per 8-byte element; `None` for kernels
    /// whose traffic is not that simple shape.
    fn gbps(&self) -> Option<f64> {
        matches!(
            self.kernel,
            "memcpy" | "memcpy(fresh)" | "+-scan" | "max-scan"
        )
        .then(|| 16.0 * self.n as f64 / self.new_ns.max(1) as f64)
    }
}

/// Median of `k` timed runs of `f` (ns), after `warmup` untimed runs.
fn time_median<R>(warmup: usize, k: usize, mut f: impl FnMut() -> R) -> u128 {
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut samples: Vec<u128> = (0..k)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Repetitions scaled down with input size so each cell costs roughly
/// the same wall clock.
fn reps(n: usize) -> usize {
    ((1usize << 26) / n.max(1)).clamp(3, 25)
}

/// Run `f` with the process-wide default schedule set to `sched`.
fn under<R>(sched: Schedule, f: impl FnOnce() -> R) -> R {
    parallel::set_default_schedule(sched);
    let r = f();
    parallel::set_default_schedule(Schedule::Pooled);
    r
}

/// Seed-style unfused exclusive seg scan: materialize the (value, flag)
/// pair vector, inclusive-scan it, then a separate shift pass.
fn old_seg_plus_scan(a: &[u64], segs: &Segments) -> Vec<u64> {
    let pairs: Vec<(u64, bool)> = (0..a.len()).map(|i| (a[i], segs.is_head(i))).collect();
    let inc = Scan::by((0u64, false), |(v1, f1), (v2, f2)| {
        if f2 {
            (v2, true)
        } else {
            (v1.wrapping_add(v2), f1)
        }
    })
    .schedule(Schedule::Spawn)
    .inclusive()
    .run(&pairs)
    .0;
    (0..a.len())
        .map(|i| if segs.is_head(i) { 0 } else { inc[i - 1].0 })
        .collect()
}

/// Seed-style unfused pack: 0/1 vector, scan, reduce, scatter.
fn old_pack(a: &[u64], keep: &[bool]) -> Vec<u64> {
    let ones: Vec<usize> = parallel::map_by_sched(Schedule::Spawn, keep, usize::from);
    let dest = Scan::by(0, |x, y| x + y)
        .schedule(Schedule::Spawn)
        .run(&ones)
        .0;
    let total = Scan::by(0, |x, y| x + y)
        .schedule(Schedule::Spawn)
        .total(&ones);
    let mut out = vec![0u64; total];
    for i in 0..a.len() {
        if keep[i] {
            out[dest[i]] = a[i];
        }
    }
    out
}

fn bench_sizes(smoke: bool) -> Vec<usize> {
    if smoke {
        vec![1 << 10, (1 << 14) + 1]
    } else {
        vec![1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24]
    }
}

fn sort_sizes(smoke: bool) -> Vec<usize> {
    if smoke {
        // One size runs a single block, the other several.
        vec![1 << 10, (1 << 14) + 1]
    } else {
        vec![1 << 14, 1 << 16, 1 << 18, 1 << 20]
    }
}

/// Asserts that the default sort of `keys`, declared `bits` wide,
/// equals `sort_unstable` and 8-bit fused passes on the same keys.
fn check_sort(what: &str, keys: &[u64], bits: u32) {
    let mut expect = keys.to_vec();
    expect.sort_unstable();
    let sorted = fused_radix_sort(keys, bits);
    assert!(sorted == expect, "fused sort wrong: {what}");
    assert!(
        sorted == fused_radix_sort_digits(keys, bits, 8),
        "default and 8-bit fused sorts disagree: {what}"
    );
}

/// The `--chaos` resilience smoke: seeded injection of delays and
/// panics into the fallible kernels. Each scenario is timed, watched
/// by a wall-clock watchdog (no hang), and every `Ok` is checked for
/// exact equality with the reference scan.
fn run_chaos(smoke: bool) {
    use scan_core::{ExecError, ScanDeadline};
    use scan_fault::{chaos_op, ChaosPlan};
    use std::sync::mpsc;
    use std::time::Duration;

    let sizes: Vec<usize> = if smoke {
        vec![(1 << 14) + 1]
    } else {
        vec![1 << 16, 1 << 18]
    };
    println!("\nchaos smoke: seeded delay/panic injection over the try_* kernels");
    println!("(injected worker panics print their unwind messages below — that is the scenario, not a failure)");
    println!(
        "{:>10} {:>16} {:>14} {:>20}",
        "n", "scenario", "ns", "outcome"
    );
    for n in sizes {
        let a = random_keys(n, 32, 0xC4A05);
        let expect = scan::<Sum, _>(&a);
        let cases: Vec<(&str, ChaosPlan, Option<u64>)> = vec![
            ("quiet", ChaosPlan::quiet(1), None),
            (
                "sparse-delay",
                ChaosPlan {
                    delay_every: 4096,
                    delay_us: 50,
                    ..ChaosPlan::quiet(2)
                },
                None,
            ),
            (
                "delay+deadline",
                ChaosPlan {
                    delay_every: 64,
                    delay_us: 100,
                    ..ChaosPlan::quiet(3)
                },
                Some(2),
            ),
            (
                "worker-panic",
                ChaosPlan {
                    panic_every: 5000,
                    ..ChaosPlan::quiet(4)
                },
                None,
            ),
        ];
        for (name, plan, deadline_ms) in cases {
            let (tx, rx) = mpsc::channel();
            let a2 = a.clone();
            let handle = std::thread::spawn(move || {
                let body = || {
                    Scan::by(0u64, chaos_op(plan, u64::wrapping_add))
                        .try_run(&a2)
                        .map(|r| r.0)
                };
                let t = Instant::now();
                let got = match deadline_ms {
                    Some(ms) => {
                        let d = ScanDeadline::after(Duration::from_millis(ms));
                        scan_core::deadline::with_deadline(&d, body)
                    }
                    None => body(),
                };
                let _ = tx.send((t.elapsed().as_nanos(), got));
            });
            let (ns, got) = rx
                .recv_timeout(Duration::from_secs(60))
                .expect("chaos scenario hung");
            let _ = handle.join();
            let outcome = match &got {
                Ok(out) => {
                    assert_eq!(out, &expect, "chaos Ok disagrees at n={n} ({name})");
                    "ok (verified)".to_string()
                }
                Err(e) => e.to_string(),
            };
            match name {
                "quiet" | "sparse-delay" => {
                    assert!(got.is_ok(), "{name} must succeed, got {got:?}")
                }
                "delay+deadline" => assert_eq!(
                    got.as_ref().err(),
                    Some(&ExecError::DeadlineExceeded),
                    "delays past the deadline must surface as typed expiry"
                ),
                _ => assert!(
                    matches!(got, Err(ExecError::WorkerLost { .. })),
                    "an injected panic must surface as WorkerLost, got {got:?}"
                ),
            }
            println!("{n:>10} {name:>16} {ns:>14} {outcome:>20}");
        }
        // The pool survived every scenario: a clean pooled scan still
        // agrees with the reference.
        assert_eq!(
            scan::<Sum, _>(&a),
            expect,
            "pool unusable after chaos at n={n}"
        );
    }
    println!(
        "chaos smoke passed: every scenario terminated with a verified result or a typed error"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let chaos = args.iter().any(|a| a == "--chaos");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| format!("{}/../../BENCH_engine.json", env!("CARGO_MANIFEST_DIR")));

    let threads = scan_core::pool::global().threads();
    let simd = scan_core::simd::active_isa().name();
    println!("engine bench: pool width {threads}, simd {simd}, smoke={smoke}");

    let mut rows: Vec<Row> = Vec::new();
    let (w, k_override) = if smoke { (0, Some(1)) } else { (2, None) };

    for n in bench_sizes(smoke) {
        let k = k_override.unwrap_or_else(|| reps(n));
        let a = random_keys(n, 32, 0xBE7C4);
        let flags: Vec<bool> = a.iter().map(|&x| x % 64 == 0).collect();
        let segs = Segments::from_flags(flags.clone());

        // +-scan: identical kernel, old schedule vs pooled schedule.
        let old = time_median(w, k, || {
            Scan::by(0u64, u64::wrapping_add)
                .schedule(Schedule::Spawn)
                .run(&a)
                .0
        });
        let new = time_median(w, k, || scan::<Sum, _>(&a));
        assert_eq!(
            Scan::by(0u64, u64::wrapping_add)
                .schedule(Schedule::Spawn)
                .run(&a)
                .0,
            scan::<Sum, _>(&a),
            "+-scan engines disagree at n={n}"
        );
        rows.push(Row {
            kernel: "+-scan",
            n,
            old_ns: old,
            new_ns: new,
        });

        // max-scan.
        let old = time_median(w, k, || {
            Scan::by(0u64, u64::max).schedule(Schedule::Spawn).run(&a).0
        });
        let new = time_median(w, k, || scan::<Max, _>(&a));
        rows.push(Row {
            kernel: "max-scan",
            n,
            old_ns: old,
            new_ns: new,
        });

        // Segmented +-scan: unfused pair materialization + shift pass
        // vs the fused load/emit kernel.
        let old = time_median(w, k, || old_seg_plus_scan(&a, &segs));
        let new = time_median(w, k, || seg_scan::<Sum, _>(&a, &segs));
        assert_eq!(
            old_seg_plus_scan(&a, &segs),
            seg_scan::<Sum, _>(&a, &segs),
            "seg-scan engines disagree at n={n}"
        );
        rows.push(Row {
            kernel: "seg-+-scan",
            n,
            old_ns: old,
            new_ns: new,
        });

        // enumerate: 0/1 vector + scan vs fused map→scan.
        let old = time_median(w, k, || {
            let ones: Vec<usize> = parallel::map_by_sched(Schedule::Spawn, &flags, usize::from);
            Scan::by(0, |x, y| x + y)
                .schedule(Schedule::Spawn)
                .run(&ones)
                .0
        });
        let new = time_median(w, k, || enumerate(&flags));
        assert_eq!(
            {
                let ones: Vec<usize> = parallel::map_by_sched(Schedule::Spawn, &flags, usize::from);
                Scan::by(0, |x, y| x + y)
                    .schedule(Schedule::Spawn)
                    .run(&ones)
                    .0
            },
            enumerate(&flags),
            "enumerate engines disagree at n={n}"
        );
        rows.push(Row {
            kernel: "enumerate",
            n,
            old_ns: old,
            new_ns: new,
        });

        // pack: unfused scan+reduce vs fused scan-with-total.
        let old = time_median(w, k, || old_pack(&a, &flags));
        let new = time_median(w, k, || pack(&a, &flags));
        assert_eq!(
            old_pack(&a, &flags),
            pack(&a, &flags),
            "pack engines disagree at n={n}"
        );
        rows.push(Row {
            kernel: "pack",
            n,
            old_ns: old,
            new_ns: new,
        });

        // Plain memcpy roofline: the memory-bandwidth floor any
        // one-pass kernel is chasing (old == new by construction).
        let mut dstv = vec![0u64; n];
        let t = time_median(w, k, || {
            dstv.copy_from_slice(&a);
            std::hint::black_box(dstv[n - 1])
        });
        rows.push(Row {
            kernel: "memcpy",
            n,
            old_ns: t,
            new_ns: t,
        });

        // The same floor with the kernels' allocation behavior: every
        // scan call returns a freshly allocated Vec, so the floor it
        // can actually reach is "allocate and produce a copy" — which
        // at large n is dominated by the page faults of first touch,
        // not the copy loop. This is the apples-to-apples roofline.
        let t = time_median(w, k, || a.to_vec());
        rows.push(Row {
            kernel: "memcpy(fresh)",
            n,
            old_ns: t,
            new_ns: t,
        });
    }

    // A whole algorithm built from the primitives: split radix sort on
    // 16-bit keys, old schedule vs pooled schedule end to end.
    for n in sort_sizes(smoke) {
        let k = k_override.unwrap_or_else(|| reps(n * 8));
        let keys = random_keys(n, 16, 0x5027);
        let mut expect = keys.clone();
        expect.sort_unstable();
        let old = time_median(w, k, || {
            under(Schedule::Spawn, || split_radix_sort(&keys, 16))
        });
        let legacy_ns = time_median(w, k, || split_radix_sort(&keys, 16));
        assert_eq!(
            split_radix_sort(&keys, 16),
            expect,
            "radix sort wrong at n={n}"
        );
        rows.push(Row {
            kernel: "split_radix_sort",
            n,
            old_ns: old,
            new_ns: legacy_ns,
        });

        // The fused multi_split sort (one split, then every bucket in
        // cache): old = this run's legacy engine sort, new = fused — so
        // the row's speedup IS the fused-vs-legacy ratio on this
        // machine. Equality against the legacy path (and std) is
        // asserted before the timing counts.
        let fused = fused_radix_sort(&keys, 16);
        assert_eq!(
            fused,
            split_radix_sort(&keys, 16),
            "fused sort disagrees with the legacy path at n={n}"
        );
        assert_eq!(fused, expect, "fused sort wrong at n={n}");
        let fused_ns = time_median(w, k, || fused_radix_sort(&keys, 16));
        rows.push(Row {
            kernel: "fused_radix_sort",
            n,
            old_ns: legacy_ns,
            new_ns: fused_ns,
        });

        // Digit-width sweep: the unfused enumerate-per-bucket schedule
        // vs the fused kernel at the same width.
        for (dw, name) in [
            (1u32, "radix_digits(w=1)"),
            (4, "radix_digits(w=4)"),
            (8, "radix_digits(w=8)"),
        ] {
            assert_eq!(
                fused_radix_sort_digits(&keys, 16, dw),
                split_radix_sort_digits(&keys, 16, dw),
                "fused/unfused disagree at n={n} w={dw}"
            );
            let old = time_median(w, k, || split_radix_sort_digits(&keys, 16, dw));
            let new = time_median(w, k, || fused_radix_sort_digits(&keys, 16, dw));
            rows.push(Row {
                kernel: name,
                n,
                old_ns: old,
                new_ns: new,
            });
        }
    }

    // The default sort's one rule, size by size (DESIGN.md §11): old =
    // 8-bit LSD passes on the same keys, new = `fused_radix_sort`, which
    // sorts up to 2^12 keys as one bucket and splits larger inputs first.
    if !smoke {
        for n in [
            1 << 8,
            1 << 10,
            1 << 12,
            1 << 13,
            1 << 14,
            1 << 16,
            1 << 18,
            1 << 20,
        ] {
            let k = reps(n * 8);
            for (bits, name) in [
                (16, "sort(16-bit)"),
                (32, "sort(32-bit)"),
                (64, "sort(64-bit)"),
            ] {
                let keys = random_keys(n, bits, 0x50B7 ^ n as u64);
                check_sort(&format!("{bits}-bit keys at n={n}"), &keys, bits);
                let old = time_median(w, k, || fused_radix_sort_digits(&keys, bits, 8));
                let new = time_median(w, k, || fused_radix_sort(&keys, bits));
                rows.push(Row {
                    kernel: name,
                    n,
                    old_ns: old,
                    new_ns: new,
                });
            }
        }
    }

    // The default sort on every path it takes. Up to 2^12 keys it sorts
    // one bucket on the calling thread; at 2^17 the split writes with
    // direct stores. `multi_split` stages and streams its scatter's
    // output lines only from a 16 MiB destination on, and only when the
    // dispatcher picks AVX2: sorts that large, which CI runs under both
    // SIMD pins (streamed lines, or the direct scatter). Keys that share
    // one top digit take the big-bucket fallback (pooled passes over the
    // bucket), and u32-range keys declared 64 bits place the top digit
    // at their OR's highest bit.
    if smoke {
        for n in [1 << 12, 1 << 17] {
            for bits in [16, 32, 64] {
                let keys = random_keys(n, bits, 0x5027 ^ n as u64);
                check_sort(&format!("{bits}-bit keys at n={n}"), &keys, bits);
            }
        }
        let uniform = random_keys(1 << 21, 32, 0x5027);
        let one_top_digit: Vec<u64> = random_keys(1 << 21, 21, 0x70D1)
            .into_iter()
            .map(|k| 0x5A5 << 21 | k)
            .collect();
        let declared_wide = random_keys(1 << 21, 32, 0x64B);
        for (what, keys, bits) in [
            ("uniform 32-bit keys", &uniform, 32),
            ("keys sharing one top digit", &one_top_digit, 32),
            ("u32-range keys declared 64 bits", &declared_wide, 64),
        ] {
            check_sort(what, keys, bits);
        }
    }

    // Streaming and sharded execution against the in-RAM kernel on
    // the same data: `old` is one whole-input in-RAM scan, `new` is
    // the chunked constant-memory stream or the sharded executor at
    // 1/2/4 shards. Bit-equality is asserted on every configuration
    // before any timing counts.
    {
        use scan_core::{ScanStream, SliceSource};
        use scan_shard::{ScanKind as ShardKind, ShardConfig, ShardedExecutor};
        use std::sync::Arc;

        let (stream_n, chunk_len) = if smoke {
            (1usize << 16, 1usize << 12)
        } else {
            (1usize << 28, 1usize << 20)
        };
        let k = k_override.unwrap_or(3);
        let data = Arc::new(random_keys(stream_n, 32, 0x57BEA));
        let want = scan::<Sum, _>(&data);
        let base_ns = time_median(w, k, || scan::<Sum, _>(&data));

        // Equality outside the timed region: the stream's chunks
        // concatenate to the in-RAM scan.
        let mut got = Vec::with_capacity(stream_n);
        let mut s = ScanStream::<Sum, u64, _>::exclusive(SliceSource::new(&data, chunk_len));
        s.process(|c| got.extend_from_slice(c))
            .expect("stream failed");
        assert_eq!(got, want, "streamed scan disagrees with in-RAM");

        // Timed: every chunk is copied into `got`, a caller-owned
        // buffer, so the stream writes its whole output as the in-RAM
        // baseline does.
        let stream_ns = time_median(w, k, || {
            let mut s = ScanStream::<Sum, u64, _>::exclusive(SliceSource::new(&data, chunk_len));
            let mut pos = 0;
            s.process(|c| {
                got[pos..pos + c.len()].copy_from_slice(c);
                pos += c.len();
            })
            .expect("stream failed")
        });
        assert_eq!(got, want, "timed stream wrote a wrong output");
        drop(got);
        rows.push(Row {
            kernel: "+-scan(stream)",
            n: stream_n,
            old_ns: base_ns,
            new_ns: stream_ns,
        });

        for shards in [1usize, 2, 4] {
            // Generous watchdog: this is a perf harness, not a loss
            // test — on a loaded 1-core runner a 2^28 shard job can
            // overrun the default 5 s watchdog and register a
            // spurious (recovered) loss, failing the losses==0 gate.
            let ex = ShardedExecutor::new(ShardConfig {
                shards,
                watchdog: std::time::Duration::from_secs(300),
                ..ShardConfig::default()
            });
            assert_eq!(
                ex.scan_arc(ShardKind::Sum, &data)
                    .expect("sharded scan failed"),
                want,
                "sharded scan disagrees with in-RAM at {shards} shards"
            );
            let h = ex.health();
            assert_eq!(h.losses, 0, "no chaos configured, no losses expected");
            let sharded_ns = time_median(w, k, || {
                ex.scan_arc(ShardKind::Sum, &data)
                    .expect("sharded scan failed")
            });
            rows.push(Row {
                kernel: match shards {
                    1 => "+-scan(shard=1)",
                    2 => "+-scan(shard=2)",
                    _ => "+-scan(shard=4)",
                },
                n: stream_n,
                old_ns: base_ns,
                new_ns: sharded_ns,
            });
        }
    }

    println!(
        "{:>18} {:>10} {:>14} {:>14} {:>9} {:>8}",
        "kernel", "n", "old ns", "new ns", "speedup", "GB/s"
    );
    for r in &rows {
        let gbps = r
            .gbps()
            .map_or_else(|| "-".to_string(), |g| format!("{g:.2}"));
        println!(
            "{:>18} {:>10} {:>14} {:>14} {:>8.2}x {:>8}",
            r.kernel,
            r.n,
            r.old_ns,
            r.new_ns,
            r.speedup(),
            gbps
        );
    }

    // Roofline gap at the largest size: how far `+-scan` sits from the
    // streamed-copy floor — against both the reused-buffer
    // bandwidth roofline and the allocate-a-fresh-Vec roofline that
    // matches the kernels' own calling convention.
    for base in ["memcpy", "memcpy(fresh)"] {
        if let Some(mem) = rows.iter().rev().find(|r| r.kernel == base) {
            if let Some(r) = rows
                .iter()
                .rev()
                .find(|r| r.kernel == "+-scan" && r.n == mem.n)
            {
                println!(
                    "roofline: +-scan at n=2^{} runs at {:.2}x {}",
                    mem.n.ilog2(),
                    r.new_ns as f64 / mem.new_ns.max(1) as f64,
                    base
                );
            }
        }
    }

    if chaos {
        run_chaos(smoke);
    }

    if smoke {
        println!("smoke mode: correctness verified, no JSON written");
        return;
    }

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"simd\": \"{simd}\",\n"));
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let gbps = r
            .gbps()
            .map_or_else(|| "null".to_string(), |g| format!("{g:.3}"));
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"n\": {}, \"old_ns\": {}, \"new_ns\": {}, \"speedup\": {:.3}, \"gbps\": {}}}{}\n",
            r.kernel,
            r.n,
            r.old_ns,
            r.new_ns,
            r.speedup(),
            gbps,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write BENCH_engine.json");
    println!("wrote {out_path}");
}
