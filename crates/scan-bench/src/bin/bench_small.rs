//! Small-n parity micro for the scan entry points.
//!
//! Prints the median ns per call of the paper's scans and reductions,
//! `ops::enumerate`, `ops::pack` and the service backend's fallible
//! flat and segmented scans, at sizes below the parallel threshold.
//! There every call runs the sequential kernel, so any per-call
//! overhead an entry point adds over the engine shows in these figures
//! first.
//!
//! ```text
//! cargo run --release -p scan-bench --bin bench_small
//! ```
//!
//! Each round times every cell once, starting one cell later than the
//! round before, so slow drift on the host spreads evenly over the
//! cells. A cell's figure is the median over the rounds. For an A/B,
//! run the same file against both trees, alternating which runs first,
//! and compare the two medians cell by cell.

use std::hint::black_box;
use std::time::Instant;

use scan_bench::random_keys;
use scan_core::{
    ops, reduce, scan, scan_backward, seg_scan, Max, Min, ScanElem, ScanOp, Segments, Sum,
};
use scan_service::{BatchBackend, PoolBackend, ScanKind};

/// Input sizes; 16383 is the largest below the parallel threshold.
const SIZES: [usize; 5] = [64, 256, 1024, 4096, 16383];
/// Timed rounds per size.
const ROUNDS: usize = 41;
/// Elements one timed batch covers, so that a batch lasts tens of
/// microseconds at every size.
const BATCH_ELEMS: usize = 1 << 16;

type Cell<'a> = (String, Box<dyn FnMut() + 'a>);

/// The four typed cells of operator `O` over `a`.
fn typed_cells<'a, O, T>(name: &str, a: &'a [T], segs: &'a Segments) -> Vec<Cell<'a>>
where
    O: ScanOp<T>,
    T: ScanElem,
{
    vec![
        (
            format!("scan {name}"),
            Box::new(move || drop(black_box(scan::<O, T>(black_box(a))))),
        ),
        (
            format!("scan_backward {name}"),
            Box::new(move || drop(black_box(scan_backward::<O, T>(black_box(a))))),
        ),
        (
            format!("reduce {name}"),
            Box::new(move || {
                black_box(reduce::<O, T>(black_box(a)));
            }),
        ),
        (
            format!("seg_scan {name}"),
            Box::new(move || drop(black_box(seg_scan::<O, T>(black_box(a), segs)))),
        ),
    ]
}

/// Mean ns per call of `reps` back-to-back calls.
fn time_batch(f: &mut dyn FnMut(), reps: usize) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_nanos() as f64 / reps as f64
}

fn main() {
    println!("# median ns per call over {ROUNDS} rounds, cell order rotated every round");
    println!("{:<30} {:>6} {:>10}", "cell", "n", "ns");
    let backend = PoolBackend;
    for n in SIZES {
        let a64 = random_keys(n, 32, 0x5CA1 + n as u64);
        let a32: Vec<u32> = a64.iter().map(|&k| k as u32).collect();
        let flags: Vec<bool> = a64.iter().map(|&k| k % 16 == 0).collect();
        let odd: Vec<bool> = a64.iter().map(|&k| k & 1 == 1).collect();
        let segs = Segments::from_flags(flags.clone());

        let mut cells: Vec<Cell> = Vec::new();
        cells.extend(typed_cells::<Sum, u64>("Sum<u64>", &a64, &segs));
        cells.extend(typed_cells::<Max, u64>("Max<u64>", &a64, &segs));
        cells.extend(typed_cells::<Min, u64>("Min<u64>", &a64, &segs));
        cells.extend(typed_cells::<Sum, u32>("Sum<u32>", &a32, &segs));
        cells.push((
            "enumerate".into(),
            Box::new(|| drop(black_box(ops::enumerate(black_box(&flags))))),
        ));
        cells.push((
            "pack k & 1".into(),
            Box::new(|| drop(black_box(ops::pack(black_box(&a64), black_box(&odd))))),
        ));
        cells.push((
            "pack 1/16".into(),
            Box::new(|| drop(black_box(ops::pack(black_box(&a64), black_box(&flags))))),
        ));
        cells.push((
            "service scan_one Sum<u64>".into(),
            Box::new(|| {
                drop(black_box(backend.scan_one(
                    ScanKind::Sum,
                    black_box(&a64),
                    None,
                )))
            }),
        ));
        cells.push((
            "service seg_scan Sum<u64>".into(),
            Box::new(|| {
                let a = black_box(&a64);
                drop(black_box(backend.seg_scan(ScanKind::Sum, a, &segs, None)))
            }),
        ));

        let reps = (BATCH_ELEMS / n).max(1);
        for (_, f) in cells.iter_mut() {
            time_batch(f.as_mut(), reps);
        }
        let mut samples = vec![Vec::with_capacity(ROUNDS); cells.len()];
        for round in 0..ROUNDS {
            for k in 0..cells.len() {
                let c = (round + k) % cells.len();
                samples[c].push(time_batch(cells[c].1.as_mut(), reps));
            }
        }
        for ((name, _), s) in cells.iter().zip(&mut samples) {
            s.sort_by(f64::total_cmp);
            println!("{name:<30} {n:>6} {:>10.1}", s[s.len() / 2]);
        }
    }
}
