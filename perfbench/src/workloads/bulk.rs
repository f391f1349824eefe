//! `bulk`: five whole-array calls on one input, each returning a fresh
//! `Vec`. At 2^22 elements every fresh output page-faults, so
//! allocation, SIMD and schedule changes show here.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use scan_core::ops::{enumerate, pack};
use scan_core::parallel::seq_exclusive_scan_by;
use scan_core::{scan, seg_scan, Max, Segments, Sum};

use super::{
    count_minflt, elapsed_ns, median_count, p50_us, ratio, serial_phase, Metric, Outcome, Phase,
    Stop, Workload,
};
use crate::rng::Rng;
use crate::trace::{span, Trace};

pub const OP_MIX: &str = "scan<Sum> + scan<Max> + seg_scan<Sum> (heads: x % 64 == 0) \
                          + enumerate(heads) + pack(keep: x & 1), u64 values < 2^32";

/// Bytes a `+-scan` moves per element: one 8-byte read, one 8-byte write.
const SCAN_BYTES_PER_ELEM: f64 = 16.0;

/// Seeded input and its reference answers.
#[derive(Debug, PartialEq, Eq)]
pub struct Inputs {
    pub x: Vec<u64>,
    pub heads: Vec<bool>,
    pub keep: Vec<bool>,
}

impl Inputs {
    pub fn generate(seed: u64, n: usize) -> Self {
        let x = Rng::new(seed, "bulk").u32_values(n);
        let heads = x.iter().map(|&v| v % 64 == 0).collect();
        let keep = x.iter().map(|&v| v & 1 == 1).collect();
        Inputs { x, heads, keep }
    }
}

struct Answers {
    sum: Vec<u64>,
    max: Vec<u64>,
    seg_sum: Vec<u64>,
    enumerate: Vec<usize>,
    pack: Vec<u64>,
}

/// Sequential oracles for the five calls.
fn answers(inp: &Inputs) -> Answers {
    let mut seg_sum = Vec::with_capacity(inp.x.len());
    let mut acc = 0u64;
    for (i, (&v, &head)) in inp.x.iter().zip(&inp.heads).enumerate() {
        if i == 0 || head {
            acc = 0;
        }
        seg_sum.push(acc);
        acc = acc.wrapping_add(v);
    }
    let flags: Vec<usize> = inp.heads.iter().map(|&h| usize::from(h)).collect();
    Answers {
        sum: seq_exclusive_scan_by(&inp.x, 0, u64::wrapping_add),
        max: seq_exclusive_scan_by(&inp.x, 0, u64::max),
        seg_sum,
        enumerate: seq_exclusive_scan_by(&flags, 0, |a, b| a + b),
        pack: inp
            .x
            .iter()
            .zip(&inp.keep)
            .filter(|(_, &k)| k)
            .map(|(&v, _)| v)
            .collect(),
    }
}

pub struct Prepared {
    x: Vec<u64>,
    segs: Segments,
    keep: Vec<bool>,
    want: Answers,
}

pub fn prepare(seed: u64, n: usize) -> Prepared {
    let inp = Inputs::generate(seed, n);
    let want = answers(&inp);
    Prepared {
        x: inp.x,
        segs: Segments::from_flags(inp.heads),
        keep: inp.keep,
        want,
    }
}

pub struct Bulk {
    inp: Prepared,
    trace: Option<Arc<Trace>>,
    next_op: u64,
    minflt: Vec<u64>,
    /// Reused destination of the warm `memcpy` roofline.
    copy_dst: Vec<u64>,
}

impl Bulk {
    pub fn start(inp: Prepared, trace: Option<Arc<Trace>>) -> Self {
        let copy_dst = if trace.is_some() {
            inp.x.clone()
        } else {
            Vec::new()
        };
        Bulk {
            inp,
            trace,
            next_op: 0,
            minflt: Vec::new(),
            copy_dst,
        }
    }

    fn op(&mut self, traced: bool) -> (u64, Outcome) {
        let tr = if traced { self.trace.as_deref() } else { None };
        let op = self.next_op;
        self.next_op += 1;
        let Prepared {
            x,
            segs,
            keep,
            want,
        } = &self.inp;
        let (ns, got) = count_minflt(traced, &mut self.minflt, || {
            let t0 = Instant::now();
            let got = span(tr, "op", op, || {
                (
                    span(tr, "parallel.scan_sum", op, || scan::<Sum, u64>(x)),
                    span(tr, "parallel.scan_max", op, || scan::<Max, u64>(x)),
                    span(tr, "segmented.seg_scan_sum", op, || {
                        seg_scan::<Sum, u64>(x, segs)
                    }),
                    span(tr, "ops.enumerate", op, || enumerate(segs.flags())),
                    span(tr, "ops.pack", op, || pack(x, keep)),
                )
            });
            (elapsed_ns(t0), got)
        });
        let ok = got.0 == want.sum
            && got.1 == want.max
            && got.2 == want.seg_sum
            && got.3 == want.enumerate
            && got.4 == want.pack;
        drop(got);
        if let Some(tr) = tr {
            // Rooflines in the same run: a copy into a reused buffer,
            // and a copy into a fresh one, which pays first touch.
            tr.span("parallel.memcpy", op, || {
                self.copy_dst.copy_from_slice(x);
                black_box(&self.copy_dst);
            });
            drop(tr.span("parallel.memcpy_fresh", op, || black_box(x.to_vec())));
        }
        (ns, if ok { Outcome::Ok } else { Outcome::Wrong })
    }
}

impl Workload for Bulk {
    fn phase(&mut self, stop: Stop, traced: bool) -> Phase {
        serial_phase(stop, || self.op(traced))
    }

    fn layer_metrics(&self, trace: &Trace) -> Vec<Metric> {
        let gb = SCAN_BYTES_PER_ELEM * self.inp.x.len() as f64 / 1e9;
        let gbps = |name| ratio(gb, p50_us(trace, name) * 1e-6);
        let (scan, fresh) = (gbps("parallel.scan_sum"), gbps("parallel.memcpy_fresh"));
        vec![
            (
                "parallel.scan_sum_us",
                Some(p50_us(trace, "parallel.scan_sum")),
            ),
            (
                "parallel.scan_max_us",
                Some(p50_us(trace, "parallel.scan_max")),
            ),
            (
                "segmented.seg_scan_sum_us",
                Some(p50_us(trace, "segmented.seg_scan_sum")),
            ),
            ("ops.enumerate_us", Some(p50_us(trace, "ops.enumerate"))),
            ("ops.pack_us", Some(p50_us(trace, "ops.pack"))),
            ("parallel.minflt_per_op", median_count(&self.minflt)),
            ("parallel.scan_sum_gbps", Some(scan)),
            ("parallel.memcpy_gbps", Some(gbps("parallel.memcpy"))),
            ("parallel.memcpy_fresh_gbps", Some(fresh)),
            (
                "parallel.scan_sum_vs_memcpy_fresh",
                Some(ratio(scan, fresh)),
            ),
        ]
    }
}
