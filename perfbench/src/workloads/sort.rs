//! `sort`: the fused radix sort, four 8-bit `multi_split` passes over
//! 32-bit keys. Its scatter writes at random, where `bulk` streams.

use std::sync::Arc;
use std::time::Instant;

use scan_algorithms::sort::fused_radix_sort;
use scan_core::multi_split::{multi_split_into, MultiSplitScratch};

use super::{
    count_minflt, elapsed_ns, median_count, p50_us, serial_phase, Metric, Outcome, Phase, Stop,
    Workload,
};
use crate::rng::Rng;
use crate::trace::{span, Trace};

pub const KEY_BITS: u32 = 32;
/// The digit width `fused_radix_sort` picks for these keys.
pub const DIGIT_BITS: u32 = 8;
pub const OP_MIX: &str =
    "fused_radix_sort(keys, 32): 4 passes of 8-bit multi_split, u64 keys < 2^32";

/// Seeded keys below 2^32.
pub fn generate(seed: u64, n: usize) -> Vec<u64> {
    Rng::new(seed, "sort").u32_values(n)
}

pub struct Prepared {
    keys: Vec<u64>,
    want: Vec<u64>,
}

pub fn prepare(seed: u64, n: usize) -> Prepared {
    let keys = generate(seed, n);
    let mut want = keys.clone();
    want.sort_unstable();
    Prepared { keys, want }
}

pub struct Sort {
    inp: Prepared,
    trace: Option<Arc<Trace>>,
    next_op: u64,
    minflt: Vec<u64>,
    /// Caller-owned destination and scratch of the direct pass.
    split_dst: Vec<u64>,
    scratch: MultiSplitScratch,
}

impl Sort {
    pub fn start(inp: Prepared, trace: Option<Arc<Trace>>) -> Self {
        let split_dst = if trace.is_some() {
            inp.keys.clone()
        } else {
            Vec::new()
        };
        Sort {
            inp,
            trace,
            next_op: 0,
            minflt: Vec::new(),
            split_dst,
            scratch: MultiSplitScratch::new(),
        }
    }

    fn op(&mut self, traced: bool) -> (u64, Outcome) {
        let tr = if traced { self.trace.as_deref() } else { None };
        let op = self.next_op;
        self.next_op += 1;
        let keys = &self.inp.keys;
        let (ns, got) = count_minflt(traced, &mut self.minflt, || {
            let t0 = Instant::now();
            let got = span(tr, "op", op, || {
                span(tr, "sort.fused_radix", op, || {
                    fused_radix_sort(keys, KEY_BITS)
                })
            });
            (elapsed_ns(t0), got)
        });
        let ok = got == self.inp.want;
        drop(got);
        if let Some(tr) = tr {
            // One pass on its own, into a reused destination with reused
            // scratch: the sort's time less its passes is its own.
            let mask = (1u64 << DIGIT_BITS) - 1;
            tr.span("multi_split.pass", op, || {
                multi_split_into(
                    keys,
                    &mut self.split_dst,
                    1 << DIGIT_BITS,
                    move |k| (k & mask) as usize,
                    &mut self.scratch,
                )
            });
        }
        (ns, if ok { Outcome::Ok } else { Outcome::Wrong })
    }
}

impl Workload for Sort {
    fn phase(&mut self, stop: Stop, traced: bool) -> Phase {
        serial_phase(stop, || self.op(traced))
    }

    fn layer_metrics(&self, trace: &Trace) -> Vec<Metric> {
        let passes = f64::from(KEY_BITS.div_ceil(DIGIT_BITS));
        let sort_us = p50_us(trace, "sort.fused_radix");
        let pass_us = p50_us(trace, "multi_split.pass");
        vec![
            ("sort.fused_radix_us", Some(sort_us)),
            ("sort.passes", Some(passes)),
            ("sort.self_us", Some(sort_us - passes * pass_us)),
            ("sort.minflt_per_op", median_count(&self.minflt)),
            ("multi_split.pass_us", Some(pass_us)),
        ]
    }
}
