//! `stream_shard`: the exclusive `+-scan` of one input, once through
//! `ScanStream` into a caller-owned buffer and once through the sharded
//! executor — the two carry-propagating paths.

use std::sync::Arc;
use std::time::Instant;

use scan_core::parallel::seq_exclusive_scan_by;
use scan_core::stream::{ChunkSource, ScanStream, SliceSource};
use scan_core::{scan, Sum};
use scan_shard::{ScanKind, ShardConfig, ShardedExecutor};

use super::{
    count_minflt, elapsed_ns, median_count, p50_us, ratio, serial_phase, Metric, Outcome, Phase,
    Stop, Workload,
};
use crate::rng::Rng;
use crate::trace::{enter, span, TimedSource, Trace};

/// The stream cuts the input into this many chunks (2^18 elements each
/// at the default 2^22).
pub const CHUNKS: usize = 16;
pub const OP_MIX: &str =
    "ScanStream<Sum> over SliceSource (n/16-element chunks) into a caller-owned \
                          buffer + ShardedExecutor::scan_arc(Sum) under ShardConfig::default(), \
                          u64 values < 2^32";

pub fn generate(seed: u64, n: usize) -> Vec<u64> {
    Rng::new(seed, "stream_shard").u32_values(n)
}

pub struct Prepared {
    x: Arc<Vec<u64>>,
    want: Vec<u64>,
}

pub fn prepare(seed: u64, n: usize) -> Prepared {
    let x = generate(seed, n);
    let want = seq_exclusive_scan_by(&x, 0, u64::wrapping_add);
    Prepared {
        x: Arc::new(x),
        want,
    }
}

pub struct StreamShard {
    inp: Prepared,
    exec: ShardedExecutor,
    /// Caller-owned output of the stream pass, reused across ops.
    out: Vec<u64>,
    trace: Option<Arc<Trace>>,
    next_op: u64,
    chunks: Vec<u64>,
    minflt: Vec<u64>,
}

/// Stream `src` through an exclusive `+-scan`, copying each output
/// chunk into `out`; returns the chunks processed and the elements
/// written, since `out` still holds the previous op's answer.
fn stream_into<C: ChunkSource<u64>>(
    src: C,
    out: &mut [u64],
    tr: Option<&Trace>,
    op: u64,
) -> scan_core::Result<(u64, usize)> {
    let mut stream = ScanStream::<Sum, u64, C>::exclusive(src);
    let mut pos = 0;
    loop {
        let step = enter(tr, "stream.step", op);
        let Some(chunk) = stream.step()? else { break };
        drop(step);
        let _sink = enter(tr, "stream.sink", op);
        out[pos..pos + chunk.len()].copy_from_slice(chunk);
        pos += chunk.len();
    }
    Ok((stream.chunks_done(), pos))
}

impl StreamShard {
    pub fn start(inp: Prepared, trace: Option<Arc<Trace>>) -> Self {
        StreamShard {
            out: vec![0; inp.x.len()],
            inp,
            exec: ShardedExecutor::new(ShardConfig::default()),
            trace,
            next_op: 0,
            chunks: Vec::new(),
            minflt: Vec::new(),
        }
    }

    fn op(&mut self, traced: bool) -> (u64, Outcome) {
        let tr = if traced { self.trace.as_deref() } else { None };
        let op = self.next_op;
        self.next_op += 1;
        let x = &self.inp.x;
        let chunk_len = (x.len() / CHUNKS).max(1);
        let (out, exec, minflt) = (&mut self.out, &self.exec, &mut self.minflt);
        let t0 = Instant::now();
        let (streamed, sharded) = span(tr, "op", op, || {
            let streamed = span(tr, "stream.pass", op, || match tr {
                Some(t) => stream_into(
                    TimedSource {
                        inner: SliceSource::new(x, chunk_len),
                        trace: t,
                    },
                    out,
                    tr,
                    op,
                ),
                None => stream_into(SliceSource::new(x, chunk_len), out, None, op),
            });
            let sharded = count_minflt(traced, minflt, || {
                span(tr, "shard.scan", op, || exec.scan_arc(ScanKind::Sum, x))
            });
            (streamed, sharded)
        });
        let ns = elapsed_ns(t0);
        let outcome = match (streamed, sharded) {
            (Ok((chunks, written)), Ok(sharded)) => {
                if traced {
                    self.chunks.push(chunks);
                }
                if written == out.len() && *out == self.inp.want && sharded == self.inp.want {
                    Outcome::Ok
                } else {
                    Outcome::Wrong
                }
            }
            _ => Outcome::Error,
        };
        if let Some(tr) = tr {
            // The in-RAM scan of the same data, the base of `vs_inram`.
            drop(tr.span("parallel.scan_sum", op, || scan::<Sum, u64>(x)));
        }
        (ns, outcome)
    }
}

impl Workload for StreamShard {
    fn phase(&mut self, stop: Stop, traced: bool) -> Phase {
        serial_phase(stop, || self.op(traced))
    }

    fn layer_metrics(&self, trace: &Trace) -> Vec<Metric> {
        let shard_us = p50_us(trace, "shard.scan");
        let inram_us = p50_us(trace, "parallel.scan_sum");
        let h = self.exec.health();
        vec![
            ("parallel.scan_sum_us", Some(inram_us)),
            ("stream.pass_us", Some(p50_us(trace, "stream.pass"))),
            ("stream.step_us", Some(p50_us(trace, "stream.step"))),
            ("stream.pull_us", Some(p50_us(trace, "stream.pull"))),
            ("stream.sink_us", Some(p50_us(trace, "stream.sink"))),
            (
                "stream.chunks",
                Some(median_count(&self.chunks).unwrap_or(0.0)),
            ),
            ("shard.scan_us", Some(shard_us)),
            ("shard.vs_inram", Some(ratio(shard_us, inram_us))),
            ("shard.minflt_per_op", median_count(&self.minflt)),
            ("shard.recoveries", Some(h.recoveries as f64)),
            ("shard.degraded_runs", Some(h.degraded_runs as f64)),
        ]
    }

    fn fault_counters(&self) -> Vec<(&'static str, u64)> {
        let h = self.exec.health();
        vec![
            ("shard.losses", h.losses),
            ("shard.inline_rescues", h.inline_rescues),
        ]
    }
}
