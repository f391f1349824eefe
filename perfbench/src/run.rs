//! One benchmark run: seeded inputs, timed set-up, the measured phase,
//! and the report.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::json::{self, Value};
use crate::procfs;
use crate::stats;
use crate::trace::Trace;
use crate::workloads::{bulk, service, sort, stream_shard, Metric, Phase, Stop, Workload};

/// End-to-end metrics `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)`, in `BENCHMARK.json` order. A
/// workload that never calls a layer reports that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("parallel.scan_sum_us", "us"),
    ("parallel.scan_max_us", "us"),
    ("segmented.seg_scan_sum_us", "us"),
    ("ops.enumerate_us", "us"),
    ("ops.pack_us", "us"),
    ("parallel.minflt_per_op", "count"),
    ("parallel.scan_sum_gbps", "GB/s"),
    ("parallel.memcpy_gbps", "GB/s"),
    ("parallel.memcpy_fresh_gbps", "GB/s"),
    ("parallel.scan_sum_vs_memcpy_fresh", "ratio"),
    ("sort.fused_radix_us", "us"),
    ("sort.passes", "count"),
    ("sort.self_us", "us"),
    ("sort.minflt_per_op", "count"),
    ("multi_split.pass_us", "us"),
    ("stream.pass_us", "us"),
    ("stream.step_us", "us"),
    ("stream.pull_us", "us"),
    ("stream.sink_us", "us"),
    ("stream.chunks", "count"),
    ("shard.scan_us", "us"),
    ("shard.vs_inram", "ratio"),
    ("shard.minflt_per_op", "count"),
    ("shard.losses", "count"),
    ("shard.recoveries", "count"),
    ("shard.inline_rescues", "count"),
    ("shard.degraded_runs", "count"),
    ("service.kernel_us", "us"),
    ("service.self_us", "us"),
    ("service.kernel_share", "ratio"),
    ("service.batch_occupancy", "ratio"),
    ("service.backend_calls_per_req", "ratio"),
    ("service.solo_requests", "count"),
    ("service.batches_retried", "count"),
    ("service.shed", "count"),
    ("service.failed", "count"),
    ("pool.respawns", "count"),
    ("pool.cpu_per_wall", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Counters that read 0 on every run without injected faults.
pub const FAULT_COUNTERS: &[&str] = &[
    "shard.losses",
    "shard.inline_rescues",
    "service.failed",
    "service.solo_requests",
    "pool.respawns",
];

/// The tail quantile `p90_us` reports.
const TAIL_Q: f64 = 0.9;

/// Warm-up repetitions in set-up; `setup_s` takes their median.
pub const SETUP_REPS: usize = 5;

/// A traced run alternates untraced and traced blocks, one pair per
/// this many seconds, so host drift hits both sides alike.
pub const TRACE_ROUND_S: f64 = 2.0;

/// Every lane spins this long before set-up. On a virtual machine whose
/// vCPUs were idle or lightly loaded, the first seconds of full load
/// ran up to 1.7x slower; without the spin, `bulk`'s set-up read 0.24 s
/// after a `service` run and 0.15 s after another `bulk` run.
pub const SPIN_UP: Duration = Duration::from_secs(2);

fn spin_up(lanes: usize) {
    let until = Instant::now() + SPIN_UP;
    std::thread::scope(|s| {
        for _ in 0..lanes {
            s.spawn(|| {
                let mut x = 0u64;
                while Instant::now() < until {
                    x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
                }
            });
        }
    });
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Bulk,
    Sort,
    StreamShard,
    Service,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Bulk, Kind::Sort, Kind::StreamShard, Kind::Service];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Bulk => "bulk",
            Kind::Sort => "sort",
            Kind::StreamShard => "stream_shard",
            Kind::Service => "service",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Elements per array, or for `service` the longest request.
    pub fn default_n(self) -> usize {
        match self {
            Kind::Service => 1 << 14,
            _ => 1 << 22,
        }
    }

    fn op_mix(self) -> &'static str {
        match self {
            Kind::Bulk => bulk::OP_MIX,
            Kind::Sort => sort::OP_MIX,
            Kind::StreamShard => stream_shard::OP_MIX,
            Kind::Service => service::OP_MIX,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Config {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub n: usize,
    /// Caller threads of `service`; the other workloads use one.
    pub clients: usize,
}

impl Config {
    pub fn new(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Self {
        Config {
            kind,
            seed,
            seconds,
            trace,
            n: kind.default_n(),
            clients: nproc(),
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub fault_counters: Vec<(&'static str, u64)>,
    pub provenance: Vec<(&'static str, Value)>,
    pub trace: Option<Arc<Trace>>,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let m = json::object(&[
                    ("value", Value::Num(value)),
                    ("unit", Value::Str(unit.into())),
                ]);
                format!("{}: {m}", json::string(name))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn provenance_json(&self) -> String {
        format!("{{\"provenance\": {}}}", json::object(&self.provenance))
    }

    pub fn fault_counters_json(&self) -> String {
        let pairs: Vec<(&str, Value)> = self
            .fault_counters
            .iter()
            .map(|&(name, v)| (name, Value::Int(v)))
            .collect();
        format!("{{\"fault_counters\": {}}}", json::object(&pairs))
    }
}

/// Ops attempted, ops failed and wrong answers, over every phase.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
}

impl Tally {
    fn add(&mut self, p: &Phase) {
        self.attempted += p.ops();
        self.failed += p.wrong + p.errors;
        self.wrong += p.wrong;
    }
}

type Start = Box<dyn FnOnce(Option<Arc<Trace>>) -> Box<dyn Workload>>;

/// Generate the workload's inputs and reference answers; the returned
/// closure is the workload's set-up.
fn prepare(cfg: &Config) -> Start {
    let (seed, n) = (cfg.seed, cfg.n);
    match cfg.kind {
        Kind::Bulk => {
            let p = bulk::prepare(seed, n);
            Box::new(move |t| Box::new(bulk::Bulk::start(p, t)))
        }
        Kind::Sort => {
            let p = sort::prepare(seed, n);
            Box::new(move |t| Box::new(sort::Sort::start(p, t)))
        }
        Kind::StreamShard => {
            let p = stream_shard::prepare(seed, n);
            Box::new(move |t| Box::new(stream_shard::StreamShard::start(p, t)))
        }
        Kind::Service => {
            let p = service::prepare(seed, cfg.clients, n);
            Box::new(move |t| Box::new(service::Service::start(p, t)))
        }
    }
}

fn phase_until(w: &mut dyn Workload, length: Duration, traced: bool) -> Phase {
    let stop = Stop {
        until: Instant::now() + length,
        max_ops: u64::MAX,
    };
    w.phase(stop, traced)
}

fn lookup<T: Copy>(pairs: &[(&str, T)], name: &str) -> Option<T> {
    pairs.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
}

/// The end-to-end metrics of an untraced phase, except `setup_s`.
fn end_to_end(timed: &Phase) -> Result<Vec<Metric>, String> {
    let mut lat = timed.lat_ns.clone();
    lat.sort_unstable();
    let p90 = stats::guarded_tail(&lat, TAIL_Q)?;
    let p50 = stats::quantile(&lat, 0.5).unwrap_or(0);
    Ok(vec![
        ("ops_per_s", Some(timed.ops_per_s())),
        ("p50_us", Some(p50 as f64 / 1e3)),
        ("p90_us", Some(p90 as f64 / 1e3)),
        ("peak_rss_mib", procfs::peak_rss_mib()),
    ])
}

/// Alternate untraced and traced blocks for `length` in all; returns
/// both sides and the process's CPU time over the wall time.
fn alternate(w: &mut dyn Workload, length: Duration) -> (Phase, Phase, Option<f64>) {
    let rounds = ((length.as_secs_f64() / TRACE_ROUND_S).round() as u32).max(1);
    let block = length / (2 * rounds);
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let cpu0 = procfs::stat();
    let wall0 = Instant::now();
    for _ in 0..rounds {
        plain.merge(phase_until(w, block, false));
        traced.merge(phase_until(w, block, true));
    }
    let wall_s = wall0.elapsed().as_secs_f64();
    let cpu_per_wall = match (cpu0, procfs::stat()) {
        (Some(a), Some(b)) => Some(b.cpu_s_since(&a) / wall_s),
        _ => None,
    };
    (plain, traced, cpu_per_wall)
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    if !(cfg.seconds > 0.0 && cfg.seconds <= 3600.0) {
        return Err(format!(
            "--seconds must be in (0, 3600], got {}",
            cfg.seconds
        ));
    }
    let gen_t0 = Instant::now();
    let start = prepare(cfg);
    let input_gen_s = gen_t0.elapsed().as_secs_f64();
    let trace = cfg.trace.then(|| Arc::new(Trace::default()));
    spin_up(nproc());

    // Set-up starts at the first call into the program: the global
    // pool's lazy start, then the workload's executor or service.
    let setup_t0 = Instant::now();
    let pool = scan_core::pool::global();
    let mut w = start(trace.clone());
    let init_s = setup_t0.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    let mut warm_s = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let stop = Stop {
            until: Instant::now() + Duration::from_secs(3600),
            max_ops: w.warm_ops(),
        };
        let warm = w.phase(stop, false);
        // Busy time only: checking the warm-up answers is the
        // benchmark's work, not the program's.
        warm_s.push(warm.busy_ns as f64 * 1e-9);
        tally.add(&warm);
    }
    let warm_median_s = stats::median_f64(&warm_s).unwrap_or(0.0);
    let setup_s = init_s + warm_median_s;

    let length = Duration::from_secs_f64(cfg.seconds);
    let steal0 = procfs::steal();
    let (values, samples) = match &trace {
        None => {
            let t0 = Instant::now();
            let mut timed = phase_until(w.as_mut(), length, false);
            // A slow host can leave `bulk` or `sort` short of the samples
            // a p90 needs; measure on, for at most as long again.
            let need = stats::tail_min_samples(TAIL_Q) as u64;
            if timed.ops() < need {
                let stop = Stop {
                    until: t0 + 2 * length,
                    max_ops: need - timed.ops(),
                };
                timed.merge(w.phase(stop, false));
            }
            tally.add(&timed);
            let mut values = end_to_end(&timed)?;
            values.push(("setup_s", Some(setup_s)));
            (values, timed.ops())
        }
        Some(trace) => {
            let (plain, traced, cpu_per_wall) = alternate(w.as_mut(), length);
            tally.add(&plain);
            tally.add(&traced);
            let mut values = w.layer_metrics(trace);
            values.extend(
                w.fault_counters()
                    .into_iter()
                    .map(|(k, v)| (k, Some(v as f64))),
            );
            values.push(("pool.respawns", Some(pool.respawns() as f64)));
            values.push(("pool.cpu_per_wall", cpu_per_wall));
            let overhead = 1.0 - traced.ops_per_s() / plain.ops_per_s();
            values.push(("trace.overhead_pct", Some(overhead * 100.0)));
            (values, traced.ops())
        }
    };
    // Share of the host's CPU time the hypervisor gave to others while
    // this run measured: the usual cause of a slow run on a shared host.
    let steal_pct = match (steal0, procfs::steal()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 * 100.0 / (t1 - t0) as f64,
        _ => f64::NAN,
    };
    let listed = if trace.is_some() {
        PER_LAYER
    } else {
        END_TO_END
    };
    let metrics: Vec<_> = listed
        .iter()
        .filter_map(|&(name, unit)| {
            let value = match lookup(&values, name) {
                // A reading the host cannot give, such as `VmHWM` off
                // Linux, is left out rather than reported as 0.
                Some(reading) => reading?,
                // A layer this workload never calls.
                None => 0.0,
            };
            Some((name, value, unit))
        })
        .collect();
    if let Some((name, v, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not finite: {v}"));
    }

    let mut faults = w.fault_counters();
    faults.push(("pool.respawns", pool.respawns() as u64));
    let fault_counters = FAULT_COUNTERS
        .iter()
        .map(|&name| (name, lookup(&faults, name).unwrap_or(0)))
        .collect();
    let provenance = vec![
        ("workload", Value::Str(cfg.kind.name().into())),
        ("seed", Value::Int(cfg.seed)),
        ("n", Value::Int(cfg.n as u64)),
        ("op_mix", Value::Str(cfg.kind.op_mix().into())),
        (
            "callers",
            Value::Int(if cfg.kind == Kind::Service {
                cfg.clients as u64
            } else {
                1
            }),
        ),
        ("seconds", Value::Num(cfg.seconds)),
        ("trace", Value::Bool(cfg.trace)),
        ("pool_width", Value::Int(pool.threads() as u64)),
        (
            "simd_isa",
            Value::Str(scan_core::simd::active_isa().name().into()),
        ),
        ("nproc", Value::Int(nproc() as u64)),
        ("thp", Value::Str(procfs::thp_mode())),
        ("input_gen_s", Value::Num(input_gen_s)),
        ("spin_up_s", Value::Num(SPIN_UP.as_secs_f64())),
        ("setup_init_s", Value::Num(init_s)),
        ("setup_warm_median_s", Value::Num(warm_median_s)),
        ("samples", Value::Int(samples)),
        ("host_steal_pct", Value::Num(steal_pct)),
    ];
    drop(w);
    Ok(Report {
        correct: tally.wrong == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        fault_counters,
        provenance,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: Kind, trace: bool) -> Config {
        Config {
            n: if kind == Kind::Service { 256 } else { 1 << 12 },
            clients: 2,
            ..Config::new(kind, 3, 0.3, trace)
        }
    }

    #[test]
    fn every_workload_runs_plain_and_traced_at_tiny_n() {
        for kind in Kind::ALL {
            let plain = run(&tiny(kind, false)).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert!(
                plain.correct && plain.failed == 0 && plain.attempted > 0,
                "{kind:?}"
            );
            let names: Vec<&str> = plain.metrics.iter().map(|m| m.0).collect();
            let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
            assert_eq!(names, want, "{kind:?}");
            assert!(
                plain.metrics.iter().all(|m| m.1 > 0.0),
                "{kind:?}: {:?}",
                plain.metrics
            );
            assert!(plain.fault_counters.iter().all(|c| c.1 == 0), "{kind:?}");
            assert!(plain.trace.is_none());

            let traced = run(&tiny(kind, true)).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert!(traced.correct && traced.failed == 0, "{kind:?}");
            let names: Vec<&str> = traced.metrics.iter().map(|m| m.0).collect();
            let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
            assert_eq!(names, want, "{kind:?}");
            let spans = traced.trace.as_ref().map_or(0, |t| t.spans().len());
            assert!(spans > 0, "{kind:?} recorded no spans");
            let result = traced.result_json();
            assert!(
                result.starts_with("{\"correct\": true, \"attempted\": "),
                "{result}"
            );
        }
    }

    #[test]
    fn workload_metrics_are_named_in_the_per_layer_list() {
        for kind in Kind::ALL {
            let cfg = tiny(kind, true);
            let trace = Arc::new(Trace::default());
            let mut w = prepare(&cfg)(Some(Arc::clone(&trace)));
            let stop = Stop {
                until: Instant::now() + Duration::from_secs(60),
                max_ops: 2,
            };
            let p = w.phase(stop, true);
            assert_eq!(p.wrong + p.errors, 0, "{kind:?}");
            let layer = w.layer_metrics(&trace);
            let faults = w.fault_counters();
            for name in layer.iter().map(|m| m.0).chain(faults.iter().map(|m| m.0)) {
                assert!(PER_LAYER.iter().any(|m| m.0 == name), "{kind:?}: {name}");
            }
            // A workload measures the metrics it owns; only counts of
            // faults never injected, and page faults of outputs small
            // enough to reuse heap memory, may read 0.
            let may_be_zero = [
                "shard.recoveries",
                "shard.degraded_runs",
                "service.batches_retried",
                "service.shed",
            ];
            for (name, v) in layer {
                let allowed = may_be_zero.contains(&name) || name.ends_with("minflt_per_op");
                assert!(
                    allowed || v.is_some_and(|v| v != 0.0),
                    "{kind:?}: {name} = {v:?}"
                );
            }
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for kind in Kind::ALL {
            assert!(
                text.contains(&format!("\"name\": \"{}\"", kind.name())),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn seeded_inputs_repeat_and_differ() {
        let bulk = |seed| bulk::Inputs::generate(seed, 4096);
        assert_eq!(bulk(5), bulk(5));
        assert_ne!(bulk(5), bulk(6));
        assert_eq!(sort::generate(5, 4096), sort::generate(5, 4096));
        assert_ne!(sort::generate(5, 4096), sort::generate(6, 4096));
        assert_eq!(
            stream_shard::generate(5, 4096),
            stream_shard::generate(5, 4096)
        );
        assert_ne!(
            stream_shard::generate(5, 4096),
            stream_shard::generate(6, 4096)
        );
        let svc = |seed| service::generate(seed, 2, 512);
        assert_eq!(svc(5), svc(5));
        assert_ne!(svc(5), svc(6));
        assert_ne!(svc(5)[0], svc(5)[1], "clients draw their own requests");
    }

    #[test]
    fn seconds_out_of_range_is_an_error() {
        assert!(run(&Config::new(Kind::Sort, 1, 0.0, false)).is_err());
    }
}
