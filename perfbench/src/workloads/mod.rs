//! The four workloads. Each one generates its inputs and reference
//! answers from the seed before set-up, runs closed-loop ops, checks
//! every op's output outside its timed span, and derives its layer
//! metrics from the spans of a traced run.

use std::time::Instant;

use crate::stats;
use crate::trace::Trace;

pub mod bulk;
pub mod service;
pub mod sort;
pub mod stream_shard;

/// What checking one op's output found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// The program answered, but not with the oracle's answer.
    Wrong,
    /// The program returned a typed error.
    Error,
}

/// Ops of one timed stretch.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of each op, in nanoseconds.
    pub lat_ns: Vec<u64>,
    /// Time the program was busy with the ops: the sum of op latencies
    /// for one caller, the wall time for concurrent callers.
    pub busy_ns: u64,
    pub wrong: u64,
    pub errors: u64,
}

impl Phase {
    pub fn record(&mut self, ns: u64, outcome: Outcome) {
        self.lat_ns.push(ns);
        match outcome {
            Outcome::Ok => {}
            Outcome::Wrong => self.wrong += 1,
            Outcome::Error => self.errors += 1,
        }
    }

    pub fn merge(&mut self, other: Phase) {
        self.lat_ns.extend(other.lat_ns);
        self.busy_ns += other.busy_ns;
        self.wrong += other.wrong;
        self.errors += other.errors;
    }

    pub fn ops(&self) -> u64 {
        self.lat_ns.len() as u64
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / (self.busy_ns.max(1) as f64 * 1e-9)
    }
}

/// When a phase stops: at `until`, or after `max_ops` ops per caller,
/// whichever comes first. The op in flight always completes.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    pub until: Instant,
    pub max_ops: u64,
}

/// A named reading; `None` when the host cannot give it (off Linux).
pub type Metric = (&'static str, Option<f64>);

/// One workload, set up and ready to run.
pub trait Workload {
    /// Run ops until `stop`, recording spans when `traced`.
    fn phase(&mut self, stop: Stop, traced: bool) -> Phase;

    /// Ops per caller in one warm-up repetition of set-up.
    fn warm_ops(&self) -> u64 {
        1
    }

    /// This workload's layer metrics, from the spans of traced phases.
    fn layer_metrics(&self, trace: &Trace) -> Vec<Metric>;

    /// Fault counters of the layers this workload drives; each reads 0
    /// unless faults are injected.
    fn fault_counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

pub fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// A closed loop of one caller: `op` runs one op and returns its
/// latency and checked outcome.
pub fn serial_phase(stop: Stop, mut op: impl FnMut() -> (u64, Outcome)) -> Phase {
    let mut phase = Phase::default();
    while phase.ops() < stop.max_ops && Instant::now() < stop.until {
        let (ns, outcome) = op();
        phase.busy_ns += ns;
        phase.record(ns, outcome);
    }
    phase
}

/// Median duration of the spans named `name`, in microseconds; 0 when
/// none were recorded.
pub fn p50_us(trace: &Trace, name: &str) -> f64 {
    stats::median(&trace.durations(name)).map_or(0.0, |ns| ns as f64 / 1e3)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of per-op counts; `None` when none could be taken.
pub fn median_count(samples: &[u64]) -> Option<f64> {
    stats::median(samples).map(|c| c as f64)
}

/// Push onto `samples` the minor faults taken while `f` ran, when `on`
/// and `/proc` can tell.
pub fn count_minflt<R>(on: bool, samples: &mut Vec<u64>, f: impl FnOnce() -> R) -> R {
    let before = on.then(crate::procfs::stat).flatten();
    let out = f();
    if let Some(a) = before {
        samples.extend(crate::procfs::stat().map(|b| b.minflt - a.minflt));
    }
    out
}
