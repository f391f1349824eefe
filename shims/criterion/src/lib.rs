//! Wall-clock stand-in for the `criterion` benchmark crate.
//!
//! Implements the subset of criterion's API the `scan-bench` harness
//! uses — `criterion_group!`/`criterion_main!`, benchmark groups,
//! `bench_function`/`bench_with_input`, [`BenchmarkId`], [`Throughput`]
//! and `Bencher::iter` — measuring with `std::time::Instant` and
//! printing one line per benchmark (mean and best iteration time, plus
//! element throughput when declared). No statistics, plots, or
//! baselines; the point is that `cargo bench` runs hermetically and
//! yields honest relative numbers.

#![forbid(unsafe_code)]

use std::fmt;
use std::time::{Duration, Instant};

/// Declared throughput of one benchmark, for ns/elem reporting.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// The benchmark processes this many elements per iteration.
    Elements(u64),
    /// The benchmark processes this many bytes per iteration.
    Bytes(u64),
}

/// A benchmark identifier: function name plus an optional parameter.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), parameter),
        }
    }

    /// An id that is just the parameter.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Passed to the benchmark closure; `iter` runs and times the payload.
pub struct Bencher {
    samples: usize,
    /// Mean wall time of one payload call over all timed iterations.
    mean: Duration,
    /// Fastest single sample (mean within that sample batch).
    best: Duration,
}

impl Bencher {
    fn new(samples: usize) -> Self {
        Bencher {
            samples,
            mean: Duration::ZERO,
            best: Duration::MAX,
        }
    }

    /// Time `f`, called repeatedly; the result is recorded on `self`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // One warmup call, then `samples` timed batches. Batch size is
        // chosen so each batch runs at least ~2ms, bounding timer noise.
        let warm = Instant::now();
        std::hint::black_box(f());
        let once = warm.elapsed();
        let per_batch = if once >= Duration::from_millis(2) {
            1
        } else {
            let target = Duration::from_millis(2).as_nanos();
            (target / once.as_nanos().max(1)).clamp(1, 1_000_000) as usize
        };
        let mut total = Duration::ZERO;
        let mut best = Duration::MAX;
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..per_batch {
                std::hint::black_box(f());
            }
            let batch = t.elapsed();
            let per_call = batch / per_batch as u32;
            best = best.min(per_call);
            total += batch;
        }
        self.mean = total / (self.samples * per_batch) as u32;
        self.best = best;
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed sample batches per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declare per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Run one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        self.report(&id, &b);
        self
    }

    /// Run one benchmark with an explicit input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut b = Bencher::new(self.sample_size);
        f(&mut b, input);
        self.report(&id, &b);
        self
    }

    /// Finish the group (report-only shim: nothing to flush).
    pub fn finish(&mut self) {}

    fn report(&self, id: &BenchmarkId, b: &Bencher) {
        let mean = b.mean;
        let tail = match self.throughput {
            Some(Throughput::Elements(n)) if n > 0 => {
                format!("  ({:.2} ns/elem)", mean.as_nanos() as f64 / n as f64)
            }
            Some(Throughput::Bytes(n)) if n > 0 => {
                format!("  ({:.2} ns/byte)", mean.as_nanos() as f64 / n as f64)
            }
            _ => String::new(),
        };
        println!(
            "bench {:<48} mean {:>12?}  best {:>12?}{}",
            format!("{}/{}", self.name, id.id),
            mean,
            b.best,
            tail
        );
    }
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            throughput: None,
            _criterion: self,
        }
    }

    /// Run a single ungrouped benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.benchmark_group("criterion").bench_function(id, f);
        self
    }
}

/// Re-export of `std::hint::black_box` under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Collect benchmark functions into one named runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Emit `main` running the named groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut g = Criterion::default();
        let mut group = g.benchmark_group("shim");
        group.sample_size(3);
        group.throughput(Throughput::Elements(64));
        group.bench_with_input(BenchmarkId::new("sum", 64), &64u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.finish();
    }

    #[test]
    fn ids_format() {
        assert_eq!(BenchmarkId::new("f", 8).id, "f/8");
        assert_eq!(BenchmarkId::from_parameter(8).id, "8");
    }
}
