//! `service`: a closed loop of client threads, one tenant each, through
//! the coalescing front door. Small mixed requests exercise admission,
//! the fair queue, coalescing, demux and per-segment verify.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

use scan_core::parallel::seq_exclusive_scan_by;
use scan_service::{
    BatchBackend, PoolBackend, RequestOp, ScanRequest, ScanService, ServiceConfig, ServiceHealth,
    TenantId,
};

use super::{elapsed_ns, p50_us, ratio, Metric, Outcome, Phase, Stop, Workload};
use crate::rng::Rng;
use crate::stats;
use crate::trace::{span, TimedBackend, Trace};

/// Shortest request, in elements; the longest is the workload's `n`.
pub const MIN_LEN: usize = 64;
/// Pre-generated requests per client, submitted round-robin.
pub const RING: usize = 256;
pub const OP_MIX: &str = "one tenant per client; op uniform over plus_scan, max_scan, enumerate, \
                          pack; length log-uniform in [64, n]";

/// A request and its reference answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    pub op: RequestOp,
    pub want: Vec<u64>,
}

/// A request of op `kind` (0..4) whose length sits at `u` in `[0, 1)`
/// along the log scale from [`MIN_LEN`] to `max_len`.
fn request(rng: &mut Rng, kind: usize, u: f64, max_len: usize) -> Req {
    let lo = MIN_LEN.min(max_len) as f64;
    let len = (lo * (max_len as f64 / lo).powf(u)) as usize;
    let values = rng.u32_values(len);
    let flags: Vec<bool> = values.iter().map(|&v| v & 1 == 1).collect();
    match kind {
        0 => Req {
            want: seq_exclusive_scan_by(&values, 0, u64::wrapping_add),
            op: RequestOp::PlusScan(values),
        },
        1 => Req {
            want: seq_exclusive_scan_by(&values, 0, u64::max),
            op: RequestOp::MaxScan(values),
        },
        2 => {
            let ones: Vec<u64> = flags.iter().map(|&f| u64::from(f)).collect();
            Req {
                want: seq_exclusive_scan_by(&ones, 0, u64::wrapping_add),
                op: RequestOp::Enumerate(flags),
            }
        }
        _ => Req {
            want: values
                .iter()
                .zip(&flags)
                .filter(|(_, &k)| k)
                .map(|(&v, _)| v)
                .collect(),
            op: RequestOp::Pack {
                values,
                keep: flags,
            },
        },
    }
}

fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Each client's ring of requests, with lengths up to `max_len`.
///
/// Kinds and lengths are stratified: every ring holds each op kind a
/// quarter of the time and one length from each of [`RING`] equal
/// steps of the log scale, in a seeded order with seeded values. Seeds
/// then differ in data and order, not in how much work a ring holds;
/// independent draws moved the mean request length by about 6% from
/// seed to seed.
pub fn generate(seed: u64, clients: usize, max_len: usize) -> Vec<Vec<Req>> {
    (0..clients)
        .map(|c| {
            let mut rng = Rng::new(seed, &format!("service-client-{c}"));
            let mut kinds: Vec<usize> = (0..RING).map(|i| i % 4).collect();
            let mut steps: Vec<f64> = (0..RING)
                .map(|i| (i as f64 + rng.unit()) / RING as f64)
                .collect();
            shuffle(&mut rng, &mut kinds);
            shuffle(&mut rng, &mut steps);
            kinds
                .into_iter()
                .zip(steps)
                .map(|(kind, u)| request(&mut rng, kind, u, max_len))
                .collect()
        })
        .collect()
}

pub struct Prepared {
    rings: Vec<Vec<Req>>,
}

pub fn prepare(seed: u64, clients: usize, max_len: usize) -> Prepared {
    Prepared {
        rings: generate(seed, clients, max_len),
    }
}

pub struct Service {
    rings: Vec<Vec<Req>>,
    cursors: Vec<usize>,
    plain: ScanService,
    /// The same service over a timing backend, for traced phases.
    traced: Option<(Arc<Trace>, ScanService<TimedBackend<PoolBackend>>)>,
    next_op: AtomicU64,
}

impl Service {
    pub fn start(inp: Prepared, trace: Option<Arc<Trace>>) -> Self {
        Service {
            cursors: vec![0; inp.rings.len()],
            rings: inp.rings,
            plain: ScanService::new(ServiceConfig::default()),
            traced: trace.map(|t| {
                let backend = TimedBackend {
                    inner: PoolBackend,
                    trace: Arc::clone(&t),
                };
                let svc = ScanService::with_backend(ServiceConfig::default(), backend);
                (t, svc)
            }),
            next_op: AtomicU64::new(0),
        }
    }

    fn healths(&self) -> Vec<ServiceHealth> {
        let mut hs = vec![self.plain.health()];
        hs.extend(self.traced.as_ref().map(|(_, s)| s.health()));
        hs
    }
}

/// Run every client's closed loop against `svc` until `stop`; the
/// phase's busy time is its wall time.
fn clients_phase<B: BatchBackend>(
    svc: &ScanService<B>,
    rings: &[Vec<Req>],
    cursors: &mut [usize],
    next_op: &AtomicU64,
    stop: Stop,
    tr: Option<&Trace>,
) -> Phase {
    let gate = Barrier::new(rings.len() + 1);
    thread::scope(|s| {
        let gate = &gate;
        let clients: Vec<_> = rings
            .iter()
            .zip(cursors.iter_mut())
            .enumerate()
            .map(|(c, (ring, cursor))| {
                s.spawn(move || {
                    let mut phase = Phase::default();
                    gate.wait();
                    while phase.ops() < stop.max_ops && Instant::now() < stop.until {
                        let req = &ring[*cursor % ring.len()];
                        *cursor += 1;
                        let sub = ScanRequest::new(TenantId(c as u64), req.op.clone());
                        let op = next_op.fetch_add(1, Ordering::Relaxed);
                        let t0 = Instant::now();
                        let got = span(tr, "op", op, || svc.submit(sub));
                        let ns = elapsed_ns(t0);
                        phase.record(
                            ns,
                            match got {
                                Ok(v) if v == req.want => Outcome::Ok,
                                Ok(_) => Outcome::Wrong,
                                Err(_) => Outcome::Error,
                            },
                        );
                    }
                    phase
                })
            })
            .collect();
        let t0 = Instant::now();
        gate.wait();
        let mut phase = Phase::default();
        for c in clients {
            phase.merge(c.join().expect("a service client panicked"));
        }
        phase.busy_ns = elapsed_ns(t0);
        phase
    })
}

impl Workload for Service {
    fn phase(&mut self, stop: Stop, traced: bool) -> Phase {
        let (rings, cursors, next_op) = (&self.rings, &mut self.cursors, &self.next_op);
        match &self.traced {
            Some((t, svc)) if traced => clients_phase(svc, rings, cursors, next_op, stop, Some(t)),
            _ => clients_phase(&self.plain, rings, cursors, next_op, stop, None),
        }
    }

    fn warm_ops(&self) -> u64 {
        128
    }

    fn layer_metrics(&self, trace: &Trace) -> Vec<Metric> {
        let spans = trace.spans();
        let mut kernels: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.name == "service.kernel")
            .map(|s| (s.start, s.end))
            .collect();
        kernels.sort_unstable();
        let submits: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.name == "op")
            .map(|s| (s.start, s.end))
            .collect();
        // The kernels a submit covers run on whichever client led its
        // batch, often another thread: match them by time, not parent.
        let longest = kernels.iter().map(|&(s, e)| e - s).max().unwrap_or(0);
        let selfs: Vec<u64> = submits
            .iter()
            .map(|&(start, end)| {
                let from = kernels.partition_point(|&(s, _)| s + longest < start);
                let to = kernels.partition_point(|&(s, _)| s < end);
                stats::self_time((start, end), &kernels[from..to])
            })
            .collect();
        let submit_ns: u64 = submits.iter().map(|&(s, e)| e - s).sum();
        let self_ns: u64 = selfs.iter().sum();
        let occupancy = self
            .traced
            .as_ref()
            .and_then(|(_, svc)| svc.health().mean_batch_occupancy())
            .unwrap_or(0.0);
        let hs = self.healths();
        let retried: u64 = hs.iter().map(|h| h.backend_health.batches_retried).sum();
        let shed: u64 = hs.iter().map(|h| h.shed).sum();
        let covered_ns = submit_ns - self_ns;
        vec![
            ("service.kernel_us", Some(p50_us(trace, "service.kernel"))),
            (
                "service.self_us",
                Some(stats::median(&selfs).map_or(0.0, |ns| ns as f64 / 1e3)),
            ),
            (
                "service.kernel_share",
                Some(ratio(covered_ns as f64, submit_ns as f64)),
            ),
            ("service.batch_occupancy", Some(occupancy)),
            (
                "service.backend_calls_per_req",
                Some(ratio(kernels.len() as f64, submits.len() as f64)),
            ),
            ("service.batches_retried", Some(retried as f64)),
            ("service.shed", Some(shed as f64)),
        ]
    }

    fn fault_counters(&self) -> Vec<(&'static str, u64)> {
        let hs = self.healths();
        vec![
            ("service.failed", hs.iter().map(|h| h.failed).sum()),
            (
                "service.solo_requests",
                hs.iter().map(|h| h.solo_requests).sum(),
            ),
        ]
    }
}
