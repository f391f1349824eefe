//! Shard supervisors: one long-lived thread per shard, each running
//! scan-core's sequential range kernels on its own thread.
//!
//! A shard is deliberately structured like a remote executor even
//! though it lives in-process: the only way in is a job message over a
//! channel, the only way out is a reply message over the job's own
//! reply channel, and the supervisor may die at any point (chaos
//! `ShardKill` simulates a hard crash by exiting the loop without
//! replying). The executor therefore never shares mutable state with a
//! shard — loss detection is purely observational (reply, timeout, or
//! closed channel), which is exactly the discipline a multi-process
//! transport would force later.
//!
//! This file is the crate's one sanctioned thread-spawn site (see the
//! `xtask` `no-raw-spawn` lint): shard supervisors are long-lived,
//! individually killable, and must *not* be joined while a job is in
//! flight — a watchdog-lost shard may still be running — so scoped
//! threads are the wrong tool.

use std::ops::Range;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread;

use scan_core::parallel::Schedule;
use scan_core::{ExecError, Max, Scan, ScanDeadline, ScanKind, Sum};
use scan_fault::ChaosEvent;

use crate::combine::compute;

/// Which half of the two-round sharded scan a job runs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Phase {
    /// Fold the range to the shard's pair total.
    Reduce,
    /// Produce the exclusive scan of the range seeded with `carry`.
    Scan {
        /// Pair carry: combination of everything before the range.
        carry: (u64, bool),
    },
}

/// What a successful job returns.
#[derive(Debug)]
pub(crate) enum Output {
    /// Reduce round: the range's pair total.
    Total((u64, bool)),
    /// Scan round: the exclusive scan of the range.
    Scanned(Vec<u64>),
}

/// A job's reply, sent on the job's own channel. The executor knows
/// which shard a reply channel belongs to, so the reply carries only
/// the result.
#[derive(Debug)]
pub(crate) struct Reply {
    pub result: Result<Output, ExecError>,
}

/// One unit of work for a shard.
pub(crate) struct Job {
    pub kind: ScanKind,
    pub data: Arc<Vec<u64>>,
    pub heads: Option<Arc<Vec<bool>>>,
    pub range: Range<usize>,
    pub phase: Phase,
    /// Chaos event scheduled for this job (`None` when quiet).
    pub inject: ChaosEvent,
    pub deadline: Option<ScanDeadline>,
    pub reply: Sender<Reply>,
}

/// Handle to one shard supervisor thread.
pub(crate) struct Shard {
    tx: Option<Sender<Job>>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Shard {
    /// Spawn shard `index`. A failed OS spawn yields a
    /// permanently-dead shard rather than an error — the executor
    /// treats it like any other disconnected shard.
    pub fn spawn(index: usize) -> Shard {
        let (tx, rx) = mpsc::channel::<Job>();
        let handle = thread::Builder::new()
            .name(format!("scan-shard-{index}"))
            .spawn(move || shard_loop(rx));
        match handle {
            Ok(h) => Shard {
                tx: Some(tx),
                handle: Some(h),
            },
            Err(_) => Shard {
                tx: None,
                handle: None,
            },
        }
    }

    /// Whether the job channel is still open from our side. (The
    /// thread may additionally have died; that is discovered on send.)
    pub fn alive(&self) -> bool {
        self.tx.is_some()
    }

    /// Send a job; `false` means the shard is gone. A `false` return
    /// also retires the channel so later callers see `alive() ==
    /// false` without retrying.
    pub fn send(&mut self, job: Job) -> bool {
        match &self.tx {
            Some(tx) => {
                if tx.send(job).is_ok() {
                    true
                } else {
                    self.tx = None;
                    false
                }
            }
            None => false,
        }
    }

    /// Retire the shard: drop the sender so the supervisor drains and
    /// exits. Joining is deferred to `Drop`.
    pub fn kill(&mut self) {
        self.tx = None;
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        // Close the channel first, or the join would wait forever.
        self.tx = None;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Supervisor body: serve jobs until the channel closes or a chaos
/// kill takes the shard down.
fn shard_loop(rx: Receiver<Job>) {
    for job in rx {
        match job.inject {
            // Hard crash: exit without replying. The job's reply
            // channel closes, which is how the executor learns.
            ChaosEvent::ShardKill => return,
            ChaosEvent::Delay(d) => thread::sleep(d),
            ChaosEvent::Panic => {
                // A kernel panic inside the job: the engine's fallible
                // path contains it and reports a typed WorkerLost.
                let err = Scan::by(0, |_, _| panic!("chaos: injected shard task panic"))
                    .schedule(Schedule::Sequential)
                    .try_run(&[0u64])
                    .err()
                    .unwrap_or(ExecError::WorkerLost { panics: 1 });
                let _ = job.reply.send(Reply { result: Err(err) });
                continue;
            }
            _ => {}
        }
        let lie = matches!(job.inject, ChaosEvent::CarryCorrupt | ChaosEvent::Lie);
        let heads = job.heads.as_deref().map(Vec::as_slice);
        let (range, deadline) = (job.range.clone(), job.deadline.as_ref());
        let result = match job.kind {
            ScanKind::Sum => compute::<Sum>(&job.data, heads, range, job.phase, deadline),
            ScanKind::Max => compute::<Max>(&job.data, heads, range, job.phase, deadline),
        };
        let result = result.map(|out| if lie { corrupt(out) } else { out });
        let _ = job.reply.send(Reply { result });
    }
}

/// Flip one bit of the result — a lying shard. The corruption is
/// minimal on purpose: the O(n) verifier must catch even a single
/// flipped bit in a carry or an output element.
fn corrupt(out: Output) -> Output {
    match out {
        Output::Total((v, f)) => Output::Total((v ^ 1, f)),
        Output::Scanned(mut v) => {
            if let Some(x) = v.first_mut() {
                *x ^= 1;
            }
            Output::Scanned(v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injected_panic_is_contained_and_shard_survives() {
        use std::sync::mpsc;
        use std::sync::Arc;

        let mut shard = Shard::spawn(0);
        let data = Arc::new((1u64..=50).collect::<Vec<_>>());

        let send = |shard: &mut Shard, inject| {
            let (tx, rx) = mpsc::channel();
            assert!(shard.send(Job {
                kind: ScanKind::Sum,
                data: Arc::clone(&data),
                heads: None,
                range: 0..data.len(),
                phase: Phase::Reduce,
                inject,
                deadline: None,
                reply: tx,
            }));
            rx
        };

        // The panic is contained by the engine's fallible path and
        // reported as a typed worker loss...
        let rx = send(&mut shard, ChaosEvent::Panic);
        let reply = rx.recv().unwrap();
        assert!(matches!(reply.result, Err(ExecError::WorkerLost { .. })));

        // ...and the shard keeps serving afterwards.
        let rx = send(&mut shard, ChaosEvent::None);
        let reply = rx.recv().unwrap();
        match reply.result {
            Ok(Output::Total(t)) => assert_eq!(t, (50 * 51 / 2, false)),
            other => panic!("expected a clean total, got {other:?}"),
        }
        assert!(shard.alive());
    }
}
