//! Shard supervisors: one long-lived thread per shard, each running
//! scan-core's sequential range kernel on its own thread. A job is one
//! range's piece: the range's exclusive scan from the identity, which
//! the executor's assembly pass checks and completes with the range's
//! carry.
//!
//! A shard is deliberately structured like a remote executor even
//! though it lives in-process: the only way in is a job message over a
//! channel, the only way out is a reply message over the job's own
//! reply channel, and the supervisor may die at any point (chaos
//! `ShardKill` simulates a hard crash by exiting the loop without
//! replying). The executor therefore never shares mutable state with a
//! shard — loss detection is purely observational (reply, timeout, or
//! closed channel), and a shard still running after a watchdog loss
//! can only send into a reply channel nobody reads.
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

use crate::combine::piece;

/// A job's reply, sent on the job's own channel. The executor knows
/// which shard a reply channel belongs to, so the reply carries only
/// the result: the range's piece.
#[derive(Debug)]
pub(crate) struct Reply {
    pub result: Result<Vec<u64>, ExecError>,
}

/// One unit of work for a shard: the range's piece, its exclusive scan
/// from the identity.
pub(crate) struct Job {
    pub kind: ScanKind,
    pub data: Arc<Vec<u64>>,
    pub heads: Option<Arc<Vec<bool>>>,
    pub range: Range<usize>,
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
            // xtask-allow: no-raw-clock a chaos stall must outlast the executor's watchdog in wall time
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
        let mut result = match job.kind {
            ScanKind::Sum => piece::<Sum>(&job.data, heads, range, deadline),
            ScanKind::Max => piece::<Max>(&job.data, heads, range, deadline),
        };
        if let (true, Ok(Some(last))) = (lie, result.as_mut().map(|p| p.last_mut())) {
            // A lying shard: one flipped bit, in the element the
            // range's claimed total is read from, so the lie also
            // reaches the carries of every later range. The corruption
            // is minimal on purpose: the assembly pass must catch even
            // a single flipped bit.
            *last ^= 1;
        }
        let _ = job.reply.send(Reply { result });
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
        let want: Vec<u64> = (0..50u64).map(|i| i * (i + 1) / 2).collect();
        assert_eq!(reply.result, Ok(want));
        assert!(shard.alive());
    }
}
