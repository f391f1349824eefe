//! Single-pass decoupled-lookback scan schedule
//! ([`crate::parallel::Schedule::Lookback`]).
//!
//! The blocked two-pass engine reads its input twice (up sweep + down
//! sweep), which caps a bandwidth-bound scan at half the memcpy
//! roofline. This module implements the decoupled-lookback scheme
//! (Merrill & Garland's single-pass chained scan, the CPU rendering of
//! LightScan's communication structure): each block scans its slice
//! **once**, publishes its local `aggregate` into a per-block
//! descriptor, resolves its global offset by *looking back* through
//! predecessor descriptors, then publishes its inclusive `prefix` for
//! successors — so the input crosses memory exactly once.
//!
//! # Descriptor state machine
//!
//! Each traversal-order block `t` owns descriptor `t` in a
//! [`DescTable`]:
//!
//! ```text
//!   EMPTY ──publish_aggregate──▶ AGG ──publish_prefix──▶ PREFIX
//!     │                                                    ▲
//!     └────────────── abandon (panic/deadline) ────────────┘
//! ```
//!
//! Values are written *before* the status is `Release`-stored, and
//! read only after an `Acquire` load observes the status, so the value
//! read is never racy (`tests/loom_lookback.rs` model-checks this
//! publication protocol through the [`crate::sync`] swap point).
//!
//! # Forward progress
//!
//! The lookback wait can only terminate if every predecessor
//! eventually publishes. Three pool facts make that unconditional
//! (see [`crate::pool`]):
//!
//! - tasks are claimed strictly in ascending index order (one
//!   `fetch_add` per claim), so every predecessor of a spinning block
//!   is already claimed — running or finished, never unstarted behind
//!   it in the queue;
//! - a panicking block unwinds through an `Abandon` guard that
//!   publishes an identity prefix before the pool replays the panic,
//!   so successors cannot spin on a dead block (the replayed panic —
//!   or the typed `WorkerLost` on the fallible path — discards every
//!   result afterwards, so the garbage prefix is never observable);
//! - on the fallible path, a tripped deadline drains unclaimed tasks,
//!   and the drain implies the expiry latch is set — spinning blocks
//!   observe it at their periodic checkpoint and bail, after which the
//!   post-run deadline check discards the pass.
//!
//! Worker *respawn* does not interact with the chain at all: respawn
//! replaces the OS thread after its current task unwound, and the
//! unwind already ran the guard.

use crate::deadline::ScanDeadline;
use crate::parallel::{advise_huge_pages, budget_scan_span, Budget, Mode, Schedule, SendPtr};
use crate::simd::SimdTile;
use crate::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;

/// Elements per lookback block in production. Large enough that the
/// descriptor protocol amortizes to nothing, small enough to give the
/// chain pipelining depth (512 blocks at `n = 2^24`).
const LOOKBACK_BLOCK: usize = 1 << 15;

/// Effective block size: scaled down with the test threshold override
/// so Miri/sanitizer profiles exercise multi-block chains.
fn lookback_block() -> usize {
    if crate::parallel::par_threshold() == crate::parallel::PAR_THRESHOLD {
        LOOKBACK_BLOCK
    } else {
        (crate::parallel::par_threshold() / 4).max(4)
    }
}

/// Half-open index range of lookback block `phys`.
fn lb_range(n: usize, block: usize, phys: usize) -> core::ops::Range<usize> {
    let start = phys * block;
    start..(start + block).min(n)
}

const EMPTY: u8 = 0;
const AGG: u8 = 1;
const PREFIX: u8 = 2;

/// One block's descriptor: payload slots plus the status word that
/// publishes them. Slots are plain `UnsafeCell`s (not atomics) — the
/// status handshake is the synchronization.
struct Slot<S> {
    agg: UnsafeCell<MaybeUninit<S>>,
    prefix: UnsafeCell<MaybeUninit<S>>,
}

/// The per-block descriptor array of one lookback pass.
///
/// Exposed (for the loom and Miri protocol suites) rather than
/// private: the publication protocol is the concurrency-critical core
/// of the schedule and is model-checked directly against this type.
pub struct DescTable<S> {
    status: Box<[AtomicU8]>,
    slots: Box<[Slot<S>]>,
    abandoned: AtomicBool,
}

// SAFETY: each `Slot` field has a single writer (the block that owns
// the descriptor, or its abandon guard on that same thread's unwind),
// every write happens before a `Release` store of the status word, and
// readers touch a slot only after an `Acquire` load observes the
// corresponding status — the handshake gives the read happens-after
// the write, so no slot is ever accessed concurrently.
unsafe impl<S: Send> Sync for DescTable<S> {}

impl<S: Copy> DescTable<S> {
    /// A table of `nblocks` descriptors, all `EMPTY`.
    pub fn new(nblocks: usize) -> Self {
        DescTable {
            status: (0..nblocks).map(|_| AtomicU8::new(EMPTY)).collect(),
            slots: (0..nblocks)
                .map(|_| Slot {
                    agg: UnsafeCell::new(MaybeUninit::uninit()),
                    prefix: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            abandoned: AtomicBool::new(false),
        }
    }

    /// Number of descriptors.
    pub fn len(&self) -> usize {
        self.status.len()
    }

    /// Whether the table is empty (a zero-block table).
    pub fn is_empty(&self) -> bool {
        self.status.is_empty()
    }

    /// Has any block abandoned its descriptor (panic or deadline)?
    pub fn is_abandoned(&self) -> bool {
        self.abandoned.load(Ordering::Acquire)
    }

    /// Publish block `t`'s local aggregate: `EMPTY → AGG`.
    pub fn publish_aggregate(&self, t: usize, v: S) {
        // SAFETY: block `t` is the slot's only writer and no reader
        // dereferences it until the `Release` store below is observed.
        unsafe { (*self.slots[t].agg.get()).write(v) };
        self.status[t].store(AGG, Ordering::Release);
    }

    /// Publish block `t`'s inclusive prefix: `{EMPTY,AGG} → PREFIX`.
    pub fn publish_prefix(&self, t: usize, v: S) {
        // SAFETY: as in `publish_aggregate` — single writer, value
        // written before the status `Release` store.
        unsafe { (*self.slots[t].prefix.get()).write(v) };
        self.status[t].store(PREFIX, Ordering::Release);
    }

    /// Block `t`'s inclusive prefix, if already published.
    pub fn try_prefix(&self, t: usize) -> Option<S> {
        if self.status[t].load(Ordering::Acquire) == PREFIX {
            // SAFETY: the `Acquire` load observed the `Release` store
            // of `PREFIX`, which happens-after the slot write.
            Some(unsafe { (*self.slots[t].prefix.get()).assume_init() })
        } else {
            None
        }
    }

    /// Abandon block `t`: latch the abandoned flag and publish an
    /// identity prefix so successors cannot spin on a block that will
    /// never finish. The pass's results are discarded afterwards (by
    /// panic replay or the deadline latch), so the placeholder value
    /// is never observable in an output.
    pub fn abandon(&self, t: usize, identity: S) {
        self.abandoned.store(true, Ordering::Release);
        self.publish_prefix(t, identity);
    }

    /// Resolve block `t`'s *exclusive* prefix by walking predecessors
    /// right-to-left: fold `AGG` aggregates until some block shows a
    /// `PREFIX`, spinning (with periodic yields) on `EMPTY`.
    ///
    /// Returns `None` if the table is abandoned or `deadline` trips
    /// before the chain resolves; the caller must bail — a partial
    /// fold is unusable.
    pub fn lookback<F>(
        &self,
        t: usize,
        identity: S,
        f: &F,
        deadline: Option<&ScanDeadline>,
    ) -> Option<S>
    where
        F: Fn(S, S) -> S,
    {
        debug_assert!(t > 0, "block 0 has no predecessors to look back at");
        let mut acc = identity;
        let mut j = t - 1;
        loop {
            let mut spins = 0u32;
            loop {
                match self.status[j].load(Ordering::Acquire) {
                    PREFIX => {
                        // SAFETY: `Acquire` observed the `PREFIX`
                        // `Release` store; the slot write happens-before.
                        let p = unsafe { (*self.slots[j].prefix.get()).assume_init() };
                        return Some(f(p, acc));
                    }
                    AGG => {
                        // SAFETY: as above, for the `AGG` publication.
                        let a = unsafe { (*self.slots[j].agg.get()).assume_init() };
                        acc = f(a, acc);
                        break;
                    }
                    _ => {
                        spins = spins.wrapping_add(1);
                        if cfg!(any(miri, loom)) || spins.is_multiple_of(64) {
                            // Checkpoint: a predecessor that will never
                            // publish implies one of these latches.
                            if self.is_abandoned() || deadline.check().is_err() {
                                return None;
                            }
                            crate::sync::thread::yield_now();
                        }
                        std::hint::spin_loop();
                    }
                }
            }
            if j == 0 {
                // Unreachable in the engine (block 0 always publishes a
                // prefix, never a bare aggregate), but terminate safely
                // if a protocol driver does otherwise.
                return Some(acc);
            }
            j -= 1;
        }
    }
}

/// Unwind/bail guard: until disarmed, dropping it abandons block `t`.
/// Armed across everything that can panic (load/emit/operator
/// closures) or bail (deadline strides), so no code path can leave a
/// descriptor permanently `EMPTY`/`AGG`.
struct Abandon<'a, S: Copy> {
    table: &'a DescTable<S>,
    t: usize,
    identity: S,
    armed: bool,
}

impl<'a, S: Copy> Abandon<'a, S> {
    fn new(table: &'a DescTable<S>, t: usize, identity: S) -> Self {
        Abandon {
            table,
            t,
            identity,
            armed: true,
        }
    }

    fn disarm(&mut self) {
        self.armed = false;
    }
}

impl<S: Copy> Drop for Abandon<'_, S> {
    fn drop(&mut self) {
        if self.armed {
            self.table.abandon(self.t, self.identity);
        }
    }
}

/// Single-pass scan: the lookback rendering of
/// [`crate::parallel::engine`]'s contract (same load/emit fusion, same
/// modes, same total, same [`Budget`]). `f` must be associative and
/// `identity` must be a two-sided identity — the slow path
/// materializes identity-seeded local states and grafts the resolved
/// seed on with one extra combine per element.
#[allow(clippy::too_many_arguments)]
pub(crate) fn engine<B, S, U, L, F, E>(
    n: usize,
    load: &L,
    identity: S,
    f: &F,
    emit: &E,
    mode: Mode,
    tile: Option<&SimdTile<S>>,
    budget: B,
) -> Result<(Vec<U>, S), B::Err>
where
    B: Budget,
    S: Copy + Send + Sync,
    U: Copy + Send + Sync,
    L: Fn(usize) -> S + Sync,
    F: Fn(S, S) -> S + Sync,
    E: Fn(usize, S) -> U + Sync,
{
    let block = lookback_block();
    let nblocks = n.div_ceil(block);
    let table = DescTable::new(nblocks);
    let mut out: Vec<U> = Vec::with_capacity(n);
    advise_huge_pages(&mut out);
    {
        let o = SendPtr::new(out.as_mut_ptr());
        let table = &table;
        // The blocks always run on the pool: its strictly in-order task
        // claiming is what makes the lookback chain deadlock-free (a
        // per-call `Spawn` scope gives no claim order).
        budget.run_blocks(Schedule::Pooled, nblocks, move |t| {
            // Descriptor index = traversal order; map to the physical
            // slice, which runs from the other end for backward modes.
            let phys = if mode.backward() { nblocks - 1 - t } else { t };
            let r = lb_range(n, block, phys);
            // Every early `return` below leaves the guard armed, so it
            // publishes and successors don't wait on this block.
            let mut guard = Abandon::new(table, t, identity);
            if table.is_abandoned() || budget.check().is_err() {
                return;
            }
            let seed = if t == 0 {
                Some(identity)
            } else {
                table.try_prefix(t - 1)
            };
            if let Some(seed) = seed {
                // Fast path (always taken at pool width 1 and by block
                // 0): the predecessor's inclusive prefix is already
                // published, so scan seeded and emit straight to the
                // output — no scratch, no fixup.
                // SAFETY: lookback blocks partition `0..n` and task `t`
                // owns slice `r`, so each index is written at most once,
                // and `set_len` below runs only if every block finished.
                let mut write = |i: usize, s: S| unsafe { o.get().add(i).write(emit(i, s)) };
                let Ok(incl) = budget_scan_span(r, load, seed, f, mode, tile, budget, &mut write)
                else {
                    return;
                };
                table.publish_prefix(t, incl);
                guard.disarm();
            } else {
                // Slow path: scan once into identity-seeded local
                // states, publish the aggregate, resolve the seed by
                // lookback, then emit `f(seed, state)` — the input is
                // still read exactly once.
                let len = r.len();
                let base = r.start;
                let mut states: Vec<S> = Vec::with_capacity(len);
                let sp = states.as_mut_ptr();
                // SAFETY: thread-local scratch, each offset written
                // once; `states` is only read below after the whole
                // span filled it.
                let mut write = |i: usize, s: S| unsafe { sp.add(i - base).write(s) };
                let Ok(agg) =
                    budget_scan_span(r.clone(), load, identity, f, mode, tile, budget, &mut write)
                else {
                    return;
                };
                table.publish_aggregate(t, agg);
                let Some(seed) = table.lookback(t, identity, f, budget.deadline()) else {
                    return;
                };
                table.publish_prefix(t, f(seed, agg));
                guard.disarm();
                // SAFETY: the whole span initialized all `len` offsets.
                unsafe { states.set_len(len) };
                for i in r {
                    // SAFETY: disjoint slice per task, as above.
                    unsafe { o.get().add(i).write(emit(i, f(seed, states[i - base]))) };
                }
            }
        })?;
    }
    // Authoritative: a block returns early only if some block panicked
    // (re-raised above under `NoDeadline`, `Err` above otherwise) or
    // the budget was spent, which latched it first — so a clean check
    // here proves every block emitted its whole slice.
    budget.check()?;
    let total = if nblocks == 0 {
        identity
    } else {
        table.try_prefix(nblocks - 1).unwrap_or(identity)
    };
    // SAFETY: every index in `0..n` was initialized by exactly one block.
    unsafe { out.set_len(n) };
    Ok((out, total))
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn descriptor_protocol_single_thread() {
        let t: DescTable<u64> = DescTable::new(3);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert!(t.try_prefix(0).is_none());
        t.publish_prefix(0, 7);
        assert_eq!(t.try_prefix(0), Some(7));
        t.publish_aggregate(1, 5);
        // Lookback from block 2: folds block 1's aggregate, then takes
        // block 0's prefix: f(7, f(5, id)).
        let got = t.lookback(2, 0u64, &|a, b| a + b, None);
        assert_eq!(got, Some(12));
        assert!(!t.is_abandoned());
        t.abandon(1, 0);
        assert!(t.is_abandoned());
        assert_eq!(t.try_prefix(1), Some(0));
    }

    #[test]
    fn lookback_bails_on_abandoned_chain() {
        let t: DescTable<u64> = DescTable::new(4);
        t.abandoned.store(true, Ordering::Release);
        // Predecessor 2 never publishes: the spin must observe the
        // abandoned latch and give up rather than hang.
        assert_eq!(t.lookback(3, 0u64, &|a, b| a + b, None), None);
    }

    #[test]
    fn abandon_guard_publishes_on_unwind() {
        let t: DescTable<u64> = DescTable::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = Abandon::new(&t, 0, 0u64);
            panic!("block died");
        }));
        assert!(r.is_err());
        assert!(t.is_abandoned());
        assert_eq!(t.try_prefix(0), Some(0));
    }

    #[test]
    fn block_ranges_partition() {
        for n in [1usize, 5, 100, 1000, 4096, 4097] {
            for block in [4usize, 64, 1000] {
                let nb = n.div_ceil(block);
                let mut next = 0;
                for b in 0..nb {
                    let r = lb_range(n, block, b);
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, n);
            }
        }
    }
}
