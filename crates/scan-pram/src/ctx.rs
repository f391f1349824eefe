//! The vector-machine execution context: runs scan-model programs with
//! the `scan-core` kernels while charging program steps per the model.
//!
//! Algorithms written against [`Ctx`] produce both their result *and*
//! their measured step complexity under any [`Model`] — this is how the
//! Table 1 and Table 5 experiments are driven.
//!
//! Each method documents its charge as a composition of the paper's
//! primitives (elementwise operations, permutes, scans). For example
//! `split` (§2.2.1) charges two scans, three elementwise operations and
//! one permute — a constant number of program steps in the scan model,
//! but `O(lg n)` steps in the pure EREW model where each scan costs a
//! tree traversal.

use std::rc::Rc;

use scan_core::element::ScanElem;
use scan_core::op::ScanOp;
use scan_core::ops::{self, Bucket};
use scan_core::segmented::{self, Segments};
use scan_core::segops;
use scan_core::simulate::PrimitiveScans;
use scan_core::{allocate as core_allocate, Allocation};

use crate::model::Model;
use crate::route;
use crate::stats::{Stats, StepKind};

/// A step-counting scan-model machine.
///
/// By default the machine has one processor per vector element (`p = n`
/// for every operation, the paper's initial assumption in §2.1). Use
/// [`Ctx::with_processors`] to fix `p` and measure the long-vector
/// costs of §2.5.
///
/// A [`PrimitiveScans`] backend can be plugged in with
/// [`Ctx::with_backend`]; scans and scan-derived operations are then
/// routed onto the backend's two primitives per the §3.4 constructions
/// (the crate's `route` module), falling back to the software kernels
/// for element/operator pairs with no construction.
#[derive(Clone)]
pub struct Ctx {
    model: Model,
    procs: Option<usize>,
    stats: Stats,
    strict: bool,
    merge_primitive: bool,
    backend: Option<Rc<dyn PrimitiveScans>>,
}

impl core::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Ctx")
            .field("model", &self.model)
            .field("procs", &self.procs)
            .field("stats", &self.stats)
            .field("strict", &self.strict)
            .field("merge_primitive", &self.merge_primitive)
            .field(
                "backend",
                &self.backend.as_ref().map(|_| "dyn PrimitiveScans"),
            )
            .finish()
    }
}

impl Ctx {
    /// A machine in the given model with one processor per element.
    pub fn new(model: Model) -> Self {
        Ctx {
            model,
            procs: None,
            stats: Stats::new(),
            strict: false,
            merge_primitive: false,
            backend: None,
        }
    }

    /// A machine with a fixed number of processors; vector operations
    /// over `n > p` elements pay the `⌈n/p⌉` per-processor loop.
    pub fn with_processors(model: Model, p: usize) -> Self {
        assert!(p > 0, "need at least one processor");
        Ctx {
            model,
            procs: Some(p),
            stats: Stats::new(),
            strict: false,
            merge_primitive: false,
            backend: None,
        }
    }

    /// Route primitive scans (and the operations derived from them)
    /// through `backend` — e.g. the simulated tree circuit from the
    /// `scan-circuit` crate, or a fault-injecting wrapper around it.
    pub fn with_backend(mut self, backend: Rc<dyn PrimitiveScans>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Whether a primitive-scan backend is installed.
    pub fn has_backend(&self) -> bool {
        self.backend.is_some()
    }

    /// Enable strict access checking: an EREW machine will panic on a
    /// concurrent read (a `gather` with duplicate indices).
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Enable the hypothetical merge primitive the paper's conclusion
    /// (§4) proposes: merging adjacent sorted runs becomes a unit-time
    /// network pass instead of a `⌈lg p⌉`-stage bitonic simulation.
    pub fn with_merge_primitive(mut self) -> Self {
        self.merge_primitive = true;
        self
    }

    /// Whether the §4 merge primitive is enabled.
    pub fn has_merge_primitive(&self) -> bool {
        self.merge_primitive
    }

    /// Merge every adjacent pair of sorted runs of length `width` — all
    /// pairs at once, one vector operation (a trailing partial run is
    /// carried through unchanged). Charge: one merge step, whose cost
    /// depends on whether the §4 primitive is enabled.
    ///
    /// # Panics
    /// In debug builds, if a run is not sorted.
    pub fn merge_adjacent_runs<T: ScanElem + PartialOrd>(
        &mut self,
        a: &[T],
        width: usize,
    ) -> Vec<T> {
        assert!(width > 0, "run width must be positive");
        let n = a.len();
        let p = self.p_for(n);
        self.stats.charge(
            StepKind::Merge,
            self.model.merge_cost(n, p, self.merge_primitive),
        );
        let mut out = Vec::with_capacity(n);
        let mut base = 0;
        while base < n {
            let mid = (base + width).min(n);
            let end = (base + 2 * width).min(n);
            debug_assert!(a[base..mid].windows(2).all(|w| w[0] <= w[1]));
            debug_assert!(a[mid..end].windows(2).all(|w| w[0] <= w[1]));
            let (mut i, mut j) = (base, mid);
            while i < mid && j < end {
                if a[i] <= a[j] {
                    out.push(a[i]);
                    i += 1;
                } else {
                    out.push(a[j]);
                    j += 1;
                }
            }
            out.extend_from_slice(&a[i..mid]);
            out.extend_from_slice(&a[j..end]);
            base = end;
        }
        out
    }

    /// The machine's model.
    pub fn model(&self) -> Model {
        self.model
    }

    /// The fixed processor count, if any.
    pub fn processors(&self) -> Option<usize> {
        self.procs
    }

    /// Accumulated step statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Total program steps charged so far.
    pub fn steps(&self) -> u64 {
        self.stats.steps()
    }

    /// Zero the counters (the machine state is otherwise unchanged).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    #[inline]
    fn p_for(&self, n: usize) -> usize {
        self.procs.unwrap_or(n.max(1)).min(n.max(1))
    }

    fn charge_elementwise(&mut self, n: usize) {
        let p = self.p_for(n);
        self.stats
            .charge(StepKind::Elementwise, self.model.elementwise_cost(n, p));
    }

    fn charge_permute(&mut self, n: usize) {
        let p = self.p_for(n);
        self.stats
            .charge(StepKind::Permute, self.model.permute_cost(n, p));
    }

    fn charge_scan(&mut self, n: usize) {
        let p = self.p_for(n);
        self.stats
            .charge(StepKind::Scan, self.model.scan_cost(n, p));
    }

    fn charge_seg_scan(&mut self, n: usize) {
        let p = self.p_for(n);
        self.stats
            .charge(StepKind::SegScan, self.model.seg_scan_cost(n, p));
    }

    // ----- explicit charges for hand-fused vector steps -----
    // Algorithms sometimes fuse several logical vector operations into
    // one loop for clarity; these let them charge the steps the fused
    // code stands for.

    /// Charge one elementwise vector operation over `n` elements.
    pub fn charge_elementwise_op(&mut self, n: usize) {
        self.charge_elementwise(n);
    }

    /// Charge one permute/memory-reference round over `n` elements.
    pub fn charge_permute_op(&mut self, n: usize) {
        self.charge_permute(n);
    }

    /// Charge one primitive scan over `n` elements.
    pub fn charge_scan_op(&mut self, n: usize) {
        self.charge_scan(n);
    }

    /// Charge one segmented scan over `n` elements.
    pub fn charge_seg_scan_op(&mut self, n: usize) {
        self.charge_seg_scan(n);
    }

    // ----- elementwise operations (§2.1) -----

    /// Elementwise map. Charge: 1 elementwise operation.
    pub fn map<T: ScanElem, U: ScanElem>(&mut self, a: &[T], f: impl Fn(T) -> U + Sync) -> Vec<U> {
        self.charge_elementwise(a.len());
        scan_core::parallel::map_by(a, f)
    }

    /// Elementwise combination of two vectors. Charge: 1 elementwise.
    pub fn zip<A: ScanElem, B: ScanElem, U: ScanElem>(
        &mut self,
        a: &[A],
        b: &[B],
        f: impl Fn(A, B) -> U + Sync,
    ) -> Vec<U> {
        self.charge_elementwise(a.len());
        scan_core::parallel::zip_by(a, b, f)
    }

    /// Elementwise select (`if flags then t else e`). Charge: 1
    /// elementwise.
    pub fn select<T: ScanElem>(&mut self, flags: &[bool], t: &[T], e: &[T]) -> Vec<T> {
        self.charge_elementwise(flags.len());
        ops::select(flags, t, e)
    }

    /// A constant vector. Charge: 1 elementwise (a broadcast store).
    pub fn constant<T: ScanElem>(&mut self, n: usize, v: T) -> Vec<T> {
        self.charge_elementwise(n);
        vec![v; n]
    }

    /// The index vector `[0, 1, ..., n-1]` (each processor knows its own
    /// number — the paper treats this as free, we charge one store).
    pub fn iota(&mut self, n: usize) -> Vec<usize> {
        self.charge_elementwise(n);
        (0..n).collect()
    }

    // ----- scans -----

    /// Exclusive scan. Charge: 1 scan.
    pub fn scan<O: ScanOp<T>, T: ScanElem>(&mut self, a: &[T]) -> Vec<T> {
        self.charge_scan(a.len());
        if let Some(b) = &self.backend {
            if let Some(out) = route::scan::<O, T>(b.as_ref(), a) {
                return out;
            }
        }
        scan_core::scan::<O, T>(a)
    }

    /// Exclusive scan plus the total. Charge: 1 scan + 1 elementwise
    /// (the final combine is one more vector step).
    pub fn scan_with_total<O: ScanOp<T>, T: ScanElem>(&mut self, a: &[T]) -> (Vec<T>, T) {
        self.charge_scan(a.len());
        self.charge_elementwise(a.len().min(1));
        if let Some(b) = &self.backend {
            if let Some(out) = route::scan_with_total::<O, T>(b.as_ref(), a) {
                return out;
            }
        }
        scan_core::scan_with_total::<O, T>(a)
    }

    /// Inclusive scan. Charge: 1 scan + 1 elementwise.
    pub fn inclusive_scan<O: ScanOp<T>, T: ScanElem>(&mut self, a: &[T]) -> Vec<T> {
        self.charge_scan(a.len());
        self.charge_elementwise(a.len());
        if let Some(b) = &self.backend {
            if let Some(excl) = route::scan::<O, T>(b.as_ref(), a) {
                if excl.len() == a.len() {
                    return excl
                        .iter()
                        .zip(a)
                        .map(|(&e, &x)| O::combine(e, x))
                        .collect();
                }
            }
        }
        scan_core::inclusive_scan::<O, T>(a)
    }

    /// Exclusive backward scan (§2.1). Charge: 1 scan.
    pub fn scan_backward<O: ScanOp<T>, T: ScanElem>(&mut self, a: &[T]) -> Vec<T> {
        self.charge_scan(a.len());
        if let Some(b) = &self.backend {
            if let Some(out) = route::scan_backward::<O, T>(b.as_ref(), a) {
                return out;
            }
        }
        scan_core::scan_backward::<O, T>(a)
    }

    /// Inclusive backward scan. Charge: 1 scan + 1 elementwise.
    pub fn inclusive_scan_backward<O: ScanOp<T>, T: ScanElem>(&mut self, a: &[T]) -> Vec<T> {
        self.charge_scan(a.len());
        self.charge_elementwise(a.len());
        if let Some(b) = &self.backend {
            if let Some(excl) = route::scan_backward::<O, T>(b.as_ref(), a) {
                if excl.len() == a.len() {
                    return excl
                        .iter()
                        .zip(a)
                        .map(|(&e, &x)| O::combine(e, x))
                        .collect();
                }
            }
        }
        scan_core::inclusive_scan_backward::<O, T>(a)
    }

    /// Reduction. Charge: 1 scan (an up sweep).
    pub fn reduce<O: ScanOp<T>, T: ScanElem>(&mut self, a: &[T]) -> T {
        self.charge_scan(a.len());
        if let Some(b) = &self.backend {
            if let Some((_, total)) = route::scan_with_total::<O, T>(b.as_ref(), a) {
                return total;
            }
        }
        scan_core::reduce::<O, T>(a)
    }

    // ----- segmented scans (§2.3) -----

    /// Exclusive segmented scan. Charge: 1 segmented scan (= two
    /// primitive scans, §3.4).
    pub fn seg_scan<O: ScanOp<T>, T: ScanElem>(&mut self, a: &[T], segs: &Segments) -> Vec<T> {
        self.charge_seg_scan(a.len());
        if let Some(b) = &self.backend {
            if let Some(out) = route::seg_scan::<O, T>(b.as_ref(), a, segs) {
                return out;
            }
        }
        segmented::seg_scan::<O, T>(a, segs)
    }

    /// Inclusive segmented scan. Charge: 1 segmented scan + 1
    /// elementwise.
    pub fn seg_inclusive_scan<O: ScanOp<T>, T: ScanElem>(
        &mut self,
        a: &[T],
        segs: &Segments,
    ) -> Vec<T> {
        self.charge_seg_scan(a.len());
        self.charge_elementwise(a.len());
        if let Some(b) = &self.backend {
            if let Some(excl) = route::seg_scan::<O, T>(b.as_ref(), a, segs) {
                if excl.len() == a.len() {
                    return excl
                        .iter()
                        .zip(a)
                        .map(|(&e, &x)| O::combine(e, x))
                        .collect();
                }
            }
        }
        segmented::seg_inclusive_scan::<O, T>(a, segs)
    }

    /// Exclusive backward segmented scan. Charge: 1 segmented scan.
    pub fn seg_scan_backward<O: ScanOp<T>, T: ScanElem>(
        &mut self,
        a: &[T],
        segs: &Segments,
    ) -> Vec<T> {
        self.charge_seg_scan(a.len());
        if let Some(b) = &self.backend {
            if let Some(out) = route::seg_scan_backward::<O, T>(b.as_ref(), a, segs) {
                return out;
            }
        }
        segmented::seg_scan_backward::<O, T>(a, segs)
    }

    /// Per-segment reduction distributed over every element of the
    /// segment (segmented `⊕-distribute`, §2.2/§2.3). Charge: 1
    /// segmented scan + 1 elementwise.
    pub fn seg_distribute<O: ScanOp<T>, T: ScanElem>(
        &mut self,
        a: &[T],
        segs: &Segments,
    ) -> Vec<T> {
        self.charge_seg_scan(a.len());
        self.charge_elementwise(a.len());
        if let Some(b) = &self.backend {
            if let Some(out) = route::seg_distribute::<O, T>(b.as_ref(), a, segs) {
                return out;
            }
        }
        segops::seg_distribute::<O, T>(a, segs)
    }

    /// Segmented copy: each segment head broadcast across its segment
    /// (implementable as a segmented max-scan, Figure 16). Charge: 1
    /// segmented scan.
    pub fn seg_copy<T: ScanElem>(&mut self, a: &[T], segs: &Segments) -> Vec<T> {
        self.charge_seg_scan(a.len());
        if let Some(b) = &self.backend {
            if let Some(out) = route::seg_copy(b.as_ref(), a, segs) {
                return out;
            }
        }
        segops::seg_copy(a, segs)
    }

    // ----- simple operations (§2.2) -----

    /// Enumerate (Figure 1). Charge: 1 elementwise + 1 scan.
    pub fn enumerate(&mut self, flags: &[bool]) -> Vec<usize> {
        self.charge_elementwise(flags.len());
        self.charge_scan(flags.len());
        if let Some(b) = &self.backend {
            return route::enumerate(b.as_ref(), flags);
        }
        ops::enumerate(flags)
    }

    /// Backward enumerate. Charge: 1 elementwise + 1 scan.
    pub fn back_enumerate(&mut self, flags: &[bool]) -> Vec<usize> {
        self.charge_elementwise(flags.len());
        self.charge_scan(flags.len());
        if let Some(b) = &self.backend {
            return route::back_enumerate(b.as_ref(), flags);
        }
        ops::back_enumerate(flags)
    }

    /// Count of true flags. Charge: 1 elementwise + 1 scan.
    pub fn count(&mut self, flags: &[bool]) -> usize {
        self.charge_elementwise(flags.len());
        self.charge_scan(flags.len());
        if let Some(b) = &self.backend {
            return route::count(b.as_ref(), flags);
        }
        ops::count(flags)
    }

    /// Copy the first element across the vector (Figure 1); the paper
    /// implements it with one scan plus restoring the first element.
    /// Charge: 1 scan + 1 elementwise.
    pub fn copy<T: ScanElem>(&mut self, a: &[T]) -> Vec<T> {
        self.charge_scan(a.len());
        self.charge_elementwise(a.len());
        ops::copy_first(a)
    }

    /// `⊕-distribute` (Figure 1): scan + backward copy. Charge: 2 scans
    /// + 1 elementwise.
    pub fn distribute_op<O: ScanOp<T>, T: ScanElem>(&mut self, a: &[T]) -> Vec<T> {
        self.charge_scan(a.len());
        self.charge_scan(a.len());
        self.charge_elementwise(a.len());
        ops::distribute_op::<O, T>(a)
    }

    // ----- data movement -----

    /// Permute (§2.1). Charge: 1 permute. Panics on invalid indices.
    pub fn permute<T: ScanElem>(&mut self, a: &[T], indices: &[usize]) -> Vec<T> {
        self.charge_permute(a.len());
        ops::permute(a, indices)
    }

    /// Permute with caller-guaranteed unique indices. Charge: 1 permute.
    pub fn permute_unchecked<T: ScanElem>(&mut self, a: &[T], indices: &[usize]) -> Vec<T> {
        self.charge_permute(a.len());
        ops::permute_unchecked(a, indices)
    }

    /// Gather (`out[i] = a[indices[i]]`). Charge: 1 permute round.
    ///
    /// # Panics
    /// In a strict EREW/Scan machine, if the indices contain duplicates
    /// (a concurrent read).
    pub fn gather<T: ScanElem>(&mut self, a: &[T], indices: &[usize]) -> Vec<T> {
        if self.strict && !self.model.allows_concurrent_read() {
            let mut seen = vec![false; a.len()];
            for &ix in indices {
                assert!(
                    !seen[ix],
                    "concurrent read at index {ix} on an exclusive-read machine"
                );
                seen[ix] = true;
            }
        }
        self.charge_permute(indices.len());
        ops::gather(a, indices)
    }

    /// Shift every element one position toward higher indices,
    /// inserting `fill` at position 0 (each processor reads its left
    /// neighbor — one exclusive-read memory round). Charge: 1 permute.
    pub fn shift_right<T: ScanElem>(&mut self, a: &[T], fill: T) -> Vec<T> {
        self.charge_permute(a.len());
        if a.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(a.len());
        out.push(fill);
        out.extend_from_slice(&a[..a.len() - 1]);
        out
    }

    /// Shift toward lower indices, inserting `fill` at the end.
    /// Charge: 1 permute.
    pub fn shift_left<T: ScanElem>(&mut self, a: &[T], fill: T) -> Vec<T> {
        self.charge_permute(a.len());
        if a.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(a.len());
        out.extend_from_slice(&a[1..]);
        out.push(fill);
        out
    }

    /// Split (§2.2.1, Figure 3). Charge: 2 scans + 3 elementwise + 1
    /// permute.
    pub fn split<T: ScanElem>(&mut self, a: &[T], flags: &[bool]) -> Vec<T> {
        self.split_count(a, flags).0
    }

    /// Split, also returning the size of the `false` group. Same charge
    /// as [`Ctx::split`].
    pub fn split_count<T: ScanElem>(&mut self, a: &[T], flags: &[bool]) -> (Vec<T>, usize) {
        let n = a.len();
        self.charge_scan(n); // forward enumerate of falses
        self.charge_scan(n); // backward enumerate of trues
        self.charge_elementwise(n); // not()
        self.charge_elementwise(n); // I-up arithmetic
        self.charge_elementwise(n); // select of indices
        self.charge_permute(n);
        assert_eq!(a.len(), flags.len(), "split length mismatch");
        if let Some(b) = &self.backend {
            return route::split_count(b.as_ref(), a, flags);
        }
        ops::split_count(a, flags)
    }

    /// Three-way split (quicksort's comparison groups). Charge: 3 scans
    /// + 4 elementwise + 1 permute.
    pub fn split3<T: ScanElem>(&mut self, a: &[T], buckets: &[Bucket]) -> (Vec<T>, usize, usize) {
        let n = a.len();
        for _ in 0..3 {
            self.charge_scan(n);
        }
        for _ in 0..4 {
            self.charge_elementwise(n);
        }
        self.charge_permute(n);
        assert_eq!(a.len(), buckets.len(), "split3 length mismatch");
        if let Some(b) = &self.backend {
            return route::split3(b.as_ref(), a, buckets);
        }
        ops::split3(a, buckets)
    }

    /// Stable multi-way split: group `a` by `key` into `nbuckets`
    /// buckets (one radix-sort digit pass), returning the reordered
    /// vector and the per-bucket counts.
    ///
    /// Charge: 1 elementwise (digit extraction), then per bucket 1
    /// elementwise and 1 scan (the flag-and-enumerate the scan model
    /// runs per bucket value), then 1 elementwise (destination
    /// arithmetic) and 1 permute — identical to the unfused
    /// `2^w`-enumerate schedule, so Table 1/Table 4 step accounting is
    /// unchanged; only the execution is fused
    /// ([`scan_core::multi_split`]: one histogram read, one scan over
    /// the block × bucket count matrix, one scatter write).
    ///
    /// # Panics
    /// If `nbuckets` is 0 or exceeds
    /// [`scan_core::multi_split::MAX_BUCKETS`], or `key` returns a
    /// bucket `>= nbuckets`.
    pub fn multi_split<T, K>(&mut self, a: &[T], nbuckets: usize, key: K) -> (Vec<T>, Vec<usize>)
    where
        T: ScanElem,
        K: Fn(T) -> usize + Sync,
    {
        let n = a.len();
        self.charge_elementwise(n); // digit extraction
        for _ in 0..nbuckets {
            self.charge_elementwise(n); // flag this bucket value
            self.charge_scan(n); // enumerate it
        }
        self.charge_elementwise(n); // base + rank destination arithmetic
        self.charge_permute(n); // the scatter
        scan_core::multi_split_by(a, nbuckets, key)
    }

    /// Segmented split within each segment. Charge: 3 segmented scans +
    /// 3 elementwise + 1 permute.
    pub fn seg_split<T: ScanElem>(&mut self, a: &[T], flags: &[bool], segs: &Segments) -> Vec<T> {
        let n = a.len();
        for _ in 0..3 {
            self.charge_seg_scan(n);
        }
        for _ in 0..3 {
            self.charge_elementwise(n);
        }
        self.charge_permute(n);
        segops::seg_split(a, flags, segs)
    }

    /// Segmented three-way split with segment refinement (the quicksort
    /// step, §2.3.1). Charge: 5 segmented scans + 4 elementwise + 2
    /// permutes (values and new head flags).
    pub fn seg_split3<T: ScanElem>(
        &mut self,
        a: &[T],
        buckets: &[Bucket],
        segs: &Segments,
    ) -> segops::SegSplit3<T> {
        let n = a.len();
        for _ in 0..5 {
            self.charge_seg_scan(n);
        }
        for _ in 0..4 {
            self.charge_elementwise(n);
        }
        self.charge_permute(n);
        self.charge_permute(n);
        segops::seg_split3(a, buckets, segs)
    }

    /// Pack kept elements into a shorter vector (Figure 11). Charge: 1
    /// scan + 1 elementwise + 1 permute.
    pub fn pack<T: ScanElem>(&mut self, a: &[T], keep: &[bool]) -> Vec<T> {
        self.charge_scan(a.len());
        self.charge_elementwise(a.len());
        self.charge_permute(a.len());
        assert_eq!(a.len(), keep.len(), "pack length mismatch");
        if let Some(b) = &self.backend {
            return route::pack(b.as_ref(), a, keep);
        }
        ops::pack(a, keep)
    }

    /// Merge two vectors under a merge-flag vector (§2.5.1). Charge: 2
    /// scans + 2 elementwise + 1 permute.
    pub fn flag_merge<T: ScanElem>(&mut self, flags: &[bool], a: &[T], b: &[T]) -> Vec<T> {
        let n = flags.len();
        self.charge_scan(n);
        self.charge_scan(n);
        self.charge_elementwise(n);
        self.charge_elementwise(n);
        self.charge_permute(n);
        if let Some(be) = &self.backend {
            // Only a *valid* merge is routable; invalid inputs keep the
            // software kernel's panic contract.
            let trues = flags.iter().filter(|&&f| f).count();
            if n == a.len() + b.len() && trues == b.len() {
                return route::flag_merge(be.as_ref(), flags, a, b);
            }
        }
        ops::flag_merge(flags, a, b)
    }

    // ----- allocation (§2.4) -----

    /// Allocate `counts[i]` new elements to each position (Figure 8).
    /// Charge: 1 scan + 1 permute (scattering the head flags).
    pub fn allocate(&mut self, counts: &[usize]) -> Allocation {
        self.charge_scan(counts.len());
        self.charge_permute(counts.len());
        if let Some(b) = &self.backend {
            return route::allocate(b.as_ref(), counts);
        }
        core_allocate(counts)
    }

    /// Allocate and distribute values across the allocated segments.
    /// Charge: allocate + 1 permute + 1 segmented scan (the copy).
    pub fn distribute<T: ScanElem>(&mut self, values: &[T], counts: &[usize]) -> Vec<T> {
        self.charge_scan(counts.len());
        self.charge_permute(counts.len());
        let total: usize = counts.iter().sum();
        self.charge_permute(total);
        self.charge_seg_scan(total);
        assert_eq!(
            values.len(),
            counts.len(),
            "distribute length mismatch: expected {}, got {}",
            values.len(),
            counts.len()
        );
        if let Some(b) = &self.backend {
            return route::distribute(b.as_ref(), values, counts);
        }
        scan_core::distribute(values, counts)
    }

    // ----- extended CRCW (§2.3.3) -----

    /// Combining concurrent write: `out[indices[i]] ⊕= values[i]`, with
    /// colliding writes resolved by `O`. Unit cost — this is the
    /// extension the CRCW MST algorithm needs ("either the value from
    /// the lowest numbered processor is written, or the minimum value").
    ///
    /// # Panics
    /// If the model does not provide combining writes (only the
    /// extended CRCW does).
    pub fn combining_write<O: ScanOp<T>, T: ScanElem>(
        &mut self,
        out_len: usize,
        indices: &[usize],
        values: &[T],
    ) -> Vec<T> {
        assert!(
            self.model.has_combining_write(),
            "combining writes require the extended CRCW model, not {}",
            self.model.name()
        );
        assert_eq!(
            indices.len(),
            values.len(),
            "combining_write length mismatch"
        );
        let p = self.p_for(indices.len());
        self.stats.charge(
            StepKind::CombiningWrite,
            self.model.elementwise_cost(indices.len(), p),
        );
        let mut out = vec![O::identity(); out_len];
        for (&ix, &v) in indices.iter().zip(values) {
            out[ix] = O::combine(out[ix], v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_core::op::{Max, Min, Sum};

    #[test]
    fn scan_charges_differ_by_model() {
        let a: Vec<u64> = (0..1024).collect();
        let mut scan_m = Ctx::new(Model::Scan);
        let mut erew = Ctx::new(Model::Erew);
        let r1 = scan_m.scan::<Sum, _>(&a);
        let r2 = erew.scan::<Sum, _>(&a);
        assert_eq!(r1, r2, "results are model-independent");
        assert!(erew.steps() > scan_m.steps());
        assert_eq!(scan_m.steps(), 3);
        assert_eq!(erew.steps(), 2 + 2 * 10);
    }

    #[test]
    fn split_is_constant_ops_in_scan_model() {
        let mut ctx = Ctx::new(Model::Scan);
        let a = [5u32, 7, 3, 1, 4, 2, 7, 2];
        let f = [true, true, true, true, false, false, true, false];
        let s = ctx.split(&a, &f);
        assert_eq!(s, vec![4, 2, 2, 5, 7, 3, 1, 7]);
        // 2 scans (3 steps each at n=p=8) + 3 elementwise + 1 permute.
        assert_eq!(ctx.stats().ops(), 6);
    }

    #[test]
    fn multi_split_groups_stably_and_charges_like_unfused() {
        let mut ctx = Ctx::new(Model::Scan);
        let a = [5u64, 7, 3, 1, 4, 2, 7, 2];
        let (s, counts) = ctx.multi_split(&a, 4, |k| (k & 3) as usize);
        assert_eq!(s, vec![4, 5, 1, 2, 2, 7, 3, 7]);
        assert_eq!(counts, vec![1, 2, 2, 3]);
        // 2^w scans + (2^w + 2) elementwise + 1 permute per pass — the
        // unfused enumerate-per-bucket schedule's exact op counts.
        assert_eq!(ctx.stats().ops_of(StepKind::Scan), 4);
        assert_eq!(ctx.stats().ops_of(StepKind::Elementwise), 6);
        assert_eq!(ctx.stats().ops_of(StepKind::Permute), 1);
    }

    #[test]
    fn long_vector_charges() {
        let a: Vec<u64> = (0..4096).collect();
        let mut ctx = Ctx::with_processors(Model::Scan, 64);
        ctx.map(&a, |x| x + 1);
        assert_eq!(ctx.steps(), 64); // ⌈4096/64⌉
        ctx.reset_stats();
        ctx.scan::<Sum, _>(&a);
        assert_eq!(ctx.steps(), 129); // 2·64 + 1
    }

    #[test]
    fn combining_write_on_crcw() {
        let mut ctx = Ctx::new(Model::Crcw);
        let out = ctx.combining_write::<Min, u64>(3, &[0, 1, 0, 2, 1], &[5, 7, 3, 9, 2]);
        assert_eq!(out, vec![3, 2, 9]);
        assert_eq!(ctx.stats().ops_of(StepKind::CombiningWrite), 1);
    }

    #[test]
    #[should_panic(expected = "extended CRCW")]
    fn combining_write_rejected_on_scan_model() {
        let mut ctx = Ctx::new(Model::Scan);
        ctx.combining_write::<Max, u64>(2, &[0, 1], &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "concurrent read")]
    fn strict_erew_rejects_concurrent_read() {
        let mut ctx = Ctx::new(Model::Erew).strict();
        ctx.gather(&[1u32, 2, 3], &[0, 0, 1]);
    }

    #[test]
    fn strict_crew_allows_concurrent_read() {
        let mut ctx = Ctx::new(Model::Crew).strict();
        assert_eq!(ctx.gather(&[1u32, 2, 3], &[0, 0, 1]), vec![1, 1, 2]);
    }

    #[test]
    fn derived_ops_work_and_charge() {
        let mut ctx = Ctx::new(Model::Scan);
        assert_eq!(ctx.enumerate(&[true, false, true]), vec![0, 1, 1]);
        assert_eq!(ctx.distribute_op::<Sum, _>(&[1u32, 2, 3]), vec![6, 6, 6]);
        assert_eq!(ctx.pack(&[1u32, 2, 3], &[true, false, true]), vec![1, 3]);
        let alloc = ctx.allocate(&[2, 1]);
        assert_eq!(alloc.total, 3);
        assert_eq!(ctx.distribute(&[9u32, 4], &[2, 1]), vec![9, 9, 4]);
        assert!(ctx.steps() > 0);
    }

    #[test]
    fn seg_ops_charge_two_primitive_scans() {
        let a = [5u64, 1, 3, 4];
        let segs = Segments::from_lengths(&[2, 2]);
        let mut ctx = Ctx::new(Model::Scan);
        ctx.seg_scan::<Sum, _>(&a, &segs);
        // n = p = 4: scan cost 3, seg scan = 2 × 3.
        assert_eq!(ctx.steps(), 6);
    }

    #[test]
    fn stats_reset() {
        let mut ctx = Ctx::new(Model::Scan);
        ctx.scan::<Sum, _>(&[1u64, 2, 3]);
        assert!(ctx.steps() > 0);
        ctx.reset_stats();
        assert_eq!(ctx.steps(), 0);
    }

    #[test]
    fn backend_routing_matches_software_results() {
        use scan_core::simulate::{PrimitiveScans, SoftwareScans};
        use std::cell::Cell;
        use std::rc::Rc;

        /// SoftwareScans plus a call counter, to prove routing happened.
        #[derive(Debug, Default)]
        struct Counting {
            calls: Cell<u64>,
        }
        impl PrimitiveScans for Counting {
            fn plus_scan(&self, a: &[u64]) -> Vec<u64> {
                self.calls.set(self.calls.get() + 1);
                SoftwareScans.plus_scan(a)
            }
            fn max_scan(&self, a: &[u64]) -> Vec<u64> {
                self.calls.set(self.calls.get() + 1);
                SoftwareScans.max_scan(a)
            }
        }

        let backend = Rc::new(Counting::default());
        let mut routed = Ctx::new(Model::Scan).with_backend(backend.clone());
        let mut soft = Ctx::new(Model::Scan);
        assert!(routed.has_backend() && !soft.has_backend());

        let a: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let flags = [true, false, true, true, false, false, true, false];
        let segs = Segments::from_lengths(&[3, 5]);
        assert_eq!(routed.scan::<Sum, _>(&a), soft.scan::<Sum, _>(&a));
        assert_eq!(
            routed.inclusive_scan::<Max, _>(&a),
            soft.inclusive_scan::<Max, _>(&a)
        );
        assert_eq!(
            routed.scan_backward::<Min, _>(&a),
            soft.scan_backward::<Min, _>(&a)
        );
        assert_eq!(routed.reduce::<Sum, _>(&a), soft.reduce::<Sum, _>(&a));
        assert_eq!(
            routed.seg_scan::<Sum, _>(&a, &segs),
            soft.seg_scan::<Sum, _>(&a, &segs)
        );
        assert_eq!(
            routed.seg_distribute::<Max, _>(&a, &segs),
            soft.seg_distribute::<Max, _>(&a, &segs)
        );
        assert_eq!(routed.seg_copy(&a, &segs), soft.seg_copy(&a, &segs));
        assert_eq!(routed.enumerate(&flags), soft.enumerate(&flags));
        assert_eq!(routed.count(&flags), soft.count(&flags));
        assert_eq!(routed.pack(&a, &flags), soft.pack(&a, &flags));
        assert_eq!(routed.split_count(&a, &flags), soft.split_count(&a, &flags));
        assert_eq!(routed.allocate(&[2, 0, 3]), soft.allocate(&[2, 0, 3]));
        assert_eq!(
            routed.distribute(&[7u64, 8, 9], &[2, 0, 3]),
            soft.distribute(&[7u64, 8, 9], &[2, 0, 3])
        );
        // The charges are identical either way — routing does not change
        // the cost model.
        assert_eq!(routed.steps(), soft.steps());
        // And the primitives really ran on the backend.
        assert!(
            backend.calls.get() >= 20,
            "backend saw {}",
            backend.calls.get()
        );
    }

    #[test]
    fn backend_routing_falls_back_for_unroutable_ops() {
        use scan_core::op::Prod;
        use scan_core::simulate::SoftwareScans;
        use std::rc::Rc;
        let mut ctx = Ctx::new(Model::Scan).with_backend(Rc::new(SoftwareScans));
        // No §3.4 construction for ×-scan or float +-scan: software path.
        assert_eq!(ctx.scan::<Prod, _>(&[1u64, 2, 3, 4]), vec![1, 1, 2, 6]);
        let f = [1.0f64, 2.0, 3.0];
        assert_eq!(ctx.scan::<Sum, _>(&f), vec![0.0, 1.0, 3.0]);
    }
}
