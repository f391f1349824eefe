//! The scan primitives, as one descriptor: [`Scan`].
//!
//! The paper's scan (§1) is the *exclusive forward* scan:
//! `scan([a0..a(n-1)]) = [i, a0, a0⊕a1, ..., a0⊕...⊕a(n-2)]`.
//! Backward scans (§2.1) run from the last element to the first and are
//! "implemented by simply reading the vector into the processors in
//! reverse order" (§3.4), and a segmented scan (§2.3) is the same scan
//! over the `(value, flag)` pair operator. So one value describes every
//! scan and reduction in this crate: a [`Scan`] carries the operator,
//! the direction, inclusive or exclusive, the schedule, the deadline,
//! an optional segmentation and an optional carry seed, and its
//! [`run`](Scan::run) / [`try_run`](Scan::try_run) and
//! [`total`](Scan::total) / [`try_total`](Scan::try_total) methods
//! lower it onto the blocked engine in [`crate::parallel`]:
//!
//! ```
//! use scan_core::{op::Max, op::Sum, Scan, Segments};
//! let a = [3u32, 1, 4, 1, 5];
//! assert_eq!(Scan::op::<Sum, _>().run(&a), (vec![0, 3, 4, 8, 9], 14));
//! assert_eq!(Scan::op::<Max, _>().backward().inclusive().run(&a).0, vec![5; 5]);
//! let segs = Segments::from_lengths(&[2, 3]);
//! assert_eq!(Scan::op::<Sum, _>().segments(&segs).run(&a).0, vec![0, 3, 0, 4, 5]);
//! assert_eq!(Scan::by(1u32, |x, y| x * y).total(&a), 60);
//! ```
//!
//! The paper's own names — [`scan`], [`scan_with_total`],
//! [`inclusive_scan`], [`scan_backward`], [`inclusive_scan_backward`],
//! [`reduce`] and the segmented scans of [`crate::segmented`] — are
//! one-line wrappers over it.

use core::marker::PhantomData;

use crate::deadline::{self, ScanDeadline};
use crate::element::ScanElem;
use crate::error::{Error, ExecError, Result};
use crate::op::ScanOp;
use crate::parallel::{self, Budget, Mode, NoDeadline, Schedule};
use crate::segmented::Segments;

/// Exclusive forward scan (the paper's scan).
///
/// ```
/// use scan_core::{scan, op::{Sum, Max}};
/// let a = [2u32, 1, 2, 3, 5, 8, 13, 21];
/// assert_eq!(scan::<Sum, _>(&a), vec![0, 2, 3, 5, 8, 13, 21, 34]);
/// assert_eq!(scan::<Max, _>(&[3u32, 1, 4, 1, 5]), vec![0, 3, 3, 4, 4]);
/// ```
pub fn scan<O: ScanOp<T>, T: ScanElem>(a: &[T]) -> Vec<T> {
    Scan::op::<O, T>().run(a).0
}

/// Exclusive forward scan that also returns the total reduction
/// (`a0 ⊕ ... ⊕ a(n-1)`), which an exclusive scan otherwise drops.
///
/// Equivalent to the pair (`scan`, `reduce`), computed in one pass over
/// the input: the total is the final accumulator of the engine's block
/// offset scan (or of the sequential loop), so no re-combine or second
/// traversal happens.
pub fn scan_with_total<O: ScanOp<T>, T: ScanElem>(a: &[T]) -> (Vec<T>, T) {
    Scan::op::<O, T>().run(a)
}

/// Inclusive forward scan: element `i` receives `a0 ⊕ ... ⊕ ai`.
pub fn inclusive_scan<O: ScanOp<T>, T: ScanElem>(a: &[T]) -> Vec<T> {
    Scan::op::<O, T>().inclusive().run(a).0
}

/// Exclusive backward scan: element `i` receives
/// `a(i+1) ⊕ ... ⊕ a(n-1)` (identity at the last position), combined in
/// descending index order per §3.4's "reading the vector in reverse
/// order". The engine walks the blocks right-to-left; no reversed copy
/// of the input is allocated.
///
/// ```
/// use scan_core::{scan_backward, op::Sum};
/// assert_eq!(scan_backward::<Sum, _>(&[1u32, 2, 3, 4]), vec![9, 7, 4, 0]);
/// ```
pub fn scan_backward<O: ScanOp<T>, T: ScanElem>(a: &[T]) -> Vec<T> {
    Scan::op::<O, T>().backward().run(a).0
}

/// Inclusive backward scan: element `i` receives `ai ⊕ ... ⊕ a(n-1)`.
pub fn inclusive_scan_backward<O: ScanOp<T>, T: ScanElem>(a: &[T]) -> Vec<T> {
    Scan::op::<O, T>().backward().inclusive().run(a).0
}

/// Reduction over the whole vector with operator `O`.
pub fn reduce<O: ScanOp<T>, T: ScanElem>(a: &[T]) -> T {
    Scan::op::<O, T>().total(a)
}

/// The operator of a [`Scan`]: a [`ScanOp`] type ([`Typed`]) or an
/// identity and a closure ([`ByFn`]). Either way the engine receives it
/// as a type, so every combine inlines. [`Scan::op`] and [`Scan::by`]
/// build the only two.
pub trait Operator<T: Copy>: Sync {
    /// The identity `i`, with `i ⊕ x == x`.
    fn identity(&self) -> T;

    /// `a ⊕ b`.
    fn combine(&self, a: T, b: T) -> T;
}

/// The [`ScanOp`] type `O` as a [`Scan`]'s operator.
pub struct Typed<O>(PhantomData<O>);

impl<O> Clone for Typed<O> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<O> Copy for Typed<O> {}

impl<O: ScanOp<T>, T: ScanElem> Operator<T> for Typed<O> {
    #[inline(always)]
    fn identity(&self) -> T {
        O::identity()
    }

    #[inline(always)]
    fn combine(&self, a: T, b: T) -> T {
        O::combine(a, b)
    }
}

/// An identity and an associative closure as a [`Scan`]'s operator.
#[derive(Clone, Copy)]
pub struct ByFn<T, F> {
    identity: T,
    f: F,
}

impl<T: Copy + Sync, F: Fn(T, T) -> T + Sync> Operator<T> for ByFn<T, F> {
    #[inline(always)]
    fn identity(&self) -> T {
        self.identity
    }

    #[inline(always)]
    fn combine(&self, a: T, b: T) -> T {
        (self.f)(a, b)
    }
}

/// A scan, described: the operator `K` over elements `T`, the
/// direction, inclusive or exclusive, the schedule, the deadline, an
/// optional segmentation and an optional carry seed of type `S`.
///
/// [`Scan::op`] and [`Scan::by`] start the exclusive forward scan on
/// the default schedule under the ambient deadline; each setter changes
/// one part. A flat scan threads a `T` carry. [`segments`](Self::segments)
/// and [`heads`](Self::heads) move it to the paper's §2.3 pair state
/// `(value, head seen)`, so its carry and total are `(T, bool)`.
///
/// The infallible methods never observe a deadline and let an operator
/// panic reach the caller. The `try_*` ones run the same engine under
/// the deadline, checked between blocks and every few thousand
/// elements, with panics contained, and return the infallible result
/// bit for bit on success:
///
/// ```
/// use std::time::Duration;
/// use scan_core::{ExecError, Scan, ScanDeadline};
///
/// let a: Vec<u64> = (0..100_000).collect();
///
/// // Bound a scan by wall-clock time (or call d.cancel() from anywhere):
/// let d = ScanDeadline::after(Duration::from_millis(5));
/// match Scan::by(0u64, |x, y| x + y).deadline(Some(&d)).try_run(&a) {
///     Ok((out, _)) => assert_eq!(out[3], 3), // completed in time
///     Err(ExecError::DeadlineExceeded) => {}  // abandoned, typed
///     Err(ExecError::Cancelled) => {}         // d.cancel() won the race
///     Err(ExecError::WorkerLost { panics }) => // an operator panicked;
///         eprintln!("{panics} task panic(s) contained"),
/// }
/// ```
#[derive(Clone, Copy)]
pub struct Scan<'a, K, T, S = T> {
    op: K,
    mode: Mode,
    sched: Option<Schedule>,
    /// `None`: the ambient scope; `Some(None)`: no deadline at all.
    deadline: Option<Option<&'a ScanDeadline>>,
    /// The head flags, and whether element 0 is a head regardless.
    heads: Option<(&'a [bool], bool)>,
    carry: Option<S>,
    elem: PhantomData<T>,
}

impl Scan<'_, (), ()> {
    /// The exclusive forward scan under the [`ScanOp`] `O`.
    pub fn op<'a, O: ScanOp<T>, T: ScanElem>() -> Scan<'a, Typed<O>, T> {
        Scan::with(Typed(PhantomData))
    }

    /// The exclusive forward scan under the associative closure `f`
    /// with identity `identity`.
    pub fn by<'a, T, F>(identity: T, f: F) -> Scan<'a, ByFn<T, F>, T>
    where
        T: Copy + Send + Sync,
        F: Fn(T, T) -> T + Sync,
    {
        Scan::with(ByFn { identity, f })
    }
}

impl<'a, K, T, S> Scan<'a, K, T, S> {
    /// Scan right to left: element `i` combines the elements after it,
    /// in descending index order (§3.4), and a segmented scan restarts
    /// at each segment's last element.
    pub fn backward(mut self) -> Self {
        self.mode = Mode::new(self.mode.inclusive(), true);
        self
    }

    /// Include element `i` in its own output.
    pub fn inclusive(mut self) -> Self {
        self.mode = Mode::new(true, self.mode.backward());
        self
    }

    /// Run on `sched` instead of [`parallel::default_schedule`], which
    /// is otherwise read at run time.
    pub fn schedule(mut self, sched: Schedule) -> Self {
        self.sched = Some(sched);
        self
    }

    /// Run the `try_*` methods under `deadline` instead of the ambient
    /// [`crate::deadline`] scope; `None` runs them under none.
    pub fn deadline(mut self, deadline: Option<&'a ScanDeadline>) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Seed with `carry`: the fold of everything that precedes the
    /// input in traversal order, such as the earlier ranges of a longer
    /// input. It is folded into every output from the side it
    /// precedes, so consecutive ranges concatenate to the whole scan,
    /// and [`run`](Scan::run)'s second value becomes the carry-out
    /// that seeds the next range.
    pub fn carry(mut self, carry: S) -> Self {
        self.carry = Some(carry);
        self
    }
}

impl<'a, K, T> Scan<'a, K, T> {
    fn with(op: K) -> Self {
        Scan {
            op,
            mode: Mode::ExclusiveFwd,
            sched: None,
            deadline: None,
            heads: None,
            carry: None,
            elem: PhantomData,
        }
    }

    /// Restart at the heads of `segs` (§2.3); element 0 is always one.
    /// A head emits the identity in an exclusive scan and cuts off
    /// everything before it, the carry included.
    pub fn segments(self, segs: &'a Segments) -> Scan<'a, K, T, (T, bool)> {
        self.segmented(Some((segs.flags(), true)))
    }

    /// Restart where `heads` is set, as [`segments`](Self::segments)
    /// does, with one difference: these are the heads of one range of a
    /// longer input, so element 0 starts a segment only if flagged, and
    /// a backward scan never restarts at the range's last element (the
    /// head that would end its segment lies in the next range). `None`
    /// scans flat and passes the carry's flag through.
    pub fn heads(self, heads: Option<&'a [bool]>) -> Scan<'a, K, T, (T, bool)> {
        self.segmented(heads.map(|h| (h, false)))
    }

    fn segmented(self, heads: Option<(&'a [bool], bool)>) -> Scan<'a, K, T, (T, bool)> {
        Scan {
            op: self.op,
            mode: self.mode,
            sched: self.sched,
            deadline: self.deadline,
            heads,
            carry: self.carry.map(|c| (c, false)),
            elem: PhantomData,
        }
    }
}

/// The carry a [`Scan`] threads and totals in: `T` for a flat scan,
/// the §2.3 pair `(value, head seen)` once [`Scan::segments`] or
/// [`Scan::heads`] is set.
pub trait Carry<T>: Copy {
    /// What the `try_*` methods report: [`ExecError`] for a flat scan,
    /// which has no precondition, and [`Error`] for a segmented one,
    /// whose head flags must cover its input.
    type Error: From<ExecError>;

    /// Whether the scan can have head flags. A constant, so that a flat
    /// scan does not instantiate the segmented engine.
    const SEGMENTED: bool;

    /// As a pair; a flat carry has seen no head.
    fn into_pair(self) -> (T, bool);

    /// From a pair.
    fn from_pair(pair: (T, bool)) -> Self;

    /// `Err` unless `heads`, if any, covers exactly `n` values.
    fn check(heads: Option<&[bool]>, n: usize) -> core::result::Result<(), Self::Error>;
}

impl<T: Copy> Carry<T> for T {
    type Error = ExecError;
    const SEGMENTED: bool = false;

    fn into_pair(self) -> (T, bool) {
        (self, false)
    }

    fn from_pair(pair: (T, bool)) -> T {
        pair.0
    }

    /// A flat scan has no head flags to check.
    fn check(_: Option<&[bool]>, _: usize) -> core::result::Result<(), ExecError> {
        Ok(())
    }
}

impl<T: Copy> Carry<T> for (T, bool) {
    type Error = Error;
    const SEGMENTED: bool = true;

    fn into_pair(self) -> (T, bool) {
        self
    }

    fn from_pair(pair: (T, bool)) -> (T, bool) {
        pair
    }

    fn check(heads: Option<&[bool]>, n: usize) -> Result<()> {
        match heads {
            Some(h) if h.len() != n => Err(Error::LengthMismatch {
                expected: n,
                actual: h.len(),
            }),
            _ => Ok(()),
        }
    }
}

// The thin methods below are `#[inline(always)]`: as separate
// functions they slowed the flat scans by 5–28% at n ≤ 16383 in a
// paired small-n measurement against the per-form entry points they
// replace.
impl<'a, K: Operator<T>, T: Copy + Send + Sync, S: Carry<T>> Scan<'a, K, T, S> {
    /// The scan of `a`, and its total: the fold of `a` in traversal
    /// order with the carry (if any) folded in, which is the carry-out.
    /// A segmented total folds only the elements after the last
    /// restart, and its flag says whether a restart (or the carry's
    /// flag) was seen.
    ///
    /// # Panics
    /// If head flags do not cover exactly `a`.
    #[inline(always)]
    pub fn run(&self, a: &[T]) -> (Vec<T>, S) {
        self.assert_covers(a.len());
        let Ok((out, c)) = self.exec(a, NoDeadline);
        (out, S::from_pair(c))
    }

    /// Fallible [`run`](Self::run): head flags of the wrong length are
    /// [`Error::LengthMismatch`]; the deadline expiring or being
    /// cancelled, or an operator panicking, is an [`ExecError`].
    #[inline(always)]
    pub fn try_run(&self, a: &[T]) -> core::result::Result<(Vec<T>, S), S::Error> {
        S::check(self.heads.map(|h| h.0), a.len())?;
        let (out, c) = self.contained(|d| self.exec(a, d))?;
        Ok((out, S::from_pair(c)))
    }

    /// [`run`](Self::run)'s total alone, without writing an output.
    ///
    /// # Panics
    /// If head flags do not cover exactly `a`.
    #[inline(always)]
    pub fn total(&self, a: &[T]) -> S {
        self.assert_covers(a.len());
        let Ok(t) = self.exec_total(a, NoDeadline);
        S::from_pair(t)
    }

    /// Fallible [`total`](Self::total); see [`try_run`](Self::try_run).
    #[inline(always)]
    pub fn try_total(&self, a: &[T]) -> core::result::Result<S, S::Error> {
        S::check(self.heads.map(|h| h.0), a.len())?;
        let t = self.contained(|d| self.exec_total(a, d))?;
        Ok(S::from_pair(t))
    }

    #[inline(always)]
    fn assert_covers(&self, n: usize) {
        if let Some((h, _)) = self.heads {
            assert_eq!(n, h.len(), "segmented scan length mismatch");
        }
    }

    /// The scan of `a` under `budget`, in the pair state. Without head
    /// flags it is the flat scan, with the carry's flag passed through.
    #[inline(always)]
    fn exec<B: Budget>(&self, a: &[T], budget: B) -> PairScan<T, B::Err> {
        let carry = self.carry.map(S::into_pair);
        if S::SEGMENTED {
            if let Some((h, edge)) = self.heads {
                let (n, (carry, implied)) = (a.len(), cut(a.len(), edge, carry));
                let (out, (t, seen)) = if self.mode.backward() {
                    self.pairs(
                        n,
                        move |i| a[i],
                        move |i| i + 1 < n && h[i + 1],
                        carry,
                        budget,
                    )?
                } else {
                    self.pairs(n, move |i| a[i], move |i| h[i], carry, budget)?
                };
                return Ok((out, (t, seen || implied)));
            }
        }
        let (out, t) = self.flat(a.len(), move |i| a[i], carry.map(|c| c.0), budget)?;
        Ok((out, (t, carry.is_some_and(|c| c.1))))
    }

    /// [`Self::exec`]'s total alone.
    #[inline(always)]
    fn exec_total<B: Budget>(&self, a: &[T], budget: B) -> core::result::Result<(T, bool), B::Err> {
        let carry = self.carry.map(S::into_pair);
        if S::SEGMENTED {
            if let Some((h, edge)) = self.heads {
                let (n, (carry, implied)) = (a.len(), cut(a.len(), edge, carry));
                let (t, seen) = if self.mode.backward() {
                    self.pairs_total(
                        n,
                        move |i| a[i],
                        move |i| i + 1 < n && h[i + 1],
                        carry,
                        budget,
                    )?
                } else {
                    self.pairs_total(n, move |i| a[i], move |i| h[i], carry, budget)?
                };
                return Ok((t, seen || implied));
            }
        }
        let t = self.flat_total(a.len(), move |i| a[i], carry.map(|c| c.0), budget)?;
        Ok((t, carry.is_some_and(|c| c.1)))
    }

    #[inline(always)]
    fn sched(&self) -> Schedule {
        self.sched.unwrap_or_else(parallel::default_schedule)
    }

    /// Run `f` under the explicit deadline, else the ambient one, with
    /// its panics contained.
    pub(crate) fn contained<R>(
        &self,
        f: impl FnOnce(Option<&ScanDeadline>) -> core::result::Result<R, ExecError>,
    ) -> core::result::Result<R, ExecError> {
        let ambient = match self.deadline {
            Some(_) => None,
            None => deadline::current(),
        };
        let d = self.deadline.unwrap_or(ambient.as_ref());
        parallel::contain(|| f(d))
    }

    /// The engine call under every flat scan: `load(i)` for `i` in
    /// `0..n`, with `carry` folded into every state from the side it
    /// precedes. Associativity makes this equal to seeding the whole
    /// prefix, while the engine keeps its block decomposition.
    #[inline(always)]
    fn flat<B, L>(
        &self,
        n: usize,
        load: L,
        carry: Option<T>,
        budget: B,
    ) -> core::result::Result<(Vec<T>, T), B::Err>
    where
        B: Budget,
        L: Fn(usize) -> T + Sync,
    {
        let (op, sched, mode) = (&self.op, self.sched(), self.mode);
        let f = |x, y| op.combine(x, y);
        let id = op.identity();
        let Some(c) = carry else {
            return parallel::engine(sched, n, load, id, f, |_, s| s, mode, budget);
        };
        let emit = |_, s| f(c, s);
        let (out, total) = parallel::engine(sched, n, load, id, f, emit, mode, budget)?;
        Ok((out, f(c, total)))
    }

    /// [`Self::flat`]'s total alone.
    #[inline(always)]
    fn flat_total<B, L>(
        &self,
        n: usize,
        load: L,
        carry: Option<T>,
        budget: B,
    ) -> core::result::Result<T, B::Err>
    where
        B: Budget,
        L: Fn(usize) -> T + Sync,
    {
        let (op, sched, id) = (&self.op, self.sched(), self.op.identity());
        let f = |x, y| op.combine(x, y);
        let t = if self.mode.backward() {
            parallel::reduce_engine(sched, n, |i| load(n - 1 - i), id, f, budget)?
        } else {
            parallel::reduce_engine(sched, n, load, id, f, budget)?
        };
        Ok(carry.map_or(t, |c| f(c, t)))
    }

    /// The engine call under every segmented scan: the `n` pairs
    /// `(value(i), restart(i))` under the §2.3 pair operator, whose
    /// restarts cut off everything before them and emit the identity
    /// in an exclusive scan. `carry` folds in as in [`Self::flat`].
    #[inline(always)]
    pub(crate) fn pairs<B, V, R>(
        &self,
        n: usize,
        value: V,
        restart: R,
        carry: Option<(T, bool)>,
        budget: B,
    ) -> PairScan<T, B::Err>
    where
        B: Budget,
        V: Fn(usize) -> T + Sync + Copy,
        R: Fn(usize) -> bool + Sync + Copy,
    {
        let op = &self.op;
        match carry {
            None => self.pair_engine(n, value, restart, |s| s, budget),
            Some(c) => self.pair_engine(n, value, restart, move |s| pair(op, c, s), budget),
        }
    }

    /// [`Self::pairs`] with the carry fold `fold` applied to every
    /// emitted state and to the total.
    #[inline(always)]
    fn pair_engine<B, V, R, G>(
        &self,
        n: usize,
        value: V,
        restart: R,
        fold: G,
        budget: B,
    ) -> PairScan<T, B::Err>
    where
        B: Budget,
        V: Fn(usize) -> T + Sync + Copy,
        R: Fn(usize) -> bool + Sync + Copy,
        G: Fn((T, bool)) -> (T, bool) + Sync,
    {
        let (op, sched, mode, fold) = (&self.op, self.sched(), self.mode, &fold);
        let id = op.identity();
        let load = move |i| (value(i), restart(i));
        let f = |a, b| pair(op, a, b);
        let (out, total) = if mode.inclusive() {
            let emit = |_, s| fold(s).0;
            parallel::engine(sched, n, load, (id, false), f, emit, mode, budget)?
        } else {
            let emit = move |i, s| if restart(i) { id } else { fold(s).0 };
            parallel::engine(sched, n, load, (id, false), f, emit, mode, budget)?
        };
        Ok((out, fold(total)))
    }

    /// [`Self::pairs`]'s total alone.
    #[inline(always)]
    fn pairs_total<B, V, R>(
        &self,
        n: usize,
        value: V,
        restart: R,
        carry: Option<(T, bool)>,
        budget: B,
    ) -> core::result::Result<(T, bool), B::Err>
    where
        B: Budget,
        V: Fn(usize) -> T + Sync + Copy,
        R: Fn(usize) -> bool + Sync + Copy,
    {
        let (op, sched) = (&self.op, self.sched());
        let load = move |i| (value(i), restart(i));
        let f = |a, b| pair(op, a, b);
        let id = (op.identity(), false);
        let t = if self.mode.backward() {
            parallel::reduce_engine(sched, n, |i| load(n - 1 - i), id, f, budget)?
        } else {
            parallel::reduce_engine(sched, n, load, id, f, budget)?
        };
        Ok(carry.map_or(t, |c| f(c, t)))
    }
}

/// A scan's output and pair total, or its budget's error.
type PairScan<T, E> = core::result::Result<(Vec<T>, (T, bool)), E>;

/// The carry a segmented scan of `n` elements starts from once an
/// `edge` head at the start of its traversal has cut it off, and
/// whether one did. A forward scan restarts at each head, a backward
/// one at the element before each head.
fn cut<T>(n: usize, edge: bool, carry: Option<(T, bool)>) -> (Option<(T, bool)>, bool) {
    let implied = edge && n > 0;
    (if implied { None } else { carry }, implied)
}

/// The §2.3 pair operator over `op`, as [`crate::segmented::seg_combine`]
/// is over a [`ScanOp`].
#[inline(always)]
fn pair<K: Operator<T>, T: Copy>(op: &K, a: (T, bool), b: (T, bool)) -> (T, bool) {
    if b.1 {
        (b.0, true)
    } else {
        (op.combine(a.0, b.0), a.1)
    }
}

/// In-place exclusive forward scan (no allocation); sequential.
/// Useful inside per-processor loops of blocked algorithms.
pub fn scan_inplace<O: ScanOp<T>, T: ScanElem>(a: &mut [T]) {
    let mut acc = O::identity();
    for x in a.iter_mut() {
        let next = O::combine(acc, *x);
        *x = acc;
        acc = next;
    }
}

/// In-place inclusive forward scan (no allocation); sequential.
pub fn inclusive_scan_inplace<O: ScanOp<T>, T: ScanElem>(a: &mut [T]) {
    let mut acc = O::identity();
    for x in a.iter_mut() {
        acc = O::combine(acc, *x);
        *x = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{And, Max, Min, Or, Sum};

    #[test]
    fn paper_plus_scan_example() {
        // §2.1: A = [2 1 2 3 5 8 13 21]
        let a = [2u32, 1, 2, 3, 5, 8, 13, 21];
        assert_eq!(scan::<Sum, _>(&a), vec![0, 2, 3, 5, 8, 13, 21, 34]);
    }

    #[test]
    fn with_total() {
        let a = [1u32, 2, 3];
        let (s, t) = scan_with_total::<Sum, _>(&a);
        assert_eq!(s, vec![0, 1, 3]);
        assert_eq!(t, 6);
        let (s, t) = scan_with_total::<Sum, u32>(&[]);
        assert!(s.is_empty());
        assert_eq!(t, 0);
    }

    #[test]
    fn inclusive_forward() {
        let a = [1u32, 2, 3, 4];
        assert_eq!(inclusive_scan::<Sum, _>(&a), vec![1, 3, 6, 10]);
        assert_eq!(
            inclusive_scan::<Max, _>(&[2u32, 9, 4, 11]),
            vec![2, 9, 9, 11]
        );
    }

    #[test]
    fn backward_scans() {
        let a = [1u32, 2, 3, 4];
        assert_eq!(scan_backward::<Sum, _>(&a), vec![9, 7, 4, 0]);
        assert_eq!(inclusive_scan_backward::<Sum, _>(&a), vec![10, 9, 7, 4]);
        assert_eq!(scan_backward::<Max, _>(&[5u32, 1, 7, 2]), vec![7, 7, 2, 0]);
    }

    #[test]
    fn min_or_and() {
        let a = [5u32, 3, 8, 1];
        assert_eq!(scan::<Min, _>(&a), vec![u32::MAX, 5, 3, 3]);
        let b = [false, true, false, false];
        assert_eq!(scan::<Or, _>(&b), vec![false, false, true, true]);
        let c = [true, true, false, true];
        assert_eq!(scan::<And, _>(&c), vec![true, true, true, false]);
    }

    #[test]
    fn reduce_ops() {
        let a = [3u32, 1, 4, 1, 5];
        assert_eq!(reduce::<Sum, _>(&a), 14);
        assert_eq!(reduce::<Max, _>(&a), 5);
        assert_eq!(reduce::<Min, _>(&a), 1);
    }

    #[test]
    fn inplace_variants_match_allocating() {
        let a = [3u32, 1, 4, 1, 5, 9];
        let mut b = a;
        scan_inplace::<Sum, _>(&mut b);
        assert_eq!(b.to_vec(), scan::<Sum, _>(&a));
        let mut c = a;
        inclusive_scan_inplace::<Max, _>(&mut c);
        assert_eq!(c.to_vec(), inclusive_scan::<Max, _>(&a));
        let mut empty: [u32; 0] = [];
        scan_inplace::<Sum, _>(&mut empty);
    }

    #[test]
    fn try_variants_match_on_success_and_report_expiry() {
        use crate::deadline::{self, ScanDeadline};
        use crate::error::{Error, ExecError};
        let a: Vec<u64> = (0..(crate::parallel::PAR_THRESHOLD as u64 + 3)).collect();
        assert_eq!(
            Scan::op::<Sum, _>().try_run(&a).map(|r| r.0).unwrap(),
            scan::<Sum, _>(&a)
        );
        assert_eq!(
            Scan::op::<Sum, _>().try_run(&a).unwrap(),
            scan_with_total::<Sum, _>(&a)
        );
        assert_eq!(
            Scan::op::<Max, _>()
                .inclusive()
                .try_run(&a)
                .map(|r| r.0)
                .unwrap(),
            inclusive_scan::<Max, _>(&a)
        );
        assert_eq!(
            Scan::op::<Sum, _>()
                .backward()
                .try_run(&a)
                .map(|r| r.0)
                .unwrap(),
            scan_backward::<Sum, _>(&a)
        );
        assert_eq!(
            Scan::op::<Sum, _>()
                .backward()
                .inclusive()
                .try_run(&a)
                .map(|r| r.0)
                .unwrap(),
            inclusive_scan_backward::<Sum, _>(&a)
        );
        assert_eq!(
            Scan::op::<Sum, _>().try_total(&a).unwrap(),
            reduce::<Sum, _>(&a)
        );

        let d = ScanDeadline::at(std::time::Instant::now());
        let got = deadline::with_deadline(&d, || {
            Scan::op::<Sum, _>()
                .try_run(&a)
                .map(|r| r.0)
                .map_err(Error::from)
        });
        assert_eq!(got, Err(Error::Exec(ExecError::DeadlineExceeded)));
    }

    #[test]
    fn carried_ranges_concatenate_to_the_whole_scan() {
        // Affine maps x -> m·x + c, composed left to right: associative
        // with identity (1, 0) but not commutative, so this pins the
        // side each carry folds in from.
        let compose = |p: (u64, u64), q: (u64, u64)| {
            (
                q.0.wrapping_mul(p.0),
                q.0.wrapping_mul(p.1).wrapping_add(q.1),
            )
        };
        let a: Vec<(u64, u64)> = (1..=9).map(|i| (i + 1, i)).collect();
        for inclusive in [false, true] {
            for backward in [false, true] {
                let d = |s: Scan<'static, _, (u64, u64)>| {
                    let s = if inclusive { s.inclusive() } else { s };
                    if backward {
                        s.backward()
                    } else {
                        s
                    }
                };
                let (whole, total) = d(Scan::by((1, 0), compose)).run(&a);
                let (lo, hi) = a.split_at(4);
                let (first, second) = if backward { (hi, lo) } else { (lo, hi) };
                let (out1, c) = d(Scan::by((1, 0), compose)).run(first);
                let (out2, c) = d(Scan::by((1, 0), compose)).carry(c).run(second);
                let joined = if backward {
                    [out2, out1].concat()
                } else {
                    [out1, out2].concat()
                };
                assert_eq!(
                    (joined, c),
                    (whole, total),
                    "incl={inclusive} bwd={backward}"
                );
                assert_eq!(d(Scan::by((1, 0), compose)).total(&a), total);
            }
        }
    }

    #[test]
    fn segments_cut_the_carry_and_range_heads_do_not() {
        let a = [5u32, 1, 3, 4, 3, 9, 2, 6];
        let segs = Segments::from_lengths(&[2, 4, 2]);
        let d = Scan::op::<Sum, _>().carry(100).segments(&segs);
        assert_eq!(d.run(&a), (vec![0, 5, 0, 3, 7, 10, 0, 2], (8, true)));
        assert_eq!(d.total(&a), (8, true));
        let h = [false, false, true, false, false, false, true, false];
        let d = Scan::op::<Sum, _>().heads(Some(&h)).carry((100, false));
        assert_eq!(d.run(&a), (vec![100, 105, 0, 3, 7, 10, 0, 2], (8, true)));
        assert_eq!(
            d.backward().run(&a),
            (vec![1, 0, 16, 12, 9, 0, 106, 100], (6, true))
        );
        assert_eq!(d.backward().total(&a), (6, true));
        let short = [true];
        assert_eq!(
            Scan::op::<Sum, _>().heads(Some(&short)).try_run(&a),
            Err(Error::LengthMismatch {
                expected: 8,
                actual: 1
            })
        );
    }

    #[test]
    fn signed_and_float() {
        let a = [-3i64, 5, -7, 2];
        assert_eq!(scan::<Sum, _>(&a), vec![0, -3, 2, -5]);
        assert_eq!(scan::<Max, _>(&a), vec![i64::MIN, -3, 5, 5]);
        let f = [1.5f64, -2.0, 0.25];
        assert_eq!(inclusive_scan::<Sum, _>(&f), vec![1.5, -0.5, -0.25]);
        assert_eq!(scan::<Max, _>(&f)[0], f64::NEG_INFINITY);
    }
}
