//! Exclusive tree combine of per-shard totals.
//!
//! This is the paper's own balanced-tree exclusive scan (upsweep then
//! downsweep, §1), applied one level up: the per-shard totals from the
//! reduce round are combined into the carry each shard's scan round is
//! seeded with. The shard counts involved are tiny, but using the tree
//! keeps the combine associative-only — the same property the paper
//! demands of the operator — and gives it the usual O(log s) depth.
//!
//! The range kernels a shard job runs live here too: they are pure
//! scan vocabulary, shared by both sides of the channel boundary (the
//! executor runs them itself for its inline rescues), whereas `pool`
//! is the shard-private supervisor machinery the executor must only
//! reach via messages (`cargo xtask lint` R9).

use std::ops::Range;

use scan_core::parallel::Schedule;
use scan_core::{ExecError, Scan, ScanDeadline, ScanOp};

use crate::pool::{Output, Phase};

/// One job's work: `phase` of `data[range]` and its heads, through
/// scan-core's range kernels, sequentially on the calling thread.
pub(crate) fn compute<O: ScanOp<u64>>(
    data: &[u64],
    heads: Option<&[bool]>,
    range: Range<usize>,
    phase: Phase,
    deadline: Option<&ScanDeadline>,
) -> Result<Output, ExecError> {
    match phase {
        Phase::Reduce => range_total::<O>(data, heads, range, deadline).map(Output::Total),
        Phase::Scan { carry } => {
            range_scan::<O>(data, heads, range, carry, deadline).map(Output::Scanned)
        }
    }
}

/// The pair total of `data[range]` and its heads (a round-1 result):
/// scan-core's range reduce, sequential on the calling thread.
pub(crate) fn range_total<O: ScanOp<u64>>(
    data: &[u64],
    heads: Option<&[bool]>,
    range: Range<usize>,
    deadline: Option<&ScanDeadline>,
) -> Result<(u64, bool), ExecError> {
    let heads = heads.map(|h| &h[range.clone()]);
    Scan::op::<O, u64>()
        .schedule(Schedule::Sequential)
        .heads(heads)
        .deadline(deadline)
        .try_total(&data[range])
        .map_err(exec)
}

/// The exclusive scan of `data[range]` seeded with the pair `carry` (a
/// round-2 result): scan-core's range scan, sequential on the calling
/// thread.
pub(crate) fn range_scan<O: ScanOp<u64>>(
    data: &[u64],
    heads: Option<&[bool]>,
    range: Range<usize>,
    carry: (u64, bool),
    deadline: Option<&ScanDeadline>,
) -> Result<Vec<u64>, ExecError> {
    let heads = heads.map(|h| &h[range.clone()]);
    Scan::op::<O, u64>()
        .schedule(Schedule::Sequential)
        .heads(heads)
        .carry(carry)
        .deadline(deadline)
        .try_run(&data[range])
        .map(|(out, _)| out)
        .map_err(exec)
}

/// The execution failure inside a range kernel's error. The values
/// and heads are cut from the same range, so the kernels' length check
/// cannot fail; were it to, the executor recovers the range like a
/// lost worker.
fn exec(e: scan_core::Error) -> ExecError {
    match e {
        scan_core::Error::Exec(x) => x,
        _ => ExecError::WorkerLost { panics: 0 },
    }
}

/// Exclusive scan of `totals` under `comb` (associative, with
/// `identity`), via the balanced-tree upsweep/downsweep.
///
/// `out[i]` is the combination of `totals[..i]`, with `out[0] =
/// identity` — exactly the carry shard `i` must seed its local scan
/// with.
pub fn exclusive_combine<E, F>(totals: &[E], identity: E, comb: F) -> Vec<E>
where
    E: Copy,
    F: Fn(E, E) -> E,
{
    let n = totals.len();
    if n == 0 {
        return Vec::new();
    }
    let len = n.next_power_of_two();
    let mut tree: Vec<E> = Vec::with_capacity(len);
    tree.extend_from_slice(totals);
    tree.resize(len, identity);
    // Upsweep: internal nodes accumulate their left sibling.
    let mut d = 1;
    while d < len {
        let mut i = 2 * d - 1;
        while i < len {
            tree[i] = comb(tree[i - d], tree[i]);
            i += 2 * d;
        }
        d *= 2;
    }
    // Downsweep: clear the root, swap-and-combine on the way down.
    tree[len - 1] = identity;
    let mut d = len / 2;
    while d >= 1 {
        let mut i = 2 * d - 1;
        while i < len {
            // The parent's value is the prefix of everything before
            // this subtree; the left subtree's sum comes after it, so
            // the operands must combine in that order — `comb` is
            // associative but not necessarily commutative.
            let left = tree[i - d];
            tree[i - d] = tree[i];
            tree[i] = comb(tree[i], left);
            i += 2 * d;
        }
        d /= 2;
    }
    tree.truncate(n);
    tree
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference<E: Copy>(totals: &[E], identity: E, comb: impl Fn(E, E) -> E) -> Vec<E> {
        let mut out = Vec::with_capacity(totals.len());
        let mut acc = identity;
        for &t in totals {
            out.push(acc);
            acc = comb(acc, t);
        }
        out
    }

    #[test]
    fn matches_sequential_for_all_small_sizes() {
        for n in 0..=9usize {
            let totals: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
            assert_eq!(
                exclusive_combine(&totals, 0u64, |a, b| a.wrapping_add(b)),
                reference(&totals, 0u64, |a, b| a.wrapping_add(b)),
                "sum, n = {n}"
            );
            assert_eq!(
                exclusive_combine(&totals, 0u64, |a, b| a.max(b)),
                reference(&totals, 0u64, |a, b| a.max(b)),
                "max, n = {n}"
            );
        }
    }

    #[test]
    fn works_for_the_segmented_pair_operator() {
        // The pair operator used for segmented carries: the flag marks
        // "a segment head occurred", which resets the value.
        let comb = |a: (u64, bool), b: (u64, bool)| {
            if b.1 {
                b
            } else {
                (a.0.wrapping_add(b.0), a.1)
            }
        };
        let totals = [(5u64, false), (7, true), (2, false), (4, true), (1, false)];
        assert_eq!(
            exclusive_combine(&totals, (0, false), comb),
            reference(&totals, (0, false), comb)
        );
    }
}
