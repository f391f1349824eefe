//! Assembly and verification of a sharded scan's output, in one
//! parallel pass.
//!
//! After its one round the executor holds, per range, a piece claimed
//! to be the range's exclusive scan from the identity. Any piece may be
//! a lie. [`assemble`] applies each range's carry while it checks every
//! element of every piece:
//!
//! 1. **Claimed carries** — each range's claimed total is read off its
//!    piece: `piece[last] ⊕ x[last]`, or `x[last]` when `last` is a
//!    head, flagged when the range holds a head. The exclusive tree
//!    combine ([`crate::combine`]) turns the claimed totals into claimed
//!    carries.
//! 2. **Fused pass** — one task per range on scan-core's global pool.
//!    In one loop over its range, a task writes `carry ⊕ piece[i]` into
//!    the range's own slice of a fresh output (the piece alone from the
//!    range's first head on), checks `piece[0] = id` and the local
//!    recurrence `piece[i] = head[i] ? id : piece[i-1] ⊕ x[i-1]` at
//!    every later element, and folds the range's true pair total.
//! 3. **Repair pass** — k steps in range order: the true carries are
//!    the exclusive fold of the true totals. A range whose piece failed
//!    is recomputed from its true carry with the rescue kernel; a range
//!    whose piece passed under a wrong claimed carry (an upstream lie)
//!    gets its true carry applied again.
//!
//! The check is complete, by the induction of `scan_fault::verify`: a
//! piece that starts at the identity and holds the recurrence at every
//! later element is the true local scan element by element, so its
//! claimed total is the true total; and the true local scan passes. So
//! a range is flagged exactly when its piece differs from the true
//! local scan, and the output is always the true scan. Nothing is
//! sampled: every element is checked on every run.

use std::ops::Range;
use std::sync::{Mutex, PoisonError};

use scan_core::parallel::advise_huge_pages;
use scan_core::segmented::seg_combine;
use scan_core::{ExecError, ScanOp};

use crate::combine::{exclusive_combine, range_scan};

/// Build the exclusive scan of `data` (restarting at `heads`) from the
/// per-range `pieces`, each claimed to be its range's exclusive scan
/// from the identity, and check every one of them against the input.
/// Every `pieces[s]` has `ranges[s]`'s length, and the ranges are
/// non-empty and tile `0..data.len()` in order.
///
/// The output is always the true scan; the flags say, per range,
/// whether its piece was wrong (and so was recomputed inline).
pub(crate) fn assemble<O: ScanOp<u64>>(
    data: &[u64],
    heads: Option<&[bool]>,
    ranges: &[Range<usize>],
    pieces: Vec<Vec<u64>>,
) -> Result<(Vec<u64>, Vec<bool>), ExecError> {
    let identity = (O::identity(), false);
    let head = |i: usize| heads.is_some_and(|h| h[i]);
    // Each range's claimed total, read off its piece. A lying piece
    // makes the claimed carries of later ranges wrong too; the repair
    // pass below mends those from the true carries.
    let totals: Vec<(u64, bool)> = ranges
        .iter()
        .zip(&pieces)
        .map(|(r, piece)| {
            let last = r.end - 1;
            let value = if head(last) {
                data[last]
            } else {
                O::combine(piece[last - r.start], data[last])
            };
            (value, heads.is_some_and(|h| h[r.clone()].contains(&true)))
        })
        .collect();
    let carries = exclusive_combine(&totals, identity, seg_combine::<O, u64>);
    // Zeroed, not written: each task faults in its own slice's pages,
    // whole 2 MiB pages where the advice took.
    let mut out = vec![0; data.len()];
    advise_huge_pages(&mut out);
    // Per range: its own slice of the output, then whether its piece
    // held the check, and its true pair total.
    let mut lanes = Vec::with_capacity(ranges.len());
    let mut rest = out.as_mut_slice();
    for r in ranges {
        let (slice, tail) = rest.split_at_mut(r.len());
        lanes.push(Mutex::new((slice, true, identity)));
        rest = tail;
    }
    // A task that panics makes `run` re-raise on this thread, so a
    // poisoned lane is never read back below.
    scan_core::pool::global().run(ranges.len(), |slot| {
        let mut lane = lanes[slot].lock().unwrap_or_else(PoisonError::into_inner);
        let r = ranges[slot].clone();
        let (piece, x, carry) = (&pieces[slot], &data[r.clone()], carries[slot].0);
        (lane.1, lane.2) = match heads {
            None => fused::<O>(lane.0, piece, x, carry, |_| false),
            Some(h) => {
                let h = &h[r];
                fused::<O>(lane.0, piece, x, carry, |i| h[i])
            }
        };
    });

    // The repair pass, on the true carries: the fold of the true
    // totals.
    let mut carry = identity;
    let mut lied = Vec::with_capacity(ranges.len());
    for (((r, lane), piece), claimed) in ranges.iter().zip(lanes).zip(&pieces).zip(&carries) {
        let (slice, ok, total) = lane.into_inner().unwrap_or_else(PoisonError::into_inner);
        if !ok {
            slice.copy_from_slice(&range_scan::<O>(data, heads, r.clone(), carry, None)?);
        } else if claimed.0 != carry.0 {
            // A verified piece under a lie upstream: the true carry,
            // up to the range's first head.
            for (i, (dst, &p)) in r.clone().zip(slice.iter_mut().zip(piece)) {
                if head(i) {
                    break;
                }
                *dst = O::combine(carry.0, p);
            }
        }
        lied.push(!ok);
        carry = seg_combine::<O, u64>(carry, total);
    }
    Ok((out, lied))
}

/// One range of the fused pass: write `carry ⊕ piece[i]` into `dst`
/// (the piece alone from the range's first head on), check that the
/// piece starts at the identity and holds the recurrence at every later
/// element, and fold `x`'s pair total, in one loop over the non-empty
/// range. Returns whether the check held, and the total. Mismatches
/// accumulate as an OR of differences, so the check carries no branch.
fn fused<O: ScanOp<u64>>(
    dst: &mut [u64],
    piece: &[u64],
    x: &[u64],
    carry: u64,
    is_head: impl Fn(usize) -> bool,
) -> (bool, (u64, bool)) {
    let n = dst.len();
    let (piece, x) = (&piece[..n], &x[..n]);
    let apply = |seen: bool, p: u64| if seen { p } else { O::combine(carry, p) };
    let mut seen = is_head(0);
    let mut total = seg_combine::<O, u64>((O::identity(), false), (x[0], seen));
    let mut diff = piece[0] ^ O::identity();
    dst[0] = apply(seen, piece[0]);
    for i in 1..n {
        let head = is_head(i);
        seen |= head;
        let expect = if head {
            O::identity()
        } else {
            O::combine(piece[i - 1], x[i - 1])
        };
        diff |= piece[i] ^ expect;
        dst[i] = apply(seen, piece[i]);
        total = seg_combine::<O, u64>(total, (x[i], head));
    }
    (diff == 0, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::piece;
    use scan_core::{Max, Segments, Sum};

    const N: usize = 48;

    fn data() -> Vec<u64> {
        (0..N as u64).map(|i| (i * 131 + 17) % 509).collect()
    }

    /// Heads inside ranges, on the last element, and on the first
    /// element of some ranges of every 2-, 3- and 4-way split of `N`
    /// (12, 16 and 24 start ranges; 32 and 36 start ranges but are not
    /// heads).
    fn heads() -> Vec<bool> {
        (0..N)
            .map(|i| i % 7 == 3 || i == N / 4 || i == N / 3 || i == N - 1)
            .collect()
    }

    fn split(k: usize) -> Vec<Range<usize>> {
        (0..k).map(|s| s * N / k..(s + 1) * N / k).collect()
    }

    /// For k = 1–4 ranges, flip one bit of every element of every
    /// honest piece, then each of the 64 bits of every piece's last
    /// element, the one its claimed total is read from: the output is
    /// always scan-core's answer, and exactly the range whose piece
    /// was flipped is flagged — also when the flip reaches the carries
    /// of later ranges, whose verified pieces get the true carry
    /// applied again.
    fn sweep<O: ScanOp<u64>>(segmented: bool) {
        let x = data();
        let flags = heads();
        let heads = segmented.then_some(flags.as_slice());
        let want = if segmented {
            scan_core::seg_scan::<O, u64>(&x, &Segments::from_flags(flags.clone()))
        } else {
            scan_core::scan::<O, u64>(&x)
        };
        for k in 1..=4 {
            let ranges = split(k);
            let honest: Vec<Vec<u64>> = ranges
                .iter()
                .map(|r| piece::<O>(&x, heads, r.clone(), None).unwrap())
                .collect();
            let ctx = format!("{} k={k} segmented={segmented}", O::NAME);

            let (out, lied) = assemble::<O>(&x, heads, &ranges, honest.clone()).unwrap();
            assert_eq!(out, want, "{ctx}: honest");
            assert_eq!(lied, vec![false; k], "{ctx}: honest");

            for (slot, r) in ranges.iter().enumerate() {
                let last = r.len() - 1;
                let flips = (0..r.len())
                    .map(|pos| (pos, 1 << (pos % 64)))
                    .chain((0..64).map(|bit| (last, 1 << bit)));
                for (pos, flip) in flips {
                    let mut pieces = honest.clone();
                    pieces[slot][pos] ^= flip;
                    let (out, lied) = assemble::<O>(&x, heads, &ranges, pieces).unwrap();
                    let mut blame = vec![false; k];
                    blame[slot] = true;
                    let ctx = format!("{ctx}: piece {slot} element {pos} flip {flip:#x}");
                    assert_eq!(out, want, "{ctx}");
                    assert_eq!(lied, blame, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn every_flipped_bit_is_caught_and_attributed() {
        sweep::<Sum>(false);
        sweep::<Max>(false);
        sweep::<Sum>(true);
        sweep::<Max>(true);
    }
}
