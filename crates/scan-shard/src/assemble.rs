//! Assembly and verification of a sharded scan's output, in one
//! parallel pass.
//!
//! After round 2 the executor holds, per range, a claimed pair total
//! (round 1) and a piece claimed to be the range's exclusive scan
//! seeded with its carry (round 2). Any of them may be a lie.
//! [`assemble`] checks every one of them while it builds the output:
//!
//! 1. **Fused pass** — one task per range on scan-core's global pool.
//!    In one loop over its range, a task copies the piece into the
//!    range's own slice of a fresh output, checks the piece's local
//!    recurrence `out[i] = head[i] ? id : out[i-1] ⊕ x[i-1]` at every
//!    element after the first, and folds the range's true pair total.
//! 2. **Carry pass** — k steps in range order: the true carries are the
//!    exclusive fold of the true totals, each range's first element is
//!    checked against its true carry, and a failing range is recomputed
//!    from its true carry with the rescue kernel.
//!
//! The check is complete, by the induction of `scan_fault::verify`: a
//! piece whose first element matches its true carry and whose every
//! later element satisfies the recurrence equals the true scan element
//! by element, and the true scan passes both checks. So a range is
//! flagged exactly when its piece differs from the true scan. Nothing
//! is sampled: every element is checked on every run.

use std::ops::Range;
use std::sync::{Mutex, PoisonError};

use scan_core::parallel::advise_huge_pages;
use scan_core::segmented::seg_combine;
use scan_core::{ExecError, ScanOp};

use crate::combine::range_scan;

/// What the pass found for one range.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Verdict {
    /// The piece differed from the true scan and was recomputed inline.
    pub rescued: bool,
    /// The claimed total was wrong: a lie by the range's round-1
    /// producer.
    pub total_lied: bool,
    /// The piece was wrong under a correct carry: a lie by the range's
    /// round-2 producer. (Under a wrong carry the mismatch is the
    /// upstream liar's, blamed through its total.)
    pub piece_lied: bool,
}

/// Build the exclusive scan of `data` (restarting at `heads`) from the
/// per-range `pieces`, checking them and the claimed `totals` against
/// the input; `carries` are the carries the pieces were seeded with.
/// Every `pieces[s]` has `ranges[s]`'s length, and the ranges are
/// non-empty and tile `0..data.len()` in order.
///
/// The output is always the true scan; the verdicts say, per range,
/// what was wrong with what the shards claimed.
pub(crate) fn assemble<O: ScanOp<u64>>(
    data: &[u64],
    heads: Option<&[bool]>,
    ranges: &[Range<usize>],
    pieces: Vec<Vec<u64>>,
    totals: &[(u64, bool)],
    carries: &[(u64, bool)],
) -> Result<(Vec<u64>, Vec<Verdict>), ExecError> {
    let identity = (O::identity(), false);
    // Zeroed, not written: each task faults in its own slice's pages,
    // whole 2 MiB pages where the advice took.
    let mut out = vec![0; data.len()];
    advise_huge_pages(&mut out);
    // Per range: its own slice of the output, then whether its piece
    // held the recurrence, and its true pair total.
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
        let (piece, x) = (&pieces[slot], &data[r.clone()]);
        (lane.1, lane.2) = match heads {
            None => fused::<O>(lane.0, piece, x, |_| false),
            Some(h) => {
                let h = &h[r];
                fused::<O>(lane.0, piece, x, |i| h[i])
            }
        };
    });
    drop(pieces);

    let mut carry = identity;
    let mut verdicts = Vec::with_capacity(ranges.len());
    for ((slot, r), lane) in ranges.iter().enumerate().zip(lanes) {
        let (slice, ok, total) = lane.into_inner().unwrap_or_else(PoisonError::into_inner);
        let first = if heads.is_some_and(|h| h[r.start]) {
            O::identity()
        } else {
            carry.0
        };
        let rescued = !ok || slice[0] != first;
        if rescued {
            slice.copy_from_slice(&range_scan::<O>(data, heads, r.clone(), carry, None)?);
        }
        verdicts.push(Verdict {
            rescued,
            total_lied: totals[slot] != total,
            piece_lied: rescued && carries[slot] == carry,
        });
        carry = seg_combine::<O, u64>(carry, total);
    }
    Ok((out, verdicts))
}

/// One range of the fused pass: copy `piece` into `dst`, check the
/// recurrence at every element after the first, and fold `x`'s pair
/// total, in one loop over the non-empty range. Returns whether the
/// check held, and the total. Mismatches accumulate as an OR of
/// differences, so the loop carries no branch.
fn fused<O: ScanOp<u64>>(
    dst: &mut [u64],
    piece: &[u64],
    x: &[u64],
    is_head: impl Fn(usize) -> bool,
) -> (bool, (u64, bool)) {
    let n = dst.len();
    let (piece, x) = (&piece[..n], &x[..n]);
    let mut total = seg_combine::<O, u64>((O::identity(), false), (x[0], is_head(0)));
    dst[0] = piece[0];
    let mut diff = 0;
    for i in 1..n {
        let expect = if is_head(i) {
            O::identity()
        } else {
            O::combine(piece[i - 1], x[i - 1])
        };
        diff |= piece[i] ^ expect;
        dst[i] = piece[i];
        total = seg_combine::<O, u64>(total, (x[i], is_head(i)));
    }
    (diff == 0, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::{exclusive_combine, range_total};
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

    /// The pieces honest round-2 shards return under `totals`' carries.
    fn scan_round<O: ScanOp<u64>>(
        x: &[u64],
        heads: Option<&[bool]>,
        ranges: &[Range<usize>],
        totals: &[(u64, bool)],
    ) -> (Vec<(u64, bool)>, Vec<Vec<u64>>) {
        let carries = exclusive_combine(totals, (O::identity(), false), seg_combine::<O, u64>);
        let pieces = ranges
            .iter()
            .zip(&carries)
            .map(|(r, &c)| range_scan::<O>(x, heads, r.clone(), c, None).unwrap())
            .collect();
        (carries, pieces)
    }

    /// Flip one bit of every element of every piece, then one bit of
    /// every claimed total (each of its 64 value bits and its head
    /// flag), for k = 1–4 ranges: the output is always repaired to
    /// scan-core's answer, a range is flagged exactly when its piece
    /// differs from the true scan, a flipped element blames only its
    /// range's round-2 producer, and a flipped total only its range's
    /// round-1 producer.
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
            let totals: Vec<(u64, bool)> = ranges
                .iter()
                .map(|r| range_total::<O>(&x, heads, r.clone(), None).unwrap())
                .collect();
            let (carries, honest) = scan_round::<O>(&x, heads, &ranges, &totals);
            let ctx = format!("{} k={k} segmented={segmented}", O::NAME);

            let (out, verdicts) =
                assemble::<O>(&x, heads, &ranges, honest.clone(), &totals, &carries).unwrap();
            assert_eq!(out, want, "{ctx}: honest");
            assert_eq!(verdicts, vec![Verdict::default(); k], "{ctx}: honest");

            for (slot, r) in ranges.iter().enumerate() {
                for pos in 0..r.len() {
                    let mut pieces = honest.clone();
                    pieces[slot][pos] ^= 1 << (pos % 64);
                    let (out, verdicts) =
                        assemble::<O>(&x, heads, &ranges, pieces, &totals, &carries).unwrap();
                    let mut blame = vec![Verdict::default(); k];
                    blame[slot] = Verdict {
                        rescued: true,
                        total_lied: false,
                        piece_lied: true,
                    };
                    assert_eq!(out, want, "{ctx}: piece {slot} element {pos}");
                    assert_eq!(verdicts, blame, "{ctx}: piece {slot} element {pos}");
                }
            }

            for slot in 0..k {
                for bit in 0..=64 {
                    let mut claimed = totals.clone();
                    match bit {
                        64 => claimed[slot].1 ^= true,
                        b => claimed[slot].0 ^= 1 << b,
                    }
                    let (carries, pieces) = scan_round::<O>(&x, heads, &ranges, &claimed);
                    let poisoned: Vec<bool> =
                        pieces.iter().zip(&honest).map(|(p, h)| p != h).collect();
                    let (out, verdicts) =
                        assemble::<O>(&x, heads, &ranges, pieces, &claimed, &carries).unwrap();
                    let blame: Vec<Verdict> = (0..k)
                        .map(|s| Verdict {
                            rescued: poisoned[s],
                            total_lied: s == slot,
                            piece_lied: false,
                        })
                        .collect();
                    assert_eq!(out, want, "{ctx}: total {slot} bit {bit}");
                    assert_eq!(verdicts, blame, "{ctx}: total {slot} bit {bit}");
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
