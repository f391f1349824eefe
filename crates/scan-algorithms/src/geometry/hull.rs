//! Convex hull by segmented quickhull (Table 1: probabilistic/expected
//! `O(lg n)` steps on the scan model).
//!
//! The same divide-and-conquer-in-segments technique as the quicksort
//! (§2.3.1): every open hull edge keeps its outside points in one
//! segment; each round, every segment finds its farthest point with a
//! segmented max-distribute (a hull vertex), splits its points between
//! the two new edges, and drops the points that fell inside — all
//! segments in parallel, a constant number of program steps per round.

use scan_core::op::{Max, Min};
use scan_core::ops::Bucket;
use scan_core::segmented::Segments;
use scan_pram::{Ctx, Model};

/// Coordinate bound: cross products and packed composites must fit
/// their fields.
pub const MAX_COORD: i64 = 1 << 20;

type Pt = (i64, i64);

#[inline]
fn cross(o: Pt, a: Pt, b: Pt) -> i64 {
    (a.0 - o.0) * (b.1 - o.1) - (a.1 - o.1) * (b.0 - o.0)
}

/// Encode a point into 42 bits (21 per biased coordinate).
#[inline]
fn enc(p: Pt) -> u64 {
    (((p.0 + MAX_COORD) as u64) << 21) | ((p.1 + MAX_COORD) as u64)
}

#[inline]
fn dec(e: u64) -> Pt {
    (
        ((e >> 21) & ((1 << 21) - 1)) as i64 - MAX_COORD,
        (e & ((1 << 21) - 1)) as i64 - MAX_COORD,
    )
}

/// Convex hull of a point set, counter-clockwise, strict vertices only
/// (no collinear interior points of edges). Duplicates are tolerated.
///
/// # Panics
/// If a coordinate's magnitude reaches [`MAX_COORD`].
pub fn convex_hull_ctx(ctx: &mut Ctx, points: &[Pt]) -> Vec<Pt> {
    assert!(
        points
            .iter()
            .all(|&(x, y)| x.abs() < MAX_COORD && y.abs() < MAX_COORD),
        "coordinates must satisfy |c| < 2^20"
    );
    if points.is_empty() {
        return Vec::new();
    }
    // Extreme points by the lexicographic (x, y) order, via min/max
    // reduce on the packed encoding.
    let encoded = ctx.map(points, enc);
    let l = dec(ctx.reduce::<Min, _>(&encoded));
    let r = dec(ctx.reduce::<Max, _>(&encoded));
    if l == r {
        return vec![l]; // all points identical
    }
    // Upper chain: strictly left of L→R; lower: strictly left of R→L.
    let side = ctx.map(points, |p| cross(l, r, p));
    let upper = {
        let keep = ctx.map(&side, |s| s > 0);
        ctx.pack(points, &keep)
    };
    let lower = {
        let keep = ctx.map(&side, |s| s < 0);
        ctx.pack(points, &keep)
    };
    let mut hull_set = vec![l, r];
    // One combined segmented state for both chains.
    let mut pts: Vec<Pt> = Vec::new();
    let mut chord_a: Vec<Pt> = Vec::new();
    let mut chord_b: Vec<Pt> = Vec::new();
    let mut flags: Vec<bool> = Vec::new();
    for (chain, (a, b)) in [(&upper, (l, r)), (&lower, (r, l))] {
        if !chain.is_empty() {
            flags.push(true);
            flags.extend(std::iter::repeat_n(false, chain.len() - 1));
            pts.extend_from_slice(chain);
            chord_a.extend(std::iter::repeat_n(a, chain.len()));
            chord_b.extend(std::iter::repeat_n(b, chain.len()));
        }
    }
    let mut segs = Segments::from_flags(flags);
    let mut rounds = 0usize;
    while !pts.is_empty() {
        rounds += 1;
        assert!(rounds <= pts.len() + 64, "quickhull failed to converge");
        let n = pts.len();
        // Farthest point from each segment's chord, packed with the
        // point so one max-distribute delivers it everywhere (EREW).
        let dist: Vec<u128> = (0..n)
            .map(|i| {
                let d = cross(chord_a[i], chord_b[i], pts[i]);
                debug_assert!(d > 0, "invariant: points lie strictly outside the chord");
                ((d as u128) << 64) | enc(pts[i]) as u128
            })
            .collect();
        ctx.charge_elementwise_op(n);
        let far = ctx.seg_distribute::<Max, _>(&dist, &segs);
        let f: Vec<Pt> = ctx.map(&far, |c| dec((c & u64::MAX as u128) as u64));
        // Each segment's f is a hull vertex (one per segment head).
        for (start, _) in segs.ranges() {
            hull_set.push(f[start]);
        }
        ctx.charge_permute_op(segs.count());
        // Split: left of (a, f) continues with chord (a, f); left of
        // (f, b) with (f, b); the rest (inside the triangle, or f
        // itself) is dropped.
        let buckets: Vec<Bucket> = (0..n)
            .map(|i| {
                if cross(chord_a[i], f[i], pts[i]) > 0 {
                    Bucket::Lo
                } else if cross(f[i], chord_b[i], pts[i]) > 0 {
                    Bucket::Mid
                } else {
                    Bucket::Hi
                }
            })
            .collect();
        ctx.charge_elementwise_op(n);
        let keep_bucket: Vec<bool> = buckets.iter().map(|&b| b != Bucket::Hi).collect();
        let new_chord_a: Vec<Pt> = (0..n)
            .map(|i| {
                if buckets[i] == Bucket::Lo {
                    chord_a[i]
                } else {
                    f[i]
                }
            })
            .collect();
        let new_chord_b: Vec<Pt> = (0..n)
            .map(|i| {
                if buckets[i] == Bucket::Lo {
                    f[i]
                } else {
                    chord_b[i]
                }
            })
            .collect();
        ctx.charge_elementwise_op(n);
        ctx.charge_elementwise_op(n);
        let split = ctx.seg_split3(&pts, &buckets, &segs);
        let moved_a = ctx.permute_unchecked(&new_chord_a, &split.index);
        let moved_b = ctx.permute_unchecked(&new_chord_b, &split.index);
        let moved_keep = ctx.permute_unchecked(&keep_bucket, &split.index);
        // Pack away the dropped group of every segment. Segment ids
        // survive packing in order, so heads are where the id changes.
        let seg_ids = split.segments.segment_ids();
        let kept_ids = ctx.pack(&seg_ids, &moved_keep);
        pts = ctx.pack(&split.values, &moved_keep);
        chord_a = ctx.pack(&moved_a, &moved_keep);
        chord_b = ctx.pack(&moved_b, &moved_keep);
        let head_flags: Vec<bool> = (0..pts.len())
            .map(|i| i == 0 || kept_ids[i] != kept_ids[i - 1])
            .collect();
        ctx.charge_elementwise_op(pts.len());
        segs = Segments::from_flags(head_flags);
    }
    order_ccw(hull_set)
}

/// Order the (strictly convex) hull vertex set counter-clockwise,
/// starting from the lexicographically smallest vertex.
fn order_ccw(mut vs: Vec<Pt>) -> Vec<Pt> {
    vs.sort_unstable();
    vs.dedup();
    if vs.len() <= 2 {
        return vs;
    }
    let c = (
        vs.iter().map(|p| p.0 as f64).sum::<f64>() / vs.len() as f64,
        vs.iter().map(|p| p.1 as f64).sum::<f64>() / vs.len() as f64,
    );
    let start = vs[0];
    let mut rest: Vec<Pt> = vs;
    rest.sort_by(|&p, &q| {
        let ap = ((p.1 as f64) - c.1).atan2((p.0 as f64) - c.0);
        let aq = ((q.1 as f64) - c.1).atan2((q.0 as f64) - c.0);
        ap.total_cmp(&aq)
    });
    let k = rest
        .iter()
        .position(|&p| p == start)
        .unwrap_or_else(|| panic!("start present"));
    rest.rotate_left(k);
    rest
}

/// Convex hull with the default scan-model machine.
pub fn convex_hull(points: &[Pt]) -> Vec<Pt> {
    let mut ctx = Ctx::new(Model::Scan);
    convex_hull_ctx(&mut ctx, points)
}

/// Andrew's monotone chain, strict vertices, CCW from the
/// lexicographic minimum — the verification reference.
pub fn convex_hull_reference(points: &[Pt]) -> Vec<Pt> {
    let mut ps = points.to_vec();
    ps.sort_unstable();
    ps.dedup();
    if ps.len() <= 2 {
        return ps;
    }
    let build = |iter: &mut dyn Iterator<Item = Pt>| {
        let mut chain: Vec<Pt> = Vec::new();
        for p in iter {
            while chain.len() >= 2 && cross(chain[chain.len() - 2], chain[chain.len() - 1], p) <= 0
            {
                chain.pop();
            }
            chain.push(p);
        }
        chain
    };
    let lower = build(&mut ps.iter().copied());
    let upper = build(&mut ps.iter().rev().copied());
    let mut hull = lower;
    hull.pop();
    hull.extend(upper);
    hull.pop();
    hull
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(points: &[Pt]) {
        assert_eq!(
            convex_hull(points),
            convex_hull_reference(points),
            "points={points:?}"
        );
    }

    #[test]
    fn square_with_interior_points() {
        check(&[(0, 0), (4, 0), (4, 4), (0, 4), (2, 2), (1, 3), (3, 1)]);
    }

    #[test]
    fn triangle() {
        check(&[(0, 0), (5, 0), (2, 7)]);
    }

    #[test]
    fn collinear_points() {
        check(&[(0, 0), (1, 1), (2, 2), (3, 3)]);
        check(&[(0, 5), (0, 1), (0, 9)]);
    }

    #[test]
    fn duplicates_and_degenerate() {
        check(&[(3, 3), (3, 3), (3, 3)]);
        check(&[(1, 2)]);
        check(&[(1, 2), (4, 5)]);
        check(&[]);
    }

    #[test]
    fn collinear_edge_points_excluded() {
        // (2,0) lies on the hull edge (0,0)-(4,0): strict hulls skip it.
        check(&[(0, 0), (2, 0), (4, 0), (2, 5)]);
    }

    #[test]
    fn random_point_clouds() {
        let mut x = 12u64;
        let mut rng = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 40) as i64 % 200 - 100
        };
        for _ in 0..15 {
            let n = 3 + (rng().unsigned_abs() as usize % 150);
            let points: Vec<Pt> = (0..n).map(|_| (rng(), rng())).collect();
            check(&points);
        }
    }

    #[test]
    fn circle_points_all_on_hull() {
        let points: Vec<Pt> = (0..40)
            .map(|k| {
                let a = k as f64 * std::f64::consts::TAU / 40.0;
                ((1000.0 * a.cos()) as i64, (1000.0 * a.sin()) as i64)
            })
            .collect();
        let hull = convex_hull(&points);
        assert_eq!(hull, convex_hull_reference(&points));
        assert!(hull.len() >= 38, "almost all circle points are vertices");
    }

    #[test]
    #[should_panic(expected = "coordinates")]
    fn oversized_coordinates_rejected() {
        convex_hull(&[(MAX_COORD, 0), (0, 0), (1, 5)]);
    }
}
