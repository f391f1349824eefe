//! k-d tree construction (Table 1: `O(lg n)` expected steps on the
//! scan model versus `O(lg² n)` on the P-RAMs).
//!
//! The construction is the quicksort pattern of §2.3.1 in two
//! dimensions: every tree level splits **all** nodes' point sets at
//! once with one segmented three-way split, alternating the axis by
//! depth. Each node splits at its segment's first point (the same
//! pivot rule as Figure 5), giving expected logarithmic depth.

use scan_core::ops::Bucket;
use scan_core::segmented::Segments;
use scan_pram::{Ctx, Model};

type Pt = (i64, i64);

/// One node of the k-d tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KdNode {
    /// Split axis: 0 = x, 1 = y.
    pub axis: u8,
    /// Split coordinate.
    pub coord: i64,
    /// Points stored at this node (the pivot and everything sharing its
    /// coordinate on the split axis).
    pub points: Vec<Pt>,
    /// Child with `axis`-coordinate `< coord`.
    pub left: Option<usize>,
    /// Child with `axis`-coordinate `> coord`.
    pub right: Option<usize>,
}

/// A 2-d tree built level-by-level with segmented splits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KdTree {
    /// Node arena; index 0 is the root (when nonempty).
    pub nodes: Vec<KdNode>,
}

impl KdTree {
    /// Build on a step-counting machine.
    pub fn build_ctx(ctx: &mut Ctx, points: &[Pt]) -> KdTree {
        let mut nodes: Vec<KdNode> = Vec::new();
        if points.is_empty() {
            return KdTree { nodes };
        }
        // Active elements: points still travelling down, with their
        // segment (= node) bookkeeping.
        let mut pts = points.to_vec();
        let mut segs = Segments::single(pts.len());
        // node id owning each active segment, aligned with segs.ranges().
        nodes.push(KdNode {
            axis: 0,
            coord: 0,
            points: Vec::new(),
            left: None,
            right: None,
        });
        let mut seg_nodes: Vec<usize> = vec![0];
        let mut depth = 0u32;
        while !pts.is_empty() {
            let n = pts.len();
            let axis = (depth % 2) as u8;
            // Pivot coordinate: the segment head's coordinate on `axis`.
            let coords = ctx.map(&pts, move |p| if axis == 0 { p.0 } else { p.1 });
            let pivot = ctx.seg_copy(&coords, &segs);
            let buckets: Vec<Bucket> = ctx.zip(&coords, &pivot, |c, p| {
                if c < p {
                    Bucket::Lo
                } else if c == p {
                    Bucket::Mid
                } else {
                    Bucket::Hi
                }
            });
            let split = ctx.seg_split3(&pts, &buckets, &segs);
            // Walk the refined segments: Mid groups settle into their
            // node; Lo/Hi groups become child nodes and stay active.
            let old_ranges = segs.ranges();
            let mut next_pts = Vec::with_capacity(n);
            let mut next_flags = Vec::with_capacity(n);
            let mut next_seg_nodes = Vec::new();
            for (k, &(start, end)) in old_ranges.iter().enumerate() {
                let node = seg_nodes[k];
                let pv = pivot[start];
                nodes[node].axis = axis;
                nodes[node].coord = pv;
                // The split moved the three groups into Lo/Mid/Hi order
                // inside [start, end); classify by comparing against the
                // pivot (equivalent to reading the refined flags).
                let lo: Vec<Pt> = split.values[start..end]
                    .iter()
                    .copied()
                    .filter(|p| (if axis == 0 { p.0 } else { p.1 }) < pv)
                    .collect();
                let mid: Vec<Pt> = split.values[start..end]
                    .iter()
                    .copied()
                    .filter(|p| (if axis == 0 { p.0 } else { p.1 }) == pv)
                    .collect();
                let hi: Vec<Pt> = split.values[start..end]
                    .iter()
                    .copied()
                    .filter(|p| (if axis == 0 { p.0 } else { p.1 }) > pv)
                    .collect();
                nodes[node].points = mid;
                if !lo.is_empty() {
                    let child = nodes.len();
                    nodes.push(KdNode {
                        axis: 0,
                        coord: 0,
                        points: Vec::new(),
                        left: None,
                        right: None,
                    });
                    nodes[node].left = Some(child);
                    next_flags.push(true);
                    next_flags.extend(std::iter::repeat_n(false, lo.len() - 1));
                    next_pts.extend(lo);
                    next_seg_nodes.push(child);
                }
                if !hi.is_empty() {
                    let child = nodes.len();
                    nodes.push(KdNode {
                        axis: 0,
                        coord: 0,
                        points: Vec::new(),
                        left: None,
                        right: None,
                    });
                    nodes[node].right = Some(child);
                    next_flags.push(true);
                    next_flags.extend(std::iter::repeat_n(false, hi.len() - 1));
                    next_pts.extend(hi);
                    next_seg_nodes.push(child);
                }
            }
            ctx.charge_permute_op(n); // the regrouping pass above
            pts = next_pts;
            segs = Segments::from_flags(next_flags);
            seg_nodes = next_seg_nodes;
            depth += 1;
            assert!(
                depth < 64 + points.len() as u32,
                "k-d build failed to converge"
            );
        }
        KdTree { nodes }
    }

    /// Build with the default scan-model machine.
    pub fn build(points: &[Pt]) -> KdTree {
        let mut ctx = Ctx::new(Model::Scan);
        Self::build_ctx(&mut ctx, points)
    }

    /// Number of points stored in the tree.
    pub fn len(&self) -> usize {
        self.nodes.iter().map(|n| n.points.len()).sum()
    }

    /// True when the tree holds no points.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Nearest neighbor by squared Euclidean distance (standard pruned
    /// descent). Returns `None` on an empty tree.
    pub fn nearest(&self, q: Pt) -> Option<(Pt, i64)> {
        if self.nodes.is_empty() {
            return None;
        }
        let mut best: Option<(Pt, i64)> = None;
        self.nearest_rec(0, q, &mut best);
        best
    }

    fn nearest_rec(&self, node: usize, q: Pt, best: &mut Option<(Pt, i64)>) {
        let n = &self.nodes[node];
        for &p in &n.points {
            let d = (p.0 - q.0).pow(2) + (p.1 - q.1).pow(2);
            if best.is_none_or(|(_, bd)| d < bd) {
                *best = Some((p, d));
            }
        }
        let qc = if n.axis == 0 { q.0 } else { q.1 };
        let (near, far) = if qc < n.coord {
            (n.left, n.right)
        } else {
            (n.right, n.left)
        };
        if let Some(c) = near {
            self.nearest_rec(c, q, best);
        }
        let plane_d = (qc - n.coord).pow(2);
        if let Some(c) = far {
            if best.is_none_or(|(_, bd)| plane_d < bd) {
                self.nearest_rec(c, q, best);
            }
        }
    }

    /// All points inside the axis-aligned rectangle
    /// `[x_lo, x_hi] × [y_lo, y_hi]` (inclusive), by pruned descent.
    pub fn range_query(&self, x_range: (i64, i64), y_range: (i64, i64)) -> Vec<Pt> {
        let mut out = Vec::new();
        if !self.nodes.is_empty() {
            self.range_rec(0, x_range, y_range, &mut out);
        }
        out
    }

    fn range_rec(&self, node: usize, xr: (i64, i64), yr: (i64, i64), out: &mut Vec<Pt>) {
        let n = &self.nodes[node];
        for &p in &n.points {
            if p.0 >= xr.0 && p.0 <= xr.1 && p.1 >= yr.0 && p.1 <= yr.1 {
                out.push(p);
            }
        }
        let (lo, hi) = if n.axis == 0 { xr } else { yr };
        if let Some(l) = n.left {
            if lo < n.coord {
                self.range_rec(l, xr, yr, out);
            }
        }
        if let Some(r) = n.right {
            if hi > n.coord {
                self.range_rec(r, xr, yr, out);
            }
        }
    }

    /// Verify the k-d invariant on every node; for tests.
    pub fn validate(&self) {
        for n in &self.nodes {
            for &p in &n.points {
                let c = if n.axis == 0 { p.0 } else { p.1 };
                assert_eq!(c, n.coord, "node points must sit on the split plane");
            }
            if let Some(l) = n.left {
                self.assert_subtree(l, n.axis, n.coord, true);
            }
            if let Some(r) = n.right {
                self.assert_subtree(r, n.axis, n.coord, false);
            }
        }
    }

    fn assert_subtree(&self, node: usize, axis: u8, coord: i64, is_left: bool) {
        let n = &self.nodes[node];
        for &p in &n.points {
            let c = if axis == 0 { p.0 } else { p.1 };
            if is_left {
                assert!(c < coord, "left subtree point violates the split");
            } else {
                assert!(c > coord, "right subtree point violates the split");
            }
        }
        if let Some(l) = n.left {
            self.assert_subtree(l, axis, coord, is_left);
        }
        if let Some(r) = n.right {
            self.assert_subtree(r, axis, coord, is_left);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_nearest(points: &[Pt], q: Pt) -> i64 {
        points
            .iter()
            .map(|&p| (p.0 - q.0).pow(2) + (p.1 - q.1).pow(2))
            .min()
            .expect("nonempty")
    }

    #[test]
    fn build_and_validate_small() {
        let points = [(3, 1), (1, 4), (5, 2), (2, 2), (4, 5), (0, 0)];
        let t = KdTree::build(&points);
        t.validate();
        assert_eq!(t.len(), points.len());
    }

    #[test]
    fn nearest_matches_brute_force() {
        let mut x = 21u64;
        let mut rng = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(9);
            (x >> 40) as i64 % 100 - 50
        };
        let points: Vec<Pt> = (0..300).map(|_| (rng(), rng())).collect();
        let t = KdTree::build(&points);
        t.validate();
        for _ in 0..100 {
            let q = (rng(), rng());
            let (_, d) = t.nearest(q).expect("nonempty tree");
            assert_eq!(d, brute_nearest(&points, q), "query {q:?}");
        }
    }

    #[test]
    fn duplicate_points() {
        let points = vec![(2, 2); 10];
        let t = KdTree::build(&points);
        t.validate();
        assert_eq!(t.len(), 10);
        assert_eq!(t.nearest((0, 0)), Some(((2, 2), 8)));
    }

    #[test]
    fn empty_and_single() {
        let t = KdTree::build(&[]);
        assert!(t.is_empty());
        assert_eq!(t.nearest((0, 0)), None);
        let t = KdTree::build(&[(7, -3)]);
        assert_eq!(t.nearest((7, -3)), Some(((7, -3), 0)));
    }

    #[test]
    fn expected_logarithmic_depth_on_random_input() {
        let mut x = 5u64;
        let mut rng = move || {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            (x >> 35) as i64 % 100000
        };
        let points: Vec<Pt> = (0..2048).map(|_| (rng(), rng())).collect();
        let mut ctx = Ctx::new(Model::Scan);
        let t = KdTree::build_ctx(&mut ctx, &points);
        t.validate();
        // Depth ≈ number of build levels; node count bounds it loosely.
        // With random data the arena stays near 2n and ops stay near
        // the level count (≈ lg n), far below n.
        assert!(ctx.stats().ops() < 40 * 11, "ops = {}", ctx.stats().ops());
    }

    #[test]
    fn range_query_matches_filter() {
        let mut x = 3u64;
        let mut rng = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(5);
            (x >> 40) as i64 % 200 - 100
        };
        let points: Vec<Pt> = (0..400).map(|_| (rng(), rng())).collect();
        let t = KdTree::build(&points);
        for _ in 0..20 {
            let (x0, x1) = {
                let a = rng();
                let b = rng();
                (a.min(b), a.max(b))
            };
            let (y0, y1) = {
                let a = rng();
                let b = rng();
                (a.min(b), a.max(b))
            };
            let mut got = t.range_query((x0, x1), (y0, y1));
            let mut expect: Vec<Pt> = points
                .iter()
                .copied()
                .filter(|p| p.0 >= x0 && p.0 <= x1 && p.1 >= y0 && p.1 <= y1)
                .collect();
            got.sort_unstable();
            expect.sort_unstable();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn range_query_empty_tree_and_empty_window() {
        let t = KdTree::build(&[]);
        assert!(t.range_query((-5, 5), (-5, 5)).is_empty());
        let t = KdTree::build(&[(0, 0), (10, 10)]);
        assert!(t.range_query((1, 2), (1, 2)).is_empty());
        assert_eq!(t.range_query((0, 10), (0, 10)).len(), 2);
    }

    #[test]
    fn collinear_inputs() {
        let points: Vec<Pt> = (0..50).map(|i| (i, 0)).collect();
        let t = KdTree::build(&points);
        t.validate();
        assert_eq!(t.len(), 50);
        assert_eq!(t.nearest((25, 10)), Some(((25, 0), 100)));
    }
}
