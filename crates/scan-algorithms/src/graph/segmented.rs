//! The segmented graph representation (§2.3.2, Figure 6).
//!
//! "An undirected graph can be represented using a segment for each
//! vertex and an element position within a segment for each edge of the
//! vertex. Since each edge is incident on two vertices, it appears in
//! two segments. The actual values kept in the elements of the
//! segmented vector are pointers to the other end of the edge."
//!
//! Construction from an edge list follows the paper: create two
//! elements per edge and sort them by vertex number with the split
//! radix sort, which places all of a vertex's edges in one contiguous
//! segment.

use scan_core::element::ScanElem;
use scan_core::op::{ScanOp, Sum};
use scan_core::segmented::Segments;
use scan_pram::{Ctx, Model};

use crate::sort::radix::split_radix_sort_pairs_ctx;

/// An undirected graph in the segmented representation: one segment per
/// vertex, one slot per edge end ("half-edge"), cross pointers linking
/// the two ends of each edge.
///
/// Vertices may own zero slots (isolated, or emptied by contraction);
/// the ground truth is [`SegGraph::vertex_of_slot`], which is
/// nondecreasing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegGraph {
    /// Number of vertices (including slot-less ones).
    pub n_vertices: usize,
    /// Owning vertex of each slot, nondecreasing.
    pub vertex_of_slot: Vec<usize>,
    /// For each slot, the slot holding the other end of the same edge.
    /// An involution without fixed points.
    pub cross_pointers: Vec<usize>,
    /// Weight carried by each slot (both ends of an edge carry the same
    /// weight — Figure 6's weights vector).
    pub weights: Vec<u64>,
    /// Original edge index of each slot, for reporting results in terms
    /// of the input edge list.
    pub edge_ids: Vec<usize>,
}

impl SegGraph {
    /// Build the representation from an edge list, on a step-counting
    /// machine. Self-loops are rejected (a self-loop is internal to its
    /// vertex and would be deleted by the first contraction anyway).
    ///
    /// # Panics
    /// If an endpoint is out of range or an edge is a self-loop, or if
    /// `n_vertices`/edge count exceed `u32::MAX` (the construction
    /// rides endpoint and half-edge ids through 64-bit radix keys).
    pub fn from_edges_ctx(ctx: &mut Ctx, n_vertices: usize, edges: &[(usize, usize, u64)]) -> Self {
        assert!(n_vertices <= u32::MAX as usize, "too many vertices");
        assert!(edges.len() <= (u32::MAX / 2) as usize, "too many edges");
        for &(u, v, _) in edges {
            assert!(u < n_vertices && v < n_vertices, "endpoint out of range");
            assert_ne!(u, v, "self-loops are not representable");
        }
        let s = 2 * edges.len();
        // Two half-edges per edge: (endpoint, half-edge id).
        let endpoints: Vec<u64> = edges
            .iter()
            .flat_map(|&(u, v, _)| [u as u64, v as u64])
            .collect();
        let half_ids: Vec<u64> = (0..s as u64).collect();
        // Sort by endpoint with the split radix sort (§2.3.2: "The split
        // radix sort can be used since the vertex numbers are all
        // integers less than n").
        let bits = 64 - (n_vertices.max(2) as u64 - 1).leading_zeros();
        let (sorted_vertex, sorted_half) =
            split_radix_sort_pairs_ctx(ctx, &endpoints, &half_ids, bits);
        // Where did each half-edge land? (scatter of slot indices).
        let slots = ctx.iota(s);
        let half_usize: Vec<usize> = sorted_half.iter().map(|&h| h as usize).collect();
        let slot_of_half = scan_core::ops::permute(&slots, &half_usize);
        ctx.charge_permute_op(s);
        // Cross pointer: the slot of the *other* half of the same edge.
        let partner_half: Vec<usize> = sorted_half.iter().map(|&h| (h ^ 1) as usize).collect();
        let cross_pointers = ctx.gather(&slot_of_half, &partner_half);
        let weights = ctx.map(&sorted_half, |h| edges[(h / 2) as usize].2);
        let edge_ids: Vec<usize> = sorted_half.iter().map(|&h| (h / 2) as usize).collect();
        ctx.charge_elementwise_op(s);
        SegGraph {
            n_vertices,
            vertex_of_slot: sorted_vertex.iter().map(|&v| v as usize).collect(),
            cross_pointers,
            weights,
            edge_ids,
        }
    }

    /// Build with the default scan-model machine.
    pub fn from_edges(n_vertices: usize, edges: &[(usize, usize, u64)]) -> Self {
        let mut ctx = Ctx::new(Model::Scan);
        Self::from_edges_ctx(&mut ctx, n_vertices, edges)
    }

    /// Number of slots (twice the number of live edges).
    pub fn n_slots(&self) -> usize {
        self.vertex_of_slot.len()
    }

    /// The per-vertex segmentation of the slot vector (Figure 6's
    /// segment-descriptor). Slot-less vertices contribute no segment.
    pub fn segments(&self) -> Segments {
        let flags = (0..self.n_slots())
            .map(|i| i == 0 || self.vertex_of_slot[i] != self.vertex_of_slot[i - 1])
            .collect();
        Segments::from_flags(flags)
    }

    /// Check every structural invariant; for tests and debugging.
    pub fn validate(&self) {
        let s = self.n_slots();
        assert_eq!(self.cross_pointers.len(), s);
        assert_eq!(self.weights.len(), s);
        assert_eq!(self.edge_ids.len(), s);
        assert!(
            self.vertex_of_slot.windows(2).all(|w| w[0] <= w[1]),
            "vertex ids must be nondecreasing"
        );
        for (i, &c) in self.cross_pointers.iter().enumerate() {
            assert!(c < s, "cross pointer out of range");
            assert_ne!(c, i, "fixed-point cross pointer (self-loop)");
            assert_eq!(
                self.cross_pointers[c], i,
                "cross pointers must be an involution"
            );
            assert_eq!(
                self.weights[c], self.weights[i],
                "edge ends disagree on weight"
            );
            assert_eq!(
                self.edge_ids[c], self.edge_ids[i],
                "edge ends disagree on id"
            );
            assert_ne!(
                self.vertex_of_slot[c], self.vertex_of_slot[i],
                "edge internal to a vertex"
            );
        }
        if let Some(&v) = self.vertex_of_slot.last() {
            assert!(v < self.n_vertices);
        }
    }

    /// Distribute a per-vertex value to every slot of that vertex —
    /// EREW-style: scatter each value to its vertex's first slot, then
    /// a segmented copy. Charge: 1 permute + 1 segmented scan.
    pub fn vertex_to_slots<T: ScanElem>(&self, ctx: &mut Ctx, per_vertex: &[T]) -> Vec<T> {
        assert_eq!(
            per_vertex.len(),
            self.n_vertices,
            "per-vertex length mismatch"
        );
        let s = self.n_slots();
        if s == 0 {
            return Vec::new();
        }
        let segs = self.segments();
        let mut heads: Vec<T> = vec![per_vertex[0]; s];
        for i in 0..s {
            if segs.is_head(i) {
                heads[i] = per_vertex[self.vertex_of_slot[i]];
            }
        }
        ctx.charge_permute_op(s);
        ctx.seg_copy(&heads, &segs)
    }

    /// Reduce the slot values of each vertex to one value per vertex
    /// (slot-less vertices receive the identity). Charge: 1 segmented
    /// scan + 1 permute (scattering results to vertex ids).
    pub fn per_vertex_reduce<O: ScanOp<T>, T: ScanElem>(
        &self,
        ctx: &mut Ctx,
        slot_values: &[T],
    ) -> Vec<T> {
        assert_eq!(
            slot_values.len(),
            self.n_slots(),
            "per-slot length mismatch"
        );
        let mut out = vec![O::identity(); self.n_vertices];
        if self.n_slots() == 0 {
            return out;
        }
        let segs = self.segments();
        ctx.charge_seg_scan_op(self.n_slots());
        ctx.charge_permute_op(self.n_slots());
        let reduced = scan_core::segops::seg_reduce::<O, T>(slot_values, &segs);
        for (&(start, _), r) in segs.ranges().iter().zip(reduced) {
            out[self.vertex_of_slot[start]] = r;
        }
        out
    }

    /// The value at the other end of each slot's edge. Charge: 1
    /// permute (the cross pointers are a permutation).
    pub fn across_edges<T: ScanElem>(&self, ctx: &mut Ctx, slot_values: &[T]) -> Vec<T> {
        ctx.gather(slot_values, &self.cross_pointers)
    }

    /// §2.3.2's headline operation: every vertex combines a value from
    /// all its neighbors in a constant number of steps — distribute over
    /// the edges, swap ends, reduce back.
    pub fn neighbor_reduce<O: ScanOp<T>, T: ScanElem>(
        &self,
        ctx: &mut Ctx,
        per_vertex: &[T],
    ) -> Vec<T> {
        let over_edges = self.vertex_to_slots(ctx, per_vertex);
        let from_neighbors = self.across_edges(ctx, &over_edges);
        self.per_vertex_reduce::<O, T>(ctx, &from_neighbors)
    }

    /// Drop the slots whose `keep` flag is false, packing the survivors
    /// and rewiring cross pointers. A kept slot whose partner is
    /// dropped is dropped too (an edge needs both ends).
    /// Charge: ~2 scans + 3 permutes + elementwise.
    pub fn delete_slots(&self, ctx: &mut Ctx, keep: &[bool]) -> SegGraph {
        assert_eq!(keep.len(), self.n_slots(), "keep length mismatch");
        let partner_keep = self.across_edges(ctx, keep);
        let both = ctx.zip(keep, &partner_keep, |a, b| a & b);
        let ones = ctx.map(&both, usize::from);
        let (dest, _total) = ctx.scan_with_total::<Sum, _>(&ones);
        let new_cross_old: Vec<usize> = ctx.gather(&dest, &self.cross_pointers);
        SegGraph {
            n_vertices: self.n_vertices,
            vertex_of_slot: ctx.pack(&self.vertex_of_slot, &both),
            cross_pointers: ctx.pack(&new_cross_old, &both),
            weights: ctx.pack(&self.weights, &both),
            edge_ids: ctx.pack(&self.edge_ids, &both),
        }
    }

    /// Figure 6's example graph (5 vertices, 6 weighted edges), for
    /// tests and documentation. Weights `w1..w6` are encoded `1..6`.
    pub fn figure6() -> SegGraph {
        // Edges: w1:(v1,v2) w2:(v2,v3) w3:(v2,v5) w4:(v3,v4) w5:(v3,v5)
        // w6:(v4,v5), vertices renumbered 0-based.
        SegGraph::from_edges(
            5,
            &[
                (0, 1, 1),
                (1, 2, 2),
                (1, 4, 3),
                (2, 3, 4),
                (2, 4, 5),
                (3, 4, 6),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_core::op::{Max, Min, Or};

    #[test]
    fn figure6_representation() {
        let g = SegGraph::figure6();
        g.validate();
        // vertex = [1 2 2 2 3 3 3 4 4 5 5 5] (1-based in the paper)
        assert_eq!(g.vertex_of_slot, vec![0, 1, 1, 1, 2, 2, 2, 3, 3, 4, 4, 4]);
        // segment-descriptor = [T T F F T F F T F T F F]
        assert_eq!(
            g.segments().flags(),
            &[true, true, false, false, true, false, false, true, false, true, false, false]
        );
        // weights = [w1 w1 w2 w3 w2 w4 w5 w4 w6 w3 w5 w6]
        assert_eq!(g.weights, vec![1, 1, 2, 3, 2, 4, 5, 4, 6, 3, 5, 6]);
        // cross-pointers = [1 0 4 9 2 7 10 5 11 3 6 8]
        assert_eq!(g.cross_pointers, vec![1, 0, 4, 9, 2, 7, 10, 5, 11, 3, 6, 8]);
    }

    #[test]
    fn neighbor_reduce_sums_neighbors() {
        let g = SegGraph::figure6();
        let mut ctx = Ctx::new(Model::Scan);
        let vals: Vec<u64> = vec![10, 20, 30, 40, 50];
        let sums = g.neighbor_reduce::<Sum, _>(&mut ctx, &vals);
        // v0~{v1}=20; v1~{v0,v2,v4}=90; v2~{v1,v3,v4}=110;
        // v3~{v2,v4}=80; v4~{v1,v2,v3}=90.
        assert_eq!(sums, vec![20, 90, 110, 80, 90]);
    }

    #[test]
    fn neighbor_reduce_other_ops() {
        let g = SegGraph::figure6();
        let mut ctx = Ctx::new(Model::Scan);
        let vals: Vec<u64> = vec![10, 20, 30, 40, 50];
        assert_eq!(
            g.neighbor_reduce::<Max, _>(&mut ctx, &vals),
            vec![20, 50, 50, 50, 40]
        );
        assert_eq!(
            g.neighbor_reduce::<Min, _>(&mut ctx, &vals),
            vec![20, 10, 20, 30, 20]
        );
    }

    #[test]
    fn isolated_vertices() {
        let g = SegGraph::from_edges(4, &[(1, 2, 7)]);
        g.validate();
        assert_eq!(g.n_slots(), 2);
        let mut ctx = Ctx::new(Model::Scan);
        let r = g.neighbor_reduce::<Or, _>(&mut ctx, &[1u64, 2, 4, 8]);
        assert_eq!(r, vec![0, 4, 2, 0]);
    }

    #[test]
    fn empty_graph() {
        let g = SegGraph::from_edges(3, &[]);
        g.validate();
        assert_eq!(g.n_slots(), 0);
        let mut ctx = Ctx::new(Model::Scan);
        assert_eq!(
            g.per_vertex_reduce::<Sum, u64>(&mut ctx, &[]),
            vec![0, 0, 0]
        );
    }

    #[test]
    fn multigraph_edges() {
        // Two parallel edges between the same vertices.
        let g = SegGraph::from_edges(2, &[(0, 1, 5), (0, 1, 9)]);
        g.validate();
        assert_eq!(g.n_slots(), 4);
        let mut ctx = Ctx::new(Model::Scan);
        let deg = g.per_vertex_reduce::<Sum, _>(&mut ctx, &[1u64; 4]);
        assert_eq!(deg, vec![2, 2]);
    }

    #[test]
    fn delete_slots_drops_edges_with_either_end_marked() {
        let g = SegGraph::figure6();
        let mut ctx = Ctx::new(Model::Scan);
        // Drop every slot of vertex 1 — its three edges vanish entirely.
        let keep: Vec<bool> = g.vertex_of_slot.iter().map(|&v| v != 1).collect();
        let g2 = g.delete_slots(&mut ctx, &keep);
        g2.validate();
        // Surviving edges: w4 (v2,v3), w5 (v2,v4), w6 (v3,v4).
        assert_eq!(g2.n_slots(), 6);
        let mut ids: Vec<usize> = g2.edge_ids.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids, vec![3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        SegGraph::from_edges(2, &[(1, 1, 3)]);
    }

    #[test]
    fn vertex_to_slots_broadcast() {
        let g = SegGraph::figure6();
        let mut ctx = Ctx::new(Model::Scan);
        let slots = g.vertex_to_slots(&mut ctx, &[100u64, 200, 300, 400, 500]);
        let expect: Vec<u64> = g
            .vertex_of_slot
            .iter()
            .map(|&v| (v as u64 + 1) * 100)
            .collect();
        assert_eq!(slots, expect);
    }
}
