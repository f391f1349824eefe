//! The star-merge operation (§2.3.3, Figure 7).
//!
//! A *star* is a parent vertex plus child vertices, each child joined
//! to the parent by a marked *star edge*. `star_merge` contracts every
//! star into its parent in a constant number of program steps (for `m`
//! edges, `O(1)` in the scan model), following the paper's four-step
//! recipe:
//!
//! 1. **open space** — each child passes its segment length across its
//!    star edge; a segmented `+-distribute`/`+-scan` over the resulting
//!    needed-space vector sizes and places each parent's new segment;
//! 2. **permute the children in** — the parent returns each child's
//!    offset across the star edge, the child distributes it over its
//!    segment, and one permute moves every slot to its new home;
//! 3. **update cross pointers** — each slot passes its new position to
//!    the other end of its edge;
//! 4. **delete internal edges** — slots whose edge now starts and ends
//!    in the same segment (the star edges themselves, and any other
//!    newly-internal edge) are packed away.

use scan_core::op::{Max, Or, Sum};
use scan_pram::Ctx;

use super::segmented::SegGraph;

/// One random-mate star selection round (§2.3.3), shared by the MST
/// and connected-components contractions: flip a coin per vertex,
/// each child finds its minimum-weight slot with a segmented
/// min-distribute, and the child-side winners whose other end is a
/// parent become star edges (marked on both ends).
pub(crate) struct StarSelection {
    /// Per-vertex parent flags from the coin flips.
    pub parent: Vec<bool>,
    /// Star-edge flags per slot, both ends marked.
    pub star: Vec<bool>,
    /// The child-side star slots only (one per merging child).
    pub child_star: Vec<bool>,
}

pub(crate) fn random_mate_select(
    ctx: &mut Ctx,
    g: &SegGraph,
    seed: u64,
    round: usize,
) -> StarSelection {
    use crate::util::hash64;
    use scan_core::op::Min;
    let s = g.n_slots();
    let ids = ctx.iota(g.n_vertices);
    let parent = ctx.map(&ids, |v| {
        hash64(seed ^ ((round as u64) << 32) ^ v as u64) & 1 == 1
    });
    let parent_slot = g.vertex_to_slots(ctx, &parent);
    let segs = g.segments();
    let min_w = ctx.seg_distribute::<Min, _>(&g.weights, &segs);
    let is_min = ctx.zip(&g.weights, &min_w, |w, m| w == m);
    let partner_parent = g.across_edges(ctx, &parent_slot);
    let child_star: Vec<bool> = (0..s)
        .map(|i| is_min[i] && !parent_slot[i] && partner_parent[i])
        .collect();
    ctx.charge_elementwise_op(s);
    let partner_child_star = g.across_edges(ctx, &child_star);
    let star = ctx.zip(&child_star, &partner_child_star, |a, b| a | b);
    StarSelection {
        parent,
        star,
        child_star,
    }
}

/// The output of [`star_merge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StarMergeResult {
    /// The contracted graph. Its vertex count is the number of
    /// *standalone* (non-merging) vertices of the input.
    pub graph: SegGraph,
    /// Map from each input vertex to the contracted vertex that now
    /// represents it.
    pub vertex_map: Vec<usize>,
}

/// Contract every star of `g` in `O(1)` program steps.
///
/// `star_edge` marks, per slot, **both ends** of each star edge;
/// `parent` marks, per vertex, the star parents. Each merging child
/// (a non-parent vertex with a marked slot) must have exactly one
/// marked slot, whose other end lies in a parent vertex.
///
/// # Panics
/// If the star structure is inconsistent (checked in debug builds).
pub fn star_merge(
    ctx: &mut Ctx,
    g: &SegGraph,
    star_edge: &[bool],
    parent: &[bool],
) -> StarMergeResult {
    let s = g.n_slots();
    assert_eq!(star_edge.len(), s, "star_edge length mismatch");
    assert_eq!(parent.len(), g.n_vertices, "parent length mismatch");
    let segs = g.segments();

    let parent_slot = g.vertex_to_slots(ctx, parent);
    // A merging child owns a marked slot and is not a parent.
    let child_star_slot = ctx.zip(star_edge, &parent_slot, |e, p| e & !p);
    let parent_star_slot = ctx.zip(star_edge, &parent_slot, |e, p| e & p);
    let merging_child = g.per_vertex_reduce::<Or, _>(ctx, &child_star_slot);
    debug_assert!(
        (0..g.n_vertices).all(|v| !(merging_child[v] && parent[v])),
        "a vertex cannot be both parent and merging child"
    );
    #[cfg(debug_assertions)]
    {
        // Exactly one star slot per merging child, and its other end in
        // a parent vertex.
        let mut count = vec![0usize; g.n_vertices];
        for i in 0..s {
            if child_star_slot[i] {
                count[g.vertex_of_slot[i]] += 1;
                assert!(
                    parent[g.vertex_of_slot[g.cross_pointers[i]]],
                    "star edge must lead to a parent"
                );
            }
        }
        for v in 0..g.n_vertices {
            assert!(
                count[v] == usize::from(merging_child[v]),
                "merging child must have exactly one star edge"
            );
        }
    }
    let standalone: Vec<bool> = ctx.map(&merging_child, |c| !c);
    let standalone_slot = g.vertex_to_slots(ctx, &standalone);

    // ---- step 1: open space ----
    // Each child passes its segment length across its star edge.
    let ones = ctx.constant(s, 1usize);
    let seg_len = ctx.seg_distribute::<Sum, _>(&ones, &segs);
    let incoming_len = g.across_edges(ctx, &seg_len);
    // Needed space: standalone slots keep themselves (1) and parent-side
    // star slots additionally open room for their child's slots.
    let needed: Vec<usize> = (0..s)
        .map(|i| {
            if !standalone_slot[i] {
                0
            } else if parent_star_slot[i] {
                1 + incoming_len[i]
            } else {
                1
            }
        })
        .collect();
    ctx.charge_elementwise_op(s);
    let (new_pos, total) = ctx.scan_with_total::<Sum, _>(&needed);

    // ---- step 2: permute the children into the opened space ----
    // The parent returns each child's base offset across the star edge;
    // the child distributes it over its segment (a max-distribute of
    // the single nonzero value).
    let base_msg: Vec<usize> = (0..s)
        .map(|i| {
            if parent_star_slot[i] {
                new_pos[i] + 1
            } else {
                0
            }
        })
        .collect();
    ctx.charge_elementwise_op(s);
    let child_base_at_star = g.across_edges(ctx, &base_msg);
    let child_base = ctx.seg_distribute::<Max, _>(&child_base_at_star, &segs);
    let head_of = segs.head_index_per_element();
    let new_index: Vec<usize> = (0..s)
        .map(|i| {
            if standalone_slot[i] {
                new_pos[i]
            } else {
                child_base[i] + (i - head_of[i])
            }
        })
        .collect();
    ctx.charge_elementwise_op(s);
    debug_assert_eq!(
        {
            let mut sorted = new_index.clone();
            sorted.sort_unstable();
            sorted.dedup();
            sorted.len()
        },
        s,
        "new indices must be a permutation"
    );
    debug_assert!(new_index.iter().all(|&i| i < total));

    // New vertex numbering: standalone vertices in order.
    let new_id_exclusive = ctx.enumerate(&standalone);
    // Owner of each slot after the merge: its own vertex's new id for
    // standalone slots; the parent's new id (sent across the star edge
    // and distributed over the child segment) for child slots.
    let own_new_id = g.vertex_to_slots(ctx, &new_id_exclusive);
    let id_msg: Vec<usize> = (0..s)
        .map(|i| {
            if parent_star_slot[i] {
                own_new_id[i] + 1
            } else {
                0
            }
        })
        .collect();
    ctx.charge_elementwise_op(s);
    let parent_id_at_star = g.across_edges(ctx, &id_msg);
    let parent_id = ctx.seg_distribute::<Max, _>(&parent_id_at_star, &segs);
    let owner_new_id: Vec<usize> = (0..s)
        .map(|i| {
            if standalone_slot[i] {
                own_new_id[i]
            } else {
                parent_id[i] - 1
            }
        })
        .collect();
    ctx.charge_elementwise_op(s);

    // ---- step 3: move everything and update the cross pointers ----
    let new_vertex_of_slot = ctx.permute_unchecked(&owner_new_id, &new_index);
    let new_weights = ctx.permute_unchecked(&g.weights, &new_index);
    let new_edge_ids = ctx.permute_unchecked(&g.edge_ids, &new_index);
    // "Pass the new position of each end of an edge to the other end."
    let partner_new = g.across_edges(ctx, &new_index);
    let new_cross = ctx.permute_unchecked(&partner_new, &new_index);

    let n_new_vertices = ctx.count(&standalone);
    let merged = SegGraph {
        n_vertices: n_new_vertices,
        vertex_of_slot: new_vertex_of_slot,
        cross_pointers: new_cross,
        weights: new_weights,
        edge_ids: new_edge_ids,
    };

    // ---- step 4: delete edges that now point within a segment ----
    let partner_vertex = merged.across_edges(ctx, &merged.vertex_of_slot);
    let keep = ctx.zip(&merged.vertex_of_slot, &partner_vertex, |a, b| a != b);
    let graph = merged.delete_slots(ctx, &keep);

    // Vertex map: standalone vertices keep their (renumbered) identity;
    // merging children take their parent's.
    let parent_new_id_per_vertex = {
        // Each child's star slot already knows its parent's new id.
        let msg: Vec<usize> = (0..s)
            .map(|i| if child_star_slot[i] { parent_id[i] } else { 0 })
            .collect();
        ctx.charge_elementwise_op(s);
        g.per_vertex_reduce::<Max, _>(ctx, &msg)
    };
    let vertex_map: Vec<usize> = (0..g.n_vertices)
        .map(|v| {
            if standalone[v] {
                new_id_exclusive[v]
            } else {
                parent_new_id_per_vertex[v] - 1
            }
        })
        .collect();
    ctx.charge_elementwise_op(g.n_vertices);

    StarMergeResult { graph, vertex_map }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_pram::Model;

    /// Figure 7's star on the Figure 6 graph: parents v1, v3, v5
    /// (0-based 0, 2, 4), children v2 and v4 (1 and 3), star edges
    /// w2 (v2–v3) and w4 (v3–v4).
    fn figure7_inputs() -> (SegGraph, Vec<bool>, Vec<bool>) {
        let g = SegGraph::figure6();
        // Star-Edge = [F F T F T T F T F F F F]
        let star = vec![
            false, false, true, false, true, true, false, true, false, false, false, false,
        ];
        // Parent = [T F T F T]
        let parent = vec![true, false, true, false, true];
        (g, star, parent)
    }

    #[test]
    fn figure7_star_merge() {
        let (g, star, parent) = figure7_inputs();
        let mut ctx = Ctx::new(Model::Scan);
        let r = star_merge(&mut ctx, &g, &star, &parent);
        r.graph.validate();
        // After: 3 vertices (old v1, merged v3', old v5), 8 slots.
        assert_eq!(r.graph.n_vertices, 3);
        assert_eq!(r.graph.n_slots(), 8);
        // segment-descriptor = [T T F F F T F F] → lengths 1, 4, 3.
        assert_eq!(
            r.graph.segments().flags(),
            &[true, true, false, false, false, true, false, false]
        );
        // weights = [w1 w1 w3 w5 w6 w3 w5 w6] up to order within
        // segments; check as multisets per segment.
        let seg_weights: Vec<Vec<u64>> = r
            .graph
            .segments()
            .ranges()
            .iter()
            .map(|&(a, b)| {
                let mut w = r.graph.weights[a..b].to_vec();
                w.sort_unstable();
                w
            })
            .collect();
        assert_eq!(seg_weights, vec![vec![1], vec![1, 3, 5, 6], vec![3, 5, 6]]);
        // Children map to the merged parent.
        assert_eq!(r.vertex_map, vec![0, 1, 1, 1, 2]);
    }

    #[test]
    fn merge_without_any_star_is_identity_shape() {
        let g = SegGraph::figure6();
        let mut ctx = Ctx::new(Model::Scan);
        let star = vec![false; g.n_slots()];
        let parent = vec![true; g.n_vertices];
        let r = star_merge(&mut ctx, &g, &star, &parent);
        r.graph.validate();
        assert_eq!(r.graph.n_vertices, 5);
        assert_eq!(r.graph.n_slots(), 12);
        assert_eq!(r.vertex_map, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn two_children_one_parent_triangle_collapses() {
        // Triangle 0-1-2 with both 1 and 2 merging into 0: all edges
        // become internal and vanish.
        let g = SegGraph::from_edges(3, &[(0, 1, 1), (0, 2, 2), (1, 2, 3)]);
        let mut ctx = Ctx::new(Model::Scan);
        // Star edges: the (0,1) and (0,2) edges, both directions.
        let star: Vec<bool> = (0..g.n_slots()).map(|i| g.edge_ids[i] != 2).collect();
        let parent = vec![true, false, false];
        let r = star_merge(&mut ctx, &g, &star, &parent);
        r.graph.validate();
        assert_eq!(r.graph.n_vertices, 1);
        assert_eq!(r.graph.n_slots(), 0, "all edges became internal");
        assert_eq!(r.vertex_map, vec![0, 0, 0]);
    }

    #[test]
    fn disjoint_stars_merge_simultaneously() {
        // Path 0-1-2-3 plus edge 1-2; stars: 1→0 and 3→2.
        let g = SegGraph::from_edges(4, &[(0, 1, 1), (1, 2, 2), (2, 3, 3)]);
        let mut ctx = Ctx::new(Model::Scan);
        let star: Vec<bool> = (0..g.n_slots())
            .map(|i| g.edge_ids[i] == 0 || g.edge_ids[i] == 2)
            .collect();
        let parent = vec![true, false, true, false];
        let r = star_merge(&mut ctx, &g, &star, &parent);
        r.graph.validate();
        assert_eq!(r.graph.n_vertices, 2);
        // Only the middle edge survives, between the two merged vertices.
        assert_eq!(r.graph.n_slots(), 2);
        assert_eq!(r.vertex_map, vec![0, 0, 1, 1]);
        let mut ids = r.graph.edge_ids.clone();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 1]);
    }

    #[test]
    fn parallel_edges_to_merged_vertex_survive_as_multiedges() {
        // 0-1 and 0-2; 1 merges into 2... 1 and 2 connected? Use:
        // edges (1,0) (2,0) and (1,2); merge 1 into 2 via (1,2).
        let g = SegGraph::from_edges(3, &[(1, 0, 5), (2, 0, 6), (1, 2, 7)]);
        let mut ctx = Ctx::new(Model::Scan);
        let star: Vec<bool> = (0..g.n_slots()).map(|i| g.edge_ids[i] == 2).collect();
        let parent = vec![false, false, true];
        let r = star_merge(&mut ctx, &g, &star, &parent);
        r.graph.validate();
        assert_eq!(r.graph.n_vertices, 2);
        // Vertices {0} and {1,2 merged}; two parallel edges remain.
        assert_eq!(r.graph.n_slots(), 4);
        assert_eq!(r.vertex_map, vec![0, 1, 1]);
    }

    #[test]
    fn step_complexity_constant_in_scan_model() {
        // The number of vector operations must not depend on graph size.
        let ops_for = |n: usize| {
            let edges: Vec<(usize, usize, u64)> = (1..n).map(|v| (v - 1, v, v as u64)).collect();
            let g = SegGraph::from_edges(n, &edges);
            let star: Vec<bool> = (0..g.n_slots())
                .map(|i| {
                    g.edge_ids[i].is_multiple_of(2) && {
                        let e = g.edge_ids[i];
                        e.is_multiple_of(4)
                    }
                })
                .collect();
            // Stars: edge 4k merges vertex 4k+1 into 4k (even edges
            // chosen sparsely so stars stay disjoint).
            let parent: Vec<bool> = (0..n).map(|v| v % 4 != 1).collect();
            let mut ctx = Ctx::new(Model::Scan);
            star_merge(&mut ctx, &g, &star, &parent);
            ctx.stats().ops()
        };
        assert_eq!(ops_for(64), ops_for(1024));
    }
}
