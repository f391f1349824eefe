//! Tree computations via the Euler-tour technique (Table 5's tree
//! contraction row).
//!
//! The paper cites tree contraction \[18] as the third `O(n/p + lg n)`
//! processor-step example. We realize the same bounds with the
//! scan-native route the paper's companion work \[7] takes: build the
//! Euler tour of the tree (one slot per directed edge, ordered by the
//! segmented graph layout), rank it with [`crate::list_rank`], and
//! answer rooting / subtree-size / depth queries with scans over the
//! tour. Every phase is `O(n/p + lg n)` steps, matching the table row.

use scan_pram::{Ctx, Model};

use crate::graph::segmented::SegGraph;
use crate::list_rank::contraction_rank_ctx;

/// The Euler tour of a rooted tree, plus the derived per-vertex data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EulerTour {
    /// For each slot (directed edge) of the tree's segmented graph, its
    /// position in the tour (0-based from the root's first edge).
    pub tour_position: Vec<usize>,
    /// Parent of each vertex (root maps to itself).
    pub parent: Vec<usize>,
    /// Depth of each vertex (root 0).
    pub depth: Vec<u64>,
    /// Subtree size of each vertex (leaves 1, root n).
    pub subtree_size: Vec<u64>,
}

/// Build the Euler tour of the tree `edges` (n-1 edges over n vertices)
/// rooted at `root`, and derive parents, depths and subtree sizes —
/// all with scans and one list ranking.
///
/// # Panics
/// If the edge set is not a tree on the vertices.
pub fn euler_tour_ctx(
    ctx: &mut Ctx,
    n_vertices: usize,
    edges: &[(usize, usize)],
    root: usize,
    seed: u64,
) -> EulerTour {
    assert!(root < n_vertices);
    assert_eq!(edges.len() + 1, n_vertices, "a tree has n-1 edges");
    if n_vertices == 1 {
        return EulerTour {
            tour_position: Vec::new(),
            parent: vec![root],
            depth: vec![0],
            subtree_size: vec![1],
        };
    }
    let weighted: Vec<(usize, usize, u64)> = edges.iter().map(|&(u, v)| (u, v, 0)).collect();
    let g = SegGraph::from_edges_ctx(ctx, n_vertices, &weighted);
    let s = g.n_slots();
    // Euler tour successor: after traversing edge (u→v) arriving at v
    // (slot x in u... we define slot semantics: slot x owned by u with
    // partner in v represents the directed edge u→v), the tour
    // continues with v's next outgoing slot after the reversal of x —
    // i.e. successor(x) = next slot after cross(x) within cross(x)'s
    // vertex, wrapping to the vertex's first slot.
    let segs = g.segments();
    let head = segs.head_index_per_element();
    let ones = ctx.constant(s, 1usize);
    let len = ctx.seg_distribute::<scan_core::op::Sum, _>(&ones, &segs);
    let succ: Vec<usize> = (0..s)
        .map(|i| {
            let c = g.cross_pointers[i];
            let h = head[c];
            h + (c - h + 1) % len[c]
        })
        .collect();
    ctx.charge_permute_op(s);
    ctx.charge_elementwise_op(s);
    // The tour starts at the root's first outgoing slot and visits all
    // 2(n-1) directed edges; cut it before the start to rank it.
    let root_first = (0..s)
        .find(|&i| g.vertex_of_slot[i] == root)
        .unwrap_or_else(|| panic!("root has an edge in a tree with n ≥ 2"));
    ctx.charge_scan_op(s);
    // last slot of the cycle: the one whose successor is root_first.
    let mut next = succ.clone();
    let last = (0..s)
        .find(|&i| succ[i] == root_first)
        .unwrap_or_else(|| panic!("cycle closes"));
    next[last] = last; // break the cycle into a list with tail `last`
    ctx.charge_elementwise_op(s);
    let rank_from_end = contraction_rank_ctx(ctx, &next, seed);
    let tour_position: Vec<usize> = rank_from_end
        .iter()
        .map(|&r| (s - 1) - r as usize)
        .collect();
    ctx.charge_elementwise_op(s);
    // An edge u→v is a *downward* (parent→child) edge exactly when it
    // appears in the tour before its reversal.
    let rev_pos = ctx.gather(&tour_position, &g.cross_pointers);
    let downward: Vec<bool> = (0..s).map(|i| tour_position[i] < rev_pos[i]).collect();
    ctx.charge_elementwise_op(s);
    // Parent of v: the u of the downward edge arriving at v.
    let mut parent = vec![usize::MAX; n_vertices];
    for i in 0..s {
        if downward[i] {
            parent[g.vertex_of_slot[g.cross_pointers[i]]] = g.vertex_of_slot[i];
        }
    }
    parent[root] = root;
    ctx.charge_permute_op(s);
    debug_assert!(parent.iter().all(|&p| p != usize::MAX), "not a tree");
    // Depth: +1 on downward edges, −1 on upward; an exclusive +-scan
    // over the tour order gives the depth at each arrival.
    let mut delta_by_pos = vec![0i64; s];
    for i in 0..s {
        delta_by_pos[tour_position[i]] = if downward[i] { 1 } else { -1 };
    }
    ctx.charge_permute_op(s);
    let depth_scan = ctx.inclusive_scan::<scan_core::op::Sum, _>(&delta_by_pos);
    let mut depth = vec![0u64; n_vertices];
    for i in 0..s {
        if downward[i] {
            let v = g.vertex_of_slot[g.cross_pointers[i]];
            depth[v] = depth_scan[tour_position[i]] as u64;
        }
    }
    ctx.charge_permute_op(s);
    // Subtree size of v: half the tour span between the downward edge
    // into v and its reversal, plus one.
    let mut subtree_size = vec![0u64; n_vertices];
    subtree_size[root] = n_vertices as u64;
    for i in 0..s {
        if downward[i] {
            let v = g.vertex_of_slot[g.cross_pointers[i]];
            subtree_size[v] = (rev_pos[i] - tour_position[i]).div_ceil(2) as u64;
        }
    }
    ctx.charge_permute_op(s);
    EulerTour {
        tour_position,
        parent,
        depth,
        subtree_size,
    }
}

/// Euler tour with the default scan-model machine.
pub fn euler_tour(
    n_vertices: usize,
    edges: &[(usize, usize)],
    root: usize,
    seed: u64,
) -> EulerTour {
    let mut ctx = Ctx::new(Model::Scan);
    euler_tour_ctx(&mut ctx, n_vertices, edges, root, seed)
}

/// Sequential reference: parents, depths, subtree sizes by DFS.
pub fn tree_reference(
    n_vertices: usize,
    edges: &[(usize, usize)],
    root: usize,
) -> (Vec<usize>, Vec<u64>, Vec<u64>) {
    let mut adj = vec![Vec::new(); n_vertices];
    for &(u, v) in edges {
        adj[u].push(v);
        adj[v].push(u);
    }
    let mut parent = vec![usize::MAX; n_vertices];
    let mut depth = vec![0u64; n_vertices];
    let mut size = vec![1u64; n_vertices];
    let mut order = Vec::new();
    let mut stack = vec![root];
    parent[root] = root;
    while let Some(v) = stack.pop() {
        order.push(v);
        for &w in &adj[v] {
            if parent[w] == usize::MAX && w != root {
                parent[w] = v;
                depth[w] = depth[v] + 1;
                stack.push(w);
            }
        }
    }
    for &v in order.iter().rev() {
        if v != root {
            size[parent[v]] += size[v];
        }
    }
    (parent, depth, size)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(n: usize, edges: &[(usize, usize)], root: usize) {
        let tour = euler_tour(n, edges, root, 42);
        let (parent, depth, size) = tree_reference(n, edges, root);
        assert_eq!(tour.parent, parent, "parents, root {root}, edges {edges:?}");
        assert_eq!(tour.depth, depth, "depths");
        assert_eq!(tour.subtree_size, size, "subtree sizes");
    }

    #[test]
    fn path_tree() {
        check(5, &[(0, 1), (1, 2), (2, 3), (3, 4)], 0);
        check(5, &[(0, 1), (1, 2), (2, 3), (3, 4)], 2);
    }

    #[test]
    fn star_tree() {
        let edges: Vec<(usize, usize)> = (1..8).map(|v| (0, v)).collect();
        check(8, &edges, 0);
        check(8, &edges, 3);
    }

    #[test]
    fn binary_tree() {
        let edges: Vec<(usize, usize)> = (1..15).map(|v| ((v - 1) / 2, v)).collect();
        check(15, &edges, 0);
        check(15, &edges, 14);
    }

    #[test]
    fn single_vertex() {
        check(1, &[], 0);
    }

    #[test]
    fn two_vertices() {
        check(2, &[(1, 0)], 0);
        check(2, &[(1, 0)], 1);
    }

    #[test]
    fn random_trees() {
        let mut x = 4u64;
        let mut rng = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
            (x >> 33) as usize
        };
        for _ in 0..8 {
            let n = 2 + rng() % 60;
            // Random attachment tree.
            let edges: Vec<(usize, usize)> = (1..n).map(|v| (rng() % v, v)).collect();
            let root = rng() % n;
            check(n, &edges, root);
        }
    }

    #[test]
    fn tour_positions_are_a_permutation() {
        let edges = [(0, 1), (0, 2), (2, 3)];
        let tour = euler_tour(4, &edges, 0, 7);
        let mut pos = tour.tour_position.clone();
        pos.sort_unstable();
        assert_eq!(pos, (0..6).collect::<Vec<_>>());
    }
}
