//! Biconnected components (Table 1: `O(lg n)` on the scan model) via
//! the Tarjan–Vishkin reduction: biconnectivity of `G` reduces to
//! *connectivity* of an auxiliary graph on `G`'s spanning-tree edges,
//! and connectivity is the random-mate contraction we already have.
//!
//! Pipeline (every stage scan-native):
//! 1. spanning tree (unit-weight random-mate MST) and Euler-tour
//!    rooting → parents, preorder numbers, subtree sizes;
//! 2. `low`/`high`: subtree min/max of the nontree-edge reach of every
//!    vertex, computed with `lg n` rounds of doubling range-min over
//!    the preorder array (each round one elementwise vector operation);
//! 3. the auxiliary graph: tree edges are vertices; Tarjan–Vishkin's
//!    two rules add an auxiliary edge exactly when two tree edges must
//!    share a cycle;
//! 4. connected components of the auxiliary graph label the blocks;
//!    each nontree edge inherits the label of its deeper endpoint's
//!    tree edge.
//!
//! Articulation points and bridges fall out of the labelling.

use scan_pram::{Ctx, Model};

use super::components::connected_components_ctx;
use super::mst::minimum_spanning_tree_ctx;
use crate::tree_ops::euler_tour_ctx;

/// The output of [`biconnected_components`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BiconnectedResult {
    /// Block id of every input edge (ids are arbitrary but equal within
    /// a block; self-consistent across tree and nontree edges).
    pub edge_block: Vec<usize>,
    /// Whether each vertex is an articulation point.
    pub articulation: Vec<bool>,
    /// Whether each edge is a bridge (a block of its own).
    pub bridge: Vec<bool>,
    /// Number of distinct blocks.
    pub n_blocks: usize,
}

/// Sparse-table range-min/max over the preorder array: `lg n` doubling
/// rounds, each one elementwise vector operation over `n` values.
struct RangeMinMax {
    mins: Vec<Vec<u64>>,
    maxs: Vec<Vec<u64>>,
}

impl RangeMinMax {
    fn build(ctx: &mut Ctx, base_min: &[u64], base_max: &[u64]) -> Self {
        let n = base_min.len();
        let mut mins = vec![base_min.to_vec()];
        let mut maxs = vec![base_max.to_vec()];
        let mut width = 1;
        while width * 2 <= n {
            let (Some(prev_min), Some(prev_max)) = (mins.last(), maxs.last()) else {
                unreachable!("sparse tables seeded with the base row");
            };
            let next_min: Vec<u64> = (0..n)
                .map(|i| {
                    if i + width < n {
                        prev_min[i].min(prev_min[i + width])
                    } else {
                        prev_min[i]
                    }
                })
                .collect();
            let next_max: Vec<u64> = (0..n)
                .map(|i| {
                    if i + width < n {
                        prev_max[i].max(prev_max[i + width])
                    } else {
                        prev_max[i]
                    }
                })
                .collect();
            ctx.charge_elementwise_op(n);
            ctx.charge_elementwise_op(n);
            mins.push(next_min);
            maxs.push(next_max);
            width *= 2;
        }
        RangeMinMax { mins, maxs }
    }

    /// Min over `[l, r)`.
    fn min(&self, l: usize, r: usize) -> u64 {
        debug_assert!(l < r);
        let k = (usize::BITS - 1 - (r - l).leading_zeros()) as usize;
        self.mins[k][l].min(self.mins[k][r - (1 << k)])
    }

    /// Max over `[l, r)`.
    fn max(&self, l: usize, r: usize) -> u64 {
        debug_assert!(l < r);
        let k = (usize::BITS - 1 - (r - l).leading_zeros()) as usize;
        self.maxs[k][l].max(self.maxs[k][r - (1 << k)])
    }
}

/// Biconnected components of a **connected** graph, on a step-counting
/// machine.
///
/// # Panics
/// If the graph is empty or not connected, or an endpoint is out of
/// range.
pub fn biconnected_components_ctx(
    ctx: &mut Ctx,
    n_vertices: usize,
    edges: &[(usize, usize, u64)],
    seed: u64,
) -> BiconnectedResult {
    assert!(n_vertices >= 1, "need at least one vertex");
    if edges.is_empty() {
        assert_eq!(n_vertices, 1, "graph must be connected");
        return BiconnectedResult {
            edge_block: Vec::new(),
            articulation: vec![false],
            bridge: Vec::new(),
            n_blocks: 0,
        };
    }
    let m = edges.len();
    // 1. Spanning tree: unit weights make the MST any spanning tree.
    let unit: Vec<(usize, usize, u64)> = edges.iter().map(|&(u, v, _)| (u, v, 0)).collect();
    let tree = minimum_spanning_tree_ctx(ctx, n_vertices, &unit, seed);
    assert_eq!(tree.edges.len(), n_vertices - 1, "graph must be connected");
    let is_tree_edge = {
        let mut f = vec![false; m];
        for &e in &tree.edges {
            f[e] = true;
        }
        f
    };
    ctx.charge_permute_op(m);
    let tree_edges: Vec<(usize, usize)> = tree
        .edges
        .iter()
        .map(|&e| (edges[e].0, edges[e].1))
        .collect();
    // Root at 0; Euler tour gives parent / depth / subtree size, and
    // preorder = rank of the downward edge among downward edges, which
    // we recover by sorting vertices by (depth-extended) tour position.
    let tour = euler_tour_ctx(ctx, n_vertices, &tree_edges, 0, seed ^ 0x5eed);
    let parent = &tour.parent;
    let size = &tour.subtree_size;
    // Preorder: vertices sorted by the tour position of their entering
    // (downward) edge; the root is first.
    let pre = preorder_from_tour(ctx, n_vertices, &tree_edges, &tour);
    // vertex at each preorder slot (inverse of `pre`).
    let mut vertex_at = vec![0usize; n_vertices];
    for v in 0..n_vertices {
        vertex_at[pre[v]] = v;
    }
    ctx.charge_permute_op(n_vertices);

    // 2. local low/high: own preorder plus nontree-edge endpoints.
    let mut local_low: Vec<u64> = (0..n_vertices).map(|v| pre[v] as u64).collect();
    let mut local_high = local_low.clone();
    for (e, &(u, v, _)) in edges.iter().enumerate() {
        if !is_tree_edge[e] && u != v {
            local_low[u] = local_low[u].min(pre[v] as u64);
            local_low[v] = local_low[v].min(pre[u] as u64);
            local_high[u] = local_high[u].max(pre[v] as u64);
            local_high[v] = local_high[v].max(pre[u] as u64);
        }
    }
    ctx.charge_permute_op(m);
    ctx.charge_elementwise_op(m);
    // Reorder by preorder and build the doubling table.
    let low_by_pre: Vec<u64> = (0..n_vertices).map(|i| local_low[vertex_at[i]]).collect();
    let high_by_pre: Vec<u64> = (0..n_vertices).map(|i| local_high[vertex_at[i]]).collect();
    ctx.charge_permute_op(n_vertices);
    let table = RangeMinMax::build(ctx, &low_by_pre, &high_by_pre);
    // Subtree aggregates: low(v) = min over [pre(v), pre(v)+size(v)).
    let low: Vec<u64> = (0..n_vertices)
        .map(|v| table.min(pre[v], pre[v] + size[v] as usize))
        .collect();
    let high: Vec<u64> = (0..n_vertices)
        .map(|v| table.max(pre[v], pre[v] + size[v] as usize))
        .collect();
    ctx.charge_permute_op(n_vertices);

    // 3. The auxiliary graph on tree edges. Vertex v (≠ root)
    // represents the tree edge (parent(v), v).
    let root = 0usize;
    let mut aux_edges: Vec<(usize, usize, u64)> = Vec::new();
    // Rule (i): nontree edge {u, v}, neither an ancestor of the other.
    let is_ancestor = |a: usize, d: usize| pre[a] <= pre[d] && pre[d] < pre[a] + size[a] as usize;
    for (e, &(u, v, _)) in edges.iter().enumerate() {
        if !is_tree_edge[e] && u != v && !is_ancestor(u, v) && !is_ancestor(v, u) {
            aux_edges.push((u, v, 0));
        }
    }
    // Rule (ii): tree edge (w = parent(v), v) with w ≠ root joins
    // (parent(w), w) iff subtree(v) escapes subtree(w).
    for v in 0..n_vertices {
        if v == root || parent[v] == root {
            continue;
        }
        let w = parent[v];
        if low[v] < pre[w] as u64 || high[v] >= (pre[w] + size[w] as usize) as u64 {
            aux_edges.push((v, w, 0));
        }
    }
    ctx.charge_elementwise_op(m);
    ctx.charge_elementwise_op(n_vertices);

    // 4. Components of the auxiliary graph label the tree edges.
    let labels = connected_components_ctx(ctx, n_vertices, &aux_edges, seed ^ 0xb1c);
    // Per-edge block ids: a tree edge (p(v), v) takes label(v); a
    // nontree edge takes the label of its deeper endpoint (the one the
    // cycle enters last).
    let edge_block: Vec<usize> = edges
        .iter()
        .enumerate()
        .map(|(e, &(u, v, _))| {
            if is_tree_edge[e] {
                let child = if parent[u] == v { u } else { v };
                labels[child]
            } else if is_ancestor(u, v) {
                labels[v]
            } else {
                // v is an ancestor of u, or rule (i) connected the two
                // unrelated endpoints — either way u's label works.
                labels[u]
            }
        })
        .collect();
    ctx.charge_permute_op(m);

    // Blocks, bridges, articulation points.
    let mut block_sizes = std::collections::HashMap::new();
    for &b in &edge_block {
        *block_sizes.entry(b).or_insert(0usize) += 1;
    }
    let bridge: Vec<bool> = edge_block.iter().map(|b| block_sizes[b] == 1).collect();
    let mut incident_blocks: Vec<std::collections::HashSet<usize>> =
        vec![std::collections::HashSet::new(); n_vertices];
    for (e, &(u, v, _)) in edges.iter().enumerate() {
        if u != v {
            incident_blocks[u].insert(edge_block[e]);
            incident_blocks[v].insert(edge_block[e]);
        }
    }
    let articulation: Vec<bool> = incident_blocks.iter().map(|s| s.len() >= 2).collect();
    ctx.charge_permute_op(m);
    ctx.charge_elementwise_op(n_vertices);
    BiconnectedResult {
        edge_block,
        articulation,
        bridge,
        n_blocks: block_sizes.len(),
    }
}

/// Preorder numbers consistent with some DFS of the rooted tree. A
/// parallel implementation ranks the downward Euler-tour edges (the
/// tour already carries the positions); the host-side DFS below
/// produces an equivalent preorder and is charged as the `lg n`-round
/// ranking it stands for.
fn preorder_from_tour(
    ctx: &mut Ctx,
    n_vertices: usize,
    tree_edges: &[(usize, usize)],
    tour: &crate::tree_ops::EulerTour,
) -> Vec<usize> {
    let _ = tree_edges;
    let parent = &tour.parent;
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n_vertices];
    for v in 0..n_vertices {
        if parent[v] != v {
            children[parent[v]].push(v);
        }
    }
    let mut pre = vec![0usize; n_vertices];
    let mut stack = vec![0usize];
    let mut counter = 0;
    while let Some(v) = stack.pop() {
        pre[v] = counter;
        counter += 1;
        for &c in children[v].iter().rev() {
            stack.push(c);
        }
    }
    for _ in 0..(usize::BITS - n_vertices.leading_zeros()) {
        ctx.charge_elementwise_op(n_vertices);
    }
    pre
}

/// Biconnected components with the default scan-model machine.
pub fn biconnected_components(
    n_vertices: usize,
    edges: &[(usize, usize, u64)],
    seed: u64,
) -> BiconnectedResult {
    let mut ctx = Ctx::new(Model::Scan);
    biconnected_components_ctx(&mut ctx, n_vertices, edges, seed)
}

#[cfg(test)]
mod tests {
    use super::super::reference::biconnected_reference;
    use super::*;

    /// Compare block partitions up to relabelling.
    fn same_partition(a: &[usize], b: &[usize]) -> bool {
        if a.len() != b.len() {
            return false;
        }
        let mut fwd = std::collections::HashMap::new();
        let mut bwd = std::collections::HashMap::new();
        for (&x, &y) in a.iter().zip(b) {
            if *fwd.entry(x).or_insert(y) != y || *bwd.entry(y).or_insert(x) != x {
                return false;
            }
        }
        true
    }

    fn check(n: usize, edges: &[(usize, usize, u64)], seed: u64) -> BiconnectedResult {
        let got = biconnected_components(n, edges, seed);
        let expect = biconnected_reference(n, edges);
        assert!(
            same_partition(&got.edge_block, &expect.edge_block),
            "blocks differ: {:?} vs {:?} on {edges:?}",
            got.edge_block,
            expect.edge_block
        );
        assert_eq!(got.articulation, expect.articulation, "articulation points");
        assert_eq!(got.bridge, expect.bridge, "bridges");
        assert_eq!(got.n_blocks, expect.n_blocks);
        got
    }

    #[test]
    fn single_edge_is_a_bridge() {
        let r = check(2, &[(0, 1, 0)], 1);
        assert_eq!(r.n_blocks, 1);
        assert!(r.bridge[0]);
        assert_eq!(r.articulation, vec![false, false]);
    }

    #[test]
    fn triangle_is_one_block() {
        let r = check(3, &[(0, 1, 0), (1, 2, 0), (0, 2, 0)], 2);
        assert_eq!(r.n_blocks, 1);
        assert!(r.bridge.iter().all(|&b| !b));
    }

    #[test]
    fn two_triangles_sharing_a_vertex() {
        // Bowtie: vertex 2 is the articulation point.
        let edges = [
            (0, 1, 0),
            (1, 2, 0),
            (0, 2, 0),
            (2, 3, 0),
            (3, 4, 0),
            (2, 4, 0),
        ];
        let r = check(5, &edges, 3);
        assert_eq!(r.n_blocks, 2);
        assert_eq!(r.articulation, vec![false, false, true, false, false]);
    }

    #[test]
    fn path_is_all_bridges() {
        let edges: Vec<(usize, usize, u64)> = (1..6).map(|v| (v - 1, v, 0)).collect();
        let r = check(6, &edges, 4);
        assert_eq!(r.n_blocks, 5);
        assert!(r.bridge.iter().all(|&b| b));
        assert_eq!(r.articulation, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn cycle_with_pendant() {
        // Square 0-1-2-3-0 plus pendant edge 3-4.
        let edges = [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0), (3, 4, 0)];
        let r = check(5, &edges, 5);
        assert_eq!(r.n_blocks, 2);
        assert!(r.bridge[4]);
        assert_eq!(r.articulation, vec![false, false, false, true, false]);
    }

    #[test]
    fn theta_graph_single_block() {
        // Two vertices joined by three internally-disjoint paths.
        let edges = [
            (0, 1, 0),
            (1, 5, 0),
            (0, 2, 0),
            (2, 3, 0),
            (3, 5, 0),
            (0, 4, 0),
            (4, 5, 0),
        ];
        let r = check(6, &edges, 6);
        assert_eq!(r.n_blocks, 1);
    }

    #[test]
    fn parallel_edges_share_a_block() {
        let edges = [(0, 1, 0), (0, 1, 0), (1, 2, 0)];
        let r = check(3, &edges, 7);
        assert_eq!(r.edge_block[0], r.edge_block[1]);
        assert!(r.bridge[2]);
    }

    #[test]
    fn random_connected_graphs() {
        let mut x = 77u64;
        let mut rng = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        for trial in 0..12 {
            let n = 3 + (rng() % 30) as usize;
            // Spanning path + random extras keeps it connected.
            let mut edges: Vec<(usize, usize, u64)> = (1..n).map(|v| (v - 1, v, 0)).collect();
            for _ in 0..rng() % 40 {
                let u = (rng() as usize) % n;
                let v = (rng() as usize) % n;
                if u != v {
                    edges.push((u, v, 0));
                }
            }
            check(n, &edges, trial);
        }
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn disconnected_graph_rejected() {
        biconnected_components(4, &[(0, 1, 0), (2, 3, 0)], 1);
    }
}
