//! The probabilistic minimum-spanning-tree algorithm (§2.3.3):
//! Sollin/Borůvka contraction with *random mate* star selection, each
//! contraction an `O(1)`-step star-merge — `O(lg n)` expected step
//! complexity on the scan model, versus `O(lg² n)` on the EREW P-RAM.
//!
//! "To find stars, each vertex flips a coin to decide whether they are
//! a child or parent. All children find their minimum edge (using a
//! min-distribute), and all such edges that are connected to a parent
//! are marked as star edges. Since, on average, ... 1/4 of the trees
//! are merged on each star-merge step."

use scan_pram::{Ctx, Model};

use super::segmented::SegGraph;
use super::star_merge::star_merge;

/// The result of an MST run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MstResult {
    /// Indices (into the input edge list) of the spanning-forest edges,
    /// ascending.
    pub edges: Vec<usize>,
    /// Sum of the chosen edges' weights.
    pub total_weight: u64,
    /// Star-merge rounds executed.
    pub rounds: usize,
}

/// Minimum spanning forest on a step-counting machine.
///
/// Weights are made distinct with the composite `(weight, edge id)`
/// order, so the forest matches Kruskal's exactly.
///
/// # Panics
/// If a weight needs more than 32 bits (the composite order rides both
/// halves in one 64-bit word).
pub fn minimum_spanning_tree_ctx(
    ctx: &mut Ctx,
    n_vertices: usize,
    edges: &[(usize, usize, u64)],
    seed: u64,
) -> MstResult {
    assert!(
        edges.iter().all(|&(_, _, w)| w <= u32::MAX as u64),
        "weights must fit in 32 bits"
    );
    // Composite weights make the minimum edge of every tree unique.
    let composite: Vec<(usize, usize, u64)> = edges
        .iter()
        .enumerate()
        .map(|(e, &(u, v, w))| (u, v, (w << 32) | e as u64))
        .collect();
    let mut g = SegGraph::from_edges_ctx(ctx, n_vertices, &composite);
    let mut chosen = Vec::new();
    let mut rounds = 0usize;
    let cap = 64 + 8 * (usize::BITS - n_vertices.leading_zeros()) as usize;
    while g.n_slots() > 0 {
        assert!(rounds < cap, "MST failed to converge");
        rounds += 1;
        // Composite weights make each child's minimum edge unique
        // within its segment, so the shared random-mate selection picks
        // exactly one star edge per merging child.
        let sel = super::star_merge::random_mate_select(ctx, &g, seed, rounds);
        // Record the merged edges (one per merging child).
        chosen.extend(ctx.pack(&g.edge_ids, &sel.child_star));
        if !sel.child_star.iter().any(|&c| c) {
            continue; // unlucky coin round; flip again
        }
        g = star_merge(ctx, &g, &sel.star, &sel.parent).graph;
    }
    chosen.sort_unstable();
    let total_weight = chosen.iter().map(|&e| edges[e].2).sum();
    MstResult {
        edges: chosen,
        total_weight,
        rounds,
    }
}

/// Minimum spanning forest with the default scan-model machine.
pub fn minimum_spanning_tree(
    n_vertices: usize,
    edges: &[(usize, usize, u64)],
    seed: u64,
) -> MstResult {
    let mut ctx = Ctx::new(Model::Scan);
    minimum_spanning_tree_ctx(&mut ctx, n_vertices, edges, seed)
}

#[cfg(test)]
mod tests {
    use super::super::reference::kruskal;
    use super::*;

    fn check(n: usize, edges: &[(usize, usize, u64)], seed: u64) -> MstResult {
        let r = minimum_spanning_tree(n, edges, seed);
        let (expect, total) = kruskal(n, edges);
        assert_eq!(r.edges, expect, "n={n} edges={edges:?}");
        assert_eq!(r.total_weight, total);
        r
    }

    #[test]
    fn figure6_graph_mst() {
        let edges = [
            (0, 1, 1),
            (1, 2, 2),
            (1, 4, 3),
            (2, 3, 4),
            (2, 4, 5),
            (3, 4, 6),
        ];
        let r = check(5, &edges, 42);
        assert_eq!(r.total_weight, 10);
    }

    #[test]
    fn single_edge_and_empty() {
        check(2, &[(0, 1, 9)], 1);
        let r = minimum_spanning_tree(4, &[], 1);
        assert!(r.edges.is_empty());
        assert_eq!(r.rounds, 0);
    }

    #[test]
    fn disconnected_forest() {
        let edges = [(0, 1, 3), (2, 3, 4), (0, 1, 10)];
        check(5, &edges, 7);
    }

    #[test]
    fn duplicate_weights_resolved_by_edge_id() {
        let edges = [(0, 1, 5), (1, 2, 5), (0, 2, 5)];
        let r = check(3, &edges, 3);
        assert_eq!(r.edges, vec![0, 1]);
    }

    #[test]
    fn random_graphs_match_kruskal() {
        let mut x = 2026u64;
        let mut rng = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        for trial in 0..10 {
            let n = 3 + (rng() % 40) as usize;
            let m = (rng() % 120) as usize;
            let edges: Vec<(usize, usize, u64)> = (0..m)
                .filter_map(|_| {
                    let u = (rng() as usize) % n;
                    let v = (rng() as usize) % n;
                    (u != v).then(|| (u, v, rng() % 1000))
                })
                .collect();
            check(n, &edges, trial);
        }
    }

    #[test]
    fn dense_graph_logarithmic_rounds() {
        // Complete graph on 64 vertices: rounds should be O(lg n), far
        // below the vertex count.
        let n = 64;
        let mut edges = Vec::new();
        let mut w = 1u64;
        for u in 0..n {
            for v in (u + 1)..n {
                w = w.wrapping_mul(48271) % 100003;
                edges.push((u, v, w));
            }
        }
        let r = check(n, &edges, 11);
        assert!(r.rounds <= 40, "took {} rounds", r.rounds);
    }

    #[test]
    fn path_graph() {
        let edges: Vec<(usize, usize, u64)> =
            (1..50).map(|v| (v - 1, v, (v * 7 % 13) as u64)).collect();
        let r = check(50, &edges, 5);
        assert_eq!(r.edges.len(), 49, "a path's MST is the path itself");
    }
}
