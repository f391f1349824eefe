//! Maximal independent set (Table 1): Luby-style random priorities with
//! the neighbor reductions of the segmented graph representation —
//! expected `O(lg n)` steps on the scan model (the P-RAM versions pay
//! `O(lg² n)`).
//!
//! Each round: every live vertex draws a random priority; a vertex
//! whose priority beats all its neighbors' joins the set; chosen
//! vertices and their neighbors leave the graph.

use scan_core::op::{Min, Or};
use scan_pram::{Ctx, Model};

use super::segmented::SegGraph;
use crate::util::hash64;

/// Maximal independent set on a step-counting machine. Returns the
/// membership flag of every vertex.
pub fn maximal_independent_set_ctx(
    ctx: &mut Ctx,
    n_vertices: usize,
    edges: &[(usize, usize, u64)],
    seed: u64,
) -> Vec<bool> {
    let unit: Vec<(usize, usize, u64)> = edges
        .iter()
        .enumerate()
        .map(|(e, &(u, v, _))| (u, v, e as u64))
        .collect();
    let mut g = SegGraph::from_edges_ctx(ctx, n_vertices, &unit);
    let mut orig_id: Vec<usize> = (0..n_vertices).collect();
    let mut in_mis = vec![false; n_vertices];
    let mut rounds = 0usize;
    let cap = 64 + 8 * (usize::BITS - n_vertices.leading_zeros()) as usize;
    while g.n_vertices > 0 {
        assert!(rounds < cap, "MIS failed to converge");
        rounds += 1;
        let nv = g.n_vertices;
        // Random priorities, made distinct by the vertex id tail.
        let ids = ctx.iota(nv);
        let prio = ctx.map(&ids, |v| {
            (hash64(seed ^ ((rounds as u64) << 40) ^ v as u64) << 20) | v as u64
        });
        // Minimum neighbor priority via the §2.3.2 neighbor reduce;
        // isolated vertices see the identity (MAX) and always join.
        let min_nbr = g.neighbor_reduce::<Min, _>(ctx, &prio);
        let chosen = ctx.zip(&prio, &min_nbr, |p, m| p < m);
        for (v, &c) in chosen.iter().enumerate() {
            if c {
                in_mis[orig_id[v]] = true;
            }
        }
        ctx.charge_permute_op(nv);
        // Remove chosen vertices and their neighbors.
        let chosen_slot = g.vertex_to_slots(ctx, &chosen);
        let nbr_chosen_slot = g.across_edges(ctx, &chosen_slot);
        let nbr_chosen = g.per_vertex_reduce::<Or, _>(ctx, &nbr_chosen_slot);
        let removed = ctx.zip(&chosen, &nbr_chosen, |a, b| a | b);
        // Shrink the graph to the surviving vertices.
        let keep_vertex: Vec<bool> = ctx.map(&removed, |r| !r);
        let keep_slot = g.vertex_to_slots(ctx, &keep_vertex);
        let g2 = g.delete_slots(ctx, &keep_slot);
        // Renumber surviving vertices densely.
        let new_id = ctx.enumerate(&keep_vertex);
        let n_kept = ctx.count(&keep_vertex);
        let new_vertex_of_slot = ctx.map(&g2.vertex_of_slot, |v| new_id[v]);
        orig_id = ctx.pack(&orig_id, &keep_vertex);
        g = SegGraph {
            n_vertices: n_kept,
            vertex_of_slot: new_vertex_of_slot,
            cross_pointers: g2.cross_pointers,
            weights: g2.weights,
            edge_ids: g2.edge_ids,
        };
    }
    in_mis
}

/// Maximal independent set with the default scan-model machine.
pub fn maximal_independent_set(
    n_vertices: usize,
    edges: &[(usize, usize, u64)],
    seed: u64,
) -> Vec<bool> {
    let mut ctx = Ctx::new(Model::Scan);
    maximal_independent_set_ctx(&mut ctx, n_vertices, edges, seed)
}

/// Check that `in_mis` is independent and maximal on the given graph;
/// for tests.
pub fn verify_mis(n_vertices: usize, edges: &[(usize, usize, u64)], in_mis: &[bool]) {
    assert_eq!(in_mis.len(), n_vertices);
    let mut has_mis_neighbor = vec![false; n_vertices];
    for &(u, v, _) in edges {
        assert!(
            !(in_mis[u] && in_mis[v]),
            "vertices {u} and {v} are adjacent and both in the set"
        );
        if in_mis[u] {
            has_mis_neighbor[v] = true;
        }
        if in_mis[v] {
            has_mis_neighbor[u] = true;
        }
    }
    for v in 0..n_vertices {
        assert!(
            in_mis[v] || has_mis_neighbor[v],
            "vertex {v} could be added — the set is not maximal"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(n: usize, edges: &[(usize, usize, u64)], seed: u64) -> Vec<bool> {
        let mis = maximal_independent_set(n, edges, seed);
        verify_mis(n, edges, &mis);
        mis
    }

    #[test]
    fn triangle_yields_one_vertex() {
        let mis = check(3, &[(0, 1, 0), (1, 2, 0), (0, 2, 0)], 4);
        assert_eq!(mis.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn edgeless_graph_takes_everything() {
        let mis = check(5, &[], 1);
        assert!(mis.iter().all(|&b| b));
    }

    #[test]
    fn star_graph_center_or_leaves() {
        let edges: Vec<(usize, usize, u64)> = (1..10).map(|v| (0, v, 0)).collect();
        let mis = check(10, &edges, 8);
        if mis[0] {
            assert_eq!(mis.iter().filter(|&&b| b).count(), 1);
        } else {
            assert!(mis[1..].iter().all(|&b| b));
        }
    }

    #[test]
    fn path_graph() {
        let edges: Vec<(usize, usize, u64)> = (1..30).map(|v| (v - 1, v, 0)).collect();
        check(30, &edges, 12);
    }

    #[test]
    fn random_graphs() {
        let mut x = 5u64;
        let mut rng = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            x >> 33
        };
        for trial in 0..10 {
            let n = 2 + (rng() % 40) as usize;
            let m = (rng() % 100) as usize;
            let edges: Vec<(usize, usize, u64)> = (0..m)
                .filter_map(|_| {
                    let u = (rng() as usize) % n;
                    let v = (rng() as usize) % n;
                    (u != v).then_some((u, v, 0))
                })
                .collect();
            check(n, &edges, trial);
        }
    }
}
