//! Connected components (Table 1): the same random-mate contraction as
//! the MST, with the edge choice free — `O(lg n)` steps on the scan
//! model versus `O(lg² n)` on the EREW P-RAM.

use scan_pram::{Ctx, Model};

use super::segmented::SegGraph;
use super::star_merge::star_merge;

/// Connected-components labelling on a step-counting machine: every
/// vertex receives the smallest vertex id in its component.
pub fn connected_components_ctx(
    ctx: &mut Ctx,
    n_vertices: usize,
    edges: &[(usize, usize, u64)],
    seed: u64,
) -> Vec<usize> {
    // Contract with unit weights (edge ids break ties), tracking where
    // every original vertex ends up.
    let unit: Vec<(usize, usize, u64)> = edges
        .iter()
        .enumerate()
        .map(|(e, &(u, v, _))| (u, v, e as u64))
        .collect();
    let mut g = SegGraph::from_edges_ctx(ctx, n_vertices, &unit);
    // rep[original vertex] = current contracted vertex.
    let mut rep: Vec<usize> = (0..n_vertices).collect();
    // min_orig[current vertex] = smallest original vertex id inside it.
    let mut min_orig: Vec<usize> = (0..n_vertices).collect();
    let mut rounds = 0usize;
    let cap = 64 + 8 * (usize::BITS - n_vertices.leading_zeros()) as usize;
    while g.n_slots() > 0 {
        assert!(rounds < cap, "components failed to converge");
        rounds += 1;
        let sel = super::star_merge::random_mate_select(ctx, &g, seed, rounds);
        if !sel.child_star.iter().any(|&c| c) {
            continue;
        }
        let merged = star_merge(ctx, &g, &sel.star, &sel.parent);
        // Update the original-vertex bookkeeping through the merge.
        let mut new_min = vec![usize::MAX; merged.graph.n_vertices];
        for (old, &new) in merged.vertex_map.iter().enumerate() {
            new_min[new] = new_min[new].min(min_orig[old]);
        }
        ctx.charge_permute_op(g.n_vertices);
        for r in rep.iter_mut() {
            *r = merged.vertex_map[*r];
        }
        ctx.charge_permute_op(n_vertices);
        min_orig = new_min;
        g = merged.graph;
    }
    rep.iter().map(|&r| min_orig[r]).collect()
}

/// Components with the default scan-model machine.
pub fn connected_components(
    n_vertices: usize,
    edges: &[(usize, usize, u64)],
    seed: u64,
) -> Vec<usize> {
    let mut ctx = Ctx::new(Model::Scan);
    connected_components_ctx(&mut ctx, n_vertices, edges, seed)
}

#[cfg(test)]
mod tests {
    use super::super::reference::components_reference;
    use super::*;

    fn check(n: usize, edges: &[(usize, usize, u64)], seed: u64) {
        assert_eq!(
            connected_components(n, edges, seed),
            components_reference(n, edges),
            "n={n} edges={edges:?}"
        );
    }

    #[test]
    fn two_components_and_isolated() {
        check(6, &[(0, 1, 0), (1, 2, 0), (4, 5, 0)], 9);
    }

    #[test]
    fn fully_connected() {
        let edges: Vec<(usize, usize, u64)> = (1..20).map(|v| (0, v, 0)).collect();
        check(20, &edges, 3);
    }

    #[test]
    fn no_edges() {
        check(5, &[], 1);
    }

    #[test]
    fn random_graphs() {
        let mut x = 99u64;
        let mut rng = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x >> 33
        };
        for trial in 0..10 {
            let n = 2 + (rng() % 50) as usize;
            let m = (rng() % 80) as usize;
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

    #[test]
    fn long_cycle() {
        let n = 64;
        let mut edges: Vec<(usize, usize, u64)> = (1..n).map(|v| (v - 1, v, 0)).collect();
        edges.push((n - 1, 0, 0));
        check(n, &edges, 13);
    }
}
