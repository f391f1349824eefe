//! The graph workload of §2.3: build the segmented representation,
//! run the random-mate minimum-spanning-tree algorithm, and verify
//! against Kruskal.
//!
//! Run with: `cargo run --release --example graph_mst`

use blelloch_scan::algorithms::graph::reference::kruskal;
use blelloch_scan::algorithms::graph::segmented::SegGraph;
use blelloch_scan::algorithms::graph::{connected_components, minimum_spanning_tree};
use blelloch_scan::core::op::Sum;
use blelloch_scan::pram::{Ctx, Model};

fn random_graph(n: usize, m: usize, seed: u64) -> Vec<(usize, usize, u64)> {
    let mut x = seed | 1;
    let mut rng = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 24
    };
    (0..m)
        .filter_map(|_| {
            let u = (rng() as usize) % n;
            let v = (rng() as usize) % n;
            (u != v).then(|| (u, v, rng() % 10_000))
        })
        .collect()
}

fn main() {
    // Start with the paper's own Figure 6 graph.
    let g = SegGraph::figure6();
    println!("Figure 6 graph:");
    println!("  vertex-of-slot = {:?}", g.vertex_of_slot);
    println!("  cross-pointers = {:?}", g.cross_pointers);
    println!("  weights        = {:?}", g.weights);
    let mut ctx = Ctx::new(Model::Scan);
    let degrees = g.per_vertex_reduce::<Sum, _>(&mut ctx, &vec![1u64; g.n_slots()]);
    println!("  degrees        = {degrees:?}");
    let nbr_sum = g.neighbor_reduce::<Sum, _>(&mut ctx, &[10u64, 20, 30, 40, 50]);
    println!("  neighbor sums of [10 20 30 40 50] = {nbr_sum:?}");
    println!("  (each an O(1)-step operation — §2.3.2)\n");

    // A larger random graph: MST + components, verified.
    let n = 2_000;
    let edges = random_graph(n, 12_000, 2026);
    let mut ctx = Ctx::new(Model::Scan);
    let mst =
        blelloch_scan::algorithms::graph::mst::minimum_spanning_tree_ctx(&mut ctx, n, &edges, 7);
    let (expect, expect_weight) = kruskal(n, &edges);
    assert_eq!(mst.edges, expect, "random-mate MST must match Kruskal");
    assert_eq!(mst.total_weight, expect_weight);
    println!("Random graph: n = {n}, m = {} edges", edges.len());
    println!(
        "  MST: {} edges, total weight {}, found in {} star-merge rounds",
        mst.edges.len(),
        mst.total_weight,
        mst.rounds
    );
    println!("  program steps on the scan model: {}", ctx.stats());
    println!("  matches Kruskal: yes (asserted)");

    let labels = connected_components(n, &edges, 3);
    let mut distinct: Vec<usize> = labels.clone();
    distinct.sort_unstable();
    distinct.dedup();
    println!("  connected components: {}", distinct.len());

    // The paper's claim: O(lg n) rounds, not O(n).
    let _ = minimum_spanning_tree(200, &random_graph(200, 2_000, 5), 11);
    println!(
        "\nRounds stay logarithmic: {} rounds for n = {n} (lg n ≈ {}).",
        mst.rounds,
        (n as f64).log2().round()
    );
}
