//! The §2.4 motivating workload: fixed-depth game search with dynamic
//! processor allocation — "we can execute the algorithms in parallel by
//! placing each possible move in a separate processor."
//!
//! The whole search frontier lives in one vector; each wave allocates a
//! processor per child move (§2.4), prunes decided positions (§2.5's
//! bounding), and the backward pass resolves the minimax with segmented
//! min/max distributes.
//!
//! Run with: `cargo run --release --example branch_and_bound`

use blelloch_scan::algorithms::game_search::{minimax_reference, parallel_minimax_ctx, Board};
use blelloch_scan::pram::{Ctx, Model};

fn main() {
    let positions = [
        ("empty board", Board::empty()),
        ("X about to win", Board::parse("XX. OO. ...", true)),
        ("O threatens twice", Board::parse("OO. .X. .XO", true)),
        ("midgame", Board::parse("X.O .X. O..", true)),
    ];
    for (name, board) in positions {
        let mut ctx = Ctx::new(Model::Scan);
        let r = parallel_minimax_ctx(&mut ctx, board, 9);
        let reference = minimax_reference(board, 9);
        assert_eq!(r.value, reference);
        let nodes: usize = r.wave_sizes.iter().sum();
        println!("{name}:");
        println!(
            "  minimax value {} (X's perspective), {} nodes in {} waves",
            r.value,
            nodes,
            r.wave_sizes.len()
        );
        println!("  frontier sizes: {:?}", r.wave_sizes);
        println!(
            "  program steps: {} — scales with depth, not nodes\n",
            ctx.steps()
        );
    }
    println!("Every wave is a handful of vector operations (allocate,");
    println!("distribute, segmented scan, segmented min/max), no matter how");
    println!("many positions it holds — the point of §2.4's allocation.");
}
