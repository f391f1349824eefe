//! Table 5 reproduction: "the processor-step complexity of many
//! algorithms can be reduced by using fewer processors and assigning
//! many elements to each processor."
//!
//! For the halving merge, list ranking and the Euler-tour tree
//! computations we measure steps at `p = n` and at `p = n/lg n`, and
//! report the processor-step product — which must fall from
//! `Θ(n lg n)` toward `Θ(n)`.
//!
//! Run with: `cargo run -p scan-bench --release --bin table5`

use scan_algorithms::list_rank::{contraction_rank_ctx, random_list, wyllie_rank_ctx};
use scan_algorithms::merge::halving::halving_merge_ctx;
use scan_algorithms::tree_ops::euler_tour_ctx;
use scan_bench::{print_row, print_rule, sorted_keys, Rng};
use scan_pram::{Ctx, Model};

type CaseFn = Box<dyn Fn(&mut Ctx, usize)>;

struct Case {
    name: &'static str,
    run: CaseFn,
}

fn main() {
    println!("Table 5 — processor-step complexity with p = n vs p = n/lg n\n");
    let cases = vec![
        Case {
            name: "Halving Merge",
            run: Box::new(|ctx, n| {
                let a = sorted_keys(n / 2, 30, 1);
                let b = sorted_keys(n / 2, 30, 2);
                halving_merge_ctx(ctx, &a, &b);
            }),
        },
        Case {
            name: "List Ranking (contraction)",
            run: Box::new(|ctx, n| {
                let next = random_list(n, 3);
                contraction_rank_ctx(ctx, &next, 7);
            }),
        },
        Case {
            name: "List Ranking (Wyllie, control)",
            run: Box::new(|ctx, n| {
                let next = random_list(n, 3);
                wyllie_rank_ctx(ctx, &next);
            }),
        },
        Case {
            name: "Tree Contraction (Euler tour)",
            run: Box::new(|ctx, n| {
                let mut rng = Rng::new(5);
                let edges: Vec<(usize, usize)> =
                    (1..n).map(|v| ((rng.next() as usize) % v, v)).collect();
                euler_tour_ctx(ctx, n, &edges, 0, 9);
            }),
        },
    ];
    let widths = [30, 8, 10, 10, 14, 14, 7];
    print_row(
        &[
            "algorithm".into(),
            "n".into(),
            "steps@n".into(),
            "steps@n/lg".into(),
            "proc-steps@n".into(),
            "proc-steps@n/lg".into(),
            "gain".into(),
        ],
        &widths,
    );
    print_rule(&widths);
    for case in cases {
        for (k, lg) in [12u32, 14, 16].into_iter().enumerate() {
            let n = 1usize << lg;
            let mut full = Ctx::with_processors(Model::Scan, n);
            (case.run)(&mut full, n);
            let p = n / lg as usize;
            let mut few = Ctx::with_processors(Model::Scan, p);
            (case.run)(&mut few, n);
            let product_full = full.steps() * n as u64;
            let product_few = few.steps() * p as u64;
            print_row(
                &[
                    if k == 0 {
                        case.name.into()
                    } else {
                        String::new()
                    },
                    n.to_string(),
                    full.steps().to_string(),
                    few.steps().to_string(),
                    product_full.to_string(),
                    product_few.to_string(),
                    format!("{:.2}", product_full as f64 / product_few as f64),
                ],
                &widths,
            );
        }
        print_rule(&widths);
    }
    println!("\nReading the table:");
    println!(" - at p = n the products grow like n lg n (the paper's first rows);");
    println!(" - at p = n/lg n the work-efficient algorithms keep their step");
    println!("   counts near O(lg n), so the product falls toward O(n) and the");
    println!("   gain column grows with n;");
    println!(" - Wyllie's pointer jumping is the control: its work is Θ(n lg n)");
    println!("   regardless of p, so reducing processors cannot rescue it —");
    println!("   its gain stays near the others' at small n but stops growing.");
}
