//! Quickstart: the scan primitives and the derived vector operations,
//! on the paper's own worked examples.
//!
//! Run with: `cargo run --example quickstart`

use blelloch_scan::core::op::{Max, Sum};
use blelloch_scan::core::ops;
use blelloch_scan::core::{allocate, distribute, scan, seg_scan, Segments};
use blelloch_scan::pram::{Ctx, Model};

fn main() {
    // The paper's definition (§1): scan takes [a0, a1, ..., a(n-1)] to
    // [i, a0, a0⊕a1, ...].
    let a = [2u32, 1, 2, 3, 5, 8, 13, 21];
    println!("A          = {a:?}");
    println!("+-scan(A)  = {:?}", scan::<Sum, _>(&a));
    println!("max-scan(A)= {:?}", scan::<Max, _>(&a));

    // Figure 1: enumerate / copy / +-distribute.
    let flags = [true, false, false, true, false, true, true, false];
    println!("\nenumerate({flags:?})\n  = {:?}", ops::enumerate(&flags));
    let b = [1u32, 1, 2, 1, 1, 2, 1, 1];
    println!(
        "+-distribute({b:?}) = {:?}",
        ops::distribute_op::<Sum, _>(&b)
    );

    // Figure 3: split packs false-flagged elements to the bottom.
    let v = [5u32, 7, 3, 1, 4, 2, 7, 2];
    let f = [true, true, true, true, false, false, true, false];
    println!("\nsplit({v:?})\n  = {:?}", ops::split(&v, &f));

    // Figure 4: segmented scans restart at segment heads.
    let vals = [5u32, 1, 3, 4, 3, 9, 2, 6];
    let segs = Segments::from_flags(vec![true, false, true, false, false, false, true, false]);
    println!("\nseg-+-scan   = {:?}", seg_scan::<Sum, _>(&vals, &segs));
    println!("seg-max-scan = {:?}", seg_scan::<Max, _>(&vals, &segs));

    // Figure 8: processor allocation.
    let alloc = allocate(&[4, 1, 3]);
    println!(
        "\nallocate([4,1,3]): total {}, starts {:?}",
        alloc.total, alloc.starts
    );
    println!(
        "distribute([v1,v2,v3]) = {:?}",
        distribute(&["v1", "v2", "v3"], &[4, 1, 3])
    );

    // The same operations, step-counted under two machine models.
    let keys: Vec<u64> = (0..1024u64).map(|i| (i * 2654435761) % 1024).collect();
    for model in [Model::Scan, Model::Erew] {
        let mut ctx = Ctx::new(model);
        ctx.scan::<Sum, _>(&keys);
        ctx.split(&keys, &keys.iter().map(|&k| k % 2 == 0).collect::<Vec<_>>());
        println!(
            "\n{} model: scan + split on 1024 elements took {}",
            model.name(),
            ctx.stats()
        );
    }
    println!("\nThe scan model executes both in a handful of steps; the");
    println!("EREW P-RAM pays 2·lg n per scan — Table 1's missing factor.");
}
