//! Sorting on the scan model: the split radix sort (§2.2.1), the
//! segmented quicksort (§2.3.1) and the bitonic baseline (Table 4),
//! with measured step complexities under each machine model.
//!
//! Run with: `cargo run --release --example sorting`

use blelloch_scan::algorithms::sort::bitonic::bitonic_sort_ctx;
use blelloch_scan::algorithms::sort::quicksort::{quicksort_ctx, PivotRule};
use blelloch_scan::algorithms::sort::radix::split_radix_sort_ctx;
use blelloch_scan::pram::{Ctx, Model};

fn workload(n: usize, seed: u64) -> Vec<u64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 40) & 0xFFFF
        })
        .collect()
}

fn main() {
    println!("Sorting 16-bit keys: program steps by algorithm and model\n");
    println!(
        "{:>8} {:>6} | {:>12} {:>12} {:>12}",
        "n", "model", "split-radix", "quicksort", "bitonic"
    );
    for lg_n in [8u32, 10, 12, 14] {
        let n = 1usize << lg_n;
        let keys = workload(n, 42);
        let mut expect = keys.clone();
        expect.sort_unstable();
        for model in [Model::Scan, Model::Erew] {
            let mut radix = Ctx::new(model);
            assert_eq!(split_radix_sort_ctx(&mut radix, &keys, 16), expect);
            let mut quick = Ctx::new(model);
            assert_eq!(
                quicksort_ctx(&mut quick, &keys, PivotRule::Random(7)).keys,
                expect
            );
            let mut bitonic = Ctx::new(model);
            assert_eq!(bitonic_sort_ctx(&mut bitonic, &keys), expect);
            println!(
                "{:>8} {:>6} | {:>12} {:>12} {:>12}",
                n,
                model.name(),
                radix.steps(),
                quick.steps(),
                bitonic.steps()
            );
        }
    }
    println!();
    println!("Shapes to notice (the paper's claims):");
    println!(" - split radix under the Scan model is flat in n (O(d) steps);");
    println!("   under EREW it grows by the lg n tree factor;");
    println!(" - quicksort's expected steps grow like lg n on the Scan model;");
    println!(" - bitonic takes the same steps under both models — scans");
    println!("   don't help it, which is why it is the Table 4 yardstick.");
}
