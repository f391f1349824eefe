//! The fault-injection campaign of the issue's acceptance criteria:
//! drive the five headline algorithms (split radix sort, quicksort,
//! minimum spanning tree, line of sight, halving merge) through a
//! deliberately faulty circuit backend wrapped in a [`CheckedExecutor`]
//! and demand, for every run:
//!
//! - no panic,
//! - no silent corruption (results equal the fault-free reference),
//! - ≥ 100 *distinct* circuit bits flipped across the campaign,
//! - a printed single-bit fault detection rate.

use std::rc::Rc;

use scan_algorithms::geometry::line_of_sight::{line_of_sight, line_of_sight_ctx};
use scan_algorithms::graph::mst::minimum_spanning_tree_ctx;
use scan_algorithms::graph::reference::kruskal;
use scan_algorithms::merge::halving::halving_merge_ctx;
use scan_algorithms::sort::quicksort::{quicksort_ctx, PivotRule};
use scan_algorithms::sort::radix::split_radix_sort_ctx;
use scan_circuit::BitslicedScans;
use scan_core::simulate::SoftwareScans;
use scan_fault::{CheckedExecutor, FaultPlan, FaultyCircuitBackend, SplitMix64};
use scan_pram::{Ctx, Model};

const SEED: u64 = 0xB1E110C4;

/// A checked executor over a shared faulty circuit, so the test can
/// read the fault counters after the algorithms have run.
fn checked_faulty() -> (Rc<FaultyCircuitBackend>, Rc<CheckedExecutor>) {
    let faulty = Rc::new(FaultyCircuitBackend::new(64, FaultPlan::new(SEED)));
    let executor = CheckedExecutor::new(Box::new(faulty.clone()))
        .with_retries(2)
        .with_fallback(Box::new(BitslicedScans::new(64)))
        .with_fallback(Box::new(SoftwareScans));
    (faulty, Rc::new(executor))
}

fn ctx_with(executor: &Rc<CheckedExecutor>) -> Ctx {
    Ctx::new(Model::Scan).with_backend(executor.clone())
}

#[test]
fn five_headline_algorithms_survive_a_fault_campaign() {
    let (faulty, executor) = checked_faulty();
    let mut rng = SplitMix64(SEED ^ 0xDECAF);

    // 1. Split radix sort.
    let keys: Vec<u64> = (0..96).map(|_| rng.next() & 0xFFFF).collect();
    let mut expect = keys.clone();
    expect.sort_unstable();
    let got = split_radix_sort_ctx(&mut ctx_with(&executor), &keys, 16);
    assert_eq!(got, expect, "radix sort corrupted");

    // 2. Quicksort.
    let keys: Vec<u64> = (0..80).map(|_| rng.next() & 0xFFFF).collect();
    let mut expect = keys.clone();
    expect.sort_unstable();
    let got = quicksort_ctx(&mut ctx_with(&executor), &keys, PivotRule::Random(7));
    assert_eq!(got.keys, expect, "quicksort corrupted");

    // 3. Minimum spanning tree (random connected-ish graph).
    let n_vertices = 14;
    let mut edges: Vec<(usize, usize, u64)> = (1..n_vertices)
        .map(|v| (v - 1, v, rng.below(90) + 1))
        .collect();
    for _ in 0..24 {
        let u = rng.below(n_vertices as u64) as usize;
        let v = rng.below(n_vertices as u64) as usize;
        if u != v {
            edges.push((u, v, rng.below(90) + 1));
        }
    }
    let got = minimum_spanning_tree_ctx(&mut ctx_with(&executor), n_vertices, &edges, 11);
    let (expect_edges, expect_weight) = kruskal(n_vertices, &edges);
    assert_eq!(got.edges, expect_edges, "MST corrupted");
    assert_eq!(got.total_weight, expect_weight);

    // 4. Line of sight.
    let altitudes: Vec<f64> = (0..128)
        .map(|i| ((i as f64) * 0.37).sin() * 50.0 + (rng.below(100) as f64))
        .collect();
    let got = line_of_sight_ctx(&mut ctx_with(&executor), 10.0, &altitudes);
    assert_eq!(
        got,
        line_of_sight(10.0, &altitudes),
        "line of sight corrupted"
    );

    // 5. Halving merge.
    let mut a: Vec<u64> = (0..64).map(|_| rng.next() & 0xFFFF).collect();
    let mut b: Vec<u64> = (0..64).map(|_| rng.next() & 0xFFFF).collect();
    a.sort_unstable();
    b.sort_unstable();
    let mut expect: Vec<u64> = a.iter().chain(&b).copied().collect();
    expect.sort_unstable();
    let got = halving_merge_ctx(&mut ctx_with(&executor), &a, &b);
    assert_eq!(got, expect, "halving merge corrupted");

    // Campaign accounting.
    let stats = executor.stats();
    let flips = faulty.flips();
    let distinct = faulty.distinct_sites_hit();
    assert!(
        distinct >= 100,
        "campaign must flip >= 100 distinct circuit bits, flipped {distinct}"
    );
    assert!(flips >= distinct as u64);
    assert!(
        stats.detections > 0,
        "a plan faulting every scan must trip the verifier"
    );
    assert_eq!(
        stats.rescues, 0,
        "the clean fallbacks must absorb every failure"
    );
    // Every scan the executor *returned* was verified, so corrupted
    // outputs and detections coincide: the undetected remainder of the
    // flips is exactly the masked (output-preserving) population.
    let rate = stats.detections as f64 / flips as f64;
    println!(
        "fault campaign: {} scans, {} landed single-bit flips over {} distinct sites, \
         {} detected ({} masked) -> single-bit fault detection rate {:.1}%, \
         {} retries, {} fallbacks, 0 rescues",
        stats.scans,
        flips,
        distinct,
        stats.detections,
        flips - stats.detections,
        rate * 100.0,
        stats.retries,
        stats.fallbacks
    );
    assert!(rate > 0.2, "implausibly low detection rate {rate}");
}

#[test]
fn campaign_is_reproducible_from_its_seed() {
    let run = || {
        let (faulty, executor) = checked_faulty();
        let keys: Vec<u64> = (0..48).map(|i| (i * 131) % 251).collect();
        let got = split_radix_sort_ctx(&mut ctx_with(&executor), &keys, 8);
        (got, executor.stats(), faulty.flips())
    };
    assert_eq!(run(), run(), "same seed must replay the same campaign");
}

#[test]
fn adversarial_inputs_surface_typed_errors_not_panics() {
    use scan_fault::plan::adversarial;

    for seed in 0..16u64 {
        let n = 12;
        let data: Vec<u64> = (0..n as u64).collect();

        let dup = adversarial::duplicate_permute_indices(n, seed);
        assert!(matches!(
            scan_core::ops::try_permute(&data, &dup),
            Err(scan_core::Error::DuplicateIndex { .. })
        ));

        let oob = adversarial::out_of_bounds_indices(n, seed);
        assert!(matches!(
            scan_core::ops::try_gather(&data, &oob),
            Err(scan_core::Error::IndexOutOfBounds { .. })
        ));

        let flags = adversarial::mismatched_flags(n, seed);
        assert!(matches!(
            scan_core::ops::try_pack(&data, &flags),
            Err(scan_core::Error::LengthMismatch { .. })
        ));

        let wide = adversarial::width_overflow_values(n, 8, seed);
        let mut circuit = scan_circuit::TreeScanCircuit::new(16);
        assert!(matches!(
            circuit.try_scan(scan_circuit::OpKind::Plus, &wide, 8),
            Err(scan_core::Error::WidthOverflow { .. })
        ));
    }
}

#[test]
fn vm_programs_on_faulty_backends_stay_typed() {
    use scan_pram::{Instr, Vm, VmLimits};

    // A VM with a tight budget over a checked faulty backend: the
    // program either completes with correct values or stops with a
    // typed budget error — never a panic, never silent corruption.
    let (_faulty, executor) = checked_faulty();
    let mut vm = Vm::with_ctx(Ctx::new(Model::Scan).with_backend(executor.clone()));
    vm.set_limits(VmLimits::default().with_max_steps(1_000));
    let data: Vec<u64> = (0..32).map(|i| (i * 7) % 101).collect();
    vm.load("a", data.clone());
    let program = [
        Instr::PlusScan {
            dst: "ps",
            src: "a",
        },
        Instr::MaxScan {
            dst: "ms",
            src: "a",
        },
    ];
    match vm.run(&program) {
        Ok(()) => {
            assert_eq!(
                vm.get("ps").unwrap(),
                scan_core::scan::<scan_core::Sum, _>(&data)
            );
            assert_eq!(
                vm.get("ms").unwrap(),
                scan_core::scan::<scan_core::Max, _>(&data)
            );
        }
        Err(e) => panic!("typed error unexpected for this budget: {e}"),
    }
}
