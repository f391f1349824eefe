//! Table 2 reproduction: a scan costs no more than a shared-memory
//! reference, in theory and "in hardware" — here, on the cycle-accurate
//! circuit simulator versus a butterfly-network reference model —
//! plus the §3.3 example system timings.
//!
//! Run with: `cargo run -p scan-bench --release --bin table2`

use scan_bench::{print_row, print_rule, random_keys};
use scan_circuit::{baseline, ExampleSystem, HardwareCost, OpKind, TreeScanCircuit};

fn main() {
    println!("Table 2 — memory reference vs scan operation\n");
    println!("Theoretical rows (models, n processors):");
    let widths = [34, 22, 22];
    print_row(
        &[
            "".into(),
            "memory reference".into(),
            "scan operation".into(),
        ],
        &widths,
    );
    print_rule(&widths);
    print_row(
        &[
            "VLSI time".into(),
            "O(lg n)   [Leighton]".into(),
            "O(lg n) [Leiserson]".into(),
        ],
        &widths,
    );
    print_row(
        &[
            "VLSI area (model @ n=64K)".into(),
            format!("{:.2e}", baseline::network_area_model(1 << 16)),
            format!("{:.2e}", baseline::scan_area_model(1 << 16)),
        ],
        &widths,
    );
    print_row(
        &[
            "circuit depth".into(),
            "O(lg n)  [AKS]".into(),
            "O(lg n)  [Fich]".into(),
        ],
        &widths,
    );
    print_row(
        &[
            "circuit size (components @64K)".into(),
            format!("{}", baseline::butterfly_switches(1 << 16)),
            format!("{}", HardwareCost::for_leaves(1 << 16).size_components()),
        ],
        &widths,
    );
    print_rule(&widths);

    println!("\nMeasured rows (64K processors, 32-bit fields — the CM-2 point;");
    println!("the paper reports 600 cycles for a reference, 550 for a scan):\n");
    // The model numbers...
    let n = 1 << 16;
    let model_scan = baseline::scan_bit_cycles(n, 32);
    let model_ref = baseline::memory_reference_bit_cycles(n, 32);
    // ...and the scan measured on the actual simulated circuit. The
    // full 64K-leaf circuit is large; simulate it exactly.
    let values = random_keys(n, 32, 7);
    let mut circuit = TreeScanCircuit::new(n);
    let run = circuit.scan(OpKind::Plus, &values, 32);
    let widths = [34, 22, 22];
    print_row(
        &[
            "".into(),
            "memory reference".into(),
            "scan operation".into(),
        ],
        &widths,
    );
    print_rule(&widths);
    print_row(
        &[
            "bit cycles (model)".into(),
            model_ref.to_string(),
            model_scan.to_string(),
        ],
        &widths,
    );
    // Measured on the packet-level butterfly simulator: a full random
    // permutation of 32-bit reads (request + pipelined reply).
    let router = scan_circuit::ButterflyRouter::new(n);
    let mut perm: Vec<usize> = (0..n).collect();
    let mut x = 0x1234_5678_9abc_def0u64;
    for i in (1..n).rev() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (x >> 33) as usize % (i + 1);
        perm.swap(i, j);
    }
    let router_bits = 2 * router.reference_bit_cycles(&perm, 32);
    print_row(
        &[
            "bit cycles (simulated router)".into(),
            router_bits.to_string(),
            "-".into(),
        ],
        &widths,
    );
    print_row(
        &[
            "bit cycles (simulated circuit)".into(),
            "-".into(),
            run.cycles.to_string(),
        ],
        &widths,
    );
    // Segmented scans in hardware cost one extra bit cycle (the flag
    // leads each frame) — §3's "little additional hardware".
    let mut seg_circuit = scan_circuit::SegTreeScanCircuit::new(n);
    let flags: Vec<bool> = (0..n).map(|i| i % 16 == 0).collect();
    let seg_run = seg_circuit.seg_scan(scan_circuit::OpKind::Plus, &values, &flags, 32);
    print_row(
        &[
            "  segmented scan (simulated)".into(),
            "-".into(),
            seg_run.cycles.to_string(),
        ],
        &widths,
    );
    print_row(
        &[
            "extra hardware needed".into(),
            "the router itself".into(),
            "0 (shares wires)".into(),
        ],
        &widths,
    );
    print_rule(&widths);
    println!(
        "\nShape check: scan ({}) <= reference (model {}, simulated router {}) —",
        run.cycles, model_ref, router_bits
    );
    println!("as in the paper, where the scan (550) beat the reference (600) on");
    println!("the CM-2.");

    // Correctness of the giant run, spot-checked.
    let mut acc = 0u64;
    for (i, &v) in values.iter().enumerate() {
        if i % 9999 == 0 {
            assert_eq!(run.values[i], acc & 0xFFFF_FFFF);
        }
        acc = (acc + v) & 0xFFFF_FFFF;
    }
    println!("(64K-leaf circuit output spot-verified against software.)");

    println!("\n§3.3 example system (4096 processors, 64 per board):");
    let sys = ExampleSystem::paper_config();
    println!(
        "  per-board chip: {} sum state machines, {} shift registers (paper: 126, 63)",
        sys.state_machines_per_chip(),
        sys.shift_registers_per_chip()
    );
    println!(
        "  32-bit scan @100ns clock: {:.1} us  (paper: ~5 us)",
        sys.scan_time_us(32)
    );
    let fast = ExampleSystem {
        clock_ns: 10.0,
        ..sys
    };
    println!(
        "  32-bit scan @ 10ns clock: {:.2} us (paper: ~0.5 us)",
        fast.scan_time_us(32)
    );
}
