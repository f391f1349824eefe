//! The PARIS-style vector instruction set: the paper's operations as a
//! register machine, with step counting along for the ride.
//!
//! Run with: `cargo run --example paris_vm`

use blelloch_scan::pram::vm::{radix_pass_program, Instr, Vm};
use blelloch_scan::pram::Model;

fn main() {
    // Figure 2's radix sort, written as straight-line vector programs.
    let mut vm = Vm::new(Model::Scan);
    vm.load("keys", vec![5, 7, 3, 1, 4, 2, 7, 2]);
    println!("keys        = {:?}", vm.get("keys").unwrap());
    for bit in 0..3 {
        vm.run(&radix_pass_program(bit)).expect("valid program");
        println!("after bit {bit} = {:?}", vm.get("keys").unwrap());
    }
    println!("steps: {}\n", vm.stats());

    // A hand-written program: distance of every element to the running
    // maximum (a max-scan followed by a subtract).
    let mut vm = Vm::new(Model::Scan);
    vm.load("a", vec![3, 1, 4, 1, 5, 9, 2, 6]);
    vm.run(&[
        Instr::MaxScan { dst: "m", src: "a" },
        Instr::MaxV {
            dst: "m",
            a: "m",
            b: "a",
        }, // inclusive max
        Instr::Sub {
            dst: "gap",
            a: "m",
            b: "a",
        },
    ])
    .expect("valid program");
    println!("a            = {:?}", vm.get("a").unwrap());
    println!("running max  = {:?}", vm.get("m").unwrap());
    println!("gap to max   = {:?}", vm.get("gap").unwrap());

    // Segmented programs: per-segment sums in two instructions.
    let mut vm = Vm::new(Model::Scan);
    vm.load("a", vec![5, 1, 3, 4, 3, 9, 2, 6]);
    vm.load("heads", vec![1, 0, 1, 0, 0, 0, 1, 0]);
    vm.run(&[
        Instr::SegPlusScan {
            dst: "s",
            src: "a",
            flags: "heads",
        },
        Instr::Add {
            dst: "incl",
            a: "s",
            b: "a",
        },
    ])
    .expect("valid program");
    println!("\nsegmented exclusive sums = {:?}", vm.get("s").unwrap());
    println!("segmented inclusive sums = {:?}", vm.get("incl").unwrap());

    // Errors are first-class: reading an unwritten register fails.
    let mut vm = Vm::new(Model::Scan);
    let err = vm
        .step(Instr::PlusScan {
            dst: "x",
            src: "missing",
        })
        .unwrap_err();
    println!("\nexpected program error: {err}");
}
