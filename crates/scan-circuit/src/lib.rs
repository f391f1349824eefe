//! # scan-circuit
//!
//! A logic-level, cycle-accurate simulation of the hardware described in
//! Section 3 of *Scans as Primitive Parallel Operations*: the
//! bit-pipelined balanced-binary-tree circuit that executes the two
//! primitive scans, `+-scan` and `max-scan`, in `m + 2 lg n` bit cycles
//! over `m`-bit fields and `n` leaves.
//!
//! The simulation is faithful to the paper's component inventory:
//!
//! - [`unit::SumStateMachine`] — the three-flip-flop state machine of
//!   Figure 15, stepped one bit per clock, executing either a serial
//!   addition (LSB first) or a serial maximum (MSB first) depending on
//!   the `Op` control line;
//! - [`unit::ShiftRegister`] — the variable-length FIFO of Figure 14
//!   that holds the left child's bits between the up sweep and the down
//!   sweep (`2i` bits at depth `i` from the root; length 0 at the root,
//!   which is why values "are automatically reflected back down");
//! - [`tree::TreeScanCircuit`] — the balanced tree of units (Figure 13's
//!   layout) clocked cycle by cycle, operands entering the leaves one
//!   bit per cycle and exclusive-scan results leaving the leaves one bit
//!   per cycle;
//! - [`tree::tree_scan_trace`] — the word-level two-sweep tree algorithm
//!   of §3.1 with the per-unit memory trace of Figure 13;
//! - [`cost`] — hardware accounting (state machines, FIFO bits, wires)
//!   and the §3.3 example system (4096 processors, 64 boards);
//! - [`baseline`] — bit-serial cost models for the comparisons the
//!   paper makes: a shared-memory reference through a butterfly network
//!   (Table 2) and Batcher's bitonic sort (Table 4);
//! - [`backend::CircuitBackend`] — an implementation of
//!   `scan_core::simulate::PrimitiveScans` that routes every primitive
//!   scan through the simulated hardware, so the whole §3.4 simulation
//!   layer can run on the circuit.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod backend;
pub mod baseline;
pub mod bitsliced;
pub mod cost;
pub mod router;
pub mod seg_tree;
pub mod tree;
pub mod unit;

pub use backend::CircuitBackend;
pub use bitsliced::{BitSlicedVec, BitslicedScans};
pub use cost::{ExampleSystem, HardwareCost};
pub use router::{bit_reversal_permutation, ButterflyRouter, RouteRun};
pub use seg_tree::{SegCircuitRun, SegTreeScanCircuit};
pub use tree::{tree_scan_trace, CircuitFault, CircuitRun, FaultSite, OpKind, TreeScanCircuit};
pub use unit::{ShiftRegister, SumStateMachine};
