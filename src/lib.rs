//! # blelloch-scan
//!
//! A from-scratch Rust reproduction of Guy E. Blelloch, *Scans as
//! Primitive Parallel Operations* (ICPP 1987): the scan primitives and
//! vector operation vocabulary, the scan machine model with step
//! accounting, the logic-level hardware circuit of Section 3, and the
//! full algorithm suite of Section 2 and Table 1.
//!
//! This facade crate re-exports the four member crates:
//!
//! - [`core`] (`scan-core`) — scans, segmented scans, derived vector
//!   operations, and the §3.4 two-primitive simulation layer;
//! - [`pram`] (`scan-pram`) — P-RAM machine models (EREW/CREW/CRCW and
//!   the scan model) with measured step complexity;
//! - [`circuit`] (`scan-circuit`) — the cycle-accurate bit-pipelined
//!   tree scan circuit and the Table 2/4 cost models;
//! - [`shard`] (`scan-shard`) — sharded execution: one scan fanned
//!   across independent shard threads with the §3 tree combine of
//!   per-shard totals, shard-loss detection and recovery (inline
//!   recomputation of lost ranges, breaker quarantine, probe
//!   readmission), and graceful degradation;
//! - [`service`] (`scan-service`) — the multi-tenant serving layer: a
//!   coalescing front door that batches many small concurrent scan
//!   requests into one segmented-scan mega-batch, with admission
//!   control, per-tenant fairness, deadline propagation, and
//!   overload-graceful degradation;
//! - [`algorithms`] (`scan-algorithms`) — split radix sort, quicksort,
//!   halving merge, MST, connected components, MIS, line drawing,
//!   line of sight, convex hull, k-d trees, closest pair, list
//!   ranking, Euler tours, matrix kernels, and the appendix numerics.
//!
//! ## Quickstart
//!
//! ```
//! use blelloch_scan::core::{scan, op::Sum};
//! use blelloch_scan::algorithms::sort::split_radix_sort;
//!
//! // The paper's +-scan:
//! assert_eq!(scan::<Sum, _>(&[2u32, 1, 2, 3, 5, 8, 13, 21]),
//!            vec![0, 2, 3, 5, 8, 13, 21, 34]);
//!
//! // And the sort built on it:
//! assert_eq!(split_radix_sort(&[5, 7, 3, 1, 4, 2, 7, 2], 3),
//!            vec![1, 2, 2, 3, 4, 5, 7, 7]);
//! ```

#![warn(missing_docs)]

pub use scan_algorithms as algorithms;
pub use scan_circuit as circuit;
pub use scan_core as core;
pub use scan_pram as pram;
pub use scan_service as service;
pub use scan_shard as shard;
