//! # scan-core
//!
//! The primary contribution of Blelloch's *Scans as Primitive Parallel
//! Operations* (ICPP 1987): scan (prefix) primitives, segmented scans, and
//! the vocabulary of vector operations derived from them.
//!
//! The paper defines a **scan** as taking a binary associative operator `⊕`
//! with identity `i` and an ordered set `[a0, a1, ..., a(n-1)]`, returning
//! `[i, a0, a0⊕a1, ..., a0⊕a1⊕...⊕a(n-2)]` — i.e. an *exclusive* prefix
//! operation. This crate provides:
//!
//! - the five primitive scan operators the paper uses (`+`, `max`, `min`,
//!   `or`, `and`), in forward and backward directions, exclusive and
//!   inclusive, all described by one value, [`Scan`] ([`mod@scan`],
//!   [`ops`]);
//! - segmented versions of all scans, which restart at segment boundaries
//!   ([`segmented`], paper §2.3);
//! - parallel execution kernels (blocked two-pass over a persistent
//!   worker pool, [`parallel`] + [`pool`]), falling back to
//!   sequential code below a threshold; set `SCAN_CORE_THREADS` to pin
//!   the width and `SCAN_CORE_SIMD=0` to keep the radix scatter's
//!   stores plain, not streamed ([`simd`]);
//! - the derived "simple operations" of §2.2 — `enumerate`, `copy`,
//!   `+-distribute`, `permute`, `split`, `pack` ([`ops`]) — and their
//!   segmented counterparts ([`segops`], §2.3);
//! - processor allocation (§2.4) in [`mod@allocate`];
//! - the §3.4 construction showing that *every* scan in the paper can be
//!   simulated with just two primitives, an integer `+-scan` and
//!   `max-scan` ([`simulate`]).
//!
//! ## Conventions
//!
//! Unless a function says otherwise, *scan* means the paper's exclusive
//! forward scan. Segment flag vectors mark the **start** of each segment;
//! element 0 always begins a segment whether or not its flag is set.
//!
//! ## Example
//!
//! ```
//! use scan_core::{scan, op::Sum};
//!
//! // Paper §2.1: A = [2 1 2 3 5 8 13 21], +-scan(A) = [0 2 3 5 8 13 21 34]
//! let a = [2u32, 1, 2, 3, 5, 8, 13, 21];
//! assert_eq!(scan::<Sum, _>(&a), vec![0, 2, 3, 5, 8, 13, 21, 34]);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod allocate;
pub mod deadline;
pub mod element;
pub mod error;
pub mod multi_split;
pub mod op;
pub mod ops;
pub mod parallel;
pub mod pool;
pub mod scan;
pub mod segmented;
pub mod segops;
pub mod simd;
pub mod simulate;
pub mod stream;
pub mod sync;
pub mod vector;

pub use allocate::{allocate, distribute, try_distribute, Allocation};
pub use deadline::ScanDeadline;
pub use element::ScanElem;
pub use error::{Error, ExecError, Result};
pub use multi_split::{
    multi_split_by, multi_split_into, try_multi_split_by, try_multi_split_into, MultiSplitScratch,
};
pub use op::{And, Max, Min, Or, Prod, ScanKind, ScanOp, Sum};
pub use scan::{
    inclusive_scan, inclusive_scan_backward, reduce, scan, scan_backward, scan_with_total, Scan,
};
pub use segmented::{seg_inclusive_scan, seg_scan, seg_scan_backward, Segments};
pub use stream::{
    CarryCheckpoint, CarryDigest, ChunkSource, ScanStream, SegScanStream, SliceSource,
};

/// Convenience prelude: `use scan_core::prelude::*;`
pub mod prelude {
    pub use crate::allocate::{allocate, distribute, try_distribute};
    pub use crate::deadline::{with_deadline, ScanDeadline};
    pub use crate::op::{And, Max, Min, Or, Prod, ScanOp, Sum};
    pub use crate::ops::{
        copy_first, count, distribute_op, enumerate, flag_merge, gather, pack, permute, split,
        split3, split_count, try_copy_first, try_flag_merge, try_gather, try_pack, try_permute,
        try_select, try_split, try_split3, try_split_count,
    };
    pub use crate::scan::{
        inclusive_scan, inclusive_scan_backward, reduce, scan, scan_backward, scan_with_total, Scan,
    };
    pub use crate::segmented::{seg_inclusive_scan, seg_scan, seg_scan_backward, Segments};
    pub use crate::segops::{
        seg_copy, seg_distribute, seg_enumerate, seg_reduce, seg_split, seg_split3, try_seg_copy,
        try_seg_distribute, try_seg_reduce, try_seg_split, try_seg_split3,
    };
}
