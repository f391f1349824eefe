//! The rule catalog (DESIGN.md §16).
//!
//! | rule | id | checks |
//! |------|----|--------|
//! | R1 | `safety-comment` | every `unsafe` has an adjacent `// SAFETY:` |
//! | R2 | `unsafe-allowlist` | `unsafe` only in audited kernel modules |
//! | R3 | `no-raw-spawn` | threads only from the worker/shard pools |
//! | R4 | `no-raw-clock` | wall time only through the deadline module |
//! | R5 | `crate-lints` | crate roots pin deny/forbid lint attributes |
//! | R6 | `simd-confinement` | ISA detection only in `simd.rs` |
//! | R7 | `panic-reachability` | `pub fn try_*` cannot reach a panic |
//! | R8 | `atomics-confinement` | atomics only in audited sync modules |
//! | R9 | `channel-isolation` | executor↔shard boundary stays channel-only |
//! | R10 | `error-taxonomy` | pub `Result` APIs use typed errors |
//!
//! Plus the suppression hygiene rules `suppression-syntax` and
//! `unused-suppression` emitted by the diagnostics layer.

pub mod boundaries;
pub mod confinement;
pub mod panic_reach;
pub mod safety;

use crate::diag::Report;
use crate::model::Workspace;

/// Files allowed to contain `unsafe` (the audited kernel modules).
pub const UNSAFE_ALLOWLIST: [&str; 4] = [
    "crates/scan-core/src/parallel.rs",
    "crates/scan-core/src/pool.rs",
    "crates/scan-core/src/multi_split.rs",
    "crates/scan-core/src/simd.rs",
];

/// The files allowed to spawn threads directly: the worker pool and
/// the shard supervisors (long-lived, individually killable threads).
pub const SPAWN_ALLOWLIST: [&str; 2] = [
    "crates/scan-core/src/pool.rs",
    "crates/scan-shard/src/pool.rs",
];

/// The one file allowed to read the wall clock.
pub const CLOCK_ALLOWLIST: &str = "crates/scan-core/src/deadline.rs";

/// The one file allowed to detect or gate on CPU features.
pub const SIMD_ALLOWLIST: &str = "crates/scan-core/src/simd.rs";

/// The audited sync modules allowed to hold atomic types and memory
/// orderings: the swap points, the pools, the clock, and the service's
/// slot-flag cell.
pub const ATOMICS_ALLOWLIST: [&str; 5] = [
    "crates/scan-core/src/sync.rs",
    "crates/scan-core/src/pool.rs",
    "crates/scan-core/src/deadline.rs",
    "crates/scan-shard/src/pool.rs",
    "crates/scan-service/src/sync.rs",
];

/// The crate root that holds `unsafe` and therefore carries
/// `deny(unsafe_op_in_unsafe_fn)` instead of `forbid(unsafe_code)`.
pub const UNSAFE_CRATE_ROOT: &str = "crates/scan-core/src/lib.rs";

/// Is this path inside a `src/` tree of a workspace crate (the scope
/// of the confinement rules), excluding `src/bin/` utilities?
pub fn in_library_src(rel: &str) -> bool {
    (rel.starts_with("crates/") || rel.starts_with("src/"))
        && rel.contains("/src/")
        && !rel.contains("/bin/")
        || rel.starts_with("src/") && !rel.contains("/bin/")
}

/// Run every rule over the workspace and return the (unsorted,
/// unsuppressed) findings.
pub fn run_all(ws: &Workspace) -> Report {
    let mut report = Report::default();
    safety::check(ws, &mut report);
    confinement::check(ws, &mut report);
    panic_reach::check(ws, &mut report);
    boundaries::check(ws, &mut report);
    report
}
