//! R3 `no-raw-spawn`, R4 `no-raw-clock`, R6 `simd-confinement`,
//! R8 `atomics-confinement`.
//!
//! The confinement family keeps capability-like APIs (threads, the
//! wall clock, ISA detection, atomics) inside single audited modules,
//! so the loom model, the deadline token, the ISA dispatch and
//! the Release/Acquire publication protocols each have exactly one
//! home — and ROADMAP item 3's multi-process transport can swap the
//! internals without a workspace-wide audit.

use crate::diag::{Report, Violation};
use crate::model::Workspace;
use crate::parse::TokKind;
use crate::rules::{
    in_library_src, ATOMICS_ALLOWLIST, CLOCK_ALLOWLIST, SIMD_ALLOWLIST, SPAWN_ALLOWLIST,
};

/// The atomic type names R8 confines.
const ATOMIC_TYPES: [&str; 13] = [
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
    "AtomicCell",
];

/// The five memory-ordering literals (as `Ordering::X` paths, so
/// `std::cmp::Ordering::{Less,Equal,Greater}` never match).
const MEM_ORDERINGS: [&str; 5] = [
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// Atomic read-modify-write method names whose calls must spell an
/// explicit `Ordering::` argument.
const ATOMIC_OPS: [&str; 14] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_min",
    "fetch_max",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Run the confinement rules.
pub fn check(ws: &Workspace, out: &mut Report) {
    for file in &ws.files {
        let rel = file.rel.as_str();
        let lx = &file.lexed;

        // R6: ISA dispatch confinement. Strict scope — benches, bins
        // and test modules included: code that wants an ISA-specific
        // path asks `simd::active_isa`, never re-detects the CPU.
        if rel != SIMD_ALLOWLIST {
            for pat in ["is_x86_feature_detected", "target_feature"] {
                for &(l, c) in &lx.word_spans(pat) {
                    out.violations.push(Violation::error(
                        "simd-confinement",
                        rel,
                        l + 1,
                        c + 1,
                        format!("`{pat}` outside {SIMD_ALLOWLIST}: use its dispatch decision"),
                    ));
                }
            }
        }

        // R3/R4/R8 scope: library sources only; test modules exempt.
        if !in_library_src(rel) {
            continue;
        }
        let in_test = &file.in_test;

        if !SPAWN_ALLOWLIST.contains(&rel) {
            for pat in ["thread::spawn", "thread::Builder", "thread::scope"] {
                for &(l, c) in &lx.path_spans(pat) {
                    if !in_test[l] {
                        out.violations.push(Violation::error(
                            "no-raw-spawn",
                            rel,
                            l + 1,
                            c + 1,
                            format!(
                                "`{pat}` outside {}: use the worker pool",
                                SPAWN_ALLOWLIST.join(", ")
                            ),
                        ));
                    }
                }
            }
        }

        if rel != CLOCK_ALLOWLIST {
            for &(l, c) in &lx.path_spans("Instant::now") {
                if !in_test[l] {
                    out.violations.push(Violation::error(
                        "no-raw-clock",
                        rel,
                        l + 1,
                        c + 1,
                        format!(
                            "`Instant::now` outside {CLOCK_ALLOWLIST}: take time through ScanDeadline"
                        ),
                    ));
                }
            }
        }

        // R8: atomics confinement.
        if ATOMICS_ALLOWLIST.contains(&rel) {
            check_explicit_orderings(file, out);
        } else {
            check_no_atomics(file, out);
        }
    }
}

/// Outside the allowlist: no atomic type names, no memory-ordering
/// literals, no `sync::atomic` imports. One finding per line.
fn check_no_atomics(file: &crate::model::FileModel, out: &mut Report) {
    let lx = &file.lexed;
    for (l, line) in lx.code.iter().enumerate() {
        if file.in_test[l] {
            continue;
        }
        let hit = ATOMIC_TYPES
            .iter()
            .find_map(|t| crate::lexer::find_word(line, t).map(|c| (c, *t)))
            .or_else(|| {
                MEM_ORDERINGS
                    .iter()
                    .find_map(|p| crate::lexer::find_path(line, p).map(|c| (c, *p)))
            })
            .or_else(|| crate::lexer::find_path(line, "sync::atomic").map(|c| (c, "sync::atomic")));
        if let Some((c, what)) = hit {
            let mut v = Violation::error(
                "atomics-confinement",
                &file.rel,
                l + 1,
                c + 1,
                format!("`{what}` outside the audited sync modules"),
            );
            v.notes.push(format!(
                "atomics and memory orderings are confined to: {}",
                ATOMICS_ALLOWLIST.join(", ")
            ));
            out.violations.push(v);
        }
    }
}

/// Inside the allowlist: every atomic op call must spell an explicit
/// `Ordering::` argument (no `use Ordering::*` shorthand) so the
/// protocol is auditable at the call site.
fn check_explicit_orderings(file: &crate::model::FileModel, out: &mut Report) {
    let toks = &file.parsed.toks;
    let mat = &file.parsed.mat;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !ATOMIC_OPS.contains(&t.text.as_str()) {
            continue;
        }
        // Method-call syntax only: `.op(`.
        if i == 0 || !toks[i - 1].is_punct(".") {
            continue;
        }
        let Some(open) = toks.get(i + 1).filter(|n| n.is_punct("(")).map(|_| i + 1) else {
            continue;
        };
        if file.in_test.get(t.line).copied().unwrap_or(false) {
            continue;
        }
        let close = mat[open].unwrap_or(toks.len().saturating_sub(1));
        let has_ordering = (open..close)
            .any(|k| toks[k].is("Ordering") && toks.get(k + 1).is_some_and(|n| n.is_punct("::")));
        if !has_ordering {
            out.violations.push(Violation::error(
                "atomics-confinement",
                &file.rel,
                t.line + 1,
                t.col + 1,
                format!(
                    "atomic `.{}(..)` without an explicit `Ordering::` argument",
                    t.text
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::{rules, Tree};

    #[test]
    fn raw_spawn_outside_pool_is_flagged() {
        let t = Tree::new();
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() { std::thread::spawn(|| {}); }\n",
        );
        assert_eq!(rules(&t.lint()), vec!["no-raw-spawn"]);
    }

    #[test]
    fn raw_spawn_in_pool_test_mod_or_bin_is_allowed() {
        let t = Tree::new();
        t.write(
            "crates/scan-core/src/pool.rs",
            "pub fn f() { thread::Builder::new(); }\n",
        );
        t.write(
            "crates/demo/src/bin/bench.rs",
            "fn main() { std::thread::spawn(|| {}); }\n",
        );
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { std::thread::spawn(|| {}).join().unwrap(); }\n}\n",
        );
        assert_eq!(t.lint(), vec![]);
    }

    #[test]
    fn scoped_spawn_outside_pool_is_flagged_but_not_in_tests() {
        // `thread::scope` starts threads as surely as `thread::spawn`.
        let t = Tree::new();
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n}\n",
        );
        let vs = t.lint();
        assert_eq!(rules(&vs), vec!["no-raw-spawn"]);
        assert_eq!(vs[0].line, 2);
    }

    #[test]
    fn shard_pool_is_the_only_new_spawn_site() {
        // The shard supervisors may spawn (one thread per shard);
        // the rest of the scan-shard crate — the executor in
        // particular — must go through them.
        let t = Tree::new();
        t.write(
            "crates/scan-shard/src/pool.rs",
            "pub fn f() { thread::Builder::new(); }\n",
        );
        t.write(
            "crates/scan-shard/src/executor.rs",
            "pub fn f() { std::thread::spawn(|| {}); }\n",
        );
        let vs = t.lint();
        assert_eq!(rules(&vs), vec!["no-raw-spawn"]);
        assert_eq!(vs[0].path, "crates/scan-shard/src/executor.rs");
    }

    #[test]
    fn raw_clock_outside_deadline_is_flagged() {
        let t = Tree::new();
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() { let _ = std::time::Instant::now(); }\n",
        );
        assert_eq!(rules(&t.lint()), vec!["no-raw-clock"]);
    }

    #[test]
    fn serving_crate_is_covered_by_spawn_and_clock_confinement() {
        // The serving layer's leader–follower design depends on these
        // rules having no carve-out for it: a dispatcher thread or a
        // raw clock in `scan-service` library code must be caught
        // exactly like anywhere else — its timing flows through
        // `ScanDeadline` tokens and its workforce is the submitters.
        let t = Tree::new();
        t.write(
            "crates/scan-service/src/service.rs",
            "pub fn lead() { std::thread::spawn(|| {}); let _ = std::time::Instant::now(); }\n",
        );
        let mut vs = rules(&t.lint());
        vs.sort_unstable();
        assert_eq!(vs, vec!["no-raw-clock", "no-raw-spawn"]);
    }

    #[test]
    fn simd_dispatch_outside_simd_module_is_flagged() {
        let t = Tree::new();
        // Runtime detection smuggled into an engine module...
        t.write(
            "crates/scan-core/src/parallel.rs",
            "pub fn fast() -> bool { std::arch::is_x86_feature_detected!(\"avx2\") }\n",
        );
        // ...a compile-time gate in a bench binary...
        t.write(
            "crates/demo/src/bin/bench.rs",
            "#[cfg(target_feature = \"avx2\")]\nfn main() {}\n",
        );
        // ...and a `#[target_feature]` kernel outside the dispatch module.
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\n#[target_feature(enable = \"avx2\")]\nfn k() {}\n",
        );
        let mut vs = rules(&t.lint());
        vs.sort_unstable();
        assert_eq!(
            vs,
            vec!["simd-confinement", "simd-confinement", "simd-confinement"]
        );
    }

    #[test]
    fn simd_dispatch_in_simd_module_is_allowed() {
        let t = Tree::new();
        t.write(
            "crates/scan-core/src/simd.rs",
            "#[target_feature(enable = \"avx2\")]\nfn k() {}\npub fn have() -> bool { std::arch::is_x86_feature_detected!(\"avx2\") }\n",
        );
        assert_eq!(t.lint(), vec![]);
    }

    #[test]
    fn raw_clock_in_deadline_is_allowed() {
        let t = Tree::new();
        t.write(
            "crates/scan-core/src/deadline.rs",
            "pub fn now() -> std::time::Instant { std::time::Instant::now() }\n",
        );
        assert_eq!(t.lint(), vec![]);
    }

    // -- R8 ------------------------------------------------------------------

    #[test]
    fn atomics_outside_sync_modules_are_flagged() {
        let t = Tree::new();
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\nuse std::sync::atomic::{AtomicUsize, Ordering};\npub fn f(a: &AtomicUsize) { a.store(1, Ordering::Relaxed); }\n",
        );
        let vs = t.lint();
        assert_eq!(
            rules(&vs),
            vec!["atomics-confinement", "atomics-confinement"],
            "one finding per offending line"
        );
        assert_eq!(vs[0].line, 2);
        assert_eq!(vs[1].line, 3);
    }

    #[test]
    fn atomics_in_sync_modules_are_allowed() {
        let t = Tree::new();
        t.write(
            "crates/scan-core/src/sync.rs",
            "pub use std::sync::atomic::{AtomicUsize, Ordering};\npub fn bump(a: &AtomicUsize) { a.fetch_add(1, Ordering::Relaxed); }\n",
        );
        t.write(
            "crates/scan-shard/src/pool.rs",
            "use std::sync::atomic::{AtomicBool, Ordering};\npub fn flag(a: &AtomicBool) { a.store(true, Ordering::Release); }\n",
        );
        assert_eq!(t.lint(), vec![]);
    }

    #[test]
    fn atomic_in_test_mod_is_exempt() {
        let t = Tree::new();
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::sync::atomic::{AtomicU32, Ordering};\n    static N: AtomicU32 = AtomicU32::new(0);\n}\n",
        );
        assert_eq!(t.lint(), vec![]);
    }

    #[test]
    fn cmp_ordering_is_not_an_atomic_ordering() {
        let t = Tree::new();
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\nuse std::cmp::Ordering;\npub fn f(a: u32, b: u32) -> Ordering { a.cmp(&b) }\npub fn g() -> Ordering { Ordering::Less }\n",
        );
        assert_eq!(t.lint(), vec![]);
    }

    #[test]
    fn atomic_op_without_explicit_ordering_is_flagged() {
        let t = Tree::new();
        t.write(
            "crates/scan-core/src/sync.rs",
            "use std::sync::atomic::Ordering::Relaxed;\nuse std::sync::atomic::AtomicUsize;\npub fn f(a: &AtomicUsize) { a.store(1, Relaxed); }\n",
        );
        let vs = t.lint();
        assert_eq!(rules(&vs), vec!["atomics-confinement"]);
        assert!(vs[0].msg.contains("explicit `Ordering::`"));
    }

    #[test]
    fn multi_line_atomic_op_with_ordering_passes() {
        let t = Tree::new();
        t.write(
            "crates/scan-core/src/pool.rs",
            "use std::sync::atomic::{AtomicU64, Ordering};\npub fn f(a: &AtomicU64) {\n    a.compare_exchange(\n        0,\n        1,\n        Ordering::AcqRel,\n        Ordering::Acquire,\n    ).ok();\n}\n",
        );
        assert_eq!(t.lint(), vec![]);
    }

    #[test]
    fn non_atomic_load_method_is_not_flagged() {
        // `.load(` on a non-atomic receiver in an allowlisted file:
        // the rule only fires when the argument list lacks an
        // `Ordering::`, so keep such helpers named differently — but a
        // plain fn call `load_pair(..)` must never trip it.
        let t = Tree::new();
        t.write(
            "crates/scan-shard/src/pool.rs",
            "pub fn load_pair(d: &[u64], g: usize) -> u64 { d[g] }\npub fn f(d: &[u64]) -> u64 { load_pair(d, 0) }\n",
        );
        assert_eq!(t.lint(), vec![]);
    }
}
