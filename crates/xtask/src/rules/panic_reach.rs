//! R7 `panic-reachability`: no panic-capable expression may be
//! reachable from any `pub fn try_*` entry point.
//!
//! The `try_*` prefix is this workspace's contract for "returns
//! `Err`/`None` instead of panicking" — the degraded-mode paths in the
//! service layer and the shard-loss recovery paths both lean on it.
//! This rule walks the approximate call graph ([`crate::graph`]) from
//! every such entry and flags every `.unwrap()` / `.expect()` /
//! panic-family macro / slice-index expression it can reach, with the
//! call path in the finding's notes. Functions that `catch_unwind`
//! are containment barriers: their own sites and everything below
//! them are exempt.
//!
//! Severity is split by site kind: unconditional panics (unwrap,
//! expect, panic-family macros) are errors; slice-index sites are
//! warnings — indexing pervades the serial kernels and is in-bounds by
//! construction once the entry validates, so those are reported for
//! audit (and serialized in `--json`) without failing the lint.

use std::collections::HashSet;

use crate::diag::{Report, Violation};
use crate::graph::{try_entries, CallGraph};
use crate::model::Workspace;

/// Run the panic-reachability rule.
pub fn check(ws: &Workspace, out: &mut Report) {
    let graph = CallGraph::build(ws);
    // Each panic site is reported once, for the first entry that
    // reaches it (entries iterate in path order, so this is stable).
    let mut seen: HashSet<(usize, usize, usize)> = HashSet::new();
    for entry in try_entries(ws) {
        let reach = graph.reach_from(ws, entry);
        let entry_name = &ws.files[entry.0].fns[entry.1].name;
        for (fi, file) in ws.files.iter().enumerate() {
            for site in &file.panic_sites {
                if !reach.contains_key(&(fi, site.fn_idx)) {
                    continue;
                }
                if !seen.insert((fi, site.line, site.col)) {
                    continue;
                }
                let desc = match site.kind {
                    crate::model::PanicKind::Index => format!("slice index `{}`", site.what),
                    _ => format!("`{}`", site.what),
                };
                let mut v = Violation::error(
                    "panic-reachability",
                    &file.rel,
                    site.line + 1,
                    site.col + 1,
                    format!("{desc} reachable from pub `{entry_name}`"),
                );
                // Indexing pervades the serial kernels and is in-bounds
                // by construction once the entry validates its input —
                // report it, but only unconditional panics (unwrap /
                // expect / panic-family macros) fail the lint.
                if site.kind == crate::model::PanicKind::Index {
                    v.severity = crate::diag::Severity::Warning;
                }
                let path = CallGraph::path_names(ws, &reach, (fi, site.fn_idx));
                v.notes.push(format!("call path: {}", path.join(" -> ")));
                v.notes.push(
                    "pub `try_*` functions promise Err/None over panic; return an error, \
                     bounds-check, or contain with catch_unwind"
                        .to_string(),
                );
                out.violations.push(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::{rules, Tree};

    #[test]
    fn unwrap_in_try_entry_is_flagged() {
        let t = Tree::new();
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn try_get(v: &[u64]) -> u64 { v.first().copied().unwrap() }\n",
        );
        let vs = t.lint();
        assert_eq!(rules(&vs), vec!["panic-reachability"]);
        assert!(vs[0].msg.contains("`.unwrap()`"));
        assert!(vs[0].msg.contains("try_get"));
        assert_eq!(vs[0].severity, crate::diag::Severity::Error);
    }

    #[test]
    fn panic_reachable_through_call_chain_reports_path() {
        let t = Tree::new();
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn try_top(v: &[u64]) -> u64 { mid(v) }\nfn mid(v: &[u64]) -> u64 { bot(v) }\nfn bot(v: &[u64]) -> u64 { v[0] }\n",
        );
        let vs = t.lint();
        assert_eq!(rules(&vs), vec!["panic-reachability"]);
        assert_eq!(vs[0].line, 4, "anchored at the panic site, not the entry");
        assert!(vs[0].msg.contains("slice index `v[..]`"));
        assert_eq!(vs[0].severity, crate::diag::Severity::Warning);
        assert!(
            vs[0].notes[0].contains("try_top -> mid -> bot"),
            "notes: {:?}",
            vs[0].notes
        );
    }

    #[test]
    fn cross_crate_reachability_is_tracked() {
        let t = Tree::new();
        t.write(
            "crates/api/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn try_run() { deep_helper() }\n",
        );
        t.write(
            "crates/impls/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn deep_helper() { panic!(\"boom\") }\n",
        );
        let vs = t.lint();
        assert_eq!(rules(&vs), vec!["panic-reachability"]);
        assert_eq!(vs[0].path, "crates/impls/src/lib.rs");
    }

    #[test]
    fn non_try_pub_fn_may_panic() {
        let t = Tree::new();
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn scan(v: &[u64]) -> u64 { v[0] }\npub(crate) fn try_inner(v: &[u64]) -> u64 { v[0] }\n",
        );
        assert_eq!(t.lint(), vec![]);
    }

    #[test]
    fn catch_unwind_contains_the_panic() {
        let t = Tree::new();
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn try_f() -> bool { contained() }\nfn contained() -> bool { std::panic::catch_unwind(|| deep()).is_ok() }\nfn deep() { panic!(\"z\") }\n",
        );
        assert_eq!(t.lint(), vec![]);
    }

    #[test]
    fn each_site_reported_once_across_entries() {
        let t = Tree::new();
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn try_a() { shared() }\npub fn try_b() { shared() }\nfn shared() { unreachable!() }\n",
        );
        assert_eq!(rules(&t.lint()), vec!["panic-reachability"]);
    }

    #[test]
    fn suppression_with_reason_quiets_the_site() {
        let t = Tree::new();
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn try_get(v: &[u64]) -> u64 {\n    // xtask-allow: panic-reachability index is bounds-checked by the caller contract\n    v[0]\n}\n",
        );
        assert_eq!(t.lint(), vec![]);
    }

    /// A builder-style descriptor: `pub fn try_*` methods of a pub
    /// struct, reached from a free function through a constructor and
    /// setter chain.
    const DESCRIPTOR: &str = "pub struct Desc { k: usize }\nimpl Desc {\n    pub fn start() -> Desc { Desc { k: 0 } }\n    pub fn skip(self, k: usize) -> Desc { Desc { k: self.k + k } }\n    pub fn try_first(&self, v: &[u64]) -> u64 { v[self.k] }\n}\n";

    #[test]
    fn try_method_of_a_pub_struct_is_an_entry() {
        let t = Tree::new();
        t.write("crates/demo/src/lib.rs", "#![forbid(unsafe_code)]\n");
        t.write("crates/demo/src/desc.rs", DESCRIPTOR);
        let vs = t.lint();
        assert_eq!(rules(&vs), vec!["panic-reachability"]);
        assert_eq!(vs[0].path, "crates/demo/src/desc.rs");
        assert!(vs[0].msg.contains("slice index `v[..]`"));
        assert!(vs[0].msg.contains("pub `try_first`"), "msg: {}", vs[0].msg);
    }

    #[test]
    fn builder_chain_reaches_the_try_method_from_another_file() {
        // `a.rs` sorts before `desc.rs`, so its free entry is the first
        // to reach the method's index site and is the one reported.
        let t = Tree::new();
        t.write("crates/demo/src/lib.rs", "#![forbid(unsafe_code)]\n");
        t.write(
            "crates/demo/src/a.rs",
            "pub fn try_second(v: &[u64]) -> u64 { Desc::start().skip(1).try_first(v) }\n",
        );
        t.write("crates/demo/src/desc.rs", DESCRIPTOR);
        let vs = t.lint();
        assert_eq!(rules(&vs), vec!["panic-reachability"]);
        assert_eq!(vs[0].path, "crates/demo/src/desc.rs");
        assert!(vs[0].msg.contains("slice index `v[..]`"));
        assert!(vs[0].msg.contains("pub `try_second`"), "msg: {}", vs[0].msg);
        assert!(
            vs[0].notes[0].contains("try_second -> try_first"),
            "notes: {:?}",
            vs[0].notes
        );
    }

    /// The resolver never follows a call to a std adapter name across
    /// files, so a scan descriptor method named like one would lose its
    /// callers in other files.
    #[test]
    fn scan_descriptor_methods_avoid_std_adapter_names() {
        let ws = crate::model::Workspace::load(&crate::workspace_root());
        let file = ws
            .files
            .iter()
            .find(|f| f.rel == "crates/scan-core/src/scan.rs")
            .expect("scan-core's scan.rs is in the workspace");
        let methods: Vec<&str> = file
            .fns
            .iter()
            .filter(|f| f.self_ty.as_deref() == Some("Scan") && !f.is_test)
            .map(|f| f.name.as_str())
            .collect();
        assert!(methods.contains(&"try_run"), "methods: {methods:?}");
        for name in methods {
            assert!(
                !crate::graph::STD_METHOD_NAMES.contains(&name),
                "`Scan::{name}` shares a std adapter name"
            );
        }
    }
}
