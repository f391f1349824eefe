//! R1 `safety-comment`, R2 `unsafe-allowlist`, R5 `crate-lints`.

use crate::diag::{Report, Violation};
use crate::lexer::Lexed;
use crate::manifest::LintInheritance;
use crate::model::Workspace;
use crate::rules::{UNSAFE_ALLOWLIST, UNSAFE_CRATE_ROOT};

/// Run the unsafe-hygiene rules.
pub fn check(ws: &Workspace, out: &mut Report) {
    let inherit = LintInheritance::load(&ws.root);
    for file in &ws.files {
        let rel = file.rel.as_str();
        let unsafe_spans = file.lexed.word_spans("unsafe");

        // R2: unsafe allowlist — one finding per file, at the first
        // occurrence.
        if !UNSAFE_ALLOWLIST.contains(&rel) {
            if let Some(&(l, c)) = unsafe_spans.first() {
                out.violations.push(Violation::error(
                    "unsafe-allowlist",
                    rel,
                    l + 1,
                    c + 1,
                    format!(
                        "`unsafe` outside the audited kernel modules ({})",
                        UNSAFE_ALLOWLIST.join(", ")
                    ),
                ));
            }
        }

        // R1: every unsafe token is preceded by a SAFETY comment.
        for &(l, c) in &unsafe_spans {
            if !has_safety_comment(&file.lexed, l) {
                out.violations.push(Violation::error(
                    "safety-comment",
                    rel,
                    l + 1,
                    c + 1,
                    "`unsafe` without an adjacent `// SAFETY:` comment".to_string(),
                ));
            }
        }

        // R5: crate roots carry the right lint pins.
        check_crate_root(file, &inherit, out);
    }
}

/// R1 adjacency, pinned exactly (seeded tests hold this shape):
///
/// - a comment containing `SAFETY:` on the `unsafe` line itself
///   satisfies the rule;
/// - otherwise, walk upward through the contiguous run of *attribute
///   lines* (`#[...]` / `#![...]`, with or without trailing comments)
///   and *comment-only lines*; any line in that run whose comment
///   mentions `SAFETY:` satisfies the rule;
/// - a blank line, or a code line without `SAFETY:`, terminates the
///   walk: a SAFETY comment separated from its `unsafe` by a blank
///   line is treated as stale and does NOT count.
fn has_safety_comment(lx: &Lexed, l: usize) -> bool {
    if lx.comments[l].contains("SAFETY:") {
        return true;
    }
    let mut i = l;
    while i > 0 {
        let above = i - 1;
        if lx.comments[above].contains("SAFETY:") {
            return true;
        }
        let code_t = lx.code[above].trim();
        let is_attr = code_t.starts_with("#[") || code_t.starts_with("#![");
        let is_comment_only = code_t.is_empty() && !lx.comments[above].is_empty();
        if is_attr || is_comment_only {
            i = above;
            continue;
        }
        // Blank line or unrelated code: the run is over.
        return false;
    }
    false
}

/// R5: crate roots pin the unsafe-code lint, either as a source
/// attribute or by inheriting the `[workspace.lints]` table.
fn check_crate_root(file: &crate::model::FileModel, inherit: &LintInheritance, out: &mut Report) {
    let rel = file.rel.as_str();
    let is_root = rel == "src/lib.rs"
        || rel == "src/main.rs"
        || (rel.starts_with("crates/") || rel.starts_with("shims/"))
            && (rel.ends_with("/src/lib.rs") || rel.ends_with("/src/main.rs"));
    if !is_root {
        return;
    }
    let has = |attr: &str| file.lexed.code.iter().any(|l| l.trim().starts_with(attr));
    if rel == UNSAFE_CRATE_ROOT {
        if !has("#![deny(unsafe_op_in_unsafe_fn)]") {
            out.violations.push(Violation::error(
                "crate-lints",
                rel,
                1,
                1,
                "crate root with unsafe code must carry #![deny(unsafe_op_in_unsafe_fn)]"
                    .to_string(),
            ));
        }
    } else if !has("#![forbid(unsafe_code)]") && !inherit.root_inherits_forbid_unsafe(rel) {
        let mut v = Violation::error(
            "crate-lints",
            rel,
            1,
            1,
            "crate root must forbid unsafe code".to_string(),
        );
        v.notes.push(
            "either `#![forbid(unsafe_code)]` in the root, or `[lints] workspace = true` \
             in the crate manifest with `unsafe_code = \"forbid\"` in `[workspace.lints.rust]`"
                .to_string(),
        );
        out.violations.push(v);
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::{rules, Tree};

    #[test]
    fn clean_file_passes() {
        let t = Tree::new();
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() -> u32 { 1 }\n",
        );
        assert_eq!(t.lint(), vec![]);
    }

    #[test]
    fn missing_safety_comment_is_flagged() {
        let t = Tree::new();
        t.write(
            "crates/scan-core/src/parallel.rs",
            "pub fn f(p: *mut u8) { unsafe { p.write(0) } }\n",
        );
        let vs = t.lint();
        assert_eq!(rules(&vs), vec!["safety-comment"]);
        assert_eq!(vs[0].line, 1);
        assert_eq!(vs[0].col, 24);
    }

    #[test]
    fn safety_comment_above_satisfies_r1() {
        let t = Tree::new();
        t.write(
            "crates/scan-core/src/parallel.rs",
            "// SAFETY: p is valid for writes.\n#[allow(dead_code)]\nfn f(p: *mut u8) { unsafe { p.write(0) } }\n",
        );
        assert_eq!(t.lint(), vec![]);
    }

    #[test]
    fn multi_line_safety_block_satisfies_r1() {
        let t = Tree::new();
        t.write(
            "crates/scan-core/src/multi_split.rs",
            "// SAFETY: blocks are disjoint and cover 0..n, so each\n// write hits a unique index.\nfn f(p: *mut u8) { unsafe { p.write(0) } }\n",
        );
        assert_eq!(t.lint(), vec![]);
    }

    // R1 adjacency pin: an attribute *with a trailing comment* between
    // the SAFETY block and the unsafe line is allowed (this used to
    // fail while a bare attribute passed).
    #[test]
    fn attribute_with_trailing_comment_is_skipped() {
        let t = Tree::new();
        t.write(
            "crates/scan-core/src/parallel.rs",
            "// SAFETY: p is valid for writes.\n#[inline] // hot path\nfn f(p: *mut u8) { unsafe { p.write(0) } }\n",
        );
        assert_eq!(t.lint(), vec![]);
    }

    // R1 adjacency pin: a blank line between the SAFETY comment and
    // the unsafe block makes the comment stale — always a violation.
    #[test]
    fn blank_line_detaches_safety_comment() {
        let t = Tree::new();
        t.write(
            "crates/scan-core/src/parallel.rs",
            "// SAFETY: p is valid for writes.\n\nfn f(p: *mut u8) { unsafe { p.write(0) } }\n",
        );
        assert_eq!(rules(&t.lint()), vec!["safety-comment"]);
    }

    // R1 adjacency pin: blank line between attribute and SAFETY block
    // also detaches.
    #[test]
    fn blank_line_between_attr_and_comment_detaches() {
        let t = Tree::new();
        t.write(
            "crates/scan-core/src/parallel.rs",
            "// SAFETY: p is valid for writes.\n\n#[inline]\nfn f(p: *mut u8) { unsafe { p.write(0) } }\n",
        );
        assert_eq!(rules(&t.lint()), vec!["safety-comment"]);
    }

    #[test]
    fn non_safety_comment_does_not_satisfy_r1() {
        let t = Tree::new();
        t.write(
            "crates/scan-core/src/pool.rs",
            "// this is totally fine, trust me\nfn f(p: *mut u8) { unsafe { p.write(0) } }\n",
        );
        assert_eq!(rules(&t.lint()), vec!["safety-comment"]);
    }

    #[test]
    fn unsafe_outside_allowlist_is_flagged() {
        let t = Tree::new();
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\n// SAFETY: not actually fine — wrong module.\nfn f(p: *mut u8) { unsafe { p.write(0) } }\n",
        );
        assert_eq!(rules(&t.lint()), vec!["unsafe-allowlist"]);
    }

    // `ops.rs` is off the allowlist (its kernels live in
    // `parallel.rs`), and a SAFETY comment does not admit `unsafe`
    // there.
    #[test]
    fn unsafe_in_ops_is_flagged() {
        let t = Tree::new();
        t.write(
            "crates/scan-core/src/ops.rs",
            "// SAFETY: p is valid for writes.\nfn f(p: *mut u8) { unsafe { p.write(0) } }\n",
        );
        assert_eq!(rules(&t.lint()), vec!["unsafe-allowlist"]);
    }

    #[test]
    fn unsafe_in_string_or_comment_is_ignored() {
        let t = Tree::new();
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\n// unsafe unsafe unsafe\npub const S: &str = \"unsafe { }\";\n",
        );
        assert_eq!(t.lint(), vec![]);
    }

    #[test]
    fn crate_root_without_forbid_is_flagged() {
        let t = Tree::new();
        t.write("crates/demo/src/lib.rs", "pub fn f() {}\n");
        assert_eq!(rules(&t.lint()), vec!["crate-lints"]);
    }

    #[test]
    fn scan_core_root_requires_deny_unsafe_op() {
        let t = Tree::new();
        t.write("crates/scan-core/src/lib.rs", "#![warn(missing_docs)]\n");
        let vs = t.lint();
        assert_eq!(rules(&vs), vec!["crate-lints"]);
        assert!(vs[0].msg.contains("unsafe_op_in_unsafe_fn"));
    }

    // R5 satellite: `[lints] workspace = true` inheritance from a
    // workspace table that forbids unsafe code satisfies the rule
    // without a source attribute.
    #[test]
    fn workspace_lints_inheritance_satisfies_r5() {
        let t = Tree::new();
        t.write(
            "Cargo.toml",
            "[workspace]\nmembers = [\"crates/demo\"]\n\n[workspace.lints.rust]\nunsafe_code = \"forbid\"\n",
        );
        t.write(
            "crates/demo/Cargo.toml",
            "[package]\nname = \"demo\"\n\n[lints]\nworkspace = true\n",
        );
        t.write("crates/demo/src/lib.rs", "pub fn f() {}\n");
        assert_eq!(t.lint(), vec![]);
    }

    // ...but inheritance without the workspace-side forbid does not.
    #[test]
    fn inheritance_without_workspace_forbid_still_fails_r5() {
        let t = Tree::new();
        t.write(
            "Cargo.toml",
            "[workspace]\nmembers = [\"crates/demo\"]\n\n[workspace.lints.rust]\nmissing_docs = \"warn\"\n",
        );
        t.write(
            "crates/demo/Cargo.toml",
            "[package]\nname = \"demo\"\n\n[lints]\nworkspace = true\n",
        );
        t.write("crates/demo/src/lib.rs", "pub fn f() {}\n");
        assert_eq!(rules(&t.lint()), vec!["crate-lints"]);
    }
}
