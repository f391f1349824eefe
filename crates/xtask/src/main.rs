//! Workspace invariant linter (`cargo xtask lint`).
//!
//! A dependency-free static-analysis pass over the workspace sources,
//! grown from a line linter into a small pipeline:
//!
//! 1. [`lexer`] masks comments and string/char literals so patterns in
//!    prose never fire, preserving columns;
//! 2. [`parse`] turns the masked lines into a token stream with
//!    matched delimiters;
//! 3. [`model`] extracts the item model — functions, calls, panic
//!    sites, `xtask-allow` suppressions — per file;
//! 4. [`graph`] resolves an approximate intra-workspace call graph;
//! 5. [`rules`] runs the rule catalog (R1–R10, see `rules/mod.rs` and
//!    DESIGN.md §16);
//! 6. [`diag`] applies suppressions, renders rustc-style findings,
//!    and serializes the `--json` report consumed by CI.
//!
//! Invariants live here instead of in review comments so they hold by
//! construction: the loom model in `scan_core::sync` is only sound if
//! every atomic lives behind it (R8), the shard executor's loss
//! detection is only observational while its seam stays
//! message-shaped (R9), and the `try_*` degraded-mode contract only
//! means anything if those paths cannot panic (R7).

#![warn(missing_docs)]

mod diag;
mod graph;
mod lexer;
mod manifest;
mod model;
mod parse;
mod rules;
#[cfg(test)]
mod testutil;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use diag::{Report, Severity};
use model::Workspace;

/// The workspace root, resolved from this crate's manifest directory
/// (`crates/xtask` → two levels up).
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

/// Run the full pipeline over `root` and return the finished report
/// (sorted, suppressions applied, suppressed findings retained).
fn lint_report(root: &Path) -> Report {
    let ws = Workspace::load(root);
    let mut report = rules::run_all(&ws);
    report.apply_suppressions(&ws);
    report.sort();
    report
}

/// Active (unsuppressed) findings for `root` — the programmatic entry
/// point the seeded-tree tests drive.
#[cfg(test)]
fn lint_root(root: &Path) -> Vec<diag::Violation> {
    lint_report(root)
        .violations
        .into_iter()
        .filter(|v| v.suppressed.is_none())
        .collect()
}

fn main() -> ExitCode {
    let mut cmd = None;
    let mut json = false;
    let mut root = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "lint" if cmd.is_none() => cmd = Some("lint"),
            "--json" => json = true,
            _ if root.is_none() && !arg.starts_with('-') => root = Some(PathBuf::from(arg)),
            _ => {
                eprintln!("usage: cargo xtask lint [--json] [root]");
                return ExitCode::FAILURE;
            }
        }
    }
    if cmd != Some("lint") {
        eprintln!("usage: cargo xtask lint [--json] [root]");
        return ExitCode::FAILURE;
    }

    let root = root.unwrap_or_else(workspace_root);
    let report = lint_report(&root);

    // Human rendering on stderr (the CI problem matcher parses it);
    // the machine report, when asked for, alone on stdout. Warnings
    // are counted here and carried in full by `--json` — the audit
    // trail of panic-reachable index sites would otherwise drown the
    // errors that actually gate.
    for v in report.active().filter(|v| v.severity == Severity::Error) {
        eprintln!("{v}\n");
    }
    if json {
        print!("{}", report.to_json());
    }
    let errors = report
        .active()
        .filter(|v| v.severity == Severity::Error)
        .count();
    let warnings = report
        .active()
        .filter(|v| v.severity == Severity::Warning)
        .count();
    let suppressed = report
        .violations
        .iter()
        .filter(|v| v.suppressed.is_some())
        .count();
    if report.has_errors() {
        eprintln!("xtask lint: {errors} error(s), {warnings} warning(s), {suppressed} suppressed");
        ExitCode::FAILURE
    } else {
        eprintln!("xtask lint: clean ({warnings} warning(s), {suppressed} suppressed)");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{rules, Tree};

    /// The linter's reason to exist: the real workspace carries no
    /// error-severity findings. Unused suppressions are themselves
    /// findings, so this also proves every `xtask-allow` in the tree
    /// still earns its keep — and the only tolerated warnings are the
    /// panic-reachability index audit trail.
    #[test]
    fn lint_repo_is_clean() {
        let vs = lint_root(&workspace_root());
        let errors: Vec<_> = vs
            .iter()
            .filter(|v| v.severity == Severity::Error)
            .collect();
        assert!(
            errors.is_empty(),
            "workspace lint violations:\n{}",
            errors
                .iter()
                .map(|v| format!("{v}\n"))
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            vs.iter().all(|v| v.rule == "panic-reachability"),
            "only the index-site audit trail may warn"
        );
    }

    #[test]
    fn suppressed_findings_do_not_fail_but_are_reported() {
        let t = Tree::new();
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\n// xtask-allow: no-raw-clock simulated time source for tests\npub fn f() -> std::time::Instant { std::time::Instant::now() }\n",
        );
        assert_eq!(t.lint(), vec![]);
        let report = lint_report(&t.root);
        assert!(!report.has_errors());
        let sup: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.suppressed.is_some())
            .collect();
        assert_eq!(sup.len(), 1);
        assert_eq!(
            sup[0].suppressed.as_deref(),
            Some("simulated time source for tests")
        );
        assert!(report.to_json().contains("\"suppressed\": true"));
    }

    #[test]
    fn unused_suppression_is_an_error() {
        let t = Tree::new();
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\n// xtask-allow: no-raw-clock nothing here actually reads the clock\npub fn f() -> u64 { 1 }\n",
        );
        assert_eq!(rules(&t.lint()), vec!["unused-suppression"]);
    }

    #[test]
    fn malformed_suppression_is_an_error() {
        let t = Tree::new();
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\n// xtask-allow: no-raw-clock\npub fn f() -> u64 { 1 }\n",
        );
        let vs = t.lint();
        assert_eq!(rules(&vs), vec!["suppression-syntax"]);
        assert!(vs[0].msg.contains("no reason"));
    }

    #[test]
    fn suppression_for_wrong_rule_does_not_mask() {
        let t = Tree::new();
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\n// xtask-allow: no-raw-spawn but this is a clock violation\npub fn f() -> std::time::Instant { std::time::Instant::now() }\n",
        );
        let mut names = rules(&t.lint());
        names.sort_unstable();
        assert_eq!(names, vec!["no-raw-clock", "unused-suppression"]);
    }
}
