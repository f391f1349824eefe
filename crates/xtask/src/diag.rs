//! Diagnostics: severities, rustc-style rendering, `xtask-allow`
//! suppression application, and the `--json` machine format.
//!
//! The JSON schema is versioned and field order is stable — CI uploads
//! the report as an artifact and a GitHub problem matcher parses the
//! human rendering, so both formats are pinned by golden tests.

use std::fmt;

use crate::model::Workspace;

/// Finding severity. `Error` findings fail the lint; `Warning`
/// findings are reported (and serialized) but do not affect the exit
/// code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory.
    Warning,
    /// Invariant violation.
    Error,
}

impl Severity {
    /// Lowercase label used in both renderings.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// A single lint finding.
#[derive(Debug, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (`safety-comment`, `panic-reachability`, ...).
    pub rule: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Path relative to the linted root.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number.
    pub col: usize,
    /// Human-readable description.
    pub msg: String,
    /// Extra note lines (call paths, hints).
    pub notes: Vec<String>,
    /// `Some(reason)` when an `xtask-allow` comment suppressed it.
    pub suppressed: Option<String>,
}

impl Violation {
    /// An error-severity finding with no notes.
    pub fn error(rule: &'static str, path: &str, line: usize, col: usize, msg: String) -> Self {
        Violation {
            rule,
            severity: Severity::Error,
            path: path.to_string(),
            line,
            col,
            msg,
            notes: Vec::new(),
            suppressed: None,
        }
    }
}

impl fmt::Display for Violation {
    /// Rustc-style rendering; the first two lines are what the CI
    /// problem matcher parses:
    ///
    /// ```text
    /// error[rule-name]: message
    ///   --> path:line:col
    ///   = note: extra context
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}\n  --> {}:{}:{}",
            self.severity.label(),
            self.rule,
            self.msg,
            self.path,
            self.line,
            self.col
        )?;
        for n in &self.notes {
            write!(f, "\n  = note: {n}")?;
        }
        Ok(())
    }
}

/// The full lint outcome: every finding, suppressed ones included.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (path, line, col, rule).
    pub violations: Vec<Violation>,
}

impl Report {
    /// Active (unsuppressed) findings.
    pub fn active(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| v.suppressed.is_none())
    }

    /// Does any active error-severity finding exist?
    pub fn has_errors(&self) -> bool {
        self.active().any(|v| v.severity == Severity::Error)
    }

    /// Canonical ordering; call once after all rules ran.
    pub fn sort(&mut self) {
        self.violations.sort_by(|a, b| {
            (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule))
        });
    }

    /// Apply `xtask-allow` suppressions from the workspace models:
    /// a finding is suppressed when a suppression in the same file
    /// names its rule and guards its line. Unused and malformed
    /// suppressions become findings themselves.
    pub fn apply_suppressions(&mut self, ws: &Workspace) {
        for file in &ws.files {
            for (line, why) in &file.bad_suppressions {
                self.violations.push(Violation::error(
                    "suppression-syntax",
                    &file.rel,
                    line + 1,
                    1,
                    format!("malformed `xtask-allow` comment: {why}"),
                ));
            }
            for sup in &file.suppressions {
                let mut used = false;
                for v in self.violations.iter_mut() {
                    if v.suppressed.is_none()
                        && v.rule == sup.rule
                        && v.path == file.rel
                        && v.line == sup.target + 1
                    {
                        v.suppressed = Some(sup.reason.clone());
                        used = true;
                    }
                }
                if !used {
                    self.violations.push(Violation {
                        rule: "unused-suppression",
                        severity: Severity::Error,
                        path: file.rel.clone(),
                        line: sup.line + 1,
                        col: 1,
                        msg: format!(
                            "suppression of `{}` matches no finding on its target line — remove it",
                            sup.rule
                        ),
                        notes: vec![
                            "suppressions must sit on the offending line or directly above it"
                                .to_string(),
                        ],
                        suppressed: None,
                    });
                }
            }
        }
    }

    /// Machine-readable rendering. Field order is stable and pinned by
    /// a golden test; consumers may rely on it.
    pub fn to_json(&self) -> String {
        let mut errors = 0usize;
        let mut warnings = 0usize;
        let mut suppressed = 0usize;
        for v in &self.violations {
            if v.suppressed.is_some() {
                suppressed += 1;
            } else if v.severity == Severity::Error {
                errors += 1;
            } else {
                warnings += 1;
            }
        }
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"version\": 1,\n");
        s.push_str("  \"tool\": \"xtask-lint\",\n");
        s.push_str(&format!(
            "  \"counts\": {{ \"error\": {errors}, \"warning\": {warnings}, \"suppressed\": {suppressed} }},\n"
        ));
        s.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    { ");
            s.push_str(&format!("\"rule\": \"{}\", ", json_escape(v.rule)));
            s.push_str(&format!("\"severity\": \"{}\", ", v.severity.label()));
            s.push_str(&format!("\"path\": \"{}\", ", json_escape(&v.path)));
            s.push_str(&format!("\"line\": {}, ", v.line));
            s.push_str(&format!("\"col\": {}, ", v.col));
            s.push_str(&format!("\"msg\": \"{}\", ", json_escape(&v.msg)));
            s.push_str("\"notes\": [");
            for (j, n) in v.notes.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("\"{}\"", json_escape(n)));
            }
            s.push_str("], ");
            match &v.suppressed {
                Some(r) => s.push_str(&format!(
                    "\"suppressed\": true, \"reason\": \"{}\"",
                    json_escape(r)
                )),
                None => s.push_str("\"suppressed\": false, \"reason\": null"),
            }
            s.push_str(" }");
        }
        if !self.violations.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

/// Minimal JSON string escaping (the only non-trivial piece of the
/// dependency-free serializer).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::default();
        r.violations.push(Violation {
            rule: "panic-reachability",
            severity: Severity::Error,
            path: "crates/demo/src/lib.rs".to_string(),
            line: 3,
            col: 9,
            msg: "slice index `v[..]` reachable from pub `try_f`".to_string(),
            notes: vec!["call path: try_f -> mid -> bot".to_string()],
            suppressed: None,
        });
        r.violations.push(Violation {
            rule: "no-raw-clock",
            severity: Severity::Warning,
            path: "crates/demo/src/time.rs".to_string(),
            line: 7,
            col: 13,
            msg: "`Instant::now` outside the deadline module".to_string(),
            notes: vec![],
            suppressed: Some("bench-only code path".to_string()),
        });
        r
    }

    // Golden: the human rendering is what the CI problem matcher
    // parses — changing it means changing the matcher too.
    #[test]
    fn human_format_golden() {
        let r = sample();
        let rendered = format!("{}", r.violations[0]);
        assert_eq!(
            rendered,
            "error[panic-reachability]: slice index `v[..]` reachable from pub `try_f`\n  --> crates/demo/src/lib.rs:3:9\n  = note: call path: try_f -> mid -> bot"
        );
    }

    // Golden: stable field order of the --json schema.
    #[test]
    fn json_format_golden() {
        let r = sample();
        let expected = "{\n  \"version\": 1,\n  \"tool\": \"xtask-lint\",\n  \"counts\": { \"error\": 1, \"warning\": 0, \"suppressed\": 1 },\n  \"violations\": [\n    { \"rule\": \"panic-reachability\", \"severity\": \"error\", \"path\": \"crates/demo/src/lib.rs\", \"line\": 3, \"col\": 9, \"msg\": \"slice index `v[..]` reachable from pub `try_f`\", \"notes\": [\"call path: try_f -> mid -> bot\"], \"suppressed\": false, \"reason\": null },\n    { \"rule\": \"no-raw-clock\", \"severity\": \"warning\", \"path\": \"crates/demo/src/time.rs\", \"line\": 7, \"col\": 13, \"msg\": \"`Instant::now` outside the deadline module\", \"notes\": [], \"suppressed\": true, \"reason\": \"bench-only code path\" }\n  ]\n}\n";
        assert_eq!(r.to_json(), expected);
    }

    #[test]
    fn empty_report_json_is_well_formed() {
        let r = Report::default();
        assert_eq!(
            r.to_json(),
            "{\n  \"version\": 1,\n  \"tool\": \"xtask-lint\",\n  \"counts\": { \"error\": 0, \"warning\": 0, \"suppressed\": 0 },\n  \"violations\": []\n}\n"
        );
    }

    #[test]
    fn json_escaping_covers_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn exit_status_tracks_active_errors_only() {
        let mut r = sample();
        assert!(r.has_errors());
        r.violations[0].suppressed = Some("pinned".to_string());
        assert!(!r.has_errors());
    }
}
