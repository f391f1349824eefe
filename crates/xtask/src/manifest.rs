//! Minimal Cargo manifest reading for the `crate-lints` rule.
//!
//! Since the `[workspace.lints]` table pins shared lint levels once,
//! a crate root may satisfy the `crate-lints` rule either with source
//! attributes or by inheriting (`[lints] workspace = true`) a
//! workspace table that sets `unsafe_code = "forbid"`. This is a
//! line-oriented scan of exactly those shapes — not a TOML parser; the
//! build is the authority on manifest syntax.

use std::collections::HashSet;
use std::fs;
use std::path::Path;

/// What lint configuration the manifests contribute.
#[derive(Debug, Default)]
pub struct LintInheritance {
    /// Root `[workspace.lints.rust]` sets `unsafe_code = "forbid"`.
    pub workspace_forbids_unsafe: bool,
    /// Crate directories (repo-relative, e.g. `crates/scan-fault`)
    /// whose manifest has `[lints] workspace = true`.
    pub inheriting: HashSet<String>,
}

impl LintInheritance {
    /// Scan the root manifest and every `crates/*`, `shims/*` manifest
    /// (plus the root package itself).
    pub fn load(root: &Path) -> Self {
        let mut out = LintInheritance::default();
        if let Ok(top) = fs::read_to_string(root.join("Cargo.toml")) {
            out.workspace_forbids_unsafe =
                section_has(&top, "workspace.lints.rust", "unsafe_code", "forbid");
            if section_has_flag(&top, "lints", "workspace") {
                out.inheriting.insert(".".to_string());
            }
        }
        for parent in ["crates", "shims"] {
            let Ok(entries) = fs::read_dir(root.join(parent)) else {
                continue;
            };
            for e in entries.flatten() {
                let m = e.path().join("Cargo.toml");
                let Ok(text) = fs::read_to_string(&m) else {
                    continue;
                };
                if section_has_flag(&text, "lints", "workspace") {
                    let name = e.file_name().to_string_lossy().to_string();
                    out.inheriting.insert(format!("{parent}/{name}"));
                }
            }
        }
        out
    }

    /// Does the crate owning `root_rel_source` (e.g.
    /// `crates/scan-fault/src/lib.rs`) inherit workspace lints that
    /// forbid unsafe code?
    pub fn root_inherits_forbid_unsafe(&self, root_rel_source: &str) -> bool {
        if !self.workspace_forbids_unsafe {
            return false;
        }
        let dir = if root_rel_source.starts_with("src/") {
            "."
        } else {
            // crates/<name>/src/... -> crates/<name>
            let mut it = root_rel_source.split('/');
            match (it.next(), it.next()) {
                (Some(a), Some(b)) => return self.inheriting.contains(&format!("{a}/{b}")),
                _ => return false,
            }
        };
        self.inheriting.contains(dir)
    }
}

/// Does `[section]` contain `key = "value"`?
fn section_has(toml: &str, section: &str, key: &str, value: &str) -> bool {
    in_section_lines(toml, section).any(|l| {
        let mut parts = l.splitn(2, '=');
        let k = parts.next().unwrap_or("").trim();
        let v = parts.next().unwrap_or("").trim();
        k == key && v.trim_matches('"') == value
    })
}

/// Does `[section]` contain `key = true`?
fn section_has_flag(toml: &str, section: &str, key: &str) -> bool {
    in_section_lines(toml, section).any(|l| {
        let mut parts = l.splitn(2, '=');
        let k = parts.next().unwrap_or("").trim();
        let v = parts.next().unwrap_or("").trim();
        k == key && v == "true"
    })
}

/// Lines inside `[section]`, stopping at the next header.
fn in_section_lines<'a>(toml: &'a str, section: &'a str) -> impl Iterator<Item = &'a str> {
    let mut active = false;
    toml.lines().filter_map(move |raw| {
        let line = raw.trim();
        if line.starts_with('[') {
            active = line == format!("[{section}]");
            return None;
        }
        if active && !line.is_empty() && !line.starts_with('#') {
            Some(line)
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_scanning_finds_keys() {
        let toml = "[package]\nname = \"x\"\n\n[workspace.lints.rust]\nunsafe_code = \"forbid\"\nmissing_docs = \"warn\"\n\n[lints]\nworkspace = true\n";
        assert!(section_has(
            toml,
            "workspace.lints.rust",
            "unsafe_code",
            "forbid"
        ));
        assert!(!section_has(
            toml,
            "workspace.lints.rust",
            "unsafe_code",
            "deny"
        ));
        assert!(section_has_flag(toml, "lints", "workspace"));
        assert!(!section_has_flag(toml, "package", "workspace"));
    }

    #[test]
    fn missing_sections_are_not_matched() {
        let toml = "[package]\nname = \"x\"\nworkspace = true\n";
        assert!(!section_has_flag(toml, "lints", "workspace"));
    }
}
