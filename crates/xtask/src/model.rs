//! The item model: what the rules reason about.
//!
//! Built on the masked token stream ([`crate::parse`]), this extracts
//! an approximate per-file model — functions (name, visibility, body
//! span, containing `impl` type), call references, panic-capable
//! expression sites, and `// xtask-allow:` suppressions — plus the
//! workspace aggregate the call graph is resolved over.
//!
//! Approximation notes (see DESIGN.md §16): items are recognized
//! syntactically, not semantically. Nested functions attribute their
//! body to the innermost enclosing `fn`; closures attribute to the
//! function that contains them; macro-generated items are invisible.

use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::Lexed;
use crate::parse::{find_at_angle_depth0, Parsed, TokKind};

/// Item visibility, as far as the rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// No `pub`.
    Private,
    /// `pub(crate)`, `pub(super)`, `pub(in ...)`.
    Qualified,
    /// Plain `pub` — part of the workspace API surface.
    Pub,
}

/// One `fn` item.
#[derive(Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Visibility.
    pub vis: Vis,
    /// 0-based line of the `fn` token.
    pub line: usize,
    /// 0-based column of the name token.
    pub col: usize,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Token range of the body: `(open_brace, close_brace)` indices,
    /// `None` for bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// `Some(TypeName)` when defined inside `impl TypeName` /
    /// `impl Trait for TypeName`.
    pub self_ty: Option<String>,
    /// Defined inside a `#[cfg(test)] mod` region.
    pub is_test: bool,
    /// Body mentions `catch_unwind` — treated as a panic-containment
    /// boundary by the reachability rule.
    pub has_catch_unwind: bool,
}

/// Why an expression can panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(..)`.
    Expect,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    Macro,
    /// Slice/array index expression `x[i]` (panics when out of range).
    Index,
}

/// A panic-capable expression inside some function body.
#[derive(Debug)]
pub struct PanicSite {
    /// Index into [`FileModel::fns`] of the containing function.
    pub fn_idx: usize,
    /// Why it can panic.
    pub kind: PanicKind,
    /// 0-based line.
    pub line: usize,
    /// 0-based column.
    pub col: usize,
    /// The offending token text (e.g. the indexed expression head).
    pub what: String,
}

/// A call reference inside some function body.
#[derive(Debug)]
pub struct Call {
    /// Index into [`FileModel::fns`] of the calling function.
    pub fn_idx: usize,
    /// Callee name (last path segment).
    pub name: String,
    /// Path qualifier directly before the name (`Vec` in `Vec::new`,
    /// `ops` in `ops::try_add`), if any.
    pub qual: Option<String>,
    /// `true` for `.name(...)` method-call syntax.
    pub method: bool,
}

/// An inline `// xtask-allow: <rule> <reason>` suppression.
#[derive(Debug)]
pub struct Suppression {
    /// Rule name the suppression targets.
    pub rule: String,
    /// Free-text justification (required).
    pub reason: String,
    /// 0-based line of the comment itself.
    pub line: usize,
    /// 0-based line the suppression guards (the comment's own line for
    /// trailing comments, else the next line carrying code).
    pub target: usize,
}

/// Everything the rules know about one source file.
pub struct FileModel {
    /// Path relative to the linted root, `/`-separated.
    pub rel: String,
    /// Masked lines.
    pub lexed: Lexed,
    /// Token stream + delimiter matching.
    pub parsed: Parsed,
    /// Per-line test-module membership.
    pub in_test: Vec<bool>,
    /// Functions, in source order.
    pub fns: Vec<FnItem>,
    /// Call references in non-test function bodies.
    pub calls: Vec<Call>,
    /// Panic-capable sites in non-test function bodies.
    pub panic_sites: Vec<PanicSite>,
    /// Parsed suppressions (syntax errors surface as violations).
    pub suppressions: Vec<Suppression>,
    /// Lines carrying a malformed `xtask-allow` comment.
    pub bad_suppressions: Vec<(usize, String)>,
}

/// The workspace aggregate.
pub struct Workspace {
    /// Linted root.
    pub root: PathBuf,
    /// All models, sorted by path.
    pub files: Vec<FileModel>,
}

/// Keywords that look like call heads but are not.
const KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "in", "as",
    "let", "mut", "ref", "move", "fn", "impl", "trait", "struct", "enum", "union", "mod", "use",
    "pub", "crate", "super", "self", "Self", "where", "unsafe", "async", "await", "dyn", "const",
    "static", "type", "extern",
];

/// Macros whose expansion panics unconditionally.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

impl FileModel {
    /// Build the model for one file.
    pub fn new(rel: String, src: &str) -> Self {
        let lexed = Lexed::new(src);
        let parsed = Parsed::new(&lexed);
        let in_test = lexed.test_mod_lines();
        let fns = extract_fns(&parsed, &in_test);
        let (calls, panic_sites) = extract_calls_and_sites(&parsed, &fns);
        let (suppressions, bad_suppressions) = extract_suppressions(&lexed);
        FileModel {
            rel,
            lexed,
            parsed,
            in_test,
            fns,
            calls,
            panic_sites,
            suppressions,
            bad_suppressions,
        }
    }

    /// The crate-ish component this file belongs to (`scan-core` for
    /// `crates/scan-core/src/...`, `root` for `src/...`, the shim name
    /// for `shims/...`).
    pub fn crate_name(&self) -> &str {
        crate_of(&self.rel)
    }

    /// The file stem (`pool` for `.../pool.rs`) — the module name for
    /// qualifier-based call resolution.
    pub fn stem(&self) -> &str {
        self.rel
            .rsplit('/')
            .next()
            .and_then(|f| f.strip_suffix(".rs"))
            .unwrap_or("")
    }
}

/// Crate-ish component of a repo-relative path.
pub fn crate_of(rel: &str) -> &str {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") | Some("shims") => parts.next().unwrap_or("?"),
        Some("src") => "root",
        _ => "?",
    }
}

/// Collect `.rs` files under the conventional top-level dirs.
pub fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            if name != "target" && !name.starts_with('.') {
                collect_rs(&p, out);
            }
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
}

impl Workspace {
    /// Load and model every Rust source under `root`.
    pub fn load(root: &Path) -> Self {
        let mut paths = Vec::new();
        for top in ["crates", "src", "shims"] {
            collect_rs(&root.join(top), &mut paths);
        }
        paths.sort();
        let mut files = Vec::new();
        for path in &paths {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(path)
                .to_string_lossy()
                .replace('\\', "/");
            let Ok(src) = fs::read_to_string(path) else {
                continue;
            };
            files.push(FileModel::new(rel, &src));
        }
        Workspace {
            root: root.to_path_buf(),
            files,
        }
    }
}

/// Extract `fn` items (with impl context) from the token stream.
fn extract_fns(parsed: &Parsed, in_test: &[bool]) -> Vec<FnItem> {
    let toks = &parsed.toks;
    let mat = &parsed.mat;

    // Impl contexts: (body_open, body_close, self_ty).
    let mut impls: Vec<(usize, usize, String)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is("impl") {
            continue;
        }
        // Walk to the body `{` at angle-depth 0; remember the last
        // ident seen at depth 0 (after `for`, if present) — that path
        // segment is the self type. `impl Trait for Type {` and
        // `impl<T> Type<T> {` both land on `Type`.
        let Some(open) =
            find_at_angle_depth0(toks, i + 1, |t| t.is_punct("{"), |t| t.is_punct(";"))
        else {
            continue;
        };
        let mut ty: Option<&str> = None;
        let mut depth = 0i64;
        let mut after_for = false;
        for t in &toks[i + 1..open] {
            if t.is_punct("<") {
                depth += 1;
            } else if t.is_punct(">") {
                depth = (depth - 1).max(0);
            } else if depth == 0 && t.is("for") {
                after_for = true;
                ty = None;
            } else if depth == 0 && t.kind == TokKind::Ident && !t.is("where") && !t.is("dyn") {
                // Last depth-0 segment wins; after `for` we restart.
                let _ = after_for;
                ty = Some(&t.text);
            }
        }
        if let (Some(ty), Some(close)) = (ty, mat[open]) {
            impls.push((open, close, ty.to_string()));
        }
    }

    let mut fns = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is("fn") {
            i += 1;
            continue;
        }
        // A definition has an identifier name right after `fn`
        // (function-pointer types `fn(u32)` do not).
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = name_tok.text.clone();

        // Visibility: look back over at most 8 tokens of qualifiers.
        let mut vis = Vis::Private;
        let lo = i.saturating_sub(8);
        let mut j = i;
        while j > lo {
            j -= 1;
            let t = &toks[j];
            if t.is("pub") {
                // `pub` directly, or `pub(...)`?
                vis = if toks.get(j + 1).is_some_and(|n| n.is_punct("(")) {
                    Vis::Qualified
                } else {
                    Vis::Pub
                };
                break;
            }
            // Qualifier tokens that may sit between `pub` and `fn`.
            let keeps_looking = t.is("unsafe")
                || t.is("const")
                || t.is("async")
                || t.is("extern")
                || t.is_punct("\"")
                || t.is_punct(")")
                || t.is_punct("(")
                || t.is("crate")
                || t.is("super")
                || t.is("in");
            if !keeps_looking {
                break;
            }
        }

        // Param list: first `(` at angle-depth 0 (generics may contain
        // `Fn(..)` parens, which sit at depth > 0).
        let Some(popen) = find_at_angle_depth0(
            toks,
            i + 2,
            |t| t.is_punct("("),
            |t| t.is_punct(";") || t.is_punct("{"),
        ) else {
            i += 1;
            continue;
        };
        let Some(pclose) = mat[popen] else {
            i += 1;
            continue;
        };
        // Body `{` or declaration `;` at angle-depth 0 after params.
        let body = match find_at_angle_depth0(
            toks,
            pclose + 1,
            |t| t.is_punct("{") || t.is_punct(";"),
            |_| false,
        ) {
            Some(b) if toks[b].is_punct("{") => mat[b].map(|c| (b, c)),
            _ => None,
        };

        let self_ty = impls
            .iter()
            .filter(|(o, c, _)| *o < i && i < *c)
            .max_by_key(|(o, _, _)| *o)
            .map(|(_, _, ty)| ty.clone());

        let has_catch_unwind = body.is_some_and(|(b, c)| {
            toks[b..=c.min(toks.len() - 1)]
                .iter()
                .any(|t| t.is("catch_unwind"))
        });

        let line = toks[i].line;
        fns.push(FnItem {
            name,
            vis,
            line,
            col: name_tok.col,
            fn_tok: i,
            body,
            self_ty,
            is_test: in_test.get(line).copied().unwrap_or(false),
            has_catch_unwind,
        });
        // Continue after the signature; nested fns are still found.
        i = popen;
    }
    fns
}

/// Innermost function whose body contains token index `ti`.
fn owner_of(fns: &[FnItem], ti: usize) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (k, f) in fns.iter().enumerate() {
        if let Some((b, c)) = f.body {
            if b < ti && ti < c {
                // Innermost = latest-starting body containing ti.
                if best.is_none_or(|prev| fns[prev].body.expect("has body").0 < b) {
                    best = Some(k);
                }
            }
        }
    }
    best
}

/// Extract call references and panic sites from non-test fn bodies.
fn extract_calls_and_sites(parsed: &Parsed, fns: &[FnItem]) -> (Vec<Call>, Vec<PanicSite>) {
    let toks = &parsed.toks;
    let mut calls = Vec::new();
    let mut sites = Vec::new();

    for (i, t) in toks.iter().enumerate() {
        let Some(fn_idx) = owner_of(fns, i) else {
            continue;
        };
        if fns[fn_idx].is_test {
            continue;
        }

        // Panic-family macro: `name ! (` / `name ! [` / `name ! {`.
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
        {
            sites.push(PanicSite {
                fn_idx,
                kind: PanicKind::Macro,
                line: t.line,
                col: t.col,
                what: format!("{}!", t.text),
            });
            continue;
        }

        // Index expression: `[` whose previous token ends a value
        // (identifier, `)`, or `]`). `#[attr]`, `vec![..]`, types
        // like `&[u8]` and array literals are all preceded by
        // non-value tokens and skipped.
        if t.is_punct("[") && i > 0 {
            let p = &toks[i - 1];
            let value_end = (p.kind == TokKind::Ident && !KEYWORDS.contains(&p.text.as_str()))
                || p.is_punct(")")
                || p.is_punct("]");
            if value_end {
                sites.push(PanicSite {
                    fn_idx,
                    kind: PanicKind::Index,
                    line: t.line,
                    col: t.col,
                    what: format!(
                        "{}[..]",
                        if p.kind == TokKind::Ident {
                            &p.text
                        } else {
                            "_"
                        }
                    ),
                });
            }
            continue;
        }

        // Call heads: `name (` possibly with a path/method prefix, or
        // `name ::<turbofish> (`.
        if t.kind != TokKind::Ident || KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        let mut call_paren = None;
        if let Some(n) = toks.get(i + 1) {
            if n.is_punct("(") {
                call_paren = Some(i + 1);
            } else if n.is_punct("::") && toks.get(i + 2).is_some_and(|a| a.is_punct("<")) {
                // Turbofish: find the `(` right after the matching `>`.
                let mut depth = 0i64;
                let mut k = i + 2;
                while k < toks.len() {
                    if toks[k].is_punct("<") {
                        depth += 1;
                    } else if toks[k].is_punct(">") {
                        depth -= 1;
                        if depth == 0 {
                            if toks.get(k + 1).is_some_and(|a| a.is_punct("(")) {
                                call_paren = Some(k + 1);
                            }
                            break;
                        }
                    } else if toks[k].is_punct(";") || toks[k].is_punct("{") {
                        break;
                    }
                    k += 1;
                }
            }
        }
        let Some(_paren) = call_paren else {
            continue;
        };
        // Skip definitions (`fn name(`).
        if i > 0 && toks[i - 1].is("fn") {
            continue;
        }
        let method = i > 0 && toks[i - 1].is_punct(".");
        let qual = if !method && i >= 2 && toks[i - 1].is_punct("::") {
            let q = &toks[i - 2];
            if q.kind == TokKind::Ident {
                Some(q.text.clone())
            } else {
                None
            }
        } else {
            None
        };

        // `.unwrap()` / `.expect(..)` are panic sites, not edges.
        if method && (t.text == "unwrap" || t.text == "expect") {
            sites.push(PanicSite {
                fn_idx,
                kind: if t.text == "unwrap" {
                    PanicKind::Unwrap
                } else {
                    PanicKind::Expect
                },
                line: t.line,
                col: t.col,
                what: format!(".{}()", t.text),
            });
            continue;
        }

        calls.push(Call {
            fn_idx,
            name: t.text.clone(),
            qual,
            method,
        });
    }
    (calls, sites)
}

/// Parse `// xtask-allow: <rule> <reason>` comments.
fn extract_suppressions(lx: &Lexed) -> (Vec<Suppression>, Vec<(usize, String)>) {
    const MARKER: &str = "xtask-allow:";
    let mut out = Vec::new();
    let mut bad = Vec::new();
    for (l, comment) in lx.comments.iter().enumerate() {
        // The marker must open the comment (`// xtask-allow: ...`) —
        // prose *about* the mechanism, like this sentence, is inert.
        let text = comment.trim_start_matches(['/', '!', '*']).trim_start();
        if !text.starts_with(MARKER) {
            continue;
        }
        let rest = text[MARKER.len()..].trim();
        let mut it = rest.splitn(2, char::is_whitespace);
        let rule = it.next().unwrap_or("").trim();
        let reason = it.next().unwrap_or("").trim();
        if rule.is_empty() {
            bad.push((l, "missing rule name".to_string()));
            continue;
        }
        if reason.is_empty() {
            bad.push((
                l,
                format!("suppression of `{rule}` has no reason — justify it"),
            ));
            continue;
        }
        // Trailing comment guards its own line; a standalone comment
        // guards the next line that carries code.
        let own_line_has_code = !lx.code[l].trim().is_empty();
        let target = if own_line_has_code {
            l
        } else {
            let mut t = l + 1;
            while t < lx.code.len() && lx.code[t].trim().is_empty() {
                t += 1;
            }
            t
        };
        out.push(Suppression {
            rule: rule.to_string(),
            reason: reason.to_string(),
            line: l,
            target,
        });
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::new("crates/demo/src/lib.rs".to_string(), src)
    }

    #[test]
    fn fn_items_carry_visibility_and_body() {
        let m =
            model("pub fn a() {}\npub(crate) fn b() {}\nfn c();\npub unsafe fn d() { body(); }\n");
        let names: Vec<(&str, Vis, bool)> = m
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.vis, f.body.is_some()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("a", Vis::Pub, true),
                ("b", Vis::Qualified, true),
                ("c", Vis::Private, false),
                ("d", Vis::Pub, true),
            ]
        );
    }

    #[test]
    fn impl_methods_get_self_type() {
        let m = model(
            "struct Foo;\nimpl Foo { pub fn new() -> Foo { Foo } }\nimpl Clone for Foo { fn clone(&self) -> Foo { Foo } }\n",
        );
        let new = m.fns.iter().find(|f| f.name == "new").expect("new");
        assert_eq!(new.self_ty.as_deref(), Some("Foo"));
        let clone = m.fns.iter().find(|f| f.name == "clone").expect("clone");
        assert_eq!(clone.self_ty.as_deref(), Some("Foo"));
    }

    #[test]
    fn calls_and_panic_sites_are_extracted() {
        let m = model(
            "pub fn try_f(v: &[u64]) -> u64 {\n    helper(v);\n    v.iter().max().unwrap();\n    let x = v[0];\n    other::g();\n    panic!(\"no\");\n    x\n}\n",
        );
        let call_names: Vec<&str> = m.calls.iter().map(|c| c.name.as_str()).collect();
        assert!(call_names.contains(&"helper"));
        assert!(call_names.contains(&"g"));
        let kinds: Vec<PanicKind> = m.panic_sites.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&PanicKind::Unwrap));
        assert!(kinds.contains(&PanicKind::Index));
        assert!(kinds.contains(&PanicKind::Macro));
    }

    #[test]
    fn index_heuristic_skips_attrs_types_and_macros() {
        let m = model(
            "#[derive(Debug)]\npub fn f(v: &[u64], w: [u64; 2]) -> Vec<u64> {\n    let x = vec![1, 2];\n    x\n}\n",
        );
        assert!(
            m.panic_sites.is_empty(),
            "false index sites: {:?}",
            m.panic_sites
        );
    }

    #[test]
    fn test_mod_bodies_are_excluded() {
        let m = model(
            "pub fn real() { ok(); }\n#[cfg(test)]\nmod tests {\n    fn t() { boom().unwrap(); }\n}\n",
        );
        assert!(m.panic_sites.is_empty());
        assert_eq!(m.calls.len(), 1);
        assert_eq!(m.calls[0].name, "ok");
    }

    #[test]
    fn catch_unwind_marks_containment() {
        let m = model(
            "fn contained() { let _ = std::panic::catch_unwind(|| risky()); }\nfn plain() { risky(); }\n",
        );
        assert!(m.fns[0].has_catch_unwind);
        assert!(!m.fns[1].has_catch_unwind);
    }

    #[test]
    fn suppressions_parse_with_rule_and_reason() {
        let m = model(
            "// xtask-allow: no-raw-clock bench needs wall time\nfn f() {}\nlet x = 1; // xtask-allow: unsafe-allowlist audited separately\n// xtask-allow: broken-rule\n",
        );
        assert_eq!(m.suppressions.len(), 2);
        assert_eq!(m.suppressions[0].rule, "no-raw-clock");
        assert_eq!(m.suppressions[0].target, 1);
        assert_eq!(m.suppressions[1].target, 2);
        assert_eq!(m.bad_suppressions.len(), 1);
    }

    #[test]
    fn turbofish_calls_are_still_calls() {
        let m = model("fn f() { let v = collect::<Vec<u64>>(it); }\n");
        assert!(m.calls.iter().any(|c| c.name == "collect"));
    }
}
