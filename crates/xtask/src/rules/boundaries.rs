//! R9 `channel-isolation`, R10 `error-taxonomy`.
//!
//! Boundary rules: R9 keeps the executor↔shard seam message-shaped, so
//! the executor shares no state with a shard and learns of a loss only
//! from what crosses the channel (a reply, a timeout, a closed
//! channel) — a shard still running after a watchdog loss cannot touch
//! the run it lost. R10 keeps the workspace's pub `Result` APIs on the
//! crate error enums so callers can match on failure modes.

use crate::diag::{Report, Violation};
use crate::model::{Vis, Workspace};
use crate::parse::{Tok, TokKind};
use crate::rules::in_library_src;

/// Channel-boundary contracts: (file, module, allowed item names).
/// The listed file may name items of the module ONLY from the allowed
/// set — the message/channel vocabulary of the seam.
const CHANNEL_BOUNDARIES: &[(&str, &str, &[&str])] = &[(
    "crates/scan-shard/src/executor.rs",
    "pool",
    &["Job", "Reply", "Shard"],
)];

/// Run the boundary rules.
pub fn check(ws: &Workspace, out: &mut Report) {
    for file in &ws.files {
        let rel = file.rel.as_str();
        if let Some(&(_, module, allowed)) = CHANNEL_BOUNDARIES.iter().find(|(f, _, _)| *f == rel) {
            check_boundary(file, module, allowed, out);
        }
        if in_library_src(rel) {
            check_error_taxonomy(file, out);
        }
    }
}

/// R9: every `module::item` reference (inline path or `use` brace
/// group) must name an allowed item.
fn check_boundary(
    file: &crate::model::FileModel,
    module: &str,
    allowed: &[&str],
    out: &mut Report,
) {
    let toks = &file.parsed.toks;
    let mat = &file.parsed.mat;
    let mut flag = |t: &Tok| {
        if allowed.contains(&t.text.as_str()) || t.text == "self" {
            return;
        }
        let mut v = Violation::error(
            "channel-isolation",
            &file.rel,
            t.line + 1,
            t.col + 1,
            format!(
                "`{}::{}` crosses the executor↔shard boundary outside the channel vocabulary",
                module, t.text
            ),
        );
        v.notes.push(format!(
            "the executor may reference `{}` only through: {}",
            module,
            allowed.join(", ")
        ));
        out.violations.push(v);
    };
    for (i, t) in toks.iter().enumerate() {
        if !t.is(module) || !toks.get(i + 1).is_some_and(|n| n.is_punct("::")) {
            continue;
        }
        // Don't treat `other::pool::X`'s `pool` match loosely: any
        // path spelling `pool::X` in this file is the same seam.
        match toks.get(i + 2) {
            Some(n) if n.kind == TokKind::Ident => flag(n),
            Some(n) if n.is_punct("{") => {
                let close = mat[i + 2].unwrap_or(toks.len() - 1);
                for k in i + 3..close {
                    // Leaf names only: idents not followed by `::`.
                    if toks[k].kind == TokKind::Ident
                        && !toks.get(k + 1).is_some_and(|a| a.is_punct("::"))
                    {
                        flag(&toks[k]);
                    }
                }
            }
            _ => {}
        }
    }
}

/// R10: plain-`pub` functions returning `Result<_, E>` must not use
/// `String` or `Box<dyn ...>` as `E` — those erase the failure mode.
fn check_error_taxonomy(file: &crate::model::FileModel, out: &mut Report) {
    let toks = &file.parsed.toks;
    for f in &file.fns {
        if f.vis != Vis::Pub || f.is_test {
            continue;
        }
        // Signature = tokens from `fn` to the body `{` (or the
        // declaration `;`).
        let end = match f.body {
            Some((b, _)) => b,
            None => (f.fn_tok..toks.len())
                .find(|&k| toks[k].is_punct(";"))
                .unwrap_or(toks.len()),
        };
        let sig = &toks[f.fn_tok..end];
        let Some(arrow) = sig.iter().position(|t| t.is_punct("->")) else {
            continue;
        };
        let ret = &sig[arrow + 1..];
        let Some(err) = result_error_tokens(ret) else {
            continue;
        };
        if let Some(bad) = classify_error_type(err) {
            let mut v = Violation::error(
                "error-taxonomy",
                &file.rel,
                f.line + 1,
                f.col + 1,
                format!("pub fn `{}` returns `Result<_, {bad}>`", f.name),
            );
            v.notes.push(
                "stringly/erased errors hide the failure mode; use the crate's typed error enum"
                    .to_string(),
            );
            out.violations.push(v);
        }
    }
}

/// The token slice of `E` in the first `Result<T, E>` of a return
/// type, or `None` when the return type is not a two-parameter
/// `Result` (aliases like `ScanResult<T>` are typed by construction).
fn result_error_tokens(ret: &[Tok]) -> Option<&[Tok]> {
    let r = ret
        .iter()
        .position(|t| t.is("Result"))
        .filter(|&r| ret.get(r + 1).is_some_and(|n| n.is_punct("<")))?;
    let mut depth = 0i64;
    let mut comma = None;
    for (k, t) in ret.iter().enumerate().skip(r + 1) {
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(">") {
            depth -= 1;
            if depth == 0 {
                let c = comma?;
                let mut end = k;
                // Tolerate a trailing comma in multi-line signatures.
                while end > c + 1 && ret[end - 1].is_punct(",") {
                    end -= 1;
                }
                return Some(&ret[c + 1..end]);
            }
        } else if t.is_punct(",") && depth == 1 && comma.is_none() {
            comma = Some(k);
        }
    }
    None
}

/// `Some(label)` when the error-type tokens spell an erased error.
fn classify_error_type(err: &[Tok]) -> Option<&'static str> {
    // Strip leading path qualifiers (`std :: string ::`).
    let mut i = 0;
    while i + 1 < err.len() && err[i].kind == TokKind::Ident && err[i + 1].is_punct("::") {
        i += 2;
    }
    let rest = &err[i..];
    match rest.first() {
        Some(t) if t.is("String") && rest.len() == 1 => Some("String"),
        Some(t) if t.is("Box") && rest.iter().any(|t| t.is("dyn")) => Some("Box<dyn ..>"),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::{rules, Tree};

    #[test]
    fn executor_using_channel_vocabulary_is_clean() {
        let t = Tree::new();
        t.write(
            "crates/scan-shard/src/executor.rs",
            "use crate::pool::{Job, Reply, Shard};\npub fn f(s: &mut Shard, j: pool::Job) -> Option<pool::Reply> { None }\n",
        );
        assert_eq!(t.lint(), vec![]);
    }

    #[test]
    fn names_the_pool_no_longer_defines_are_flagged() {
        // `Phase` and `Output` left the pool with the two-round shard
        // protocol; an item of either name would be new, unchecked state.
        let t = Tree::new();
        t.write(
            "crates/scan-shard/src/executor.rs",
            "use crate::pool::{Job, Phase};\npub fn f(j: Job) -> Option<pool::Output> { None }\n",
        );
        let vs = t.lint();
        assert_eq!(
            rules(&vs),
            vec!["channel-isolation", "channel-isolation"],
            "the use-import and the inline path: {vs:?}"
        );
        assert!(vs[0].msg.contains("pool::Phase"));
        assert!(vs[1].msg.contains("pool::Output"));
    }

    #[test]
    fn executor_reaching_into_shard_internals_is_flagged() {
        let t = Tree::new();
        t.write(
            "crates/scan-shard/src/executor.rs",
            "use crate::pool::{load_pair, Job};\npub fn f(d: &[u64]) -> u64 { crate::pool::pair_combine(1, 2) }\n",
        );
        let vs = t.lint();
        assert_eq!(
            rules(&vs),
            vec!["channel-isolation", "channel-isolation"],
            "both the use-import and the inline path: {vs:?}"
        );
        assert!(vs[0].msg.contains("pool::load_pair"));
        assert!(vs[1].msg.contains("pool::pair_combine"));
    }

    #[test]
    fn other_files_may_use_pool_internals() {
        let t = Tree::new();
        t.write(
            "crates/scan-shard/src/combine.rs",
            "use crate::pool::load_pair;\npub fn f(d: &[u64]) -> u64 { load_pair(d, 0) }\n",
        );
        assert_eq!(t.lint(), vec![]);
    }

    #[test]
    fn only_items_the_pool_defines_are_vocabulary() {
        // The vocabulary is the items the pool module defines; a
        // plausible-sounding name outside it is flagged like any other.
        let t = Tree::new();
        t.write(
            "crates/scan-shard/src/executor.rs",
            "use crate::pool::{Job, ShardPool};\npub fn f(p: &ShardPool) -> usize { 0 }\n",
        );
        let vs = t.lint();
        assert_eq!(rules(&vs), vec!["channel-isolation"], "{vs:?}");
        assert!(vs[0].msg.contains("pool::ShardPool"));
    }

    // -- R10 -----------------------------------------------------------------

    #[test]
    fn pub_result_string_error_is_flagged() {
        let t = Tree::new();
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn parse(s: &str) -> Result<u64, String> { Err(s.to_string()) }\n",
        );
        let vs = t.lint();
        assert_eq!(rules(&vs), vec!["error-taxonomy"]);
        assert!(vs[0].msg.contains("Result<_, String>"));
    }

    #[test]
    fn pub_result_boxed_dyn_error_is_flagged() {
        let t = Tree::new();
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn run() -> Result<(), Box<dyn std::error::Error>> { Ok(()) }\n",
        );
        assert_eq!(rules(&t.lint()), vec!["error-taxonomy"]);
    }

    #[test]
    fn typed_errors_and_aliases_are_clean() {
        let t = Tree::new();
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub enum ScanError { Bad }\npub type ScanResult<T> = Result<T, ScanError>;\npub fn a() -> Result<u64, ScanError> { Ok(1) }\npub fn b() -> ScanResult<u64> { Ok(1) }\npub fn c() -> Result<String, ScanError> { Ok(String::new()) }\n",
        );
        assert_eq!(t.lint(), vec![]);
    }

    #[test]
    fn non_pub_and_test_fns_are_out_of_scope() {
        let t = Tree::new();
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\nfn inner() -> Result<u64, String> { Ok(1) }\npub(crate) fn mid() -> Result<u64, String> { Ok(1) }\n#[cfg(test)]\nmod tests {\n    pub fn t() -> Result<(), String> { Ok(()) }\n}\n",
        );
        assert_eq!(t.lint(), vec![]);
    }

    #[test]
    fn multi_line_signature_is_parsed() {
        let t = Tree::new();
        t.write(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn long(\n    a: u64,\n    b: u64,\n) -> Result<\n    Vec<u64>,\n    String,\n> {\n    Err(format!(\"{a}{b}\"))\n}\n",
        );
        assert_eq!(rules(&t.lint()), vec!["error-taxonomy"]);
    }
}
