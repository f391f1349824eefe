//! Approximate intra-workspace call graph.
//!
//! Resolution is *name-based* (see DESIGN.md §16 for the soundness
//! discussion): a call edge is drawn from the calling function to
//! every workspace function the callee name can plausibly denote.
//!
//! - `.method(..)` resolves to same-file impl methods of that name,
//!   else same-crate ones — never workspace-wide (std receivers like
//!   `s.spawn(..)` or `buf.write(..)` would alias onto any workspace
//!   impl sharing the name). Names that std's `Iterator`, `Option`,
//!   `Result` and slice types define ([`STD_METHOD_NAMES`]) resolve
//!   same-file only: `keys.iter().find(..)` must not alias onto a
//!   union-find `find`, nor `.map(..)`/`.count()` onto vector types;
//! - `Type::name(..)` resolves to methods of impls whose self type is
//!   `Type` (so `Vec::new` draws no edge into workspace `new`s);
//! - `module::name(..)` prefers free functions defined in a same-crate
//!   file whose stem is `module`, then any file with that stem, then
//!   the unique-name fallback;
//! - plain `name(..)` resolves to free functions only (associated fns
//!   need a receiver or type path): same-file, then same-crate, then a
//!   workspace-wide match only when the name is unique.
//!
//! This over-approximates (same-name functions alias) and
//! under-approximates (closures, fn pointers, trait objects and macro
//! bodies draw no edges) — both directions are deliberate and
//! documented; the panic-reachability rule treats the result as a
//! screening tool backed by inline suppressions, not a proof.

use std::collections::HashMap;

use crate::model::{Vis, Workspace};

/// Global function id: (file index, fn index within file).
pub type FnId = (usize, usize);

/// Method names std's `Iterator` (and `DoubleEndedIterator`),
/// `Option`, `Result` and slice types define. The receiver of a
/// `.name(..)` call is unknown to a name-based resolver, and these
/// names are called on std receivers all over the workspace, so a
/// same-crate impl method that shares one is reached only from its
/// own file.
#[rustfmt::skip]
pub const STD_METHOD_NAMES: &[&str] = &[
    // Iterator / DoubleEndedIterator
    "all", "any", "by_ref", "chain", "cloned", "cmp", "collect", "copied", "count", "cycle",
    "enumerate", "eq", "filter", "filter_map", "find", "find_map", "flat_map", "flatten", "fold",
    "for_each", "fuse", "ge", "gt", "inspect", "is_sorted", "is_sorted_by", "is_sorted_by_key",
    "last", "le", "lt", "map", "map_while", "max", "max_by", "max_by_key", "min", "min_by",
    "min_by_key", "ne", "next", "next_back", "nth", "nth_back", "partial_cmp", "partition",
    "peekable", "position", "product", "reduce", "rev", "rfind", "rfold", "rposition", "scan",
    "size_hint", "skip", "skip_while", "step_by", "sum", "take", "take_while", "try_fold",
    "try_for_each", "try_rfold", "unzip", "zip",
    // Option / Result
    "and", "and_then", "as_deref", "as_deref_mut", "as_mut", "as_ref", "err", "expect",
    "expect_err", "get_or_insert", "get_or_insert_with", "insert", "inspect_err", "is_err",
    "is_err_and", "is_none", "is_none_or", "is_ok", "is_ok_and", "is_some", "is_some_and",
    "map_err", "map_or", "map_or_else", "ok", "ok_or", "ok_or_else", "or", "or_else", "replace",
    "take_if", "transpose", "unwrap", "unwrap_err", "unwrap_or", "unwrap_or_default",
    "unwrap_or_else", "xor",
    // slices
    "as_mut_ptr", "as_ptr", "as_slice", "binary_search", "binary_search_by",
    "binary_search_by_key", "chunks", "chunks_exact", "chunks_exact_mut", "chunks_mut",
    "clone_from_slice", "concat", "contains", "copy_from_slice", "copy_within", "ends_with",
    "fill", "fill_with", "first", "first_mut", "get", "get_mut", "is_empty", "iter", "iter_mut",
    "join", "last_mut", "len", "partition_point", "rchunks", "repeat", "reverse", "rotate_left",
    "rotate_right", "rsplit", "rsplitn", "select_nth_unstable", "sort", "sort_by", "sort_by_key",
    "sort_unstable", "sort_unstable_by", "sort_unstable_by_key", "split", "split_at",
    "split_at_mut", "split_first", "split_last", "splitn", "starts_with", "swap", "to_vec",
    "windows",
];

/// The resolved workspace call graph.
pub struct CallGraph {
    /// Adjacency: edges[file][fn] = resolved callee ids (deduped).
    edges: HashMap<FnId, Vec<FnId>>,
}

impl CallGraph {
    /// Build the graph over every non-test function in the workspace.
    pub fn build(ws: &Workspace) -> Self {
        // Indexes. Method index maps (self_ty, name) and name-only.
        let mut by_file_name: HashMap<(usize, &str), Vec<FnId>> = HashMap::new();
        let mut by_crate_name: HashMap<(&str, &str), Vec<FnId>> = HashMap::new();
        let mut by_name: HashMap<&str, Vec<FnId>> = HashMap::new();
        let mut by_stem_name: HashMap<(&str, &str), Vec<FnId>> = HashMap::new();
        let mut by_crate_stem_name: HashMap<(&str, &str, &str), Vec<FnId>> = HashMap::new();
        let mut methods_by_ty: HashMap<(&str, &str), Vec<FnId>> = HashMap::new();
        let mut methods_by_file: HashMap<(usize, &str), Vec<FnId>> = HashMap::new();
        let mut methods_by_crate: HashMap<(&str, &str), Vec<FnId>> = HashMap::new();

        for (fi, file) in ws.files.iter().enumerate() {
            // Shim sources (`shims/`) are cfg-gated substitutes for
            // external crates; indexing them would alias every `load`,
            // `wait`, `swap`, ... in the production build onto the
            // shim's internals.
            if file.rel.starts_with("shims/") {
                continue;
            }
            for (ki, f) in file.fns.iter().enumerate() {
                if f.is_test || f.body.is_none() {
                    continue;
                }
                let id = (fi, ki);
                let name = f.name.as_str();
                if let Some(ty) = &f.self_ty {
                    // Associated fns are reachable only through a
                    // receiver (`.m(..)`), a type path (`Ty::m(..)`)
                    // or `Self::m(..)` — never as a plain `m(..)`.
                    methods_by_ty
                        .entry((ty.as_str(), name))
                        .or_default()
                        .push(id);
                    methods_by_file.entry((fi, name)).or_default().push(id);
                    methods_by_crate
                        .entry((file.crate_name(), name))
                        .or_default()
                        .push(id);
                } else {
                    by_file_name.entry((fi, name)).or_default().push(id);
                    by_crate_name
                        .entry((file.crate_name(), name))
                        .or_default()
                        .push(id);
                    by_name.entry(name).or_default().push(id);
                    by_stem_name
                        .entry((file.stem(), name))
                        .or_default()
                        .push(id);
                    by_crate_stem_name
                        .entry((file.crate_name(), file.stem(), name))
                        .or_default()
                        .push(id);
                }
            }
        }

        // Cross-crate calls fall back to a workspace-wide name match
        // ONLY when the name is unique — common names (`load`, `get`,
        // `wait`, ...) would otherwise alias the whole tree together.
        let mut edges: HashMap<FnId, Vec<FnId>> = HashMap::new();
        for (fi, file) in ws.files.iter().enumerate() {
            for call in &file.calls {
                let from = (fi, call.fn_idx);
                let name = call.name.as_str();
                let targets: Option<&Vec<FnId>> = if call.method {
                    // No workspace-wide fallback for methods: std
                    // receivers (`s.spawn`, `buf.write`, ...) would
                    // alias onto any workspace impl sharing the name.
                    // Std adapter names do not even fall back
                    // same-crate (see `STD_METHOD_NAMES`).
                    methods_by_file.get(&(fi, name)).or_else(|| {
                        if STD_METHOD_NAMES.contains(&name) {
                            None
                        } else {
                            methods_by_crate.get(&(file.crate_name(), name))
                        }
                    })
                } else if let Some(q) = &call.qual {
                    let q = q.as_str();
                    if q.chars().next().is_some_and(char::is_uppercase) {
                        // `Type::name` — only impls of that exact type;
                        // `Self::name` — same-file impl methods.
                        if q == "Self" {
                            methods_by_file.get(&(fi, name))
                        } else {
                            methods_by_ty.get(&(q, name))
                        }
                    } else {
                        // `module::name` — file-stem match, same crate
                        // first (`pool.rs` exists in two crates).
                        by_crate_stem_name
                            .get(&(file.crate_name(), q, name))
                            .or_else(|| by_stem_name.get(&(q, name)))
                            .or_else(|| by_name.get(name).filter(|v| v.len() == 1))
                    }
                } else {
                    by_file_name
                        .get(&(fi, name))
                        .or_else(|| by_crate_name.get(&(file.crate_name(), name)))
                        .or_else(|| by_name.get(name).filter(|v| v.len() == 1))
                };
                if let Some(ts) = targets {
                    let e = edges.entry(from).or_default();
                    for t in ts {
                        if !e.contains(t) {
                            e.push(*t);
                        }
                    }
                }
            }
        }
        CallGraph { edges }
    }

    /// Callees of `id` (empty if none resolved).
    pub fn callees(&self, id: FnId) -> &[FnId] {
        self.edges.get(&id).map_or(&[], Vec::as_slice)
    }

    /// Breadth-first reachability from `entry`, stopping at (and not
    /// entering) containment-boundary functions. Returns every reached
    /// id with its predecessor, entry included (predecessor = itself).
    pub fn reach_from(&self, ws: &Workspace, entry: FnId) -> HashMap<FnId, FnId> {
        let barrier = |id: FnId| ws.files[id.0].fns[id.1].has_catch_unwind;
        let mut parent: HashMap<FnId, FnId> = HashMap::new();
        if barrier(entry) {
            return parent;
        }
        parent.insert(entry, entry);
        let mut queue = vec![entry];
        let mut qi = 0;
        while qi < queue.len() {
            let cur = queue[qi];
            qi += 1;
            for &next in self.callees(cur) {
                if parent.contains_key(&next) || barrier(next) {
                    continue;
                }
                parent.insert(next, cur);
                queue.push(next);
            }
        }
        parent
    }

    /// The call path `entry → ... → target` as function names, using
    /// the predecessor map from [`Self::reach_from`].
    pub fn path_names(ws: &Workspace, parent: &HashMap<FnId, FnId>, target: FnId) -> Vec<String> {
        let mut rev = vec![target];
        let mut cur = target;
        while let Some(&p) = parent.get(&cur) {
            if p == cur {
                break;
            }
            rev.push(p);
            cur = p;
        }
        rev.reverse();
        rev.into_iter()
            .map(|(fi, ki)| ws.files[fi].fns[ki].name.clone())
            .collect()
    }
}

/// Entry points for panic-reachability: plain `pub fn try_*` in
/// library sources (not shims, not bins, not tests).
pub fn try_entries(ws: &Workspace) -> Vec<FnId> {
    let mut out = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        let rel = &file.rel;
        let in_lib = (rel.starts_with("crates/") || rel.starts_with("src/"))
            && rel.contains("src/")
            && !rel.contains("/bin/");
        if !in_lib {
            continue;
        }
        for (ki, f) in file.fns.iter().enumerate() {
            if f.vis == Vis::Pub && f.name.starts_with("try_") && !f.is_test && f.body.is_some() {
                out.push((fi, ki));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileModel;
    use std::path::PathBuf;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            root: PathBuf::from("/x"),
            files: files
                .iter()
                .map(|(rel, src)| FileModel::new(rel.to_string(), src))
                .collect(),
        }
    }

    fn fn_id(ws: &Workspace, name: &str) -> FnId {
        for (fi, f) in ws.files.iter().enumerate() {
            for (ki, it) in f.fns.iter().enumerate() {
                if it.name == name {
                    return (fi, ki);
                }
            }
        }
        panic!("no fn {name}");
    }

    #[test]
    fn same_crate_resolution_and_reachability() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "pub fn try_top(v: &[u64]) -> u64 { mid(v) }\nfn mid(v: &[u64]) -> u64 { bot(v) }\nfn bot(v: &[u64]) -> u64 { v[0] }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "fn unrelated() { boom().unwrap(); }\n",
            ),
        ]);
        let g = CallGraph::build(&w);
        let entry = fn_id(&w, "try_top");
        let reach = g.reach_from(&w, entry);
        assert!(reach.contains_key(&fn_id(&w, "bot")));
        assert!(!reach.contains_key(&fn_id(&w, "unrelated")));
        let path = CallGraph::path_names(&w, &reach, fn_id(&w, "bot"));
        assert_eq!(path, vec!["try_top", "mid", "bot"]);
    }

    #[test]
    fn std_type_methods_draw_no_edges() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn try_f() -> Vec<u64> { Vec::new() }\nstruct Pool;\nimpl Pool { fn new() -> Pool { explode(); Pool } }\nfn explode() { panic!(\"x\") }\n",
        )]);
        let g = CallGraph::build(&w);
        let reach = g.reach_from(&w, fn_id(&w, "try_f"));
        assert!(
            !reach.contains_key(&fn_id(&w, "explode")),
            "Vec::new must not alias Pool::new"
        );
    }

    #[test]
    fn std_adapter_names_resolve_same_file_only() {
        // Std adapters on std receivers in one file must not resolve
        // to same-named impl methods in another file of the crate.
        for (adapter, method) in [
            ("keys.iter().map(|k| k + 1).sum()", "map"),
            ("keys.iter().enumerate().count() as u64", "enumerate"),
            ("keys.iter().count() as u64", "count"),
            ("*keys.iter().find(|&&k| k > 1).unwrap_or(&0)", "find"),
        ] {
            let w = ws(&[
                (
                    "crates/a/src/vector.rs",
                    &format!(
                        "pub struct V;\nimpl V {{\n    pub fn {method}(&self) {{ explode() }}\n}}\nfn explode() {{ panic!(\"v\") }}\npub fn try_local(v: &V) {{ v.{method}() }}\n"
                    ),
                ),
                (
                    "crates/a/src/sort.rs",
                    &format!("pub fn try_sort(keys: &[u64]) -> u64 {{ {adapter} }}\n"),
                ),
            ]);
            let g = CallGraph::build(&w);
            let target = fn_id(&w, method);
            let reach = g.reach_from(&w, fn_id(&w, "try_sort"));
            assert!(
                !reach.contains_key(&target),
                "`{adapter}` must not alias `V::{method}` in another file"
            );
            let reach = g.reach_from(&w, fn_id(&w, "try_local"));
            assert!(
                reach.contains_key(&target),
                "a receiver call in `V::{method}`'s own file must still resolve"
            );
        }
    }

    #[test]
    fn typed_qualifier_resolves_to_matching_impl() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "struct Pool;\nimpl Pool { fn spawn() { risky() } }\npub fn try_go() { Pool::spawn() }\nfn risky() { panic!(\"y\") }\n",
        )]);
        let g = CallGraph::build(&w);
        let reach = g.reach_from(&w, fn_id(&w, "try_go"));
        assert!(reach.contains_key(&fn_id(&w, "risky")));
    }

    #[test]
    fn catch_unwind_is_a_barrier() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn try_f() { contained() }\nfn contained() { let _ = std::panic::catch_unwind(|| deep()); }\nfn deep() { panic!(\"z\") }\n",
        )]);
        let g = CallGraph::build(&w);
        let reach = g.reach_from(&w, fn_id(&w, "try_f"));
        assert!(!reach.contains_key(&fn_id(&w, "contained")));
        assert!(!reach.contains_key(&fn_id(&w, "deep")));
    }

    #[test]
    fn try_entries_are_plain_pub_only() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn try_a() {}\npub(crate) fn try_b() {}\nfn try_c() {}\npub fn plain() {}\n",
        )]);
        let names: Vec<String> = try_entries(&w)
            .into_iter()
            .map(|(fi, ki)| w.files[fi].fns[ki].name.clone())
            .collect();
        assert_eq!(names, vec!["try_a"]);
    }
}
