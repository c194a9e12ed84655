//! `nondeterministic-iteration`: order-dependent `HashMap`/`HashSet`
//! iteration in digest, aggregation, coordinator-selection, and
//! trace-merge paths.
//!
//! Hash iteration order varies per process (SipHash keys are
//! randomized), so any iteration whose effects escape — into wire
//! traffic, telemetry, a digest, or an aggregate — breaks run-to-run
//! determinism. Point lookups (`get`/`insert`/`contains_key`/`len`)
//! are fine; `iter`/`keys`/`values`/`drain`/`retain`/`into_iter` and
//! `for … in map` are not. Fix with `BTreeMap`/`BTreeSet`, sorted
//! iteration, or a reasoned `lint:allow`.
//!
//! Detection is a per-file symbol table: names whose declared type or
//! constructor mentions `HashMap`/`HashSet` (fields, params, lets),
//! propagated through guard-shaped bindings (`let g = map.lock();`)
//! and passthrough chains (`lock/read/write/unwrap/unwrap_or_else/…`),
//! then flagged at iteration sites outside test code.

use super::{finding, let_statements, FileCx};
use crate::report::Finding;

const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];
/// Methods that yield the same (or a guarding/cloned) collection.
const PASSTHROUGH: [&str; 11] = [
    "lock",
    "read",
    "write",
    "unwrap",
    "expect",
    "unwrap_or_else",
    "clone",
    "borrow",
    "borrow_mut",
    "as_ref",
    "as_mut",
];

/// Hash-typed names, each scoped to the function item that binds it
/// (`extent == None` means file level: struct fields, statics). The
/// same name may legitimately be a `HashMap` in one function and a
/// `BTreeMap` in another.
struct HashNames {
    entries: Vec<(String, Option<(usize, usize)>)>,
}

impl HashNames {
    fn matches(&self, name: &str, i: usize) -> bool {
        self.entries
            .iter()
            .any(|(n, ext)| n == name && ext.is_none_or(|(s, e)| s <= i && i <= e))
    }

    fn bound_in(&self, name: &str, ext: Option<(usize, usize)>) -> bool {
        self.entries.iter().any(|(n, e)| n == name && *e == ext)
    }
}

pub fn run(cx: &FileCx) -> Vec<Finding> {
    let names = hash_typed_names(cx);
    if names.entries.is_empty() {
        return Vec::new();
    }
    let src = cx.src;
    let headers = for_in_headers(cx);
    let mut out = Vec::new();
    for i in 0..src.len() {
        if !src.is_any_ident(i) || !names.matches(src.text_of(i), i) || cx.scopes.in_test(i) {
            continue;
        }
        // Skip declaration sites (`name:` type ascriptions / struct
        // fields) — only *uses* can iterate.
        if src.is_punct(i + 1, ':') && !src.is_path_sep(i + 1) {
            continue;
        }
        let name = src.text_of(i).to_string();
        // Walk the method chain: passthroughs keep the collection,
        // an iteration method is the violation, anything else ends
        // the chain as a plain value.
        let mut j = i + 1;
        let mut flagged = false;
        let mut chained = false;
        loop {
            if src.is_punct(j, '?') {
                j += 1;
                continue;
            }
            if src.is_punct(j, '.') && src.is_any_ident(j + 1) && src.is_punct(j + 2, '(') {
                let m = src.text_of(j + 1);
                if ITER_METHODS.contains(&m) {
                    out.push(finding(
                        cx,
                        j + 1,
                        "nondeterministic-iteration",
                        format!(
                            "`.{m}()` iterates hash-ordered `{name}` — hash order \
                             is per-process random; use BTreeMap/BTreeSet or \
                             sort before iterating"
                        ),
                    ));
                    flagged = true;
                } else if PASSTHROUGH.contains(&m) {
                    j = cx.scopes.close_of(j + 2) + 1;
                    chained = true;
                    continue;
                }
            }
            break;
        }
        // Bare use inside a `for … in <expr> {` header iterates too
        // (`for (k, v) in &map`). A chain that ended in a passthrough
        // (`for k in map.clone()`) also iterates the clone.
        if !flagged
            && headers.iter().any(|&(s, e)| s <= i && i < e)
            && (!chained || ends_before_block(cx, j))
        {
            out.push(finding(
                cx,
                i,
                "nondeterministic-iteration",
                format!(
                    "`for … in` over hash-ordered `{name}` — hash order is \
                     per-process random; use BTreeMap/BTreeSet or sort first"
                ),
            ));
        }
    }
    out
}

fn ends_before_block(cx: &FileCx, j: usize) -> bool {
    j >= cx.src.len() || cx.src.is_punct(j, '{')
}

/// Names in this file whose type or initializer marks them as
/// hash-ordered — scoped to their binding function — with passthrough
/// propagation run to fixpoint.
fn hash_typed_names(cx: &FileCx) -> HashNames {
    let src = cx.src;
    let extent_at = |i: usize| {
        cx.scopes
            .enclosing_fn_item(i)
            .map(|f| (f.sig_start, f.body_close))
    };
    let mut names = HashNames {
        entries: Vec::new(),
    };
    for i in 0..src.len() {
        if !HASH_TYPES.iter().any(|t| src.is_ident(i, t)) {
            continue;
        }
        if let Some(owner) = binding_owner(cx, i) {
            let ext = extent_at(i);
            if !names.bound_in(&owner, ext) {
                names.entries.push((owner, ext));
            }
        }
    }
    // Propagate through `let g = <hash name through passthroughs>;`.
    let lets = let_statements(cx);
    for _ in 0..3 {
        let mut grew = false;
        for stmt in &lets {
            let (Some(name), Some((start, end))) = (&stmt.name, stmt.init) else {
                continue;
            };
            let ext = extent_at(stmt.let_idx);
            if names.bound_in(name, ext) {
                continue;
            }
            let mentions =
                (start..end).any(|j| src.is_any_ident(j) && names.matches(src.text_of(j), j));
            if !mentions {
                continue;
            }
            // Every *method call* in the initializer must be a
            // passthrough; `map.len()` is a value, not the map.
            let transforms = (start..end).any(|j| {
                src.is_punct(j, '.')
                    && src.is_any_ident(j + 1)
                    && src.is_punct(j + 2, '(')
                    && !PASSTHROUGH.contains(&src.text_of(j + 1))
            });
            if !transforms {
                names.entries.push((name.clone(), ext));
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    names
}

/// For a `HashMap`/`HashSet` token, the name it types or constructs:
/// walk back through type/constructor tokens to a `name:` ascription
/// (fields, params, lets, struct-literal fields) or a `name =`
/// binding. Returns `None` for unbindable positions (call arguments,
/// `use` paths).
fn binding_owner(cx: &FileCx, i: usize) -> Option<String> {
    let src = cx.src;
    let mut j = i;
    let mut steps = 0;
    while j > 0 && steps < 48 {
        steps += 1;
        j -= 1;
        if src.is_path_sep(j.wrapping_sub(1)) || src.is_path_sep(j) {
            // Inside a path (`std::collections::HashMap`,
            // `Mutex::new`): keep walking left past it.
            continue;
        }
        if src.is_punct(j, ':') || src.is_punct(j, '=') {
            let owner = j.checked_sub(1).filter(|&k| src.is_any_ident(k));
            return owner.map(|k| src.text_of(k).to_string());
        }
        let benign = src.is_punct(j, '<')
            || src.is_punct(j, '(')
            || src.is_punct(j, '&')
            || src.tok(j).kind == crate::lexer::TokKind::Lifetime
            || src.is_any_ident(j);
        if !benign {
            return None;
        }
    }
    None
}

/// Code-index extents `(after_in, block_open)` of `for … in …` loop
/// headers.
fn for_in_headers(cx: &FileCx) -> Vec<(usize, usize)> {
    let src = cx.src;
    let mut out = Vec::new();
    for f in 0..src.len() {
        if !src.is_ident(f, "for") || src.is_punct(f + 1, '<') {
            continue; // `for<'a>` HRTB
        }
        // Scan the pattern for a top-level `in` before the block
        // opens; `impl Trait for Type {` has none.
        let mut j = f + 1;
        let mut in_at = None;
        while j < src.len() {
            if src.is_punct(j, '(') || src.is_punct(j, '[') {
                j = cx.scopes.close_of(j);
            } else if src.is_punct(j, '{') || src.is_punct(j, ';') {
                if let Some(start) = in_at {
                    out.push((start, j));
                }
                break;
            } else if src.is_ident(j, "in") && in_at.is_none() {
                in_at = Some(j + 1);
            }
            j += 1;
        }
    }
    out
}
