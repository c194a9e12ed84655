//! `prof-in-inner-loop`: no profiler scopes inside kernel loops.
//!
//! A `hadfl_prof::scope` guard is a few nanoseconds when a profiler
//! is installed and a call-tree row per distinct stack — cheap once
//! per kernel invocation, ruinous once per element. A scope opened
//! inside a `for`/`while`/`loop` body multiplies the guard cost by the
//! trip count, skews the very numbers being measured, and (when the
//! loop is the par-chunk callback) splinters one logical op into
//! thousands of identical rows. The fix is always the same: hoist the
//! guard above the loop so one scope covers the whole op, with
//! `scope_bytes` carrying the op's total bytes.
//!
//! The rule flags `hadfl_prof::scope(...)` / `hadfl_prof::scope_bytes(...)`
//! — and bare `scope(` / `scope_bytes(` calls via a `use` import —
//! inside any loop body in the kernel crates. Closures defined inside
//! a loop body count: the par-chunk callback *is* the inner loop.
//! `impl Trait for Type` is not a loop; test code is exempt.

use super::{finding, FileCx};
use crate::report::Finding;

pub fn run(cx: &FileCx) -> Vec<Finding> {
    let src = cx.src;
    let bodies = loop_bodies(cx);
    let mut out = Vec::new();
    for i in 0..src.len() {
        if cx.scopes.in_test(i) || !bodies.iter().any(|&(open, close)| open < i && i < close) {
            continue;
        }
        for name in ["scope", "scope_bytes"] {
            if !src.is_ident(i, name) || !src.is_punct(i + 1, '(') {
                continue;
            }
            // `hadfl_prof::scope(` — or a bare imported call, which a
            // leading `.` (method) or `::` (some other path) rules out.
            let pathed = i >= 2 && src.is_path_sep(i - 2);
            let qualified = pathed && src.is_ident(i - 3, "hadfl_prof");
            let bare = !(pathed
                || src.is_punct(i.wrapping_sub(1), '.')
                || src.is_ident(i.wrapping_sub(1), "fn"));
            if qualified || bare {
                out.push(finding(
                    cx,
                    i,
                    "prof-in-inner-loop",
                    format!(
                        "`{name}(...)` inside a loop body pays the guard and a \
                         call-tree row per iteration — hoist the scope above the \
                         loop so one guard covers the whole op"
                    ),
                ));
            }
        }
    }
    out
}

/// Code-token extents `(open, close)` of every `for`/`while`/`loop`
/// body's braces.
fn loop_bodies(cx: &FileCx) -> Vec<(usize, usize)> {
    let src = cx.src;
    let n = src.len();
    let mut out = Vec::new();
    for i in 0..n {
        let (is_for, is_while, is_loop) = (
            src.is_ident(i, "for"),
            src.is_ident(i, "while"),
            src.is_ident(i, "loop"),
        );
        if !(is_for || is_while || is_loop) {
            continue;
        }
        if is_loop {
            if src.is_punct(i + 1, '{') {
                out.push((i + 1, cx.scopes.close_of(i + 1)));
            }
            continue;
        }
        // Scan the loop head for its body `{` (bare struct literals
        // are illegal in conditions, so the first top-level `{` is the
        // body), skipping bracket groups — a closure's block inside
        // `while f(|| { .. })` stays inside its `(` group. A `for`
        // with no top-level `in` along the way is `impl Trait for
        // Type` or a higher-ranked `for<'a>`, not a loop.
        let mut saw_in = false;
        let mut j = i + 1;
        while j < n {
            if src.is_punct(j, '(') || src.is_punct(j, '[') {
                j = cx.scopes.close_of(j);
            } else if src.is_ident(j, "in") {
                saw_in = true;
            } else if src.is_punct(j, '{') {
                if is_while || saw_in {
                    out.push((j, cx.scopes.close_of(j)));
                }
                break;
            } else if src.is_punct(j, ';') {
                break;
            }
            j += 1;
        }
    }
    out
}
