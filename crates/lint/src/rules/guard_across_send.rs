//! `guard-across-send`: no lock guard held across `Port::send`.
//!
//! A two-argument `.send(to, msg)` (the `Port::send` shape) can block
//! on a slow peer's TCP buffer; a mutex guard held meanwhile stalls
//! the reader threads into a distributed deadlock.
//! One-argument channel sends are non-blocking and exempt.
//!
//! The rule tracks guard *lifetimes*, which is what the old awk gate
//! could not do. Its three documented blind spots are regression
//! fixtures:
//!
//! - **method-chain guards** (false negative): `let g =
//!   m.lock().unwrap();` still binds a guard — `unwrap`, `expect` and
//!   `unwrap_or_else` are guard-preserving, unlike `len()`/`clone()`
//!   which reduce the statement to a value and drop the temporary
//!   guard at the `;`.
//! - **`drop()` before send** (false positive): `drop(g)` ends the
//!   guard; a later send is fine.
//! - **shadowed guards** (false negative): `let g = compute();` in an
//!   inner scope does *not* end an outer guard named `g` — Rust drops
//!   shadowed values at scope end, not at the shadowing `let`.

use super::{finding, let_statements, split_args, FileCx, LetStmt};
use crate::report::Finding;

/// Zero-argument methods that acquire a guard.
const ACQUIRE: [&str; 3] = ["lock", "read", "write"];
/// Chain methods that pass a guard through (Result/option shells).
const PRESERVE: [&str; 3] = ["unwrap", "expect", "unwrap_or_else"];

struct Guard {
    name: String,
    depth: u32,
    line: u32,
}

pub fn run(cx: &FileCx) -> Vec<Finding> {
    let src = cx.src;
    let lets = let_statements(cx);
    let mut live: Vec<Guard> = Vec::new();
    let mut out = Vec::new();
    for i in 0..src.len() {
        if src.is_punct(i, '}') {
            let d = cx.scopes.depth(i);
            live.retain(|g| g.depth <= d);
            continue;
        }
        if src.is_ident(i, "let") {
            if let Some(stmt) = lets.iter().find(|s| s.let_idx == i) {
                if let (Some(name), true) = (&stmt.name, init_is_guard(cx, stmt)) {
                    live.push(Guard {
                        name: name.clone(),
                        // An `if let`/`while let` binding lives in the
                        // block that follows, one level deeper.
                        depth: cx.scopes.depth(i) + u32::from(stmt.is_cond),
                        line: src.tok(i).line,
                    });
                }
            }
            continue;
        }
        // `drop(name)` ends the innermost guard of that name.
        if src.is_ident(i, "drop")
            && src.is_punct(i + 1, '(')
            && src.is_any_ident(i + 2)
            && src.is_punct(i + 3, ')')
        {
            let name = src.text_of(i + 2);
            if let Some(pos) = live.iter().rposition(|g| g.name == name) {
                live.remove(pos);
            }
            continue;
        }
        // Two-argument `.send(to, msg)` — the blocking Port::send shape.
        if src.is_punct(i, '.') && src.is_ident(i + 1, "send") && src.is_punct(i + 2, '(') {
            let close = cx.scopes.close_of(i + 2);
            if split_args(cx, i + 2, close).len() >= 2 && !live.is_empty() {
                let held: Vec<String> = live
                    .iter()
                    .map(|g| format!("`{}` (bound line {})", g.name, g.line))
                    .collect();
                out.push(finding(
                    cx,
                    i + 1,
                    "guard-across-send",
                    format!(
                        "`Port::send` with lock guard{} {} still held — drop the \
                         guard (or confine it to a temporary) before sending",
                        if held.len() > 1 { "s" } else { "" },
                        held.join(", ")
                    ),
                ));
            }
        }
    }
    out
}

/// Whether a `let` initializer binds a guard: it contains a
/// zero-argument `lock()`/`read()`/`write()` whose method chain runs
/// to the end of the initializer through guard-preserving methods
/// only. `m.lock().remove(&k)` reduces to a value (temporary guard,
/// dropped at the `;`); `m.lock().unwrap()` stays a guard.
fn init_is_guard(cx: &FileCx, stmt: &LetStmt) -> bool {
    let src = cx.src;
    let Some((start, end)) = stmt.init else {
        return false;
    };
    let mut j = start;
    while j + 2 < end {
        let acquires = ACQUIRE.iter().any(|m| src.is_ident(j, m))
            && src.is_punct(j + 1, '(')
            && src.is_punct(j + 2, ')');
        if !acquires {
            j += 1;
            continue;
        }
        // Follow the chain from after `lock()`.
        let mut k = j + 3;
        let mut guardish = true;
        while k < end && guardish {
            if src.is_punct(k, '?') {
                k += 1;
            } else if src.is_punct(k, '.') && src.is_any_ident(k + 1) && src.is_punct(k + 2, '(') {
                if PRESERVE.iter().any(|m| src.is_ident(k + 1, m)) {
                    k = cx.scopes.close_of(k + 2) + 1;
                } else {
                    guardish = false;
                }
            } else {
                // Anything else before the end of the initializer
                // (an operator, a closing paren of an enclosing call)
                // means the lock() result is consumed mid-expression.
                guardish = false;
            }
        }
        if guardish && k >= end {
            return true;
        }
        j += 1;
    }
    false
}
