//! `unwrap-in-protocol`: no `unwrap`/`expect`/explicit panics in
//! non-test protocol code.
//!
//! A panic in the transport or executor kills a reader, accept, or
//! driver thread silently and wedges the node — errors must propagate
//! (`?`, `Result`) or be logged through telemetry. This extends the
//! old two-file `#![warn(clippy::unwrap_used)]` annotations to every
//! non-test line of `crates/net` and the core protocol modules. Test
//! modules (`#[cfg(test)]`), `#[test]` fns, and doc-comment examples
//! are exempt by construction; `unwrap_or`/`unwrap_or_else`/
//! `unwrap_or_default` never match (token equality, not substrings).

use super::{finding, FileCx};
use crate::report::Finding;

const PANICKY_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

pub fn run(cx: &FileCx) -> Vec<Finding> {
    let src = cx.src;
    let mut out = Vec::new();
    for i in 0..src.len() {
        if cx.scopes.in_test(i) {
            continue;
        }
        if src.is_punct(i, '.') && src.is_punct(i + 2, '(') {
            for m in PANICKY_METHODS {
                if src.is_ident(i + 1, m) {
                    out.push(finding(
                        cx,
                        i + 1,
                        "unwrap-in-protocol",
                        format!(
                            "`.{m}()` in protocol code can panic a runtime thread — \
                             propagate the error or log it via telemetry"
                        ),
                    ));
                }
            }
        }
        if src.is_punct(i + 1, '!') {
            for m in PANIC_MACROS {
                if src.is_ident(i, m) {
                    out.push(finding(
                        cx,
                        i,
                        "unwrap-in-protocol",
                        format!(
                            "`{m}!` in protocol code kills the thread silently — \
                             return an error instead"
                        ),
                    ));
                }
            }
        }
    }
    out
}
