//! `nonblocking-listener`: no `set_nonblocking(true)` outside tests.
//!
//! With std alone there is no readiness API (no epoll, no reactor), so
//! a nonblocking socket can only be waited on by sleeping and retrying:
//! a sleep-poll whose period lands on every event it waits for. The TCP
//! transport's 20 ms accept poll was exactly that — it added one poll
//! period to the first frame of every new connection. Listeners block
//! in `accept` instead (`hadfl_telemetry::accept_until`) and are woken
//! at stop by a connection to their own address (`stop_accept`).
//! `set_nonblocking(false)` restores blocking mode and is not flagged;
//! test code is exempt.

use super::{finding, FileCx};
use crate::report::Finding;

pub fn run(cx: &FileCx) -> Vec<Finding> {
    let src = cx.src;
    let mut out = Vec::new();
    for i in 0..src.len() {
        if cx.scopes.in_test(i) {
            continue;
        }
        if src.is_ident(i, "set_nonblocking")
            && src.is_punct(i + 1, '(')
            && src.is_ident(i + 2, "true")
            && (src.is_punct(i + 3, ')') || src.is_punct(i + 3, ','))
        {
            out.push(finding(
                cx,
                i,
                "nonblocking-listener",
                "`set_nonblocking(true)` without a readiness API is a sleep-poll — \
                 block in `accept_until` and wake it with `stop_accept`"
                    .to_string(),
            ));
        }
    }
    out
}
