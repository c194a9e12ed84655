//! `blocking-in-emit`: no blocking work on the telemetry hot path.
//!
//! `Telemetry::emit` and `Sink::record` run inline in the protocol's
//! reader and training threads — a lock acquisition or a
//! file/socket operation there turns observability into backpressure
//! on the thing being observed. Blocking work belongs on a worker
//! thread (the `ShipSink` pattern: classify + atomics + channel send
//! on the hot side, sockets on the shipper thread). The rule scans
//! the bodies of functions named `emit` or `record` — including
//! closures defined inside them — for `.lock()` calls and file/socket
//! construction. `writeln!` to an already-open writer stays legal:
//! the open, not the write, is the unbounded stall.

use super::{finding, FileCx};
use crate::report::Finding;

/// Types whose associated functions open files or sockets.
const IO_TYPES: [&str; 5] = [
    "File",
    "OpenOptions",
    "TcpStream",
    "TcpListener",
    "UdpSocket",
];

pub fn run(cx: &FileCx) -> Vec<Finding> {
    let src = cx.src;
    let mut out = Vec::new();
    for i in 0..src.len() {
        if cx.scopes.in_test(i) || !in_hot_path(cx, i) {
            continue;
        }
        if src.is_punct(i, '.') && src.is_ident(i + 1, "lock") && src.is_punct(i + 2, '(') {
            out.push(finding(
                cx,
                i + 1,
                "blocking-in-emit",
                "`.lock()` on the emit hot path can stall the thread being observed — \
                 use atomics or hand off through a channel to a worker thread"
                    .to_string(),
            ));
        }
        if src.is_path_sep(i + 1) {
            for ty in IO_TYPES {
                if src.is_ident(i, ty) {
                    out.push(finding(
                        cx,
                        i,
                        "blocking-in-emit",
                        format!(
                            "`{ty}::` on the emit hot path opens a file or socket — do \
                             the I/O on a worker thread (see `ShipSink`)"
                        ),
                    ));
                }
            }
            if src.is_ident(i, "fs") {
                out.push(finding(
                    cx,
                    i,
                    "blocking-in-emit",
                    "`fs::` on the emit hot path touches the filesystem — do the I/O \
                     on a worker thread (see `ShipSink`)"
                        .to_string(),
                ));
            }
        }
    }
    out
}

/// Whether any enclosing function is named `emit` or `record` —
/// closures and nested helpers defined inside them inherit the
/// hot-path constraint.
fn in_hot_path(cx: &FileCx, i: usize) -> bool {
    cx.scopes
        .fns
        .iter()
        .filter(|f| f.body_open <= i && i <= f.body_close)
        .any(|f| f.name == "emit" || f.name == "record")
}
