//! `raw-frame`: no frame construction outside `wire::seal`/`open`.
//!
//! Every on-wire frame carries a causal stamp (origin + Lamport
//! clock); a transport that calls `Message::encode`/`decode` directly
//! ships an unstamped frame the causal merge cannot order. The
//! sanctioned surface is `wire::seal` / `wire::open` and their split
//! forms for socket transports — `wire::seal_split`,
//! `wire::split_frame` and the `ParamFrame` it returns — all of which
//! stamp; the halves they are built from (`encode_head`,
//! `encode_into`) are as raw as `encode` and flagged the same way. The
//! per-file symbol table supplies the one principled exemption: the
//! body of `fn digest_msg` (a model-checker digest, not a wire
//! frame). `encoded_len` never matches — the match is on exact
//! identifier tokens, not substrings, which is precisely what the old
//! awk gate could not guarantee.

use super::{finding, FileCx};
use crate::report::Finding;

pub fn run(cx: &FileCx) -> Vec<Finding> {
    let src = cx.src;
    let mut out = Vec::new();
    for i in 0..src.len() {
        let hit = if src.is_punct(i, '.')
            && src.is_ident(i + 1, "encode")
            && src.is_punct(i + 2, '(')
            && src.is_punct(i + 3, ')')
        {
            Some("encode")
        } else if let Some(half) = ["encode_head", "encode_into"].into_iter().find(|half| {
            src.is_punct(i, '.') && src.is_ident(i + 1, half) && src.is_punct(i + 2, '(')
        }) {
            Some(half)
        } else if src.is_ident(i + 1, "decode")
            && src.is_punct(i + 2, '(')
            && (src.is_punct(i, '.') || (i > 0 && src.is_path_sep(i - 1)))
        {
            Some("decode")
        } else {
            None
        };
        let Some(name) = hit else { continue };
        if let Some(f) = cx.scopes.enclosing_fn(i) {
            if f.name == "digest_msg" {
                continue; // model-checker digest, not a wire frame
            }
        }
        out.push(finding(
            cx,
            i + 1,
            "raw-frame",
            format!(
                "raw `{name}` builds an unstamped frame — go through \
                 `wire::seal` / `wire::open` so the causal merge can order it"
            ),
        ));
    }
    out
}
