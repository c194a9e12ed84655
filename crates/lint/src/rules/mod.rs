//! Rule registry and the helpers shared by rules.
//!
//! Every rule is a pure function over one file's token/scope model,
//! paired with a *path scope*: the workspace-relative prefixes it
//! applies to and an explicit allowlist of exclusions, each carrying
//! a reason. The scopes are directory-shaped (new modules are covered
//! the day they are added) — the opposite of the hand-listed files of
//! the old `tools/lint.sh` gates.

use crate::report::Finding;
use crate::scope::{ScopeMap, SourceFile};

pub mod ambient_clock;
pub mod blocking_in_emit;
pub mod float_reduce_order;
pub mod guard_across_send;
pub mod nonblocking_listener;
pub mod nondet_iteration;
pub mod park_loop_spin;
pub mod print_in_protocol;
pub mod prof_in_inner_loop;
pub mod raw_frame;
pub mod raw_spawn;
pub mod unwrap_in_protocol;

/// Per-file analysis context handed to each rule.
pub struct FileCx<'a> {
    pub src: &'a SourceFile,
    pub scopes: &'a ScopeMap,
}

/// Where a rule applies, with explicit reasoned exclusions.
pub struct Scope {
    /// Directory prefixes (trailing `/`).
    pub dirs: &'static [&'static str],
    /// Individual files.
    pub files: &'static [&'static str],
    /// `(prefix, reason)` carve-outs within the included set.
    pub excludes: &'static [(&'static str, &'static str)],
}

impl Scope {
    pub fn matches(&self, path: &str) -> bool {
        let included = self.dirs.iter().any(|d| path.starts_with(d)) || self.files.contains(&path);
        included && !self.excludes.iter().any(|(p, _)| path.starts_with(p))
    }
}

/// A registered rule.
pub struct Rule {
    pub id: &'static str,
    /// One-line description for `--list-rules`.
    pub summary: &'static str,
    pub scope: Scope,
    pub run: fn(&FileCx) -> Vec<Finding>,
}

/// The registry, in gate order (1–5 are the old `tools/lint.sh`
/// gates, now scope-aware; 6–8 are new).
pub fn all() -> &'static [Rule] {
    &RULES
}

/// Looks up rules by id; unknown ids yield `None`.
pub fn by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// All registered rule ids (waiver validation).
pub fn ids() -> Vec<&'static str> {
    RULES.iter().map(|r| r.id).collect()
}

static RULES: [Rule; 12] = [
    Rule {
        id: "ambient-clock",
        summary: "no Instant::now()/SystemTime::now() in protocol paths — time goes \
                  through the hadfl::clock::Clock seam so hadfl-check stays sound",
        scope: Scope {
            dirs: &["crates/core/src/", "crates/net/src/"],
            files: &[],
            excludes: &[],
        },
        run: ambient_clock::run,
    },
    Rule {
        id: "guard-across-send",
        summary: "no lock guard held across a blocking two-argument Port::send — a \
                  stalled peer must not wedge the reader threads",
        scope: Scope {
            dirs: &["crates/core/src/", "crates/net/src/"],
            files: &[],
            excludes: &[],
        },
        run: guard_across_send::run,
    },
    Rule {
        id: "print-in-protocol",
        summary: "no print!/println!/eprint!/eprintln!/dbg! in protocol paths — \
                  observability goes through hadfl-telemetry events",
        scope: Scope {
            dirs: &["crates/core/src/", "crates/net/src/"],
            files: &[],
            excludes: &[(
                "crates/net/src/bin/",
                "a CLI binary's stdout/stderr is its user interface",
            )],
        },
        run: print_in_protocol::run,
    },
    Rule {
        id: "raw-frame",
        summary: "no Message::encode()/decode() (or their encode_head/encode_into halves) \
                  outside wire::seal/wire::open and the split forms seal_split/split_frame \
                  — every on-wire frame must carry a causal stamp",
        scope: Scope {
            dirs: &["crates/core/src/", "crates/net/src/"],
            files: &[],
            excludes: &[(
                "crates/core/src/wire.rs",
                "the defining module: seal/open and their split forms are built from \
                 encode/decode here",
            )],
        },
        run: raw_frame::run,
    },
    Rule {
        id: "raw-spawn",
        summary: "no raw thread spawns in the compute kernels — parallelism flows \
                  through hadfl-par's fixed chunk boundaries (crates/par itself is \
                  the one sanctioned spawner and is outside this scope)",
        scope: Scope {
            dirs: &["crates/tensor/src/", "crates/nn/src/"],
            files: &["crates/core/src/aggregate.rs"],
            excludes: &[],
        },
        run: raw_spawn::run,
    },
    Rule {
        id: "nondeterministic-iteration",
        summary: "no iteration over HashMap/HashSet in digest, aggregation, \
                  coordinator-selection, or trace-merge paths — iteration order \
                  escapes into wire traffic and telemetry; use BTreeMap or sort",
        scope: Scope {
            dirs: &[
                "crates/core/src/",
                "crates/net/src/",
                "crates/telemetry/src/",
            ],
            files: &[],
            excludes: &[],
        },
        run: nondet_iteration::run,
    },
    Rule {
        id: "unwrap-in-protocol",
        summary: "no unwrap/expect/panic!/unreachable! in non-test protocol code — a \
                  panic kills a reader or driver thread silently and wedges the node",
        scope: Scope {
            dirs: &["crates/net/src/", "crates/core/src/exec/"],
            files: &[
                "crates/core/src/transport.rs",
                "crates/core/src/wire.rs",
                "crates/core/src/coordinator.rs",
                "crates/core/src/gossip.rs",
                "crates/core/src/driver.rs",
            ],
            excludes: &[(
                "crates/core/src/exec/tests.rs",
                "the body of exec's `#[cfg(test)] mod tests;` — test code, but the \
                 attribute that says so sits in mod.rs, out of a per-file analysis' sight",
            )],
        },
        run: unwrap_in_protocol::run,
    },
    Rule {
        id: "float-reduce-order",
        summary: "no naive f32/f64 sum or float fold outside the fixed-association \
                  chunked_sum/par_reduce helpers — free-order accumulation breaks \
                  bit-identity across HADFL_THREADS",
        scope: Scope {
            dirs: &["crates/tensor/src/"],
            files: &["crates/core/src/aggregate.rs"],
            excludes: &[],
        },
        run: float_reduce_order::run,
    },
    Rule {
        id: "blocking-in-emit",
        summary: "no .lock() or file/socket construction in Telemetry::emit / \
                  Sink::record bodies — the telemetry hot path runs inline in \
                  protocol threads; blocking work goes to a shipper thread",
        scope: Scope {
            dirs: &["crates/telemetry/src/"],
            files: &[],
            excludes: &[],
        },
        run: blocking_in_emit::run,
    },
    Rule {
        id: "prof-in-inner-loop",
        summary: "no hadfl_prof::scope/scope_bytes inside for/while/loop bodies in \
                  kernel code — the guard and its call-tree row are per-invocation \
                  costs; hoist one scope above the loop to cover the whole op",
        scope: Scope {
            dirs: &["crates/tensor/src/", "crates/nn/src/", "crates/par/src/"],
            files: &["crates/core/src/aggregate.rs", "crates/core/src/wire.rs"],
            excludes: &[],
        },
        run: prof_in_inner_loop::run,
    },
    Rule {
        id: "park-loop-spin",
        summary: "no `.load(...)` polling loops without park/park_timeout/sleep/\
                  yield_now in the worker pool — idle waiting must park the thread, \
                  not burn a core spinning on an atomic",
        scope: Scope {
            dirs: &["crates/par/src/"],
            files: &[],
            excludes: &[],
        },
        run: park_loop_spin::run,
    },
    Rule {
        id: "nonblocking-listener",
        summary: "no set_nonblocking(true) outside tests — with std alone and no \
                  readiness API a nonblocking socket is a sleep-poll; block in \
                  accept_until and wake it with stop_accept",
        scope: Scope {
            dirs: &[
                "crates/core/src/",
                "crates/net/src/",
                "crates/telemetry/src/",
            ],
            files: &[],
            excludes: &[],
        },
        run: nonblocking_listener::run,
    },
];

/// Builds a finding anchored at code token `i`.
pub fn finding(cx: &FileCx, i: usize, rule: &str, message: String) -> Finding {
    let tok = cx.src.tok(i);
    Finding {
        rule: rule.to_string(),
        file: cx.src.path.clone(),
        line: tok.line,
        col: tok.col,
        message,
    }
}

/// A parsed `let` statement (including `if let` / `while let`).
pub struct LetStmt {
    /// Code index of the `let` keyword.
    pub let_idx: usize,
    /// The bound name for simple patterns (`let x`, `let mut x`,
    /// `let Ok(x)`, `let Some(x)`); `None` for other patterns.
    pub name: Option<String>,
    /// Initializer code-token range `[start, end)`; `None` for
    /// `let x;`.
    pub init: Option<(usize, usize)>,
    /// Whether this is the condition of `if let` / `while let` (the
    /// binding scopes over the following block, one level deeper).
    pub is_cond: bool,
}

/// Parses every `let` statement in the file.
pub fn let_statements(cx: &FileCx) -> Vec<LetStmt> {
    let src = cx.src;
    let n = src.len();
    let mut out = Vec::new();
    for i in 0..n {
        if !src.is_ident(i, "let") {
            continue;
        }
        let is_cond = i > 0 && (src.is_ident(i - 1, "if") || src.is_ident(i - 1, "while"));
        let mut j = i + 1;
        if src.is_ident(j, "mut") {
            j += 1;
        }
        let name = if src.is_any_ident(j) {
            let head = src.text_of(j).to_string();
            if (head == "Ok" || head == "Some")
                && src.is_punct(j + 1, '(')
                && src.is_any_ident(j + 2)
                && src.is_punct(j + 3, ')')
            {
                Some(src.text_of(j + 2).to_string())
            } else if head == "Ok" || head == "Some" || head == "Err" {
                None
            } else {
                Some(head)
            }
        } else {
            None
        };
        // Find the `=` introducing the initializer, skipping bracket
        // groups in the pattern/type (`let S { a }: Map<K, V> = …`).
        let mut k = j;
        let mut eq = None;
        while k < n {
            if src.is_punct(k, '(') || src.is_punct(k, '[') || src.is_punct(k, '{') {
                k = cx.scopes.close_of(k);
            } else if src.is_punct(k, ';') {
                break;
            } else if src.is_punct(k, '=')
                && !src.is_punct(k + 1, '=')
                && !src.is_punct(k + 1, '>')
                && !src.is_punct(k.wrapping_sub(1), '=')
                && !src.is_punct(k.wrapping_sub(1), '!')
                && !src.is_punct(k.wrapping_sub(1), '<')
                && !src.is_punct(k.wrapping_sub(1), '>')
            {
                eq = Some(k);
                break;
            }
            k += 1;
        }
        let init = eq.map(|eq| {
            let start = eq + 1;
            let mut m = start;
            while m < n {
                if src.is_punct(m, ';') {
                    break;
                }
                if src.is_ident(m, "else") {
                    break; // let-else
                }
                if src.is_punct(m, '{') {
                    if is_cond {
                        break; // the condition's block opens here
                    }
                    m = cx.scopes.close_of(m);
                } else if src.is_punct(m, '(') || src.is_punct(m, '[') {
                    m = cx.scopes.close_of(m);
                }
                m += 1;
            }
            (start, m)
        });
        out.push(LetStmt {
            let_idx: i,
            name,
            init,
            is_cond,
        });
    }
    out
}

/// Splits a call's argument extent `(open, close)` (exclusive of the
/// parens) at top-level commas, returning code-index ranges.
pub fn split_args(cx: &FileCx, open: usize, close: usize) -> Vec<(usize, usize)> {
    let src = cx.src;
    let mut out = Vec::new();
    let mut start = open + 1;
    let mut j = start;
    while j < close {
        if src.is_punct(j, '(') || src.is_punct(j, '[') || src.is_punct(j, '{') {
            j = cx.scopes.close_of(j);
        } else if src.is_punct(j, ',') {
            out.push((start, j));
            start = j + 1;
        } else if src.is_punct(j, '|') {
            // Closure parameter list: skip to its closing `|` so the
            // closure's internal commas stay internal.
            let mut k = j + 1;
            while k < close && !src.is_punct(k, '|') {
                if src.is_punct(k, '(') || src.is_punct(k, '[') {
                    k = cx.scopes.close_of(k);
                }
                k += 1;
            }
            j = k;
        }
        j += 1;
    }
    if start < close {
        out.push((start, close));
    }
    out
}
