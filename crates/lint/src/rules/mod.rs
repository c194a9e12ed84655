//! Rule registry and the helpers shared by rules.
//!
//! Every rule is paired with a *path scope*: the workspace-relative
//! paths it applies to and an explicit allowlist of exclusions, each
//! carrying a reason. The scopes are directory-shaped where they can be
//! (new modules are covered the day they are added), and a path a scope
//! names that does not exist is a finding of its own (`missing-path`,
//! reported by a `--workspace` run), so a rename cannot switch a rule
//! off without a word.
//!
//! A rule either bans code-token sequences — one row of the
//! [`banned`] table, one matcher for all of them — or is a hand-written
//! analysis over the file's token/scope model ([`Check::Custom`]).

use crate::report::Finding;
use crate::scope::{ScopeMap, SourceFile};

pub mod banned;
pub mod blocking_in_emit;
pub mod float_reduce_order;
pub mod guard_across_send;
pub mod nondet_iteration;
pub mod park_loop_spin;
pub mod prof_in_inner_loop;

/// Per-file analysis context handed to each rule.
pub struct FileCx<'a> {
    pub src: &'a SourceFile,
    pub scopes: &'a ScopeMap,
}

/// Where a rule applies, with explicit reasoned exclusions. A path
/// ending in `/` is a directory and covers everything under it; any
/// other path is a file. A `*` segment matches any one name.
pub struct Scope {
    pub include: &'static [&'static str],
    /// `(path, reason)` carve-outs within the included set.
    pub exclude: &'static [(&'static str, &'static str)],
}

impl Scope {
    /// A scope with no carve-outs.
    pub const fn of(include: &'static [&'static str]) -> Scope {
        Scope {
            include,
            exclude: &[],
        }
    }

    pub fn matches(&self, path: &str) -> bool {
        self.include.iter().any(|p| covers(p, path))
            && !self.exclude.iter().any(|(p, _)| covers(p, path))
    }

    /// Every path the scope names, included or excluded.
    pub(crate) fn paths(&self) -> impl Iterator<Item = &'static str> {
        let excluded = self.exclude.iter().map(|(p, _)| *p);
        self.include.iter().copied().chain(excluded)
    }
}

/// Whether `path` is the scope path `pat` or lies under it.
pub(crate) fn covers(pat: &str, path: &str) -> bool {
    let mut names = path.split('/');
    pat.split_terminator('/')
        .all(|want| names.next().is_some_and(|name| want == "*" || want == name))
}

/// A registered rule.
pub struct Rule {
    pub id: &'static str,
    /// One-line description for `--list-rules`, with the reason.
    pub summary: &'static str,
    pub scope: Scope,
    pub check: Check,
}

/// How a rule finds its violations.
pub enum Check {
    /// Bans code-token sequences: a row of [`banned::TABLE`].
    Banned(banned::Ban),
    /// A hand-written analysis over the file's token/scope model.
    Custom(fn(&FileCx) -> Vec<Finding>),
}

impl Rule {
    pub(crate) fn run(&self, cx: &FileCx) -> Vec<Finding> {
        match &self.check {
            Check::Banned(ban) => banned::run(cx, self, ban),
            Check::Custom(run) => run(cx),
        }
    }
}

/// The registry: the hand-written rules, then the banned-token table.
/// Rows of the table may share an id (`layering`, `retired`).
pub fn all() -> impl Iterator<Item = &'static Rule> {
    RULES.iter().chain(&banned::TABLE)
}

/// All registered rule ids, sorted, once each (waiver validation).
pub fn ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = all().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

static RULES: [Rule; 6] = [
    Rule {
        id: "guard-across-send",
        summary: "no lock guard held across a blocking two-argument Port::send — a \
                  stalled peer must not wedge the reader threads",
        scope: Scope::of(&["crates/core/src/", "crates/net/src/"]),
        check: Check::Custom(guard_across_send::run),
    },
    Rule {
        id: "nondeterministic-iteration",
        summary: "no iteration over HashMap/HashSet in digest, aggregation, \
                  coordinator-selection, or trace-merge paths — iteration order \
                  escapes into wire traffic and telemetry; use BTreeMap or sort",
        scope: Scope::of(&[
            "crates/core/src/",
            "crates/net/src/",
            "crates/telemetry/src/",
        ]),
        check: Check::Custom(nondet_iteration::run),
    },
    Rule {
        id: "float-reduce-order",
        summary: "no naive f32/f64 sum or float fold outside the fixed-association \
                  chunked_sum/par_reduce helpers — free-order accumulation breaks \
                  bit-identity across HADFL_THREADS",
        scope: Scope::of(&["crates/tensor/src/", "crates/core/src/aggregate.rs"]),
        check: Check::Custom(float_reduce_order::run),
    },
    Rule {
        id: "blocking-in-emit",
        summary: "no .lock() or file/socket construction in Telemetry::emit / \
                  Sink::record bodies — the telemetry hot path runs inline in \
                  protocol threads; blocking work goes to a shipper thread",
        scope: Scope::of(&["crates/telemetry/src/"]),
        check: Check::Custom(blocking_in_emit::run),
    },
    Rule {
        id: "prof-in-inner-loop",
        summary: "no hadfl_prof::scope/scope_bytes inside for/while/loop bodies in \
                  kernel code — the guard and its call-tree row are per-invocation \
                  costs; hoist one scope above the loop to cover the whole op",
        scope: Scope::of(&[
            "crates/tensor/src/",
            "crates/nn/src/",
            "crates/par/src/",
            "crates/core/src/aggregate.rs",
            "crates/core/src/wire.rs",
        ]),
        check: Check::Custom(prof_in_inner_loop::run),
    },
    Rule {
        id: "park-loop-spin",
        summary: "no `.load(...)` polling loops without park/park_timeout/sleep/\
                  yield_now in the worker pool — idle waiting must park the thread, \
                  not burn a core spinning on an atomic",
        scope: Scope::of(&["crates/par/src/"]),
        check: Check::Custom(park_loop_spin::run),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_paths_cover_directories_files_and_star_segments() {
        assert!(covers("crates/net/src/", "crates/net/src/bin/tool.rs"));
        assert!(covers("crates/core/src/wire.rs", "crates/core/src/wire.rs"));
        assert!(covers("crates/*/tests/", "crates/lint/tests/fixtures.rs"));
        assert!(!covers("crates/*/tests/", "crates/lint/fixtures/ok.rs"));
        // Whole names only: `exec/` is not `exec.rs`, `bin/` not `binx/`.
        assert!(!covers("crates/core/src/exec/", "crates/core/src/exec.rs"));
        assert!(!covers("crates/net/src/bin/", "crates/net/src/binx/a.rs"));
        let scope = Scope {
            include: &["crates/core/src/"],
            exclude: &[("crates/core/src/wire.rs", "reason")],
        };
        assert!(scope.matches("crates/core/src/exec/ring.rs"));
        assert!(!scope.matches("crates/core/src/wire.rs"));
        assert_eq!(
            scope.paths().collect::<Vec<_>>(),
            ["crates/core/src/", "crates/core/src/wire.rs"]
        );
    }
}
