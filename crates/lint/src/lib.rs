//! hadfl-lint — scope-aware static analyzer for the HADFL workspace
//! invariants.
//!
//! The repo enforces invariants that `clippy` cannot express and that
//! grep kept getting wrong: the `Clock` seam behind `hadfl-check`'s
//! exhaustive exploration, the DESIGN.md §10 determinism contract,
//! the no-guard-across-`Port::send` deadlock rule, and
//! `wire::seal`/`open` causal stamping. This crate reimplements those
//! gates — plus new rules — as a real analyzer: its own lexer
//! (strings, raw strings, char literals, nested comments, generics),
//! a brace/scope tracker, and a per-file symbol table, with no
//! external dependencies.
//!
//! Rules (see [`rules::all`], and `--list-rules`): six hand-written
//! analyses (`guard-across-send`, `nondeterministic-iteration`,
//! `float-reduce-order`, `blocking-in-emit`, `prof-in-inner-loop`,
//! `park-loop-spin`) and one banned-token table
//! ([`rules::banned`]) whose rows are `ambient-clock`,
//! `print-in-protocol`, `raw-frame`, `raw-spawn`, `unwrap-in-protocol`,
//! `nonblocking-listener`, and the `layering` and `retired` rows that
//! replaced the CI job's greps. A `--workspace` run also reports every
//! path a scope names that does not exist (`missing-path`).
//!
//! Findings carry `file:line:col` spans in human and `--json` form.
//! Inline waivers — `// lint:allow(rule): reason` — are honored only
//! with a non-empty reason, and flagged when unused (see [`waiver`]).
//! The analyzer proves itself on a seeded-violation fixture corpus
//! (`fixtures/`) that the test suite must classify with zero false
//! negatives and zero false positives, including the old awk gate's
//! documented blind spots.

pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;
pub mod waiver;
pub mod workspace;

use report::Finding;
use rules::{FileCx, Rule};
use scope::{ScopeMap, SourceFile};

/// Analysis result for one file.
pub struct FileResult {
    /// Surviving findings (rule findings minus waived, plus waiver
    /// meta-findings).
    pub findings: Vec<Finding>,
    /// Count of findings suppressed by valid waivers.
    pub waived: usize,
}

/// Runs the named rules over one source text. `path` labels findings
/// and is *not* re-checked against rule scopes — fixture tests force
/// rules on by id (every row of an id shared by several table rows).
///
/// Unknown rule ids are ignored; waiver grammar violations and unused
/// waivers surface as `invalid-waiver` / `unused-waiver` findings.
pub fn analyze_source(path: &str, text: &str, rule_ids: &[&str]) -> FileResult {
    analyze_rules(
        path,
        text,
        rules::all().filter(|r| rule_ids.contains(&r.id)),
    )
}

/// Runs the `selected` rules over one source text (the workspace
/// driver selects by scope), then applies the file's waivers.
pub(crate) fn analyze_rules<'r>(
    path: &str,
    text: &str,
    selected: impl IntoIterator<Item = &'r Rule>,
) -> FileResult {
    let src = SourceFile::new(path, text);
    let scopes = ScopeMap::build(&src);
    let cx = FileCx {
        src: &src,
        scopes: &scopes,
    };
    let raw: Vec<Finding> = selected
        .into_iter()
        .flat_map(|rule| rule.run(&cx))
        .collect();
    let mut findings = Vec::new();
    let waivers = waiver::collect(&src, &rules::ids(), &mut findings);
    let waived = waiver::apply(&src, waivers, raw, &mut findings);
    FileResult { findings, waived }
}
