//! The seeded-violation corpus: every fixture must classify with zero
//! false negatives AND zero false positives.
//!
//! Expected findings are `//~ rule-name` markers trailing the line
//! they anchor to. `bad.rs` files seed violations (including the old
//! awk gate's documented blind spots); `ok.rs` files are known-clean
//! look-alikes. Each directory is named after the rule it exercises
//! (underscores for hyphens); its rule is forced on regardless of
//! path scope.

use std::fs;
use std::path::{Path, PathBuf};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// `(line, rule)` pairs declared by `//~` markers, sorted.
fn expected_markers(text: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        for part in line.split("//~").skip(1) {
            let rule = part.split_whitespace().next().unwrap_or("");
            assert!(!rule.is_empty(), "empty //~ marker on line {}", idx + 1);
            out.push((idx as u32 + 1, rule.to_string()));
        }
    }
    out.sort();
    out
}

/// Runs `rules` over every `.rs` file in `fixtures/<dir>` and demands
/// the findings match the markers exactly.
fn check_dir(dir: &str, rules: &[&str]) {
    let root = fixtures_root().join(dir);
    let mut checked = 0;
    for entry in fs::read_dir(&root).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let text = fs::read_to_string(&path).unwrap();
        let expected = expected_markers(&text);
        let rel = format!("{dir}/{}", path.file_name().unwrap().to_string_lossy());
        let result = hadfl_lint::analyze_source(&rel, &text, rules);
        let mut actual: Vec<(u32, String)> = result
            .findings
            .iter()
            .map(|f| (f.line, f.rule.clone()))
            .collect();
        actual.sort();
        assert_eq!(
            actual, expected,
            "fixture {rel} misclassified: left = actual findings, right = //~ markers"
        );
        checked += 1;
    }
    assert!(checked >= 2, "fixtures/{dir} should hold bad.rs and ok.rs");
}

#[test]
fn ambient_clock() {
    check_dir("ambient_clock", &["ambient-clock"]);
}

#[test]
fn print_in_protocol() {
    check_dir("print_in_protocol", &["print-in-protocol"]);
}

#[test]
fn raw_frame() {
    check_dir("raw_frame", &["raw-frame"]);
}

#[test]
fn raw_spawn() {
    check_dir("raw_spawn", &["raw-spawn"]);
}

#[test]
fn guard_across_send() {
    check_dir("guard_across_send", &["guard-across-send"]);
}

#[test]
fn nondeterministic_iteration() {
    check_dir(
        "nondeterministic_iteration",
        &["nondeterministic-iteration"],
    );
}

#[test]
fn unwrap_in_protocol() {
    check_dir("unwrap_in_protocol", &["unwrap-in-protocol"]);
}

#[test]
fn float_reduce_order() {
    check_dir("float_reduce_order", &["float-reduce-order"]);
}

#[test]
fn blocking_in_emit() {
    check_dir("blocking_in_emit", &["blocking-in-emit"]);
}

#[test]
fn prof_in_inner_loop() {
    check_dir("prof_in_inner_loop", &["prof-in-inner-loop"]);
}

#[test]
fn park_loop_spin() {
    check_dir("park_loop_spin", &["park-loop-spin"]);
}

#[test]
fn nonblocking_listener() {
    check_dir("nonblocking_listener", &["nonblocking-listener"]);
}

#[test]
fn layering() {
    check_dir("layering", &["layering"]);
}

#[test]
fn retired() {
    check_dir("retired", &["retired"]);
}

#[test]
fn waiver_corpus() {
    check_dir("waivers", &["ambient-clock"]);
}

/// Zero false positives across rules: every known-clean fixture stays
/// clean even with ALL rules forced on, not just its own — except
/// `layering`, whose bans are names that are legal everywhere but in
/// the one file or crate each row scopes (a kernel's `use hadfl_prof`
/// is right there and wrong in `exec/ring.rs`); its own `ok.rs` holds
/// it to zero false positives.
#[test]
fn clean_fixtures_survive_every_rule() {
    let mut all: Vec<&str> = hadfl_lint::rules::ids();
    all.retain(|id| *id != "layering");
    for entry in fs::read_dir(fixtures_root()).unwrap() {
        let dir = entry.unwrap().path();
        if !dir.is_dir() || dir.file_name().unwrap() == "mini_workspace" {
            continue;
        }
        let ok = dir.join("ok.rs");
        let text = fs::read_to_string(&ok).unwrap();
        let result = hadfl_lint::analyze_source("ok.rs", &text, &all);
        let rendered: Vec<String> = result.findings.iter().map(|f| f.render()).collect();
        assert!(
            rendered.is_empty(),
            "clean fixture {} tripped: {rendered:?}",
            ok.display()
        );
    }
}
