//! The hand-rolled `--json` emitter round-trips through the vendored
//! `serde_json`: schema version, finding fields, summary counts, and
//! string escaping.

use hadfl_lint::report::{Finding, Report};
use serde_json::Value;

/// Object-field lookup (the vendored `Value` keeps objects as ordered
/// key/value slices).
fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .expect("not an object")
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key `{key}`"))
}

fn sample_report() -> Report {
    let text = "pub fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    let result =
        hadfl_lint::analyze_source("crates/core/src/exec/device.rs", text, &["ambient-clock"]);
    Report {
        findings: result.findings,
        files_scanned: 1,
        waived: result.waived,
    }
}

#[test]
fn json_round_trips_through_serde() {
    let report = sample_report();
    let json = report.render_json();
    let v: Value = serde_json::from_str(json.trim_end()).expect("emitted JSON must parse");

    assert_eq!(get(&v, "version").as_u64(), Some(1));
    let findings = get(&v, "findings").as_array().expect("findings array");
    assert_eq!(findings.len(), 1);
    let f = &findings[0];
    assert_eq!(get(f, "rule").as_str(), Some("ambient-clock"));
    assert_eq!(
        get(f, "file").as_str(),
        Some("crates/core/src/exec/device.rs")
    );
    assert_eq!(get(f, "line").as_u64(), Some(2));
    assert_eq!(get(f, "col").as_u64(), Some(16));
    assert!(get(f, "message")
        .as_str()
        .expect("message string")
        .contains("Instant::now()"));

    let summary = get(&v, "summary");
    assert_eq!(get(summary, "files_scanned").as_u64(), Some(1));
    assert_eq!(get(summary, "findings").as_u64(), Some(1));
    assert_eq!(get(summary, "waived").as_u64(), Some(0));
}

#[test]
fn json_escaping_survives_hostile_messages() {
    let mut report = Report::default();
    report.findings.push(Finding {
        rule: "ambient-clock".into(),
        file: "a \"b\"\\c.rs".into(),
        line: 1,
        col: 1,
        message: "tab\there\nnewline \u{1} control".into(),
    });
    report.files_scanned = 1;
    let v: Value =
        serde_json::from_str(report.render_json().trim_end()).expect("escaped JSON parses");
    let f = &get(&v, "findings").as_array().expect("findings array")[0];
    assert_eq!(get(f, "file").as_str(), Some("a \"b\"\\c.rs"));
    assert_eq!(
        get(f, "message").as_str(),
        Some("tab\there\nnewline \u{1} control")
    );
}

#[test]
fn empty_report_is_valid_json() {
    let report = Report::default();
    let v: Value =
        serde_json::from_str(report.render_json().trim_end()).expect("empty JSON parses");
    assert_eq!(get(&v, "findings").as_array().expect("array").len(), 0);
    assert_eq!(get(get(&v, "summary"), "findings").as_u64(), Some(0));
}
