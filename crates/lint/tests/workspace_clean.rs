//! The analyzer against real trees: the actual HADFL workspace must
//! lint clean, and the mini fixture workspace must produce exactly
//! its seeded findings (scope inclusion AND exclusion both observed).

use std::path::Path;
use std::process::Command;

fn repo_root() -> &'static Path {
    // crates/lint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
}

fn mini_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/mini_workspace")
}

#[test]
fn real_workspace_lints_clean() {
    let report = hadfl_lint::workspace::analyze_workspace(repo_root()).unwrap();
    let rendered: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert!(
        rendered.is_empty(),
        "the workspace must lint clean; fix the site or add a reasoned \
         lint:allow:\n{}",
        rendered.join("\n")
    );
    assert!(
        report.files_scanned > 20,
        "suspiciously few files scanned ({}) — discovery is broken",
        report.files_scanned
    );
}

#[test]
fn mini_workspace_scopes_in_and_out() {
    let report = hadfl_lint::workspace::analyze_workspace(&mini_root()).unwrap();
    let got: Vec<(String, String)> = report
        .findings
        .iter()
        .map(|f| (f.file.clone(), f.rule.clone()))
        .collect();
    assert_eq!(
        got,
        [
            (
                "crates/core/src/exec.rs".to_string(),
                "ambient-clock".to_string()
            ),
            (
                "crates/tensor/src/kernel.rs".to_string(),
                "raw-spawn".to_string()
            ),
        ],
        "expected exactly the seeded findings: bin/tool.rs (print \
         carve-out), and crates/check and crates/prof (out of scope) \
         must stay silent"
    );
}

#[test]
fn cli_exit_codes_and_json() {
    let bin = env!("CARGO_BIN_EXE_hadfl-lint");

    // Findings -> exit 1, and --json parses with both seeded findings.
    let out = Command::new(bin)
        .args(["--workspace", "--json", "--root"])
        .arg(mini_root())
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let v: serde_json::Value = serde_json::from_str(stdout.trim_end()).unwrap();
    let field = |v: &serde_json::Value, key: &str| -> serde_json::Value {
        v.as_object()
            .unwrap()
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap()
    };
    assert_eq!(field(&v, "version").as_u64(), Some(1));
    assert_eq!(field(&v, "findings").as_array().unwrap().len(), 2);
    assert_eq!(field(&field(&v, "summary"), "findings").as_u64(), Some(2));

    // A clean tree -> exit 0 and the clean banner.
    let out = Command::new(bin)
        .args(["--root"])
        .arg(repo_root())
        .arg("--workspace")
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("hadfl-lint: clean"));

    // Unknown flags -> exit 2.
    let out = Command::new(bin).arg("--frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    // --list-rules names every registered rule.
    let out = Command::new(bin).arg("--list-rules").output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let listing = String::from_utf8_lossy(&out.stdout).to_string();
    for id in hadfl_lint::rules::ids() {
        assert!(listing.contains(id), "--list-rules is missing {id}");
    }
}

/// Copies the directory tree at `from` to `to`.
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dest = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &dest);
        } else {
            std::fs::copy(entry.path(), dest).unwrap();
        }
    }
}

#[test]
fn a_scope_path_that_does_not_exist_is_a_finding() {
    // The mini workspace with the §III-D ring renamed away: the
    // `layering` row that names `exec/ring.rs` would check nothing.
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_missing_ring");
    let _ = std::fs::remove_dir_all(&root);
    copy_tree(&mini_root(), &root);
    std::fs::rename(
        root.join("crates/core/src/exec/ring.rs"),
        root.join("crates/core/src/exec/ring_v2.rs"),
    )
    .unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_hadfl-lint"))
        .args(["--workspace", "--root"])
        .arg(&root)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(
        stdout.contains("crates/core/src/exec/ring.rs:0:0: [missing-path]")
            && stdout.contains("layering"),
        "stdout: {stdout}"
    );

    let report = hadfl_lint::workspace::analyze_workspace(&root).unwrap();
    let missing: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "missing-path")
        .map(|f| f.file.as_str())
        .collect();
    assert_eq!(missing, ["crates/core/src/exec/ring.rs"]);
    let _ = std::fs::remove_dir_all(&root);
}
