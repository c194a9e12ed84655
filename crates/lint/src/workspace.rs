//! Workspace driver: file discovery, scope matching, and the
//! analyze-everything entry point used by the CLI and CI.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::report::{Finding, Report};
use crate::rules::{self, Rule};

/// Locates the workspace root by walking up from `start` to the
/// first `Cargo.toml` containing a `[workspace]` table.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Directories never descended into: build output, VCS metadata, and
/// the analyzer's own seeded-violation corpus. `vendor/` is walked:
/// its stand-ins are not first-party code, and only what a scope names
/// there (`vendor/proptest/src/`) is analyzed.
const SKIP_DIRS: [&str; 3] = ["target", ".git", "fixtures"];

/// All `.rs` files under `root` (workspace-relative, `/`-separated),
/// in scope or not.
pub fn discover(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![String::new()];
    while let Some(rel) = stack.pop() {
        for entry in fs::read_dir(root.join(&rel))? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let path = if rel.is_empty() {
                name.clone()
            } else {
                format!("{rel}/{name}")
            };
            if entry.path().is_dir() {
                if !SKIP_DIRS.contains(&name.as_str()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// One unwaivable `missing-path` finding per path a rule's scope names,
/// included or excluded, that covers none of `files` — a renamed file
/// or directory would otherwise drop out of its rules silently.
fn missing_paths(files: &[String]) -> Vec<Finding> {
    let mut missing: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for rule in rules::all() {
        for pat in rule.scope.paths() {
            if !files.iter().any(|file| rules::covers(pat, file)) {
                let ids = missing.entry(pat).or_default();
                if !ids.contains(&rule.id) {
                    ids.push(rule.id);
                }
            }
        }
    }
    missing
        .into_iter()
        .map(|(path, ids)| Finding {
            rule: "missing-path".into(),
            file: path.into(),
            line: 0,
            col: 0,
            message: format!(
                "no such path, but the scope of {} names it — update the scope",
                ids.join(", ")
            ),
        })
        .collect()
}

/// Analyzes every in-scope file under `root`, and reports every scope
/// path that does not exist.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let files = discover(root)?;
    let mut report = analyze_files(root, &files)?;
    report.findings.extend(missing_paths(&files));
    report.sort();
    Ok(report)
}

/// Analyzes the given workspace-relative files, each under the rules
/// whose scope covers it. Files no rule covers are skipped (and not
/// counted as scanned).
pub fn analyze_files(root: &Path, files: &[String]) -> io::Result<Report> {
    let mut report = Report::default();
    for rel in files {
        let applicable: Vec<&Rule> = rules::all().filter(|r| r.scope.matches(rel)).collect();
        if applicable.is_empty() {
            continue;
        }
        let text = fs::read_to_string(root.join(rel))?;
        let result = crate::analyze_rules(rel, &text, applicable);
        report.findings.extend(result.findings);
        report.waived += result.waived;
        report.files_scanned += 1;
    }
    report.sort();
    Ok(report)
}
