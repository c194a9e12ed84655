//! Findings and report rendering (human and `--json`).
//!
//! The JSON emitter is hand-rolled (the crate is dependency-free);
//! the schema is versioned and round-trip-tested against the vendored
//! `serde_json` in `tests/json_schema.rs`:
//!
//! ```json
//! {
//!   "version": 1,
//!   "findings": [
//!     {"rule": "…", "file": "…", "line": 1, "col": 1, "message": "…"}
//!   ],
//!   "summary": {"files_scanned": 0, "findings": 0, "waived": 0}
//! }
//! ```

/// One diagnostic, anchored to `file:line:col`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (kebab-case), or the meta rules
    /// `invalid-waiver` / `unused-waiver` / `missing-path`.
    pub rule: String,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line; 0 for a finding about the path itself
    /// (`missing-path`).
    pub line: u32,
    /// 1-based byte column; 0 with line 0.
    pub col: u32,
    pub message: String,
}

impl Finding {
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// The result of an analyzer run.
#[derive(Default)]
pub struct Report {
    /// Surviving findings, sorted by (file, line, col, rule).
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    /// Findings suppressed by a valid `lint:allow` waiver.
    pub waived: usize,
}

impl Report {
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule))
        });
    }

    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render());
            out.push('\n');
        }
        if self.findings.is_empty() {
            out.push_str(&format!(
                "hadfl-lint: clean ({} files scanned, {} waived)\n",
                self.files_scanned, self.waived
            ));
        } else {
            out.push_str(&format!(
                "hadfl-lint: {} finding(s) in {} files scanned ({} waived)\n",
                self.findings.len(),
                self.files_scanned,
                self.waived
            ));
        }
        out
    }

    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"version\":1,\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":{},\"file\":{},\"line\":{},\"col\":{},\"message\":{}}}",
                json_str(&f.rule),
                json_str(&f.file),
                f.line,
                f.col,
                json_str(&f.message)
            ));
        }
        out.push_str(&format!(
            "],\"summary\":{{\"files_scanned\":{},\"findings\":{},\"waived\":{}}}}}\n",
            self.files_scanned,
            self.findings.len(),
            self.waived
        ));
        out
    }
}

/// JSON string literal with full escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn human_rendering_is_file_line_col() {
        let f = Finding {
            rule: "ambient-clock".into(),
            file: "crates/net/src/tcp.rs".into(),
            line: 3,
            col: 9,
            message: "raw Instant::now()".into(),
        };
        assert_eq!(
            f.render(),
            "crates/net/src/tcp.rs:3:9: [ambient-clock] raw Instant::now()"
        );
    }
}
