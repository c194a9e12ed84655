//! Compares two `BENCH_*.json` files with noise normalization.
//!
//! ```text
//! hadfl-bench-diff BENCH_13.json BENCH_15.json
//! hadfl-bench-diff --threshold 0.25 --min-ns 50 --fail-on-regressed old.json new.json
//! ```
//!
//! The baseline's numbers are rescaled by the two files' calibration
//! rows (`calibration/serial_fma_1m`) before comparing, so a slower CI
//! runner does not read as a regression; baselines predating the
//! calibration row fall back to the median of per-op ratios. See
//! `hadfl_bench::diff` for the classification rules.
//!
//! Exit status: 0, or 1 with `--fail-on-regressed` when any op
//! regressed past the threshold (and on usage/io errors).

use std::process::ExitCode;

use hadfl_bench::diff::{diff, parse_bench, DEFAULT_MIN_NS, DEFAULT_THRESHOLD};

const USAGE: &str =
    "usage: hadfl-bench-diff [--threshold FRAC] [--min-ns NS] [--fail-on-regressed] \
     <old.json> <new.json>";

fn main() -> ExitCode {
    let mut threshold = DEFAULT_THRESHOLD;
    let mut min_ns = DEFAULT_MIN_NS;
    let mut fail_on_regressed = false;
    let mut paths: Vec<String> = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--threshold" => {
                let Some(v) = argv.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--threshold needs a fraction\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                threshold = v;
            }
            "--min-ns" => {
                let Some(v) = argv.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--min-ns needs a number\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                min_ns = v;
            }
            "--fail-on-regressed" => fail_on_regressed = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
            path => paths.push(path.to_string()),
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };

    let load = |path: &str| -> Result<_, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        parse_bench(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("hadfl-bench-diff: {e}");
            return ExitCode::FAILURE;
        }
    };

    let report = diff(&old, &new, threshold, min_ns);
    print!("{}", report.render());
    let regressed = report.regressed().count();
    if fail_on_regressed && regressed > 0 {
        eprintln!("hadfl-bench-diff: {regressed} op(s) regressed past {threshold:.0e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
