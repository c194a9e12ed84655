//! `hadfl-bench-diff BENCHMARK.json parent.log change.log`: judges a
//! change against its parent from the two logs of a paired
//! round-benchmark run (`tools/bench.sh --against <rev>` calls this).
//! One row per workload × end-to-end metric; `hadfl_bench::diff` has
//! the verdict rules. Exit status: 0, 1 when a row regressed or a
//! workload was rejected, 2 on usage, I/O or pairing errors.

use std::process::ExitCode;

use hadfl_bench::diff::{compare, Report};

fn run(ledger: &str, parent: &str, change: &str) -> Result<Report, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"));
    compare(&read(ledger)?, &read(parent)?, &read(change)?)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [ledger, parent, change] = args.as_slice() else {
        eprintln!("usage: hadfl-bench-diff <BENCHMARK.json> <parent.log> <change.log>");
        return ExitCode::from(2);
    };
    match run(ledger, parent, change) {
        Ok(report) => {
            print!("{}", report.render());
            ExitCode::from(u8::from(report.failed()))
        }
        Err(e) => {
            eprintln!("hadfl-bench-diff: {e}");
            ExitCode::from(2)
        }
    }
}
