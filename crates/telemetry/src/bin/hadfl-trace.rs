//! Offline trace analyzer for HADFL clusters.
//!
//! Point it at the per-node JSONL logs a telemetry-enabled run wrote
//! (one file per participant). Modes:
//!
//! - default: merges the timelines (causally when Lamport stamps are
//!   present, by wall clock otherwise) and prints the paper's headline
//!   diagnostics;
//! - `--check`: validates the logs structurally (schema version,
//!   sequence continuity, exact `NetStats` ledger parity) and exits
//!   non-zero on any problem; cross-node wall-clock skew is reported
//!   as a warning, never a failure;
//! - `critical-path [--round N] [--check]`: reconstructs each round's
//!   happens-before graph and attributes the end-to-end round latency
//!   to the longest chain of spans and network edges, naming the
//!   straggler device and the dominant segment; with `--check`, exits
//!   non-zero on causal-graph problems (unmatched receives, Lamport
//!   violations);
//! - `spans [--round N] [--json]`: per-node Gantt of the paired
//!   `SpanStart`/`SpanEnd` timeline, ASCII or JSON;
//! - `profile [--check] [--folded OUT] <profile-node-*.json>...`:
//!   merges per-node profiler dumps (written by
//!   `hadfl-node --profile-dir`) and prints the call tree, the op
//!   table, and per-pool utilization verdicts; `--folded OUT` writes
//!   the merged folded-stack flamegraph text, `--check` exits non-zero
//!   unless every pool region accounts for ≥95% of its wall time;
//! - `--follow`: tails a live collector spool file (JSONL, growing)
//!   and redraws a rolling dashboard — recent round latencies and
//!   which device held each ring longest. `--interval-ms` sets the
//!   poll cadence, `--updates N` exits after N redraws (0 = forever).
//!
//! ```text
//! hadfl-trace /tmp/tel/node-*.jsonl
//! hadfl-trace --check /tmp/tel/node-*.jsonl
//! hadfl-trace critical-path /tmp/tel/node-*.jsonl
//! hadfl-trace spans --round 2 /tmp/tel/node-*.jsonl
//! hadfl-trace --follow /tmp/collector/spool.jsonl
//! ```

use std::io::{BufRead, BufReader, Seek, SeekFrom};
use std::process::ExitCode;

use hadfl_telemetry::{Event, FollowState};

use hadfl_telemetry::analyze::{
    check, critical_path, merge, parse_jsonl, render_gantt, report, rounds_planned, spans,
    spans_to_json, ParsedLog,
};
use hadfl_telemetry::profile::{check_profile, render_profile};

const USAGE: &str = "usage: hadfl-trace [--check] <events.jsonl>...
       hadfl-trace critical-path [--round N] [--check] <events.jsonl>...
       hadfl-trace spans [--round N] [--json] <events.jsonl>...
       hadfl-trace profile [--check] [--folded OUT] <profile-node-*.json>...
       hadfl-trace --follow [--interval-ms MS] [--updates N] <spool.jsonl>";

enum Mode {
    Report,
    Check,
    CriticalPath { check: bool, round: Option<u32> },
    Spans { json: bool, round: Option<u32> },
    Profile { check: bool, folded: Option<String> },
    Follow { interval_ms: u64, updates: u64 },
}

fn parse_args(args: &[String]) -> Result<(Mode, Vec<String>), String> {
    let mut paths = Vec::new();
    let mut mode = Mode::Report;
    let mut check = false;
    let mut json = false;
    let mut follow = false;
    let mut interval_ms = 500u64;
    let mut updates = 0u64;
    let mut round: Option<u32> = None;
    let mut folded: Option<String> = None;
    let mut sub: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "critical-path" | "spans" | "profile" if sub.is_none() && paths.is_empty() => {
                sub = Some(arg.as_str());
            }
            "--folded" => {
                let v = it.next().ok_or("--folded needs a value")?;
                folded = Some(v.to_string());
            }
            "--check" => check = true,
            "--json" => json = true,
            "--follow" => follow = true,
            "--interval-ms" => {
                let v = it.next().ok_or("--interval-ms needs a value")?;
                interval_ms = v.parse().map_err(|_| format!("bad --interval-ms {v}"))?;
            }
            "--updates" => {
                let v = it.next().ok_or("--updates needs a value")?;
                updates = v.parse().map_err(|_| format!("bad --updates {v}"))?;
            }
            "--round" => {
                let v = it.next().ok_or("--round needs a value")?;
                round = Some(v.parse().map_err(|_| format!("bad --round {v}"))?);
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            path => paths.push(path.to_string()),
        }
    }
    match sub {
        Some("critical-path") => mode = Mode::CriticalPath { check, round },
        Some("spans") => mode = Mode::Spans { json, round },
        Some("profile") => mode = Mode::Profile { check, folded },
        _ if follow => {
            mode = Mode::Follow {
                interval_ms,
                updates,
            }
        }
        _ if check => mode = Mode::Check,
        _ => {}
    }
    Ok((mode, paths))
}

/// The `profile` subcommand: loads per-node profiler dumps, merges
/// them, prints the report, optionally writes the merged folded-stack
/// text, and (with `--check`) fails unless every pool region accounts
/// for its wall time.
fn run_profile(paths: &[String], check: bool, folded_out: Option<&str>) -> ExitCode {
    let mut dumps = Vec::with_capacity(paths.len());
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("hadfl-trace: read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match serde_json::from_str::<hadfl_prof::ProfileDump>(&text) {
            Ok(dump) => {
                if dump.v != hadfl_prof::PROF_SCHEMA_VERSION {
                    eprintln!(
                        "hadfl-trace: warning: {path} has profile schema v{}, expected v{}",
                        dump.v,
                        hadfl_prof::PROF_SCHEMA_VERSION
                    );
                }
                dumps.push(dump);
            }
            Err(e) => {
                eprintln!("hadfl-trace: parse {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let merged = hadfl_prof::merge_dumps(&dumps);
    print!("{}", render_profile(&merged, dumps.len()));
    if let Some(out) = folded_out {
        if let Err(e) = std::fs::write(out, hadfl_prof::to_folded(&merged)) {
            eprintln!("hadfl-trace: write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("hadfl-trace: wrote folded stacks to {out}");
    }
    if check {
        let errors = check_profile(&merged);
        if !errors.is_empty() {
            for error in &errors {
                eprintln!("hadfl-trace: {error}");
            }
            return ExitCode::FAILURE;
        }
        println!(
            "profile check ok: {} pool region(s) account for their wall time",
            merged.pools.len()
        );
    }
    ExitCode::SUCCESS
}

/// Tails `path`, redrawing the rolling dashboard each interval. The
/// file is re-opened each poll and read from the last byte offset, so
/// the collector can keep appending (or not exist yet) without racing
/// us. Exits after `updates` redraws (0 = until killed).
fn follow(path: &str, interval_ms: u64, updates: u64) -> ExitCode {
    let mut state = FollowState::new();
    let mut offset: u64 = 0;
    let mut drawn = 0u64;
    loop {
        if let Ok(file) = std::fs::File::open(path) {
            let mut reader = BufReader::new(file);
            if reader.seek(SeekFrom::Start(offset)).is_ok() {
                let mut line = String::new();
                loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            // Only consume complete lines; a partially
                            // flushed tail is retried next poll.
                            if !line.ends_with('\n') {
                                break;
                            }
                            offset += n as u64;
                            if let Ok(event) = Event::from_json(line.trim_end()) {
                                state.observe(&event);
                            }
                        }
                    }
                }
            }
        }
        println!("-- hadfl-trace --follow {path} --");
        print!("{}", state.render(12));
        drawn += 1;
        if updates > 0 && drawn >= updates {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(10)));
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, paths) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) if msg.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if paths.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }

    if let Mode::Follow {
        interval_ms,
        updates,
    } = mode
    {
        if paths.len() != 1 {
            eprintln!("hadfl-trace: --follow takes exactly one spool file\n{USAGE}");
            return ExitCode::FAILURE;
        }
        return follow(&paths[0], interval_ms, updates);
    }

    // Profile dumps are ProfileDump JSON, not event JSONL — load them
    // on their own path.
    if let Mode::Profile { check, folded } = &mode {
        return run_profile(&paths, *check, folded.as_deref());
    }

    let mut logs: Vec<ParsedLog> = Vec::with_capacity(paths.len());
    for path in &paths {
        match std::fs::read_to_string(path) {
            Ok(text) => logs.push(parse_jsonl(&text)),
            Err(e) => {
                eprintln!("hadfl-trace: read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    match mode {
        Mode::Check => {
            let outcome = check(&logs);
            for warning in &outcome.warnings {
                eprintln!("hadfl-trace: warning: {warning}");
            }
            if outcome.errors.is_empty() {
                let events: usize = logs.iter().map(|l| l.events.len()).sum();
                println!(
                    "ok: {} files, {events} events, ledger parity holds",
                    logs.len()
                );
                return ExitCode::SUCCESS;
            }
            for error in &outcome.errors {
                eprintln!("hadfl-trace: {error}");
            }
            ExitCode::FAILURE
        }
        Mode::CriticalPath { check, round } => {
            let merged = merge(&logs);
            let rounds = match round {
                Some(r) => vec![r],
                None => rounds_planned(&merged),
            };
            if rounds.is_empty() {
                eprintln!("hadfl-trace: no planned rounds in the logs");
                return ExitCode::FAILURE;
            }
            let mut failed = false;
            for r in rounds {
                let cp = critical_path(&merged, r);
                print!("{}", cp.render());
                failed |= !cp.errors.is_empty();
            }
            if check && failed {
                eprintln!("hadfl-trace: causal-graph check failed");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Mode::Spans { json, round } => {
            let merged = merge(&logs);
            let (closed, unclosed) = spans(&merged);
            if json {
                println!("{}", spans_to_json(&closed, round));
            } else {
                print!("{}", render_gantt(&closed, round, 60));
                if unclosed > 0 {
                    eprintln!("hadfl-trace: {unclosed} span(s) never closed");
                }
            }
            ExitCode::SUCCESS
        }
        // Handled before the logs were loaded; a follow target is a
        // growing file and a profile dump isn't event JSONL.
        Mode::Follow { .. } | Mode::Profile { .. } => ExitCode::SUCCESS,
        Mode::Report => {
            let garbage: usize = logs.iter().map(|l| l.garbage_lines).sum();
            if garbage > 0 {
                eprintln!("hadfl-trace: skipped {garbage} malformed lines");
            }
            let merged = merge(&logs);
            print!("{}", report(&merged).render());
            ExitCode::SUCCESS
        }
    }
}
