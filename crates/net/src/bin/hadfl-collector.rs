//! The fleet telemetry collector daemon.
//!
//! Accepts `TelemetryBatch` streams from any number of
//! `hadfl-node --ship-to` processes (or the simnet adapter), merges
//! them in causal `(lam, node, seq)` order, runs the online health
//! rules, and serves fleet-level `/metrics` (Prometheus text format)
//! and `/health` (structured JSON alerts):
//!
//! ```text
//! hadfl-collector --listen 127.0.0.1:9100 --http 127.0.0.1:9101 \
//!     --spool /tmp/fleet.jsonl &
//! hadfl-node --cluster cluster.toml --id 0 --ship-to 127.0.0.1:9100 &
//! curl http://127.0.0.1:9101/health
//! hadfl-trace --follow /tmp/fleet.jsonl
//! ```

use std::process::ExitCode;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use hadfl::clock::WallClock;
use hadfl_net::collector::{Collector, CollectorOptions, CollectorServer};
use hadfl_telemetry::health::HealthOptions;
use hadfl_telemetry::MetricsRegistry;

const USAGE: &str = "usage: hadfl-collector [--listen <host:port>] [--http <host:port>] \
[--spool <file.jsonl>] [--tick-ms 250] [--round-deadline-ms 30000] \
[--budget-bytes <n>] [--duration-ms <n>]";

struct Args {
    listen: String,
    http: String,
    spool: Option<String>,
    tick: Duration,
    round_deadline: Duration,
    budget_bytes: Option<u64>,
    /// Exit after this long (CI); `None` runs until killed.
    duration: Option<Duration>,
}

fn parse_args() -> Result<Args, String> {
    let mut listen = "127.0.0.1:9100".to_string();
    let mut http = "127.0.0.1:9101".to_string();
    let mut spool = None;
    let mut tick_ms = 250u64;
    let mut round_deadline_ms = 30_000u64;
    let mut budget_bytes = None;
    let mut duration_ms = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| -> Result<String, String> {
            argv.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--listen" => listen = value("--listen")?,
            "--http" => http = value("--http")?,
            "--spool" => spool = Some(value("--spool")?),
            "--tick-ms" => {
                tick_ms = value("--tick-ms")?
                    .parse()
                    .map_err(|e| format!("--tick-ms: {e}"))?;
            }
            "--round-deadline-ms" => {
                round_deadline_ms = value("--round-deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--round-deadline-ms: {e}"))?;
            }
            "--budget-bytes" => {
                budget_bytes = Some(
                    value("--budget-bytes")?
                        .parse()
                        .map_err(|e| format!("--budget-bytes: {e}"))?,
                );
            }
            "--duration-ms" => {
                duration_ms = Some(
                    value("--duration-ms")?
                        .parse()
                        .map_err(|e| format!("--duration-ms: {e}"))?,
                );
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(Args {
        listen,
        http,
        spool,
        tick: Duration::from_millis(tick_ms.max(10)),
        round_deadline: Duration::from_millis(round_deadline_ms),
        budget_bytes,
        duration: duration_ms.map(Duration::from_millis),
    })
}

fn run(args: &Args) -> Result<(), String> {
    let opts = CollectorOptions {
        health: HealthOptions {
            round_deadline: args.round_deadline,
            budget_bytes: args.budget_bytes,
        },
        spool: args.spool.as_ref().map(std::path::PathBuf::from),
        ..CollectorOptions::default()
    };
    let registry = MetricsRegistry::new();
    let collector = Collector::new(WallClock::shared(), registry, &opts)
        .map_err(|e| format!("collector setup: {e}"))?;
    let max_frame = opts.max_frame_bytes;
    let server = CollectorServer::start(
        &args.listen,
        &args.http,
        Arc::new(Mutex::new(collector)),
        args.tick,
        max_frame,
    )
    .map_err(|e| format!("bind: {e}"))?;
    eprintln!(
        "hadfl-collector: ingesting on {}, serving http://{}/metrics and /health{}",
        server.ingest_addr(),
        server.http_addr(),
        args.spool
            .as_deref()
            .map(|s| format!(", spooling to {s}"))
            .unwrap_or_default()
    );
    match args.duration {
        Some(d) => std::thread::sleep(d),
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
    let collector = server.collector();
    server.shutdown();
    let status = collector
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .status();
    eprintln!(
        "hadfl-collector: {} nodes, {} events, {} alerts, {} telemetry bytes",
        status.nodes.len(),
        status.events_applied,
        status.report.alerts.len(),
        status.telemetry_bytes
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hadfl-collector: {e}");
            ExitCode::FAILURE
        }
    }
}
