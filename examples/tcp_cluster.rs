//! HADFL over real sockets: the same protocol loops as
//! `threaded_cluster`, but every frame crosses a loopback TCP
//! connection through `hadfl-net` instead of an in-process channel.
//!
//! The example plays all five roles itself (4 devices + coordinator,
//! one thread each) so it runs with a single command, but each
//! participant only ever touches its own `TcpPort` — move any of the
//! threads into its own process (that is exactly what the `hadfl-node`
//! binary is) and nothing else changes.
//!
//! Run: `cargo run --release --example tcp_cluster`
//!
//! Observability (all optional):
//!
//! ```text
//! cargo run --release --example tcp_cluster -- \
//!     --telemetry-dir /tmp/hadfl-telemetry \
//!     --metrics-addr 127.0.0.1:0 \
//!     --hold-metrics-ms 5000
//! ```
//!
//! writes one schema-versioned JSONL event log per participant
//! (`node-<id>.jsonl`, analyzable with `hadfl-trace`), serves a
//! Prometheus-style `/metrics` endpoint fed by every participant, and
//! keeps serving for the hold period after training so a scraper can
//! collect the final counters.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use hadfl::clock::{Clock, WallClock};
use hadfl::exec::{run_cluster, ProtocolTiming, ThreadedOptions};
use hadfl::trace::CommSummary;
use hadfl::transport::coordinator_id;
use hadfl::{HadflConfig, Workload};
use hadfl_net::cluster::ClusterConfig;
use hadfl_net::tcp::{BoundNode, StatsHandle, TcpOptions, TcpPort};
use hadfl_telemetry::{serve_metrics, JsonlSink, MetricsRegistry, MetricsSink, Sink, Telemetry};

struct Opts {
    telemetry_dir: Option<String>,
    metrics_addr: Option<String>,
    hold_metrics: Duration,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        telemetry_dir: None,
        metrics_addr: None,
        hold_metrics: Duration::ZERO,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| -> Result<String, String> {
            argv.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--telemetry-dir" => opts.telemetry_dir = Some(value("--telemetry-dir")?),
            "--metrics-addr" => opts.metrics_addr = Some(value("--metrics-addr")?),
            "--hold-metrics-ms" => {
                let ms: u64 = value("--hold-metrics-ms")?
                    .parse()
                    .map_err(|e| format!("--hold-metrics-ms: {e}"))?;
                opts.hold_metrics = Duration::from_millis(ms);
            }
            other => {
                return Err(format!(
                    "unknown flag {other}\nusage: tcp_cluster [--telemetry-dir <dir>] \
                     [--metrics-addr <host:port>] [--hold-metrics-ms <ms>]"
                ))
            }
        }
    }
    Ok(opts)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = parse_opts()?;
    let powers = [3.0, 3.0, 1.0, 1.0];
    let k = powers.len();
    let workload = Workload::quick("mlp", 17);
    let config = HadflConfig::builder().num_selected(2).seed(17).build()?;
    let threaded = ThreadedOptions {
        powers: powers.to_vec(),
        step_sleep: Duration::from_millis(30),
        window: Duration::from_millis(300),
        rounds: 4,
        timing: ProtocolTiming::default(),
    };

    // One registry for the whole process: every participant's
    // MetricsSink feeds it, the exposition server renders it.
    let metrics_server = match &opts.metrics_addr {
        Some(addr) => {
            let registry = MetricsRegistry::new();
            let server = serve_metrics(addr, Arc::clone(&registry))?;
            println!("serving metrics on http://{}/metrics", server.addr());
            Some((registry, server))
        }
        None => None,
    };
    if let Some(dir) = &opts.telemetry_dir {
        std::fs::create_dir_all(dir)?;
    }
    let telemetry_for = |id: usize| -> Result<Telemetry, Box<dyn std::error::Error>> {
        let mut sinks: Vec<Box<dyn Sink>> = Vec::new();
        if let Some(dir) = &opts.telemetry_dir {
            let path = std::path::Path::new(dir).join(format!("node-{id}.jsonl"));
            sinks.push(Box::new(JsonlSink::create(&path)?));
        }
        if let Some((registry, _)) = &metrics_server {
            sinks.push(Box::new(MetricsSink::new(Arc::clone(registry))));
        }
        Ok(if sinks.is_empty() {
            Telemetry::disabled()
        } else {
            Telemetry::new(id as u32, sinks)
        })
    };

    // Bind every participant on a kernel-chosen loopback port, then
    // describe the result as a cluster — the same registry a TOML
    // cluster file provides for a real deployment.
    let nodes: Vec<BoundNode> = (0..=k)
        .map(|id| BoundNode::bind(id, "127.0.0.1:0"))
        .collect::<Result<_, _>>()?;
    let addrs: Vec<String> = nodes
        .iter()
        .map(|n| Ok(n.local_addr()?.to_string()))
        .collect::<Result<_, hadfl::HadflError>>()?;
    let cluster = ClusterConfig::from_addrs(&addrs)?;
    println!("cluster file equivalent:\n{}", cluster.to_toml());

    // One clock across all participants, handed to each with its
    // telemetry handle through its port: frame and protocol events
    // from every node share a timeline.
    let clock: Arc<dyn Clock> = WallClock::shared();
    let tels: Vec<Telemetry> = (0..=k).map(&telemetry_for).collect::<Result<_, _>>()?;
    let mut ports: Vec<TcpPort> = nodes
        .into_iter()
        .zip(&tels)
        .map(|(n, tel)| {
            n.into_port_instrumented(
                &cluster,
                TcpOptions::default(),
                Arc::clone(&clock),
                tel.clone(),
            )
        })
        .collect::<Result<_, _>>()?;
    let handles: Vec<StatsHandle> = ports.iter().map(TcpPort::stats_handle).collect();
    let coordinator_port = ports.remove(k);
    let stats = coordinator_port.stats_handle();
    let built = workload.build(k)?;

    let run = run_cluster(ports, coordinator_port, built.runtimes, &config, &threaded)?;

    // Stamp each node's ground-truth ledger into its event log, then
    // flush: `hadfl-trace --check` verifies the per-frame events sum to
    // exactly these totals.
    for (handle, tel) in handles.iter().zip(&tels) {
        handle.emit_ledger();
        tel.flush();
    }

    for r in &run.rounds {
        println!(
            "round {}: versions {:?}  selected {:?}",
            r.round, r.versions, r.selected
        );
    }
    let mut evaluator = workload.build(k)?;
    let metrics = evaluator.evaluate_params(&run.consensus()?)?;
    println!("consensus test accuracy: {:.1}%", metrics.accuracy * 100.0);

    // The coordinator's ledger counts exactly the encoded protocol
    // payloads — the same accounting as the analytical simulation
    // driver; framing and hellos sit only in raw_bytes.
    let comm = CommSummary::from_stats(&stats.stats(), k);
    println!(
        "coordinator traffic: {} payload bytes / {} messages ({} raw bytes incl. framing + hellos)",
        comm.total_bytes,
        comm.messages,
        stats.raw_bytes()
    );
    assert_eq!(coordinator_id(k), k);

    if let Some((_, server)) = metrics_server {
        if !opts.hold_metrics.is_zero() {
            println!(
                "holding /metrics open for {:?} (http://{}/metrics)",
                opts.hold_metrics,
                server.addr()
            );
            thread::sleep(opts.hold_metrics);
        }
        server.shutdown();
    }
    Ok(())
}
