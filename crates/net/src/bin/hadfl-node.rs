//! One HADFL participant as an OS process.
//!
//! Start every node in the cluster file with the same flags except
//! `--id`; any start order works, the transport redials with backoff:
//!
//! ```text
//! hadfl-node --cluster cluster.toml --id 0 &
//! hadfl-node --cluster cluster.toml --id 1 &
//! hadfl-node --cluster cluster.toml --id 2   # coordinator (highest id)
//! ```
//!
//! Every node deterministically derives the same synthetic workload
//! from `--model`/`--seed`, so a device only needs its own shard index.
//! The coordinator prints per-round selections and, at the end, the
//! consensus accuracy and byte ledger.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use hadfl::clock::{Clock, WallClock};
use hadfl::exec::{run_coordinator, run_device, step_period, ProtocolTiming};
use hadfl::trace::CommSummary;
use hadfl::{HadflConfig, HadflError, Workload};
use hadfl_net::cluster::{ClusterConfig, Role};
use hadfl_net::ship::TcpShipper;
use hadfl_net::tcp::{BoundNode, TcpOptions};
use hadfl_telemetry::{
    serve_metrics, JsonlSink, MetricsRegistry, MetricsServer, MetricsSink, ShipOptions, ShipSink,
    Sink, Telemetry,
};

const USAGE: &str = "usage: hadfl-node --cluster <file.toml> --id <n> \
[--model mlp] [--seed 0] [--rounds 3] [--window-ms 1000] [--step-sleep-ms 4] \
[--num-selected 2] [--telemetry-dir <dir>] [--metrics-addr <host:port>] \
[--ship-to <host:port>] [--profile-dir <dir>]";

struct Args {
    cluster: String,
    id: usize,
    model: String,
    seed: u64,
    rounds: usize,
    window: Duration,
    step_sleep: Duration,
    num_selected: usize,
    telemetry_dir: Option<String>,
    metrics_addr: Option<String>,
    ship_to: Option<String>,
    profile_dir: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut cluster = None;
    let mut id = None;
    let mut model = "mlp".to_string();
    let mut seed = 0u64;
    let mut rounds = 3usize;
    let mut window_ms = 1000u64;
    let mut step_sleep_ms = 4u64;
    let mut num_selected = 2usize;
    let mut telemetry_dir = None;
    let mut metrics_addr = None;
    let mut ship_to = None;
    let mut profile_dir = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| -> Result<String, String> {
            argv.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--cluster" => cluster = Some(value("--cluster")?),
            "--id" => id = Some(value("--id")?.parse().map_err(|e| format!("--id: {e}"))?),
            "--model" => model = value("--model")?,
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--rounds" => {
                rounds = value("--rounds")?
                    .parse()
                    .map_err(|e| format!("--rounds: {e}"))?;
            }
            "--window-ms" => {
                window_ms = value("--window-ms")?
                    .parse()
                    .map_err(|e| format!("--window-ms: {e}"))?;
            }
            "--step-sleep-ms" => {
                step_sleep_ms = value("--step-sleep-ms")?
                    .parse()
                    .map_err(|e| format!("--step-sleep-ms: {e}"))?;
            }
            "--num-selected" => {
                num_selected = value("--num-selected")?
                    .parse()
                    .map_err(|e| format!("--num-selected: {e}"))?;
            }
            "--telemetry-dir" => telemetry_dir = Some(value("--telemetry-dir")?),
            "--metrics-addr" => metrics_addr = Some(value("--metrics-addr")?),
            "--ship-to" => ship_to = Some(value("--ship-to")?),
            "--profile-dir" => profile_dir = Some(value("--profile-dir")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(Args {
        cluster: cluster.ok_or_else(|| format!("--cluster is required\n{USAGE}"))?,
        id: id.ok_or_else(|| format!("--id is required\n{USAGE}"))?,
        model,
        seed,
        rounds,
        window: Duration::from_millis(window_ms),
        step_sleep: Duration::from_millis(step_sleep_ms),
        num_selected,
        telemetry_dir,
        metrics_addr,
        ship_to,
        profile_dir,
    })
}

/// Builds the node's [`Telemetry`] handle from the observability flags:
/// `--telemetry-dir` adds a per-node JSONL sink (`node-<id>.jsonl`),
/// `--metrics-addr` adds a metrics sink behind a Prometheus-style text
/// endpoint, `--ship-to` adds a `ShipSink` streaming batches to a
/// `hadfl-collector`. No flags ⇒ the zero-cost disabled handle.
fn build_telemetry(args: &Args) -> Result<(Telemetry, Option<MetricsServer>), HadflError> {
    let mut sinks: Vec<Box<dyn Sink>> = Vec::new();
    if let Some(dir) = &args.telemetry_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| HadflError::InvalidConfig(format!("create {dir}: {e}")))?;
        let path = Path::new(dir).join(format!("node-{}.jsonl", args.id));
        let sink = JsonlSink::create(&path)
            .map_err(|e| HadflError::InvalidConfig(format!("create {}: {e}", path.display())))?;
        sinks.push(Box::new(sink));
    }
    let mut server = None;
    if let Some(addr) = &args.metrics_addr {
        let registry = MetricsRegistry::new();
        sinks.push(Box::new(MetricsSink::new(Arc::clone(&registry))));
        let srv = serve_metrics(addr, registry)
            .map_err(|e| HadflError::InvalidConfig(format!("metrics on {addr}: {e}")))?;
        eprintln!(
            "hadfl-node: serving metrics on http://{}/metrics",
            srv.addr()
        );
        server = Some(srv);
    }
    if sinks.is_empty() && args.ship_to.is_none() {
        return Ok((Telemetry::disabled(), None));
    }
    let tel = Telemetry::new(args.id as u32, sinks);
    if let Some(addr) = &args.ship_to {
        // The shipper stamps outgoing batches with this node's own
        // Lamport clock, so it attaches after the handle exists.
        let shipper = TcpShipper::new(addr, args.id as u32, tel.lamport_clock());
        tel.attach_sink(Box::new(ShipSink::new(
            args.id as u32,
            ShipOptions::default(),
            Box::new(shipper),
        )));
        eprintln!("hadfl-node: shipping telemetry to {addr}");
    }
    Ok((tel, server))
}

/// Commits the node's profile at run end: writes the JSON dump and
/// folded-stack flamegraph text to `--profile-dir`, and feeds the
/// per-op / per-pool aggregates into the telemetry pipeline so the
/// metrics endpoint and the collector see `hadfl_op_*` / `hadfl_pool_*`
/// families. Call after dropping the install guard, before
/// `tel.flush()`.
fn finish_profile(
    dir: &str,
    id: usize,
    profiler: &hadfl_prof::Profiler,
    tel: &Telemetry,
    now: Duration,
) -> Result<(), HadflError> {
    let dump = profiler.dump();
    std::fs::create_dir_all(dir)
        .map_err(|e| HadflError::InvalidConfig(format!("create {dir}: {e}")))?;
    let json_path = Path::new(dir).join(format!("profile-node-{id}.json"));
    let json = serde_json::to_string_pretty(&dump)
        .map_err(|e| HadflError::InvalidConfig(format!("encode profile: {e}")))?;
    std::fs::write(&json_path, json)
        .map_err(|e| HadflError::InvalidConfig(format!("write {}: {e}", json_path.display())))?;
    let folded_path = Path::new(dir).join(format!("profile-node-{id}.folded"));
    std::fs::write(&folded_path, hadfl_prof::to_folded(&dump))
        .map_err(|e| HadflError::InvalidConfig(format!("write {}: {e}", folded_path.display())))?;
    tel.emit_profile(now, &dump);
    eprintln!("hadfl-node: wrote profile to {}", json_path.display());
    Ok(())
}

fn run(args: &Args) -> Result<(), HadflError> {
    let contents = std::fs::read_to_string(&args.cluster)
        .map_err(|e| HadflError::InvalidConfig(format!("read {}: {e}", args.cluster)))?;
    let cluster = ClusterConfig::parse(std::path::Path::new(&args.cluster), &contents)?;
    let spec = cluster.node(args.id)?.clone();
    let k = cluster.devices();

    let config = HadflConfig::builder()
        .num_selected(args.num_selected.min(k))
        .seed(args.seed)
        .build()?;
    let workload = Workload::quick(&args.model, args.seed);
    let timing = ProtocolTiming::default();
    let (tel, _metrics_server) = build_telemetry(args)?;
    // The port carries this clock and `tel` to the protocol loop, so
    // frame and protocol events share a timeline. The profiler reads
    // the same clock, so its timeline matches theirs. The protocol actor runs on this thread; the
    // install guard scopes its recording.
    let clock: Arc<dyn Clock> = WallClock::shared();
    let profiler = match &args.profile_dir {
        Some(_) => hadfl_prof::Profiler::new(args.id as u32, Arc::clone(&clock)),
        None => hadfl_prof::Profiler::disabled(),
    };
    let prof_guard = profiler.install();
    let port = BoundNode::bind(args.id, &cluster.node(args.id)?.addr)?.into_port_instrumented(
        &cluster,
        TcpOptions::default(),
        Arc::clone(&clock),
        tel.clone(),
    )?;
    let stats = port.stats_handle();

    match spec.role {
        Role::Device => {
            eprintln!(
                "hadfl-node: device {} on {} (power {}), waiting for the coordinator",
                args.id, spec.addr, spec.power
            );
            let built = workload.build(k)?;
            let rt = built
                .runtimes
                .into_iter()
                .nth(args.id)
                .ok_or_else(|| HadflError::InvalidConfig("device id out of range".into()))?;
            let period = step_period(args.step_sleep, spec.power)?;
            run_device(port, rt, &config, period, &timing)?;
            stats.emit_ledger();
            drop(prof_guard);
            if let Some(dir) = &args.profile_dir {
                finish_profile(dir, args.id, &profiler, &tel, clock.now())?;
            }
            tel.flush();
            eprintln!("hadfl-node: device {} done", args.id);
        }
        Role::Coordinator => {
            eprintln!(
                "hadfl-node: coordinating {k} devices for {} rounds of {:?}",
                args.rounds, args.window
            );
            let run = run_coordinator(port, &config, args.window, args.rounds, &timing)?;
            stats.emit_ledger();
            drop(prof_guard);
            if let Some(dir) = &args.profile_dir {
                finish_profile(dir, args.id, &profiler, &tel, clock.now())?;
            }
            tel.flush();
            for round in &run.rounds {
                println!(
                    "round {}: versions {:?} selected {:?}",
                    round.round, round.versions, round.selected
                );
            }
            for &(device, round) in &run.dropped {
                println!("dropped device {device} in round {round}");
            }
            let mut built = workload.build(k)?;
            let metrics = built.evaluate_params(&run.consensus()?)?;
            println!(
                "consensus accuracy {:.4} (loss {:.4})",
                metrics.accuracy, metrics.loss
            );
            let comm = CommSummary::from_stats(&stats.stats(), k);
            println!(
                "coordinator traffic: {} payload bytes over {} messages ({} raw wire bytes)",
                comm.total_bytes,
                comm.messages,
                stats.raw_bytes()
            );
        }
    }
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
            eprintln!("hadfl-node: {e}");
            ExitCode::FAILURE
        }
    }
}
