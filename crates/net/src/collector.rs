//! The fleet telemetry collector: N node streams in, one merged
//! timeline, online health out.
//!
//! [`Collector`] is the transport-free core. Batches arrive via
//! [`Collector::ingest_batch`] (from TCP readers or a test script),
//! are staged, and each [`Collector::tick`] sorts its stage by
//! `(lam, node, seq)` — the key `hadfl-trace` merges offline logs
//! with — then applies it to three consumers at once:
//!
//! - the [`HealthEngine`] (watchdog, straggler, dead-device,
//!   dead-ring, budget-burn rules),
//! - a [`MetricsSink`] feeding the fleet `/metrics` registry,
//! - an optional JSONL spool file, which is exactly the merged-log
//!   format `hadfl-trace --follow` tails.
//!
//! What comes out is a causal merge, not a global `lam` sort: ticks are
//! applied in arrival order, so across a tick boundary a node whose
//! Lamport clock runs behind can follow one that runs ahead. What
//! holds throughout is each node's own `seq` order, and — for streams
//! that ship in emission order — every `FrameSent` before its
//! `FrameReceived`.
//!
//! Time is the injected [`Clock`]: a `ManualClock` script reproduces
//! every alert deterministically, and the production binary passes a
//! `WallClock`. [`CollectorServer`] adds the two listeners (frame
//! ingest + HTTP) and a tick thread around the same core.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use serde::Serialize;

use hadfl::clock::Clock;
use hadfl::wire::Message;
use hadfl_telemetry::analyze;
use hadfl_telemetry::health::{Alert, HealthEngine, HealthOptions, HealthReport};
use hadfl_telemetry::sink::Sink;
use hadfl_telemetry::{serve_http, stop_accept, Event, MetricsRegistry, MetricsSink};

use crate::frame::{accept_readers, read_frame};

/// Collector tuning.
#[derive(Debug, Clone)]
pub struct CollectorOptions {
    /// Health rule knobs (deadline, thresholds, budget).
    pub health: HealthOptions,
    /// Where to spool the merged JSONL timeline, if anywhere.
    pub spool: Option<PathBuf>,
    /// Ingest frames larger than this are a protocol error; the
    /// connection is dropped.
    pub max_frame_bytes: usize,
}

impl Default for CollectorOptions {
    fn default() -> Self {
        CollectorOptions {
            health: HealthOptions::default(),
            spool: None,
            max_frame_bytes: 64 * 1024 * 1024,
        }
    }
}

/// Per-node ingest accounting (reported in `/health`).
#[derive(Debug, Clone, Default, Serialize)]
pub struct NodeIngest {
    /// The shipping node.
    pub node: u32,
    /// Batches received.
    pub batches: u64,
    /// Events received.
    pub events: u64,
    /// Thinned events the node announced via batch `dropped` counts.
    pub dropped: u64,
    /// Telemetry payload bytes received from this node (message
    /// encoding, excluding stamp and length prefix — comparable to
    /// the param-byte `NetStats` ledger).
    pub telemetry_bytes: u64,
}

/// The `/health` document: the rule engine's report plus ingest truth.
#[derive(Debug, Clone, Serialize)]
pub struct FleetStatus {
    /// Health rules' view (nested under `report` in the JSON).
    pub report: HealthReport,
    /// Per-node ingest accounting, ascending node id.
    pub nodes: Vec<NodeIngest>,
    /// Total telemetry payload bytes ingested.
    pub telemetry_bytes: u64,
    /// Total thinned events announced by shippers.
    pub events_dropped: u64,
    /// Events applied to the merged timeline.
    pub events_applied: u64,
    /// Malformed JSONL lines skipped.
    pub garbage_lines: u64,
}

/// The transport-free collector core. Wrap in `Arc<Mutex<_>>` to share
/// between reader threads and the tick cadence.
pub struct Collector {
    clock: Arc<dyn Clock>,
    health: HealthEngine,
    registry: Arc<MetricsRegistry>,
    sink: MetricsSink,
    staged: Vec<Event>,
    nodes: BTreeMap<u32, NodeIngest>,
    spool: Option<BufWriter<std::fs::File>>,
    events_applied: u64,
    garbage_lines: u64,
}

impl Collector {
    /// A fresh collector on `clock`, rendering into `registry`.
    ///
    /// # Errors
    ///
    /// Propagates spool-file creation errors.
    pub fn new(
        clock: Arc<dyn Clock>,
        registry: Arc<MetricsRegistry>,
        opts: &CollectorOptions,
    ) -> std::io::Result<Self> {
        let spool = match &opts.spool {
            Some(path) => Some(BufWriter::new(std::fs::File::create(path)?)),
            None => None,
        };
        registry.describe("hadfl_fleet_nodes", "Nodes that have shipped telemetry.");
        registry.describe(
            "hadfl_fleet_events",
            "Events applied to the merged timeline.",
        );
        registry.describe(
            "hadfl_fleet_events_dropped",
            "Thinned events announced by shippers under backpressure.",
        );
        registry.describe(
            "hadfl_fleet_telemetry_bytes",
            "Telemetry payload bytes ingested (ledgered apart from param bytes).",
        );
        registry.describe("hadfl_fleet_alerts", "Health alerts raised, by rule.");
        Ok(Collector {
            clock,
            health: HealthEngine::new(opts.health.clone()),
            registry: Arc::clone(&registry),
            sink: MetricsSink::new(registry),
            staged: Vec::new(),
            nodes: BTreeMap::new(),
            spool,
            events_applied: 0,
            garbage_lines: 0,
        })
    }

    /// Stages one shipped batch. `origin` is the causal stamp's
    /// origin; `node` the batch's self-declared shipper (they agree
    /// for well-behaved shippers — ingest accounting trusts the
    /// stamp). Events become visible to the rules at the next
    /// [`Collector::tick`].
    pub fn ingest_batch(&mut self, origin: u32, node: u32, dropped: u32, payload: &[u8]) {
        let entry = self.nodes.entry(origin).or_insert_with(|| NodeIngest {
            node: origin,
            ..NodeIngest::default()
        });
        entry.batches += 1;
        entry.dropped += dropped as u64;
        entry.telemetry_bytes += (payload.len() + telemetry_frame_overhead()) as u64;
        let _ = node;
        let log = analyze::parse_jsonl(&String::from_utf8_lossy(payload));
        entry.events += log.events.len() as u64;
        self.garbage_lines += log.garbage_lines as u64;
        self.staged.extend(log.events);
    }

    /// Stages a bare event (scripted tests ship pre-parsed events
    /// without the JSONL hop).
    pub fn ingest_event(&mut self, event: Event) {
        let entry = self.nodes.entry(event.node).or_insert_with(|| NodeIngest {
            node: event.node,
            ..NodeIngest::default()
        });
        entry.events += 1;
        self.staged.push(event);
    }

    /// Drains the stage, sorted by `(lam, node, seq)`, into the health
    /// engine, the metrics sink, and the spool, then evaluates the
    /// time-based rules. Call on a cadence. The sort spans this tick's
    /// stage only; successive ticks append in arrival order (see the
    /// module docs for what order the spool therefore keeps).
    pub fn tick(&mut self) {
        let now = self.clock.now();
        let mut batch = std::mem::take(&mut self.staged);
        batch.sort_by_key(|e| (e.lam, e.node, e.seq));
        for event in &batch {
            self.health.observe(now, event);
            self.sink.record(event);
            if let Some(spool) = self.spool.as_mut() {
                if let Ok(line) = event.to_json() {
                    let _ = writeln!(spool, "{line}");
                }
            }
        }
        self.events_applied += batch.len() as u64;
        if let Some(spool) = self.spool.as_mut() {
            let _ = spool.flush();
        }
        self.health.tick(now);
        self.export_fleet_gauges();
    }

    fn export_fleet_gauges(&self) {
        let reg = &self.registry;
        reg.set_gauge("hadfl_fleet_nodes", &[], self.nodes.len() as f64);
        reg.set_gauge("hadfl_fleet_events", &[], self.events_applied as f64);
        let dropped: u64 = self.nodes.values().map(|n| n.dropped).sum();
        reg.set_gauge("hadfl_fleet_events_dropped", &[], dropped as f64);
        let bytes: u64 = self.nodes.values().map(|n| n.telemetry_bytes).sum();
        reg.set_gauge("hadfl_fleet_telemetry_bytes", &[], bytes as f64);
        let mut by_rule: BTreeMap<&str, u64> = BTreeMap::new();
        for alert in self.health.alerts() {
            *by_rule.entry(alert.rule.as_str()).or_insert(0) += 1;
        }
        for (rule, count) in by_rule {
            reg.set_gauge(
                "hadfl_fleet_alerts",
                &[("rule", rule.to_string())],
                count as f64,
            );
        }
    }

    /// Alerts raised so far.
    pub fn alerts(&self) -> &[Alert] {
        self.health.alerts()
    }

    /// Total telemetry payload bytes ingested across nodes.
    pub fn telemetry_bytes(&self) -> u64 {
        self.nodes.values().map(|n| n.telemetry_bytes).sum()
    }

    /// The `/health` document.
    pub fn status(&self) -> FleetStatus {
        FleetStatus {
            report: self.health.report(),
            nodes: self.nodes.values().cloned().collect(),
            telemetry_bytes: self.telemetry_bytes(),
            events_dropped: self.nodes.values().map(|n| n.dropped).sum(),
            events_applied: self.events_applied,
            garbage_lines: self.garbage_lines,
        }
    }

    /// The `/health` body as JSON.
    pub fn status_json(&self) -> String {
        serde_json::to_string_pretty(&self.status())
            .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }

    /// The shared metrics registry (for `/metrics`).
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }
}

/// Per-frame wire overhead attributed to a telemetry batch beyond its
/// JSONL payload: the TelemetryBatch header (tag + node + dropped +
/// payload length). Stamp and length prefix are excluded, mirroring
/// the `NetStats` payload accounting for param frames.
fn telemetry_frame_overhead() -> usize {
    1 + 4 + 4 + 4
}

/// The running collector daemon: a frame-ingest listener, a path-aware
/// HTTP listener (`/metrics`, `/health`), and a tick thread around a
/// shared [`Collector`]. Shuts down on [`CollectorServer::shutdown`]
/// or drop.
pub struct CollectorServer {
    ingest_addr: SocketAddr,
    http_addr: SocketAddr,
    collector: Arc<Mutex<Collector>>,
    stop: Arc<AtomicBool>,
    /// `(ingest accept, http accept, tick)` threads, taken at stop.
    threads: Option<[JoinHandle<()>; 3]>,
    max_frame_bytes: usize,
}

impl CollectorServer {
    /// Binds both listeners and starts the tick thread.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn start(
        ingest_addr: &str,
        http_addr: &str,
        collector: Arc<Mutex<Collector>>,
        tick_interval: Duration,
        max_frame_bytes: usize,
    ) -> std::io::Result<Self> {
        let ingest = TcpListener::bind(ingest_addr)?;
        let http = TcpListener::bind(http_addr)?;
        let bound_ingest = ingest.local_addr()?;
        let bound_http = http.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        let ingest_thread = {
            let collector = Arc::clone(&collector);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                accept_readers(&ingest, &stop, move |conn| {
                    ingest_conn(conn, &collector, max_frame_bytes)
                })
            })
        };
        let http_thread = {
            let collector = Arc::clone(&collector);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || http_loop(http, collector, stop))
        };
        let tick_thread = {
            let collector = Arc::clone(&collector);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    collector
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .tick();
                    std::thread::sleep(tick_interval);
                }
            })
        };
        Ok(CollectorServer {
            ingest_addr: bound_ingest,
            http_addr: bound_http,
            collector,
            stop,
            threads: Some([ingest_thread, http_thread, tick_thread]),
            max_frame_bytes,
        })
    }

    /// Where shippers connect.
    pub fn ingest_addr(&self) -> SocketAddr {
        self.ingest_addr
    }

    /// Where `/metrics` and `/health` answer.
    pub fn http_addr(&self) -> SocketAddr {
        self.http_addr
    }

    /// The shared core (tests inspect alerts directly).
    pub fn collector(&self) -> Arc<Mutex<Collector>> {
        Arc::clone(&self.collector)
    }

    /// Largest accepted ingest frame.
    pub fn max_frame_bytes(&self) -> usize {
        self.max_frame_bytes
    }

    /// Stops the listeners and the tick thread, joins them and every
    /// ingest reader — each first reads what its shipper had sent — and
    /// runs one final tick so everything staged is applied. Both
    /// addresses refuse connections once this returns.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some([ingest, http, tick]) = self.threads.take() else {
            return;
        };
        stop_accept(&self.stop, self.ingest_addr, ingest);
        stop_accept(&self.stop, self.http_addr, http);
        let _ = tick.join();
        self.collector
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .tick();
    }
}

impl Drop for CollectorServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// One shipper connection: length-prefixed sealed frames until EOF.
/// Anything malformed drops the connection — the shipper redials.
fn ingest_conn(mut stream: &TcpStream, collector: &Mutex<Collector>, max_frame_bytes: usize) {
    while let Some((stamp, msg, _)) = read_frame(&mut stream, max_frame_bytes, Vec::with_capacity) {
        // Anything else is ignored (a misdirected protocol peer); the
        // connection is kept in case batches follow.
        if let Message::TelemetryBatch {
            node,
            dropped,
            payload,
        } = msg
        {
            collector
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .ingest_batch(stamp.origin, node, dropped, &payload);
        }
    }
}

fn http_loop(listener: TcpListener, collector: Arc<Mutex<Collector>>, stop: Arc<AtomicBool>) {
    serve_http(&listener, &stop, |path| match path {
        "/metrics" => {
            let body = collector
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .registry()
                .render();
            ("200 OK", "text/plain; version=0.0.4", body)
        }
        "/health" => (
            "200 OK",
            "application/json",
            collector
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .status_json(),
        ),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "try /metrics or /health\n".to_string(),
        ),
    });
}
