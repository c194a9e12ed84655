//! Prometheus-style metrics: a registry, an event-driven sink that
//! feeds it, and a tiny text-exposition HTTP server.
//!
//! The registry is deliberately minimal — counters, gauges, and
//! fixed-bucket histograms keyed by `name{labels}` — because the
//! vendored dependency set has no metrics or HTTP crate. The exposition
//! format follows the Prometheus text format (`# TYPE` headers,
//! `_bucket`/`_sum`/`_count` histogram series) closely enough for
//! standard scrapers.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::event::{Event, EventKind};
use crate::sink::Sink;

/// Buckets (seconds) for latency histograms: wide enough for both
/// millisecond loopback runs and multi-second real windows.
const LATENCY_BUCKETS: &[f64] = &[
    0.001, 0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

/// Buckets for the prediction absolute-error histogram (versions).
const ERROR_BUCKETS: &[f64] = &[0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0];

#[derive(Debug, Clone)]
struct Histogram {
    bounds: &'static [f64],
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    fn new(bounds: &'static [f64]) -> Self {
        Histogram {
            bounds,
            counts: vec![0; bounds.len()],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, value: f64) {
        for (i, b) in self.bounds.iter().enumerate() {
            if value <= *b {
                self.counts[i] += 1;
            }
        }
        self.sum += value;
        self.count += 1;
    }
}

#[derive(Default)]
struct Registry {
    // name -> labels -> value; BTreeMaps keep exposition output stable.
    counters: BTreeMap<String, BTreeMap<String, f64>>,
    gauges: BTreeMap<String, BTreeMap<String, f64>>,
    histograms: BTreeMap<String, BTreeMap<String, Histogram>>,
    // name -> help text registered via `describe` (overrides built-ins).
    help: BTreeMap<String, String>,
}

/// Built-in `# HELP` text for the metric families emitted by
/// [`MetricsSink`]. Families outside this table (and not `describe`d)
/// fall back to a generic line — the exposition contract is that every
/// family carries `# HELP`/`# TYPE`, not that every help string is
/// hand-written.
fn builtin_help(name: &str) -> Option<&'static str> {
    Some(match name {
        "hadfl_local_steps_total" => "Local SGD steps completed, by device.",
        "hadfl_ring_phase_seconds" => "RingEnter-to-RingExit duration per round, seconds.",
        "hadfl_ring_dissolved_total" => "Ring exits that dissolved without producing a merge.",
        "hadfl_merges_total" => "Merged parameter installs.",
        "hadfl_bypass_total" => "Bypass declarations against dead ring members.",
        "hadfl_ring_repair_total" => "Ring repairs performed after a bypass warning.",
        "hadfl_rounds_total" => "Rounds planned by the coordinator (Eq. 8 selection draws).",
        "hadfl_selected_total" => "Times each device was drawn into a ring.",
        "hadfl_prediction_abs_error" => "Latest Eq. 7 absolute forecast error, by device.",
        "hadfl_prediction_abs_error_hist" => "Eq. 7 absolute forecast error distribution.",
        "hadfl_dropped_total" => "Devices dropped for missing the report deadline.",
        "hadfl_round_latency_seconds" => "Coordinator window-to-plan round duration, seconds.",
        "hadfl_sent_bytes_total" => "Payload bytes sent, by peer.",
        "hadfl_sent_frames_total" => "Payload frames sent, by peer.",
        "hadfl_recv_bytes_total" => "Payload bytes received, by peer.",
        "hadfl_recv_frames_total" => "Payload frames received, by peer.",
        "hadfl_segment_latency_seconds" => "Span segment durations by taxonomy name, seconds.",
        "hadfl_op_seconds_total" => "Profiled compute seconds inside each op scope (self time).",
        "hadfl_op_calls_total" => "Times each profiled op scope closed.",
        "hadfl_op_bytes_total" => "Bytes processed by each profiled op scope.",
        "hadfl_pool_busy_seconds_total" => "Pool worker seconds spent computing, by region.",
        "hadfl_pool_park_seconds_total" => "Pool worker seconds parked (not on a task), by region.",
        "hadfl_pool_wall_seconds_total" => "Dispatcher-side pool region wall seconds, by region.",
        "hadfl_pool_tasks_total" => "Pool tasks (chunks) executed, by region.",
        "hadfl_pool_dispatches_total" => "Pool dispatches, by region.",
        "hadfl_pool_imbalance_ratio" => {
            "Slowest chunk over mean chunk per pool region (1.0 = balanced)."
        }
        "hadfl_pool_max_workers" => "Most workers any dispatch used, by region.",
        _ => return None,
    })
}

/// Thread-safe metrics store. Create once, share via `Arc`: the
/// [`MetricsSink`] writes into it while the exposition server renders
/// from it.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Registry>,
}

fn label_key(labels: &[(&str, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{{{}}}", parts.join(","))
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(MetricsRegistry::default())
    }

    /// Adds `by` to a counter series.
    pub fn inc_counter(&self, name: &str, labels: &[(&str, String)], by: f64) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        *inner
            .counters
            .entry(name.to_string())
            .or_default()
            .entry(label_key(labels))
            .or_insert(0.0) += by;
    }

    /// Sets a gauge series to `value`.
    pub fn set_gauge(&self, name: &str, labels: &[(&str, String)], value: f64) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner
            .gauges
            .entry(name.to_string())
            .or_default()
            .insert(label_key(labels), value);
    }

    /// Records one observation into a histogram series.
    pub fn observe(
        &self,
        name: &str,
        labels: &[(&str, String)],
        value: f64,
        bounds: &'static [f64],
    ) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .entry(label_key(labels))
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// Registers help text for a family (collector-specific families
    /// that the built-in table cannot know about).
    pub fn describe(&self, name: &str, help: &str) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.help.insert(name.to_string(), help.to_string());
    }

    /// Current value of a counter series (tests / reports).
    pub fn counter(&self, name: &str, labels: &[(&str, String)]) -> f64 {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner
            .counters
            .get(name)
            .and_then(|series| series.get(&label_key(labels)))
            .copied()
            .unwrap_or(0.0)
    }

    /// Current value of a gauge series (tests / reports).
    pub fn gauge(&self, name: &str, labels: &[(&str, String)]) -> f64 {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner
            .gauges
            .get(name)
            .and_then(|series| series.get(&label_key(labels)))
            .copied()
            .unwrap_or(0.0)
    }

    /// Renders the whole registry in the Prometheus text format
    /// (version 0.0.4): every family gets `# HELP` and `# TYPE` lines
    /// before its series.
    pub fn render(&self) -> String {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let help_line = |name: &str| -> String {
            let text = inner
                .help
                .get(name)
                .map(String::as_str)
                .or_else(|| builtin_help(name))
                .unwrap_or("No description registered.");
            format!("# HELP {name} {text}\n")
        };
        let mut out = String::new();
        for (name, series) in &inner.counters {
            out.push_str(&help_line(name));
            out.push_str(&format!("# TYPE {name} counter\n"));
            for (labels, value) in series {
                out.push_str(&format!("{name}{labels} {value}\n"));
            }
        }
        for (name, series) in &inner.gauges {
            out.push_str(&help_line(name));
            out.push_str(&format!("# TYPE {name} gauge\n"));
            for (labels, value) in series {
                out.push_str(&format!("{name}{labels} {value}\n"));
            }
        }
        for (name, series) in &inner.histograms {
            out.push_str(&help_line(name));
            out.push_str(&format!("# TYPE {name} histogram\n"));
            for (labels, h) in series {
                let base = labels.trim_start_matches('{').trim_end_matches('}');
                let with = |extra: &str| -> String {
                    if base.is_empty() {
                        format!("{{{extra}}}")
                    } else {
                        format!("{{{base},{extra}}}")
                    }
                };
                for (i, b) in h.bounds.iter().enumerate() {
                    out.push_str(&format!(
                        "{name}_bucket{} {}\n",
                        with(&format!("le=\"{b}\"")),
                        h.counts[i]
                    ));
                }
                out.push_str(&format!(
                    "{name}_bucket{} {}\n",
                    with("le=\"+Inf\""),
                    h.count
                ));
                out.push_str(&format!("{name}_sum{labels} {}\n", h.sum));
                out.push_str(&format!("{name}_count{labels} {}\n", h.count));
            }
        }
        out
    }
}

/// Interprets protocol events into the metric families documented in
/// DESIGN.md §9: round latency, ring phase durations, bytes per peer,
/// prediction absolute error, and selection counts per device.
pub struct MetricsSink {
    registry: Arc<MetricsRegistry>,
    // RingEnter timestamp per round, for the ring-phase histogram.
    ring_enter_us: BTreeMap<u32, u64>,
    // Open spans by (node, span id) -> (segment name, start t_us), for
    // the per-segment latency histograms.
    open_spans: BTreeMap<(u32, u64), (String, u64)>,
}

impl MetricsSink {
    /// Wraps a shared registry.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        MetricsSink {
            registry,
            ring_enter_us: BTreeMap::new(),
            open_spans: BTreeMap::new(),
        }
    }
}

fn device_label(device: u32) -> [(&'static str, String); 1] {
    [("device", device.to_string())]
}

impl Sink for MetricsSink {
    fn record(&mut self, event: &Event) {
        let reg = &self.registry;
        match &event.kind {
            EventKind::LocalSteps { device, steps, .. } => {
                reg.inc_counter(
                    "hadfl_local_steps_total",
                    &device_label(*device),
                    *steps as f64,
                );
            }
            EventKind::RingEnter { round, .. } => {
                self.ring_enter_us.insert(*round, event.t_us);
            }
            EventKind::RingExit { round, dissolved } => {
                if let Some(entered) = self.ring_enter_us.remove(round) {
                    let secs = event.t_us.saturating_sub(entered) as f64 / 1e6;
                    reg.observe("hadfl_ring_phase_seconds", &[], secs, LATENCY_BUCKETS);
                }
                if *dissolved {
                    reg.inc_counter("hadfl_ring_dissolved_total", &[], 1.0);
                }
            }
            EventKind::Merge { .. } => {
                reg.inc_counter("hadfl_merges_total", &[], 1.0);
            }
            EventKind::BypassDeclared { .. } => {
                reg.inc_counter("hadfl_bypass_total", &[], 1.0);
            }
            EventKind::RingRepair { .. } => {
                reg.inc_counter("hadfl_ring_repair_total", &[], 1.0);
            }
            EventKind::RoundPlanned { selected, .. } => {
                reg.inc_counter("hadfl_rounds_total", &[], 1.0);
                for d in selected {
                    reg.inc_counter("hadfl_selected_total", &device_label(*d), 1.0);
                }
            }
            EventKind::Prediction {
                device,
                predicted,
                actual,
                ..
            } => {
                let err = (predicted - actual).abs();
                reg.set_gauge("hadfl_prediction_abs_error", &device_label(*device), err);
                reg.observe("hadfl_prediction_abs_error_hist", &[], err, ERROR_BUCKETS);
            }
            EventKind::DeviceDropped { device, .. } => {
                reg.inc_counter("hadfl_dropped_total", &device_label(*device), 1.0);
            }
            EventKind::RoundComplete { duration_us, .. } => {
                reg.observe(
                    "hadfl_round_latency_seconds",
                    &[],
                    *duration_us as f64 / 1e6,
                    LATENCY_BUCKETS,
                );
            }
            EventKind::FrameSent { dst, bytes, .. } => {
                let peer = [("peer", dst.to_string())];
                reg.inc_counter("hadfl_sent_bytes_total", &peer, *bytes as f64);
                reg.inc_counter("hadfl_sent_frames_total", &peer, 1.0);
            }
            EventKind::FrameReceived { src, bytes, .. } => {
                let peer = [("peer", src.to_string())];
                reg.inc_counter("hadfl_recv_bytes_total", &peer, *bytes as f64);
                reg.inc_counter("hadfl_recv_frames_total", &peer, 1.0);
            }
            EventKind::OpProfile {
                op,
                calls,
                self_ns,
                bytes,
                ..
            } => {
                let labels = [("op", op.clone())];
                reg.inc_counter("hadfl_op_seconds_total", &labels, *self_ns as f64 / 1e9);
                reg.inc_counter("hadfl_op_calls_total", &labels, *calls as f64);
                if *bytes > 0 {
                    reg.inc_counter("hadfl_op_bytes_total", &labels, *bytes as f64);
                }
            }
            EventKind::PoolProfile {
                region,
                dispatches,
                max_workers,
                tasks,
                busy_ns,
                park_ns,
                wall_ns,
                max_chunk_ns,
                ..
            } => {
                let labels = [("region", region.clone())];
                reg.inc_counter(
                    "hadfl_pool_busy_seconds_total",
                    &labels,
                    *busy_ns as f64 / 1e9,
                );
                reg.inc_counter(
                    "hadfl_pool_park_seconds_total",
                    &labels,
                    *park_ns as f64 / 1e9,
                );
                reg.inc_counter(
                    "hadfl_pool_wall_seconds_total",
                    &labels,
                    *wall_ns as f64 / 1e9,
                );
                reg.inc_counter("hadfl_pool_tasks_total", &labels, *tasks as f64);
                reg.inc_counter("hadfl_pool_dispatches_total", &labels, *dispatches as f64);
                reg.set_gauge("hadfl_pool_max_workers", &labels, *max_workers as f64);
                if *tasks > 0 {
                    let mean = *busy_ns as f64 / *tasks as f64;
                    let ratio = if mean > 0.0 {
                        *max_chunk_ns as f64 / mean
                    } else {
                        1.0
                    };
                    reg.set_gauge("hadfl_pool_imbalance_ratio", &labels, ratio);
                }
            }
            EventKind::SpanStart { span, name, .. } => {
                self.open_spans
                    .insert((event.node, *span), (name.clone(), event.t_us));
            }
            EventKind::SpanEnd { span, .. } => {
                if let Some((segment, started)) = self.open_spans.remove(&(event.node, *span)) {
                    let secs = event.t_us.saturating_sub(started) as f64 / 1e6;
                    reg.observe(
                        "hadfl_segment_latency_seconds",
                        &[("segment", segment)],
                        secs,
                        LATENCY_BUCKETS,
                    );
                }
            }
            _ => {}
        }
    }
}

/// Pause after a failed `accept` (`EMFILE`, `ECONNABORTED`, ...) so a
/// persistent error does not spin the thread. Readiness never sleeps:
/// the listener is blocking.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(50);

/// Budget of [`stop_accept`]'s wake connection.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// The workspace's one accept loop: blocks in `listener.accept()` and
/// hands every connection to `on_conn`, until an accept returns with
/// `stop` set — [`stop_accept`]'s wake connection is that accept.
///
/// Run it on a thread that owns `listener`, so the listener closes when
/// the loop returns. With std alone there is no readiness API, so the
/// listener stays blocking: a nonblocking one is a sleep-poll, and the
/// poll period is added to the first frame on every new connection.
pub fn accept_until(listener: &TcpListener, stop: &AtomicBool, mut on_conn: impl FnMut(TcpStream)) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => on_conn(stream),
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// Stops an [`accept_until`] thread: sets `stop`, wakes the blocked
/// accept with one connection to `addr` (the listener's bound address;
/// loopback stands in for an unspecified IP) and, if that connection
/// succeeded, joins `accept_thread` — so the listener is closed when
/// this returns. A failed wake leaves the thread detached: it exits at
/// its next accept.
pub fn stop_accept(stop: &AtomicBool, addr: SocketAddr, accept_thread: JoinHandle<()>) {
    stop.store(true, Ordering::SeqCst);
    let mut wake = addr;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    if TcpStream::connect_timeout(&wake, WAKE_TIMEOUT).is_ok() {
        let _ = accept_thread.join();
    }
}

/// Handle to the background exposition server; shuts down on
/// [`MetricsServer::shutdown`] or drop.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound address (useful with a `:0` request).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread: the address
    /// refuses connections once this returns.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(handle) = self.handle.take() {
            stop_accept(&self.stop, self.addr, handle);
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Serves `registry.render()` to every HTTP request on `addr`
/// (conventionally scraped at `/metrics`; the path is not inspected).
///
/// # Errors
///
/// Propagates bind errors.
pub fn serve_metrics(addr: &str, registry: Arc<MetricsRegistry>) -> std::io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        serve_http(&listener, &stop_flag, |_| {
            ("200 OK", "text/plain; version=0.0.4", registry.render())
        });
    });
    Ok(MetricsServer {
        addr: bound,
        stop,
        handle: Some(handle),
    })
}

/// The workspace's one HTTP/1.1 responder, for endpoints that serve
/// scrapers and `curl`: an [`accept_until`] loop on `listener` that
/// reads one request head per connection (best effort, 200 ms), hands its
/// path — query string dropped — to `route` for `(status, content
/// type, body)`, and answers with `Content-Length` and `Connection:
/// close`. Stop it with [`stop_accept`].
pub fn serve_http(
    listener: &TcpListener,
    stop: &AtomicBool,
    route: impl Fn(&str) -> (&'static str, &'static str, String),
) {
    accept_until(listener, stop, |mut stream| {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        // The head can arrive in several segments; closing with part of
        // it unread would reset the connection under the response.
        let mut scratch = [0u8; 2048];
        let mut n = 0;
        while n < scratch.len() && !scratch[..n].windows(4).any(|w| w == b"\r\n\r\n") {
            match stream.read(&mut scratch[n..]) {
                Ok(0) | Err(_) => break,
                Ok(read) => n += read,
            }
        }
        let request = String::from_utf8_lossy(&scratch[..n]);
        let path = request
            .split_whitespace()
            .nth(1)
            .unwrap_or("/")
            .split('?')
            .next()
            .unwrap_or("/");
        let (status, content_type, body) = route(path);
        let response = format!(
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let _ = stream.write_all(response.as_bytes());
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SCHEMA_VERSION;

    fn event(t_us: u64, kind: EventKind) -> Event {
        Event {
            v: SCHEMA_VERSION,
            seq: 0,
            node: 0,
            t_us,
            lam: 0,
            kind,
        }
    }

    #[test]
    fn sink_aggregates_events() {
        let registry = MetricsRegistry::new();
        let mut sink = MetricsSink::new(Arc::clone(&registry));
        sink.record(&event(
            0,
            EventKind::LocalSteps {
                device: 1,
                steps: 64,
                version: 64,
            },
        ));
        sink.record(&event(
            10,
            EventKind::RingEnter {
                round: 1,
                ring: vec![0, 1],
            },
        ));
        sink.record(&event(
            30_010,
            EventKind::RingExit {
                round: 1,
                dissolved: false,
            },
        ));
        sink.record(&event(
            40_000,
            EventKind::FrameSent {
                src: 0,
                dst: 2,
                bytes: 100,
                kind: "param_accum".into(),
                lamport: 0,
            },
        ));
        let labels = [("device", "1".to_string())];
        assert_eq!(registry.counter("hadfl_local_steps_total", &labels), 64.0);
        let peer = [("peer", "2".to_string())];
        assert_eq!(registry.counter("hadfl_sent_bytes_total", &peer), 100.0);
        let text = registry.render();
        assert!(text.contains("# TYPE hadfl_local_steps_total counter"));
        assert!(text.contains("hadfl_ring_phase_seconds_bucket"));
        assert!(text.contains("hadfl_ring_phase_seconds_count 1"));
    }

    #[test]
    fn span_pairs_feed_segment_latency_histogram() {
        let registry = MetricsRegistry::new();
        let mut sink = MetricsSink::new(Arc::clone(&registry));
        sink.record(&event(
            1_000,
            EventKind::SpanStart {
                span: 1,
                parent: 0,
                name: "ring_reduce".into(),
                round: 1,
                device: 0,
            },
        ));
        // An end without a matching start is ignored.
        sink.record(&event(
            2_000,
            EventKind::SpanEnd {
                span: 99,
                round: 1,
                device: 0,
            },
        ));
        sink.record(&event(
            21_000,
            EventKind::SpanEnd {
                span: 1,
                round: 1,
                device: 0,
            },
        ));
        let text = registry.render();
        // 20 ms lands in the 0.02 bucket, inclusively.
        assert!(
            text.contains(
                "hadfl_segment_latency_seconds_bucket{segment=\"ring_reduce\",le=\"0.02\"} 1"
            ),
            "{text}"
        );
        assert!(
            text.contains("hadfl_segment_latency_seconds_count{segment=\"ring_reduce\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn profile_events_feed_op_and_pool_families() {
        let registry = MetricsRegistry::new();
        let mut sink = MetricsSink::new(Arc::clone(&registry));
        sink.record(&event(
            0,
            EventKind::OpProfile {
                op: "matmul".into(),
                calls: 4,
                total_ns: 2_000_000_000,
                self_ns: 1_500_000_000,
                bytes: 4096,
            },
        ));
        sink.record(&event(
            0,
            EventKind::PoolProfile {
                region: "train_step;par".into(),
                dispatches: 2,
                max_workers: 4,
                tasks: 10,
                busy_ns: 800_000_000,
                park_ns: 200_000_000,
                wall_ns: 300_000_000,
                max_chunk_ns: 160_000_000,
                min_chunk_ns: 40_000_000,
            },
        ));
        let op = [("op", "matmul".to_string())];
        assert_eq!(registry.counter("hadfl_op_seconds_total", &op), 1.5);
        assert_eq!(registry.counter("hadfl_op_calls_total", &op), 4.0);
        assert_eq!(registry.counter("hadfl_op_bytes_total", &op), 4096.0);
        let region = [("region", "train_step;par".to_string())];
        assert_eq!(
            registry.counter("hadfl_pool_busy_seconds_total", &region),
            0.8
        );
        assert_eq!(
            registry.counter("hadfl_pool_park_seconds_total", &region),
            0.2
        );
        assert_eq!(registry.counter("hadfl_pool_tasks_total", &region), 10.0);
        assert_eq!(registry.gauge("hadfl_pool_max_workers", &region), 4.0);
        // imbalance = max_chunk / mean_chunk = 160ms / 80ms = 2.
        assert_eq!(registry.gauge("hadfl_pool_imbalance_ratio", &region), 2.0);
    }

    #[test]
    fn histogram_buckets_are_inclusive_upper_bounds() {
        let registry = MetricsRegistry::new();
        // Exactly on a boundary counts in that bucket (le is <=).
        registry.observe("h", &[], 0.001, LATENCY_BUCKETS);
        // Past the largest finite bound: only +Inf counts it.
        registry.observe("h", &[], 11.0, LATENCY_BUCKETS);
        let text = registry.render();
        assert!(text.contains("h_bucket{le=\"0.001\"} 1"), "{text}");
        assert!(text.contains("h_bucket{le=\"10\"} 1"), "{text}");
        assert!(text.contains("h_bucket{le=\"+Inf\"} 2"), "{text}");
    }

    #[test]
    fn histogram_sum_and_count_stay_consistent() {
        let registry = MetricsRegistry::new();
        let values = [0.004, 0.05, 0.3, 2.0];
        for v in values {
            registry.observe("h", &[], v, LATENCY_BUCKETS);
        }
        let text = registry.render();
        let sum: f64 = values.iter().sum();
        assert!(text.contains(&format!("h_sum {sum}")), "{text}");
        assert!(text.contains("h_count 4"), "{text}");
        // Cumulative buckets never decrease and end at count.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("h_bucket")) {
            let n: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(n >= last, "{text}");
            last = n;
        }
        assert_eq!(last, 4, "{text}");
    }

    #[test]
    fn empty_registry_renders_no_series() {
        let registry = MetricsRegistry::new();
        assert_eq!(registry.render(), "");
        // A counter series alone must not invent histogram output.
        registry.inc_counter("hadfl_rounds_total", &[], 1.0);
        let text = registry.render();
        assert!(!text.contains("_bucket"), "{text}");
        assert!(!text.contains("histogram"), "{text}");
    }

    #[test]
    fn exposition_format_has_help_and_type_for_every_family() {
        let registry = MetricsRegistry::new();
        let mut sink = MetricsSink::new(Arc::clone(&registry));
        sink.record(&event(
            0,
            EventKind::LocalSteps {
                device: 1,
                steps: 64,
                version: 64,
            },
        ));
        sink.record(&event(
            0,
            EventKind::Prediction {
                round: 1,
                device: 1,
                predicted: 10.0,
                actual: 8.0,
            },
        ));
        sink.record(&event(
            0,
            EventKind::RoundComplete {
                round: 1,
                duration_us: 5_000,
            },
        ));
        registry.describe("fleet_custom_total", "A collector-registered family.");
        registry.inc_counter("fleet_custom_total", &[], 2.0);
        registry.inc_counter("undescribed_total", &[], 1.0);
        let text = registry.render();
        // Every series line's family must be introduced by # HELP then
        // # TYPE, in that order, exactly once.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let series = line.split(&['{', ' '][..]).next().expect("series name");
            let family = series
                .trim_end_matches("_bucket")
                .trim_end_matches("_sum")
                .trim_end_matches("_count");
            let help = format!("# HELP {family} ");
            let tipe = format!("# TYPE {family} ");
            let help_at = text
                .find(&help)
                .unwrap_or_else(|| panic!("no HELP for {family}: {text}"));
            let type_at = text
                .find(&tipe)
                .unwrap_or_else(|| panic!("no TYPE for {family}: {text}"));
            assert!(help_at < type_at, "HELP must precede TYPE for {family}");
            assert_eq!(text.matches(&help).count(), 1, "{family}");
        }
        assert!(
            text.contains("# HELP fleet_custom_total A collector-registered family."),
            "{text}"
        );
        assert!(
            text.contains("# HELP hadfl_local_steps_total Local SGD steps completed, by device."),
            "{text}"
        );
        assert!(
            text.contains("# HELP undescribed_total No description registered."),
            "{text}"
        );
        assert!(
            text.contains("# TYPE hadfl_round_latency_seconds histogram"),
            "{text}"
        );
    }

    #[test]
    fn server_answers_http() {
        let registry = MetricsRegistry::new();
        registry.inc_counter("hadfl_rounds_total", &[], 3.0);
        let server = serve_metrics("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(
            response.contains("Content-Type: text/plain; version=0.0.4"),
            "{response}"
        );
        assert!(response.contains("# HELP hadfl_rounds_total"), "{response}");
        assert!(response.contains("hadfl_rounds_total 3"), "{response}");
        server.shutdown();
    }

    #[test]
    fn request_head_in_several_segments_gets_the_whole_response() {
        let registry = MetricsRegistry::new();
        for i in 0..4000 {
            registry.inc_counter("hadfl_rounds_total", &[("device", i.to_string())], 1.0);
        }
        let server = serve_metrics("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"GET /metrics").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        stream.write_all(b" HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.ends_with(&registry.render()), "truncated response");
        server.shutdown();
    }

    #[test]
    fn shutdown_closes_the_listener_before_returning() {
        // An unspecified bind is woken through loopback.
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let server = serve_metrics(bind, MetricsRegistry::new()).unwrap();
            let port = server.addr().port();
            server.shutdown();
            let err = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused, "{bind}");
        }
    }
}
