//! # hadfl-telemetry — observability for the HADFL runtime
//!
//! A cross-cutting event layer threaded through the protocol actors
//! (`hadfl::exec`) and the ports under them (`hadfl::transport`,
//! `hadfl-net`): every participant that moves frames holds a cheap
//! [`Telemetry`] handle and emits typed [`Event`]s at protocol
//! milestones; the closed-form simulation driver moves none and emits
//! none. The
//! handle is **zero-cost when disabled** — [`Telemetry::disabled`] is
//! a `None` and `emit` returns immediately — so the hot training and
//! ring loops pay nothing in production-default builds (measured by
//! `telemetry.emit_disabled_ns`, and the enabled handle's cost per
//! round by `telemetry.on_overhead_frac`, in `BENCHMARK.json`).
//!
//! Three sinks ship with the crate:
//!
//! - [`RingBufferSink`] — bounded in-memory buffer for tests,
//! - [`JsonlSink`] — one schema-versioned JSON object per line,
//! - [`MetricsSink`] + [`serve_metrics`] — a Prometheus-style registry
//!   with a text-exposition HTTP endpoint.
//!
//! The exposition server's blocking accept loop ([`accept_until`],
//! stopped by [`stop_accept`]) is also every other listener's in the
//! workspace: the collector's and the TCP transport's.
//!
//! The [`analyze`] module (and the `hadfl-trace` binary built from it)
//! merges per-node JSONL logs and reports the paper's headline
//! diagnostics: Eq. 7 prediction error, Eq. 8 selection frequencies,
//! straggler idle time, and the 2·K·M communication bound, with exact
//! parity against each node's `NetStats` ledger.
//!
//! Timestamps come from the emitter's `hadfl::clock::Clock` reading,
//! passed into [`Telemetry::emit`] as a `Duration`; this crate holds
//! no clock of its own, so `ManualClock` schedules produce
//! byte-identical JSONL.

pub mod analyze;
pub mod causal;
pub mod event;
pub mod follow;
pub mod health;
pub mod metrics;
pub mod profile;
pub mod ship;
pub mod sink;

pub use causal::LamportClock;
pub use event::{Event, EventKind, SCHEMA_VERSION};
pub use follow::FollowState;
pub use health::{Alert, HealthEngine, HealthOptions, HealthReport, Severity};
pub use metrics::{
    accept_until, serve_http, serve_metrics, stop_accept, MetricsRegistry, MetricsServer,
    MetricsSink,
};
pub use ship::{BatchShipper, ShipBatch, ShipOptions, ShipSink, ShipStats, VecShipper};
pub use sink::{JsonlSink, RingBufferSink, SharedBuffer, Sink};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

struct Inner {
    node: u32,
    seq: AtomicU64,
    /// The node's Lamport clock. The transport port ticks it on send
    /// and observes inbound stamps; `emit` reads it into every event's
    /// `lam` field, so event order and frame stamps share one scale.
    lamport: LamportClock,
    sinks: Mutex<Vec<Box<dyn Sink>>>,
}

/// Handle protocol code emits through. Clone freely: clones share the
/// node id, the sequence counter, and the sinks.
///
/// ```
/// use hadfl_telemetry::{EventKind, RingBufferSink, Telemetry};
/// use std::time::Duration;
///
/// let buffer = RingBufferSink::new(16);
/// let tel = Telemetry::new(0, vec![Box::new(buffer.clone())]);
/// tel.emit(
///     Duration::from_millis(3),
///     EventKind::DeviceStarted { device: 0 },
/// );
/// assert_eq!(buffer.snapshot().len(), 1);
///
/// // Disabled handles cost one branch and emit nowhere.
/// let off = Telemetry::disabled();
/// assert!(!off.enabled());
/// off.emit(Duration::ZERO, EventKind::DeviceStarted { device: 0 });
/// ```
#[derive(Clone, Default)]
pub struct Telemetry(Option<Arc<Inner>>);

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(inner) => write!(f, "Telemetry(node {})", inner.node),
            None => write!(f, "Telemetry(disabled)"),
        }
    }
}

impl Telemetry {
    /// The no-op handle: `emit` is a single `Option` check.
    pub fn disabled() -> Self {
        Telemetry(None)
    }

    /// A live handle for participant `node` fanning out to `sinks`.
    pub fn new(node: u32, sinks: Vec<Box<dyn Sink>>) -> Self {
        Telemetry(Some(Arc::new(Inner {
            node,
            seq: AtomicU64::new(0),
            lamport: LamportClock::new(),
            sinks: Mutex::new(sinks),
        })))
    }

    /// The node's Lamport clock — the transport port must tick this
    /// exact clock on send and observe inbound frame stamps on it, so
    /// its `FrameSent`/`FrameReceived` events and every actor event
    /// land on one causal scale. A disabled handle returns a fresh
    /// clock: the port still stamps frames correctly (receivers
    /// max-merge whatever arrives) and nobody records the readings.
    pub fn lamport_clock(&self) -> LamportClock {
        match &self.0 {
            Some(inner) => inner.lamport.clone(),
            None => LamportClock::new(),
        }
    }

    /// Whether events go anywhere. Guard expensive event construction
    /// (cloning rings, formatting) behind this.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Adds a sink after construction. Needed when a sink's transport
    /// wants the handle's own [`LamportClock`] (the `ShipSink`'s TCP
    /// shipper stamps outgoing batches with it), which only exists
    /// once the handle does. No-op on a disabled handle.
    pub fn attach_sink(&self, sink: Box<dyn Sink>) {
        if let Some(inner) = &self.0 {
            inner
                .sinks
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(sink);
        }
    }

    /// The emitting participant id, if enabled.
    pub fn node(&self) -> Option<u32> {
        self.0.as_ref().map(|inner| inner.node)
    }

    /// Stamps and fans out one event. `now` is the emitter's `Clock`
    /// reading — pass the same `now` your protocol step runs under and
    /// `ManualClock` runs stay deterministic.
    ///
    /// A `FrameSent` event takes its Lamport reading from the frame's
    /// own stamp rather than the clock's current value: between the
    /// send's `tick` and this emit, another thread (a reader observing
    /// an inbound stamp) may have advanced the shared clock past what
    /// the receiver will merge to, which
    /// would place the send *after* its own receive in the causal
    /// merge. The stamp is the send's true logical time.
    pub fn emit(&self, now: Duration, kind: EventKind) {
        let Some(inner) = &self.0 else { return };
        let lam = match &kind {
            EventKind::FrameSent { lamport, .. } if *lamport > 0 => *lamport,
            _ => inner.lamport.current(),
        };
        let event = Event {
            v: SCHEMA_VERSION,
            seq: inner.seq.fetch_add(1, Ordering::SeqCst),
            node: inner.node,
            t_us: now.as_micros() as u64,
            lam,
            kind,
        };
        // lint:allow(blocking-in-emit): uncontended fan-out lock; sinks themselves must not block
        let mut sinks = inner.sinks.lock().unwrap_or_else(PoisonError::into_inner);
        for sink in sinks.iter_mut() {
            sink.record(&event);
        }
    }

    /// Emits a profiler dump as telemetry events: one
    /// [`EventKind::OpProfile`] per *leaf op* (stack rows summed by
    /// their last path segment, so `train_step;dense_fwd;matmul` and
    /// `train_step;conv2d_fwd;im2col;matmul` both feed the `matmul`
    /// op) and one [`EventKind::PoolProfile`] per pool region. The
    /// full hierarchy stays in the on-disk dump; events carry the
    /// per-op aggregates the metrics registry and collector want.
    ///
    /// Call once at shutdown, before [`Telemetry::flush`]. No-op on a
    /// disabled handle or an empty dump.
    pub fn emit_profile(&self, now: Duration, dump: &hadfl_prof::ProfileDump) {
        if self.0.is_none() {
            return;
        }
        // BTreeMap: leaf ops emit in name order, deterministically.
        let mut ops: std::collections::BTreeMap<&str, (u64, u64, u64, u64)> =
            std::collections::BTreeMap::new();
        for row in &dump.stacks {
            let leaf = row.stack.rsplit(';').next().unwrap_or(&row.stack);
            let agg = ops.entry(leaf).or_default();
            agg.0 += row.count;
            agg.1 += row.total_ns;
            agg.2 += row.self_ns;
            agg.3 += row.bytes;
        }
        for (op, (calls, total_ns, self_ns, bytes)) in ops {
            self.emit(
                now,
                EventKind::OpProfile {
                    op: op.to_string(),
                    calls,
                    total_ns,
                    self_ns,
                    bytes,
                },
            );
        }
        for pool in &dump.pools {
            self.emit(
                now,
                EventKind::PoolProfile {
                    region: pool.region.clone(),
                    dispatches: pool.dispatches,
                    max_workers: pool.max_workers,
                    tasks: pool.tasks,
                    busy_ns: pool.busy_ns,
                    park_ns: pool.park_ns,
                    wall_ns: pool.wall_ns,
                    max_chunk_ns: pool.max_chunk_ns,
                    min_chunk_ns: pool.min_chunk_ns,
                },
            );
        }
    }

    /// Flushes every sink (call before process exit so JSONL buffers
    /// reach disk).
    pub fn flush(&self) {
        if let Some(inner) = &self.0 {
            let mut sinks = inner.sinks.lock().unwrap_or_else(PoisonError::into_inner);
            for sink in sinks.iter_mut() {
                sink.flush();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_contiguous_and_stamped() {
        let buffer = RingBufferSink::new(8);
        let tel = Telemetry::new(3, vec![Box::new(buffer.clone())]);
        for ms in [5u64, 9, 12] {
            tel.emit(
                Duration::from_millis(ms),
                EventKind::DeviceStarted { device: 3 },
            );
        }
        let events = buffer.snapshot();
        assert_eq!(events.len(), 3);
        for (i, event) in events.iter().enumerate() {
            assert_eq!(event.seq, i as u64);
            assert_eq!(event.node, 3);
            assert_eq!(event.v, SCHEMA_VERSION);
        }
        assert_eq!(events[2].t_us, 12_000);
    }

    #[test]
    fn clones_share_the_sequence() {
        let buffer = RingBufferSink::new(8);
        let tel = Telemetry::new(0, vec![Box::new(buffer.clone())]);
        let clone = tel.clone();
        tel.emit(Duration::ZERO, EventKind::DeviceStarted { device: 0 });
        clone.emit(
            Duration::ZERO,
            EventKind::DeviceFinished {
                device: 0,
                version: 1,
            },
        );
        let seqs: Vec<u64> = buffer.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn emit_profile_aggregates_stacks_by_leaf_op() {
        use hadfl_prof::{PoolRow, ProfileDump, StackRow, PROF_SCHEMA_VERSION};
        let buffer = RingBufferSink::new(16);
        let tel = Telemetry::new(0, vec![Box::new(buffer.clone())]);
        let dump = ProfileDump {
            v: PROF_SCHEMA_VERSION,
            node: 0,
            stacks: vec![
                StackRow {
                    stack: "train_step;dense_fwd;matmul".into(),
                    count: 2,
                    total_ns: 100,
                    self_ns: 100,
                    bytes: 8,
                },
                StackRow {
                    stack: "train_step;conv2d_fwd;matmul".into(),
                    count: 3,
                    total_ns: 50,
                    self_ns: 40,
                    bytes: 4,
                },
            ],
            pools: vec![PoolRow {
                region: "par".into(),
                dispatches: 1,
                max_workers: 2,
                tasks: 4,
                busy_ns: 80,
                park_ns: 20,
                wake_ns: 0,
                wall_ns: 100,
                serial_est_ns: 0,
                max_chunk_ns: 30,
                min_chunk_ns: 10,
            }],
        };
        tel.emit_profile(Duration::from_millis(7), &dump);
        let events = buffer.snapshot();
        assert_eq!(events.len(), 2, "one merged op + one pool row");
        match &events[0].kind {
            EventKind::OpProfile {
                op,
                calls,
                self_ns,
                bytes,
                ..
            } => {
                assert_eq!(op, "matmul");
                assert_eq!(*calls, 5);
                assert_eq!(*self_ns, 140);
                assert_eq!(*bytes, 12);
            }
            other => panic!("expected OpProfile, got {other:?}"),
        }
        match &events[1].kind {
            EventKind::PoolProfile { region, tasks, .. } => {
                assert_eq!(region, "par");
                assert_eq!(*tasks, 4);
            }
            other => panic!("expected PoolProfile, got {other:?}"),
        }
    }

    #[test]
    fn disabled_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.enabled());
        assert_eq!(tel.node(), None);
        tel.emit(Duration::ZERO, EventKind::ShutdownSent { round: 1 });
        tel.flush();
    }
}
