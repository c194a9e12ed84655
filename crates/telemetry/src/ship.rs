//! Live telemetry shipping: a bounded, non-blocking queue between the
//! emitting protocol threads and one background shipper thread.
//!
//! [`ShipSink`] is a [`Sink`] whose `record` never blocks and never
//! performs I/O (the `blocking-in-emit` lint rule pins this): events
//! are classified and offered to a [`ShipQueue`], and a dedicated
//! shipper thread drains the queue, assembles [`ShipBatch`]es, and
//! hands them to a [`BatchShipper`] — the transport-specific half
//! (`hadfl-net`'s `TcpShipper` seals batches like any other frame, so
//! Lamport stamps ride along).
//!
//! # Backpressure and the never-drop classes
//!
//! The queue is bounded for *droppable* events only. Under pressure it
//! degrades in two stages rather than falling off a cliff:
//!
//! - above `sample_watermark` (half the capacity), droppable events
//!   are sampled 1-in-`sample_every`;
//! - at full capacity, droppable events are dropped outright.
//!
//! Counters (`LocalSteps`, `FrameSent`, `FrameReceived`), `Ledger`
//! entries, and the round-plan/bypass control events are **never**
//! dropped — they bypass the bound entirely, because the collector's
//! health rules and byte-parity checks are only sound over a complete
//! stream of them. Span and lifecycle events are the droppable class:
//! they are high-rate, and a thinned Gantt chart is still a Gantt
//! chart. Every batch carries an explicit `dropped` count so thinning
//! is visible, never silent.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::event::{Event, EventKind};
use crate::sink::Sink;

/// One assembled batch handed to a [`BatchShipper`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShipBatch {
    /// The shipping participant (the node that owns the sink).
    pub node: u32,
    /// Droppable-class events thinned since the previous batch.
    pub dropped: u32,
    /// The surviving events, in emission order.
    pub events: Vec<Event>,
}

impl ShipBatch {
    /// Serializes the batch's events to the JSONL wire payload (one
    /// event per line, same schema as the JSONL sink), which
    /// [`crate::analyze::parse_jsonl`] reads back. Events that fail to
    /// serialize are skipped — the schema forbids them and the emitter
    /// is the bug, not the wire.
    pub fn to_jsonl(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.events.len() * 96);
        for event in &self.events {
            if let Ok(line) = event.to_json() {
                out.extend_from_slice(line.as_bytes());
                out.push(b'\n');
            }
        }
        out
    }
}

/// The transport half of shipping: ships one batch at a time from the
/// shipper thread (blocking I/O is fine *here* — this is exactly the
/// thread the bounded queue exists to protect the emitters from).
pub trait BatchShipper: Send {
    /// Ships one batch. Errors are returned, counted by the sink, and
    /// otherwise swallowed: telemetry must never take the run down.
    fn ship(&mut self, batch: &ShipBatch) -> Result<(), String>;

    /// Flushes any transport buffering (end of run).
    fn flush(&mut self) {}
}

/// In-memory shipper for tests and the simnet adapter: batches pile up
/// in a shared vector. Clones share the store.
#[derive(Debug, Clone, Default)]
pub struct VecShipper {
    batches: Arc<Mutex<Vec<ShipBatch>>>,
}

impl VecShipper {
    /// An empty shared store.
    pub fn new() -> Self {
        VecShipper::default()
    }

    /// Copies out everything shipped so far.
    pub fn batches(&self) -> Vec<ShipBatch> {
        self.batches
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl BatchShipper for VecShipper {
    fn ship(&mut self, batch: &ShipBatch) -> Result<(), String> {
        self.batches
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(batch.clone());
        Ok(())
    }
}

/// Tuning knobs of a [`ShipSink`].
#[derive(Debug, Clone)]
pub struct ShipOptions {
    /// Bound on *droppable* queued events. Critical-class events are
    /// exempt (they must arrive; they are low-rate by construction).
    pub capacity: usize,
    /// Keep 1 in `sample_every` droppable events while the queue sits
    /// between the watermark and the cap (min 1 = no thinning).
    pub sample_every: u64,
    /// Ship a partial batch after this long without traffic.
    pub batch_interval: Duration,
    /// Ship a batch once it holds this many events.
    pub batch_max_events: usize,
}

impl Default for ShipOptions {
    fn default() -> Self {
        ShipOptions {
            capacity: 8192,
            sample_every: 8,
            batch_interval: Duration::from_millis(200),
            batch_max_events: 512,
        }
    }
}

/// Whether an event may never be dropped by the shipping layer.
///
/// Counters and ledger entries feed exact byte/step parity checks;
/// round-plan, prediction, and bypass/repair events feed the
/// collector's health rules. Sampling any of them would turn a
/// thinned stream into a *lying* stream. Spans and device lifecycle
/// events are rate-proportional rendering data — safe to thin.
pub fn is_critical(kind: &EventKind) -> bool {
    !matches!(
        kind,
        EventKind::SpanStart { .. }
            | EventKind::SpanEnd { .. }
            | EventKind::DeviceStarted { .. }
            | EventKind::DeviceFinished { .. }
    )
}

/// The producer half of the shipping queue: classification, the
/// two-stage backpressure gate, and drop accounting. Pure with respect
/// to time and I/O, so the proptests can drive it deterministically
/// with a scripted drain pattern.
pub struct ShipQueue {
    tx: Sender<Event>,
    /// Droppable events currently queued (incremented on enqueue,
    /// decremented by the consumer on dequeue).
    depth: Arc<AtomicUsize>,
    /// Droppable events thinned since the last batch was sealed.
    dropped: Arc<AtomicU32>,
    /// Total droppable events thinned over the sink's lifetime.
    dropped_total: Arc<AtomicU64>,
    /// Deterministic 1-in-N sampling counter.
    sample_seq: AtomicU64,
    opts: ShipOptions,
}

/// The consumer half: receives events and maintains the depth counter.
pub struct ShipQueueConsumer {
    rx: Receiver<Event>,
    depth: Arc<AtomicUsize>,
}

impl ShipQueueConsumer {
    /// Blocks up to `timeout` for the next event.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Event, RecvTimeoutError> {
        let event = self.rx.recv_timeout(timeout)?;
        self.note_dequeued(&event);
        Ok(event)
    }

    /// Non-blocking receive (test and flush drains).
    pub fn try_recv(&self) -> Option<Event> {
        let event = self.rx.try_recv().ok()?;
        self.note_dequeued(&event);
        Some(event)
    }

    fn note_dequeued(&self, event: &Event) {
        if !is_critical(&event.kind) {
            self.depth.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl ShipQueue {
    /// A fresh queue and its consumer.
    pub fn new(opts: ShipOptions) -> (ShipQueue, ShipQueueConsumer) {
        let (tx, rx) = channel();
        let depth = Arc::new(AtomicUsize::new(0));
        let queue = ShipQueue {
            tx,
            depth: Arc::clone(&depth),
            dropped: Arc::new(AtomicU32::new(0)),
            dropped_total: Arc::new(AtomicU64::new(0)),
            sample_seq: AtomicU64::new(0),
            opts,
        };
        (queue, ShipQueueConsumer { rx, depth })
    }

    /// Offers one event. Critical events always enqueue; droppable
    /// events pass the two-stage gate. Returns whether the event was
    /// enqueued. Never blocks and never touches I/O: the unbounded
    /// `std::sync::mpsc` send is a lock-free list push, and takes the
    /// channel's internal waker lock only to wake a shipper parked in
    /// [`ShipQueueConsumer::recv_timeout`].
    pub fn offer(&self, event: &Event) -> bool {
        if is_critical(&event.kind) {
            return self.tx.send(event.clone()).is_ok();
        }
        let depth = self.depth.load(Ordering::SeqCst);
        let cap = self.opts.capacity.max(1);
        let thinned = if depth >= cap {
            true
        } else if depth >= cap / 2 {
            // Deterministic 1-in-N: the counter advances only while
            // the gate is active, so the kept/thinned pattern depends
            // on queue pressure, not on wall time.
            let seq = self.sample_seq.fetch_add(1, Ordering::SeqCst);
            !seq.is_multiple_of(self.opts.sample_every.max(1))
        } else {
            false
        };
        if thinned {
            self.dropped.fetch_add(1, Ordering::SeqCst);
            self.dropped_total.fetch_add(1, Ordering::SeqCst);
            return false;
        }
        self.depth.fetch_add(1, Ordering::SeqCst);
        if self.tx.send(event.clone()).is_err() {
            self.depth.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        true
    }

    /// Takes the drop count accumulated since the last call — the
    /// `dropped` field of the batch being sealed.
    pub fn take_dropped(&self) -> u32 {
        self.dropped.swap(0, Ordering::SeqCst)
    }

    /// Droppable events currently queued.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    /// Shared lifetime drop counter (survives the queue, for stats
    /// handles).
    fn dropped_total_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.dropped_total)
    }
}

/// Read-only counters of a running [`ShipSink`].
#[derive(Debug, Clone)]
pub struct ShipStats {
    shipped_events: Arc<AtomicU64>,
    shipped_batches: Arc<AtomicU64>,
    failed_batches: Arc<AtomicU64>,
    dropped_total: Arc<AtomicU64>,
}

impl ShipStats {
    /// Events successfully handed to the transport.
    pub fn shipped_events(&self) -> u64 {
        self.shipped_events.load(Ordering::SeqCst)
    }

    /// Batches successfully handed to the transport.
    pub fn shipped_batches(&self) -> u64 {
        self.shipped_batches.load(Ordering::SeqCst)
    }

    /// Batches the transport reported as failed.
    pub fn failed_batches(&self) -> u64 {
        self.failed_batches.load(Ordering::SeqCst)
    }

    /// Droppable events thinned over the sink's lifetime.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_total.load(Ordering::SeqCst)
    }
}

/// A [`Sink`] that ships events to a collector via a background
/// thread. See the module docs for the backpressure contract.
pub struct ShipSink {
    queue: Arc<ShipQueue>,
    stats: ShipStats,
    /// Bumped by `flush`; the shipper acknowledges by catching
    /// `flush_acked` up. The handshake runs over the same channel the
    /// events do, so an ack means every prior event was shipped.
    flush_requested: Arc<AtomicU64>,
    flush_acked: Arc<AtomicU64>,
    /// Set by `Drop`; the worker drains, ships, and exits. Needed
    /// because the worker holds its own `Arc<ShipQueue>` (for drop
    /// counters), so the channel never reports disconnection.
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ShipSink {
    /// Spawns the shipper thread for `node`, draining into `shipper`.
    pub fn new(node: u32, opts: ShipOptions, shipper: Box<dyn BatchShipper>) -> Self {
        let (queue, consumer) = ShipQueue::new(opts.clone());
        let queue = Arc::new(queue);
        let stats = ShipStats {
            shipped_events: Arc::new(AtomicU64::new(0)),
            shipped_batches: Arc::new(AtomicU64::new(0)),
            failed_batches: Arc::new(AtomicU64::new(0)),
            dropped_total: queue.dropped_total_handle(),
        };
        let flush_requested = Arc::new(AtomicU64::new(0));
        let flush_acked = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let worker = ShipWorker {
            node,
            opts,
            queue: Arc::clone(&queue),
            consumer,
            shipper,
            stats: stats.clone(),
            flush_requested: Arc::clone(&flush_requested),
            flush_acked: Arc::clone(&flush_acked),
            stop: Arc::clone(&stop),
        };
        let handle = std::thread::Builder::new()
            .name(format!("hadfl-ship-{node}"))
            .spawn(move || worker.run())
            .ok();
        ShipSink {
            queue,
            stats,
            flush_requested,
            flush_acked,
            stop,
            handle,
        }
    }

    /// Counter handles that outlive the sink.
    pub fn stats(&self) -> ShipStats {
        self.stats.clone()
    }
}

impl Sink for ShipSink {
    fn record(&mut self, event: &Event) {
        // Hot path: classification + atomics + a channel send. No
        // locks, no I/O — the shipper thread does the blocking work.
        self.queue.offer(event);
    }

    fn flush(&mut self) {
        // Not the emit hot path: flush may wait. Handshake with the
        // shipper thread so every queued event is on the wire (or
        // counted as failed) before this returns.
        let epoch = self.flush_requested.fetch_add(1, Ordering::SeqCst) + 1;
        let deadline = 400; // x 5 ms = 2 s bound
        for _ in 0..deadline {
            if self.flush_acked.load(Ordering::SeqCst) >= epoch {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for ShipSink {
    fn drop(&mut self) {
        // One final flush epoch so queued events go on the wire, then
        // tell the worker to exit and wait for it. The join is bounded
        // in practice by `batch_interval`: the worker re-checks the
        // stop flag every recv timeout.
        self.flush_requested.fetch_add(1, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

struct ShipWorker {
    node: u32,
    opts: ShipOptions,
    queue: Arc<ShipQueue>,
    consumer: ShipQueueConsumer,
    shipper: Box<dyn BatchShipper>,
    stats: ShipStats,
    flush_requested: Arc<AtomicU64>,
    flush_acked: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
}

impl ShipWorker {
    fn run(mut self) {
        let mut buf: Vec<Event> = Vec::with_capacity(self.opts.batch_max_events);
        loop {
            let disconnected = match self.consumer.recv_timeout(self.opts.batch_interval) {
                Ok(event) => {
                    buf.push(event);
                    false
                }
                Err(RecvTimeoutError::Timeout) => false,
                Err(RecvTimeoutError::Disconnected) => true,
            };
            let disconnected = disconnected || self.stop.load(Ordering::SeqCst);
            let flush_wanted = self.flush_requested.load(Ordering::SeqCst)
                > self.flush_acked.load(Ordering::SeqCst);
            if flush_wanted || disconnected {
                // Drain everything already enqueued before sealing.
                while let Some(event) = self.consumer.try_recv() {
                    buf.push(event);
                    if buf.len() >= self.opts.batch_max_events {
                        self.seal_and_ship(&mut buf);
                    }
                }
            }
            if buf.len() >= self.opts.batch_max_events
                || (!buf.is_empty() && (flush_wanted || disconnected))
            {
                self.seal_and_ship(&mut buf);
            }
            if flush_wanted || disconnected {
                // Ship a drop-only batch if thinning happened with no
                // surviving events to carry the count.
                let dropped = self.queue.take_dropped();
                if dropped > 0 {
                    let batch = ShipBatch {
                        node: self.node,
                        dropped,
                        events: Vec::new(),
                    };
                    self.ship(&batch);
                }
                self.shipper.flush();
                self.flush_acked.store(
                    self.flush_requested.load(Ordering::SeqCst),
                    Ordering::SeqCst,
                );
            }
            if disconnected {
                return;
            }
        }
    }

    fn seal_and_ship(&mut self, buf: &mut Vec<Event>) {
        let batch = ShipBatch {
            node: self.node,
            dropped: self.queue.take_dropped(),
            events: std::mem::take(buf),
        };
        self.ship(&batch);
    }

    fn ship(&mut self, batch: &ShipBatch) {
        match self.shipper.ship(batch) {
            Ok(()) => {
                self.stats
                    .shipped_events
                    .fetch_add(batch.events.len() as u64, Ordering::SeqCst);
                self.stats.shipped_batches.fetch_add(1, Ordering::SeqCst);
            }
            Err(_) => {
                self.stats.failed_batches.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SCHEMA_VERSION;

    fn event(seq: u64, kind: EventKind) -> Event {
        Event {
            v: SCHEMA_VERSION,
            seq,
            node: 1,
            t_us: seq * 100,
            lam: seq,
            kind,
        }
    }

    fn span(seq: u64) -> Event {
        event(
            seq,
            EventKind::SpanStart {
                span: seq,
                parent: 0,
                name: "train".into(),
                round: 1,
                device: 1,
            },
        )
    }

    fn ledger(seq: u64) -> Event {
        event(
            seq,
            EventKind::Ledger {
                sent_bytes: seq,
                recv_bytes: seq,
                frames: 1,
            },
        )
    }

    #[test]
    fn critical_events_bypass_a_full_queue() {
        let (queue, _consumer) = ShipQueue::new(ShipOptions {
            capacity: 2,
            sample_every: 1,
            ..ShipOptions::default()
        });
        // Fill the droppable bound without draining.
        assert!(queue.offer(&span(0)));
        assert!(queue.offer(&span(1)));
        assert!(!queue.offer(&span(2)), "over capacity: thinned");
        assert_eq!(queue.depth(), 2);
        // Ledger entries keep landing regardless.
        for seq in 10..20 {
            assert!(queue.offer(&ledger(seq)));
        }
        assert_eq!(queue.take_dropped(), 1);
        assert_eq!(queue.take_dropped(), 0, "take_dropped drains the count");
    }

    #[test]
    fn sampling_kicks_in_at_the_watermark() {
        let (queue, _consumer) = ShipQueue::new(ShipOptions {
            capacity: 8,
            sample_every: 4,
            ..ShipOptions::default()
        });
        let mut kept = 0;
        for seq in 0..8 {
            // Depth crosses the watermark (4) mid-way; beyond it only
            // 1 in 4 survives.
            if queue.offer(&span(seq)) {
                kept += 1;
            }
        }
        assert!(kept < 8, "some events must be thinned past the watermark");
        assert_eq!(queue.take_dropped() as usize + kept, 8, "no silent loss");
    }

    #[test]
    fn ship_sink_delivers_batches_with_flush() {
        let shipper = VecShipper::new();
        let mut sink = ShipSink::new(
            7,
            ShipOptions {
                batch_interval: Duration::from_millis(10),
                ..ShipOptions::default()
            },
            Box::new(shipper.clone()),
        );
        for seq in 0..20 {
            sink.record(&ledger(seq));
        }
        sink.flush();
        let batches = shipper.batches();
        let total: usize = batches.iter().map(|b| b.events.len()).sum();
        assert_eq!(total, 20, "flush must deliver everything queued");
        assert!(batches.iter().all(|b| b.node == 7));
        assert_eq!(sink.stats().shipped_events(), 20);
        assert_eq!(sink.stats().dropped_total(), 0);
    }

    #[test]
    fn jsonl_payload_roundtrips() {
        let batch = ShipBatch {
            node: 3,
            dropped: 2,
            events: vec![ledger(0), span(1)],
        };
        let payload = batch.to_jsonl();
        let log = crate::analyze::parse_jsonl(std::str::from_utf8(&payload).unwrap());
        assert_eq!(log.garbage_lines, 0);
        assert_eq!(log.events, batch.events);
    }
}
