//! Event sinks: where emitted [`Event`]s go.
//!
//! A [`Telemetry`](crate::Telemetry) handle fans every event out to its
//! sinks under one short lock. Sinks must therefore be cheap and never
//! block on protocol state; the JSONL sink buffers through
//! `BufWriter`, the ring buffer drops its oldest entry when full, and
//! the metrics sink (in [`crate::metrics`]) just bumps counters.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

use crate::event::Event;

/// A destination for emitted events.
pub trait Sink: Send {
    /// Consumes one event. Must not panic and must not block for long:
    /// this runs inside the emitting protocol thread.
    fn record(&mut self, event: &Event);

    /// Flushes buffered output (called on [`crate::Telemetry::flush`]).
    fn flush(&mut self) {}
}

/// Bounded in-memory sink for tests: keeps the most recent `capacity`
/// events. Clones share the same buffer, so a test can keep one clone
/// and hand the other to a [`Telemetry`](crate::Telemetry) handle.
#[derive(Debug, Clone)]
pub struct RingBufferSink {
    buf: Arc<Mutex<VecDeque<Event>>>,
    capacity: usize,
    dropped: Arc<Mutex<u64>>,
}

impl RingBufferSink {
    /// Creates a buffer holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            buf: Arc::new(Mutex::new(VecDeque::new())),
            capacity: capacity.max(1),
            dropped: Arc::new(Mutex::new(0)),
        }
    }

    /// Copies out the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.buf
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// Events evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        *self.dropped.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_empty()
    }
}

impl Sink for RingBufferSink {
    fn record(&mut self, event: &Event) {
        // lint:allow(blocking-in-emit): in-memory ring shared only with snapshot readers; uncontended, no I/O under the guard
        let mut buf = self.buf.lock().unwrap_or_else(PoisonError::into_inner);
        if buf.len() == self.capacity {
            buf.pop_front();
            // lint:allow(blocking-in-emit): same in-memory ring bookkeeping
            *self.dropped.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        }
        buf.push_back(event.clone());
    }
}

/// JSONL sink: one schema-versioned JSON object per line. Write errors
/// are remembered, not raised — telemetry must never take the protocol
/// down with it.
pub struct JsonlSink<W: Write + Send> {
    out: W,
    lines: u64,
    failed: bool,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncates) the file at `path` behind a `BufWriter`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps any writer (e.g. a `Vec<u8>` in tests).
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            lines: 0,
            failed: false,
        }
    }

    /// Lines successfully serialized so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// True if any write or serialization failed.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Consumes the sink and returns the writer (flushing is the
    /// caller's business from here).
    pub fn into_inner(self) -> W {
        self.out
    }
}

/// An `Arc`-shared in-memory writer: keep one clone, hand the other to
/// a [`JsonlSink`], and read the captured bytes back after the run.
/// Test/bench helper — a real deployment writes to a file.
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl SharedBuffer {
    /// An empty shared buffer.
    pub fn new() -> Self {
        SharedBuffer::default()
    }

    /// Copies out everything written so far.
    pub fn contents(&self) -> Vec<u8> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn record(&mut self, event: &Event) {
        match event.to_json() {
            Ok(line) => {
                if writeln!(self.out, "{line}").is_ok() {
                    self.lines += 1;
                } else {
                    self.failed = true;
                }
            }
            Err(_) => self.failed = true,
        }
    }

    fn flush(&mut self) {
        if self.out.flush().is_err() {
            self.failed = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, SCHEMA_VERSION};

    fn event(seq: u64) -> Event {
        Event {
            v: SCHEMA_VERSION,
            seq,
            node: 0,
            t_us: seq * 10,
            lam: 0,
            kind: EventKind::DeviceStarted { device: 0 },
        }
    }

    #[test]
    fn ring_buffer_keeps_newest() {
        let mut sink = RingBufferSink::new(3);
        for seq in 0..5 {
            sink.record(&event(seq));
        }
        let seqs: Vec<u64> = sink.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(sink.dropped(), 2);
        assert_eq!(sink.len(), 3);
    }

    #[test]
    fn clones_share_the_buffer() {
        let sink = RingBufferSink::new(8);
        let mut writer = sink.clone();
        writer.record(&event(0));
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        for seq in 0..3 {
            sink.record(&event(seq));
        }
        sink.flush();
        assert!(!sink.failed());
        assert_eq!(sink.lines(), 3);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            Event::from_json(line).unwrap();
        }
    }
}
