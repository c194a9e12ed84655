//! TCP transport for the telemetry shipping queue.
//!
//! [`TcpShipper`] is the [`BatchShipper`] the `ShipSink`'s background
//! thread drains into: each batch becomes one
//! [`Message::TelemetryBatch`] sealed with the node's own Lamport
//! clock ([`hadfl::wire::seal`]), so collector-side merges put telemetry
//! frames on the same causal scale as every protocol frame. Framing is
//! the transport's usual 4-byte LE length prefix.
//!
//! Telemetry bytes are ledgered by the shipper's own counter
//! ([`TcpShipper::ledger`]), never by `NetStats` and never as
//! `FrameSent` events: the paper's `2·K·M` accounting must see only
//! protocol traffic, and a telemetry `FrameSent` event describing a
//! telemetry frame would feed the queue it reports on.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hadfl::wire::{CausalStamp, Message};
use hadfl_telemetry::ship::{BatchShipper, ShipBatch};
use hadfl_telemetry::LamportClock;

use crate::frame::{seal_frame, write_frame};

/// Shared read handle onto a shipper's byte ledger.
#[derive(Debug, Clone, Default)]
pub struct ShipLedger {
    payload_bytes: Arc<AtomicU64>,
    frames: Arc<AtomicU64>,
}

impl ShipLedger {
    /// Telemetry payload bytes put on the wire (message encoding,
    /// excluding the causal stamp and length prefix — the same
    /// accounting `NetStats` uses for param frames, so the two ledgers
    /// are directly comparable).
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes.load(Ordering::SeqCst)
    }

    /// Telemetry frames shipped.
    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::SeqCst)
    }
}

/// Ships telemetry batches to a collector over one lazy TCP
/// connection, redialing (bounded) when the collector restarts.
pub struct TcpShipper {
    addr: String,
    node: u32,
    lamport: LamportClock,
    stream: Option<TcpStream>,
    connect_timeout: Duration,
    write_timeout: Duration,
    ledger: ShipLedger,
}

impl TcpShipper {
    /// A shipper for participant `node` targeting `addr`. `lamport`
    /// must be the node's own telemetry clock
    /// (`Telemetry::lamport_clock`) so batch stamps interleave
    /// correctly with protocol frames.
    pub fn new(addr: &str, node: u32, lamport: LamportClock) -> Self {
        TcpShipper {
            addr: addr.to_string(),
            node,
            lamport,
            stream: None,
            connect_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            ledger: ShipLedger::default(),
        }
    }

    /// The byte ledger (shareable before the sink takes ownership).
    pub fn ledger(&self) -> ShipLedger {
        self.ledger.clone()
    }

    fn connect(&mut self) -> Result<(), String> {
        if self.stream.is_some() {
            return Ok(());
        }
        let addrs: Vec<_> = std::net::ToSocketAddrs::to_socket_addrs(self.addr.as_str())
            .map_err(|e| format!("resolve {}: {e}", self.addr))?
            .collect();
        let first = addrs
            .first()
            .ok_or_else(|| format!("resolve {}: no addresses", self.addr))?;
        let stream = TcpStream::connect_timeout(first, self.connect_timeout)
            .map_err(|e| format!("connect {}: {e}", self.addr))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(self.write_timeout));
        self.stream = Some(stream);
        Ok(())
    }

    fn write_once(&mut self, head: &[u8], body: &[u8]) -> Result<(), String> {
        self.connect()?;
        let Some(stream) = self.stream.as_mut() else {
            return Err("no connection".into());
        };
        if let Err(e) = write_frame(stream, head, body) {
            self.stream = None;
            return Err(format!("write {}: {e}", self.addr));
        }
        Ok(())
    }
}

impl BatchShipper for TcpShipper {
    fn ship(&mut self, batch: &ShipBatch) -> Result<(), String> {
        let msg = Message::TelemetryBatch {
            node: batch.node,
            dropped: batch.dropped,
            payload: batch.to_jsonl(),
        };
        let stamp = CausalStamp {
            origin: self.node,
            lamport: self.lamport.tick(),
        };
        let (head, body) = seal_frame(stamp, &msg);
        // One retry across a fresh connection: the collector may have
        // restarted between batches.
        let result = self
            .write_once(&head, body)
            .or_else(|_| self.write_once(&head, body));
        if result.is_ok() {
            self.ledger
                .payload_bytes
                .fetch_add(msg.encoded_len() as u64, Ordering::SeqCst);
            self.ledger.frames.fetch_add(1, Ordering::SeqCst);
        }
        result
    }

    fn flush(&mut self) {
        if let Some(stream) = self.stream.as_mut() {
            let _ = stream.flush();
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    use hadfl::wire;

    use hadfl_telemetry::{Event, EventKind, SCHEMA_VERSION};

    #[test]
    fn ships_sealed_telemetry_batches_over_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut len = [0u8; 4];
            stream.read_exact(&mut len).unwrap();
            let mut frame = vec![0u8; u32::from_le_bytes(len) as usize];
            stream.read_exact(&mut frame).unwrap();
            frame
        });

        let clock = LamportClock::new();
        clock.tick(); // simulate earlier protocol traffic
        let mut shipper = TcpShipper::new(&addr.to_string(), 3, clock.clone());
        let ledger = shipper.ledger();
        let batch = ShipBatch {
            node: 3,
            dropped: 5,
            events: vec![Event {
                v: SCHEMA_VERSION,
                seq: 0,
                node: 3,
                t_us: 42,
                lam: 1,
                kind: EventKind::Ledger {
                    sent_bytes: 10,
                    recv_bytes: 20,
                    frames: 2,
                },
            }],
        };
        shipper.ship(&batch).unwrap();

        let frame = server.join().unwrap();
        let (stamp, msg) = wire::open(&frame).unwrap();
        assert_eq!(stamp.origin, 3);
        assert_eq!(stamp.lamport, 2, "stamp is the clock's next tick");
        let Message::TelemetryBatch {
            node,
            dropped,
            payload,
        } = msg
        else {
            panic!("wrong message kind");
        };
        assert_eq!(node, 3);
        assert_eq!(dropped, 5);
        let log = hadfl_telemetry::analyze::parse_jsonl(std::str::from_utf8(&payload).unwrap());
        assert_eq!(log.garbage_lines, 0);
        assert_eq!(log.events, batch.events);
        assert_eq!(
            ledger.payload_bytes(),
            (frame.len() - wire::STAMP_LEN) as u64
        );
        assert_eq!(ledger.frames(), 1);
    }

    #[test]
    fn unreachable_collector_is_an_error_not_a_panic() {
        // A port that nothing listens on: both attempts fail cleanly.
        let mut shipper = TcpShipper::new("127.0.0.1:1", 0, LamportClock::new());
        let batch = ShipBatch {
            node: 0,
            dropped: 0,
            events: vec![],
        };
        assert!(shipper.ship(&batch).is_err());
        assert_eq!(shipper.ledger().frames(), 0);
    }
}
