//! Message fabric abstraction for deployed HADFL clusters.
//!
//! The protocol loops in [`crate::exec`] are written against the
//! [`Port`] trait: one mailbox per participant, addressed by dense
//! participant id. Devices occupy ids `0..k`; the coordinator is id `k`
//! ([`coordinator_id`]). Two fabrics implement it:
//!
//! * [`ChannelTransport`] — in-process `std::sync::mpsc` channels, used by
//!   [`crate::exec::run_threaded`] and the tests;
//! * `hadfl-net`'s `TcpTransport` — real sockets for multi-process
//!   clusters.
//!
//! Both fabrics charge [`Message::encoded_len`] per frame — the TCP
//! fabric for the bytes it writes, the channel fabric for the typed
//! message it queues — so the byte accounting ([`Port::stats`]) is
//! identical across fabrics and comparable with the analytical driver's
//! ledger.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use hadfl_simnet::{DeviceId, Endpoint, NetStats};
use hadfl_telemetry::{EventKind, LamportClock, Telemetry};

use crate::clock::{Clock, WallClock};
use crate::error::HadflError;
use crate::wire::{CausalStamp, Message};

/// The coordinator's participant id in a `k`-device cluster.
pub fn coordinator_id(k: usize) -> usize {
    k
}

/// The [`NetStats`] endpoint for participant `id` of a `k`-device
/// cluster: devices map to themselves, the coordinator to the server.
pub fn endpoint_of(id: usize, k: usize) -> Endpoint {
    if id == coordinator_id(k) {
        Endpoint::Server
    } else {
        Endpoint::Device(DeviceId(id))
    }
}

/// One participant's handle on the cluster's message fabric.
///
/// A `Port` is claimed once per participant and moved into that
/// participant's thread (or owned by its process). Sends are
/// non-blocking; receives deliver whole [`Message`]s in arrival order.
///
/// The port is also where a participant's instrumentation is injected:
/// [`crate::exec::run_device`] and [`crate::exec::run_coordinator`] time
/// themselves on [`clock`](Port::clock) and log to
/// [`telemetry`](Port::telemetry), so the actor's events and the
/// port's frame events share one timeline by construction. A port that
/// wraps another must forward both accessors to keep the inner port's
/// instrumentation; left at their defaults the loop runs on a wall
/// clock of its own with telemetry off.
pub trait Port: Send {
    /// This participant's id.
    fn id(&self) -> usize;

    /// Total number of participants (devices plus coordinator).
    fn participants(&self) -> usize;

    /// Sends `msg` to participant `to` without blocking on delivery.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] when `to` is unknown or the
    /// peer is conclusively unreachable (its mailbox is gone, or every
    /// reconnect attempt was exhausted). An error is a *hint* the peer
    /// is dead; the §III-D handshake remains the authoritative check.
    fn send(&mut self, to: usize, msg: &Message) -> Result<(), HadflError>;

    /// Returns the next pending message, or `None` when the mailbox is
    /// currently empty.
    ///
    /// # Errors
    ///
    /// Returns an error when the fabric is torn down or an inbound frame
    /// fails to decode.
    fn try_recv(&mut self) -> Result<Option<Message>, HadflError>;

    /// Waits up to `timeout` for a message; `None` means the wait timed
    /// out.
    ///
    /// # Errors
    ///
    /// Returns an error when the fabric is torn down or an inbound frame
    /// fails to decode.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, HadflError>;

    /// Snapshot of the payload bytes this port has sent and received,
    /// charged per encoded frame (transport-internal framing such as
    /// the TCP connection's `Hello` is excluded, so channel and TCP
    /// fabrics report the same ledger for the same protocol run).
    fn stats(&self) -> NetStats;

    /// The clock this port stamps its frame events with, and the one
    /// the protocol loop driving it reads and sleeps on. Default: a
    /// fresh [`WallClock`].
    fn clock(&self) -> Arc<dyn Clock> {
        WallClock::shared()
    }

    /// The telemetry handle this port logs its frame events to, and
    /// the one the protocol loop driving it logs to. Default: disabled.
    fn telemetry(&self) -> Telemetry {
        Telemetry::disabled()
    }
}

/// What a mailbox holds: the frame [`wire::seal`](crate::wire::seal)
/// would build, before encoding.
type Stamped = (CausalStamp, Message);

/// In-process fabric: one unbounded `std::sync::mpsc` channel per
/// participant, queueing stamped [`Message`]s as they are — sender and
/// receiver share an address space, so nothing is encoded: a send
/// clones the message (the queue must own what it holds) and a receive
/// moves it out.
///
/// Construct with [`ChannelTransport::hub`], then [`claim`] each
/// participant's [`Port`] and move it into its thread.
///
/// [`claim`]: ChannelTransport::claim
///
/// # Example
///
/// ```
/// use hadfl::transport::{ChannelTransport, Port};
/// use hadfl::wire::Message;
///
/// let mut hub = ChannelTransport::hub(2);
/// let mut a = hub.claim(0).unwrap();
/// let mut b = hub.claim(1).unwrap();
/// a.send(1, &Message::Handshake { from: 0 }).unwrap();
/// assert_eq!(b.try_recv().unwrap(), Some(Message::Handshake { from: 0 }));
/// ```
pub struct ChannelTransport {
    txs: Vec<Sender<Stamped>>,
    rxs: Vec<Option<Receiver<Stamped>>>,
    stats: Arc<Mutex<NetStats>>,
}

impl ChannelTransport {
    /// Creates a fabric with `participants` mailboxes (for a `k`-device
    /// cluster pass `k + 1`; the coordinator is participant `k`).
    pub fn hub(participants: usize) -> Self {
        let mut txs = Vec::with_capacity(participants);
        let mut rxs = Vec::with_capacity(participants);
        for _ in 0..participants {
            let (tx, rx) = channel();
            txs.push(tx);
            rxs.push(Some(rx));
        }
        ChannelTransport {
            txs,
            rxs,
            stats: Arc::new(Mutex::new(NetStats::new())),
        }
    }

    /// Claims participant `id`'s port. Each id can be claimed once.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] for an out-of-range or
    /// already-claimed id.
    pub fn claim(&mut self, id: usize) -> Result<ChannelPort, HadflError> {
        self.claim_instrumented(id, Telemetry::disabled(), None)
    }

    /// [`Self::claim`] with a [`Telemetry`] handle and a clock for
    /// timestamping (`None`: a [`WallClock`] whose epoch is the claim):
    /// the port emits one `FrameSent` per outbound payload frame and
    /// one `FrameReceived` per inbound frame — stamped with the
    /// frame's Lamport value — mirroring the TCP fabric's instrumented
    /// ports, so a fully in-process scripted cluster produces the same
    /// causal trace shape a real deployment does. The port hands both
    /// on through [`Port::clock`] / [`Port::telemetry`].
    ///
    /// # Errors
    ///
    /// As [`Self::claim`].
    pub fn claim_instrumented(
        &mut self,
        id: usize,
        tel: Telemetry,
        clock: Option<Arc<dyn Clock>>,
    ) -> Result<ChannelPort, HadflError> {
        let slot = self
            .rxs
            .get_mut(id)
            .ok_or_else(|| HadflError::InvalidConfig(format!("no participant {id}")))?;
        let rx = slot.take().ok_or_else(|| {
            HadflError::InvalidConfig(format!("participant {id} already claimed"))
        })?;
        Ok(ChannelPort {
            id,
            txs: self.txs.clone(),
            rx,
            stats: Arc::clone(&self.stats),
            lamport: tel.lamport_clock(),
            tel,
            clock: clock.unwrap_or_else(WallClock::shared),
        })
    }

    /// The fabric-wide byte ledger (all ports combined).
    pub fn net_stats(&self) -> NetStats {
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// A participant's handle on a [`ChannelTransport`].
pub struct ChannelPort {
    id: usize,
    txs: Vec<Sender<Stamped>>,
    rx: Receiver<Stamped>,
    stats: Arc<Mutex<NetStats>>,
    /// This participant's Lamport clock: ticked per send, max-merged
    /// on every receive. Shared with the node's [`Telemetry`] handle
    /// when instrumented, so frame stamps and event `lam` fields share
    /// one scale.
    lamport: LamportClock,
    tel: Telemetry,
    clock: Arc<dyn Clock>,
}

impl ChannelPort {
    /// Takes delivery of an inbound frame: merges its stamp into the
    /// local Lamport clock and mirrors it as a `FrameReceived` event
    /// when instrumented.
    fn deliver(&self, (stamp, msg): Stamped) -> Message {
        self.lamport.observe(stamp.lamport);
        if self.tel.enabled() {
            self.tel.emit(
                self.clock.now(),
                EventKind::FrameReceived {
                    src: stamp.origin,
                    dst: self.id as u32,
                    bytes: msg.encoded_len() as u64,
                    kind: msg.kind().to_string(),
                    lamport: stamp.lamport,
                },
            );
        }
        msg
    }
}

impl Port for ChannelPort {
    fn id(&self) -> usize {
        self.id
    }

    fn participants(&self) -> usize {
        self.txs.len()
    }

    fn send(&mut self, to: usize, msg: &Message) -> Result<(), HadflError> {
        let tx = self
            .txs
            .get(to)
            .ok_or_else(|| HadflError::InvalidConfig(format!("no participant {to}")))?;
        let stamp = CausalStamp {
            origin: self.id as u32,
            lamport: self.lamport.tick(),
        };
        // The ledger charges what the message would be on a wire — the
        // stamp is transport overhead, exactly like a socket fabric's
        // length prefix.
        let payload = msg.encoded_len() as u64;
        let k = self.txs.len() - 1;
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record(endpoint_of(self.id, k), endpoint_of(to, k), payload);
        if self.tel.enabled() {
            self.tel.emit(
                self.clock.now(),
                EventKind::FrameSent {
                    src: self.id as u32,
                    dst: to as u32,
                    bytes: payload,
                    kind: msg.kind().to_string(),
                    lamport: stamp.lamport,
                },
            );
        }
        tx.send((stamp, msg.clone()))
            .map_err(|_| HadflError::InvalidConfig(format!("participant {to} is gone")))
    }

    fn try_recv(&mut self) -> Result<Option<Message>, HadflError> {
        match self.rx.try_recv() {
            Ok(frame) => Ok(Some(self.deliver(frame))),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => {
                Err(HadflError::InvalidConfig("fabric torn down".into()))
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, HadflError> {
        match self.rx.recv_timeout(timeout) {
            Ok(frame) => Ok(Some(self.deliver(frame))),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => {
                Err(HadflError::InvalidConfig("fabric torn down".into()))
            }
        }
    }

    fn stats(&self) -> NetStats {
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    fn telemetry(&self) -> Telemetry {
        self.tel.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_routes_between_ports() {
        let mut hub = ChannelTransport::hub(3);
        let mut a = hub.claim(0).unwrap();
        let mut b = hub.claim(1).unwrap();
        let mut c = hub.claim(2).unwrap();
        a.send(1, &Message::Handshake { from: 0 }).unwrap();
        a.send(2, &Message::ReportRequest { round: 3 }).unwrap();
        b.send(2, &Message::Shutdown).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_secs(1)).unwrap(),
            Some(Message::Handshake { from: 0 })
        );
        assert_eq!(
            c.try_recv().unwrap(),
            Some(Message::ReportRequest { round: 3 })
        );
        assert_eq!(c.try_recv().unwrap(), Some(Message::Shutdown));
        assert_eq!(c.try_recv().unwrap(), None);
    }

    #[test]
    fn claims_are_exclusive() {
        let mut hub = ChannelTransport::hub(2);
        assert!(hub.claim(0).is_ok());
        assert!(hub.claim(0).is_err());
        assert!(hub.claim(5).is_err());
    }

    #[test]
    fn stats_charge_encoded_frames() {
        let mut hub = ChannelTransport::hub(3);
        let mut dev = hub.claim(0).unwrap();
        let mut coord = hub.claim(2).unwrap();
        let msg = Message::VersionReport {
            device: 0,
            round: 1,
            version: 4.0,
        };
        dev.send(2, &msg).unwrap();
        coord.send(0, &Message::ReportRequest { round: 1 }).unwrap();
        let stats = hub.net_stats();
        // Participant 2 of a 2-device hub is the coordinator (server).
        assert_eq!(
            stats.sent_by(Endpoint::Device(DeviceId(0))),
            msg.encoded_len() as u64
        );
        assert_eq!(
            stats.server_bytes(),
            (msg.encoded_len() + Message::ReportRequest { round: 1 }.encoded_len()) as u64
        );
        assert_eq!(stats.messages(), 2);
    }

    #[test]
    fn stamps_tick_per_send_and_merge_on_receive() {
        use hadfl_telemetry::RingBufferSink;

        let mut hub = ChannelTransport::hub(3);
        let a_buf = RingBufferSink::new(16);
        let b_buf = RingBufferSink::new(16);
        let a_tel = Telemetry::new(0, vec![Box::new(a_buf.clone())]);
        let b_tel = Telemetry::new(1, vec![Box::new(b_buf.clone())]);
        let mut a = hub.claim_instrumented(0, a_tel, None).unwrap();
        let mut b = hub.claim_instrumented(1, b_tel.clone(), None).unwrap();

        // Claimed without a clock, a port still keeps exactly one: a
        // wall clock whose epoch is the claim. Let it leave zero.
        std::thread::sleep(Duration::from_millis(2));
        a.send(1, &Message::Handshake { from: 0 }).unwrap();
        a.send(1, &Message::HandshakeAck { from: 0 }).unwrap();
        assert!(b.try_recv().unwrap().is_some());
        assert!(b.try_recv().unwrap().is_some());
        for buf in [&a_buf, &b_buf] {
            let stamps: Vec<u64> = buf.snapshot().iter().map(|e| e.t_us).collect();
            assert_eq!(stamps.len(), 2);
            assert!(stamps[0] > 0, "frame events carry real time: {stamps:?}");
            assert!(stamps[0] <= stamps[1], "and never run backwards");
        }

        let sent: Vec<u64> = a_buf
            .snapshot()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::FrameSent { lamport, .. } => Some(*lamport),
                _ => None,
            })
            .collect();
        assert_eq!(sent, vec![1, 2], "stamps tick per send");
        let received: Vec<u64> = b_buf
            .snapshot()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::FrameReceived { lamport, .. } => Some(*lamport),
                _ => None,
            })
            .collect();
        assert_eq!(
            received,
            vec![1, 2],
            "receive events carry the sender's stamp"
        );
        // The receiver's clock merged past the highest inbound stamp,
        // so anything it emits from here on sorts after the sends.
        assert!(b_tel.lamport_clock().current() > 2);
        // And receive events themselves were stamped above the frame.
        for event in b_buf.snapshot() {
            if let EventKind::FrameReceived { lamport, .. } = &event.kind {
                assert!(event.lam > *lamport);
            }
        }
    }

    #[test]
    fn recv_timeout_times_out_cleanly() {
        let mut hub = ChannelTransport::hub(2);
        let mut a = hub.claim(0).unwrap();
        assert_eq!(a.recv_timeout(Duration::from_millis(10)).unwrap(), None);
    }
}
