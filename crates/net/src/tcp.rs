//! TCP implementation of [`hadfl::transport::Port`].
//!
//! Frames are the untouched [`Message`] wire encoding behind a 4-byte
//! little-endian length prefix. A parameter frame is never assembled in
//! user space: the sender hands the kernel prefix, head and the payload
//! straight from the message's `Vec<f32>` in one vectored write, and the
//! reader receives it straight into the vector the delivered message
//! owns (`frame.rs`, shared with the collector). That vector was
//! allocated by the thread that consumes the port's frames: each
//! `try_recv`/`recv_timeout` that delivers a parameter frame leaves a
//! buffer for the next one in the port's receive slot, and a reader
//! takes it once the frame's head has checked out — so the allocator
//! never hands a frame from a reader thread's arena to the consumer's.
//!
//! Each pair of participants uses one lazily-dialed connection per
//! direction: the sender dials on first send, identifies itself with
//! [`Message::Hello`], and keeps the socket for the rest of the run.
//!
//! The accepting side blocks in `accept` on a blocking listener
//! ([`hadfl_telemetry::accept_until`]) and spawns one reader per inbound
//! connection. With std alone there is no readiness API, so a
//! nonblocking listener would be a sleep-poll whose period lands on the
//! first frame of every new connection. Dropping the port wakes the
//! accept with one connection to the port's own address and joins the
//! thread ([`hadfl_telemetry::stop_accept`]): the listener is closed
//! when `drop` returns, so a peer dialing a departed node is refused at
//! once instead of being accepted by a listener that lingers.
//!
//! A dial that times out or fails otherwise is retried with bounded
//! exponential backoff, and so is a refused dial while the port has
//! heard nothing: that is bring-up, and it is what lets nodes start in
//! any order. Once any peer has dialed in (its `Hello` arrived), a
//! refusal ends the dial at once. The cluster is up by then, and a
//! refused address is a peer that exited, which no backoff brings back;
//! retrying would only hold the protocol thread through the whole
//! schedule (775 ms at the defaults). Bring-up sends fall before the
//! switch: a device sends only in answer to a frame, and the
//! coordinator's first fan-out goes out before any device has spoken —
//! though a device that answers within that fan-out flips the switch
//! for the rest of it, so devices must be listening by the end of the
//! first report window.
//!
//! The transport keeps no liveness view of its own: an idle connection
//! carries no bytes, and a dead peer is found by the protocol's §III-D
//! timeout and handshake.
//!
//! Byte accounting matches [`hadfl::transport::ChannelTransport`]:
//! [`Port::stats`] charges exactly the encoded payload of protocol
//! messages, while [`TcpPort::raw_bytes`] additionally counts length
//! prefixes, stamps and hellos — the transport's own overhead.

// Transport hot path: a panic here kills a reader or the accept thread
// silently and wedges the node. Any remaining unwrap must carry an
// `#[allow]` with its invariant spelled out.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use hadfl::clock::{Clock, WallClock};
use hadfl::transport::{endpoint_of, Port};
use hadfl::wire::{self, CausalStamp, Message};
use hadfl::HadflError;
use hadfl_simnet::NetStats;
use hadfl_telemetry::{accept_until, stop_accept, EventKind, LamportClock, Telemetry};
use parking_lot::Mutex;

use crate::cluster::ClusterConfig;
use crate::frame::{read_frame, seal_frame, write_frame, RecvSlot};

/// Socket-level knobs of a [`TcpPort`].
#[derive(Debug, Clone)]
pub struct TcpOptions {
    /// Per-attempt dial timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout; also the granularity at which reader
    /// threads notice shutdown.
    pub read_timeout: Duration,
    /// Socket write timeout, set on every dialed connection. A peer
    /// whose TCP connection is alive but which stopped reading would
    /// otherwise block a frame's write forever once the socket buffer
    /// fills; with the timeout the send fails and the §III-D machinery
    /// takes over.
    pub write_timeout: Duration,
    /// Dial attempts per send before the peer is declared unreachable.
    /// The budget covers bring-up (refusals before the port has heard
    /// from anyone) and timeouts or other errors; a refusal after the
    /// cluster has spoken ends the dial at once (see the module docs).
    pub max_dial_attempts: u32,
    /// First reconnect backoff; doubles per attempt. Slept only between
    /// the attempts [`Self::max_dial_attempts`] governs.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Frames longer than this are rejected before allocation — a
    /// corrupt or hostile length prefix must not OOM the node.
    pub max_frame_bytes: u32,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_secs(5),
            max_dial_attempts: 6,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(2),
            max_frame_bytes: 256 << 20,
        }
    }
}

/// State shared between the port and its accept and reader threads.
struct Shared {
    me: usize,
    devices: usize,
    inbound_tx: Sender<Message>,
    stats: Mutex<NetStats>,
    raw_bytes: AtomicU64,
    /// Set by the first `Hello` any reader receives: past bring-up, a
    /// refused dial is a departed peer.
    heard_from_cluster: AtomicBool,
    shutdown: AtomicBool,
    clock: Arc<dyn Clock>,
    opts: TcpOptions,
    /// Emits one `FrameSent`/`FrameReceived` per `stats` ledger entry;
    /// disabled by default, enabled via the `*_instrumented`
    /// constructors.
    tel: Telemetry,
    /// The node's Lamport clock: ticked on every outbound frame
    /// (payloads and hellos) and max-merged on every inbound
    /// stamp. Shared with `tel` when instrumented so frame stamps and
    /// event `lam` fields share one scale.
    lamport: LamportClock,
    /// The next parameter frame's buffer, allocated by the thread that
    /// receives from the port.
    recv_slot: RecvSlot,
}

impl Shared {
    /// A fresh tick of this node's Lamport clock, as the stamp of the
    /// next outbound frame.
    fn stamp(&self) -> CausalStamp {
        CausalStamp {
            origin: self.me as u32,
            lamport: self.lamport.tick(),
        }
    }
}

/// A participant's listener, bound ahead of port construction.
///
/// Binding and port construction are split so a test harness can bind
/// every node on port 0, read back the kernel-assigned addresses, and
/// only then write the cluster config the ports are built from.
pub struct BoundNode {
    id: usize,
    listener: TcpListener,
}

impl BoundNode {
    /// Binds participant `id`'s listener on `addr` (use port 0 to let
    /// the kernel choose).
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] when the bind fails.
    pub fn bind(id: usize, addr: &str) -> Result<Self, HadflError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| HadflError::InvalidConfig(format!("node {id}: bind {addr}: {e}")))?;
        Ok(BoundNode { id, listener })
    }

    /// The bound socket address.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] when the socket is gone.
    pub fn local_addr(&self) -> Result<SocketAddr, HadflError> {
        self.listener
            .local_addr()
            .map_err(|e| HadflError::InvalidConfig(format!("local_addr: {e}")))
    }

    /// Turns the bound listener into a live [`TcpPort`] for `cluster`.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] when the cluster does not
    /// validate or the listener cannot be configured.
    pub fn into_port(
        self,
        cluster: &ClusterConfig,
        opts: TcpOptions,
    ) -> Result<TcpPort, HadflError> {
        self.into_port_instrumented(cluster, opts, WallClock::shared(), Telemetry::disabled())
    }

    /// [`Self::into_port`] with an injected [`Clock`] — deterministic
    /// tests drive dial backoff on virtual time — and a [`Telemetry`]
    /// handle: the port emits one `FrameSent` per outbound payload
    /// frame and one `FrameReceived` per inbound payload frame,
    /// mirroring its [`Port::stats`] ledger entry for entry. Both reach
    /// the protocol loop that drives the port through [`Port::clock`] /
    /// [`Port::telemetry`].
    ///
    /// # Errors
    ///
    /// As [`Self::into_port`].
    pub fn into_port_instrumented(
        self,
        cluster: &ClusterConfig,
        opts: TcpOptions,
        clock: Arc<dyn Clock>,
        tel: Telemetry,
    ) -> Result<TcpPort, HadflError> {
        cluster.validate()?;
        cluster.node(self.id)?;
        let (inbound_tx, inbound_rx) = unbounded();
        let lamport = tel.lamport_clock();
        let shared = Arc::new(Shared {
            me: self.id,
            devices: cluster.devices(),
            inbound_tx,
            stats: Mutex::new(NetStats::new()),
            raw_bytes: AtomicU64::new(0),
            heard_from_cluster: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            clock,
            opts,
            tel,
            lamport,
            recv_slot: RecvSlot::default(),
        });
        let listen_addr = self.local_addr()?;
        let accept_shared = Arc::clone(&shared);
        let listener = self.listener;
        let accept_thread = thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(TcpPort {
            cluster: cluster.clone(),
            shared,
            conns: BTreeMap::new(),
            inbound_rx,
            listen_addr,
            accept_thread: Some(accept_thread),
        })
    }
}

/// TCP-backed [`Port`]; see the module docs.
pub struct TcpPort {
    cluster: ClusterConfig,
    shared: Arc<Shared>,
    /// Outbound connections by peer, dialed on first send. Dropped
    /// with the port, which closes them.
    conns: BTreeMap<usize, TcpStream>,
    inbound_rx: Receiver<Message>,
    /// The listener's bound address: where `drop` wakes the accept.
    listen_addr: SocketAddr,
    /// Owns the listener; taken and joined by `drop`.
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpPort {
    /// Every byte this port put on or took off the wire, including
    /// length prefixes, stamps and hellos — the gap to [`Port::stats`]
    /// is the transport's own overhead.
    pub fn raw_bytes(&self) -> u64 {
        self.shared.raw_bytes.load(Ordering::Relaxed)
    }

    /// A handle onto this port's counters that stays readable after the
    /// port itself is moved into a protocol loop.
    pub fn stats_handle(&self) -> StatsHandle {
        StatsHandle(Arc::clone(&self.shared))
    }

    fn dial(&self, to: usize) -> Result<TcpStream, HadflError> {
        let addr_str = &self.cluster.node(to)?.addr;
        let opts = &self.shared.opts;
        let mut backoff = opts.backoff_base;
        let mut last_err = String::new();
        for attempt in 0..opts.max_dial_attempts {
            if attempt > 0 {
                self.shared.clock.sleep(backoff);
                backoff = (backoff * 2).min(opts.backoff_cap);
            }
            let addrs: Vec<SocketAddr> = match addr_str.to_socket_addrs() {
                Ok(addrs) => addrs.collect(),
                Err(e) => {
                    last_err = format!("resolve {addr_str}: {e}");
                    continue;
                }
            };
            let Some(addr) = addrs.first() else {
                last_err = format!("resolve {addr_str}: no addresses");
                continue;
            };
            match TcpStream::connect_timeout(addr, opts.connect_timeout) {
                Ok(mut stream) => {
                    stream
                        .set_nodelay(true)
                        .map_err(|e| HadflError::InvalidConfig(format!("nodelay: {e}")))?;
                    stream
                        .set_write_timeout(Some(opts.write_timeout))
                        .map_err(|e| HadflError::InvalidConfig(format!("write timeout: {e}")))?;
                    let hello = Message::Hello {
                        from: self.shared.me as u32,
                    };
                    let (head, body) = seal_frame(self.shared.stamp(), &hello);
                    if let Err(e) = write_frame(&mut stream, &head, body) {
                        last_err = format!("hello to {to}: {e}");
                        continue;
                    }
                    self.shared
                        .raw_bytes
                        .fetch_add((head.len() + body.len()) as u64, Ordering::Relaxed);
                    return Ok(stream);
                }
                Err(e)
                    if e.kind() == ErrorKind::ConnectionRefused
                        && self.shared.heard_from_cluster.load(Ordering::Acquire) =>
                {
                    return Err(HadflError::InvalidConfig(format!(
                        "peer {to} unreachable: dial {addr} refused after the cluster spoke: {e}"
                    )));
                }
                Err(e) => last_err = format!("dial {addr}: {e}"),
            }
        }
        Err(HadflError::InvalidConfig(format!(
            "peer {to} unreachable after {} attempts: {last_err}",
            opts.max_dial_attempts
        )))
    }

    /// Post-write bookkeeping for a delivered frame: the raw-byte and
    /// payload ledgers and the `FrameSent` telemetry event.
    fn record_send(&self, to: usize, msg: &Message, stamp: &CausalStamp) {
        // The ledger charges the payload only; the stamp header is
        // transport overhead like the length prefix.
        let payload = msg.encoded_len() as u64;
        self.shared
            .raw_bytes
            .fetch_add(4 + wire::STAMP_LEN as u64 + payload, Ordering::Relaxed);
        self.shared.stats.lock().record(
            endpoint_of(self.shared.me, self.shared.devices),
            endpoint_of(to, self.shared.devices),
            payload,
        );
        if self.shared.tel.enabled() {
            self.shared.tel.emit(
                self.shared.clock.now(),
                EventKind::FrameSent {
                    src: self.shared.me as u32,
                    dst: to as u32,
                    bytes: payload,
                    kind: msg.kind().to_string(),
                    lamport: stamp.lamport,
                },
            );
        }
    }

    /// Hands `msg` to the protocol loop. A parameter frame used the
    /// receive slot's buffer (or, with the slot empty, one its reader
    /// allocated); the next one's is allocated here, on the thread that
    /// will keep and free it.
    fn delivered(&self, msg: Message) -> Message {
        if let Message::ParamSync { params, .. }
        | Message::ParamAccum { params, .. }
        | Message::MergedParams { params, .. }
        | Message::FinalParams { params, .. } = &msg
        {
            self.shared.recv_slot.refill(params.len());
        }
        msg
    }
}

/// Read-only view of a [`TcpPort`]'s counters; see
/// [`TcpPort::stats_handle`].
pub struct StatsHandle(Arc<Shared>);

impl StatsHandle {
    /// Snapshot of the protocol-payload ledger (same accounting as
    /// [`Port::stats`]).
    pub fn stats(&self) -> NetStats {
        self.0.stats.lock().clone()
    }

    /// Raw wire bytes including length prefixes, stamps and hellos.
    pub fn raw_bytes(&self) -> u64 {
        self.0.raw_bytes.load(Ordering::Relaxed)
    }

    /// Emits the node's final `Ledger` event — the `NetStats` ground
    /// truth that the per-frame events must sum to (`hadfl-trace
    /// --check` verifies the parity). No-op on an uninstrumented port.
    pub fn emit_ledger(&self) {
        if !self.0.tel.enabled() {
            return;
        }
        let stats = self.0.stats.lock().clone();
        let me = endpoint_of(self.0.me, self.0.devices);
        self.0.tel.emit(
            self.0.clock.now(),
            EventKind::Ledger {
                sent_bytes: stats.sent_by(me),
                recv_bytes: stats.received_by(me),
                frames: stats.messages(),
            },
        );
    }
}

impl Port for TcpPort {
    fn id(&self) -> usize {
        self.shared.me
    }

    fn participants(&self) -> usize {
        self.cluster.participants()
    }

    fn send(&mut self, to: usize, msg: &Message) -> Result<(), HadflError> {
        // Prefix, head and the model straight from the message's own
        // vector go out in one vectored write — no frame is built.
        let stamp = self.shared.stamp();
        let (head, body) = seal_frame(stamp, msg);
        if let Some(stream) = self.conns.get_mut(&to) {
            // A cached connection may have died since the last send;
            // a failed write drops it and falls through to a fresh
            // dial (which has its own backoff budget).
            if write_frame(stream, &head, body).is_ok() {
                self.record_send(to, msg, &stamp);
                return Ok(());
            }
            self.conns.remove(&to);
        }
        let mut stream = self.dial(to)?;
        write_frame(&mut stream, &head, body)
            .map_err(|e| HadflError::InvalidConfig(format!("send to {to}: {e}")))?;
        self.conns.insert(to, stream);
        self.record_send(to, msg, &stamp);
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<Message>, HadflError> {
        match self.inbound_rx.try_recv() {
            Ok(msg) => Ok(Some(self.delivered(msg))),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => {
                Err(HadflError::InvalidConfig("transport torn down".into()))
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, HadflError> {
        match self.inbound_rx.recv_timeout(timeout) {
            Ok(msg) => Ok(Some(self.delivered(msg))),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => {
                Err(HadflError::InvalidConfig("transport torn down".into()))
            }
        }
    }

    fn stats(&self) -> NetStats {
        self.shared.stats.lock().clone()
    }

    fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.shared.clock)
    }

    fn telemetry(&self) -> Telemetry {
        self.shared.tel.clone()
    }
}

impl Drop for TcpPort {
    /// Raises `shutdown` for the reader threads and wakes and joins the
    /// accept thread, so the listener is closed. The outbound
    /// connections close as `conns` drops right after, so once the port
    /// is gone every peer it dialed sees end of stream.
    fn drop(&mut self) {
        if let Some(accept_thread) = self.accept_thread.take() {
            stop_accept(&self.shared.shutdown, self.listen_addr, accept_thread);
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    accept_until(&listener, &shared.shutdown, |stream| {
        let reader_shared = Arc::clone(&shared);
        thread::spawn(move || reader_loop(stream, reader_shared));
    });
}

fn reader_loop(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(shared.opts.read_timeout));
    let max_frame_bytes = shared.opts.max_frame_bytes as usize;
    // The connection is anonymous until its Hello arrives.
    let mut from: Option<usize> = None;
    // `None`: the peer hung up or sent something corrupt or hostile, or
    // the port is shutting down — either way the connection is dropped.
    while let Some((stamp, msg, frame_len)) =
        read_frame(&mut stream, max_frame_bytes, &shared.shutdown, |count| {
            shared.recv_slot.take(count)
        })
    {
        shared
            .raw_bytes
            .fetch_add(4 + frame_len as u64, Ordering::Relaxed);
        // Max-merge every inbound stamp — hellos too — so the node's
        // clock dominates everything it has heard.
        shared.lamport.observe(stamp.lamport);
        match msg {
            Message::Hello { from: peer } => {
                from = Some(peer as usize);
                shared.heard_from_cluster.store(true, Ordering::Release);
            }
            other => {
                let Some(peer) = from else {
                    return; // protocol violation: frames before Hello
                };
                let payload = (frame_len - wire::STAMP_LEN) as u64;
                shared.stats.lock().record(
                    endpoint_of(peer, shared.devices),
                    endpoint_of(shared.me, shared.devices),
                    payload,
                );
                if shared.tel.enabled() {
                    shared.tel.emit(
                        shared.clock.now(),
                        EventKind::FrameReceived {
                            src: peer as u32,
                            dst: shared.me as u32,
                            bytes: payload,
                            kind: other.kind().to_string(),
                            lamport: stamp.lamport,
                        },
                    );
                }
                if shared.inbound_tx.send(other).is_err() {
                    return; // port dropped
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn quick_opts() -> TcpOptions {
        TcpOptions {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_millis(25),
            write_timeout: Duration::from_millis(500),
            max_dial_attempts: 8,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            max_frame_bytes: 1 << 20,
        }
    }

    /// Binds `n` loopback listeners on port 0 and describes them as a
    /// cluster (last id coordinates).
    fn loopback_cluster(n: usize) -> (ClusterConfig, Vec<BoundNode>) {
        let nodes: Vec<BoundNode> = (0..n)
            .map(|id| BoundNode::bind(id, "127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<String> = nodes
            .iter()
            .map(|b| b.local_addr().unwrap().to_string())
            .collect();
        (ClusterConfig::from_addrs(&addrs).unwrap(), nodes)
    }

    /// The message kinds of a run of length-prefixed frames.
    fn frame_kinds(mut wire_bytes: &[u8]) -> Vec<&'static str> {
        let mut kinds = Vec::new();
        while !wire_bytes.is_empty() {
            let len = u32::from_le_bytes(wire_bytes[..4].try_into().unwrap()) as usize;
            kinds.push(wire::open(&wire_bytes[4..4 + len]).unwrap().1.kind());
            wire_bytes = &wire_bytes[4 + len..];
        }
        kinds
    }

    #[test]
    fn an_idle_port_puts_nothing_on_the_wire() {
        use std::io::Read;
        let (cluster, mut nodes) = loopback_cluster(3);
        // Participant 1 is a bare listener, reading what the port sends.
        let peer = nodes.remove(1);
        let mut port = nodes
            .remove(0)
            .into_port(&cluster, TcpOptions::default())
            .unwrap();
        port.send(1, &Message::Handshake { from: 0 }).unwrap();
        let (mut conn, _) = peer.listener.accept().unwrap();
        // Read for 1.2 s: the connection's two frames, then a timeout.
        let listening = WallClock::new();
        let window = Duration::from_millis(1200);
        let mut wire_bytes = Vec::new();
        let mut chunk = [0u8; 256];
        let timed_out = loop {
            let left = window.saturating_sub(listening.now());
            if left.is_zero() {
                break false;
            }
            conn.set_read_timeout(Some(left)).unwrap();
            match conn.read(&mut chunk) {
                Ok(0) => break false, // end of stream
                Ok(n) => wire_bytes.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    break true
                }
                Err(e) => panic!("read: {e}"),
            }
        };
        assert_eq!(frame_kinds(&wire_bytes), ["hello", "handshake"]);
        assert!(timed_out, "the connection stays open and silent");
        drop(port);
    }

    #[test]
    fn frames_cross_the_wire() {
        let (cluster, mut nodes) = loopback_cluster(3);
        let coordinator = nodes.pop().unwrap();
        let b = nodes.pop().unwrap();
        let a = nodes.pop().unwrap();
        let mut a = a.into_port(&cluster, quick_opts()).unwrap();
        let mut b = b.into_port(&cluster, quick_opts()).unwrap();
        let mut c = coordinator.into_port(&cluster, quick_opts()).unwrap();

        let msg = Message::ParamSync {
            round: 3,
            params: vec![1.0, -2.5, 0.25],
        };
        a.send(1, &msg).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_secs(5)).unwrap(),
            Some(msg.clone())
        );
        b.send(
            2,
            &Message::VersionReport {
                device: 1,
                round: 3,
                version: 7.0,
            },
        )
        .unwrap();
        assert_eq!(
            c.recv_timeout(Duration::from_secs(5)).unwrap(),
            Some(Message::VersionReport {
                device: 1,
                round: 3,
                version: 7.0
            })
        );
        // Payload ledger matches the channel fabric's accounting.
        assert_eq!(
            a.stats()
                .sent_by(hadfl_simnet::Endpoint::Device(hadfl_simnet::DeviceId(0))),
            msg.encoded_len() as u64
        );
        assert_eq!(
            b.stats()
                .received_by(hadfl_simnet::Endpoint::Device(hadfl_simnet::DeviceId(1))),
            msg.encoded_len() as u64
        );
        // The raw wire counts prefixes and the Hello on top.
        assert!(a.raw_bytes() > msg.encoded_len() as u64);
    }

    #[test]
    fn dial_retries_until_listener_appears() {
        // Reserve an address, drop the listener, and only rebind it
        // after the sender has started dialing: the bounded backoff
        // must carry the send through the gap.
        let (cluster, mut nodes) = loopback_cluster(3);
        let coordinator = nodes.pop().unwrap();
        let late = nodes.pop().unwrap();
        let late_id = 1;
        let late_addr = cluster.node(late_id).unwrap().addr.clone();
        drop(late);
        let sender = nodes.pop().unwrap();
        let mut sender = sender.into_port(&cluster, quick_opts()).unwrap();
        let cluster2 = cluster.clone();
        let rebinder = thread::spawn(move || {
            thread::sleep(Duration::from_millis(60));
            let node = BoundNode::bind(late_id, &late_addr).unwrap();
            let mut port = node.into_port(&cluster2, quick_opts()).unwrap();
            port.recv_timeout(Duration::from_secs(5)).unwrap()
        });
        sender
            .send(late_id, &Message::Handshake { from: 0 })
            .unwrap();
        assert_eq!(
            rebinder.join().unwrap(),
            Some(Message::Handshake { from: 0 })
        );
        drop(coordinator);
    }

    #[test]
    fn unreachable_peer_errors_after_bounded_attempts() {
        let (cluster, mut nodes) = loopback_cluster(3);
        let dead = nodes.remove(1);
        drop(dead); // nobody listens on node 1's address
        let mut opts = quick_opts();
        opts.max_dial_attempts = 2;
        opts.backoff_base = Duration::from_millis(5);
        let mut sender = nodes.remove(0).into_port(&cluster, opts).unwrap();
        let clock = WallClock::new();
        assert!(sender.send(1, &Message::Handshake { from: 0 }).is_err());
        assert!(clock.now() < Duration::from_secs(5));
    }

    #[test]
    fn dropped_port_refuses_connections_at_once() {
        let (cluster, mut nodes) = loopback_cluster(3);
        let node = nodes.remove(0);
        let addr = node.local_addr().unwrap();
        let mut port = node.into_port(&cluster, quick_opts()).unwrap();
        let mut peer = nodes.remove(0).into_port(&cluster, quick_opts()).unwrap();
        // A frame through the listener: its accept loop is running.
        peer.send(0, &Message::Handshake { from: 1 }).unwrap();
        assert!(port.recv_timeout(Duration::from_secs(5)).unwrap().is_some());
        drop(port);
        let err = TcpStream::connect(addr).expect_err("the listener must be closed");
        assert_eq!(err.kind(), ErrorKind::ConnectionRefused);
    }

    #[test]
    fn refusal_after_the_cluster_spoke_ends_the_dial_without_backoff() {
        let (cluster, mut nodes) = loopback_cluster(3);
        drop(nodes.pop()); // nobody listens on participant 2's address
        let mut peer = nodes
            .pop()
            .unwrap()
            .into_port(&cluster, quick_opts())
            .unwrap();
        let clock = Arc::new(hadfl::clock::ManualClock::new());
        let mut port = nodes
            .pop()
            .unwrap()
            .into_port_instrumented(
                &cluster,
                TcpOptions::default(),
                clock.clone(),
                Telemetry::disabled(),
            )
            .unwrap();
        peer.send(0, &Message::Handshake { from: 1 }).unwrap();
        assert_eq!(
            port.recv_timeout(Duration::from_secs(5)).unwrap(),
            Some(Message::Handshake { from: 1 })
        );
        let before = clock.now();
        assert!(port.send(2, &Message::Shutdown).is_err());
        // The default schedule would have slept 25+50+100+200+400 ms.
        assert_eq!(clock.now(), before, "no backoff after the cluster spoke");
    }

    #[test]
    fn dropped_port_closes_its_outbound_connections() {
        use std::io::Read;
        let (cluster, mut nodes) = loopback_cluster(3);
        // Participant 1 is a bare listener, reading what the port sends.
        let peer = nodes.remove(1);
        let mut port = nodes.remove(0).into_port(&cluster, quick_opts()).unwrap();
        port.send(1, &Message::Handshake { from: 0 }).unwrap();
        let (mut conn, _) = peer.listener.accept().unwrap();
        drop(port);

        conn.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        let mut wire_bytes = Vec::new();
        conn.read_to_end(&mut wire_bytes)
            .expect("no end of stream within 1 s of the drop");
        assert_eq!(
            frame_kinds(&wire_bytes),
            ["hello", "handshake"],
            "nothing after the drop"
        );
    }
}
