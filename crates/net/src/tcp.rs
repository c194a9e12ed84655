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
//! The accepting side blocks in `accept` and runs one reader per inbound
//! connection, blocked in `read_exact`: with std alone there is no
//! readiness API, and a poll's period would land on frames. Dropping the
//! port wakes the accept ([`hadfl_telemetry::stop_accept`]) and joins
//! it, and the accept thread first shuts every accepted connection for
//! reading and joins its reader, which still delivers the frames already
//! queued. So once `drop` returns, a peer dialing the departed node is
//! refused at once, and every connection the port accepted is closed.
//!
//! Dialing is decided by `PeerLink`, a pure state machine that `dial`
//! runs on the port's [`Clock`]: bounded exponential backoff through
//! timeouts, errors, and refusals while the port has heard nothing
//! (bring-up, so nodes start in any order), and no retry of a refusal
//! once any peer's `Hello` has arrived. The cluster is up by then, and a
//! refused address is a peer that exited; backing off would only hold
//! the protocol thread for 775 ms. The coordinator's first fan-out goes
//! out before any device has spoken, but a device that answers within
//! it flips the switch for the rest of it, so devices must be listening
//! by the end of the first report window.
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
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use hadfl::clock::{Clock, WallClock};
use hadfl::transport::{endpoint_of, Port};
use hadfl::wire::{self, CausalStamp, Message};
use hadfl::HadflError;
use hadfl_simnet::NetStats;
use hadfl_telemetry::{stop_accept, EventKind, LamportClock, Telemetry};

use crate::cluster::ClusterConfig;
use crate::frame::{accept_readers, read_frame, seal_frame, write_frame, RecvSlot};

/// The deployment bounds of a [`TcpPort`].
#[derive(Debug, Clone)]
pub struct TcpOptions {
    /// Socket write timeout, set on every dialed connection. A peer
    /// whose TCP connection is alive but which stopped reading would
    /// otherwise block a frame's write forever once the socket buffer
    /// fills; with the timeout the send fails and the §III-D machinery
    /// takes over.
    pub write_timeout: Duration,
    /// Frames longer than this are rejected before allocation — a
    /// corrupt or hostile length prefix must not OOM the node.
    pub max_frame_bytes: u32,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            write_timeout: Duration::from_secs(5),
            max_frame_bytes: 256 << 20,
        }
    }
}

// `PeerLink`'s schedule: a 1 s connect timeout per attempt, 6 attempts
// per send, and a backoff doubling from 25 ms up to 2 s between them.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
const MAX_DIAL_ATTEMPTS: u32 = 6;
const BACKOFF_BASE: Duration = Duration::from_millis(25);
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// What `dial` tells its [`PeerLink`].
#[derive(Debug, PartialEq)]
enum LinkEvent {
    /// A send needs a connection, or a backoff has run out.
    Ready,
    /// The attempt failed; `cluster_spoke`: the port had heard a `Hello`.
    Failed { refused: bool, cluster_spoke: bool },
}

#[derive(Debug, PartialEq)]
enum LinkAction {
    Dial,
    /// Sleep this long on the port's clock, then report `Ready`.
    Wait(Duration),
    GiveUp,
}

/// One send's dial policy toward one peer, with no socket or clock in
/// it (see the module docs). A connection ends the link.
#[derive(Default)]
struct PeerLink {
    attempts: u32,
}

impl PeerLink {
    fn step(&mut self, event: LinkEvent) -> LinkAction {
        match event {
            LinkEvent::Ready => {
                self.attempts += 1;
                LinkAction::Dial
            }
            LinkEvent::Failed {
                refused: true,
                cluster_spoke: true,
            } => LinkAction::GiveUp,
            LinkEvent::Failed { .. } if self.attempts >= MAX_DIAL_ATTEMPTS => LinkAction::GiveUp,
            LinkEvent::Failed { .. } => LinkAction::Wait(backoff(self.attempts)),
        }
    }
}

/// The wait after failed attempt `attempt` (from 1): [`BACKOFF_BASE`],
/// doubling per attempt up to [`BACKOFF_CAP`].
fn backoff(attempt: u32) -> Duration {
    let doublings = 2u32.saturating_pow(attempt.saturating_sub(1));
    BACKOFF_BASE.saturating_mul(doublings).min(BACKOFF_CAP)
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

    /// Charges one payload frame `src` → `dst` to `stats`, mirrored as a
    /// `FrameSent` (`sent`) or `FrameReceived` event.
    fn ledger(&self, sent: bool, src: usize, dst: usize, msg: &Message, bytes: u64, lamport: u64) {
        let endpoint = |id| endpoint_of(id, self.devices);
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record(endpoint(src), endpoint(dst), bytes);
        if self.tel.enabled() {
            let (src, dst, kind) = (src as u32, dst as u32, msg.kind().to_string());
            let event = if sent {
                EventKind::FrameSent {
                    src,
                    dst,
                    bytes,
                    kind,
                    lamport,
                }
            } else {
                EventKind::FrameReceived {
                    src,
                    dst,
                    bytes,
                    kind,
                    lamport,
                }
            };
            self.tel.emit(self.clock.now(), event);
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
        let (inbound_tx, inbound_rx) = channel();
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
        let (listener, readers) = (self.listener, Arc::clone(&shared));
        let accept_thread = thread::spawn(move || {
            let stop = Arc::clone(&readers);
            accept_readers(&listener, &stop.shutdown, move |s| reader_loop(s, &readers));
        });
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

    /// [`PeerLink`]'s I/O shell: runs its actions until a connection to
    /// `to` carries our `Hello`, or the link gives up.
    fn dial(&self, to: usize) -> Result<TcpStream, HadflError> {
        let addr = &self.cluster.node(to)?.addr;
        let mut link = PeerLink::default();
        let mut event = LinkEvent::Ready;
        let mut last_err = String::new();
        loop {
            event = match link.step(event) {
                LinkAction::Dial => match self.connect(addr) {
                    Ok(stream) => return Ok(stream),
                    Err(e) => {
                        last_err = e.to_string();
                        LinkEvent::Failed {
                            refused: e.kind() == ErrorKind::ConnectionRefused,
                            cluster_spoke: self.shared.heard_from_cluster.load(Ordering::Acquire),
                        }
                    }
                },
                LinkAction::Wait(backoff) => {
                    self.shared.clock.sleep(backoff);
                    LinkEvent::Ready
                }
                LinkAction::GiveUp => {
                    return Err(HadflError::InvalidConfig(format!(
                        "peer {to} unreachable at {addr} after {} attempt(s): {last_err}",
                        link.attempts
                    )))
                }
            };
        }
    }

    /// One dial attempt: resolve, connect, send our `Hello`.
    fn connect(&self, addr: &str) -> std::io::Result<TcpStream> {
        let addr = addr.to_socket_addrs()?.next().ok_or(ErrorKind::NotFound)?;
        let mut stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(self.shared.opts.write_timeout))?;
        let hello = Message::Hello {
            from: self.shared.me as u32,
        };
        let (head, body) = seal_frame(self.shared.stamp(), &hello);
        write_frame(&mut stream, &head, body)?;
        self.shared
            .raw_bytes
            .fetch_add((head.len() + body.len()) as u64, Ordering::Relaxed);
        Ok(stream)
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
        self.shared
            .ledger(true, self.shared.me, to, msg, payload, stamp.lamport);
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
        self.0
            .stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
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
        let stats = self
            .0
            .stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
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
        self.shared
            .stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.shared.clock)
    }

    fn telemetry(&self) -> Telemetry {
        self.shared.tel.clone()
    }
}

impl Drop for TcpPort {
    /// Wakes and joins the accept thread, which closes the listener and
    /// every accepted connection; `conns` drops right after, so every
    /// peer the port dialed or was dialed by sees end of stream.
    fn drop(&mut self) {
        if let Some(accept_thread) = self.accept_thread.take() {
            stop_accept(&self.shared.shutdown, self.listen_addr, accept_thread);
        }
    }
}

fn reader_loop(mut stream: &TcpStream, shared: &Shared) {
    let max_frame_bytes = shared.opts.max_frame_bytes as usize;
    // The connection is anonymous until its Hello arrives.
    let mut from: Option<usize> = None;
    // `None`: the peer hung up or sent something corrupt or hostile, or
    // the port shut the connection — either way it is dropped.
    while let Some((stamp, msg, frame_len)) = read_frame(&mut stream, max_frame_bytes, |count| {
        shared.recv_slot.take(count)
    }) {
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
                shared.ledger(false, peer, shared.me, &other, payload, stamp.lamport);
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

    use hadfl::clock::ManualClock;

    const fn ms(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    /// Drives a fresh link through failed attempts until it gives up,
    /// `fail(n)` describing attempt `n`; returns the waits in between
    /// and the number of attempts made.
    fn run_link(mut fail: impl FnMut(u32) -> LinkEvent) -> (Vec<Duration>, u32) {
        let mut link = PeerLink::default();
        let mut waits = Vec::new();
        assert_eq!(link.step(LinkEvent::Ready), LinkAction::Dial);
        loop {
            match link.step(fail(link.attempts)) {
                LinkAction::Wait(wait) => waits.push(wait),
                LinkAction::GiveUp => return (waits, link.attempts),
                LinkAction::Dial => panic!("a failure must not dial at once"),
            }
            assert_eq!(link.step(LinkEvent::Ready), LinkAction::Dial);
        }
    }

    fn failed(refused: bool, cluster_spoke: bool) -> LinkEvent {
        LinkEvent::Failed {
            refused,
            cluster_spoke,
        }
    }

    #[test]
    fn a_link_dials_once_for_a_first_try_that_connects() {
        let mut link = PeerLink::default();
        assert_eq!(link.step(LinkEvent::Ready), LinkAction::Dial);
        assert_eq!(link.attempts, 1);
    }

    #[test]
    fn refusals_before_anyone_spoke_back_off_then_give_up_after_six_attempts() {
        let (waits, attempts) = run_link(|_| failed(true, false));
        assert_eq!(waits, [ms(25), ms(50), ms(100), ms(200), ms(400)]);
        assert_eq!(attempts, 6);
    }

    #[test]
    fn a_refusal_after_a_hello_gives_up_without_waiting() {
        assert_eq!(run_link(|_| failed(true, true)), (vec![], 1));
        // The cluster may speak between attempts: the refusal that
        // follows is final however much budget is left.
        let (waits, attempts) = run_link(|n| failed(true, n == 3));
        assert_eq!((waits, attempts), (vec![ms(25), ms(50)], 3));
    }

    #[test]
    fn timeouts_and_other_errors_spend_the_same_budget() {
        let refusals = run_link(|_| failed(true, false));
        // A timeout is retried whether or not the cluster spoke.
        assert_eq!(run_link(|_| failed(false, false)), refusals);
        assert_eq!(run_link(|_| failed(false, true)), refusals);
        assert_eq!(run_link(|n| failed(n % 2 == 0, false)), refusals);
    }

    #[test]
    fn backoff_doubles_up_to_the_two_second_cap() {
        let waits: Vec<Duration> = (1..=9).map(backoff).collect();
        let doubled = [25, 50, 100, 200, 400, 800, 1600, 2000, 2000];
        assert_eq!(waits, doubled.map(ms));
        assert_eq!(backoff(u32::MAX), ms(2000));
    }

    /// A [`ManualClock`] whose first `sleep` runs `on_sleep` first.
    struct FirstSleepRuns {
        time: ManualClock,
        on_sleep: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    }

    impl Clock for FirstSleepRuns {
        fn now(&self) -> Duration {
            self.time.now()
        }

        fn sleep(&self, d: Duration) {
            if let Some(on_sleep) = self
                .on_sleep
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
            {
                on_sleep();
            }
            self.time.sleep(d);
        }
    }

    /// A port for `node` on a [`ManualClock`]: its backoff takes no wall time.
    fn on_manual_clock(node: BoundNode, cluster: &ClusterConfig) -> (TcpPort, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let port = node
            .into_port_instrumented(
                cluster,
                TcpOptions::default(),
                clock.clone(),
                Telemetry::disabled(),
            )
            .unwrap();
        (port, clock)
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
        let mut a = a.into_port(&cluster, TcpOptions::default()).unwrap();
        let mut b = b.into_port(&cluster, TcpOptions::default()).unwrap();
        let mut c = coordinator
            .into_port(&cluster, TcpOptions::default())
            .unwrap();

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
        // Reserve an address and drop the listener; it is bound again
        // during the sender's first backoff, so the second dial gets
        // through.
        let (cluster, mut nodes) = loopback_cluster(3);
        let late_id = 1;
        let late_addr = cluster.node(late_id).unwrap().addr.clone();
        drop(nodes.remove(late_id));
        let late_port: Arc<Mutex<Option<TcpPort>>> = Arc::default();
        let (slot, late_cluster) = (Arc::clone(&late_port), cluster.clone());
        let rebind = move || {
            let node = BoundNode::bind(late_id, &late_addr).unwrap();
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(
                node.into_port(&late_cluster, TcpOptions::default())
                    .unwrap(),
            );
        };
        let clock = Arc::new(FirstSleepRuns {
            time: ManualClock::new(),
            on_sleep: Mutex::new(Some(Box::new(rebind))),
        });
        let mut sender = nodes
            .remove(0)
            .into_port_instrumented(
                &cluster,
                TcpOptions::default(),
                clock.clone(),
                Telemetry::disabled(),
            )
            .unwrap();
        sender
            .send(late_id, &Message::Handshake { from: 0 })
            .unwrap();
        assert_eq!(clock.now(), ms(25), "one refusal, one backoff");
        let mut late = late_port
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("rebound in the backoff");
        assert_eq!(
            late.recv_timeout(Duration::from_secs(5)).unwrap(),
            Some(Message::Handshake { from: 0 })
        );
    }

    #[test]
    fn unreachable_peer_errors_after_bounded_attempts() {
        let (cluster, mut nodes) = loopback_cluster(3);
        drop(nodes.remove(1)); // nobody listens on node 1's address
        let (mut sender, clock) = on_manual_clock(nodes.remove(0), &cluster);
        let err = sender.send(1, &Message::Handshake { from: 0 }).unwrap_err();
        assert!(err.to_string().contains("after 6 attempt(s)"), "{err}");
        assert_eq!(clock.now(), ms(25 + 50 + 100 + 200 + 400));
    }

    #[test]
    fn dropped_port_refuses_connections_at_once() {
        let (cluster, mut nodes) = loopback_cluster(3);
        let node = nodes.remove(0);
        let addr = node.local_addr().unwrap();
        let mut port = node.into_port(&cluster, TcpOptions::default()).unwrap();
        let mut peer = nodes
            .remove(0)
            .into_port(&cluster, TcpOptions::default())
            .unwrap();
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
            .into_port(&cluster, TcpOptions::default())
            .unwrap();
        let (mut port, clock) = on_manual_clock(nodes.pop().unwrap(), &cluster);
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
        let mut port = nodes
            .remove(0)
            .into_port(&cluster, TcpOptions::default())
            .unwrap();
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

    #[test]
    fn dropped_port_closes_its_inbound_connections() {
        use std::io::Read;
        let (cluster, mut nodes) = loopback_cluster(3);
        let node = nodes.remove(0);
        let addr = node.local_addr().unwrap();
        let mut port = node.into_port(&cluster, TcpOptions::default()).unwrap();
        // A raw client dials the port the way a peer does.
        let mut conn = TcpStream::connect(addr).unwrap();
        for msg in [Message::Hello { from: 1 }, Message::Handshake { from: 1 }] {
            let stamp = CausalStamp {
                origin: 1,
                lamport: 1,
            };
            let (head, body) = seal_frame(stamp, &msg);
            write_frame(&mut conn, &head, body).unwrap();
        }
        assert_eq!(
            port.recv_timeout(Duration::from_secs(5)).unwrap(),
            Some(Message::Handshake { from: 1 })
        );
        drop(port);

        conn.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        let mut wire_bytes = Vec::new();
        conn.read_to_end(&mut wire_bytes)
            .expect("no end of stream within 1 s of the drop");
        assert!(
            wire_bytes.is_empty(),
            "a port never writes to a peer's dial"
        );
    }
}
