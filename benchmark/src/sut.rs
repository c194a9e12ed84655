//! The system under test: every call into the repository's crates.
//!
//! The rest of the benchmark speaks in its own types (`ghost::Plan`,
//! `trace::Span`, plain numbers); this file turns them into the
//! repository's entry points — `run_virtual`, `run_device` /
//! `run_coordinator` over a TCP mesh, a `DeviceActor` loop, and the
//! `wire` / `aggregate` / `strategy` / `nn` / `tensor` functions the
//! per-layer timings call. When those entry points change shape, this
//! is the one file that follows.

use std::hint::black_box;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hadfl::aggregate::{accumulate_params, average_params, blend_params, scale_params};
use hadfl::clock::{Clock, WallClock};
use hadfl::coordinator::StrategyGenerator;
use hadfl::exec::{
    run_coordinator, run_device, run_virtual, DeviceActor, DeviceHint, ProtocolTiming,
    ThreadedOptions, ThreadedRound, TrainState,
};
use hadfl::transport::{ChannelPort, ChannelTransport, Port};
use hadfl::wire::{self, CausalStamp, Message};
use hadfl::{HadflConfig, HadflError, Workload};
use hadfl_net::cluster::ClusterConfig;
use hadfl_net::tcp::{BoundNode, StatsHandle, TcpOptions, TcpPort};
use hadfl_simnet::{DeviceId, Endpoint, NetStats};
use hadfl_telemetry::{EventKind, RingBufferSink, Telemetry};
use hadfl_tensor::{im2col, matmul, Conv2dGeometry, SeedStream, Tensor};

use crate::ghost::{self, Plan};
use crate::trace::{self, Span, Tracer};

type Res<T> = Result<T, String>;

fn err(e: HadflError) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------------
// Ports
// ---------------------------------------------------------------------------

/// Either fabric behind one type, so cluster code is written once.
pub enum AnyPort {
    Chan(ChannelPort),
    Tcp(TcpPort),
}

macro_rules! delegate {
    ($self:ident, $p:ident => $e:expr) => {
        match $self {
            AnyPort::Chan($p) => $e,
            AnyPort::Tcp($p) => $e,
        }
    };
}

impl Port for AnyPort {
    fn id(&self) -> usize {
        delegate!(self, p => p.id())
    }
    fn participants(&self) -> usize {
        delegate!(self, p => p.participants())
    }
    fn send(&mut self, to: usize, msg: &Message) -> Result<(), HadflError> {
        delegate!(self, p => p.send(to, msg))
    }
    fn try_recv(&mut self) -> Result<Option<Message>, HadflError> {
        delegate!(self, p => p.try_recv())
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, HadflError> {
        delegate!(self, p => p.recv_timeout(timeout))
    }
    fn stats(&self) -> NetStats {
        delegate!(self, p => p.stats())
    }
}

fn round_of(msg: &Message) -> Option<u32> {
    match msg {
        Message::RoundPlan { round, .. }
        | Message::ParamAccum { round, .. }
        | Message::MergedParams { round, .. }
        | Message::ParamSync { round, .. }
        | Message::ReportRequest { round }
        | Message::VersionReport { round, .. } => Some(*round),
        _ => None,
    }
}

/// A port that records a span per `send` and per receive when it holds
/// a tracer that is switched on, and is a plain pass-through otherwise.
/// The owner brackets its own work with [`enter`](Self::enter) /
/// [`exit`](Self::exit); sends made in between become children.
pub struct TimedPort<P: Port> {
    inner: P,
    tracer: Option<Tracer>,
    /// The open enclosing span and the round frames belong to.
    parent: u32,
    round: u32,
}

/// A span that has started: its id and start time.
type Open = (u32, u64);

impl<P: Port> TimedPort<P> {
    pub fn new(inner: P, tracer: Option<Tracer>) -> Self {
        TimedPort {
            inner,
            tracer,
            parent: 0,
            round: 0,
        }
    }

    /// Starts a span if the tracer is there and switched on.
    fn start(&self) -> Option<Open> {
        let on = self.tracer.as_ref().is_some_and(Tracer::on);
        on.then(|| (trace::next_id(), trace::now_ns()))
    }

    /// Records a started span as run by this port's participant.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        (id, start_ns): Open,
        end_ns: u64,
        parent: u32,
        name: &'static str,
        kind: &'static str,
        peer: usize,
        round: u32,
    ) {
        if let Some(tracer) = &self.tracer {
            tracer.record(Span {
                id,
                parent,
                name,
                kind,
                device: self.inner.id() as u32,
                peer: peer as u32,
                round,
                start_ns,
                end_ns,
            });
        }
    }

    /// Opens a span around the owner's next piece of work.
    fn enter(&mut self, round: u32) -> Option<Open> {
        self.round = round;
        let open = self.start();
        self.parent = open.map_or(0, |(id, _)| id);
        open
    }

    /// Closes the span [`enter`](Self::enter) opened, as of `end_ns`.
    fn exit(&mut self, open: Option<Open>, end_ns: u64, name: &'static str, kind: &'static str) {
        self.parent = 0;
        if let Some(open) = open {
            self.record(open, end_ns, 0, name, kind, 0, self.round);
        }
    }

    fn traced_recv(
        &mut self,
        recv: impl FnOnce(&mut P) -> Result<Option<Message>, HadflError>,
    ) -> Result<Option<Message>, HadflError> {
        let open = self.start();
        let got = recv(&mut self.inner)?;
        if let (Some(open), Some(msg)) = (open, &got) {
            let round = round_of(msg).unwrap_or(self.round);
            self.record(open, trace::now_ns(), 0, "recv", msg.kind(), 0, round);
        }
        Ok(got)
    }
}

impl<P: Port> Port for TimedPort<P> {
    fn id(&self) -> usize {
        self.inner.id()
    }
    fn participants(&self) -> usize {
        self.inner.participants()
    }
    fn send(&mut self, to: usize, msg: &Message) -> Result<(), HadflError> {
        let open = self.start();
        let sent = self.inner.send(to, msg);
        if let Some(open) = open {
            let round = round_of(msg).unwrap_or(self.round);
            self.record(
                open,
                trace::now_ns(),
                self.parent,
                "send",
                msg.kind(),
                to,
                round,
            );
        }
        sent
    }
    fn try_recv(&mut self) -> Result<Option<Message>, HadflError> {
        self.traced_recv(P::try_recv)
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, HadflError> {
        self.traced_recv(|p| p.recv_timeout(timeout))
    }
    fn stats(&self) -> NetStats {
        self.inner.stats()
    }
}

/// Which fabric a cluster runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    Chan,
    Tcp,
}

/// The ports of a `k`-device cluster plus what is needed to read the
/// byte ledger after the ports have moved into their loops.
struct Mesh {
    /// Device ports `0..k`, then the coordinator's.
    ports: Vec<AnyPort>,
    /// Each participant's telemetry handle, same order.
    tels: Vec<Telemetry>,
    ledger: Ledger,
}

enum Ledger {
    Chan(ChannelTransport),
    Tcp(Vec<StatsHandle>),
}

impl Ledger {
    /// Payload bytes that moved between devices (the coordinator's
    /// control traffic and final uploads excluded).
    fn peer_bytes(&self) -> u64 {
        match self {
            Ledger::Chan(hub) => {
                let stats = hub.net_stats();
                stats.total_bytes() - stats.server_bytes()
            }
            // Each TCP port keeps its own ledger of what it sent and
            // what it received; count every peer frame once, where it
            // arrived.
            Ledger::Tcp(handles) => handles
                .iter()
                .enumerate()
                .map(|(d, h)| {
                    let stats = h.stats();
                    stats.received_by(Endpoint::Device(DeviceId(d)))
                        - stats.sent_by(Endpoint::Server)
                })
                .sum(),
        }
    }
}

/// Binds a `k`-device cluster. With `telemetry`, every participant gets
/// a ring-buffer sink and instrumented ports, as the in-process tests
/// use (the observer-overhead rerun); otherwise telemetry is disabled.
fn mesh(fabric: Fabric, k: usize, telemetry: bool) -> Res<Mesh> {
    let tels: Vec<Telemetry> = (0..=k)
        .map(|id| {
            if telemetry {
                Telemetry::new(id as u32, vec![Box::new(RingBufferSink::new(4096))])
            } else {
                Telemetry::disabled()
            }
        })
        .collect();
    let clock: Arc<dyn Clock> = WallClock::shared();
    match fabric {
        Fabric::Chan => {
            let mut hub = ChannelTransport::hub(k + 1);
            let ports = (0..=k)
                .map(|id| {
                    hub.claim_instrumented(id, tels[id].clone(), Some(Arc::clone(&clock)))
                        .map(AnyPort::Chan)
                })
                .collect::<Result<_, _>>()
                .map_err(err)?;
            Ok(Mesh {
                ports,
                tels,
                ledger: Ledger::Chan(hub),
            })
        }
        Fabric::Tcp => {
            let nodes: Vec<BoundNode> = (0..=k)
                .map(|id| BoundNode::bind(id, "127.0.0.1:0"))
                .collect::<Result<_, _>>()
                .map_err(err)?;
            let addrs: Vec<String> = nodes
                .iter()
                .map(|n| n.local_addr().map(|a| a.to_string()))
                .collect::<Result<_, _>>()
                .map_err(err)?;
            let cluster = ClusterConfig::from_addrs(&addrs).map_err(err)?;
            let ports: Vec<TcpPort> = nodes
                .into_iter()
                .zip(&tels)
                .map(|(n, tel)| {
                    n.into_port_instrumented(
                        &cluster,
                        TcpOptions::default(),
                        Arc::clone(&clock),
                        tel.clone(),
                    )
                })
                .collect::<Result<_, _>>()
                .map_err(err)?;
            let handles = ports[..k].iter().map(TcpPort::stats_handle).collect();
            Ok(Mesh {
                ports: ports.into_iter().map(AnyPort::Tcp).collect(),
                tels,
                ledger: Ledger::Tcp(handles),
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Sync cluster: ghost devices, the benchmark as coordinator
// ---------------------------------------------------------------------------

/// A parameter vector with no model behind it (the `hadfl-check`
/// trick): `params` clones, `set_params` copies, a local step nudges
/// the prefix.
struct Ghost {
    seed: u64,
    device: usize,
    params: Vec<f32>,
    steps: u64,
}

impl TrainState for Ghost {
    fn params(&self) -> Vec<f32> {
        self.params.clone()
    }
    fn set_params(&mut self, params: &[f32]) -> Result<(), HadflError> {
        if params.len() != self.params.len() {
            return Err(HadflError::InvalidConfig("ghost length mismatch".into()));
        }
        self.params.copy_from_slice(params);
        Ok(())
    }
    fn train_step(&mut self) -> Result<(), HadflError> {
        self.steps += 1;
        ghost::perturb(&mut self.params, self.seed, self.device, self.steps);
        Ok(())
    }
    fn version(&self) -> f64 {
        self.steps as f64
    }
}

/// A device finished its part of a round (ring done, or broadcast
/// blended) at `at_ns`.
struct Done {
    round: u32,
    at_ns: u64,
}

/// How long an idle ghost blocks for its next frame before looking at
/// its state again.
const IDLE_WAIT: Duration = Duration::from_secs(1);
/// A round that takes longer than this has failed.
const ROUND_TIMEOUT: Duration = Duration::from_secs(20);

/// The device side of a sync cluster: pump the port into the actor, and
/// tell the benchmark when a round is done here.
fn device_loop(
    mut port: TimedPort<AnyPort>,
    mut actor: DeviceActor<Ghost>,
    done: mpsc::Sender<Done>,
) -> Res<()> {
    let clock = WallClock::new();
    loop {
        let (wait, in_ring) = match actor.hint(clock.now()) {
            DeviceHint::Finished => return Ok(()),
            // A ghost has nothing to train between rounds.
            DeviceHint::Train => (IDLE_WAIT, false),
            DeviceHint::Ring(wait) => (wait, true),
        };
        match port.recv_timeout(wait).map_err(err)? {
            Some(msg) => {
                let kind = msg.kind();
                let round = round_of(&msg).unwrap_or(0);
                let blended = matches!(msg, Message::ParamSync { .. });
                let before = actor.done_round();
                let open = port.enter(round);
                let handled = actor.on_message(&mut port, msg, clock.now());
                port.exit(open, trace::now_ns(), "on_message", kind);
                handled.map_err(err)?;
                if actor.done_round() > before || blended {
                    actor.on_idle(&mut port).map_err(err)?;
                    let _ = done.send(Done {
                        round,
                        at_ns: trace::now_ns(),
                    });
                }
            }
            None if in_ring => {
                let open = port.enter(actor.ring_round().unwrap_or(0));
                let handled = actor.on_timer(&mut port, clock.now());
                port.exit(open, trace::now_ns(), "on_timer", "");
                handled.map_err(err)?;
            }
            None => {}
        }
    }
}

/// What a sync cluster leaves behind.
pub struct SyncFinal {
    /// Final parameter vector per device, as uploaded to the coordinator.
    pub finals: Vec<Vec<f32>>,
    pub peer_bytes: u64,
    /// A §III-D bypass was declared at some point.
    pub bypassed: bool,
}

pub struct SyncCluster {
    k: usize,
    coord: TimedPort<AnyPort>,
    ledger: Ledger,
    done: mpsc::Receiver<Done>,
    devices: Vec<JoinHandle<Res<()>>>,
}

impl SyncCluster {
    /// Brings up `k` ghost devices of `ghost_len` f32 each on their own
    /// threads. Connections are dialed lazily, by the first rounds.
    pub fn start(
        fabric: Fabric,
        k: usize,
        ghost_len: usize,
        beta: f32,
        seed: u64,
        tracer: Option<Tracer>,
        telemetry: bool,
    ) -> Res<Self> {
        let Mesh {
            mut ports,
            tels,
            ledger,
        } = mesh(fabric, k, telemetry)?;
        let coord = TimedPort::new(ports.pop().expect("k + 1 ports"), tracer.clone());
        let (done_tx, done) = mpsc::channel();
        let devices = ports
            .into_iter()
            .enumerate()
            .map(|(device, port)| {
                let ghost = Ghost {
                    seed,
                    device,
                    params: ghost::init(seed, device, ghost_len),
                    steps: 0,
                };
                let mut actor =
                    DeviceActor::new(device, k + 1, ghost, beta, ProtocolTiming::default())
                        .with_telemetry(tels[device].clone());
                actor.begin_training(Duration::ZERO, 1);
                let port = TimedPort::new(port, tracer.clone());
                let done_tx = done_tx.clone();
                thread::spawn(move || device_loop(port, actor, done_tx))
            })
            .collect();
        Ok(SyncCluster {
            k,
            coord,
            ledger,
            done,
            devices,
        })
    }

    /// One closed-loop round: send the plan to the ring, wait until
    /// every device in it (members and unselected) has reported done.
    /// Returns the seconds from the first plan's send to the moment the
    /// last device finished, read on that device's thread.
    pub fn round(&mut self, plan: &Plan) -> Res<f64> {
        let start_ns = trace::now_ns();
        let open = self.coord.enter(plan.round);
        for &member in &plan.ring {
            self.coord
                .send(
                    member as usize,
                    &Message::RoundPlan {
                        round: plan.round,
                        ring: plan.ring.clone(),
                        broadcaster: plan.broadcaster,
                        unselected: plan.unselected.clone(),
                    },
                )
                .map_err(err)?;
        }
        let mut end_ns = start_ns;
        for _ in 0..plan.ring.len() + plan.unselected.len() {
            let done = self
                .done
                .recv_timeout(ROUND_TIMEOUT)
                .map_err(|_| format!("round {} timed out", plan.round))?;
            if done.round != plan.round {
                return Err(format!(
                    "round {} reported while running round {}",
                    done.round, plan.round
                ));
            }
            end_ns = end_ns.max(done.at_ns);
        }
        // The round's root span ends when its last device did, not when
        // this thread heard about it.
        self.coord.exit(open, end_ns, "round", "");
        Ok((end_ns - start_ns) as f64 / 1e9)
    }

    /// Shuts the devices down and collects their final parameters.
    pub fn finish(mut self) -> Res<SyncFinal> {
        for d in 0..self.k {
            self.coord.send(d, &Message::Shutdown).map_err(err)?;
        }
        let mut finals: Vec<Option<Vec<f32>>> = vec![None; self.k];
        let mut bypassed = false;
        let deadline = Instant::now() + ROUND_TIMEOUT;
        while finals.iter().any(Option::is_none) {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.coord.recv_timeout(left).map_err(err)? {
                Some(Message::FinalParams { device, params }) => {
                    if let Some(slot) = finals.get_mut(device as usize) {
                        *slot = Some(params);
                    }
                }
                Some(Message::BypassWarning { .. }) => bypassed = true,
                Some(_) => {}
                None => return Err("final parameters did not arrive".into()),
            }
        }
        for handle in self.devices.drain(..) {
            handle
                .join()
                .map_err(|_| "device thread panicked".to_string())??;
        }
        Ok(SyncFinal {
            finals: finals.into_iter().flatten().collect(),
            peer_bytes: self.ledger.peer_bytes(),
            bypassed,
        })
    }
}

// ---------------------------------------------------------------------------
// Training drivers
// ---------------------------------------------------------------------------

/// One training run's inputs.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    pub model: &'static str,
    pub powers: Vec<f64>,
    pub n_selected: usize,
    pub rounds: usize,
    pub window: Duration,
    /// Emulated compute time of one local step on a power-1 device.
    pub step_sleep: Duration,
    pub lr: f32,
    /// Seeds the data, its sharding and the model initialisation.
    pub data_seed: u64,
    /// Seeds the protocol's own choices: selection, ring order, broadcaster.
    pub plan_seed: u64,
}

#[derive(Debug, Clone)]
pub struct TrainOutcome {
    pub accuracy: f64,
    pub peer_bytes: u64,
    pub rounds_done: usize,
    /// Devices the coordinator dropped.
    pub dropped: usize,
    /// Local steps per device at the last round's report.
    pub versions: Vec<u64>,
    pub batch: usize,
    /// Real time from the devices starting to the coordinator returning.
    pub wall: Duration,
}

fn train_inputs(spec: &TrainSpec) -> Res<(Workload, HadflConfig)> {
    let workload = Workload::quick(spec.model, spec.data_seed);
    let config = HadflConfig::builder()
        .num_selected(spec.n_selected)
        .lr(spec.lr)
        .seed(spec.plan_seed)
        .build()
        .map_err(err)?;
    Ok((workload, config))
}

/// `exec::run_virtual`: the real actors, one thread, virtual time.
pub fn train_virtual(spec: &TrainSpec) -> Res<TrainOutcome> {
    let (workload, config) = train_inputs(spec)?;
    let opts = ThreadedOptions {
        powers: spec.powers.clone(),
        step_sleep: spec.step_sleep,
        window: spec.window,
        rounds: spec.rounds,
        timing: ProtocolTiming::default(),
    };
    let start = Instant::now();
    let report = run_virtual(&workload, &config, &opts).map_err(err)?;
    let wall = start.elapsed();
    Ok(TrainOutcome {
        accuracy: f64::from(report.final_accuracy),
        peer_bytes: report.peer_bytes,
        rounds_done: report.rounds.len(),
        dropped: report.dropped.len(),
        versions: last_versions(&report.rounds),
        batch: workload.device_batch,
        wall,
    })
}

fn last_versions(rounds: &[ThreadedRound]) -> Vec<u64> {
    rounds
        .last()
        .map(|r| r.versions.clone())
        .unwrap_or_default()
}

/// Length of `model`'s flat parameter vector on the quick workload.
pub fn param_count(model: &str) -> Res<usize> {
    let built = Workload::quick(model, 0).build(2).map_err(err)?;
    Ok((built.model_bytes / 4) as usize)
}

/// The deployed path: `run_device` per device thread and
/// `run_coordinator` on the caller, over loopback TCP.
pub fn train_tcp(spec: &TrainSpec, tracer: Option<Tracer>) -> Res<TrainOutcome> {
    let (workload, config) = train_inputs(spec)?;
    let k = spec.powers.len();
    let timing = ProtocolTiming::default();
    let Mesh {
        mut ports, ledger, ..
    } = mesh(Fabric::Tcp, k, false)?;
    let coord = TimedPort::new(ports.pop().expect("k + 1 ports"), tracer.clone());
    let built = workload.build(k).map_err(err)?;

    let start = Instant::now();
    let run = thread::scope(|scope| {
        let handles: Vec<_> = ports
            .into_iter()
            .zip(built.runtimes)
            .zip(&spec.powers)
            .map(|((port, rt), &power)| {
                let sleep = Duration::from_secs_f64(spec.step_sleep.as_secs_f64() / power);
                let port = TimedPort::new(port, tracer.clone());
                let (config, timing) = (&config, &timing);
                scope.spawn(move || run_device(port, rt, config, sleep, timing))
            })
            .collect();
        let run = run_coordinator(coord, &config, spec.window, spec.rounds, &timing);
        for handle in handles {
            handle
                .join()
                .map_err(|_| "device thread panicked".to_string())?
                .map_err(err)?;
        }
        run.map_err(err)
    })?;
    let wall = start.elapsed();

    if run.final_models.is_empty() {
        return Err("no device uploaded final parameters".into());
    }
    let refs: Vec<&[f32]> = run.final_models.values().map(Vec::as_slice).collect();
    let consensus = average_params(&refs).map_err(err)?;
    let metrics = workload
        .build(k)
        .and_then(|mut b| b.evaluate_params(&consensus))
        .map_err(err)?;
    Ok(TrainOutcome {
        accuracy: f64::from(metrics.accuracy),
        peer_bytes: ledger.peer_bytes(),
        rounds_done: run.rounds.len(),
        dropped: run.dropped.len(),
        versions: last_versions(&run.rounds),
        batch: workload.device_batch,
        wall,
    })
}

// ---------------------------------------------------------------------------
// Layer micro-timings
// ---------------------------------------------------------------------------

/// Which calibration probe a timing is ratioed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    Mm,
    Copy,
}

/// One direct timed call into a layer. `run` performs the call once and
/// returns how long the call itself took, in seconds.
pub struct MicroOp {
    /// Metric base name, e.g. `wire.seal_accum`.
    pub name: &'static str,
    /// `ns`, `us` or `ms`: the unit the raw median is reported in.
    pub unit: &'static str,
    pub probe: ProbeKind,
    pub run: Box<dyn FnMut() -> f64>,
}

fn timed<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    let r = f();
    let dt = t.elapsed().as_secs_f64();
    black_box(r);
    dt
}

fn op(
    name: &'static str,
    unit: &'static str,
    probe: ProbeKind,
    run: impl FnMut() -> f64 + 'static,
) -> MicroOp {
    MicroOp {
        name,
        unit,
        probe,
        run: Box::new(run),
    }
}

fn ghost_vec(len: usize, salt: u64) -> Vec<f32> {
    ghost::init(salt, 0, len)
}

/// A two-device mesh for hop timings; the coordinator's port only keeps
/// the cluster description valid.
struct Pair {
    a: AnyPort,
    b: AnyPort,
    _coord: AnyPort,
}

fn pair(fabric: Fabric) -> Res<Pair> {
    let mut ports = mesh(fabric, 2, false)?.ports;
    let coord = ports.pop().expect("three ports");
    let b = ports.pop().expect("three ports");
    let a = ports.pop().expect("three ports");
    Ok(Pair {
        a,
        b,
        _coord: coord,
    })
}

/// One frame from `a` to `b`: send start to receive return.
fn hop(pair: &mut Pair, msg: &Message) -> f64 {
    timed(|| {
        pair.a.send(1, msg).expect("loopback send");
        pair.b
            .recv_timeout(ROUND_TIMEOUT)
            .expect("loopback receive")
            .expect("frame arrives")
    })
}

/// Handshake out, ack back.
fn rtt(pair: &mut Pair) -> f64 {
    timed(|| {
        pair.a
            .send(1, &Message::Handshake { from: 0 })
            .expect("send");
        pair.b
            .recv_timeout(ROUND_TIMEOUT)
            .expect("recv")
            .expect("handshake");
        pair.b
            .send(0, &Message::HandshakeAck { from: 1 })
            .expect("send");
        pair.a
            .recv_timeout(ROUND_TIMEOUT)
            .expect("recv")
            .expect("ack")
    })
}

/// Binds a `k`-device TCP mesh and forces every lazy dial: each
/// participant greets every other and hears from all of them.
fn mesh_connect(k: usize) -> f64 {
    timed(|| {
        let mut ports = mesh(Fabric::Tcp, k, false).expect("loopback mesh").ports;
        for (from, port) in ports.iter_mut().enumerate() {
            for to in (0..=k).filter(|&to| to != from) {
                port.send(to, &Message::Handshake { from: from as u32 })
                    .expect("dial");
            }
        }
        for port in &mut ports {
            for _ in 0..k {
                port.recv_timeout(ROUND_TIMEOUT)
                    .expect("recv")
                    .expect("greeting");
            }
        }
    })
}

/// Transport overhead of TCP: raw wire bytes (length prefixes, stamps,
/// hellos, heartbeats) over ledger payload bytes, minus one, across
/// `frames` parameter frames of `n` f32.
pub fn tcp_raw_overhead_frac(n: usize, frames: usize) -> Res<f64> {
    let mut pair = pair(Fabric::Tcp)?;
    let msg = Message::ParamAccum {
        round: 1,
        hops: 1,
        params: ghost_vec(n, 1),
    };
    for _ in 0..frames {
        hop(&mut pair, &msg);
    }
    let AnyPort::Tcp(sender) = &pair.a else {
        return Err("not a TCP pair".into());
    };
    Ok(sender.raw_bytes() as f64 / sender.stats().total_bytes() as f64 - 1.0)
}

/// Bytes a sealed `ParamAccum` frame adds to its `n` raw f32.
pub fn frame_overhead_bytes(n: usize) -> usize {
    let msg = Message::ParamAccum {
        round: 1,
        hops: 1,
        params: vec![0.0; n],
    };
    let stamp = CausalStamp {
        origin: 0,
        lamport: 1,
    };
    wire::seal(stamp, &msg).len() - 4 * n
}

/// The direct timed calls, one per layer function on the round's path.
/// `n` is the parameter count the data-path ops run on (the ghost's).
pub fn micro_ops(n: usize, seed: u64) -> Res<Vec<MicroOp>> {
    use ProbeKind::{Copy, Mm};
    let mut ops = Vec::new();

    // tensor
    let mut rng = SeedStream::new(seed);
    let mut a = Tensor::zeros(&[64, 128]);
    let mut b = Tensor::zeros(&[128, 64]);
    for v in a.as_mut_slice().iter_mut().chain(b.as_mut_slice()) {
        *v = rng.normal();
    }
    ops.push(op("tensor.matmul_64x128x64", "us", Mm, move || {
        timed(|| matmul(&a, &b).expect("shapes agree"))
    }));
    let geom = Conv2dGeometry::new(3, 16, 16, 3, 1, 1).map_err(|e| e.to_string())?;
    let img = Tensor::zeros(&[8, 3, 16, 16]);
    ops.push(op("tensor.im2col", "us", Mm, move || {
        timed(|| im2col(&img, &geom).expect("shapes agree"))
    }));

    // nn, on the geometry the training workloads run
    let cnn = Workload::quick("resnet18_lite", seed);
    let mut step_rt = cnn.build(2).map_err(err)?.runtimes.swap_remove(0);
    ops.push(op("nn.cnn_step", "ms", Mm, move || {
        timed(|| step_rt.train_steps(1).expect("trains"))
    }));
    // grad and apply are the two halves of one step: each op runs the
    // other half untimed so the model keeps taking ordinary steps.
    let mut grad_rt = cnn.build(2).map_err(err)?.runtimes.swap_remove(0);
    ops.push(op("nn.cnn_grad", "ms", Mm, move || {
        let dt = timed(|| grad_rt.grad_step().expect("grads"));
        grad_rt.apply_step().expect("applies");
        dt
    }));
    let mut apply_rt = cnn.build(2).map_err(err)?.runtimes.swap_remove(0);
    ops.push(op("nn.cnn_apply", "ms", Mm, move || {
        apply_rt.grad_step().expect("grads");
        timed(|| apply_rt.apply_step().expect("applies"))
    }));
    let mut eval = cnn.build(2).map_err(err)?;
    let eval_params = eval.runtimes[0].model.param_vector();
    ops.push(op("nn.cnn_eval", "ms", Mm, move || {
        timed(|| eval.evaluate_params(&eval_params).expect("evaluates"))
    }));
    let pv_rt = cnn.build(2).map_err(err)?.runtimes.swap_remove(0);
    ops.push(op("nn.param_vector", "ms", Copy, move || {
        timed(|| pv_rt.model.param_vector())
    }));
    let mut mlp_rt = Workload::quick("mlp", seed)
        .build(2)
        .map_err(err)?
        .runtimes
        .swap_remove(0);
    ops.push(op("nn.mlp_step", "ms", Mm, move || {
        timed(|| mlp_rt.train_steps(1).expect("trains"))
    }));

    // workload
    ops.push(op("workload.build", "ms", Mm, move || {
        timed(|| cnn.build(4).expect("builds"))
    }));

    // aggregate, on n f32
    let src = ghost_vec(n, 2);
    let mut acc = ghost_vec(n, 3);
    let src_acc = src.clone();
    ops.push(op("aggregate.accumulate", "ms", Copy, move || {
        timed(|| accumulate_params(&mut acc, &src_acc))
    }));
    let mut scaled = ghost_vec(n, 4);
    ops.push(op("aggregate.scale", "ms", Copy, move || {
        // Down then up, so the values stay in range.
        (timed(|| scale_params(&mut scaled, 0.25)) + timed(|| scale_params(&mut scaled, 4.0))) / 2.0
    }));
    let four: Vec<Vec<f32>> = (0..4).map(|i| ghost_vec(n, 5 + i)).collect();
    ops.push(op("aggregate.average4", "ms", Copy, move || {
        let refs: Vec<&[f32]> = four.iter().map(Vec::as_slice).collect();
        timed(|| average_params(&refs).expect("equal lengths"))
    }));
    let mut local = ghost_vec(n, 9);
    let incoming = src.clone();
    ops.push(op("aggregate.blend", "ms", Copy, move || {
        timed(|| blend_params(&mut local, &incoming, 0.5).expect("equal lengths"))
    }));

    // wire
    let stamp = CausalStamp {
        origin: 1,
        lamport: 7,
    };
    let accum = Message::ParamAccum {
        round: 3,
        hops: 2,
        params: src.clone(),
    };
    let sealed = wire::seal(stamp, &accum);
    ops.push(op("wire.seal_accum", "ms", Copy, {
        let accum = accum.clone();
        move || timed(|| wire::seal(stamp, &accum))
    }));
    ops.push(op("wire.open_accum", "ms", Copy, move || {
        timed(|| wire::open(&sealed).expect("decodes"))
    }));
    let plan = Message::RoundPlan {
        round: 3,
        ring: vec![2, 0, 3, 1],
        broadcaster: 0,
        unselected: Vec::new(),
    };
    let sealed_plan = wire::seal(stamp, &plan);
    ops.push(op("wire.seal_plan", "us", Copy, move || {
        timed(|| wire::seal(stamp, &plan))
    }));
    ops.push(op("wire.open_plan", "us", Copy, move || {
        timed(|| wire::open(&sealed_plan).expect("decodes"))
    }));

    // transport and net: one frame, send start to receive return
    let mut chan = pair(Fabric::Chan)?;
    let frame = accum.clone();
    ops.push(op("transport.chan_hop", "ms", Copy, move || {
        hop(&mut chan, &frame)
    }));
    let tcp = std::rc::Rc::new(std::cell::RefCell::new(pair(Fabric::Tcp)?));
    let tcp_rtt = std::rc::Rc::clone(&tcp);
    ops.push(op("net.tcp_hop", "ms", Copy, move || {
        hop(&mut tcp.borrow_mut(), &accum)
    }));
    ops.push(op("net.tcp_rtt", "us", Copy, move || {
        rtt(&mut tcp_rtt.borrow_mut())
    }));
    ops.push(op("net.mesh_connect", "ms", Copy, || mesh_connect(4)));

    // strategy
    for (name, k) in [("strategy.plan_k4", 4usize), ("strategy.plan_k64", 64)] {
        let config = HadflConfig::builder()
            .num_selected(k / 2)
            .seed(seed)
            .build()
            .map_err(err)?;
        let mut generator = StrategyGenerator::new(&config);
        let available: Vec<DeviceId> = (0..k).map(DeviceId).collect();
        let versions: Vec<f64> = (0..k).map(|i| 100.0 + 7.0 * i as f64).collect();
        ops.push(op(name, "us", Mm, move || {
            timed(|| generator.plan_round(&available, &versions).expect("plans"))
        }));
    }

    // par: a forced two-worker dispatch of nothing
    ops.push(op("par.dispatch", "us", Mm, || {
        timed(|| hadfl_par::with_threads_forced(2, || hadfl_par::plan(1).run(2, |_| {})))
    }));

    // observers when off: per call, from a batch
    const BATCH: usize = 1000;
    let tel = Telemetry::disabled();
    ops.push(op("telemetry.emit_disabled", "ns", Mm, move || {
        timed(|| {
            for i in 0..BATCH {
                black_box(&tel).emit(
                    Duration::ZERO,
                    EventKind::DeviceStarted { device: i as u32 },
                );
            }
        }) / BATCH as f64
    }));
    ops.push(op("prof.scope_disabled", "ns", Mm, || {
        timed(|| {
            for _ in 0..BATCH {
                drop(black_box(hadfl_prof::scope("bench")));
            }
        }) / BATCH as f64
    }));

    Ok(ops)
}

/// Median CNN step time at one worker over the same at two.
pub fn cnn_step_speedup_t2(seed: u64, samples: usize) -> Res<f64> {
    let cnn = Workload::quick("resnet18_lite", seed);
    let mut times = [Vec::new(), Vec::new()];
    for (slot, threads) in [(0, 1usize), (1, 2)] {
        let mut rt = cnn.build(2).map_err(err)?.runtimes.swap_remove(0);
        hadfl_par::with_threads(threads, || {
            for i in 0..samples + 3 {
                let dt = timed(|| rt.train_steps(1).expect("trains"));
                if i >= 3 {
                    times[slot].push(dt);
                }
            }
        });
    }
    Ok(crate::stats::median(&times[0]) / crate::stats::median(&times[1]))
}
