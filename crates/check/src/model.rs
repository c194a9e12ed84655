//! The checked system: the real protocol actors under a ghost model,
//! a fixed planner, per-pair FIFO channels, and a gated action set.
//!
//! A [`World`] is one global state of a `k`-device cluster plus
//! coordinator: every actor's full state and every in-flight message.
//! [`World::enabled_actions`] lists the schedulable events;
//! [`World::apply`] executes one and re-checks the safety invariants.
//! Everything is deterministic — the explorer owns all nondeterminism.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::time::Duration;

use hadfl::coordinator::{RoundPlan, RuntimeSupervisor};
use hadfl::exec::{
    Actor, CoordPhase, CoordinatorActor, DeviceActor, Planner, ProtocolTiming, TrainState, Wake,
};
use hadfl::topology::Ring;
use hadfl::transport::{coordinator_id, Port};
use hadfl::wire::Message;
use hadfl::HadflError;
use hadfl_simnet::{DeviceId, NetStats};

/// One bounded model-checking problem.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Devices in the cluster (the coordinator is extra).
    pub devices: usize,
    /// Synchronization rounds the coordinator runs.
    pub rounds: usize,
    /// Ring size per round: the planner selects the first `select`
    /// available devices; the rest receive the broadcast.
    pub select: usize,
    /// Maximum crash events the scheduler may inject.
    pub crashes: usize,
    /// Let the coordinator's collect deadline elapse even while report
    /// traffic is still in flight (models a device that is merely slow
    /// being dropped). Implies tolerating [`HadflError::ClusterDead`].
    pub aggressive_deadline: bool,
    /// Treat a `< 2 alive` cluster death as an acceptable outcome
    /// instead of a violation.
    pub allow_cluster_dead: bool,
    /// Hard cap on explored states (exploration reports truncation).
    pub max_states: usize,
    /// Optional BFS depth bound (`None` explores to closure).
    pub max_depth: Option<usize>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            devices: 3,
            rounds: 1,
            select: 3,
            crashes: 0,
            aggressive_deadline: false,
            allow_cluster_dead: false,
            max_states: 1_000_000,
            max_depth: None,
        }
    }
}

impl CheckConfig {
    /// Validates the bounds the model was designed for.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] outside 2–6 devices or
    /// with a ring smaller than two members.
    pub fn validate(&self) -> Result<(), HadflError> {
        if !(2..=6).contains(&self.devices) {
            return Err(HadflError::InvalidConfig(format!(
                "hadfl-check models 2-6 devices, got {}",
                self.devices
            )));
        }
        if self.select < 2 || self.select > self.devices {
            return Err(HadflError::InvalidConfig(format!(
                "select must be 2..=devices, got {}",
                self.select
            )));
        }
        if self.rounds == 0 {
            return Err(HadflError::InvalidConfig("rounds must be >= 1".into()));
        }
        Ok(())
    }
}

/// A safety or liveness property the protocol broke, with enough
/// detail to read the counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// An in-flight `ParamAccum` does not hold each member exactly
    /// zero-or-once, or its entry sum disagrees with its `hops` tag.
    AccumAlgebra(String),
    /// An in-flight merged/broadcast model is not a uniform average of
    /// distinct members.
    MergedAlgebra(String),
    /// A device's `done_round` or the coordinator's round went
    /// backwards.
    RoundRegression(String),
    /// Payload bytes stopped adding up: sent != delivered + sunk +
    /// in flight.
    LedgerLeak(String),
    /// An actor returned an error the protocol does not allow here.
    ProtocolError(String),
    /// The cluster died (< 2 devices) in a configuration that forbids
    /// it.
    ClusterDeath(String),
    /// A failure-quiescent state was reached where nothing can run but
    /// the run is not complete (deadlock / stranded device).
    Stranded(String),
    /// A reachable state has no path to completion even with no
    /// further failures (e.g. an endless probe/ack cycle).
    Livelock(String),
}

impl Violation {
    /// Stable machine-readable kind for tests and tooling.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::AccumAlgebra(_) => "accum-algebra",
            Violation::MergedAlgebra(_) => "merged-algebra",
            Violation::RoundRegression(_) => "round-regression",
            Violation::LedgerLeak(_) => "ledger-leak",
            Violation::ProtocolError(_) => "protocol-error",
            Violation::ClusterDeath(_) => "cluster-death",
            Violation::Stranded(_) => "stranded",
            Violation::Livelock(_) => "livelock",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let detail = match self {
            Violation::AccumAlgebra(d)
            | Violation::MergedAlgebra(d)
            | Violation::RoundRegression(d)
            | Violation::LedgerLeak(d)
            | Violation::ProtocolError(d)
            | Violation::ClusterDeath(d)
            | Violation::Stranded(d)
            | Violation::Livelock(d) => d,
        };
        write!(f, "{}: {}", self.kind(), detail)
    }
}

/// One schedulable event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Pop the oldest frame of the `from → to` channel and deliver it.
    Deliver {
        /// Sending participant.
        from: usize,
        /// Receiving participant.
        to: usize,
    },
    /// A device's in-ring wait elapses (probe arming / death call).
    DeviceTimer {
        /// The device whose timer fires.
        device: usize,
    },
    /// The coordinator's pending deadline elapses.
    CoordTimer,
    /// A device dies silently.
    Crash {
        /// The device that dies.
        device: usize,
    },
}

impl Action {
    /// Is this a failure injection (vs. normal progress)?
    pub fn is_crash(&self) -> bool {
        matches!(self, Action::Crash { .. })
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Deliver { from, to } => write!(f, "deliver {from}->{to}"),
            Action::DeviceTimer { device } => write!(f, "timer@{device}"),
            Action::CoordTimer => write!(f, "timer@coord"),
            Action::Crash { device } => write!(f, "crash {device}"),
        }
    }
}

/// The training-state stand-in that makes ring arithmetic checkable:
/// device `i`'s parameters are always the basis vector `e_i`, so an
/// accumulation's entries count *how often each member was added* and
/// a merged model's entries expose the averaging weights.
#[derive(Debug, Clone)]
pub struct GhostModel {
    me: usize,
    k: usize,
    steps: u64,
    installed: Vec<f32>,
}

impl GhostModel {
    /// The ghost of device `me` in a `k`-device cluster.
    pub fn new(me: usize, k: usize) -> Self {
        GhostModel {
            me,
            k,
            steps: 0,
            installed: Vec::new(),
        }
    }
}

impl TrainState for GhostModel {
    fn params(&self) -> Vec<f32> {
        let mut basis = vec![0.0; self.k];
        basis[self.me] = 1.0;
        basis
    }

    fn set_params(&mut self, params: &[f32]) -> Result<(), HadflError> {
        self.installed = params.to_vec();
        Ok(())
    }

    fn train_step(&mut self) -> Result<(), HadflError> {
        self.steps += 1;
        Ok(())
    }

    fn version(&self) -> f64 {
        self.steps as f64
    }

    fn digest(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.me as u64).to_le_bytes());
        out.extend_from_slice(&self.steps.to_le_bytes());
        out.extend_from_slice(&(self.installed.len() as u64).to_le_bytes());
        for p in &self.installed {
            out.extend_from_slice(&p.to_bits().to_le_bytes());
        }
    }
}

/// A deterministic planner: selects the first `select` available
/// devices, rings them in id order, first member broadcasts. All the
/// paper's selection randomness is irrelevant to protocol safety, so
/// the checker pins it.
#[derive(Debug, Clone)]
pub struct FixedPlanner {
    select: usize,
}

impl Planner for FixedPlanner {
    fn plan(&mut self, available: &[DeviceId], _versions: &[f64]) -> Result<RoundPlan, HadflError> {
        let n = self.select.min(available.len());
        let chosen: Vec<DeviceId> = available[..n].to_vec();
        let ring = Ring::from_order(chosen.clone())?;
        let broadcaster = chosen[0];
        Ok(RoundPlan {
            selected: chosen,
            ring,
            unselected: available[n..].to_vec(),
            broadcaster,
        })
    }

    fn digest(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.select as u64).to_le_bytes());
    }
}

/// A [`Port`] that only collects outbound frames; receiving is the
/// scheduler's job, so both `recv` flavours report "nothing pending".
#[derive(Debug)]
struct SimPort {
    me: usize,
    participants: usize,
    outbox: Vec<(usize, Message)>,
}

impl SimPort {
    fn new(me: usize, participants: usize) -> Self {
        SimPort {
            me,
            participants,
            outbox: Vec::new(),
        }
    }
}

impl Port for SimPort {
    fn id(&self) -> usize {
        self.me
    }

    fn participants(&self) -> usize {
        self.participants
    }

    fn send(&mut self, to: usize, msg: &Message) -> Result<(), HadflError> {
        self.outbox.push((to, msg.clone()));
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<Message>, HadflError> {
        Ok(None)
    }

    fn recv_timeout(&mut self, _timeout: Duration) -> Result<Option<Message>, HadflError> {
        Ok(None)
    }

    fn stats(&self) -> NetStats {
        NetStats::new()
    }
}

// `Up` dwarfs the unit variants, but these enums live inline in
// `World`, the BFS's hot clone; boxing the actors would put a heap
// hop on every clone of every (overwhelmingly `Up`) node.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
enum DeviceNode {
    Up(DeviceActor<GhostModel>),
    Crashed,
}

#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
enum CoordNode {
    Up(CoordinatorActor<FixedPlanner>),
    /// The coordinator exited with [`HadflError::ClusterDead`]; frames
    /// addressed to it from now on fall on the floor.
    Dead,
}

/// One global state of the modeled cluster.
#[derive(Debug, Clone)]
pub struct World {
    cfg: CheckConfig,
    devices: Vec<DeviceNode>,
    coord: CoordNode,
    /// Per ordered pair, the FIFO of in-flight frames — the TCP fabric
    /// guarantees order per connection but none across connections.
    channels: BTreeMap<(usize, usize), VecDeque<Message>>,
    crashes_left: usize,
    // --- byte ledger: deliberately excluded from `digest` (the
    // counters grow monotonically and would defeat deduplication);
    // conservation is re-checked after every transition instead.
    bytes_sent: u64,
    bytes_delivered: u64,
    bytes_sunk: u64,
}

impl World {
    /// The initial state: all devices training, the coordinator opening
    /// round 1's window, no frames in flight.
    pub fn new(cfg: CheckConfig) -> Self {
        let k = cfg.devices;
        let devices = (0..k)
            .map(|d| {
                DeviceNode::Up(DeviceActor::new(
                    d,
                    k + 1,
                    GhostModel::new(d, k),
                    0.5,
                    ProtocolTiming::zero(),
                ))
            })
            .collect();
        // The fixed planner ignores versions, so the α is immaterial.
        let supervisor = RuntimeSupervisor::new(0.5, k).expect("0.5 is in (0, 1)");
        let coord = CoordNode::Up(CoordinatorActor::new(
            k,
            FixedPlanner { select: cfg.select },
            supervisor,
            Duration::ZERO,
            cfg.rounds,
            ProtocolTiming::zero(),
            Duration::ZERO,
        ));
        let crashes_left = cfg.crashes;
        World {
            cfg,
            devices,
            coord,
            channels: BTreeMap::new(),
            crashes_left,
            bytes_sent: 0,
            bytes_delivered: 0,
            bytes_sunk: 0,
        }
    }

    fn coord_id(&self) -> usize {
        coordinator_id(self.cfg.devices)
    }

    /// The round the coordinator is windowing or collecting, if any:
    /// its round tags must be monotone.
    fn coord_round(&self) -> Option<usize> {
        let CoordNode::Up(coord) = &self.coord else {
            return None;
        };
        match coord.script().phase() {
            CoordPhase::Window { round, .. } | CoordPhase::Collect { round, .. } => Some(*round),
            CoordPhase::Final { .. } | CoordPhase::Done => None,
        }
    }

    fn device_crashed(&self, d: usize) -> bool {
        matches!(self.devices.get(d), Some(DeviceNode::Crashed))
    }

    fn inbound_empty(&self, to: usize) -> bool {
        self.channels
            .iter()
            .all(|(&(_, t), q)| t != to || q.is_empty())
    }

    /// Has the run reached its intended outcome: every surviving device
    /// shut down, the coordinator done (or acceptably dead)?
    pub fn is_complete(&self) -> bool {
        let devices_done = self.devices.iter().all(|d| match d {
            DeviceNode::Up(a) => a.is_finished(),
            DeviceNode::Crashed => true,
        });
        let coord_done = match &self.coord {
            CoordNode::Up(c) => c.wake() == Wake::Done,
            CoordNode::Dead => self.cfg.allow_cluster_dead,
        };
        devices_done && coord_done
    }

    /// The oldest frame of a channel (trace annotation).
    pub fn peek(&self, from: usize, to: usize) -> Option<&Message> {
        self.channels.get(&(from, to)).and_then(VecDeque::front)
    }

    /// Every event the scheduler may fire in this state, in a
    /// deterministic order.
    ///
    /// The timer gates encode the production timescale separation
    /// (handshake wait ≪ report deadline ≪ sync window):
    ///
    /// - a device's in-ring wait only elapses when nothing addressed to
    ///   it is still in flight, and an armed probe's deadline only
    ///   elapses unanswered when the suspect really is dead;
    /// - the coordinator's window only closes after the cluster went
    ///   quiet and no ring is still running;
    /// - the collect/final deadline only fires once everyone it is
    ///   still waiting for is dead — unless `aggressive_deadline`
    ///   explores the "device was merely slow" race;
    /// - deliveries to the coordinator are held while its window is
    ///   open (the blocking coordinator sleeps through the window;
    ///   frames wait in its mailbox).
    pub fn enabled_actions(&self) -> Vec<Action> {
        let coord_id = self.coord_id();
        let mut actions = Vec::new();

        for (&(from, to), queue) in &self.channels {
            if queue.is_empty() {
                continue;
            }
            let deliverable = if to == coord_id {
                match &self.coord {
                    CoordNode::Up(c) => !matches!(c.wake(), Wake::Sleep(_)),
                    CoordNode::Dead => true, // drains to nowhere
                }
            } else {
                true // crashed devices' inbound was cleared at crash
            };
            if deliverable {
                actions.push(Action::Deliver { from, to });
            }
        }

        for d in 0..self.cfg.devices {
            let DeviceNode::Up(actor) = &self.devices[d] else {
                continue;
            };
            if actor.ring_round().is_none() || !self.inbound_empty(d) {
                continue;
            }
            match actor.probe_suspect() {
                Some(suspect) if !self.device_crashed(suspect) => {}
                _ => actions.push(Action::DeviceTimer { device: d }),
            }
        }

        if let CoordNode::Up(coord) = &self.coord {
            let script = coord.script();
            let enabled = match coord.wake() {
                Wake::Sleep(_) => {
                    (0..self.cfg.devices).all(|d| self.inbound_empty(d))
                        && self.devices.iter().all(|d| match d {
                            DeviceNode::Up(a) => a.ring_round().is_none(),
                            DeviceNode::Crashed => true,
                        })
                }
                Wake::Recv(_) => {
                    (self.cfg.aggressive_deadline
                        && matches!(script.phase(), CoordPhase::Collect { .. }))
                        || (self.inbound_empty(coord_id)
                            && script.awaiting().all(|d| self.device_crashed(d)))
                }
                Wake::Done => false,
            };
            if enabled {
                actions.push(Action::CoordTimer);
            }
        }

        if self.crashes_left > 0 {
            for d in 0..self.cfg.devices {
                if let DeviceNode::Up(actor) = &self.devices[d] {
                    if !actor.is_finished() {
                        actions.push(Action::Crash { device: d });
                    }
                }
            }
        }

        actions
    }

    /// Executes one action and re-checks every safety invariant.
    ///
    /// # Errors
    ///
    /// Returns the [`Violation`] the transition exposed, if any.
    pub fn apply(&mut self, action: &Action) -> Result<(), Violation> {
        let pre_done: Vec<Option<u32>> = self
            .devices
            .iter()
            .map(|d| match d {
                DeviceNode::Up(a) => Some(a.done_round()),
                DeviceNode::Crashed => None,
            })
            .collect();
        let pre_coord_round = self.coord_round();

        match action {
            Action::Deliver { from, to } => self.deliver(*from, *to)?,
            Action::DeviceTimer { device } => self.device_timer(*device)?,
            Action::CoordTimer => self.coord_timer()?,
            Action::Crash { device } => self.crash(*device),
        }

        self.check_rounds(&pre_done, pre_coord_round)?;
        self.check_frames()?;
        self.check_ledger()
    }

    fn deliver(&mut self, from: usize, to: usize) -> Result<(), Violation> {
        let Some(msg) = self
            .channels
            .get_mut(&(from, to))
            .and_then(VecDeque::pop_front)
        else {
            return Err(Violation::ProtocolError(format!(
                "schedule delivers on empty channel {from}->{to}"
            )));
        };
        let bytes = msg.encoded_len() as u64;
        if to == self.coord_id() {
            match &mut self.coord {
                CoordNode::Up(coord) => {
                    self.bytes_delivered += bytes;
                    let mut port = SimPort::new(to, self.cfg.devices + 1);
                    let result = coord.on_message(&mut port, msg, Duration::ZERO);
                    self.route(to, port.outbox);
                    self.coord_result(result)?;
                }
                CoordNode::Dead => self.bytes_sunk += bytes,
            }
        } else {
            match &mut self.devices[to] {
                DeviceNode::Up(actor) => {
                    self.bytes_delivered += bytes;
                    let mut port = SimPort::new(to, self.cfg.devices + 1);
                    let result = actor.on_message(&mut port, msg, Duration::ZERO);
                    self.route(to, port.outbox);
                    if let Err(e) = result {
                        return Err(Violation::ProtocolError(format!(
                            "device {to} failed handling a delivery: {e}"
                        )));
                    }
                }
                DeviceNode::Crashed => self.bytes_sunk += bytes,
            }
        }
        Ok(())
    }

    fn device_timer(&mut self, device: usize) -> Result<(), Violation> {
        let DeviceNode::Up(actor) = &mut self.devices[device] else {
            return Err(Violation::ProtocolError(format!(
                "schedule fires a timer on crashed device {device}"
            )));
        };
        let mut port = SimPort::new(device, self.cfg.devices + 1);
        let result = actor.on_timer(&mut port, Duration::ZERO);
        self.route(device, port.outbox);
        if let Err(e) = result {
            return Err(Violation::ProtocolError(format!(
                "device {device} failed its timer: {e}"
            )));
        }
        Ok(())
    }

    fn coord_timer(&mut self) -> Result<(), Violation> {
        let coord_id = self.coord_id();
        let CoordNode::Up(coord) = &mut self.coord else {
            return Err(Violation::ProtocolError(
                "schedule fires a timer on the dead coordinator".into(),
            ));
        };
        let mut port = SimPort::new(coord_id, self.cfg.devices + 1);
        let result = coord.on_wake(&mut port, Duration::ZERO);
        self.route(coord_id, port.outbox);
        self.coord_result(result)
    }

    fn coord_result(&mut self, result: Result<(), HadflError>) -> Result<(), Violation> {
        match result {
            Ok(()) => Ok(()),
            Err(HadflError::ClusterDead { round }) => {
                self.coord = CoordNode::Dead;
                if self.cfg.allow_cluster_dead {
                    Ok(())
                } else {
                    Err(Violation::ClusterDeath(format!(
                        "cluster fell below 2 devices in round {round}"
                    )))
                }
            }
            Err(e) => Err(Violation::ProtocolError(format!("coordinator failed: {e}"))),
        }
    }

    fn crash(&mut self, device: usize) {
        self.devices[device] = DeviceNode::Crashed;
        self.crashes_left -= 1;
        // Frames already in flight *from* the casualty were sent before
        // death and may still arrive; frames *to* it die with its
        // socket. (Crash-before-send interleavings cover the lost-
        // outbound cases.)
        for (&(_, to), queue) in self.channels.iter_mut() {
            if to == device {
                for msg in queue.drain(..) {
                    self.bytes_sunk += msg.encoded_len() as u64;
                }
            }
        }
    }

    /// Routes freshly emitted frames; sends to dead participants sink
    /// immediately (the transport reports such sends as errors and the
    /// protocol treats them as hints — §III-D handshakes decide).
    fn route(&mut self, from: usize, sends: Vec<(usize, Message)>) {
        let coord_id = self.coord_id();
        for (to, msg) in sends {
            let bytes = msg.encoded_len() as u64;
            self.bytes_sent += bytes;
            let target_up = if to == coord_id {
                matches!(self.coord, CoordNode::Up(_))
            } else {
                matches!(self.devices.get(to), Some(DeviceNode::Up(_)))
            };
            if target_up {
                self.channels.entry((from, to)).or_default().push_back(msg);
            } else {
                self.bytes_sunk += bytes;
            }
        }
    }

    fn check_rounds(
        &self,
        pre_done: &[Option<u32>],
        pre_coord_round: Option<usize>,
    ) -> Result<(), Violation> {
        for (d, pre) in pre_done.iter().enumerate() {
            let (Some(pre), DeviceNode::Up(actor)) = (pre, &self.devices[d]) else {
                continue;
            };
            if actor.done_round() < *pre {
                return Err(Violation::RoundRegression(format!(
                    "device {d} done_round fell {} -> {}",
                    pre,
                    actor.done_round()
                )));
            }
            if let Some(r) = actor.ring_round() {
                if r <= actor.done_round() {
                    return Err(Violation::RoundRegression(format!(
                        "device {d} re-entered ring round {r} (done {})",
                        actor.done_round()
                    )));
                }
            }
        }
        if let (Some(pre), Some(now)) = (pre_coord_round, self.coord_round()) {
            if now < pre {
                return Err(Violation::RoundRegression(format!(
                    "coordinator round fell {pre} -> {now}"
                )));
            }
        }
        Ok(())
    }

    fn check_frames(&self) -> Result<(), Violation> {
        for (&(from, to), queue) in &self.channels {
            for msg in queue {
                self.check_frame(from, to, msg)?;
            }
        }
        Ok(())
    }

    /// The "counted exactly once" algebra over ghost basis vectors.
    fn check_frame(&self, from: usize, to: usize, msg: &Message) -> Result<(), Violation> {
        match msg {
            Message::ParamAccum {
                round,
                hops,
                params,
            } => {
                if params.iter().any(|&p| p != 0.0 && p != 1.0) {
                    return Err(Violation::AccumAlgebra(format!(
                        "accum {from}->{to} (round {round}) counts a member \
                         more than once: {params:?}"
                    )));
                }
                let sum: f32 = params.iter().sum();
                if sum != *hops as f32 || *hops == 0 || *hops as usize > self.cfg.devices {
                    return Err(Violation::AccumAlgebra(format!(
                        "accum {from}->{to} (round {round}) sums to {sum} \
                         but claims {hops} hops"
                    )));
                }
            }
            Message::MergedParams { round, params, .. } | Message::ParamSync { round, params } => {
                let nonzero: Vec<f32> = params.iter().copied().filter(|&p| p != 0.0).collect();
                let m = nonzero.len();
                let uniform = m > 0
                    && nonzero.iter().all(|&p| p.to_bits() == nonzero[0].to_bits())
                    && (nonzero[0] * m as f32 - 1.0).abs() < 1e-4;
                if !uniform {
                    return Err(Violation::MergedAlgebra(format!(
                        "merged model {from}->{to} (round {round}) is not a \
                         uniform average of distinct members: {params:?}"
                    )));
                }
            }
            _ => {}
        }
        Ok(())
    }

    fn check_ledger(&self) -> Result<(), Violation> {
        let in_flight: u64 = self
            .channels
            .values()
            .flatten()
            .map(|m| m.encoded_len() as u64)
            .sum();
        if self.bytes_sent != self.bytes_delivered + self.bytes_sunk + in_flight {
            return Err(Violation::LedgerLeak(format!(
                "sent {} != delivered {} + sunk {} + in-flight {}",
                self.bytes_sent, self.bytes_delivered, self.bytes_sunk, in_flight
            )));
        }
        Ok(())
    }

    /// Canonical bytes identifying this state (the ledger counters are
    /// excluded; see the field comment).
    pub fn digest(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(&(self.crashes_left as u64).to_le_bytes());
        for device in &self.devices {
            match device {
                DeviceNode::Up(actor) => {
                    out.push(1);
                    actor.digest_into(&mut out);
                }
                DeviceNode::Crashed => out.push(0),
            }
        }
        match &self.coord {
            CoordNode::Up(coord) => {
                out.push(1);
                coord.digest_into(&mut out);
            }
            CoordNode::Dead => out.push(0),
        }
        for (&(from, to), queue) in &self.channels {
            if queue.is_empty() {
                continue;
            }
            out.extend_from_slice(&(from as u64).to_le_bytes());
            out.extend_from_slice(&(to as u64).to_le_bytes());
            out.extend_from_slice(&(queue.len() as u64).to_le_bytes());
            for msg in queue {
                let frame = msg.encode();
                out.extend_from_slice(&(frame.len() as u64).to_le_bytes());
                out.extend_from_slice(&frame);
            }
        }
        out
    }

    /// A short human-readable participant name.
    pub fn endpoint_name(&self, id: usize) -> String {
        if id == self.coord_id() {
            "coord".into()
        } else {
            format!("dev{id}")
        }
    }
}

/// A one-line summary of a frame for trace printing.
pub fn describe_message(msg: &Message) -> String {
    match msg {
        Message::ParamSync { round, .. } => format!("ParamSync(round {round})"),
        Message::VersionReport { device, round, .. } => {
            format!("VersionReport(dev {device}, round {round})")
        }
        Message::Handshake { from } => format!("Handshake(from {from})"),
        Message::HandshakeAck { from } => format!("HandshakeAck(from {from})"),
        Message::BypassWarning { dead } => format!("BypassWarning(dead {dead})"),
        Message::ParamAccum { round, hops, .. } => {
            format!("ParamAccum(round {round}, hops {hops})")
        }
        Message::MergedParams { round, ttl, .. } => {
            format!("MergedParams(round {round}, ttl {ttl})")
        }
        Message::RoundPlan { round, ring, .. } => {
            format!("RoundPlan(round {round}, ring {ring:?})")
        }
        Message::ReportRequest { round } => format!("ReportRequest(round {round})"),
        Message::Shutdown => "Shutdown".into(),
        Message::Hello { from } => format!("Hello(from {from})"),
        Message::FinalParams { device, .. } => format!("FinalParams(dev {device})"),
        Message::TelemetryBatch { node, dropped, .. } => {
            format!("TelemetryBatch(node {node}, dropped {dropped})")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::CheckConfig;

    #[test]
    fn validate_accepts_up_to_six_devices() {
        let with = |devices| CheckConfig {
            devices,
            select: devices,
            ..CheckConfig::default()
        };
        for devices in [5, 6] {
            assert!(with(devices).validate().is_ok(), "{devices} devices");
        }
        assert!(with(7).validate().is_err(), "7 devices");
    }
}
