//! Deployed executor: HADFL over a real message fabric.
//!
//! The virtual-time [`crate::driver`] is what the experiments use; this
//! module runs the same protocol with *actual concurrency*, the way the
//! paper deploys it — one participant per thread or process,
//! heterogeneity emulated with `sleep()` (exactly the paper's method:
//! a power-`p` device takes one local step per `step_sleep / p` of its
//! port's clock, its compute included),
//! parameters moving as [`Message`] frames over a [`Port`], and
//! the ring reduce/distribute executed hop by hop between devices. The
//! coordinator only ever sees control-plane messages plus the final
//! parameter uploads.
//!
//! # Actors and drivers
//!
//! The protocol logic lives in two *single-steppable actors* —
//! [`DeviceActor`] (`device.rs`) and [`CoordinatorActor`]
//! (`coordinator.rs`) — whose only side effects are sends on the
//! [`Port`] they are handed. Each actor answers one question — when do
//! you next need the clock, and may mail reach you before then? — with
//! a [`Wake`] ([`DeviceActor::wake`], [`CoordinatorActor::wake`]), and
//! advances one event at a time: `on_message` for a delivered frame,
//! `on_wake` when its wake's instant comes. Each actor owns its
//! deadlines: the coordinator its window and collection deadlines, the
//! device its step period ([`DeviceActor::with_step_period`]) and its
//! ring's silence and probe deadlines. Inside the device actor, the
//! §III-D ring is one more step function: `ring.rs`'s
//! `RingMember::step` takes an event (a plan, a ring frame, a timer, an
//! ack, a warning) and returns the actions it implies (send,
//! accumulate, install, probe, warn, bypass, exit). It is pure — no
//! port, clock, model or telemetry — and [`DeviceActor`] is the shell
//! that maps each action onto those. The coordinator is split the same
//! way: `script.rs`'s [`CoordScript`] takes an input (a version report,
//! a final upload, a ring's death warning, a wake) and returns the
//! outputs it implies (request reports, drop, forecast, plan, round
//! complete, shutdown to a set, fail). It owns every decision and state
//! of the coordinator — the phase ([`CoordPhase`]), the alive and
//! dropped sets, the Eq. (7) supervisor, the Eq. (8) planner, the round
//! log and the final models — and [`CoordinatorActor`] is the shell
//! that maps its outputs onto sends and telemetry events. `hadfl-check`
//! schedules these very actors exhaustively through every message
//! ordering, in virtual zero-time.
//!
//! The executors (`run.rs`) pump a port into an actor and read nothing
//! of it but its [`Wake`]. The blocking one sleeps out a
//! [`Wake::Sleep`] and blocks for mail until a [`Wake::Recv`]'s
//! instant; [`run_device`] and [`run_coordinator`] are it over one
//! actor each. They exist in one form each and take everything
//! injectable from the port they are given: they sleep and read time
//! on [`Port::clock`] (the [`crate::clock`] seam) and log to
//! [`Port::telemetry`], so a
//! [`ChannelTransport::claim_instrumented`] or `hadfl-net`
//! `into_port_instrumented` port instruments its loop on the clock its
//! own frame events use, and a plain port runs it on a wall clock with
//! telemetry off. [`run_cluster`] runs one [`run_device`] thread per
//! device port and [`run_coordinator`] on the caller, over any fabric;
//! [`run_threaded`] is that over the in-process [`ChannelTransport`],
//! and `hadfl-net` hands the same loops TCP ports, in one process or
//! many. [`run_virtual`] steps the same actors over the same hub from
//! one thread on a [`ManualClock`], jumping from wake to wake; its body,
//! [`run_virtual_cluster`], does that for any [`TrainState`] and
//! [`Planner`], with telemetry handles and crash faults as inputs.
//!
//! Fault tolerance follows §III-D: a ring member that goes silent is
//! probed with [`Message::Handshake`]; absent an ack, the prober
//! broadcasts [`Message::BypassWarning`] and the ring closes around the
//! dead device, the dead device's upstream re-sending its last frame to
//! its new downstream. A ring frame whose length is not the receiver's
//! model's takes the same path: the receiver bypasses its upstream, the
//! frame's only sender, and goes on. The coordinator also drops devices that miss a
//! report deadline and excludes them from later plans.
//!
//! [`Port`]: crate::transport::Port
//! [`Port::clock`]: crate::transport::Port::clock
//! [`Port::telemetry`]: crate::transport::Port::telemetry
//! [`ChannelTransport`]: crate::transport::ChannelTransport
//! [`ChannelTransport::claim_instrumented`]: crate::transport::ChannelTransport::claim_instrumented
//! [`ManualClock`]: crate::clock::ManualClock
//! [`Message`]: crate::wire::Message
//! [`Message::Handshake`]: crate::wire::Message::Handshake
//! [`Message::BypassWarning`]: crate::wire::Message::BypassWarning

// Protocol hot path: panicking on a malformed peer frame or a poisoned
// invariant would take down a device thread silently. Every unwrap that
// remains must be an `#[allow]` with its invariant spelled out.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::time::Duration;

use crate::aggregate::average_params;
use crate::coordinator::{RoundPlan, StrategyGenerator};
use crate::error::HadflError;
use crate::trace::CommSummary;
use crate::transport::Port;
use crate::wire::Message;
use crate::workload::DeviceRuntime;
use hadfl_simnet::DeviceId;

mod coordinator;
mod device;
mod ring;
mod run;
mod script;
#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests;

pub use coordinator::CoordinatorActor;
pub use device::{DeviceActor, DeviceHint};
pub use run::{
    run_cluster, run_coordinator, run_device, run_threaded, run_virtual, run_virtual_cluster,
};
pub use script::{CoordPhase, CoordScript};

/// An actor's one answer to an executor: when it next needs the clock,
/// and whether mail may reach it before then. Instants are absolute, on
/// the clock the actor is driven by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// Mail waits: at this instant, call the actor's `on_wake` first.
    Sleep(Duration),
    /// Mail is handled as it arrives; at this instant, with none
    /// pending, call `on_wake`.
    Recv(Duration),
    /// The actor is done: stop driving it.
    Done,
}

impl Wake {
    /// The instant `on_wake` is due at; `None` once done.
    pub fn at(self) -> Option<Duration> {
        match self {
            Wake::Sleep(at) | Wake::Recv(at) => Some(at),
            Wake::Done => None,
        }
    }
}

/// What an executor drives: one actor's answer to "when do you next
/// need the clock, and may mail reach you before then?" ([`Wake`]),
/// and the two calls an executor makes on it.
pub trait Actor {
    /// When the actor next needs the clock.
    fn wake(&self) -> Wake;

    /// Delivers one message to the actor.
    ///
    /// # Errors
    ///
    /// Returns the actor's protocol and substrate errors.
    fn on_message<P: Port>(
        &mut self,
        port: &mut P,
        msg: Message,
        now: Duration,
    ) -> Result<(), HadflError>;

    /// The instant [`wake`](Self::wake) named has come.
    ///
    /// # Errors
    ///
    /// Returns the actor's protocol and substrate errors.
    fn on_wake<P: Port>(&mut self, port: &mut P, now: Duration) -> Result<(), HadflError>;
}

/// The local-step period of a device of computing `power`: one step per
/// `step_sleep / power`, the paper's `sleep()`-emulated heterogeneity.
///
/// # Errors
///
/// Returns [`HadflError::InvalidConfig`] for a power that is not finite
/// and positive, or a period no [`Duration`] can hold.
pub fn step_period(step_sleep: Duration, power: f64) -> Result<Duration, HadflError> {
    // Zero, negative and NaN powers give no period either.
    match Duration::try_from_secs_f64(step_sleep.as_secs_f64() / power) {
        Ok(period) if power.is_finite() => Ok(period),
        _ => Err(HadflError::InvalidConfig(format!(
            "no step period for power {power}"
        ))),
    }
}

pub mod seeded {
    //! Seeded re-introductions of the three interleaving bugs PR 1's
    //! review caught by hand, used by `hadfl-check` to prove the model
    //! checker would have found them mechanically.
    //!
    //! Without the `seeded-bugs` cargo feature every query compiles to
    //! a constant `false` and the protocol is unchanged. With the
    //! feature, each bug is an `AtomicBool` the checker flips per run:
    //!
    //! * [`drop_early_ring_frames`] — ring frames that overtake their
    //!   `RoundPlan` are dropped instead of held in the backlog
    //!   (PR-1 bug: round-tag overtake loses an accumulation).
    //! * [`double_count_on_resend`] — the `contributed` guard is
    //!   skipped, so a bypass re-send adds a member's parameters twice
    //!   (PR-1 bug: bypass double-count skews the merged mean).
    //! * [`shutdown_alive_only`] — the coordinator shuts down only the
    //!   devices it still considers alive, stranding dropped-but-running
    //!   devices in their training loops (PR-1 bug: missing shutdown).

    #[cfg(feature = "seeded-bugs")]
    use std::sync::atomic::{AtomicBool, Ordering};

    #[cfg(feature = "seeded-bugs")]
    static DROP_EARLY_RING_FRAMES: AtomicBool = AtomicBool::new(false);
    #[cfg(feature = "seeded-bugs")]
    static DOUBLE_COUNT_ON_RESEND: AtomicBool = AtomicBool::new(false);
    #[cfg(feature = "seeded-bugs")]
    static SHUTDOWN_ALIVE_ONLY: AtomicBool = AtomicBool::new(false);

    /// Is the round-tag-overtake bug seeded?
    #[cfg(feature = "seeded-bugs")]
    pub fn drop_early_ring_frames() -> bool {
        DROP_EARLY_RING_FRAMES.load(Ordering::SeqCst)
    }
    /// Is the round-tag-overtake bug seeded? (feature off: never)
    #[cfg(not(feature = "seeded-bugs"))]
    #[inline(always)]
    pub const fn drop_early_ring_frames() -> bool {
        false
    }

    /// Is the bypass-double-count bug seeded?
    #[cfg(feature = "seeded-bugs")]
    pub fn double_count_on_resend() -> bool {
        DOUBLE_COUNT_ON_RESEND.load(Ordering::SeqCst)
    }
    /// Is the bypass-double-count bug seeded? (feature off: never)
    #[cfg(not(feature = "seeded-bugs"))]
    #[inline(always)]
    pub const fn double_count_on_resend() -> bool {
        false
    }

    /// Is the missing-shutdown bug seeded?
    #[cfg(feature = "seeded-bugs")]
    pub fn shutdown_alive_only() -> bool {
        SHUTDOWN_ALIVE_ONLY.load(Ordering::SeqCst)
    }
    /// Is the missing-shutdown bug seeded? (feature off: never)
    #[cfg(not(feature = "seeded-bugs"))]
    #[inline(always)]
    pub const fn shutdown_alive_only() -> bool {
        false
    }

    /// Seeds (or clears) the round-tag-overtake bug.
    #[cfg(feature = "seeded-bugs")]
    pub fn set_drop_early_ring_frames(on: bool) {
        DROP_EARLY_RING_FRAMES.store(on, Ordering::SeqCst);
    }

    /// Seeds (or clears) the bypass-double-count bug.
    #[cfg(feature = "seeded-bugs")]
    pub fn set_double_count_on_resend(on: bool) {
        DOUBLE_COUNT_ON_RESEND.store(on, Ordering::SeqCst);
    }

    /// Seeds (or clears) the missing-shutdown bug.
    #[cfg(feature = "seeded-bugs")]
    pub fn set_shutdown_alive_only(on: bool) {
        SHUTDOWN_ALIVE_ONLY.store(on, Ordering::SeqCst);
    }

    /// Clears every seeded bug (call between checker runs — the flags
    /// are process-global).
    #[cfg(feature = "seeded-bugs")]
    pub fn reset() {
        set_drop_early_ring_frames(false);
        set_double_count_on_resend(false);
        set_shutdown_alive_only(false);
    }
}

/// Failure-detection and deadline knobs of the deployed protocol.
#[derive(Debug, Clone)]
pub struct ProtocolTiming {
    /// Ring silence before the downstream probes its upstream (§III-D).
    pub ring_wait: Duration,
    /// Wait after a [`Handshake`](crate::wire::Message::Handshake)
    /// before declaring the peer dead.
    pub handshake_wait: Duration,
    /// Coordinator's deadline for a round's version reports; devices
    /// that miss it are dropped from future plans.
    pub report_deadline: Duration,
    /// Coordinator's deadline for final parameter uploads at shutdown.
    pub final_deadline: Duration,
    /// Hard cap on one ring synchronization before a member gives up.
    pub ring_hard_limit: Duration,
}

impl Default for ProtocolTiming {
    fn default() -> Self {
        ProtocolTiming {
            ring_wait: Duration::from_secs(10),
            handshake_wait: Duration::from_secs(2),
            report_deadline: Duration::from_secs(10),
            final_deadline: Duration::from_secs(30),
            ring_hard_limit: Duration::from_secs(120),
        }
    }
}

impl ProtocolTiming {
    /// Tight timeouts for in-process tests: failures are detected in
    /// hundreds of milliseconds instead of tens of seconds.
    pub fn quick() -> Self {
        ProtocolTiming {
            ring_wait: Duration::from_millis(400),
            handshake_wait: Duration::from_millis(250),
            report_deadline: Duration::from_secs(5),
            final_deadline: Duration::from_secs(10),
            ring_hard_limit: Duration::from_secs(30),
        }
    }

    /// All-zero timing for virtual-time model checking: every deadline
    /// is considered elapsed the moment the scheduler chooses to fire
    /// the timer, so timeouts are explicit events rather than races.
    pub fn zero() -> Self {
        ProtocolTiming {
            ring_wait: Duration::ZERO,
            handshake_wait: Duration::ZERO,
            report_deadline: Duration::ZERO,
            final_deadline: Duration::ZERO,
            ring_hard_limit: Duration::ZERO,
        }
    }
}

/// Options of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadedOptions {
    /// Computing-power ratios, one device thread per entry.
    pub powers: Vec<f64>,
    /// Emulated compute time per local step on a power-1 device (the
    /// paper's `sleep()`): device `i` takes one local step per
    /// `step_sleep / powers[i]` of its port's clock, the step's own
    /// compute counted inside that period.
    pub step_sleep: Duration,
    /// Wall-clock synchronization window.
    pub window: Duration,
    /// Number of synchronization rounds to run.
    pub rounds: usize,
    /// Failure-detection and deadline knobs.
    pub timing: ProtocolTiming,
}

impl ThreadedOptions {
    /// Options for `rounds` rounds of `window` each over devices of
    /// `powers`, at the default [`ProtocolTiming`].
    pub fn new(powers: &[f64], step_sleep: Duration, window: Duration, rounds: usize) -> Self {
        ThreadedOptions {
            powers: powers.to_vec(),
            step_sleep,
            window,
            rounds,
            timing: ProtocolTiming::default(),
        }
    }

    /// CI-scale options: short sleeps, a few windows.
    pub fn quick(powers: &[f64]) -> Self {
        ThreadedOptions {
            timing: ProtocolTiming::quick(),
            ..Self::new(
                powers,
                Duration::from_millis(4),
                Duration::from_millis(60),
                3,
            )
        }
    }
}

/// One synchronization round of a deployed run.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadedRound {
    /// Round index from 1.
    pub round: usize,
    /// Cumulative local steps per device at sync time (0 for devices
    /// already dropped).
    pub versions: Vec<u64>,
    /// Devices selected for the ring.
    pub selected: Vec<usize>,
}

/// Result of a threaded run.
#[derive(Debug)]
pub struct ThreadedReport {
    /// Per-round records.
    pub rounds: Vec<ThreadedRound>,
    /// Test accuracy of the post-run consensus (average of the final
    /// models the coordinator collected).
    pub final_accuracy: f32,
    /// Total bytes moved between device threads (frames at their
    /// encoded length).
    pub peer_bytes: u64,
    /// Full per-participant byte ledger of the run, comparable with the
    /// analytical driver's [`CommSummary`].
    pub comm: CommSummary,
    /// Devices the coordinator dropped (missed reports or bypass
    /// warnings), with the round they were dropped in.
    pub dropped: Vec<(usize, usize)>,
    /// Wall-clock duration of the run.
    pub wall: Duration,
}

/// What the coordinator learned from a deployed run.
#[derive(Debug, Clone)]
pub struct CoordinatorRun {
    /// Per-round records.
    pub rounds: Vec<ThreadedRound>,
    /// Final parameters per device that uploaded before the deadline.
    pub final_models: BTreeMap<usize, Vec<f32>>,
    /// Devices dropped mid-run, with the round they were dropped in.
    pub dropped: Vec<(usize, usize)>,
}

impl CoordinatorRun {
    /// The run's consensus model: the mean of the final parameters the
    /// coordinator collected.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] when no device uploaded
    /// before the deadline, and substrate errors from the averaging
    /// (e.g. uploads of different lengths).
    pub fn consensus(&self) -> Result<Vec<f32>, HadflError> {
        if self.final_models.is_empty() {
            return Err(HadflError::InvalidConfig(
                "no device uploaded final parameters".into(),
            ));
        }
        let refs: Vec<&[f32]> = self.final_models.values().map(Vec::as_slice).collect();
        average_params(&refs)
    }
}

/// The training-side state a [`DeviceActor`] owns: the real
/// [`DeviceRuntime`] in production, a ghost model under `hadfl-check`
/// whose parameters are chosen to make the ring arithmetic
/// machine-checkable.
pub trait TrainState {
    /// Current parameter vector (what rides in ring frames).
    fn params(&self) -> Vec<f32>;

    /// Installs a parameter vector (merged model or blended broadcast).
    ///
    /// # Errors
    ///
    /// Returns substrate errors (e.g. a length mismatch).
    fn set_params(&mut self, params: &[f32]) -> Result<(), HadflError>;

    /// One heterogeneity-aware local training step.
    ///
    /// # Errors
    ///
    /// Returns substrate errors from the training step.
    fn train_step(&mut self) -> Result<(), HadflError>;

    /// Parameter version reported to the coordinator.
    fn version(&self) -> f64;

    /// Canonical bytes of this state for model-checker deduplication.
    fn digest(&self, out: &mut Vec<u8>) {
        for p in self.params() {
            out.extend_from_slice(&p.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&self.version().to_bits().to_le_bytes());
    }
}

impl TrainState for DeviceRuntime {
    fn params(&self) -> Vec<f32> {
        self.model.param_vector()
    }

    fn set_params(&mut self, params: &[f32]) -> Result<(), HadflError> {
        self.model.set_param_vector(params)?;
        Ok(())
    }

    fn train_step(&mut self) -> Result<(), HadflError> {
        self.train_steps(1)?;
        Ok(())
    }

    fn version(&self) -> f64 {
        self.steps_done as f64
    }
}

/// The coordinator's round-planning policy: the paper's
/// [`StrategyGenerator`] in production, a deterministic fixture under
/// `hadfl-check`.
pub trait Planner {
    /// Plans one synchronization round over the available devices.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] when no valid ring exists
    /// (e.g. fewer than two available devices).
    fn plan(&mut self, available: &[DeviceId], versions: &[f64]) -> Result<RoundPlan, HadflError>;

    /// Canonical bytes of planner state for model-checker deduplication
    /// (stateless planners need not override).
    fn digest(&self, _out: &mut Vec<u8>) {}

    /// The normalized Eq. (8) first-draw probabilities of the most
    /// recent [`plan`](Self::plan) call, parallel to its `available`
    /// argument. Planners without a probability model (checker
    /// fixtures) return `None` and telemetry logs an empty row.
    fn last_probabilities(&self) -> Option<&[f64]> {
        None
    }
}

impl Planner for StrategyGenerator {
    fn plan(&mut self, available: &[DeviceId], versions: &[f64]) -> Result<RoundPlan, HadflError> {
        self.plan_round(available, versions)
    }

    fn last_probabilities(&self) -> Option<&[f64]> {
        StrategyGenerator::last_probabilities(self)
    }
}
