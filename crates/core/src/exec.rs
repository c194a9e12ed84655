//! Deployed executor: HADFL over a real message fabric.
//!
//! The virtual-time [`crate::driver`] is what the experiments use; this
//! module runs the same protocol with *actual concurrency*, the way the
//! paper deploys it — one participant per thread or process,
//! heterogeneity emulated with `sleep()` (exactly the paper's method),
//! parameters moving as encoded [`crate::wire::Message`] frames over a
//! [`Port`], and the ring reduce/distribute
//! executed hop by hop between devices. The coordinator only ever sees
//! control-plane messages plus the final parameter uploads.
//!
//! # Actors and drivers
//!
//! The protocol logic lives in two *single-steppable actors* —
//! [`DeviceActor`] and [`CoordinatorActor`] — whose only side effects
//! are sends on the [`Port`] they are handed. Each actor advances one
//! event at a time: [`DeviceActor::on_message`] /
//! [`CoordinatorActor::on_message`] for a delivered frame,
//! [`DeviceActor::on_timer`] / [`CoordinatorActor::on_timer`] for an
//! elapsed deadline, [`DeviceActor::on_idle`] for a local training
//! step. The blocking entry points — [`run_device`] and
//! [`run_coordinator`] — are thin drivers that pump a real port into
//! the actor, sleeping and timing via the [`Clock`] seam
//! ([`crate::clock`]): wall clock in production, virtual time under
//! `hadfl-check`, which schedules the very same actors exhaustively
//! through every message ordering.
//!
//! [`run_threaded`] wires the loops to the in-process
//! [`ChannelTransport`]; [`run_virtual`] steps the same actors over the
//! same hub from one thread on a [`ManualClock`]; `hadfl-net` wires the
//! loops to TCP sockets for multi-process clusters. [`run_device`] and
//! [`run_coordinator`] each have exactly one other form,
//! [`run_device_instrumented`] / [`run_coordinator_instrumented`],
//! which takes the clock and a telemetry handle.
//!
//! Fault tolerance follows §III-D: a ring member that goes silent is
//! probed with [`Message::Handshake`]; absent an ack, the prober
//! broadcasts [`Message::BypassWarning`] and the ring closes around the
//! dead device, the dead device's upstream re-sending its last frame to
//! its new downstream. The coordinator also drops devices that miss a
//! report deadline and excludes them from later plans.

// Protocol hot path: panicking on a malformed peer frame or a poisoned
// invariant would take down a device thread silently. Every unwrap that
// remains must be an `#[allow]` with its invariant spelled out.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, BTreeSet};
use std::mem;
use std::thread;
use std::time::Duration;

use hadfl_nn::{Dataset, LrSchedule};

use crate::aggregate::blend_params;
use crate::clock::{Clock, ManualClock, WallClock};
use crate::config::HadflConfig;
use crate::coordinator::{RoundPlan, StrategyGenerator};
use crate::error::HadflError;
use crate::predict::VersionPredictor;
use crate::trace::CommSummary;
use crate::transport::{coordinator_id, ChannelPort, ChannelTransport, Port};
use crate::wire::Message;
use crate::workload::{evaluate_with, BuiltWorkload, DeviceRuntime, Workload};
use hadfl_simnet::DeviceId;
use hadfl_telemetry::{EventKind, Telemetry};

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
    /// Wait after a [`Message::Handshake`] before declaring the peer
    /// dead.
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
    /// paper's `sleep()`); device `i` sleeps `step_sleep / powers[i]`.
    pub step_sleep: Duration,
    /// Wall-clock synchronization window.
    pub window: Duration,
    /// Number of synchronization rounds to run.
    pub rounds: usize,
    /// Failure-detection and deadline knobs.
    pub timing: ProtocolTiming,
}

impl ThreadedOptions {
    /// CI-scale options: short sleeps, a few windows.
    pub fn quick(powers: &[f64]) -> Self {
        ThreadedOptions {
            powers: powers.to_vec(),
            step_sleep: Duration::from_millis(4),
            window: Duration::from_millis(60),
            rounds: 3,
            timing: ProtocolTiming::quick(),
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
    /// Total bytes moved between device threads (encoded frames).
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

/// Per-round ring state of one member (§III-D bookkeeping).
#[derive(Debug, Clone)]
struct RingRun {
    /// Round this ring synchronizes; ring frames carry the same tag.
    round: u32,
    /// Live members in ring order; shrinks as deaths are bypassed.
    live: Vec<usize>,
    /// Broadcaster for the round's merged model.
    broadcaster: usize,
    /// Devices to broadcast the merged model to.
    unselected: Vec<usize>,
    /// Last frame this member sent, with its recipient — re-sent when
    /// the recipient is declared dead.
    last_sent: Option<(usize, Message)>,
    /// Set once this member has installed the merged model; duplicate
    /// merges (possible after a re-send) are ignored.
    merged_done: bool,
    /// Set once this member's parameters are inside an accumulation it
    /// forwarded; a re-sent [`Message::ParamAccum`] (possible after a
    /// bypass) must not count the member twice.
    contributed: bool,
}

/// The round a ring frame belongs to; `None` for non-ring messages.
fn ring_frame_round(msg: &Message) -> Option<u32> {
    match msg {
        Message::ParamAccum { round, .. } | Message::MergedParams { round, .. } => Some(*round),
        _ => None,
    }
}

/// Holds a ring frame that belongs to a different round than the ring
/// currently running: frames for future rounds are replayed when their
/// plan arrives, frames for past rounds are re-send duplicates and are
/// dropped.
fn stash_ring_frame(backlog: &mut Vec<Message>, current: u32, msg: Message) {
    // Seeded PR-1 bug: no backlog at all — early frames vanish.
    if seeded::drop_early_ring_frames() {
        return;
    }
    if ring_frame_round(&msg).is_some_and(|r| r > current) {
        backlog.push(msg);
    }
}

impl RingRun {
    fn pos(&self, id: usize) -> Option<usize> {
        self.live.iter().position(|&d| d == id)
    }

    // Invariant: `downstream`/`upstream` are only asked for members of
    // `live` — a member never removes *itself* from its own ring (the
    // in-ring BypassWarning handler ignores `dead == me`), and every
    // caller passes either `me` or a value just checked with `pos`.
    #[allow(clippy::expect_used)]
    fn downstream(&self, id: usize) -> usize {
        // lint:allow(unwrap-in-protocol): callers only pass members of `live` (invariant above)
        let pos = self.pos(id).expect("member of own ring");
        self.live[(pos + 1) % self.live.len()]
    }

    #[allow(clippy::expect_used)]
    fn upstream(&self, id: usize) -> usize {
        // lint:allow(unwrap-in-protocol): callers only pass members of `live` (invariant above)
        let pos = self.pos(id).expect("member of own ring");
        self.live[(pos + self.live.len() - 1) % self.live.len()]
    }
}

/// Sends `msg` to `to`, recording it as the member's re-sendable last
/// frame. A send failure is treated as silence: the §III-D probe will
/// catch the dead peer.
fn send_ring<P: Port>(port: &mut P, run: &mut RingRun, to: usize, msg: Message) {
    let _ = port.send(to, &msg);
    run.last_sent = Some((to, msg));
}

/// Finishes the reduce half: installs `merged` (the mean — the caller
/// has already applied the `1/hops` scale), starts the distribute
/// half, and broadcasts to the unselected if this member is the
/// round's broadcaster.
#[allow(clippy::too_many_arguments)]
fn finish_reduce<P: Port, T: TrainState>(
    port: &mut P,
    train: &mut T,
    run: &mut RingRun,
    me: usize,
    merged: Vec<f32>,
    hops: u32,
    tel: &Telemetry,
    now: Duration,
) -> Result<(), HadflError> {
    let _prof = hadfl_prof::scope("ring_merge");
    train.set_params(&merged)?;
    run.merged_done = true;
    tel.emit(
        now,
        EventKind::Merge {
            round: run.round,
            participants: hops,
        },
    );
    let ttl = run.live.len().saturating_sub(1) as u32;
    pass_merged(port, run, me, ttl, merged, |_| {});
    Ok(())
}

/// Passes the merged model on without copying it: a
/// [`Message::MergedParams`] to the downstream member while forwards
/// remain (`ttl > 0`), kept as the re-sendable last frame; then, if
/// `me` is (or has replaced) the broadcaster, one
/// [`Message::ParamSync`] — the same buffer under another tag, sent by
/// reference — to every unselected device. `around_broadcast` is told
/// `true` before and `false` after a broadcast that takes place, for
/// the caller's span bookkeeping.
fn pass_merged<P: Port>(
    port: &mut P,
    run: &mut RingRun,
    me: usize,
    ttl: u32,
    params: Vec<f32>,
    mut around_broadcast: impl FnMut(bool),
) {
    let round = run.round;
    let downstream = (ttl > 0).then(|| run.downstream(me));
    let mut merged = Message::MergedParams { round, ttl, params };
    if let Some(to) = downstream {
        let _ = port.send(to, &merged);
    }
    // If the planned broadcaster died, the first live member inherits
    // the role so the unselected still hear about the round.
    let effective = if run.live.contains(&run.broadcaster) {
        run.broadcaster
    } else {
        run.live[0]
    };
    if effective == me && !run.unselected.is_empty() {
        if let Message::MergedParams { params, .. } = &mut merged {
            around_broadcast(true);
            let sync = Message::ParamSync {
                round,
                params: std::mem::take(params),
            };
            for &u in &run.unselected {
                let _ = port.send(u, &sync);
            }
            if let Message::ParamSync { params: lent, .. } = sync {
                *params = lent;
            }
            around_broadcast(false);
        }
    }
    if let Some(to) = downstream {
        run.last_sent = Some((to, merged));
    }
}

/// After `dead` was removed from `run.live`: re-send the last frame if
/// it was addressed to the dead member, or initiate the reduce if the
/// origin died before anything was sent.
fn repair_after_bypass<P: Port, T: TrainState>(
    port: &mut P,
    train: &mut T,
    run: &mut RingRun,
    me: usize,
    dead: usize,
) {
    match run.last_sent.clone() {
        Some((to, msg)) if to == dead => {
            let downstream = run.downstream(me);
            send_ring(port, run, downstream, msg);
        }
        None if run.live[0] == me && !run.merged_done => {
            // The origin died silent; its downstream (now first) starts
            // the reduce.
            run.contributed = true;
            let downstream = run.downstream(me);
            send_ring(
                port,
                run,
                downstream,
                Message::ParamAccum {
                    round: run.round,
                    hops: 1,
                    params: train.params(),
                },
            );
        }
        _ => {}
    }
}

/// Applies a [`Message::BypassWarning`] to a ring this member already
/// finished. The member forwarded its last frame and left the ring
/// loop; if that frame's recipient is the one now declared dead, the
/// frame never reached the rest of the ring and must be re-sent to the
/// new downstream.
fn bypass_in_finished_ring<P: Port>(port: &mut P, run: &mut RingRun, me: usize, dead: usize) {
    if dead == me || run.pos(dead).is_none() {
        return;
    }
    run.live.retain(|&d| d != dead);
    if run.live.len() < 2 {
        return;
    }
    if let Some((to, msg)) = run.last_sent.clone() {
        if to == dead {
            let downstream = run.downstream(me);
            send_ring(port, run, downstream, msg);
        }
    }
}

/// Per-actor span bookkeeping for the causal timeline: a deterministic
/// id counter (first span of every actor is 1) and the stack of open
/// spans. Telemetry-only state — never part of
/// [`DeviceActor::digest_into`], so span tracking cannot split
/// model-checker states.
#[derive(Debug, Clone, Default)]
struct Spans {
    next: u64,
    /// Open spans, innermost last: `(name, id, round)`.
    open: Vec<(&'static str, u64, u32)>,
}

impl Spans {
    /// Opens `name` and emits [`EventKind::SpanStart`]. No-op (id 0)
    /// when telemetry is disabled, so the checker never pays for it.
    fn start(
        &mut self,
        tel: &Telemetry,
        now: Duration,
        name: &'static str,
        parent: u64,
        round: u32,
        device: usize,
    ) -> u64 {
        if !tel.enabled() {
            return 0;
        }
        self.next += 1;
        let span = self.next;
        self.open.push((name, span, round));
        tel.emit(
            now,
            EventKind::SpanStart {
                span,
                parent,
                name: name.to_string(),
                round,
                device: device as u32,
            },
        );
        span
    }

    /// Closes the innermost open span called `name` (no-op when none
    /// is open — callers end speculatively at phase transitions).
    fn end(&mut self, tel: &Telemetry, now: Duration, name: &'static str, device: usize) {
        if let Some(i) = self.open.iter().rposition(|(n, _, _)| *n == name) {
            let (_, span, round) = self.open.remove(i);
            tel.emit(
                now,
                EventKind::SpanEnd {
                    span,
                    round,
                    device: device as u32,
                },
            );
        }
    }

    /// Closes every open span, innermost first (shutdown path).
    fn end_all(&mut self, tel: &Telemetry, now: Duration, device: usize) {
        while let Some((_, span, round)) = self.open.pop() {
            tel.emit(
                now,
                EventKind::SpanEnd {
                    span,
                    round,
                    device: device as u32,
                },
            );
        }
    }

    /// The innermost open ring-half span, for parenting `merge` and
    /// `bypass_repair` under the ring they belong to (0 = no parent).
    fn ring_parent(&self) -> u64 {
        self.open
            .iter()
            .rev()
            .find(|(n, _, _)| *n == "ring_reduce" || *n == "ring_gather")
            .map_or(0, |&(_, span, _)| span)
    }
}

/// A member's in-ring bookkeeping beyond [`RingRun`]: the probe in
/// flight and when the ring began (for the hard stall limit).
#[derive(Debug, Clone)]
struct RingPhase {
    run: RingRun,
    /// Upstream we handshaked, and the ack deadline.
    probe: Option<(usize, Duration)>,
    /// Clock reading at ring entry.
    started: Duration,
}

/// Where a device is in its protocol loop.
#[derive(Debug, Clone)]
enum DevicePhase {
    /// Local training; polling for coordinator commands.
    Training,
    /// Inside a ring synchronization.
    Ring(RingPhase),
    /// Shutdown acknowledged; final parameters uploaded.
    Finished,
}

/// What the blocking driver should do next for a [`DeviceActor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceHint {
    /// Poll without blocking; if nothing is pending, run one training
    /// step ([`DeviceActor::on_idle`]) and sleep `step_sleep`.
    Train,
    /// Block up to this long for a message; on timeout call
    /// [`DeviceActor::on_timer`].
    Ring(Duration),
    /// The device is done; stop driving.
    Finished,
}

/// How one in-ring step left the ring.
enum RingStep {
    Continue,
    Completed,
    Shutdown,
}

/// One device's §III-D protocol state machine, advanced one event at a
/// time. Side effects are sends on the [`Port`] passed to each step.
#[derive(Debug, Clone)]
pub struct DeviceActor<T: TrainState> {
    me: usize,
    coord: usize,
    blend_beta: f32,
    timing: ProtocolTiming,
    /// Highest round whose ring this member finished.
    done_round: u32,
    /// The finished ring's state — kept because a late §III-D bypass
    /// may still need this member's last frame re-sent.
    last_ring: Option<RingRun>,
    /// Ring frames that overtook their RoundPlan: TCP gives no ordering
    /// between the coordinator's connection and a peer's, so an
    /// accumulation can arrive before the plan it belongs to.
    backlog: Vec<Message>,
    /// Peers a §III-D bypass declared dead, remembered across rounds.
    /// A `BypassWarning` can overtake the `RoundPlan` of the ring it
    /// belongs to (independent connections again); joining with the
    /// stale membership would forward frames to the dead member and
    /// stall the ring (found by hadfl-check), so plan membership is
    /// filtered through this set on entry.
    known_dead: BTreeSet<usize>,
    phase: DevicePhase,
    train: T,
    /// Structured-event emitter; disabled by default. Never part of
    /// [`digest_into`](Self::digest_into) — observability must not
    /// split model-checker states.
    tel: Telemetry,
    /// Local steps taken since the last [`EventKind::LocalSteps`]
    /// batch; only counted while telemetry is enabled.
    pending_steps: u64,
    /// Open-span bookkeeping; telemetry-only, never digested.
    spans: Spans,
}

impl<T: TrainState> DeviceActor<T> {
    /// An actor for device `me` of a `participants`-port cluster
    /// (devices plus coordinator).
    pub fn new(
        me: usize,
        participants: usize,
        train: T,
        blend_beta: f32,
        timing: ProtocolTiming,
    ) -> Self {
        DeviceActor {
            me,
            coord: coordinator_id(participants - 1),
            blend_beta,
            timing,
            done_round: 0,
            last_ring: None,
            backlog: Vec::new(),
            known_dead: BTreeSet::new(),
            phase: DevicePhase::Training,
            train,
            tel: Telemetry::disabled(),
            pending_steps: 0,
            spans: Spans::default(),
        }
    }

    /// Attaches a telemetry handle; a disabled handle is a no-op.
    #[must_use]
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.tel = tel;
        self
    }

    /// Opens the `train` span for `round` (the local-training window
    /// that ends at the round's [`Message::ReportRequest`]). Drivers
    /// call this once at startup; the actor reopens it itself whenever
    /// a ring or a broadcast blend returns it to the training phase.
    pub fn begin_training(&mut self, now: Duration, round: u32) {
        if self.spans.open.iter().any(|(n, _, _)| *n == "train") {
            return; // duplicate broadcast: the window is already open
        }
        self.spans.start(&self.tel, now, "train", 0, round, self.me);
    }

    /// This device's id.
    pub fn id(&self) -> usize {
        self.me
    }

    /// The owned training state (checker introspection).
    pub fn train(&self) -> &T {
        &self.train
    }

    /// Highest round whose ring this member finished.
    pub fn done_round(&self) -> u32 {
        self.done_round
    }

    /// Has the device acknowledged shutdown?
    pub fn is_finished(&self) -> bool {
        matches!(self.phase, DevicePhase::Finished)
    }

    /// The round of the ring this member is currently inside, if any.
    pub fn ring_round(&self) -> Option<u32> {
        match &self.phase {
            DevicePhase::Ring(ring) => Some(ring.run.round),
            _ => None,
        }
    }

    /// Is a handshake probe pending (checker scheduling detail)?
    pub fn probe_armed(&self) -> bool {
        matches!(&self.phase, DevicePhase::Ring(ring) if ring.probe.is_some())
    }

    /// The upstream a pending handshake probe is addressed to, if any
    /// (checker scheduling detail: a probe deadline may only elapse
    /// unanswered when its suspect really is dead).
    pub fn probe_suspect(&self) -> Option<usize> {
        match &self.phase {
            DevicePhase::Ring(ring) => ring.probe.map(|(suspect, _)| suspect),
            _ => None,
        }
    }

    /// What the blocking driver should do next.
    pub fn hint(&self, now: Duration) -> DeviceHint {
        match &self.phase {
            DevicePhase::Finished => DeviceHint::Finished,
            DevicePhase::Training => DeviceHint::Train,
            DevicePhase::Ring(ring) => {
                let wait = match ring.probe {
                    Some((_, deadline)) => deadline.saturating_sub(now),
                    None => self.timing.ring_wait,
                };
                DeviceHint::Ring(wait.max(Duration::from_millis(1)))
            }
        }
    }

    /// Delivers one message to the actor.
    ///
    /// # Errors
    ///
    /// Returns substrate errors from training-state updates and
    /// [`HadflError::InvalidConfig`] when a ring synchronization
    /// exceeds `timing.ring_hard_limit`.
    pub fn on_message<P: Port>(
        &mut self,
        port: &mut P,
        msg: Message,
        now: Duration,
    ) -> Result<(), HadflError> {
        match self.phase {
            DevicePhase::Finished => Ok(()),
            DevicePhase::Training => self.training_message(port, msg, now),
            DevicePhase::Ring(_) => match self.ring_message(port, msg, now)? {
                RingStep::Continue => Ok(()),
                RingStep::Completed => {
                    self.complete_ring(now);
                    Ok(())
                }
                RingStep::Shutdown => {
                    self.finish(port, now);
                    Ok(())
                }
            },
        }
    }

    /// One local training step (the driver's idle action while the
    /// device is in its training phase).
    ///
    /// # Errors
    ///
    /// Returns substrate errors from the training step.
    pub fn on_idle<P: Port>(&mut self, _port: &mut P) -> Result<(), HadflError> {
        if matches!(self.phase, DevicePhase::Training) {
            let _prof = hadfl_prof::scope("local_step");
            self.train.train_step()?;
            if self.tel.enabled() {
                self.pending_steps += 1;
            }
        }
        Ok(())
    }

    /// Flushes the batched local-step count as one
    /// [`EventKind::LocalSteps`] event. Batches close at the protocol
    /// transitions that carry a timestamp (report, ring entry,
    /// shutdown), so one event covers roughly one training window.
    fn flush_steps(&mut self, now: Duration) {
        if self.pending_steps > 0 {
            self.tel.emit(
                now,
                EventKind::LocalSteps {
                    device: self.me as u32,
                    steps: self.pending_steps,
                    version: self.train.version() as u64,
                },
            );
            self.pending_steps = 0;
        }
        // The training window closes wherever the batch does.
        self.spans.end(&self.tel, now, "train", self.me);
    }

    /// An elapsed wait inside a ring: §III-D silence handling — probe
    /// the upstream, or declare it dead when the probe deadline passed.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] when the ring exceeds
    /// `timing.ring_hard_limit`.
    pub fn on_timer<P: Port>(&mut self, port: &mut P, now: Duration) -> Result<(), HadflError> {
        let me = self.me;
        let coord = self.coord;
        let handshake_wait = self.timing.handshake_wait;
        let hard_limit = self.timing.ring_hard_limit;
        let DevicePhase::Ring(ring) = &mut self.phase else {
            return Ok(());
        };
        if now.saturating_sub(ring.started) > hard_limit {
            return Err(HadflError::InvalidConfig(
                "ring synchronization stalled".into(),
            ));
        }
        match ring.probe {
            Some((suspect, deadline)) if now >= deadline => {
                // §III-D: no ack — declare the upstream dead, warn
                // everyone, bypass.
                let parent = self.spans.ring_parent();
                self.spans
                    .start(&self.tel, now, "bypass_repair", parent, ring.run.round, me);
                ring.probe = None;
                for &member in &ring.run.live {
                    if member != me && member != suspect {
                        let _ = port.send(
                            member,
                            &Message::BypassWarning {
                                dead: suspect as u32,
                            },
                        );
                    }
                }
                let _ = port.send(
                    coord,
                    &Message::BypassWarning {
                        dead: suspect as u32,
                    },
                );
                ring.run.live.retain(|&d| d != suspect);
                self.known_dead.insert(suspect);
                self.tel.emit(
                    now,
                    EventKind::BypassDeclared {
                        round: ring.run.round,
                        dead: suspect as u32,
                    },
                );
                if ring.run.live.len() < 2 {
                    ring.run.merged_done = true; // dissolved; keep local model
                } else {
                    self.tel.emit(
                        now,
                        EventKind::RingRepair {
                            round: ring.run.round,
                            dead: suspect as u32,
                        },
                    );
                    repair_after_bypass(port, &mut self.train, &mut ring.run, me, suspect);
                }
                self.spans.end(&self.tel, now, "bypass_repair", me);
            }
            Some(_) => {} // ack still pending
            None => {
                // Silence: probe the upstream we are waiting on.
                let suspect = ring.run.upstream(me);
                let _ = port.send(suspect, &Message::Handshake { from: me as u32 });
                ring.probe = Some((suspect, now + handshake_wait));
            }
        }
        let done = ring.run.merged_done;
        if done {
            self.complete_ring(now);
        }
        Ok(())
    }

    /// Canonical bytes of the actor's full state (model-checker
    /// deduplication).
    pub fn digest_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.me as u64).to_le_bytes());
        out.extend_from_slice(&self.done_round.to_le_bytes());
        digest_opt_ring(out, self.last_ring.as_ref());
        out.extend_from_slice(&(self.backlog.len() as u64).to_le_bytes());
        for m in &self.backlog {
            digest_msg(out, m);
        }
        out.extend_from_slice(&(self.known_dead.len() as u64).to_le_bytes());
        for &d in &self.known_dead {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        match &self.phase {
            DevicePhase::Training => out.push(0),
            DevicePhase::Ring(ring) => {
                out.push(1);
                digest_ring(out, &ring.run);
                match ring.probe {
                    Some((suspect, deadline)) => {
                        out.push(1);
                        out.extend_from_slice(&(suspect as u64).to_le_bytes());
                        out.extend_from_slice(&(deadline.as_nanos() as u64).to_le_bytes());
                    }
                    None => out.push(0),
                }
                out.extend_from_slice(&(ring.started.as_nanos() as u64).to_le_bytes());
            }
            DevicePhase::Finished => out.push(2),
        }
        self.train.digest(out);
    }

    /// Uploads final parameters and retires the actor.
    fn finish<P: Port>(&mut self, port: &mut P, now: Duration) {
        let _ = port.send(
            self.coord,
            &Message::FinalParams {
                device: self.me as u32,
                params: self.train.params(),
            },
        );
        self.phase = DevicePhase::Finished;
        self.flush_steps(now);
        self.spans.end_all(&self.tel, now, self.me);
        self.tel.emit(
            now,
            EventKind::DeviceFinished {
                device: self.me as u32,
                version: self.train.version() as u64,
            },
        );
        self.tel.flush();
    }

    /// Leaves the ring phase, recording the finished ring for late
    /// bypass repairs.
    fn complete_ring(&mut self, now: Duration) {
        if let DevicePhase::Ring(ring) = mem::replace(&mut self.phase, DevicePhase::Training) {
            self.done_round = self.done_round.max(ring.run.round);
            // Close whatever ring-half (or mid-repair) span is still
            // open; each end is a no-op when the name isn't open.
            for name in ["merge", "bypass_repair", "ring_gather", "ring_reduce"] {
                self.spans.end(&self.tel, now, name, self.me);
            }
            self.tel.emit(
                now,
                EventKind::RingExit {
                    round: ring.run.round,
                    dissolved: ring.run.live.len() < 2,
                },
            );
            self.begin_training(now, ring.run.round + 1);
            self.last_ring = Some(ring.run);
        }
    }

    /// A message delivered while the device is locally training.
    fn training_message<P: Port>(
        &mut self,
        port: &mut P,
        msg: Message,
        now: Duration,
    ) -> Result<(), HadflError> {
        match msg {
            Message::Shutdown => {
                self.finish(port, now);
            }
            Message::ReportRequest { round } => {
                self.flush_steps(now);
                let _ = port.send(
                    self.coord,
                    &Message::VersionReport {
                        device: self.me as u32,
                        round,
                        version: self.train.version(),
                    },
                );
                self.spans
                    .start(&self.tel, now, "wait_for_plan", 0, round, self.me);
            }
            Message::RoundPlan {
                round,
                ring,
                broadcaster,
                unselected,
            } => {
                self.enter_ring(port, round, &ring, broadcaster, &unselected, now)?;
            }
            Message::ParamSync { round, params } => {
                // Unselected device receiving the broadcast: blend
                // non-blockingly and keep training.
                self.spans.end(&self.tel, now, "wait_for_plan", self.me);
                self.spans
                    .start(&self.tel, now, "broadcast_blend", 0, round, self.me);
                let prof = hadfl_prof::scope("broadcast_blend");
                let mut local = self.train.params();
                blend_params(&mut local, &params, self.blend_beta)?;
                self.train.set_params(&local)?;
                drop(prof);
                self.spans.end(&self.tel, now, "broadcast_blend", self.me);
                self.begin_training(now, round + 1);
            }
            Message::Handshake { from } => {
                let _ = port.send(
                    from as usize,
                    &Message::HandshakeAck {
                        from: self.me as u32,
                    },
                );
            }
            // A ring frame outside a ring: either it overtook its
            // RoundPlan (hold it for the plan) or it is a re-send
            // duplicate for a ring already finished (drop it, via the
            // final `_` arm). Seeded PR-1 bug: no backlog — early
            // frames vanish.
            msg @ (Message::ParamAccum { .. } | Message::MergedParams { .. })
                if !seeded::drop_early_ring_frames()
                    && ring_frame_round(&msg).is_some_and(|r| r > self.done_round) =>
            {
                self.backlog.push(msg);
            }
            Message::BypassWarning { dead } => {
                let dead = dead as usize;
                if dead != self.me {
                    self.known_dead.insert(dead);
                }
                // A death in the ring this member already finished: if
                // the member's last frame was addressed to the dead
                // device, the stranded new downstream still needs it.
                if let Some(run) = self.last_ring.as_mut() {
                    bypass_in_finished_ring(port, run, self.me, dead);
                }
            }
            _ => {} // heartbeats, stale acks
        }
        Ok(())
    }

    /// Joins the ring a [`Message::RoundPlan`] describes, initiating
    /// the reduce if this member is first, and replays any backlogged
    /// frames that overtook the plan.
    fn enter_ring<P: Port>(
        &mut self,
        port: &mut P,
        round: u32,
        ring: &[u32],
        broadcaster: u32,
        unselected: &[u32],
        now: Duration,
    ) -> Result<(), HadflError> {
        let mut run = RingRun {
            round,
            live: ring.iter().map(|&d| d as usize).collect(),
            broadcaster: broadcaster as usize,
            unselected: unselected.iter().map(|&d| d as usize).collect(),
            last_sent: None,
            merged_done: false,
            contributed: false,
        };
        if run.pos(self.me).is_none() {
            return Ok(()); // not addressed to us; stale broadcast
        }
        self.flush_steps(now);
        self.spans.end(&self.tel, now, "wait_for_plan", self.me);
        // A BypassWarning may have overtaken this plan: membership the
        // coordinator believed alive at planning time can already be
        // known dead here. Joining with the stale membership would
        // forward the accumulation to the dead member and stall the
        // ring forever (found by hadfl-check).
        run.live.retain(|d| !self.known_dead.contains(d));
        run.unselected.retain(|d| !self.known_dead.contains(d));
        if run.live.len() < 2 {
            // The ring dissolved before it began; keep the local model
            // and treat the round as synchronized, as the in-ring
            // bypass does when membership drops below two.
            self.done_round = self.done_round.max(round);
            self.backlog
                .retain(|m| ring_frame_round(m).is_some_and(|r| r > round));
            self.tel.emit(
                now,
                EventKind::RingExit {
                    round,
                    dissolved: true,
                },
            );
            self.begin_training(now, round + 1);
            return Ok(());
        }
        self.tel.emit(
            now,
            EventKind::RingEnter {
                round,
                ring: run.live.iter().map(|&d| d as u32).collect(),
            },
        );
        self.spans
            .start(&self.tel, now, "ring_reduce", 0, round, self.me);
        // Frames for rings before this one are dead history.
        self.backlog
            .retain(|m| ring_frame_round(m).is_some_and(|r| r >= round));
        // The first member initiates the reduce with its own parameters.
        if run.live[0] == self.me {
            run.contributed = true;
            let downstream = run.downstream(self.me);
            send_ring(
                port,
                &mut run,
                downstream,
                Message::ParamAccum {
                    round,
                    hops: 1,
                    params: self.train.params(),
                },
            );
            // Contribution forwarded: the reduce half is done for the
            // initiator; it now waits for the merged model to wrap.
            self.spans.end(&self.tel, now, "ring_reduce", self.me);
            self.spans
                .start(&self.tel, now, "ring_gather", 0, round, self.me);
        }
        self.phase = DevicePhase::Ring(RingPhase {
            run,
            probe: None,
            started: now,
        });
        // Frames for this ring that arrived before its RoundPlan are
        // replayed ahead of anything the fabric delivers next. (No new
        // backlog entry for the *current* round can appear while the
        // ring runs — stash_ring_frame only holds future rounds — so
        // replaying here is equivalent to the pre-poll replay of the
        // former blocking loop.)
        while matches!(self.phase, DevicePhase::Ring(_)) {
            let Some(held) = self
                .backlog
                .iter()
                .position(|m| ring_frame_round(m) == Some(round))
            else {
                break;
            };
            let msg = self.backlog.remove(held);
            match self.ring_message(port, msg, now)? {
                RingStep::Continue => {}
                RingStep::Completed => self.complete_ring(now),
                RingStep::Shutdown => self.finish(port, now),
            }
        }
        Ok(())
    }

    /// A message delivered while inside a ring synchronization.
    fn ring_message<P: Port>(
        &mut self,
        port: &mut P,
        msg: Message,
        now: Duration,
    ) -> Result<RingStep, HadflError> {
        let me = self.me;
        let hard_limit = self.timing.ring_hard_limit;
        let DevicePhase::Ring(ring) = &mut self.phase else {
            return Ok(RingStep::Continue);
        };
        if now.saturating_sub(ring.started) > hard_limit {
            return Err(HadflError::InvalidConfig(
                "ring synchronization stalled".into(),
            ));
        }
        match msg {
            Message::ParamAccum {
                round,
                hops,
                mut params,
            } => {
                if round != ring.run.round {
                    stash_ring_frame(
                        &mut self.backlog,
                        ring.run.round,
                        Message::ParamAccum {
                            round,
                            hops,
                            params,
                        },
                    );
                    return Ok(RingStep::Continue);
                }
                ring.probe = None;
                if ring.run.contributed && !seeded::double_count_on_resend() {
                    // Re-send duplicate after a bypass: our parameters
                    // already ride an accumulation we forwarded; adding
                    // them again would skew the merged mean. One shape
                    // of duplicate is still load-bearing: when the dead
                    // member was the last hop before the wrap back to
                    // the initiator, the re-sent frame carries *every*
                    // live member's contribution — it IS the finished
                    // sum, and dropping it would stall the ring (found
                    // by `hadfl-check`, see DESIGN.md §Protocol
                    // invariants). Merge it without adding ourselves.
                    if hops as usize >= ring.run.live.len() && !ring.run.merged_done {
                        let parent = self.spans.ring_parent();
                        let round = ring.run.round;
                        self.spans.start(&self.tel, now, "merge", parent, round, me);
                        crate::aggregate::scale_params(&mut params, 1.0 / hops as f32);
                        finish_reduce(
                            port,
                            &mut self.train,
                            &mut ring.run,
                            me,
                            params,
                            hops,
                            &self.tel,
                            now,
                        )?;
                        self.spans.end(&self.tel, now, "merge", me);
                    }
                } else {
                    ring.run.contributed = true;
                    let hops = hops + 1;
                    let closes = hops as usize >= ring.run.live.len();
                    let prof = hadfl_prof::scope("ring_accumulate");
                    let mine = self.train.params();
                    if closes {
                        // The closing hop folds the `1/hops` scale into
                        // its accumulate: one pass over the model, not
                        // two, and the same two roundings per element.
                        crate::aggregate::accumulate_scaled_params(
                            &mut params,
                            &mine,
                            1.0 / hops as f32,
                        );
                    } else {
                        crate::aggregate::accumulate_params(&mut params, &mine);
                    }
                    drop(prof);
                    self.tel.emit(
                        now,
                        EventKind::Accumulate {
                            round: ring.run.round,
                            hops,
                        },
                    );
                    if closes {
                        // This member closes the reduce: merge nests
                        // under its reduce half, which ends here.
                        let parent = self.spans.ring_parent();
                        let round = ring.run.round;
                        self.spans.start(&self.tel, now, "merge", parent, round, me);
                        finish_reduce(
                            port,
                            &mut self.train,
                            &mut ring.run,
                            me,
                            params,
                            hops,
                            &self.tel,
                            now,
                        )?;
                        self.spans.end(&self.tel, now, "merge", me);
                        self.spans.end(&self.tel, now, "ring_reduce", me);
                        self.spans
                            .start(&self.tel, now, "ring_gather", 0, round, me);
                    } else {
                        let downstream = ring.run.downstream(me);
                        let round = ring.run.round;
                        send_ring(
                            port,
                            &mut ring.run,
                            downstream,
                            Message::ParamAccum {
                                round,
                                hops,
                                params,
                            },
                        );
                        self.spans.end(&self.tel, now, "ring_reduce", me);
                        self.spans
                            .start(&self.tel, now, "ring_gather", 0, round, me);
                    }
                }
            }
            Message::MergedParams { round, ttl, params } => {
                if round != ring.run.round {
                    stash_ring_frame(
                        &mut self.backlog,
                        ring.run.round,
                        Message::MergedParams { round, ttl, params },
                    );
                    return Ok(RingStep::Continue);
                }
                ring.probe = None;
                self.train.set_params(&params)?;
                ring.run.merged_done = true;
                // The effective broadcaster's fan-out to the unselected
                // is the round's `broadcast_blend` segment.
                let (spans, tel) = (&mut self.spans, &self.tel);
                pass_merged(
                    port,
                    &mut ring.run,
                    me,
                    ttl.saturating_sub(1),
                    params,
                    |starting| {
                        if starting {
                            let parent = spans.ring_parent();
                            spans.start(tel, now, "broadcast_blend", parent, round, me);
                        } else {
                            spans.end(tel, now, "broadcast_blend", me);
                        }
                    },
                );
            }
            Message::Handshake { from } => {
                let _ = port.send(from as usize, &Message::HandshakeAck { from: me as u32 });
            }
            Message::HandshakeAck { from } => {
                if let Some((suspect, _)) = ring.probe {
                    if suspect == from as usize {
                        // Upstream is alive, just slow; wait afresh.
                        ring.probe = None;
                    }
                }
            }
            Message::BypassWarning { dead } => {
                let dead = dead as usize;
                // `dead == me` is unreachable via the protocol (nobody
                // warns a device about itself) but would corrupt the
                // neighbour lookups; ignore it defensively.
                if dead != me {
                    self.known_dead.insert(dead);
                }
                if dead != me && ring.run.pos(dead).is_some() {
                    let parent = self.spans.ring_parent();
                    self.spans
                        .start(&self.tel, now, "bypass_repair", parent, ring.run.round, me);
                    ring.run.live.retain(|&d| d != dead);
                    if let Some((suspect, _)) = ring.probe {
                        if suspect == dead {
                            ring.probe = None;
                        }
                    }
                    if ring.run.live.len() < 2 {
                        ring.run.merged_done = true; // dissolved; keep local model
                    } else {
                        self.tel.emit(
                            now,
                            EventKind::RingRepair {
                                round: ring.run.round,
                                dead: dead as u32,
                            },
                        );
                        repair_after_bypass(port, &mut self.train, &mut ring.run, me, dead);
                    }
                    self.spans.end(&self.tel, now, "bypass_repair", me);
                }
            }
            Message::ReportRequest { round } => {
                let _ = port.send(
                    self.coord,
                    &Message::VersionReport {
                        device: me as u32,
                        round,
                        version: self.train.version(),
                    },
                );
            }
            Message::Shutdown => return Ok(RingStep::Shutdown),
            _ => {} // heartbeats, broadcasts meant for the unselected
        }
        let DevicePhase::Ring(ring) = &self.phase else {
            return Ok(RingStep::Continue);
        };
        Ok(if ring.run.merged_done {
            RingStep::Completed
        } else {
            RingStep::Continue
        })
    }
}

fn digest_msg(out: &mut Vec<u8>, msg: &Message) {
    let frame = msg.encode();
    out.extend_from_slice(&(frame.len() as u64).to_le_bytes());
    out.extend_from_slice(&frame);
}

fn digest_ring(out: &mut Vec<u8>, run: &RingRun) {
    out.extend_from_slice(&run.round.to_le_bytes());
    out.extend_from_slice(&(run.live.len() as u64).to_le_bytes());
    for &d in &run.live {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
    out.extend_from_slice(&(run.broadcaster as u64).to_le_bytes());
    out.extend_from_slice(&(run.unselected.len() as u64).to_le_bytes());
    for &d in &run.unselected {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
    match &run.last_sent {
        Some((to, msg)) => {
            out.push(1);
            out.extend_from_slice(&(*to as u64).to_le_bytes());
            digest_msg(out, msg);
        }
        None => out.push(0),
    }
    out.push(run.merged_done as u8);
    out.push(run.contributed as u8);
}

fn digest_opt_ring(out: &mut Vec<u8>, run: Option<&RingRun>) {
    match run {
        Some(run) => {
            out.push(1);
            digest_ring(out, run);
        }
        None => out.push(0),
    }
}

/// Runs one device's protocol loop over `port` until the coordinator
/// sends [`Message::Shutdown`]; the device then uploads its final
/// parameters and returns. Timing comes from a fresh [`WallClock`];
/// see [`run_device_instrumented`] for an injected clock.
///
/// The loop trains one heterogeneity-aware local step at a time
/// (sleeping `step_sleep` per step to emulate compute power), answers
/// [`Message::Handshake`] probes, reports versions on request, joins
/// ring synchronizations it is planned into, and blends broadcast
/// models it receives while unselected.
///
/// # Errors
///
/// Returns substrate errors from training, and
/// [`HadflError::InvalidConfig`] when the fabric is torn down or a ring
/// synchronization exceeds `timing.ring_hard_limit`.
pub fn run_device<P: Port>(
    port: P,
    rt: DeviceRuntime,
    config: &HadflConfig,
    step_sleep: Duration,
    timing: &ProtocolTiming,
) -> Result<(), HadflError> {
    run_device_instrumented(
        port,
        rt,
        config,
        step_sleep,
        timing,
        &WallClock::new(),
        Telemetry::disabled(),
    )
}

/// [`run_device`] with an injected [`Clock`] and a telemetry handle:
/// emits the device lifecycle, local-step batches, and ring events, all
/// timestamped from `clock` so [`crate::clock::ManualClock`] runs are
/// deterministic.
///
/// # Errors
///
/// As [`run_device`].
pub fn run_device_instrumented<P: Port>(
    mut port: P,
    mut rt: DeviceRuntime,
    config: &HadflConfig,
    step_sleep: Duration,
    timing: &ProtocolTiming,
    clock: &dyn Clock,
    tel: Telemetry,
) -> Result<(), HadflError> {
    rt.set_optimizer(LrSchedule::constant(config.lr), config.momentum);
    let me = port.id();
    let participants = port.participants();
    tel.emit(clock.now(), EventKind::DeviceStarted { device: me as u32 });
    let mut actor = DeviceActor::new(me, participants, rt, config.blend_beta, timing.clone())
        .with_telemetry(tel);
    actor.begin_training(clock.now(), 1);
    loop {
        match actor.hint(clock.now()) {
            DeviceHint::Finished => return Ok(()),
            DeviceHint::Train => match port.try_recv()? {
                Some(msg) => actor.on_message(&mut port, msg, clock.now())?,
                None => {
                    // No command: one heterogeneity-aware local step.
                    actor.on_idle(&mut port)?;
                    clock.sleep(step_sleep);
                }
            },
            DeviceHint::Ring(wait) => match port.recv_timeout(wait)? {
                Some(msg) => actor.on_message(&mut port, msg, clock.now())?,
                None => actor.on_timer(&mut port, clock.now())?,
            },
        }
    }
}

/// Where the coordinator is in its round script.
#[derive(Debug, Clone)]
enum CoordPhase {
    /// Letting devices train until the window closes.
    Window { round: usize, until: Duration },
    /// Collecting version reports for `round` until the deadline.
    Collect {
        round: usize,
        versions: BTreeMap<usize, f64>,
        deadline: Duration,
    },
    /// Shutdown sent; collecting final parameter uploads.
    Final { deadline: Duration },
    /// Run complete.
    Done,
}

/// Which phase a [`CoordinatorActor`] is in (checker introspection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordPhaseKind {
    /// Training window open.
    Window,
    /// Collecting version reports.
    Collect,
    /// Collecting final parameters.
    Final,
    /// Run complete.
    Done,
}

/// What the blocking driver should do next for a [`CoordinatorActor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordHint {
    /// Sleep this long, then call [`CoordinatorActor::on_timer`].
    Sleep(Duration),
    /// Block up to this long for a message; on timeout call
    /// [`CoordinatorActor::on_timer`].
    Recv(Duration),
    /// A deadline already passed: call [`CoordinatorActor::on_timer`]
    /// immediately.
    Timer,
    /// The run is complete; collect it with
    /// [`CoordinatorActor::into_run`].
    Done,
}

/// The coordinator's protocol state machine, advanced one event at a
/// time: per round, wait out the window, collect version reports
/// (dropping devices that miss the deadline or are reported dead by a
/// ring), plan the ring via a [`Planner`], distribute the plan; after
/// the last round shut the cluster down and collect final parameters.
#[derive(Debug, Clone)]
pub struct CoordinatorActor<Pl: Planner> {
    k: usize,
    rounds: usize,
    window: Duration,
    timing: ProtocolTiming,
    planner: Pl,
    alive: BTreeSet<usize>,
    dropped: Vec<(usize, usize)>,
    rounds_log: Vec<ThreadedRound>,
    final_models: BTreeMap<usize, Vec<f32>>,
    phase: CoordPhase,
    /// Structured-event emitter; disabled by default. Never part of
    /// [`digest_into`](Self::digest_into) — observability must not
    /// split model-checker states.
    tel: Telemetry,
    /// Eq. (7) shadow predictors, one per device, maintained only while
    /// telemetry is enabled so prediction-vs-actual error can be
    /// logged per round. Planning behavior is untouched: the deployed
    /// coordinator plans from *reported* versions either way.
    predictors: Option<Vec<VersionPredictor>>,
    /// When the current round's window opened (round-latency metric).
    round_opened: Duration,
}

/// Smoothing factor of the telemetry-only Eq. (7) shadow predictors.
const TELEMETRY_PREDICTOR_ALPHA: f64 = 0.3;

impl<Pl: Planner> CoordinatorActor<Pl> {
    /// An actor for a `k`-device cluster starting its first window at
    /// `now`.
    pub fn new(
        k: usize,
        planner: Pl,
        window: Duration,
        rounds: usize,
        timing: ProtocolTiming,
        now: Duration,
    ) -> Self {
        CoordinatorActor {
            k,
            rounds,
            window,
            timing,
            planner,
            alive: (0..k).collect(),
            dropped: Vec::new(),
            rounds_log: Vec::new(),
            final_models: BTreeMap::new(),
            phase: CoordPhase::Window {
                round: 1,
                until: now + window,
            },
            tel: Telemetry::disabled(),
            predictors: None,
            round_opened: now,
        }
    }

    /// Attaches a telemetry handle; a disabled handle is a no-op. An
    /// enabled handle also switches on the per-device Eq. (7) shadow
    /// predictors behind the round's prediction-error events.
    #[must_use]
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        if tel.enabled() {
            self.predictors = (0..self.k)
                .map(|_| VersionPredictor::new(TELEMETRY_PREDICTOR_ALPHA, 0.0))
                .collect::<Result<Vec<_>, _>>()
                .ok();
        }
        self.tel = tel;
        self
    }

    /// Devices still considered alive.
    pub fn alive(&self) -> &BTreeSet<usize> {
        &self.alive
    }

    /// Which phase the coordinator is in.
    pub fn phase_kind(&self) -> CoordPhaseKind {
        match self.phase {
            CoordPhase::Window { .. } => CoordPhaseKind::Window,
            CoordPhase::Collect { .. } => CoordPhaseKind::Collect,
            CoordPhase::Final { .. } => CoordPhaseKind::Final,
            CoordPhase::Done => CoordPhaseKind::Done,
        }
    }

    /// Is the run complete?
    pub fn is_done(&self) -> bool {
        matches!(self.phase, CoordPhase::Done)
    }

    /// Alive devices whose report (Collect) or final upload (Final)
    /// has not arrived yet — empty in other phases. The checker uses
    /// this to decide when a deadline may legitimately elapse: under
    /// correctly-tuned production timeouts a deadline only fires for
    /// devices that are really gone.
    pub fn awaiting(&self) -> Vec<usize> {
        match &self.phase {
            CoordPhase::Collect { versions, .. } => self
                .alive
                .iter()
                .copied()
                .filter(|d| !versions.contains_key(d))
                .collect(),
            CoordPhase::Final { .. } => self
                .alive
                .iter()
                .copied()
                .filter(|d| !self.final_models.contains_key(d))
                .collect(),
            CoordPhase::Window { .. } | CoordPhase::Done => Vec::new(),
        }
    }

    /// The round currently being windowed or collected, if any
    /// (checker introspection: round tags must be monotone).
    pub fn current_round(&self) -> Option<usize> {
        match &self.phase {
            CoordPhase::Window { round, .. } | CoordPhase::Collect { round, .. } => Some(*round),
            CoordPhase::Final { .. } | CoordPhase::Done => None,
        }
    }

    /// What the blocking driver should do next.
    pub fn hint(&self, now: Duration) -> CoordHint {
        match &self.phase {
            CoordPhase::Window { until, .. } => CoordHint::Sleep(until.saturating_sub(now)),
            CoordPhase::Collect { deadline, .. } | CoordPhase::Final { deadline } => {
                let left = deadline.saturating_sub(now);
                if left.is_zero() {
                    CoordHint::Timer
                } else {
                    CoordHint::Recv(left)
                }
            }
            CoordPhase::Done => CoordHint::Done,
        }
    }

    /// The run's outcome. Meaningful once [`is_done`](Self::is_done).
    pub fn into_run(self) -> CoordinatorRun {
        self.tel.flush();
        CoordinatorRun {
            rounds: self.rounds_log,
            final_models: self.final_models,
            dropped: self.dropped,
        }
    }

    /// Delivers one message to the actor.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::ClusterDead`] when a report collection
    /// this message completes leaves fewer than two devices, and
    /// planner errors.
    pub fn on_message<P: Port>(
        &mut self,
        port: &mut P,
        msg: Message,
        now: Duration,
    ) -> Result<(), HadflError> {
        let mut collect_full = false;
        let mut final_full = false;
        match &mut self.phase {
            CoordPhase::Collect {
                round, versions, ..
            } => {
                let round = *round;
                match msg {
                    Message::VersionReport {
                        device, version, ..
                    } => {
                        let device = device as usize;
                        if self.alive.contains(&device) {
                            versions.insert(device, version);
                        }
                    }
                    Message::BypassWarning { dead } => {
                        let dead = dead as usize;
                        if self.alive.remove(&dead) {
                            self.dropped.push((dead, round));
                            versions.remove(&dead);
                            self.tel.emit(
                                now,
                                EventKind::DeviceDropped {
                                    round: round as u32,
                                    device: dead as u32,
                                },
                            );
                        }
                    }
                    _ => {}
                }
                collect_full = versions.len() >= self.alive.len();
            }
            CoordPhase::Final { .. } => {
                match msg {
                    Message::FinalParams { device, params } => {
                        let device = device as usize;
                        if self.alive.contains(&device) {
                            self.final_models.insert(device, params);
                        }
                    }
                    Message::BypassWarning { dead } => {
                        let dead = dead as usize;
                        if self.alive.remove(&dead) {
                            self.dropped.push((dead, self.rounds));
                            self.tel.emit(
                                now,
                                EventKind::DeviceDropped {
                                    round: self.rounds as u32,
                                    device: dead as u32,
                                },
                            );
                        }
                    }
                    _ => {}
                }
                final_full = self.final_models.len() >= self.alive.len();
            }
            // The blocking driver never polls during a window (it
            // sleeps); under the checker, deliveries are gated off.
            // Anything that does land here is dropped, matching a
            // message the blocking coordinator would only have read
            // later from its mailbox.
            CoordPhase::Window { .. } | CoordPhase::Done => {}
        }
        if collect_full {
            self.finish_collect(port, now)?;
        }
        if final_full {
            self.phase = CoordPhase::Done;
        }
        Ok(())
    }

    /// An elapsed deadline: close the window, the report collection, or
    /// the final-upload collection — whichever is pending.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::ClusterDead`] when a closed report
    /// collection leaves fewer than two devices, and planner errors.
    pub fn on_timer<P: Port>(&mut self, port: &mut P, now: Duration) -> Result<(), HadflError> {
        match &self.phase {
            CoordPhase::Window { round, until } if now >= *until => {
                let round = *round;
                for &d in &self.alive {
                    let _ = port.send(
                        d,
                        &Message::ReportRequest {
                            round: round as u32,
                        },
                    );
                }
                self.phase = CoordPhase::Collect {
                    round,
                    versions: BTreeMap::new(),
                    deadline: now + self.timing.report_deadline,
                };
                Ok(())
            }
            CoordPhase::Collect { deadline, .. } if now >= *deadline => {
                self.finish_collect(port, now)
            }
            CoordPhase::Final { deadline } if now >= *deadline => {
                self.phase = CoordPhase::Done;
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Canonical bytes of the actor's full state (model-checker
    /// deduplication).
    pub fn digest_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.k as u64).to_le_bytes());
        out.extend_from_slice(&(self.alive.len() as u64).to_le_bytes());
        for &d in &self.alive {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        out.extend_from_slice(&(self.dropped.len() as u64).to_le_bytes());
        for &(d, r) in &self.dropped {
            out.extend_from_slice(&(d as u64).to_le_bytes());
            out.extend_from_slice(&(r as u64).to_le_bytes());
        }
        out.extend_from_slice(&(self.rounds_log.len() as u64).to_le_bytes());
        for entry in &self.rounds_log {
            out.extend_from_slice(&(entry.round as u64).to_le_bytes());
            for &v in &entry.versions {
                out.extend_from_slice(&v.to_le_bytes());
            }
            for &s in &entry.selected {
                out.extend_from_slice(&(s as u64).to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.final_models.len() as u64).to_le_bytes());
        for (&d, params) in &self.final_models {
            out.extend_from_slice(&(d as u64).to_le_bytes());
            for p in params {
                out.extend_from_slice(&p.to_bits().to_le_bytes());
            }
        }
        match &self.phase {
            CoordPhase::Window { round, until } => {
                out.push(0);
                out.extend_from_slice(&(*round as u64).to_le_bytes());
                out.extend_from_slice(&(until.as_nanos() as u64).to_le_bytes());
            }
            CoordPhase::Collect {
                round,
                versions,
                deadline,
            } => {
                out.push(1);
                out.extend_from_slice(&(*round as u64).to_le_bytes());
                out.extend_from_slice(&(versions.len() as u64).to_le_bytes());
                for (&d, &v) in versions {
                    out.extend_from_slice(&(d as u64).to_le_bytes());
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                out.extend_from_slice(&(deadline.as_nanos() as u64).to_le_bytes());
            }
            CoordPhase::Final { deadline } => {
                out.push(2);
                out.extend_from_slice(&(deadline.as_nanos() as u64).to_le_bytes());
            }
            CoordPhase::Done => out.push(3),
        }
        self.planner.digest(out);
    }

    /// Closes the round's report collection: drops devices that missed
    /// the deadline, plans and distributes the next ring — or, after
    /// the last round, shuts the cluster down.
    fn finish_collect<P: Port>(&mut self, port: &mut P, now: Duration) -> Result<(), HadflError> {
        let CoordPhase::Collect {
            round, versions, ..
        } = mem::replace(&mut self.phase, CoordPhase::Done)
        else {
            return Ok(());
        };
        // §III-D, coordinator side: missing the deadline means dead.
        let missing: Vec<usize> = self
            .alive
            .iter()
            .copied()
            .filter(|d| !versions.contains_key(d))
            .collect();
        for d in missing {
            self.alive.remove(&d);
            self.dropped.push((d, round));
            self.tel.emit(
                now,
                EventKind::DeviceDropped {
                    round: round as u32,
                    device: d as u32,
                },
            );
        }
        if self.alive.len() < 2 {
            // Best-effort shutdown of *every* device, dropped included:
            // a device the coordinator dropped may well still be
            // running, and without a Shutdown it would train forever
            // (and a threaded harness would never join its thread).
            for d in self.shutdown_targets() {
                let _ = port.send(d, &Message::Shutdown);
            }
            self.tel.emit(
                now,
                EventKind::ShutdownSent {
                    round: round as u32,
                },
            );
            self.tel.flush();
            return Err(HadflError::ClusterDead { round });
        }

        let available: Vec<DeviceId> = self.alive.iter().map(|&d| DeviceId(d)).collect();
        let avail_versions: Vec<f64> = available.iter().map(|d| versions[&d.index()]).collect();
        if let Some(predictors) = self.predictors.as_mut() {
            // Eq. (7) shadow forecast: predicted-vs-actual *before* the
            // round's observation updates the smoother.
            for (d, &actual) in available.iter().zip(&avail_versions) {
                if let Some(p) = predictors.get_mut(d.index()) {
                    let predicted = p.forecast(1);
                    self.tel.emit(
                        now,
                        EventKind::Prediction {
                            round: round as u32,
                            device: d.index() as u32,
                            predicted,
                            actual,
                        },
                    );
                    p.observe(actual);
                }
            }
        }
        let plan = self.planner.plan(&available, &avail_versions)?;
        let ring: Vec<u32> = plan
            .ring
            .members()
            .iter()
            .map(|d| d.index() as u32)
            .collect();
        let unselected: Vec<u32> = plan.unselected.iter().map(|d| d.index() as u32).collect();
        // The decision is logged before its frames go out: RoundPlanned
        // is the causal source of the round's critical path, so it must
        // happen-before every RoundPlan send in the merged timeline.
        if self.tel.enabled() {
            self.tel.emit(
                now,
                EventKind::RoundPlanned {
                    round: round as u32,
                    available: available.iter().map(|d| d.index() as u32).collect(),
                    versions: avail_versions.clone(),
                    probabilities: self
                        .planner
                        .last_probabilities()
                        .map(<[f64]>::to_vec)
                        .unwrap_or_default(),
                    selected: plan.selected.iter().map(|d| d.index() as u32).collect(),
                    unselected: unselected.clone(),
                    broadcaster: plan.broadcaster.index() as u32,
                },
            );
        }
        for &member in plan.ring.members() {
            let _ = port.send(
                member.index(),
                &Message::RoundPlan {
                    round: round as u32,
                    ring: ring.clone(),
                    broadcaster: plan.broadcaster.index() as u32,
                    unselected: unselected.clone(),
                },
            );
        }
        let mut version_row = vec![0u64; self.k];
        for (&d, &v) in &versions {
            version_row[d] = v as u64;
        }
        self.rounds_log.push(ThreadedRound {
            round,
            versions: version_row,
            selected: plan.selected.iter().map(|d| d.index()).collect(),
        });
        if self.tel.enabled() {
            self.tel.emit(
                now,
                EventKind::RoundComplete {
                    round: round as u32,
                    duration_us: now.saturating_sub(self.round_opened).as_micros() as u64,
                },
            );
        }

        if round >= self.rounds {
            // Shutdown goes to every device, dropped ones included —
            // being dropped from planning does not stop a device's
            // training loop, so it must still hear that the run is
            // over. Only live devices' final parameters are collected.
            for d in self.shutdown_targets() {
                let _ = port.send(d, &Message::Shutdown);
            }
            self.tel.emit(
                now,
                EventKind::ShutdownSent {
                    round: round as u32,
                },
            );
            self.tel.flush();
            self.phase = CoordPhase::Final {
                deadline: now + self.timing.final_deadline,
            };
        } else {
            self.round_opened = now;
            self.phase = CoordPhase::Window {
                round: round + 1,
                until: now + self.window,
            };
        }
        Ok(())
    }

    /// Who a cluster shutdown is addressed to: every device — unless
    /// the seeded PR-1 bug narrows it to the alive set, stranding
    /// dropped-but-running devices.
    fn shutdown_targets(&self) -> Vec<usize> {
        if seeded::shutdown_alive_only() {
            self.alive.iter().copied().collect()
        } else {
            (0..self.k).collect()
        }
    }
}

/// Runs the coordinator's protocol loop over `port` (see
/// [`CoordinatorActor`] for the script). Timing comes from a fresh
/// [`WallClock`]; see [`run_coordinator_instrumented`] for an injected
/// clock.
///
/// # Errors
///
/// Returns [`HadflError::ClusterDead`] when fewer than two devices
/// remain, and fabric errors from the transport.
pub fn run_coordinator<P: Port>(
    port: P,
    config: &HadflConfig,
    window: Duration,
    rounds: usize,
    timing: &ProtocolTiming,
) -> Result<CoordinatorRun, HadflError> {
    run_coordinator_instrumented(
        port,
        config,
        window,
        rounds,
        timing,
        &WallClock::new(),
        Telemetry::disabled(),
    )
}

/// [`run_coordinator`] with an injected [`Clock`] and a telemetry
/// handle: emits round plans with their Eq. (8) selection probabilities,
/// Eq. (7) prediction-vs-actual versions, device drops, and round
/// latencies.
///
/// # Errors
///
/// As [`run_coordinator`].
pub fn run_coordinator_instrumented<P: Port>(
    mut port: P,
    config: &HadflConfig,
    window: Duration,
    rounds: usize,
    timing: &ProtocolTiming,
    clock: &dyn Clock,
    tel: Telemetry,
) -> Result<CoordinatorRun, HadflError> {
    let k = port.participants() - 1;
    let planner = StrategyGenerator::new(config);
    let mut actor = CoordinatorActor::new(k, planner, window, rounds, timing.clone(), clock.now())
        .with_telemetry(tel);
    loop {
        match actor.hint(clock.now()) {
            CoordHint::Sleep(d) => {
                clock.sleep(d);
                actor.on_timer(&mut port, clock.now())?;
            }
            CoordHint::Timer => actor.on_timer(&mut port, clock.now())?,
            CoordHint::Recv(left) => match port.recv_timeout(left)? {
                Some(msg) => actor.on_message(&mut port, msg, clock.now())?,
                None => actor.on_timer(&mut port, clock.now())?,
            },
            CoordHint::Done => return Ok(actor.into_run()),
        }
    }
}

/// Runs HADFL over real threads and in-process channels. See the
/// module docs.
///
/// # Errors
///
/// Returns configuration/substrate errors from setup, and
/// [`HadflError::ClusterDead`] if fewer than two devices survive.
///
/// # Example
///
/// ```no_run
/// use hadfl::exec::{run_threaded, ThreadedOptions};
/// use hadfl::{HadflConfig, Workload};
///
/// # fn main() -> Result<(), hadfl::HadflError> {
/// let report = run_threaded(
///     &Workload::quick("mlp", 0),
///     &HadflConfig::builder().build()?,
///     &ThreadedOptions::quick(&[2.0, 1.0, 1.0]),
/// )?;
/// println!("consensus accuracy {:.3}", report.final_accuracy);
/// # Ok(())
/// # }
/// ```
pub fn run_threaded(
    workload: &Workload,
    config: &HadflConfig,
    opts: &ThreadedOptions,
) -> Result<ThreadedReport, HadflError> {
    let (built, hub, coordinator_port, mut device_ports) = open_cluster(workload, opts)?;
    let k = device_ports.len();
    let wall_clock = WallClock::new();

    let outcome = thread::scope(|scope| -> Result<CoordinatorRun, HadflError> {
        let mut handles = Vec::with_capacity(k);
        for (i, (port, rt)) in device_ports.drain(..).zip(built.runtimes).enumerate() {
            let sleep = Duration::from_secs_f64(opts.step_sleep.as_secs_f64() / opts.powers[i]);
            let timing = opts.timing.clone();
            handles.push(scope.spawn(move || run_device(port, rt, config, sleep, &timing)));
        }
        let run = run_coordinator(
            coordinator_port,
            config,
            opts.window,
            opts.rounds,
            &opts.timing,
        )?;
        for handle in handles {
            handle
                .join()
                .map_err(|_| HadflError::InvalidConfig("device thread panicked".into()))??;
        }
        Ok(run)
    })?;

    close_cluster(workload, &built.test, &hub, k, outcome, wall_clock.now())
}

/// The opening [`run_threaded`] and [`run_virtual`] share: validated
/// options, the built workload, and a channel hub with the
/// coordinator's port and one port per device claimed.
fn open_cluster(
    workload: &Workload,
    opts: &ThreadedOptions,
) -> Result<
    (
        BuiltWorkload,
        ChannelTransport,
        ChannelPort,
        Vec<ChannelPort>,
    ),
    HadflError,
> {
    let k = opts.powers.len();
    if k < 2 {
        return Err(HadflError::InvalidConfig("need at least 2 devices".into()));
    }
    if opts.rounds == 0 {
        return Err(HadflError::InvalidConfig("need at least 1 round".into()));
    }
    if opts.powers.iter().any(|&p| !(p > 0.0) || !p.is_finite()) {
        return Err(HadflError::InvalidConfig(format!(
            "bad powers {:?}",
            opts.powers
        )));
    }
    let built = workload.build(k)?;
    let mut hub = ChannelTransport::hub(k + 1);
    let coordinator_port = hub.claim(coordinator_id(k))?;
    let device_ports = (0..k).map(|i| hub.claim(i)).collect::<Result<_, _>>()?;
    Ok((built, hub, coordinator_port, device_ports))
}

/// The close they share: averages the collected final models, tests
/// the mean on a freshly initialised model — not on a trained replica,
/// whose BatchNorm running statistics are not part of the parameter
/// vector and differ from device to device — and reads the byte
/// ledger off the hub.
fn close_cluster(
    workload: &Workload,
    test: &Dataset,
    hub: &ChannelTransport,
    k: usize,
    outcome: CoordinatorRun,
    wall: Duration,
) -> Result<ThreadedReport, HadflError> {
    if outcome.final_models.is_empty() {
        return Err(HadflError::InvalidConfig(
            "no device uploaded final parameters".into(),
        ));
    }
    let refs: Vec<&[f32]> = outcome.final_models.values().map(Vec::as_slice).collect();
    let consensus = crate::aggregate::average_params(&refs)?;
    let metrics = evaluate_with(&mut workload.model()?, test, &consensus)?;
    let stats = hub.net_stats();
    Ok(ThreadedReport {
        rounds: outcome.rounds,
        final_accuracy: metrics.accuracy,
        peer_bytes: stats.total_bytes() - stats.server_bytes(),
        comm: CommSummary::from_stats(&stats, k),
        dropped: outcome.dropped,
        wall,
    })
}

/// [`run_threaded`] in virtual time: the same actors over the same
/// channel hub, but driven by one thread on a [`ManualClock`] as a
/// discrete-event simulation. Heterogeneity becomes exact — a power-4
/// device takes *exactly* 4× the local steps of a power-1 device per
/// window, because steps are scheduled at `step_sleep / power`
/// intervals of virtual time instead of raced against the OS
/// scheduler. Identical inputs give identical reports, so assertions
/// about relative progress ("the fast device outpaces the slow one")
/// hold on any host, however loaded.
///
/// The driver mirrors the blocking loops event-for-event: in-flight
/// messages are delivered to a fixpoint before time advances (channel
/// latency is zero in virtual time), then the clock jumps straight to
/// the earliest pending deadline — a device's next scheduled step, a
/// ring silence timeout, or the coordinator's window/report/final
/// deadline.
///
/// `report.wall` is virtual elapsed time.
///
/// # Errors
///
/// As [`run_threaded`].
pub fn run_virtual(
    workload: &Workload,
    config: &HadflConfig,
    opts: &ThreadedOptions,
) -> Result<ThreadedReport, HadflError> {
    let (built, hub, mut coord_port, mut device_ports) = open_cluster(workload, opts)?;
    let k = device_ports.len();
    let clock = ManualClock::new();

    let planner = StrategyGenerator::new(config);
    let mut coord = CoordinatorActor::new(
        k,
        planner,
        opts.window,
        opts.rounds,
        opts.timing.clone(),
        clock.now(),
    );

    let mut devices = Vec::with_capacity(k);
    let mut sleeps = Vec::with_capacity(k);
    let mut next_step = Vec::with_capacity(k);
    for (i, mut rt) in built.runtimes.into_iter().enumerate() {
        rt.set_optimizer(LrSchedule::constant(config.lr), config.momentum);
        let mut actor = DeviceActor::new(i, k + 1, rt, config.blend_beta, opts.timing.clone());
        actor.begin_training(clock.now(), 1);
        devices.push(actor);
        // Like the blocking loop: step first, then wait out the sleep.
        sleeps.push(Duration::from_secs_f64(
            opts.step_sleep.as_secs_f64() / opts.powers[i],
        ));
        next_step.push(clock.now());
    }

    let outcome = loop {
        // Deliver every in-flight message before anything else happens:
        // virtual channels have zero latency, so a frame sent "now" is
        // readable "now". Actions below may send more — drain to a
        // fixpoint.
        loop {
            let mut progressed = false;
            while let Some(msg) = coord_port.try_recv()? {
                coord.on_message(&mut coord_port, msg, clock.now())?;
                progressed = true;
            }
            for (i, actor) in devices.iter_mut().enumerate() {
                while let Some(msg) = device_ports[i].try_recv()? {
                    // A finished device's leftovers are dead frames.
                    if !matches!(actor.hint(clock.now()), DeviceHint::Finished) {
                        actor.on_message(&mut device_ports[i], msg, clock.now())?;
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }

        let now = clock.now();
        let coord_wake = match coord.hint(now) {
            CoordHint::Done => break coord.into_run(),
            CoordHint::Timer => {
                coord.on_timer(&mut coord_port, now)?;
                continue;
            }
            // The blocking driver's Sleep unconditionally ends in
            // on_timer, and an elapsed Recv's recv_timeout(0) returns
            // None into on_timer; both fire immediately here.
            CoordHint::Sleep(d) | CoordHint::Recv(d) if d.is_zero() => {
                coord.on_timer(&mut coord_port, now)?;
                continue;
            }
            CoordHint::Sleep(d) | CoordHint::Recv(d) => now + d,
        };

        // Local steps due at the current instant (ports are empty, so
        // idle is the right action, exactly as in the blocking loop).
        let mut stepped = false;
        for (i, actor) in devices.iter_mut().enumerate() {
            if matches!(actor.hint(now), DeviceHint::Train) && next_step[i] <= now {
                actor.on_idle(&mut device_ports[i])?;
                next_step[i] = now + sleeps[i];
                stepped = true;
            }
        }
        if stepped {
            continue;
        }

        // Nothing due now: jump to the earliest pending deadline.
        let mut wake = coord_wake;
        let mut ring_deadline: Vec<Option<Duration>> = vec![None; k];
        for (i, actor) in devices.iter().enumerate() {
            match actor.hint(now) {
                DeviceHint::Finished => {}
                DeviceHint::Train => wake = wake.min(next_step[i]),
                DeviceHint::Ring(wait) => {
                    let deadline = now + wait;
                    ring_deadline[i] = Some(deadline);
                    wake = wake.min(deadline);
                }
            }
        }
        clock.set(wake);

        // Ring waits that just elapsed with an empty port are silence:
        // fire the §III-D probe logic. (Train steps and coordinator
        // deadlines are re-derived from hints on the next iteration.)
        let now = clock.now();
        for (i, actor) in devices.iter_mut().enumerate() {
            if ring_deadline[i].is_some_and(|d| d <= now)
                && matches!(actor.hint(now), DeviceHint::Ring(_))
            {
                actor.on_timer(&mut device_ports[i], now)?;
            }
        }
    };

    close_cluster(workload, &built.test, &hub, k, outcome, clock.now())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn quick_config(seed: u64) -> HadflConfig {
        HadflConfig::builder()
            .num_selected(2)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn threaded_run_completes_all_rounds() {
        let report = run_threaded(
            &Workload::quick("mlp", 61),
            &quick_config(61),
            &ThreadedOptions::quick(&[2.0, 1.0, 1.0]),
        )
        .unwrap();
        assert_eq!(report.rounds.len(), 3);
        assert!(report.final_accuracy.is_finite());
        assert!(
            report.peer_bytes > 0,
            "parameters must have moved between threads"
        );
        assert!(report.wall >= Duration::from_millis(3 * 60));
        assert!(report.dropped.is_empty());
    }

    #[test]
    fn fast_device_accumulates_more_versions() {
        // Virtual time makes the heterogeneity assertion exact: the
        // power-4 device steps every 2 ms of simulated time, the
        // power-1 device every 8 ms, so per 80 ms window the version
        // gap is 4x by construction — no OS scheduler involved.
        let report = run_virtual(
            &Workload::quick("mlp", 62),
            &quick_config(62),
            &ThreadedOptions {
                powers: vec![4.0, 1.0],
                step_sleep: Duration::from_millis(8),
                window: Duration::from_millis(80),
                rounds: 2,
                timing: ProtocolTiming::quick(),
            },
        )
        .unwrap();
        let last = report.rounds.last().unwrap();
        assert!(
            last.versions[0] > last.versions[1],
            "power-4 device should outpace power-1: {:?}",
            last.versions
        );
    }

    #[test]
    fn virtual_run_completes_rounds_and_is_deterministic() {
        let w = Workload::quick("mlp", 65);
        let c = quick_config(65);
        let opts = ThreadedOptions::quick(&[2.0, 1.0, 1.0]);
        let report = run_virtual(&w, &c, &opts).unwrap();
        assert_eq!(report.rounds.len(), 3);
        assert!(report.final_accuracy.is_finite());
        assert!(
            report.peer_bytes > 0,
            "parameters must have moved through the hub"
        );
        assert!(report.dropped.is_empty());
        assert!(report.wall >= Duration::from_millis(3 * 60));

        let again = run_virtual(&w, &c, &opts).unwrap();
        assert_eq!(report.rounds, again.rounds);
        assert_eq!(report.wall, again.wall);
        assert_eq!(report.peer_bytes, again.peer_bytes);
        assert!((report.final_accuracy - again.final_accuracy).abs() < 1e-12);
    }

    #[test]
    fn virtual_run_validates_options_like_threaded() {
        let w = Workload::quick("mlp", 66);
        let c = quick_config(66);
        assert!(run_virtual(&w, &c, &ThreadedOptions::quick(&[1.0])).is_err());
        let mut bad = ThreadedOptions::quick(&[1.0, 1.0]);
        bad.powers = vec![1.0, f64::NAN];
        assert!(run_virtual(&w, &c, &bad).is_err());
    }

    #[test]
    fn every_round_selects_a_valid_ring() {
        let report = run_threaded(
            &Workload::quick("mlp", 63),
            &quick_config(63),
            &ThreadedOptions::quick(&[1.0, 1.0, 1.0, 1.0]),
        )
        .unwrap();
        for r in &report.rounds {
            assert_eq!(r.selected.len(), 2);
            assert!(r.selected.iter().all(|&d| d < 4));
        }
    }

    #[test]
    fn validates_options() {
        let w = Workload::quick("mlp", 64);
        let c = quick_config(64);
        assert!(run_threaded(&w, &c, &ThreadedOptions::quick(&[1.0])).is_err());
        let mut bad = ThreadedOptions::quick(&[1.0, 1.0]);
        bad.rounds = 0;
        assert!(run_threaded(&w, &c, &bad).is_err());
        let mut bad = ThreadedOptions::quick(&[1.0, 1.0]);
        bad.powers = vec![1.0, -1.0];
        assert!(run_threaded(&w, &c, &bad).is_err());
    }

    #[test]
    fn comm_ledger_matches_peer_bytes() {
        let report = run_threaded(
            &Workload::quick("mlp", 65),
            &quick_config(65),
            &ThreadedOptions::quick(&[1.0, 1.0, 1.0]),
        )
        .unwrap();
        let device_total: u64 = report.comm.total_bytes - report.comm.server_bytes;
        assert_eq!(report.peer_bytes, device_total);
        assert!(report.comm.messages > 0);
        // Control traffic through the coordinator must be negligible
        // next to the parameter frames (decentralization claim).
        assert!(report.comm.server_bytes < report.peer_bytes);
    }

    /// A device the coordinator drops keeps training — being excluded
    /// from planning does not stop its loop. Shutdown must reach it
    /// anyway, or the harness would block forever joining its thread.
    #[test]
    fn shutdown_reaches_dropped_devices() {
        let k = 3;
        let config = quick_config(67);
        let workload = Workload::quick("mlp", 67);
        let built = workload.build(k).unwrap();
        let mut timing = ProtocolTiming::quick();
        timing.report_deadline = Duration::from_millis(500);
        let step_sleep = Duration::from_millis(4);

        let mut hub = ChannelTransport::hub(k + 1);
        let coordinator_port = hub.claim(coordinator_id(k)).unwrap();
        let mute_id = 2usize;
        let mut mute_port = hub.claim(mute_id).unwrap();
        let mut ports: Vec<_> = (0..k)
            .filter(|&i| i != mute_id)
            .map(|i| hub.claim(i).unwrap())
            .collect();

        let outcome = thread::scope(|scope| {
            let mut runtimes: Vec<_> = built.runtimes.into_iter().enumerate().collect();
            runtimes.retain(|(i, _)| *i != mute_id);
            for ((_, rt), port) in runtimes.into_iter().zip(ports.drain(..)) {
                let timing = timing.clone();
                let config = &config;
                scope.spawn(move || run_device(port, rt, config, step_sleep, &timing));
            }
            // The mute device never reports (so it is dropped in round
            // 1) but stays alive until it hears Shutdown.
            scope.spawn(move || {
                let clock = WallClock::new();
                let deadline = clock.now() + Duration::from_secs(30);
                loop {
                    assert!(
                        clock.now() < deadline,
                        "dropped device never heard Shutdown"
                    );
                    if let Ok(Some(Message::Shutdown)) =
                        mute_port.recv_timeout(Duration::from_millis(100))
                    {
                        return;
                    }
                }
            });
            run_coordinator(
                coordinator_port,
                &config,
                Duration::from_millis(60),
                2,
                &timing,
            )
        })
        .unwrap();

        assert!(
            outcome.dropped.iter().any(|&(d, _)| d == mute_id),
            "mute device must be dropped: {:?}",
            outcome.dropped
        );
        assert_eq!(outcome.final_models.len(), 2);
    }

    /// When the cluster collapses below two devices the coordinator
    /// errors out — but it must still shut the stragglers down instead
    /// of leaving them training forever.
    #[test]
    fn cluster_dead_still_shuts_devices_down() {
        let k = 2;
        let config = quick_config(68);
        let mut timing = ProtocolTiming::quick();
        timing.report_deadline = Duration::from_millis(300);

        let mut hub = ChannelTransport::hub(k + 1);
        let coordinator_port = hub.claim(coordinator_id(k)).unwrap();
        let mut mute_ports: Vec<_> = (0..k).map(|i| hub.claim(i).unwrap()).collect();

        let err = thread::scope(|scope| {
            for mut port in mute_ports.drain(..) {
                scope.spawn(move || {
                    let clock = WallClock::new();
                    let deadline = clock.now() + Duration::from_secs(30);
                    loop {
                        assert!(
                            clock.now() < deadline,
                            "device never heard Shutdown after ClusterDead"
                        );
                        if let Ok(Some(Message::Shutdown)) =
                            port.recv_timeout(Duration::from_millis(100))
                        {
                            return;
                        }
                    }
                });
            }
            run_coordinator(
                coordinator_port,
                &config,
                Duration::from_millis(40),
                2,
                &timing,
            )
        })
        .unwrap_err();
        assert!(
            matches!(err, HadflError::ClusterDead { round: 1 }),
            "expected ClusterDead, got {err:?}"
        );
    }

    /// TCP gives no ordering between the coordinator's connection and a
    /// peer's: a ring frame can arrive before the RoundPlan it belongs
    /// to. The member must hold it and replay it once the plan lands.
    #[test]
    fn ring_frames_overtaking_their_plan_are_replayed() {
        let k = 2;
        let config = quick_config(69);
        let workload = Workload::quick("mlp", 69);
        let mut runtimes = workload.build(k).unwrap().runtimes;
        let rt = runtimes.remove(0);
        let dim = rt.model.param_vector().len();
        let timing = ProtocolTiming::quick();

        let mut hub = ChannelTransport::hub(k + 1);
        let mut coord_port = hub.claim(coordinator_id(k)).unwrap();
        let device_port = hub.claim(0).unwrap();
        let mut peer_port = hub.claim(1).unwrap();

        thread::scope(|scope| {
            // The accumulation overtakes the plan that explains it.
            peer_port
                .send(
                    0,
                    &Message::ParamAccum {
                        round: 1,
                        hops: 1,
                        params: vec![0.5; dim],
                    },
                )
                .unwrap();
            coord_port
                .send(
                    0,
                    &Message::RoundPlan {
                        round: 1,
                        ring: vec![1, 0],
                        broadcaster: 1,
                        unselected: vec![],
                    },
                )
                .unwrap();
            coord_port.send(0, &Message::Shutdown).unwrap();
            let config = &config;
            let timing = timing.clone();
            let handle = scope.spawn(move || {
                run_device(device_port, rt, config, Duration::from_millis(1), &timing)
            });
            // The device closes the reduce it replayed from its backlog.
            match peer_port.recv_timeout(Duration::from_secs(10)).unwrap() {
                Some(Message::MergedParams {
                    round: 1,
                    ttl: 1,
                    params,
                }) => assert_eq!(params.len(), dim),
                other => panic!("expected the merged model, got {other:?}"),
            }
            match coord_port.recv_timeout(Duration::from_secs(10)).unwrap() {
                Some(Message::FinalParams { device: 0, .. }) => {}
                other => panic!("expected final params, got {other:?}"),
            }
            handle.join().unwrap().unwrap();
        });
    }

    /// After a bypass, the dead member's upstream re-sends its last
    /// accumulation — which can reach a member that already added its
    /// parameters. The duplicate must not be counted twice.
    #[test]
    fn duplicate_accum_after_bypass_is_ignored() {
        let k = 3;
        let config = quick_config(70);
        let workload = Workload::quick("mlp", 70);
        let mut runtimes = workload.build(k).unwrap().runtimes;
        let rt = runtimes.remove(0);
        let dim = rt.model.param_vector().len();
        let timing = ProtocolTiming::quick();

        let mut hub = ChannelTransport::hub(k + 1);
        let mut coord_port = hub.claim(coordinator_id(k)).unwrap();
        let device_port = hub.claim(0).unwrap();
        let mut peer1 = hub.claim(1).unwrap();
        let mut peer2 = hub.claim(2).unwrap();

        thread::scope(|scope| {
            coord_port
                .send(
                    0,
                    &Message::RoundPlan {
                        round: 1,
                        ring: vec![1, 0, 2],
                        broadcaster: 1,
                        unselected: vec![],
                    },
                )
                .unwrap();
            let accum = Message::ParamAccum {
                round: 1,
                hops: 1,
                params: vec![3.0; dim],
            };
            peer1.send(0, &accum).unwrap();
            // A bypass-repair re-send of the same accumulation.
            peer1.send(0, &accum).unwrap();
            peer1
                .send(
                    0,
                    &Message::MergedParams {
                        round: 1,
                        ttl: 1,
                        params: vec![7.0; dim],
                    },
                )
                .unwrap();
            coord_port.send(0, &Message::Shutdown).unwrap();
            let config = &config;
            let timing = timing.clone();
            let handle = scope.spawn(move || {
                run_device(device_port, rt, config, Duration::from_millis(1), &timing)
            });
            match coord_port.recv_timeout(Duration::from_secs(10)).unwrap() {
                Some(Message::FinalParams { device: 0, params }) => {
                    assert!(
                        params.iter().all(|&p| p == 7.0),
                        "device must install the merged model unchanged"
                    );
                }
                other => panic!("expected final params, got {other:?}"),
            }
            handle.join().unwrap().unwrap();
            // Exactly one accumulation reaches the downstream: the
            // duplicate was dropped, not forwarded with doubled params.
            let mut accums = 0;
            while let Some(msg) = peer2.try_recv().unwrap() {
                if let Message::ParamAccum { hops, .. } = msg {
                    assert_eq!(hops, 2);
                    accums += 1;
                }
            }
            assert_eq!(accums, 1, "the re-sent duplicate must not be forwarded");
        });
    }

    /// A member that finished its ring and went back to training may
    /// still hold the only copy of the frame its (now dead) downstream
    /// never forwarded: a late BypassWarning must trigger the re-send
    /// even outside the ring loop.
    #[test]
    fn finished_member_repairs_ring_after_downstream_death() {
        let k = 3;
        let config = quick_config(71);
        let workload = Workload::quick("mlp", 71);
        let mut runtimes = workload.build(k).unwrap().runtimes;
        let rt = runtimes.remove(0);
        let dim = rt.model.param_vector().len();
        let timing = ProtocolTiming::quick();

        let mut hub = ChannelTransport::hub(k + 1);
        let mut coord_port = hub.claim(coordinator_id(k)).unwrap();
        let device_port = hub.claim(0).unwrap();
        let mut peer1 = hub.claim(1).unwrap();
        let mut peer2 = hub.claim(2).unwrap();

        thread::scope(|scope| {
            coord_port
                .send(
                    0,
                    &Message::RoundPlan {
                        round: 1,
                        ring: vec![2, 0, 1],
                        broadcaster: 2,
                        unselected: vec![],
                    },
                )
                .unwrap();
            // Device 0 closes the reduce and forwards the merged model
            // to its downstream 1...
            peer2
                .send(
                    0,
                    &Message::ParamAccum {
                        round: 1,
                        hops: 2,
                        params: vec![1.0; dim],
                    },
                )
                .unwrap();
            // ...which dies before forwarding; the stranded member 2
            // broadcasts the bypass.
            peer2.send(0, &Message::BypassWarning { dead: 1 }).unwrap();
            coord_port.send(0, &Message::Shutdown).unwrap();
            let config = &config;
            let timing = timing.clone();
            let handle = scope.spawn(move || {
                run_device(device_port, rt, config, Duration::from_millis(1), &timing)
            });
            match peer1.recv_timeout(Duration::from_secs(10)).unwrap() {
                Some(Message::MergedParams {
                    round: 1, ttl: 2, ..
                }) => {}
                other => panic!("downstream 1 should get the merge first, got {other:?}"),
            }
            // The repair: device 0 re-sends its merged frame to the new
            // downstream even though its own ring is long finished.
            match peer2.recv_timeout(Duration::from_secs(10)).unwrap() {
                Some(Message::MergedParams {
                    round: 1,
                    ttl: 2,
                    params,
                }) => assert_eq!(params.len(), dim),
                other => panic!("stranded member must be repaired, got {other:?}"),
            }
            match coord_port.recv_timeout(Duration::from_secs(10)).unwrap() {
                Some(Message::FinalParams { device: 0, .. }) => {}
                other => panic!("expected final params, got {other:?}"),
            }
            handle.join().unwrap().unwrap();
        });
    }

    /// A planned ring member that dies silently mid-protocol: it
    /// reports versions (so the coordinator keeps planning it) but
    /// ignores ring frames and handshakes. The live members must detect
    /// it via the §III-D probe and close the ring around it.
    #[test]
    fn ring_bypasses_a_silent_member() {
        let k = 4;
        let seed = 66;
        let workload = Workload::quick("mlp", seed);
        // Select every device so the zombie is in the ring from round 1.
        let config = HadflConfig::builder()
            .num_selected(4)
            .seed(seed)
            .build()
            .unwrap();
        let built = workload.build(k).unwrap();
        let timing = ProtocolTiming::quick();
        let step_sleep = Duration::from_millis(4);

        let mut hub = ChannelTransport::hub(k + 1);
        let coordinator_port = hub.claim(coordinator_id(k)).unwrap();
        let zombie_id = 2usize;
        let mut zombie_port = hub.claim(zombie_id).unwrap();
        let mut ports: Vec<_> = (0..k)
            .filter(|&i| i != zombie_id)
            .map(|i| hub.claim(i).unwrap())
            .collect();

        let outcome = thread::scope(|scope| {
            let mut runtimes: Vec<_> = built.runtimes.into_iter().enumerate().collect();
            runtimes.retain(|(i, _)| *i != zombie_id);
            for ((_, rt), port) in runtimes.into_iter().zip(ports.drain(..)) {
                let timing = timing.clone();
                let config = &config;
                scope.spawn(move || run_device(port, rt, config, step_sleep, &timing));
            }
            // The zombie answers the first version report and then dies
            // silently — a death *after* planning, which only the
            // in-ring handshake path can catch.
            scope.spawn(move || loop {
                match zombie_port.recv_timeout(Duration::from_secs(5)) {
                    Ok(Some(Message::ReportRequest { round })) => {
                        let _ = zombie_port.send(
                            k,
                            &Message::VersionReport {
                                device: zombie_id as u32,
                                round,
                                version: 1.0,
                            },
                        );
                        return;
                    }
                    Ok(Some(_)) => {}
                    _ => return,
                }
            });
            run_coordinator(
                coordinator_port,
                &config,
                Duration::from_millis(60),
                2,
                &timing,
            )
        })
        .unwrap();

        assert_eq!(outcome.rounds.len(), 2);
        assert!(
            outcome.dropped.iter().any(|&(d, _)| d == zombie_id),
            "zombie must be reported dead via the bypass path: {:?}",
            outcome.dropped
        );
        // The three live devices all upload final parameters.
        assert_eq!(outcome.final_models.len(), 3);
        assert!(!outcome.final_models.contains_key(&zombie_id));
    }

    /// A minimal [`TrainState`] for single-stepping the actors without
    /// a real training substrate.
    #[derive(Debug, Clone)]
    struct StubTrain {
        params: Vec<f32>,
        steps: u64,
    }

    impl TrainState for StubTrain {
        fn params(&self) -> Vec<f32> {
            self.params.clone()
        }
        fn set_params(&mut self, params: &[f32]) -> Result<(), HadflError> {
            self.params = params.to_vec();
            Ok(())
        }
        fn train_step(&mut self) -> Result<(), HadflError> {
            self.steps += 1;
            Ok(())
        }
        fn version(&self) -> f64 {
            self.steps as f64
        }
    }

    fn stub_actor(me: usize, k: usize) -> DeviceActor<StubTrain> {
        DeviceActor::new(
            me,
            k + 1,
            StubTrain {
                params: vec![1.0, 2.0],
                steps: 0,
            },
            0.5,
            ProtocolTiming::zero(),
        )
    }

    /// Single-stepped through a full two-member ring, the actor walks
    /// Training → Ring → Training → Finished and its digest changes at
    /// every transition.
    #[test]
    fn device_actor_single_steps_a_ring() {
        let k = 2;
        let mut hub = ChannelTransport::hub(k + 1);
        let mut port = hub.claim(0).unwrap();
        let mut peer = hub.claim(1).unwrap();
        let mut actor = stub_actor(0, k);
        let t = Duration::ZERO;

        assert_eq!(actor.hint(t), DeviceHint::Train);
        let mut d0 = Vec::new();
        actor.digest_into(&mut d0);

        actor
            .on_message(
                &mut port,
                Message::RoundPlan {
                    round: 1,
                    ring: vec![0, 1],
                    broadcaster: 0,
                    unselected: vec![],
                },
                t,
            )
            .unwrap();
        assert_eq!(actor.ring_round(), Some(1));
        let mut d1 = Vec::new();
        actor.digest_into(&mut d1);
        assert_ne!(d0, d1, "entering the ring must change the digest");
        // As live[0] the actor initiated the reduce.
        match peer.try_recv().unwrap() {
            Some(Message::ParamAccum {
                round: 1, hops: 1, ..
            }) => {}
            other => panic!("expected the opening accumulation, got {other:?}"),
        }

        actor
            .on_message(
                &mut port,
                Message::MergedParams {
                    round: 1,
                    ttl: 1,
                    params: vec![5.0, 5.0],
                },
                t,
            )
            .unwrap();
        assert_eq!(actor.ring_round(), None);
        assert_eq!(actor.done_round(), 1);
        assert_eq!(actor.train().params, vec![5.0, 5.0]);

        actor.on_message(&mut port, Message::Shutdown, t).unwrap();
        assert!(actor.is_finished());
        assert_eq!(actor.hint(t), DeviceHint::Finished);
    }

    /// Two timer firings — probe, then expired probe — bypass a dead
    /// upstream, exactly the §III-D schedule the checker explores.
    #[test]
    fn device_actor_timers_drive_the_bypass() {
        let k = 3;
        let mut hub = ChannelTransport::hub(k + 1);
        let mut port = hub.claim(0).unwrap();
        let mut peer1 = hub.claim(1).unwrap();
        let mut peer2 = hub.claim(2).unwrap();
        let mut coord = hub.claim(k).unwrap();
        let mut actor = stub_actor(0, k);
        let t = Duration::ZERO;

        // Ring 2 → 0 → 1: the upstream 2 will never answer.
        actor
            .on_message(
                &mut port,
                Message::RoundPlan {
                    round: 1,
                    ring: vec![2, 0, 1],
                    broadcaster: 2,
                    unselected: vec![],
                },
                t,
            )
            .unwrap();
        assert!(!actor.probe_armed());
        actor.on_timer(&mut port, t).unwrap();
        assert!(actor.probe_armed(), "first timer arms the probe");
        match peer2.try_recv().unwrap() {
            Some(Message::Handshake { from: 0 }) => {}
            other => panic!("expected a handshake probe, got {other:?}"),
        }
        actor.on_timer(&mut port, t).unwrap();
        assert!(!actor.probe_armed(), "second timer declares the death");
        match peer1.try_recv().unwrap() {
            Some(Message::BypassWarning { dead: 2 }) => {}
            other => panic!("ring peers must hear the bypass, got {other:?}"),
        }
        match coord.try_recv().unwrap() {
            Some(Message::BypassWarning { dead: 2 }) => {}
            other => panic!("coordinator must hear the bypass, got {other:?}"),
        }
        // The origin died silent, so this member (now first) initiates.
        match peer1.try_recv().unwrap() {
            Some(Message::ParamAccum {
                round: 1, hops: 1, ..
            }) => {}
            other => panic!("survivor must initiate the reduce, got {other:?}"),
        }
    }

    /// A live upstream's ack clears the probe instead of killing it.
    #[test]
    fn device_actor_ack_clears_probe() {
        let k = 2;
        let mut hub = ChannelTransport::hub(k + 1);
        let mut port = hub.claim(0).unwrap();
        let _peer = hub.claim(1).unwrap();
        let mut actor = stub_actor(0, k);
        let t = Duration::ZERO;
        actor
            .on_message(
                &mut port,
                Message::RoundPlan {
                    round: 1,
                    ring: vec![1, 0],
                    broadcaster: 1,
                    unselected: vec![],
                },
                t,
            )
            .unwrap();
        actor.on_timer(&mut port, t).unwrap();
        assert!(actor.probe_armed());
        actor
            .on_message(&mut port, Message::HandshakeAck { from: 1 }, t)
            .unwrap();
        assert!(!actor.probe_armed(), "ack must clear the §III-D probe");
        assert_eq!(actor.ring_round(), Some(1), "ring continues after ack");
    }

    /// The wrap-around bypass shape `hadfl-check` found: in ring
    /// 0→1→2→0, member 2 dies after 1 forwarded it the two-member
    /// accumulation; 1's bypass re-send hands the *complete* sum back
    /// to the already-contributed initiator 0, who must merge it (not
    /// drop it as a duplicate, which stalls the ring for good).
    #[test]
    fn complete_resend_to_contributed_initiator_finishes_the_ring() {
        let k = 3;
        let mut hub = ChannelTransport::hub(k + 1);
        let mut port = hub.claim(0).unwrap();
        let mut peer1 = hub.claim(1).unwrap();
        let _peer2 = hub.claim(2).unwrap();
        let mut actor = stub_actor(0, k);
        let t = Duration::ZERO;
        actor
            .on_message(
                &mut port,
                Message::RoundPlan {
                    round: 1,
                    ring: vec![0, 1, 2],
                    broadcaster: 0,
                    unselected: vec![],
                },
                t,
            )
            .unwrap();
        // Initiator sent accum(hops=1) to 1; now its upstream 2 goes
        // silent: probe, then declare dead — live shrinks to [0, 1].
        actor.on_timer(&mut port, t).unwrap();
        assert!(actor.probe_armed());
        actor.on_timer(&mut port, t).unwrap();
        assert_eq!(actor.ring_round(), Some(1), "ring repaired, not done");
        // 1's bypass re-send: the accumulation that was addressed to
        // the dead 2, carrying both live members' parameters.
        actor
            .on_message(
                &mut port,
                Message::ParamAccum {
                    round: 1,
                    hops: 2,
                    params: vec![6.0, 6.0],
                },
                t,
            )
            .unwrap();
        assert_eq!(actor.done_round(), 1, "complete re-send ends the ring");
        assert_eq!(
            actor.train().params,
            vec![3.0, 3.0],
            "merged model is the accumulation averaged over its hops"
        );
        let mut merged = 0;
        while let Some(msg) = peer1.try_recv().unwrap() {
            if let Message::MergedParams {
                round: 1,
                ttl: 1,
                params,
            } = msg
            {
                assert_eq!(params, vec![3.0, 3.0]);
                merged += 1;
            }
        }
        assert_eq!(merged, 1, "survivor 1 must receive the merged model");
    }

    /// The warning-overtakes-plan shape `hadfl-check` found: device 2
    /// hears `BypassWarning(dead 0)` *before* the round-1 `RoundPlan`
    /// naming 0 arrives (independent connections give no ordering).
    /// Joining with the stale membership would forward the
    /// accumulation to dead 0 and stall the ring; instead the plan's
    /// membership must be filtered through the remembered death.
    #[test]
    fn bypass_warning_before_the_plan_filters_ring_membership() {
        let k = 3;
        let mut hub = ChannelTransport::hub(k + 1);
        let mut port = hub.claim(2).unwrap();
        let _peer0 = hub.claim(0).unwrap();
        let mut peer1 = hub.claim(1).unwrap();
        let mut actor = stub_actor(2, k);
        let t = Duration::ZERO;
        actor
            .on_message(&mut port, Message::BypassWarning { dead: 0 }, t)
            .unwrap();
        actor
            .on_message(
                &mut port,
                Message::RoundPlan {
                    round: 1,
                    ring: vec![0, 1, 2],
                    broadcaster: 0,
                    unselected: vec![],
                },
                t,
            )
            .unwrap();
        assert_eq!(actor.ring_round(), Some(1), "ring runs without dead 0");
        // With 0 filtered out, 1 initiates; its hops-1 accumulation
        // closes the two-member ring at this actor.
        actor
            .on_message(
                &mut port,
                Message::ParamAccum {
                    round: 1,
                    hops: 1,
                    params: vec![5.0, 2.0],
                },
                t,
            )
            .unwrap();
        assert_eq!(actor.done_round(), 1, "two survivors finish the ring");
        assert_eq!(
            actor.train().params,
            vec![3.0, 2.0],
            "merge averages the initiator's [5, 2] with our own [1, 2]"
        );
        let mut merged = 0;
        while let Some(msg) = peer1.try_recv().unwrap() {
            if let Message::MergedParams {
                round: 1,
                ttl: 1,
                params,
            } = msg
            {
                assert_eq!(params, vec![3.0, 2.0]);
                merged += 1;
            }
        }
        assert_eq!(merged, 1, "initiator 1 must receive the merged model");
    }

    /// When every other planned member is already known dead, the ring
    /// dissolves at entry: the device keeps its local model, marks the
    /// round synchronized, and keeps training instead of stalling.
    #[test]
    fn ring_dissolved_at_entry_keeps_local_model() {
        let k = 2;
        let mut hub = ChannelTransport::hub(k + 1);
        let mut port = hub.claim(1).unwrap();
        let mut peer0 = hub.claim(0).unwrap();
        let mut actor = stub_actor(1, k);
        let t = Duration::ZERO;
        actor
            .on_message(&mut port, Message::BypassWarning { dead: 0 }, t)
            .unwrap();
        actor
            .on_message(
                &mut port,
                Message::RoundPlan {
                    round: 1,
                    ring: vec![0, 1],
                    broadcaster: 0,
                    unselected: vec![],
                },
                t,
            )
            .unwrap();
        assert_eq!(actor.ring_round(), None, "no ring with a lone member");
        assert_eq!(actor.done_round(), 1, "round counts as synchronized");
        assert_eq!(actor.train().params, vec![1.0, 2.0], "model untouched");
        assert_eq!(
            peer0.try_recv().unwrap(),
            None,
            "nothing may be sent to the dead member"
        );
    }

    /// The coordinator driver runs to completion on a [`ManualClock`]:
    /// virtual time advances through window, report deadline, and final
    /// deadline without any wall-clock waiting.
    #[test]
    fn coordinator_runs_on_a_manual_clock() {
        let k = 2;
        let config = quick_config(72);
        let timing = ProtocolTiming::quick();
        let clock = ManualClock::new();
        let mut hub = ChannelTransport::hub(k + 1);
        let coordinator_port = hub.claim(coordinator_id(k)).unwrap();
        let mut ports: Vec<_> = (0..k).map(|i| hub.claim(i).unwrap()).collect();

        let outcome = thread::scope(|scope| {
            for (i, mut port) in ports.drain(..).enumerate() {
                scope.spawn(move || {
                    // A scripted device: answer reports, echo ring
                    // frames to close the reduce, upload on shutdown.
                    let me = i;
                    loop {
                        match port.recv_timeout(Duration::from_secs(10)) {
                            Ok(Some(Message::ReportRequest { round })) => {
                                let _ = port.send(
                                    k,
                                    &Message::VersionReport {
                                        device: me as u32,
                                        round,
                                        version: 1.0,
                                    },
                                );
                            }
                            Ok(Some(Message::RoundPlan { round, ring, .. })) => {
                                // First member starts; the other just
                                // completes the two-hop reduce.
                                if ring.first() == Some(&(me as u32)) {
                                    let other = ring[1] as usize;
                                    let _ = port.send(
                                        other,
                                        &Message::ParamAccum {
                                            round,
                                            hops: 1,
                                            params: vec![1.0, 1.0],
                                        },
                                    );
                                }
                            }
                            Ok(Some(Message::ParamAccum { round, .. })) => {
                                let other = 1 - me;
                                let _ = port.send(
                                    other,
                                    &Message::MergedParams {
                                        round,
                                        ttl: 1,
                                        params: vec![1.0, 1.0],
                                    },
                                );
                            }
                            Ok(Some(Message::Shutdown)) => {
                                let _ = port.send(
                                    k,
                                    &Message::FinalParams {
                                        device: me as u32,
                                        params: vec![1.0, 1.0],
                                    },
                                );
                                return;
                            }
                            Ok(Some(_)) => {}
                            _ => return,
                        }
                    }
                });
            }
            run_coordinator_instrumented(
                coordinator_port,
                &config,
                Duration::from_millis(50),
                2,
                &timing,
                &clock,
                Telemetry::disabled(),
            )
        })
        .unwrap();
        assert_eq!(outcome.rounds.len(), 2);
        assert_eq!(outcome.final_models.len(), 2);
        assert!(outcome.dropped.is_empty());
        assert!(
            clock.now() >= Duration::from_millis(100),
            "windows must have advanced the virtual clock"
        );
    }
}
