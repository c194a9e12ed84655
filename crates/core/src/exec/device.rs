use std::collections::BTreeSet;
use std::mem;
use std::time::Duration;

use hadfl_nn::NnError;
use hadfl_telemetry::{EventKind, Telemetry};

use super::{seeded, ProtocolTiming, TrainState};
use crate::aggregate::blend_params;
use crate::error::HadflError;
use crate::transport::{coordinator_id, Port};
use crate::wire::Message;

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
    /// Parameter count of this member's model, recorded at ring entry:
    /// a ring frame of any other length is refused before it is
    /// accumulated, forwarded or installed.
    len: usize,
    /// This member's parameters as of ring entry, until they are
    /// contributed. The actor neither trains nor blends a broadcast
    /// while in a ring, so this is `train.params()` bit for bit — taken
    /// while the member waits, not while its downstream does. Derived
    /// state: never digested.
    snapshot: Option<Vec<f32>>,
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

    /// Opens the reduce as first member `me`: the entry snapshot goes
    /// downstream as the `hops = 1` accumulation. (A member that has
    /// sent nothing and merged nothing still holds its snapshot.)
    fn initiate<P: Port>(&mut self, port: &mut P, me: usize) {
        if let Some(params) = self.snapshot.take() {
            self.contributed = true;
            let accum = Message::param_accum(self.round, 1, params);
            let downstream = self.downstream(me);
            send_ring(port, self, downstream, accum);
        }
    }

    /// Refuses a ring frame whose payload is not this member's model
    /// length, with the error `set_params` has for it — asked before the
    /// frame has any effect, since the merged model is forwarded before
    /// it is installed and a sum of unequal lengths is no sum.
    fn check_len(&self, params: &[f32]) -> Result<(), HadflError> {
        if params.len() == self.len {
            return Ok(());
        }
        Err(HadflError::Nn(NnError::ParamLengthMismatch {
            expected: self.len,
            actual: params.len(),
        }))
    }

    /// The §III-D bypass, whichever way member `me` learnt of the
    /// death — its own expired probe, a peer's warning inside the ring,
    /// or a warning that arrives after it finished the ring: `dead`
    /// leaves `live` (nobody else, and never `me`: a warning about
    /// itself is unreachable via the protocol but would corrupt the
    /// neighbour lookups). Below two members the ring dissolves and the
    /// local model stands. Otherwise the ring closes around the gap:
    /// a last frame that was addressed to `dead` never reached the rest
    /// of the ring and is re-sent to the new downstream, and if the
    /// origin died before anything was sent its downstream (now first)
    /// initiates the reduce with its entry snapshot. `before_repair`
    /// runs between the two, for a caller that logs the repair ahead of
    /// its frame.
    fn bypass<P: Port>(
        &mut self,
        port: &mut P,
        me: usize,
        dead: usize,
        before_repair: impl FnOnce(),
    ) {
        if dead == me || self.pos(dead).is_none() {
            return;
        }
        self.live.retain(|&d| d != dead);
        if self.live.len() < 2 {
            self.merged_done = true; // dissolved; keep local model
            return;
        }
        before_repair();
        match self.last_sent.take() {
            Some((to, msg)) if to == dead => {
                let downstream = self.downstream(me);
                send_ring(port, self, downstream, msg);
            }
            None if self.live[0] == me && !self.merged_done => self.initiate(port, me),
            delivered => self.last_sent = delivered,
        }
    }
}

/// Sends `msg` to `to`, recording it as the member's re-sendable last
/// frame. A send failure is treated as silence: the §III-D probe will
/// catch the dead peer.
fn send_ring<P: Port>(port: &mut P, run: &mut RingRun, to: usize, msg: Message) {
    let _ = port.send(to, &msg);
    run.last_sent = Some((to, msg));
}

/// Finishes the reduce half, for the member whose accumulate closed
/// the sum and for the contributed member a bypass re-send hands the
/// already-complete sum: starts the distribute half with `merged` (the
/// mean — the caller has already applied the `1/hops` scale),
/// broadcasts to the unselected if this member is the round's
/// broadcaster, and installs it here last ([`pass_merged`]). The
/// `merge` span nests under whichever ring half the member is in.
#[allow(clippy::too_many_arguments)]
fn finish_reduce<P: Port, T: TrainState>(
    port: &mut P,
    train: &mut T,
    run: &mut RingRun,
    me: usize,
    merged: Vec<f32>,
    hops: u32,
    spans: &mut Spans,
    tel: &Telemetry,
    now: Duration,
) -> Result<(), HadflError> {
    let parent = spans.ring_parent();
    spans.start(tel, now, "merge", parent, run.round, me);
    let prof = hadfl_prof::scope("ring_merge");
    tel.emit(
        now,
        EventKind::Merge {
            round: run.round,
            participants: hops,
        },
    );
    let ttl = run.live.len().saturating_sub(1) as u32;
    pass_merged(port, train, run, me, ttl, merged, |_| {})?;
    drop(prof);
    spans.end(tel, now, "merge", me);
    Ok(())
}

/// Passes the merged model on without copying it, then installs it: a
/// [`Message::MergedParams`] to the downstream member while forwards
/// remain (`ttl > 0`), kept as the re-sendable last frame; then, if
/// `me` is (or has replaced) the broadcaster, one
/// [`Message::ParamSync`] — the same buffer under another tag, sent by
/// reference — to every unselected device; and only then this member's
/// own `set_params`, from that same buffer, so nobody downstream waits
/// on a private copy. The caller has checked the length, the one thing
/// `set_params` refuses. `around_broadcast` is told `true` before and
/// `false` after a broadcast that takes place, for the caller's span
/// bookkeeping.
fn pass_merged<P: Port, T: TrainState>(
    port: &mut P,
    train: &mut T,
    run: &mut RingRun,
    me: usize,
    ttl: u32,
    params: Vec<f32>,
    mut around_broadcast: impl FnMut(bool),
) -> Result<(), HadflError> {
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
    if let Message::MergedParams { params, .. } = &mut merged {
        if effective == me && !run.unselected.is_empty() {
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
        // Everyone who waits on this member has been served.
        train.set_params(params)?;
    }
    run.merged_done = true;
    if let Some(to) = downstream {
        run.last_sent = Some((to, merged));
    }
    Ok(())
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

    /// Live membership of the ring this member is inside, else of the
    /// ring it last finished.
    #[cfg(test)]
    pub(super) fn ring_live(&self) -> Option<&[usize]> {
        match &self.phase {
            DevicePhase::Ring(ring) => Some(&ring.run.live),
            _ => self.last_ring.as_ref().map(|run| &run.live[..]),
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
                let round = ring.run.round;
                let dead = suspect as u32;
                let parent = self.spans.ring_parent();
                self.spans
                    .start(&self.tel, now, "bypass_repair", parent, round, me);
                ring.probe = None;
                let warning = Message::BypassWarning { dead };
                for &member in &ring.run.live {
                    if member != me && member != suspect {
                        let _ = port.send(member, &warning);
                    }
                }
                let _ = port.send(coord, &warning);
                self.known_dead.insert(suspect);
                self.tel
                    .emit(now, EventKind::BypassDeclared { round, dead });
                ring.run.bypass(port, me, suspect, || {
                    self.tel.emit(now, EventKind::RingRepair { round, dead });
                });
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
        if let DevicePhase::Ring(mut ring) = mem::replace(&mut self.phase, DevicePhase::Training) {
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
            // A snapshot that was never contributed (dissolved ring)
            // is stale from here on.
            ring.run.snapshot = None;
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
                    run.bypass(port, self.me, dead, || {});
                }
            }
            _ => {} // stale acks
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
        let mut live: Vec<usize> = ring.iter().map(|&d| d as usize).collect();
        if !live.contains(&self.me) {
            return Ok(()); // not addressed to us; stale broadcast
        }
        self.flush_steps(now);
        self.spans.end(&self.tel, now, "wait_for_plan", self.me);
        // A BypassWarning may have overtaken this plan: membership the
        // coordinator believed alive at planning time can already be
        // known dead here. Joining with the stale membership would
        // forward the accumulation to the dead member and stall the
        // ring forever (found by hadfl-check).
        live.retain(|d| !self.known_dead.contains(d));
        if live.len() < 2 {
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
                ring: live.iter().map(|&d| d as u32).collect(),
            },
        );
        self.spans
            .start(&self.tel, now, "ring_reduce", 0, round, self.me);
        // Frames for rings before this one are dead history.
        self.backlog
            .retain(|m| ring_frame_round(m).is_some_and(|r| r >= round));
        // The ring's one `params()` copy, taken now: the first member
        // initiates the reduce with it, every other member makes it
        // while the accumulation is still on its way here.
        let snapshot = self.train.params();
        let mut run = RingRun {
            round,
            live,
            broadcaster: broadcaster as usize,
            unselected: unselected
                .iter()
                .map(|&d| d as usize)
                .filter(|d| !self.known_dead.contains(d))
                .collect(),
            last_sent: None,
            merged_done: false,
            contributed: false,
            len: snapshot.len(),
            snapshot: Some(snapshot),
        };
        if run.live[0] == self.me {
            run.initiate(port, self.me);
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
                ring.run.check_len(&params)?;
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
                        crate::aggregate::scale_params(&mut params, 1.0 / hops as f32);
                        finish_reduce(
                            port,
                            &mut self.train,
                            &mut ring.run,
                            me,
                            params,
                            hops,
                            &mut self.spans,
                            &self.tel,
                            now,
                        )?;
                    }
                } else {
                    ring.run.contributed = true;
                    let hops = hops + 1;
                    let closes = hops as usize >= ring.run.live.len();
                    let prof = hadfl_prof::scope("ring_accumulate");
                    // Only the seeded double count gets here with the
                    // snapshot already spent.
                    let mine = ring
                        .run
                        .snapshot
                        .take()
                        .unwrap_or_else(|| self.train.params());
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
                        finish_reduce(
                            port,
                            &mut self.train,
                            &mut ring.run,
                            me,
                            params,
                            hops,
                            &mut self.spans,
                            &self.tel,
                            now,
                        )?;
                    } else {
                        let downstream = ring.run.downstream(me);
                        send_ring(
                            port,
                            &mut ring.run,
                            downstream,
                            Message::param_accum(round, hops, params),
                        );
                    }
                    // Contribution forwarded or merged: this member's
                    // reduce half ends here either way.
                    self.spans.end(&self.tel, now, "ring_reduce", me);
                    self.spans
                        .start(&self.tel, now, "ring_gather", 0, round, me);
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
                ring.run.check_len(&params)?;
                ring.probe = None;
                // The effective broadcaster's fan-out to the unselected
                // is the round's `broadcast_blend` segment.
                let (spans, tel) = (&mut self.spans, &self.tel);
                pass_merged(
                    port,
                    &mut self.train,
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
                )?;
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
                let round = ring.run.round;
                let member = dead as usize;
                if member != me {
                    self.known_dead.insert(member);
                }
                if member != me && ring.run.pos(member).is_some() {
                    let parent = self.spans.ring_parent();
                    self.spans
                        .start(&self.tel, now, "bypass_repair", parent, round, me);
                    if ring.probe.is_some_and(|(suspect, _)| suspect == member) {
                        ring.probe = None;
                    }
                    ring.run.bypass(port, me, member, || {
                        self.tel.emit(now, EventKind::RingRepair { round, dead });
                    });
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
            _ => {} // broadcasts meant for the unselected
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
