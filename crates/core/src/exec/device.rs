use std::mem;
use std::time::Duration;

use hadfl_telemetry::{EventKind, Telemetry};

use super::ring::{Action, Event, RingMember};
use super::{Actor, ProtocolTiming, TrainState, Wake};
use crate::aggregate::{accumulate_params, accumulate_scaled_params, blend_params, scale_params};
use crate::error::HadflError;
use crate::transport::{coordinator_id, Port};
use crate::wire::Message;

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
        while let Some(&(name, _, _)) = self.open.last() {
            self.end(tel, now, name, device);
        }
    }

    /// The innermost open ring-half span, for parenting `merge`,
    /// `bypass_repair` and an in-ring `broadcast_blend` under the ring
    /// they belong to (0 = no parent).
    fn ring_parent(&self) -> u64 {
        self.open
            .iter()
            .rev()
            .find(|(n, _, _)| *n == "ring_reduce" || *n == "ring_gather")
            .map_or(0, |&(_, span, _)| span)
    }
}

/// A hand-driven loop's view of a [`DeviceActor`] ([`DeviceActor::hint`]),
/// for a loop that paces no steps of its own; the executors read
/// [`DeviceActor::wake`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceHint {
    /// Training: mail is handled as it arrives, and local steps
    /// ([`DeviceActor::on_idle`]) are the loop's to take.
    Train,
    /// Inside a ring: block up to this long for a message; on timeout
    /// call [`DeviceActor::on_timer`].
    Ring(Duration),
    /// The device is done; stop driving.
    Finished,
}

/// The `sleep()`-emulated compute of a device's local steps: one step
/// per `period`, and the mail that waited read before each.
#[derive(Debug, Clone, Default)]
struct Pace {
    period: Duration,
    /// When the next step is due; `None` before the first, due at once.
    due: Option<Duration>,
    /// The next step is not due yet, and its mail waits. Once it is due,
    /// the mail is read and the step follows when none is left.
    asleep: bool,
}

/// When the local step after one that starts at `start` is due, given
/// that this one was due at `due`: one `period` later. A step late by
/// up to a period (a sleep's overshoot, the last step's compute) keeps
/// the schedule, so the lateness comes out of the next wait; a step
/// later than that (a ring, a blend) restarts the schedule from `start`
/// instead of catching up in a burst.
fn next_step_due(due: Duration, start: Duration, period: Duration) -> Duration {
    if start > due + period {
        start + period
    } else {
        due + period
    }
}

/// One device's protocol state machine, advanced one event at a time:
/// the shell around its §III-D ring (`RingMember`, in `ring.rs`), which
/// makes every ring decision. The shell maps the ring's actions onto
/// the [`Port`] passed to each step (its only side effects), the
/// training state, the profiler scopes and the telemetry.
#[derive(Debug, Clone)]
pub struct DeviceActor<T: TrainState> {
    me: usize,
    coord: usize,
    blend_beta: f32,
    ring: RingMember,
    /// Shutdown acknowledged; final parameters uploaded.
    finished: bool,
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
    /// Local-step pacing; executor state, never digested.
    pace: Pace,
    /// When the device last handled an event: a ring's silence is
    /// measured from here. Never digested.
    quiet_since: Duration,
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
        let coord = coordinator_id(participants - 1);
        DeviceActor {
            me,
            coord,
            blend_beta,
            ring: RingMember::new(me, coord, timing),
            finished: false,
            train,
            tel: Telemetry::disabled(),
            pending_steps: 0,
            spans: Spans::default(),
            pace: Pace::default(),
            quiet_since: Duration::ZERO,
        }
    }

    /// Attaches a telemetry handle; a disabled handle is a no-op.
    #[must_use]
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.tel = tel;
        self
    }

    /// Paces local steps at one per `period` (zero, the default: back
    /// to back), the step's own compute counted inside it.
    #[must_use]
    pub fn with_step_period(mut self, period: Duration) -> Self {
        self.pace.period = period;
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

    /// The owned training state (checker introspection).
    pub fn train(&self) -> &T {
        &self.train
    }

    /// Highest round whose ring this member finished.
    pub fn done_round(&self) -> u32 {
        self.ring.done_round()
    }

    /// Has the device acknowledged shutdown?
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The round of the ring this member is currently inside, if any.
    pub fn ring_round(&self) -> Option<u32> {
        self.ring.round()
    }

    /// Live membership of the ring this member is inside, else of the
    /// ring it last finished.
    #[cfg(test)]
    pub(super) fn ring_live(&self) -> Option<&[usize]> {
        self.ring.live()
    }

    /// The upstream a pending handshake probe is addressed to, if any
    /// (checker scheduling detail: a probe deadline may only elapse
    /// unanswered when its suspect really is dead).
    pub fn probe_suspect(&self) -> Option<usize> {
        self.ring.probe()
    }

    /// [`wake`](Self::wake) for a loop that takes local steps itself.
    pub fn hint(&self, now: Duration) -> DeviceHint {
        match self.ring.deadline(self.quiet_since) {
            _ if self.finished => DeviceHint::Finished,
            Some(at) => DeviceHint::Ring(at.saturating_sub(now).max(Duration::from_millis(1))),
            None => DeviceHint::Train,
        }
    }

    /// Delivers one message to the actor. A ring frame whose length is
    /// not this member's model's is refused: its sender is bypassed as
    /// a dead member, and the device goes on.
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
        if self.finished {
            return Ok(());
        }
        self.check_stall(now)?;
        self.quiet_since = now;
        let training = self.ring.round().is_none();
        let event = match msg {
            Message::Shutdown => {
                self.finish(port, now);
                return Ok(());
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
                if training {
                    self.spans
                        .start(&self.tel, now, "wait_for_plan", 0, round, self.me);
                }
                return Ok(());
            }
            Message::Handshake { from } => {
                let ack = Message::HandshakeAck {
                    from: self.me as u32,
                };
                let _ = port.send(from as usize, &ack);
                return Ok(());
            }
            // Unselected device receiving the broadcast: blend
            // non-blockingly and keep training. (Inside a ring it is
            // meant for the unselected.)
            Message::ParamSync { round, params } if training => {
                self.spans.end(&self.tel, now, "wait_for_plan", self.me);
                self.spans
                    .start(&self.tel, now, "broadcast_blend", 0, round, self.me);
                let prof = hadfl_prof::scope("broadcast_blend");
                let mut local = self.train.params();
                // A broadcast of another length is no model of this
                // one: it is dropped and the local model stands. Asked
                // here, so no peer can end this device by sending one.
                if params.len() == local.len() {
                    blend_params(&mut local, &params, self.blend_beta)?;
                    self.train.set_params(&local)?;
                }
                drop(prof);
                self.spans.end(&self.tel, now, "broadcast_blend", self.me);
                self.begin_training(now, round + 1);
                return Ok(());
            }
            Message::RoundPlan {
                round,
                ring,
                broadcaster,
                unselected,
            } => {
                let plan = Event::Plan {
                    round,
                    ring: &ring,
                    broadcaster,
                    unselected: &unselected,
                    snapshot: self.train.params(),
                };
                return self.ring_step(port, plan, now);
            }
            frame @ (Message::ParamAccum { .. } | Message::MergedParams { .. }) => {
                Event::Frame(frame)
            }
            Message::HandshakeAck { from } => Event::Ack(from as usize),
            Message::BypassWarning { dead } => Event::Warning(dead as usize),
            _ => return Ok(()),
        };
        self.ring_step(port, event, now)
    }

    /// One local training step (the driver's idle action while the
    /// device is in its training phase).
    ///
    /// # Errors
    ///
    /// Returns substrate errors from the training step.
    pub fn on_idle<P: Port>(&mut self, _port: &mut P) -> Result<(), HadflError> {
        if !self.finished && self.ring.round().is_none() {
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
        self.check_stall(now)?;
        self.quiet_since = now;
        self.ring_step(port, Event::Timer, now)
    }

    /// Gives up on a ring that outlived `timing.ring_hard_limit`.
    fn check_stall(&self, now: Duration) -> Result<(), HadflError> {
        if self.ring.stalled(now) {
            return Err(HadflError::InvalidConfig(
                "ring synchronization stalled".into(),
            ));
        }
        Ok(())
    }

    /// Canonical bytes of the actor's full state (model-checker
    /// deduplication).
    pub fn digest_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.me as u64).to_le_bytes());
        self.ring.digest_into(out);
        out.push(self.finished as u8);
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
        self.finished = true;
        self.ring.step(Event::Shutdown, now);
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

    /// Steps the ring and takes the actions it returns, in order.
    fn ring_step<P: Port>(
        &mut self,
        port: &mut P,
        event: Event<'_>,
        now: Duration,
    ) -> Result<(), HadflError> {
        for action in self.ring.step(event, now) {
            self.apply(port, action, now)?;
        }
        Ok(())
    }

    /// Maps one ring action onto the port, the training state, the
    /// profiler and the telemetry.
    fn apply<P: Port>(
        &mut self,
        port: &mut P,
        action: Action,
        now: Duration,
    ) -> Result<(), HadflError> {
        let me = self.me;
        match action {
            Action::Join => {
                self.flush_steps(now);
                self.spans.end(&self.tel, now, "wait_for_plan", me);
            }
            Action::Enter { round, live } => {
                self.tel
                    .emit(now, EventKind::RingEnter { round, ring: live });
                self.spans
                    .start(&self.tel, now, "ring_reduce", 0, round, me);
            }
            Action::Contributed { round } => {
                self.spans.end(&self.tel, now, "ring_reduce", me);
                self.spans
                    .start(&self.tel, now, "ring_gather", 0, round, me);
            }
            // A send failure is treated as silence: the §III-D probe
            // will catch the dead peer.
            Action::Send { to } => {
                if let Some((_, frame)) = self.ring.kept() {
                    let _ = port.send(to, frame);
                }
            }
            Action::Accumulate {
                round,
                hops,
                mine,
                scale,
            } => {
                let prof = hadfl_prof::scope("ring_accumulate");
                let mine = mine.unwrap_or_else(|| self.train.params());
                if let Some(sum) = self.ring.kept_params() {
                    match scale {
                        Some(k) => accumulate_scaled_params(sum, &mine, k),
                        None => accumulate_params(sum, &mine),
                    }
                }
                drop(prof);
                self.tel.emit(now, EventKind::Accumulate { round, hops });
            }
            Action::Scale(k) => {
                if let Some(sum) = self.ring.kept_params() {
                    scale_params(sum, k);
                }
            }
            Action::Install {
                round,
                merge,
                params,
                broadcast,
            } => {
                // A reduce that closed here is the `merge` span; else
                // the fan-out to the unselected is the round's
                // `broadcast_blend` segment.
                let prof = merge.map(|participants| {
                    let parent = self.spans.ring_parent();
                    self.spans.start(&self.tel, now, "merge", parent, round, me);
                    let prof = hadfl_prof::scope("ring_merge");
                    self.tel.emit(
                        now,
                        EventKind::Merge {
                            round,
                            participants,
                        },
                    );
                    prof
                });
                let mut last = params;
                if last.is_none() {
                    if let Some((to, frame)) = self.ring.kept() {
                        let _ = port.send(*to, frame);
                    }
                }
                if let Some(merged) = last.as_mut().or(self.ring.kept_params()) {
                    if !broadcast.is_empty() {
                        if prof.is_none() {
                            let parent = self.spans.ring_parent();
                            self.spans
                                .start(&self.tel, now, "broadcast_blend", parent, round, me);
                        }
                        // The same buffer under another tag, sent by
                        // reference.
                        let sync = Message::ParamSync {
                            round,
                            params: mem::take(merged),
                        };
                        for &u in &broadcast {
                            let _ = port.send(u, &sync);
                        }
                        if let Message::ParamSync { params, .. } = sync {
                            *merged = params;
                        }
                        if prof.is_none() {
                            self.spans.end(&self.tel, now, "broadcast_blend", me);
                        }
                    }
                    // Everyone who waits on this member has been served.
                    self.train.set_params(merged)?;
                }
                if let Some(prof) = prof {
                    drop(prof);
                    self.spans.end(&self.tel, now, "merge", me);
                }
            }
            Action::Probe { to } => {
                let _ = port.send(to, &Message::Handshake { from: me as u32 });
            }
            Action::Bypass { round } => {
                let parent = self.spans.ring_parent();
                self.spans
                    .start(&self.tel, now, "bypass_repair", parent, round, me);
            }
            Action::Warn { round, dead, to } => {
                let warning = Message::BypassWarning { dead };
                for to in to {
                    let _ = port.send(to, &warning);
                }
                self.tel
                    .emit(now, EventKind::BypassDeclared { round, dead });
            }
            Action::Repair { round, dead } => {
                self.tel.emit(now, EventKind::RingRepair { round, dead });
            }
            Action::Bypassed => self.spans.end(&self.tel, now, "bypass_repair", me),
            Action::Exit { round, dissolved } => {
                // Close whatever ring-half (or mid-repair) span is still
                // open; each end is a no-op when the name isn't open.
                for name in ["merge", "bypass_repair", "ring_gather", "ring_reduce"] {
                    self.spans.end(&self.tel, now, name, me);
                }
                self.tel.emit(now, EventKind::RingExit { round, dissolved });
                self.begin_training(now, round + 1);
            }
            Action::Replay => self.ring_step(port, Event::Replay, now)?,
        }
        Ok(())
    }
}

impl<T: TrainState> Actor for DeviceActor<T> {
    /// When the device next needs the clock. Inside a ring it reads
    /// mail until the probe's deadline, else until `ring_wait` after
    /// the last event it handled. Training, it sleeps until its next
    /// step is due, then reads the mail that waited, and steps.
    fn wake(&self) -> Wake {
        let due = self.pace.due.unwrap_or_default();
        match self.ring.deadline(self.quiet_since) {
            _ if self.finished => Wake::Done,
            Some(at) => Wake::Recv(at),
            None if self.pace.asleep => Wake::Sleep(due),
            None => Wake::Recv(due),
        }
    }

    /// The instant [`wake`](Self::wake) named has come: inside a ring,
    /// silence ([`on_timer`](Self::on_timer)); training, a due step
    /// first has its mail read, and is taken at the next call.
    ///
    /// # Errors
    ///
    /// As [`on_timer`](Self::on_timer) and [`on_idle`](Self::on_idle).
    fn on_wake<P: Port>(&mut self, port: &mut P, now: Duration) -> Result<(), HadflError> {
        if self.ring.round().is_some() {
            return self.on_timer(port, now);
        }
        let pace = &mut self.pace;
        if pace.asleep {
            // The step is due: the mail that waited is read first.
            pace.asleep = false;
            return Ok(());
        }
        pace.asleep = true;
        let due = pace.due.unwrap_or(now);
        pace.due = Some(next_step_due(due, now, pace.period));
        self.on_idle(port)
    }

    fn on_message<P: Port>(
        &mut self,
        port: &mut P,
        msg: Message,
        now: Duration,
    ) -> Result<(), HadflError> {
        DeviceActor::on_message(self, port, msg, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: Duration = Duration::from_millis(4);

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn an_on_time_step_is_followed_one_period_later() {
        assert_eq!(next_step_due(ms(10), ms(10), P), ms(14));
    }

    #[test]
    fn lateness_within_a_period_is_absorbed() {
        assert_eq!(next_step_due(ms(10), ms(13), P), ms(14));
        assert_eq!(next_step_due(ms(10), ms(14), P), ms(14));
    }

    #[test]
    fn a_longer_pause_restarts_the_schedule_without_a_burst() {
        assert_eq!(next_step_due(ms(10), ms(25), P), ms(29));
    }

    #[test]
    fn steps_longer_than_the_period_run_back_to_back() {
        // Each step computes for 6 ms of a 4 ms period: the loop never
        // waits, and steps start every 6 ms.
        let compute = ms(6);
        let (mut due, mut now) = (Duration::ZERO, Duration::ZERO);
        for n in 0..10 {
            assert_eq!(now, compute * n);
            due = next_step_due(due, now, P);
            now += compute;
            assert_eq!(due.saturating_sub(now), Duration::ZERO, "step {n}");
        }
    }
}
