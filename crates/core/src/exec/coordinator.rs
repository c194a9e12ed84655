use std::time::Duration;

use hadfl_simnet::DeviceId;
use hadfl_telemetry::{EventKind, Telemetry};

use super::script::{CoordScript, Input, Output};
use super::{Actor, CoordinatorRun, Planner, ProtocolTiming, Wake};
use crate::coordinator::RuntimeSupervisor;
use crate::error::HadflError;
use crate::transport::Port;
use crate::wire::Message;

/// The coordinator's protocol state machine, advanced one event at a
/// time: the shell around its round script ([`CoordScript`], in
/// `script.rs`), which makes every decision. The shell maps messages
/// and wakes onto the script's inputs, and its outputs onto the
/// [`Port`] passed to each step (its only side effects) and the
/// telemetry.
#[derive(Debug, Clone)]
pub struct CoordinatorActor<Pl: Planner> {
    script: CoordScript<Pl>,
    /// Structured-event emitter; disabled by default. Never part of
    /// [`digest_into`](Self::digest_into) — observability must not
    /// split model-checker states.
    tel: Telemetry,
    /// When the current round's window opened (round-latency metric).
    round_opened: Duration,
}

impl<Pl: Planner> CoordinatorActor<Pl> {
    /// An actor for a `k`-device cluster starting its first window at
    /// `now`; `supervisor` tracks devices `0..k`.
    pub fn new(
        k: usize,
        planner: Pl,
        supervisor: RuntimeSupervisor,
        window: Duration,
        rounds: usize,
        timing: ProtocolTiming,
        now: Duration,
    ) -> Self {
        CoordinatorActor {
            script: CoordScript::new(k, planner, supervisor, window, rounds, timing, now),
            tel: Telemetry::disabled(),
            round_opened: now,
        }
    }

    /// Attaches a telemetry handle; a disabled handle is a no-op.
    #[must_use]
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.tel = tel;
        self
    }

    /// The round script the actor is the shell of (checker
    /// introspection).
    pub fn script(&self) -> &CoordScript<Pl> {
        &self.script
    }

    /// The run's outcome. Meaningful once [`wake`](Actor::wake) is [`Wake::Done`].
    pub fn into_run(self) -> CoordinatorRun {
        self.tel.flush();
        self.script.into_run()
    }

    /// Canonical bytes of the actor's full state (model-checker
    /// deduplication).
    pub fn digest_into(&self, out: &mut Vec<u8>) {
        self.script.digest_into(out);
    }

    /// Steps the script with `input` and takes the outputs it returns,
    /// in order.
    fn step<P: Port>(
        &mut self,
        port: &mut P,
        input: Input,
        now: Duration,
    ) -> Result<(), HadflError> {
        let tel = &self.tel;
        for output in self.script.step(input, now) {
            match output {
                Output::RequestReports { round, to } => {
                    let request = Message::ReportRequest {
                        round: round as u32,
                    };
                    for d in to {
                        let _ = port.send(d, &request);
                    }
                }
                Output::Drop { device, round } => tel.emit(
                    now,
                    EventKind::DeviceDropped {
                        round: round as u32,
                        device: device as u32,
                    },
                ),
                Output::Forecast {
                    round,
                    device,
                    predicted,
                    actual,
                } => tel.emit(
                    now,
                    EventKind::Prediction {
                        round: round as u32,
                        device: device as u32,
                        predicted,
                        actual,
                    },
                ),
                Output::Plan {
                    round,
                    available,
                    versions,
                    probabilities,
                    plan,
                } => {
                    let unselected: Vec<u32> = ids(&plan.unselected);
                    let broadcaster = plan.broadcaster.index() as u32;
                    // The decision is logged before its frames go out:
                    // RoundPlanned is the causal source of the round's
                    // critical path, so it must happen-before every
                    // RoundPlan send in the merged timeline.
                    tel.emit(
                        now,
                        EventKind::RoundPlanned {
                            round: round as u32,
                            available: ids(&available),
                            versions,
                            probabilities,
                            selected: ids(&plan.selected),
                            unselected: unselected.clone(),
                            broadcaster,
                        },
                    );
                    let ring = ids(plan.ring.members());
                    let frame = Message::round_plan(round as u32, ring, broadcaster, unselected);
                    for member in plan.ring.members() {
                        let _ = port.send(member.index(), &frame);
                    }
                }
                Output::RoundComplete { round } => {
                    tel.emit(
                        now,
                        EventKind::RoundComplete {
                            round: round as u32,
                            duration_us: now.saturating_sub(self.round_opened).as_micros() as u64,
                        },
                    );
                    self.round_opened = now;
                }
                Output::Shutdown { round, to } => {
                    for d in to {
                        let _ = port.send(d, &Message::Shutdown);
                    }
                    tel.emit(
                        now,
                        EventKind::ShutdownSent {
                            round: round as u32,
                        },
                    );
                    tel.flush();
                }
                Output::Fail(e) => return Err(e),
            }
        }
        Ok(())
    }
}

impl<Pl: Planner> Actor for CoordinatorActor<Pl> {
    /// When the coordinator next needs the clock: the window sleeps to
    /// its end, the report and final collections read mail until their
    /// deadlines.
    fn wake(&self) -> Wake {
        self.script.wake()
    }

    /// Delivers one message to the actor.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::ClusterDead`] when a report collection
    /// this message completes leaves fewer than two devices, and
    /// planner errors.
    fn on_message<P: Port>(
        &mut self,
        port: &mut P,
        msg: Message,
        now: Duration,
    ) -> Result<(), HadflError> {
        let input = match msg {
            Message::VersionReport {
                device, version, ..
            } => Input::Report {
                device: device as usize,
                version,
            },
            Message::FinalParams { device, params } => Input::Final {
                device: device as usize,
                params,
            },
            Message::BypassWarning { dead } => Input::Dead(dead as usize),
            // No other frame carries anything the script decides on.
            _ => return Ok(()),
        };
        self.step(port, input, now)
    }

    /// The instant [`wake`](Self::wake) named has come: close the
    /// window, the report collection, or the final-upload collection —
    /// whichever is pending.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::ClusterDead`] when a closed report
    /// collection leaves fewer than two devices, and planner errors.
    fn on_wake<P: Port>(&mut self, port: &mut P, now: Duration) -> Result<(), HadflError> {
        self.step(port, Input::Wake, now)
    }
}

/// Device ids as they ride in frames and events.
fn ids(devices: &[DeviceId]) -> Vec<u32> {
    devices.iter().map(|d| d.index() as u32).collect()
}
