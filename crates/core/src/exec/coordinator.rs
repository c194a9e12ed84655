use std::collections::{BTreeMap, BTreeSet};
use std::mem;
use std::time::Duration;

use hadfl_simnet::DeviceId;
use hadfl_telemetry::{EventKind, Telemetry};

use super::{seeded, Actor, CoordinatorRun, Planner, ProtocolTiming, ThreadedRound, Wake};
use crate::coordinator::RuntimeSupervisor;
use crate::error::HadflError;
use crate::transport::Port;
use crate::wire::Message;

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

/// The coordinator's protocol state machine, advanced one event at a
/// time: per round, wait out the window, collect version reports
/// (dropping devices that miss the deadline or are reported dead by a
/// ring), plan the ring via a [`Planner`] from the [`RuntimeSupervisor`]'s
/// Eq. (7) forecasts, distribute the plan; after the last round shut the
/// cluster down and collect final parameters.
#[derive(Debug, Clone)]
pub struct CoordinatorActor<Pl: Planner> {
    k: usize,
    rounds: usize,
    window: Duration,
    timing: ProtocolTiming,
    planner: Pl,
    /// Never part of [`digest_into`](Self::digest_into): its state is a
    /// function of the reports `rounds_log` and `dropped` already
    /// digest (a device is observed in exactly the rounds it reported
    /// in), and the checker's fixed planner ignores versions anyway.
    supervisor: RuntimeSupervisor,
    alive: BTreeSet<usize>,
    dropped: Vec<(usize, usize)>,
    rounds_log: Vec<ThreadedRound>,
    final_models: BTreeMap<usize, Vec<f32>>,
    phase: CoordPhase,
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
            k,
            rounds,
            window,
            timing,
            planner,
            supervisor,
            alive: (0..k).collect(),
            dropped: Vec::new(),
            rounds_log: Vec::new(),
            final_models: BTreeMap::new(),
            phase: CoordPhase::Window {
                round: 1,
                until: now + window,
            },
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

    /// Which phase the coordinator is in.
    pub fn phase_kind(&self) -> CoordPhaseKind {
        match self.phase {
            CoordPhase::Window { .. } => CoordPhaseKind::Window,
            CoordPhase::Collect { .. } => CoordPhaseKind::Collect,
            CoordPhase::Final { .. } => CoordPhaseKind::Final,
            CoordPhase::Done => CoordPhaseKind::Done,
        }
    }

    /// Alive devices whose report (Collect) or final upload (Final)
    /// has not arrived yet — empty in other phases. The checker uses
    /// this to decide when a deadline may legitimately elapse: under
    /// correctly-tuned production timeouts a deadline only fires for
    /// devices that are really gone.
    pub fn awaiting(&self) -> Vec<usize> {
        let arrived = |d: &usize| match &self.phase {
            CoordPhase::Collect { versions, .. } => versions.contains_key(d),
            CoordPhase::Final { .. } => self.final_models.contains_key(d),
            CoordPhase::Window { .. } | CoordPhase::Done => true,
        };
        self.alive.iter().copied().filter(|d| !arrived(d)).collect()
    }

    /// The round currently being windowed or collected, if any
    /// (checker introspection: round tags must be monotone).
    pub fn current_round(&self) -> Option<usize> {
        match &self.phase {
            CoordPhase::Window { round, .. } | CoordPhase::Collect { round, .. } => Some(*round),
            CoordPhase::Final { .. } | CoordPhase::Done => None,
        }
    }

    /// The run's outcome. Meaningful once [`wake`](Actor::wake) is [`Wake::Done`].
    pub fn into_run(self) -> CoordinatorRun {
        self.tel.flush();
        CoordinatorRun {
            rounds: self.rounds_log,
            final_models: self.final_models,
            dropped: self.dropped,
        }
    }

    /// §III-D, coordinator side: `device` leaves the alive set — a ring
    /// declared it dead, or it missed the report deadline — and with it
    /// any report of the round being collected. Returns without effect
    /// for a device already dropped.
    fn drop_device(&mut self, device: usize, round: usize, now: Duration) {
        if !self.alive.remove(&device) {
            return;
        }
        self.dropped.push((device, round));
        if let CoordPhase::Collect { versions, .. } = &mut self.phase {
            versions.remove(&device);
        }
        self.tel.emit(
            now,
            EventKind::DeviceDropped {
                round: round as u32,
                device: device as u32,
            },
        );
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
            self.drop_device(d, round, now);
        }
        if self.alive.len() < 2 {
            self.shutdown_all(port, round, now);
            return Err(HadflError::ClusterDead { round });
        }

        let available: Vec<DeviceId> = self.alive.iter().map(|&d| DeviceId(d)).collect();
        // Eq. (7): plan from the forecast made before this round's
        // reports, then feed the reports in. A device not yet observed
        // has no forecast and is planned at its report.
        let mut planned = Vec::with_capacity(available.len());
        for d in &available {
            let actual = versions[&d.index()];
            let version = match self.supervisor.forecast(d.index()) {
                Some(predicted) => {
                    self.tel.emit(
                        now,
                        EventKind::Prediction {
                            round: round as u32,
                            device: d.index() as u32,
                            predicted,
                            actual,
                        },
                    );
                    predicted
                }
                None => actual,
            };
            self.supervisor.observe(d.index(), actual);
            planned.push(version);
        }
        let plan = self.planner.plan(&available, &planned)?;
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
                    versions: planned,
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
                &Message::round_plan(
                    round as u32,
                    ring.clone(),
                    plan.broadcaster.index() as u32,
                    unselected.clone(),
                ),
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
            // Only live devices' final parameters are collected.
            self.shutdown_all(port, round, now);
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

    /// Ends the run, after the last round or when the cluster died
    /// under it: best-effort [`Message::Shutdown`] to *every* device,
    /// dropped ones included — being dropped from planning does not
    /// stop a device's training loop, so without a Shutdown it would
    /// train forever (and a threaded harness would never join its
    /// thread). The seeded PR-1 bug narrows the fan-out to the alive
    /// set, stranding exactly those devices.
    fn shutdown_all<P: Port>(&mut self, port: &mut P, round: usize, now: Duration) {
        for d in 0..self.k {
            if seeded::shutdown_alive_only() && !self.alive.contains(&d) {
                continue;
            }
            let _ = port.send(d, &Message::Shutdown);
        }
        self.tel.emit(
            now,
            EventKind::ShutdownSent {
                round: round as u32,
            },
        );
        self.tel.flush();
    }
}

impl<Pl: Planner> Actor for CoordinatorActor<Pl> {
    /// When the coordinator next needs the clock: the window sleeps to
    /// its end, the report and final collections read mail until their
    /// deadlines.
    fn wake(&self) -> Wake {
        match &self.phase {
            CoordPhase::Window { until, .. } => Wake::Sleep(*until),
            CoordPhase::Collect { deadline, .. } | CoordPhase::Final { deadline } => {
                Wake::Recv(*deadline)
            }
            CoordPhase::Done => Wake::Done,
        }
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
        match (&mut self.phase, msg) {
            (
                CoordPhase::Collect { versions, .. },
                Message::VersionReport {
                    device, version, ..
                },
            ) => {
                let device = device as usize;
                if self.alive.contains(&device) {
                    versions.insert(device, version);
                }
            }
            (CoordPhase::Final { .. }, Message::FinalParams { device, params }) => {
                let device = device as usize;
                if self.alive.contains(&device) {
                    self.final_models.insert(device, params);
                }
            }
            (
                CoordPhase::Collect { .. } | CoordPhase::Final { .. },
                Message::BypassWarning { dead },
            ) => {
                // A death reported during the final collection is
                // booked on the last round.
                let round = self.current_round().unwrap_or(self.rounds);
                self.drop_device(dead as usize, round, now);
            }
            // No executor delivers during a window (it is a `Sleep`);
            // under the checker, deliveries are gated off.
            // Anything that does land there is dropped, matching a
            // message the blocking coordinator would only have read
            // later from its mailbox.
            _ => {}
        }
        match &self.phase {
            CoordPhase::Collect { versions, .. } if versions.len() >= self.alive.len() => {
                self.finish_collect(port, now)?;
            }
            CoordPhase::Final { .. } if self.final_models.len() >= self.alive.len() => {
                self.phase = CoordPhase::Done;
            }
            _ => {}
        }
        Ok(())
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
}
