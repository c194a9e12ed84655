//! The coordinator's round script, as a pure state machine.
//!
//! [`CoordScript::step`] takes one [`Input`] and the time it happened
//! and returns the [`Output`]s it implies, in the order they must be
//! taken. Every decision of the paper's cloud coordinator is made here:
//! closing a window, booking reports, dropping a device a ring declared
//! dead or that missed the report deadline, forecasting versions
//! (Eq. 7, the [`RuntimeSupervisor`]), planning the ring (Eq. 8, the
//! [`Planner`]), logging the round, choosing between the next window
//! and shutdown, and collecting the final models. The script reads no
//! time source (the caller passes `now`), sends nothing and emits
//! nothing: [`CoordinatorActor`](super::CoordinatorActor) is the shell
//! that maps each output onto its transport and its observability.

use std::collections::{BTreeMap, BTreeSet};
use std::mem;
use std::time::Duration;

use hadfl_simnet::DeviceId;

use super::{seeded, CoordinatorRun, Planner, ProtocolTiming, ThreadedRound, Wake};
use crate::coordinator::{RoundPlan, RuntimeSupervisor};
use crate::error::HadflError;

/// What happened to the coordinator.
#[derive(Debug)]
pub(super) enum Input {
    /// A device reported its version.
    Report { device: usize, version: f64 },
    /// A device uploaded its final parameters.
    Final { device: usize, params: Vec<f32> },
    /// A ring declared `device` dead (its `BypassWarning`).
    Dead(usize),
    /// The instant [`CoordScript::wake`] named has come.
    Wake,
}

/// What the coordinator must do, in order.
#[derive(Debug, PartialEq)]
pub(super) enum Output {
    /// The window of `round` closed: ask every device of `to` for its
    /// version.
    RequestReports { round: usize, to: Vec<usize> },
    /// `device` left the alive set in `round`.
    Drop { device: usize, round: usize },
    /// Eq. (7): `device` is planned at its forecast `predicted`, not at
    /// the `actual` version it reported.
    Forecast {
        round: usize,
        device: usize,
        predicted: f64,
        actual: f64,
    },
    /// `round` is planned: `plan` over `available`, drawn from the
    /// planned `versions` with the planner's Eq. (8) `probabilities`
    /// (empty when it has none). Its ring members get the plan.
    Plan {
        round: usize,
        available: Vec<DeviceId>,
        versions: Vec<f64>,
        probabilities: Vec<f64>,
        plan: RoundPlan,
    },
    /// `round` is logged; the next window, if any, opens now.
    RoundComplete { round: usize },
    /// The run ends after `round`: shut down every device of `to`.
    Shutdown { round: usize, to: Vec<usize> },
    /// The run failed; nothing follows.
    Fail(HadflError),
}

/// Where the coordinator is in its round script.
#[derive(Debug, Clone)]
pub enum CoordPhase {
    /// Letting devices train until the window closes.
    Window {
        /// The round this window precedes.
        round: usize,
        /// When the window closes.
        until: Duration,
    },
    /// Collecting version reports for `round` until the deadline.
    Collect {
        /// The round being collected.
        round: usize,
        /// The alive devices' reports so far.
        versions: BTreeMap<usize, f64>,
        /// When the devices still awaited are dropped.
        deadline: Duration,
    },
    /// Shutdown sent; collecting final parameter uploads.
    Final {
        /// When the collection ends with what arrived.
        deadline: Duration,
    },
    /// Run complete.
    Done,
}

/// The coordinator's protocol state: per round, wait out the window,
/// collect version reports (dropping devices that miss the deadline or
/// are reported dead by a ring), plan the ring via a [`Planner`] from
/// the [`RuntimeSupervisor`]'s Eq. (7) forecasts; after the last round
/// shut the cluster down and collect final parameters.
#[derive(Debug, Clone)]
pub struct CoordScript<Pl: Planner> {
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
}

impl<Pl: Planner> CoordScript<Pl> {
    /// The script of a `k`-device cluster whose first window opens at
    /// `now`; `supervisor` tracks devices `0..k`.
    pub(super) fn new(
        k: usize,
        planner: Pl,
        supervisor: RuntimeSupervisor,
        window: Duration,
        rounds: usize,
        timing: ProtocolTiming,
        now: Duration,
    ) -> Self {
        CoordScript {
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
        }
    }

    /// Where the script is.
    pub fn phase(&self) -> &CoordPhase {
        &self.phase
    }

    /// Alive devices whose report (Collect) or final upload (Final)
    /// has not arrived yet — none in other phases. A report deadline
    /// drops exactly these.
    pub fn awaiting(&self) -> impl Iterator<Item = usize> + '_ {
        self.alive
            .iter()
            .copied()
            .filter(move |d| match &self.phase {
                CoordPhase::Collect { versions, .. } => !versions.contains_key(d),
                CoordPhase::Final { .. } => !self.final_models.contains_key(d),
                CoordPhase::Window { .. } | CoordPhase::Done => false,
            })
    }

    /// When the script next needs the clock: the window sleeps to its
    /// end, the report and final collections read mail until their
    /// deadlines.
    pub(super) fn wake(&self) -> Wake {
        match &self.phase {
            CoordPhase::Window { until, .. } => Wake::Sleep(*until),
            CoordPhase::Collect { deadline, .. } | CoordPhase::Final { deadline } => {
                Wake::Recv(*deadline)
            }
            CoordPhase::Done => Wake::Done,
        }
    }

    /// The run's outcome. Meaningful once [`wake`](Self::wake) is [`Wake::Done`].
    pub(super) fn into_run(self) -> CoordinatorRun {
        CoordinatorRun {
            rounds: self.rounds_log,
            final_models: self.final_models,
            dropped: self.dropped,
        }
    }

    /// Advances the script by one input at `now`.
    pub(super) fn step(&mut self, input: Input, now: Duration) -> Vec<Output> {
        let mut out = Vec::new();
        match (&mut self.phase, input) {
            (CoordPhase::Window { round, until }, Input::Wake) if now >= *until => {
                let round = *round;
                let to = self.alive.iter().copied().collect();
                out.push(Output::RequestReports { round, to });
                self.phase = CoordPhase::Collect {
                    round,
                    versions: BTreeMap::new(),
                    deadline: now + self.timing.report_deadline,
                };
                return out;
            }
            (CoordPhase::Collect { deadline, .. }, Input::Wake) if now >= *deadline => {
                self.finish_collect(now, &mut out);
                return out;
            }
            (CoordPhase::Final { deadline }, Input::Wake) if now >= *deadline => {
                self.phase = CoordPhase::Done;
                return out;
            }
            (_, Input::Wake) => return out,
            (CoordPhase::Collect { versions, .. }, Input::Report { device, version })
                if self.alive.contains(&device) =>
            {
                versions.insert(device, version);
            }
            (CoordPhase::Final { .. }, Input::Final { device, params })
                if self.alive.contains(&device) =>
            {
                self.final_models.insert(device, params);
            }
            (CoordPhase::Collect { round, .. }, Input::Dead(device)) => {
                let round = *round;
                self.drop_device(device, round, &mut out);
            }
            // A death reported during the final collection is booked
            // on the last round.
            (CoordPhase::Final { .. }, Input::Dead(device)) => {
                self.drop_device(device, self.rounds, &mut out);
            }
            // No executor delivers during a window (it is a `Sleep`);
            // under the checker, deliveries are gated off. Anything that
            // does land there is dropped, matching a message the
            // blocking coordinator would only have read later from its
            // mailbox.
            _ => {}
        }
        let complete = self.awaiting().next().is_none();
        match &self.phase {
            CoordPhase::Collect { .. } if complete => self.finish_collect(now, &mut out),
            CoordPhase::Final { .. } if complete => self.phase = CoordPhase::Done,
            _ => {}
        }
        out
    }

    /// §III-D, coordinator side: `device` leaves the alive set — a ring
    /// declared it dead, or it missed the report deadline — and with it
    /// any report of the round being collected. Returns without effect
    /// for a device already dropped.
    fn drop_device(&mut self, device: usize, round: usize, out: &mut Vec<Output>) {
        if !self.alive.remove(&device) {
            return;
        }
        self.dropped.push((device, round));
        if let CoordPhase::Collect { versions, .. } = &mut self.phase {
            versions.remove(&device);
        }
        out.push(Output::Drop { device, round });
    }

    /// Closes the round's report collection: drops devices that missed
    /// the deadline, plans the next ring — or, after the last round or
    /// when fewer than two devices are left, shuts the cluster down.
    fn finish_collect(&mut self, now: Duration, out: &mut Vec<Output>) {
        // §III-D, coordinator side: missing the deadline means dead.
        let missing: Vec<usize> = self.awaiting().collect();
        let CoordPhase::Collect {
            round, versions, ..
        } = mem::replace(&mut self.phase, CoordPhase::Done)
        else {
            return;
        };
        for d in missing {
            self.drop_device(d, round, out);
        }
        if self.alive.len() < 2 {
            self.shutdown(round, seeded::shutdown_alive_only(), out);
            out.push(Output::Fail(HadflError::ClusterDead { round }));
            return;
        }

        let available: Vec<DeviceId> = self.alive.iter().map(|&d| DeviceId(d)).collect();
        // Eq. (7): plan from the forecast made before this round's
        // reports, then feed the reports in. A device not yet observed
        // has no forecast and is planned at its report.
        let mut planned = Vec::with_capacity(available.len());
        for d in &available {
            let (device, actual) = (d.index(), versions[&d.index()]);
            let version = match self.supervisor.forecast(device) {
                Some(predicted) => {
                    out.push(Output::Forecast {
                        round,
                        device,
                        predicted,
                        actual,
                    });
                    predicted
                }
                None => actual,
            };
            self.supervisor.observe(device, actual);
            planned.push(version);
        }
        let plan = match self.planner.plan(&available, &planned) {
            Ok(plan) => plan,
            Err(e) => return out.push(Output::Fail(e)),
        };
        let mut version_row = vec![0u64; self.k];
        for (&d, &v) in &versions {
            version_row[d] = v as u64;
        }
        self.rounds_log.push(ThreadedRound {
            round,
            versions: version_row,
            selected: plan.selected.iter().map(|d| d.index()).collect(),
        });
        let probabilities = self.planner.last_probabilities();
        out.push(Output::Plan {
            round,
            available,
            versions: planned,
            probabilities: probabilities.map(<[f64]>::to_vec).unwrap_or_default(),
            plan,
        });
        out.push(Output::RoundComplete { round });

        if round >= self.rounds {
            // Only live devices' final parameters are collected.
            self.shutdown(round, seeded::shutdown_alive_only(), out);
            self.phase = CoordPhase::Final {
                deadline: now + self.timing.final_deadline,
            };
        } else {
            self.phase = CoordPhase::Window {
                round: round + 1,
                until: now + self.window,
            };
        }
    }

    /// Ends the run, after the last round or when the cluster died
    /// under it, by shutting down *every* device, dropped ones included:
    /// being dropped from planning does not stop a device's training
    /// loop, so without a Shutdown it would train forever (and a
    /// threaded harness would never join its thread). `alive_only`,
    /// the seeded missing-shutdown bug, narrows the set to the alive
    /// devices, stranding exactly the others.
    fn shutdown(&self, round: usize, alive_only: bool, out: &mut Vec<Output>) {
        let to = if alive_only {
            self.alive.iter().copied().collect()
        } else {
            (0..self.k).collect()
        };
        out.push(Output::Shutdown { round, to });
    }

    /// Canonical bytes of the script's full state (model-checker
    /// deduplication).
    pub(super) fn digest_into(&self, out: &mut Vec<u8>) {
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
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::topology::Ring;

    const MS: Duration = Duration::from_millis(1);
    const WINDOW: Duration = Duration::from_millis(10);
    const REPORTS: Duration = Duration::from_millis(3);
    const UPLOADS: Duration = Duration::from_millis(5);

    /// Rings every available device in id order; the first broadcasts.
    #[derive(Debug, Clone)]
    struct All;

    impl Planner for All {
        fn plan(&mut self, available: &[DeviceId], _: &[f64]) -> Result<RoundPlan, HadflError> {
            Ok(RoundPlan {
                selected: available.to_vec(),
                ring: Ring::from_order(available.to_vec())?,
                unselected: Vec::new(),
                broadcaster: available[0],
            })
        }
    }

    /// The script of a `k`-device cluster running `rounds` rounds from
    /// time zero.
    fn script(k: usize, rounds: usize) -> CoordScript<All> {
        let timing = ProtocolTiming {
            report_deadline: REPORTS,
            final_deadline: UPLOADS,
            ..ProtocolTiming::zero()
        };
        let supervisor = RuntimeSupervisor::new(0.5, k).unwrap();
        CoordScript::new(k, All, supervisor, WINDOW, rounds, timing, Duration::ZERO)
    }

    fn report(device: usize, version: f64) -> Input {
        Input::Report { device, version }
    }

    fn upload(device: usize) -> Input {
        Input::Final {
            device,
            params: vec![device as f32],
        }
    }

    /// Round `round`'s plan over `available`, planned at `versions`.
    fn plan(round: usize, available: &[usize], versions: Vec<f64>) -> Output {
        let available: Vec<DeviceId> = available.iter().map(|&d| DeviceId(d)).collect();
        Output::Plan {
            round,
            plan: All.plan(&available, &versions).unwrap(),
            available,
            versions,
            probabilities: Vec::new(),
        }
    }

    /// Walks `s` through a window closing at `now` and every device of
    /// `versions` reporting; returns what the last report did.
    fn run_round(
        s: &mut CoordScript<All>,
        now: Duration,
        versions: &[(usize, f64)],
    ) -> Vec<Output> {
        s.step(Input::Wake, now);
        let mut last = Vec::new();
        for &(device, version) in versions {
            last = s.step(report(device, version), now);
        }
        last
    }

    #[test]
    fn the_window_closes_into_report_collection() {
        let mut s = script(3, 1);
        assert_eq!(s.wake(), Wake::Sleep(WINDOW));
        assert_eq!(s.step(Input::Wake, WINDOW - MS), vec![]);
        // A report landing in the window is dropped.
        assert_eq!(s.step(report(0, 4.0), MS), vec![]);
        assert_eq!(
            s.step(Input::Wake, WINDOW),
            vec![Output::RequestReports {
                round: 1,
                to: vec![0, 1, 2]
            }]
        );
        assert!(matches!(
            s.phase(),
            CoordPhase::Collect { round: 1, versions, .. } if versions.is_empty()
        ));
        assert_eq!(s.wake(), Wake::Recv(WINDOW + REPORTS));
        assert_eq!(s.awaiting().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    /// Round 1 is planned at the reports; round 2 drops the silent
    /// device at the deadline and plans the rest at their Eq. (7)
    /// forecasts, then shuts every device down.
    #[test]
    fn a_silent_device_is_dropped_and_the_rest_planned_from_forecasts() {
        let mut s = script(3, 2);
        assert_eq!(
            run_round(&mut s, WINDOW, &[(0, 4.0), (1, 2.0), (2, 1.0)]),
            vec![
                plan(1, &[0, 1, 2], vec![4.0, 2.0, 1.0]),
                Output::RoundComplete { round: 1 }
            ]
        );
        let next = 2 * WINDOW;
        assert_eq!(s.wake(), Wake::Sleep(next));
        assert_eq!(run_round(&mut s, next, &[(0, 8.0), (1, 4.0)]), vec![]);
        assert_eq!(s.awaiting().collect::<Vec<_>>(), vec![2]);
        assert_eq!(s.step(Input::Wake, next + REPORTS - MS), vec![]);

        let mut expected = RuntimeSupervisor::new(0.5, 3).unwrap();
        expected.observe(0, 4.0);
        expected.observe(1, 2.0);
        let (p0, p1) = (expected.forecast(0).unwrap(), expected.forecast(1).unwrap());
        let forecast = |device, predicted, actual| Output::Forecast {
            round: 2,
            device,
            predicted,
            actual,
        };
        assert_eq!(
            s.step(Input::Wake, next + REPORTS),
            vec![
                Output::Drop {
                    device: 2,
                    round: 2
                },
                forecast(0, p0, 8.0),
                forecast(1, p1, 4.0),
                plan(2, &[0, 1], vec![p0, p1]),
                Output::RoundComplete { round: 2 },
                Output::Shutdown {
                    round: 2,
                    to: vec![0, 1, 2]
                },
            ]
        );
        assert_eq!(s.wake(), Wake::Recv(next + REPORTS + UPLOADS));
        let run = s.into_run();
        assert_eq!(run.dropped, vec![(2, 2)]);
        assert_eq!(run.rounds[1].versions, vec![8, 4, 0]);
    }

    /// A deadline that leaves one device shuts down every device, the
    /// dropped ones too, and fails the run.
    #[test]
    fn fewer_than_two_alive_shut_every_device_down() {
        let mut s = script(3, 2);
        run_round(&mut s, WINDOW, &[(0, 1.0)]);
        assert_eq!(
            s.step(Input::Wake, WINDOW + REPORTS),
            vec![
                Output::Drop {
                    device: 1,
                    round: 1
                },
                Output::Drop {
                    device: 2,
                    round: 1
                },
                Output::Shutdown {
                    round: 1,
                    to: vec![0, 1, 2]
                },
                Output::Fail(HadflError::ClusterDead { round: 1 }),
            ]
        );
        assert_eq!(s.wake(), Wake::Done);
    }

    /// The seeded missing-shutdown bug narrows the shutdown to the alive
    /// devices.
    #[test]
    fn the_seeded_bug_shuts_down_only_the_alive() {
        let mut s = script(3, 2);
        run_round(&mut s, WINDOW, &[(0, 1.0)]);
        s.step(Input::Wake, WINDOW + REPORTS);
        let mut out = Vec::new();
        s.shutdown(1, true, &mut out);
        assert_eq!(
            out,
            vec![Output::Shutdown {
                round: 1,
                to: vec![0]
            }]
        );
    }

    /// A ring's death warning during the final collection drops the
    /// device in the last round, once, and stops awaiting its upload.
    #[test]
    fn a_death_during_the_final_collection_is_booked_on_the_last_round() {
        let mut s = script(3, 2);
        run_round(&mut s, WINDOW, &[(0, 1.0), (1, 1.0), (2, 1.0)]);
        run_round(&mut s, 2 * WINDOW, &[(0, 2.0), (1, 2.0), (2, 2.0)]);
        assert!(matches!(s.phase(), CoordPhase::Final { .. }));
        assert_eq!(
            s.step(Input::Dead(1), 2 * WINDOW),
            vec![Output::Drop {
                device: 1,
                round: 2
            }]
        );
        assert_eq!(s.step(Input::Dead(1), 2 * WINDOW), vec![]);
        assert_eq!(s.awaiting().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(s.into_run().dropped, vec![(1, 2)]);
    }

    /// The final collection ends on the last live device's upload, or
    /// at its deadline with what arrived.
    #[test]
    fn the_final_collection_ends_on_the_last_upload_or_its_deadline() {
        let mut s = script(2, 1);
        run_round(&mut s, WINDOW, &[(0, 1.0), (1, 1.0)]);
        let deadline = WINDOW + UPLOADS;
        s.step(upload(0), WINDOW);
        assert_eq!(s.wake(), Wake::Recv(deadline));
        s.step(upload(1), WINDOW);
        assert_eq!(s.wake(), Wake::Done);
        assert_eq!(s.into_run().final_models.len(), 2);

        let mut s = script(2, 1);
        run_round(&mut s, WINDOW, &[(0, 1.0), (1, 1.0)]);
        s.step(upload(1), WINDOW);
        assert_eq!(s.step(Input::Wake, deadline - MS), vec![]);
        assert_eq!(s.wake(), Wake::Recv(deadline));
        assert_eq!(s.step(Input::Wake, deadline), vec![]);
        assert_eq!(s.wake(), Wake::Done);
        let run = s.into_run();
        assert_eq!(
            run.final_models.keys().copied().collect::<Vec<_>>(),
            vec![1]
        );
    }

    /// An upload from a device dropped after it uploaded stays in the
    /// run but does not stand in for a live device's: the collection
    /// still awaits device 2.
    #[test]
    fn a_dropped_uploader_does_not_end_the_final_collection() {
        let mut s = script(3, 1);
        run_round(&mut s, WINDOW, &[(0, 1.0), (1, 1.0), (2, 1.0)]);
        s.step(upload(0), WINDOW);
        s.step(Input::Dead(0), WINDOW);
        s.step(upload(1), WINDOW);
        assert_eq!(s.awaiting().collect::<Vec<_>>(), vec![2]);
        assert_eq!(s.wake(), Wake::Recv(WINDOW + UPLOADS));
        s.step(upload(2), WINDOW);
        assert_eq!(s.wake(), Wake::Done);
        assert_eq!(
            s.into_run()
                .final_models
                .keys()
                .copied()
                .collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    /// Once dropped, a device's report and upload change nothing: the
    /// round is planned without it and the run ends without its model.
    #[test]
    fn a_dropped_device_is_ignored() {
        let mut s = script(3, 1);
        s.step(Input::Wake, WINDOW);
        s.step(report(2, 5.0), WINDOW);
        assert_eq!(
            s.step(Input::Dead(2), WINDOW),
            vec![Output::Drop {
                device: 2,
                round: 1
            }]
        );
        assert!(matches!(
            s.phase(),
            CoordPhase::Collect { versions, .. } if versions.is_empty()
        ));
        assert_eq!(s.step(report(2, 6.0), WINDOW), vec![]);
        s.step(report(0, 1.0), WINDOW);
        let out = s.step(report(1, 1.0), WINDOW);
        assert_eq!(out[0], plan(1, &[0, 1], vec![1.0, 1.0]));
        s.step(upload(2), WINDOW);
        s.step(upload(0), WINDOW);
        assert_eq!(s.awaiting().collect::<Vec<_>>(), vec![1]);
        s.step(upload(1), WINDOW);
        assert_eq!(s.wake(), Wake::Done);
        let run = s.into_run();
        assert_eq!(
            run.final_models.keys().copied().collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(run.rounds[0].versions, vec![1, 1, 0]);
    }
}
