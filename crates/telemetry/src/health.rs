//! Online fleet health rules over the merged event stream.
//!
//! The collector feeds every merged event through
//! [`HealthEngine::observe`] and calls [`HealthEngine::tick`] on a
//! cadence; the engine keeps rolling per-device and per-round state
//! and raises structured [`Alert`]s:
//!
//! - **round-watchdog** — a `RoundPlanned` with no `RingExit` (or
//!   merge/completion) inside the deadline: the ring is stuck, not
//!   merely slow.
//! - **straggler** — Eq. 7 predicted-vs-actual residuals: a device
//!   whose reported version keeps undershooting Brown's forecast, or
//!   whose version lags the fleet median round after round. The two
//!   signals are combined because the double-exponential smoother
//!   *adapts* to a consistently slow device (residuals converge to
//!   zero), while the median-lag component keeps pointing at it.
//! - **dead-device** — the coordinator dropped a device, or the same
//!   device was bypass-declared repeatedly (§III-D says one bypass is
//!   routine repair; the same corpse every round is an outage).
//! - **dead-ring** — a round whose ring dissolved (`RingExit` with
//!   `dissolved`) and produced no `Merge` before the next plan.
//! - **budget-burn** — cumulative on-wire payload bytes (from
//!   `FrameSent`) crossing the paper's `2·K·M` bound.
//!
//! Time is injected: `observe`/`tick` take the *collector's* clock
//! reading, never the emitters' `t_us` (fleet clocks are not
//! comparable across hosts). With a `ManualClock` driving those
//! readings the whole rule set is deterministic.

use std::collections::BTreeMap;
use std::time::Duration;

use serde::Serialize;

use crate::event::{Event, EventKind};

/// Alert weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Severity {
    /// Degraded but progressing.
    Warning,
    /// Progress or correctness is at risk.
    Critical,
}

/// One structured health finding (serialized into `/health`).
#[derive(Debug, Clone, Serialize)]
pub struct Alert {
    /// Rule id: `round-watchdog`, `straggler`, `dead-device`,
    /// `dead-ring`, `budget-burn`.
    pub rule: String,
    /// How bad.
    pub severity: Severity,
    /// Round the finding is about, when round-scoped.
    pub round: Option<u32>,
    /// Device the finding is about, when device-scoped.
    pub device: Option<u32>,
    /// Human-readable one-liner.
    pub message: String,
    /// Collector clock at raise time, microseconds.
    pub at_us: u64,
}

/// The `/health` document.
#[derive(Debug, Clone, Serialize)]
pub struct HealthReport {
    /// `ok`, `warning`, or `critical` (max alert severity).
    pub status: String,
    /// Rounds the coordinator has planned.
    pub rounds_planned: u64,
    /// Rounds with a `RoundComplete`.
    pub rounds_completed: u64,
    /// Distinct devices seen in any event.
    pub devices_seen: usize,
    /// Cumulative payload bytes from `FrameSent` events.
    pub traffic_bytes: u64,
    /// The configured `2·K·M` bound, if any.
    pub budget_bytes: Option<u64>,
    /// Every alert raised so far, in raise order.
    pub alerts: Vec<Alert>,
}

/// What a deployment tells [`HealthEngine`] about itself. The rule
/// thresholds are constants inside the rules that read them.
#[derive(Debug, Clone)]
pub struct HealthOptions {
    /// Watchdog deadline: `RoundPlanned` → first ring progress.
    pub round_deadline: Duration,
    /// The `2·K·M` byte bound; `None` disables budget-burn.
    pub budget_bytes: Option<u64>,
}

impl Default for HealthOptions {
    fn default() -> Self {
        HealthOptions {
            round_deadline: Duration::from_secs(30),
            budget_bytes: None,
        }
    }
}

/// Rolling state of one planned round.
#[derive(Debug, Default)]
struct RoundState {
    planned_at_us: u64,
    /// Any `RingExit`/`Merge`/`RoundComplete` seen — watchdog food.
    progressed: bool,
    dissolved_exits: u32,
    merges: u32,
    completed: bool,
    watchdog_raised: bool,
    dead_ring_raised: bool,
}

/// Rolling state of one device.
#[derive(Debug, Default)]
struct DeviceState {
    /// EWMA of relative Eq. 7 residuals.
    residual_ewma: f64,
    residual_obs: u32,
    /// Consecutive plans below the lag line.
    lagging_plans: u32,
    bypass_count: u32,
    straggler_raised: bool,
    dead_raised: bool,
}

/// The online rule evaluator. One instance per fleet.
pub struct HealthEngine {
    opts: HealthOptions,
    rounds: BTreeMap<u32, RoundState>,
    devices: BTreeMap<u32, DeviceState>,
    traffic_bytes: u64,
    budget_raised: bool,
    rounds_completed: u64,
    alerts: Vec<Alert>,
}

impl HealthEngine {
    /// A fresh engine.
    pub fn new(opts: HealthOptions) -> Self {
        HealthEngine {
            opts,
            rounds: BTreeMap::new(),
            devices: BTreeMap::new(),
            traffic_bytes: 0,
            budget_raised: false,
            rounds_completed: 0,
            alerts: Vec::new(),
        }
    }

    /// Feeds one merged event. `now` is the collector's clock.
    pub fn observe(&mut self, now: Duration, event: &Event) {
        let now_us = now.as_micros() as u64;
        match &event.kind {
            EventKind::RoundPlanned {
                round,
                available,
                versions,
                ..
            } => {
                self.close_stale_rings(*round, now_us);
                let state = self.rounds.entry(*round).or_default();
                state.planned_at_us = now_us;
                self.score_version_lag(*round, available, versions, now_us);
                for device in available {
                    self.devices.entry(*device).or_default();
                }
            }
            EventKind::RingExit { round, dissolved } => {
                let state = self.rounds.entry(*round).or_default();
                state.progressed = true;
                if *dissolved {
                    state.dissolved_exits += 1;
                }
            }
            EventKind::Merge { round, .. } => {
                let state = self.rounds.entry(*round).or_default();
                state.progressed = true;
                state.merges += 1;
            }
            EventKind::RoundComplete { round, .. } => {
                let state = self.rounds.entry(*round).or_default();
                state.progressed = true;
                if !state.completed {
                    state.completed = true;
                    self.rounds_completed += 1;
                }
            }
            EventKind::Prediction {
                round,
                device,
                predicted,
                actual,
            } => {
                self.score_residual(*round, *device, *predicted, *actual, now_us);
            }
            EventKind::DeviceDropped { round, device } => {
                self.raise_dead_device(
                    *device,
                    Some(*round),
                    format!("coordinator dropped device {device} in round {round} (missed report deadline)"),
                    now_us,
                );
            }
            EventKind::BypassDeclared { round, dead } => {
                /// Bypass declarations against one device before it is
                /// presumed dead (1 bypass = routine §III-D repair).
                const BYPASS_REPEAT_THRESHOLD: u32 = 2;
                let state = self.devices.entry(*dead).or_default();
                state.bypass_count += 1;
                if state.bypass_count >= BYPASS_REPEAT_THRESHOLD {
                    let count = state.bypass_count;
                    self.raise_dead_device(
                        *dead,
                        Some(*round),
                        format!(
                            "device {dead} bypass-declared {count} times (latest round {round})"
                        ),
                        now_us,
                    );
                }
            }
            EventKind::FrameSent { bytes, .. } => {
                self.traffic_bytes += bytes;
                if let Some(budget) = self.opts.budget_bytes {
                    if !self.budget_raised && self.traffic_bytes > budget {
                        self.budget_raised = true;
                        let traffic = self.traffic_bytes;
                        self.alerts.push(Alert {
                            rule: "budget-burn".into(),
                            severity: Severity::Warning,
                            round: None,
                            device: None,
                            message: format!(
                                "on-wire payload traffic {traffic} B exceeded the 2·K·M budget of {budget} B"
                            ),
                            at_us: now_us,
                        });
                    }
                }
            }
            EventKind::DeviceStarted { device }
            | EventKind::DeviceFinished { device, .. }
            | EventKind::LocalSteps { device, .. } => {
                self.devices.entry(*device).or_default();
            }
            _ => {}
        }
    }

    /// Evaluates the time-based rules (watchdog, dead-ring deadline).
    /// Call on a cadence with the collector's clock.
    pub fn tick(&mut self, now: Duration) {
        let now_us = now.as_micros() as u64;
        let deadline_us = self.opts.round_deadline.as_micros() as u64;
        let mut raise = Vec::new();
        for (&round, state) in self.rounds.iter_mut() {
            if state.completed || state.watchdog_raised {
                continue;
            }
            if !state.progressed && now_us.saturating_sub(state.planned_at_us) > deadline_us {
                state.watchdog_raised = true;
                raise.push(Alert {
                    rule: "round-watchdog".into(),
                    severity: Severity::Critical,
                    round: Some(round),
                    device: None,
                    message: format!(
                        "round {round} planned but no ring progress within {} ms",
                        deadline_us / 1000
                    ),
                    at_us: now_us,
                });
            }
            if !state.dead_ring_raised
                && state.dissolved_exits > 0
                && state.merges == 0
                && now_us.saturating_sub(state.planned_at_us) > deadline_us
            {
                state.dead_ring_raised = true;
                raise.push(Alert {
                    rule: "dead-ring".into(),
                    severity: Severity::Critical,
                    round: Some(round),
                    device: None,
                    message: format!(
                        "round {round}: ring dissolved ({} exits) with no merge",
                        state.dissolved_exits
                    ),
                    at_us: now_us,
                });
            }
        }
        self.alerts.extend(raise);
    }

    /// Alerts raised so far, in raise order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Cumulative `FrameSent` payload bytes.
    pub fn traffic_bytes(&self) -> u64 {
        self.traffic_bytes
    }

    /// Builds the `/health` document.
    pub fn report(&self) -> HealthReport {
        let status = match self.alerts.iter().map(|a| a.severity).max() {
            None => "ok",
            Some(Severity::Warning) => "warning",
            Some(Severity::Critical) => "critical",
        };
        HealthReport {
            status: status.into(),
            rounds_planned: self.rounds.len() as u64,
            rounds_completed: self.rounds_completed,
            devices_seen: self.devices.len(),
            traffic_bytes: self.traffic_bytes,
            budget_bytes: self.opts.budget_bytes,
            alerts: self.alerts.clone(),
        }
    }

    /// When round `new_round` is planned, earlier dissolved-no-merge
    /// rings are conclusively dead regardless of the deadline.
    fn close_stale_rings(&mut self, new_round: u32, now_us: u64) {
        let mut raise = Vec::new();
        for (&round, state) in self.rounds.iter_mut() {
            if round >= new_round || state.dead_ring_raised {
                continue;
            }
            if state.dissolved_exits > 0 && state.merges == 0 {
                state.dead_ring_raised = true;
                raise.push(Alert {
                    rule: "dead-ring".into(),
                    severity: Severity::Critical,
                    round: Some(round),
                    device: None,
                    message: format!(
                        "round {round}: ring dissolved ({} exits) with no merge before round {new_round} was planned",
                        state.dissolved_exits
                    ),
                    at_us: now_us,
                });
            }
        }
        self.alerts.extend(raise);
    }

    /// Eq. 7 residual component: relative undershoot of the forecast,
    /// exponentially smoothed so one noisy report cannot trigger.
    fn score_residual(
        &mut self,
        round: u32,
        device: u32,
        predicted: f64,
        actual: f64,
        now_us: u64,
    ) {
        /// Straggler trigger on the EWMA of relative Eq. 7 residuals
        /// (`(predicted - actual) / max(predicted, 1)`).
        const RESIDUAL_THRESHOLD: f64 = 0.35;
        /// Residual observations required before the EWMA may trigger.
        const RESIDUAL_MIN_OBS: u32 = 2;
        if !predicted.is_finite() || !actual.is_finite() {
            return;
        }
        let rel = (predicted - actual) / predicted.abs().max(1.0);
        let state = self.devices.entry(device).or_default();
        state.residual_ewma = if state.residual_obs == 0 {
            rel
        } else {
            0.5 * state.residual_ewma + 0.5 * rel
        };
        state.residual_obs += 1;
        if state.residual_obs >= RESIDUAL_MIN_OBS && state.residual_ewma > RESIDUAL_THRESHOLD {
            let ewma = state.residual_ewma;
            self.raise_straggler(
                device,
                Some(round),
                format!(
                    "device {device}: Eq.7 forecast residual EWMA {ewma:.2} (actual keeps undershooting predicted)"
                ),
                now_us,
            );
        }
    }

    /// Median-lag component: a device persistently below half the
    /// fleet's median version is starved of compute even after the
    /// smoother has adapted to it.
    fn score_version_lag(&mut self, round: u32, available: &[u32], versions: &[f64], now_us: u64) {
        /// Straggler trigger when a device's version stays below
        /// `LAG_FACTOR × fleet median` for [`LAG_ROUNDS`] plans.
        const LAG_FACTOR: f64 = 0.5;
        /// Consecutive lagging plans before the lag component fires.
        const LAG_ROUNDS: u32 = 2;
        if available.len() != versions.len() || available.len() < 3 {
            return;
        }
        let mut sorted: Vec<f64> = versions.iter().copied().filter(|v| v.is_finite()).collect();
        if sorted.len() < 3 {
            return;
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = sorted[sorted.len() / 2];
        if median <= 0.0 {
            return;
        }
        let line = LAG_FACTOR * median;
        let mut raise = Vec::new();
        for (&device, &version) in available.iter().zip(versions.iter()) {
            let state = self.devices.entry(device).or_default();
            if version < line {
                state.lagging_plans += 1;
                if state.lagging_plans >= LAG_ROUNDS && !state.straggler_raised {
                    state.straggler_raised = true;
                    let plans = state.lagging_plans;
                    raise.push(Alert {
                        rule: "straggler".into(),
                        severity: Severity::Warning,
                        round: Some(round),
                        device: Some(device),
                        message: format!(
                            "device {device}: version {version:.0} below {line:.0} \
                             (fleet median {median:.0}) for {plans} consecutive plans"
                        ),
                        at_us: now_us,
                    });
                }
            } else {
                state.lagging_plans = 0;
            }
        }
        self.alerts.extend(raise);
    }

    fn raise_straggler(&mut self, device: u32, round: Option<u32>, message: String, now_us: u64) {
        let state = self.devices.entry(device).or_default();
        if state.straggler_raised {
            return;
        }
        state.straggler_raised = true;
        self.alerts.push(Alert {
            rule: "straggler".into(),
            severity: Severity::Warning,
            round,
            device: Some(device),
            message,
            at_us: now_us,
        });
    }

    fn raise_dead_device(&mut self, device: u32, round: Option<u32>, message: String, now_us: u64) {
        let state = self.devices.entry(device).or_default();
        if state.dead_raised {
            return;
        }
        state.dead_raised = true;
        self.alerts.push(Alert {
            rule: "dead-device".into(),
            severity: Severity::Critical,
            round,
            device: Some(device),
            message,
            at_us: now_us,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SCHEMA_VERSION;

    fn event(node: u32, kind: EventKind) -> Event {
        Event {
            v: SCHEMA_VERSION,
            seq: 0,
            node,
            t_us: 0,
            lam: 0,
            kind,
        }
    }

    fn planned(round: u32, available: Vec<u32>, versions: Vec<f64>) -> Event {
        let n = available.len();
        event(
            u32::MAX,
            EventKind::RoundPlanned {
                round,
                available,
                versions,
                probabilities: vec![1.0 / n as f64; n],
                selected: vec![],
                unselected: vec![],
                broadcaster: 0,
            },
        )
    }

    #[test]
    fn healthy_round_raises_nothing() {
        let mut engine = HealthEngine::new(HealthOptions::default());
        let t = Duration::from_secs;
        engine.observe(t(1), &planned(1, vec![0, 1, 2], vec![100.0, 110.0, 95.0]));
        engine.observe(
            t(2),
            &event(
                0,
                EventKind::RingExit {
                    round: 1,
                    dissolved: false,
                },
            ),
        );
        engine.observe(
            t(2),
            &event(
                0,
                EventKind::Merge {
                    round: 1,
                    participants: 3,
                },
            ),
        );
        engine.observe(
            t(3),
            &event(
                3,
                EventKind::RoundComplete {
                    round: 1,
                    duration_us: 2_000_000,
                },
            ),
        );
        engine.tick(t(120));
        assert!(engine.alerts().is_empty(), "{:?}", engine.alerts());
        assert_eq!(engine.report().status, "ok");
        assert_eq!(engine.report().rounds_completed, 1);
    }

    #[test]
    fn watchdog_fires_after_the_deadline_only() {
        let mut engine = HealthEngine::new(HealthOptions {
            round_deadline: Duration::from_secs(10),
            ..HealthOptions::default()
        });
        engine.observe(Duration::from_secs(1), &planned(1, vec![], vec![]));
        engine.tick(Duration::from_secs(5));
        assert!(engine.alerts().is_empty());
        engine.tick(Duration::from_secs(12));
        assert_eq!(engine.alerts().len(), 1);
        assert_eq!(engine.alerts()[0].rule, "round-watchdog");
        assert_eq!(engine.alerts()[0].round, Some(1));
        // Idempotent: the same stuck round alerts once.
        engine.tick(Duration::from_secs(20));
        assert_eq!(engine.alerts().len(), 1);
        assert_eq!(engine.report().status, "critical");
    }

    #[test]
    fn version_lag_flags_the_straggler() {
        let mut engine = HealthEngine::new(HealthOptions::default());
        // Device 2 sits far below the fleet median for two plans.
        engine.observe(
            Duration::from_secs(1),
            &planned(1, vec![0, 1, 2, 3], vec![100.0, 110.0, 20.0, 105.0]),
        );
        assert!(engine.alerts().is_empty(), "one lagging plan is noise");
        engine.observe(
            Duration::from_secs(2),
            &planned(2, vec![0, 1, 2, 3], vec![200.0, 210.0, 40.0, 205.0]),
        );
        let alerts = engine.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "straggler");
        assert_eq!(alerts[0].device, Some(2));
        assert_eq!(alerts[0].severity, Severity::Warning);
    }

    #[test]
    fn residuals_flag_a_forecast_undershooter() {
        let mut engine = HealthEngine::new(HealthOptions::default());
        for round in 1..=3 {
            engine.observe(
                Duration::from_secs(round as u64),
                &event(
                    9,
                    EventKind::Prediction {
                        round,
                        device: 5,
                        predicted: 100.0,
                        actual: 40.0,
                    },
                ),
            );
        }
        let alerts = engine.alerts();
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].rule, "straggler");
        assert_eq!(alerts[0].device, Some(5));
    }

    #[test]
    fn accurate_forecasts_stay_quiet() {
        let mut engine = HealthEngine::new(HealthOptions::default());
        for round in 1..=5 {
            engine.observe(
                Duration::from_secs(round as u64),
                &event(
                    9,
                    EventKind::Prediction {
                        round,
                        device: 5,
                        predicted: 100.0 * round as f64,
                        actual: 98.0 * round as f64,
                    },
                ),
            );
        }
        assert!(engine.alerts().is_empty());
    }

    #[test]
    fn dropped_device_is_dead_immediately() {
        let mut engine = HealthEngine::new(HealthOptions::default());
        engine.observe(
            Duration::from_secs(1),
            &event(
                9,
                EventKind::DeviceDropped {
                    round: 2,
                    device: 7,
                },
            ),
        );
        let alerts = engine.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "dead-device");
        assert_eq!(alerts[0].severity, Severity::Critical);
        assert_eq!(alerts[0].device, Some(7));
    }

    #[test]
    fn one_bypass_is_repair_two_is_an_outage() {
        let mut engine = HealthEngine::new(HealthOptions::default());
        engine.observe(
            Duration::from_secs(1),
            &event(0, EventKind::BypassDeclared { round: 1, dead: 4 }),
        );
        assert!(engine.alerts().is_empty(), "single bypass is §III-D repair");
        engine.observe(
            Duration::from_secs(2),
            &event(1, EventKind::BypassDeclared { round: 2, dead: 4 }),
        );
        let alerts = engine.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "dead-device");
        assert_eq!(alerts[0].device, Some(4));
    }

    #[test]
    fn dissolved_ring_without_merge_is_dead() {
        let mut engine = HealthEngine::new(HealthOptions::default());
        engine.observe(Duration::from_secs(1), &planned(1, vec![], vec![]));
        engine.observe(
            Duration::from_secs(2),
            &event(
                0,
                EventKind::RingExit {
                    round: 1,
                    dissolved: true,
                },
            ),
        );
        engine.observe(
            Duration::from_secs(2),
            &event(
                1,
                EventKind::RingExit {
                    round: 1,
                    dissolved: true,
                },
            ),
        );
        // The next plan closes the book on round 1.
        engine.observe(Duration::from_secs(3), &planned(2, vec![], vec![]));
        let alerts = engine.alerts();
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].rule, "dead-ring");
        assert_eq!(alerts[0].round, Some(1));
    }

    #[test]
    fn dissolved_ring_with_merge_is_fine() {
        let mut engine = HealthEngine::new(HealthOptions::default());
        engine.observe(Duration::from_secs(1), &planned(1, vec![], vec![]));
        engine.observe(
            Duration::from_secs(2),
            &event(
                0,
                EventKind::RingExit {
                    round: 1,
                    dissolved: true,
                },
            ),
        );
        engine.observe(
            Duration::from_secs(2),
            &event(
                1,
                EventKind::Merge {
                    round: 1,
                    participants: 2,
                },
            ),
        );
        engine.observe(Duration::from_secs(3), &planned(2, vec![], vec![]));
        engine.tick(Duration::from_secs(120));
        // Round 2 trips the watchdog at t=120 (it never progressed),
        // but round 1 must not be called dead.
        assert!(engine.alerts().iter().all(|a| a.rule != "dead-ring"));
    }

    #[test]
    fn budget_burn_fires_once_at_the_bound() {
        let mut engine = HealthEngine::new(HealthOptions {
            budget_bytes: Some(1000),
            ..HealthOptions::default()
        });
        for _ in 0..3 {
            engine.observe(
                Duration::from_secs(1),
                &event(
                    0,
                    EventKind::FrameSent {
                        src: 0,
                        dst: 1,
                        bytes: 400,
                        kind: "param_chunk".into(),
                        lamport: 1,
                    },
                ),
            );
        }
        let alerts = engine.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "budget-burn");
        assert_eq!(engine.traffic_bytes(), 1200);
    }

    #[test]
    fn report_serializes_to_json() {
        let mut engine = HealthEngine::new(HealthOptions::default());
        engine.observe(
            Duration::from_secs(1),
            &event(
                9,
                EventKind::DeviceDropped {
                    round: 1,
                    device: 3,
                },
            ),
        );
        let json = serde_json::to_string(&engine.report()).expect("report is plain data");
        assert!(json.contains("\"status\":\"critical\""));
        assert!(json.contains("\"rule\":\"dead-device\""));
    }
}
