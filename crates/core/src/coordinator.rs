//! The cloud coordinator and its four components (paper §III-A, Fig. 2a):
//! *liveness monitor*, *runtime supervisor*, *strategy generator*, and
//! *model manager*.
//!
//! The coordinator is control-plane only: it receives tiny runtime
//! reports (versions, liveness) and sends tiny configuration messages.
//! Model parameters never flow through it during training — the
//! decentralization property the communication-volume experiment
//! verifies — except for the model manager's periodic *backup* fetches,
//! which the paper describes and which are accounted separately.

use hadfl_simnet::{DeviceId, FaultPlan, VirtualTime};
use hadfl_telemetry::EventKind;
use hadfl_tensor::SeedStream;
use serde::{Deserialize, Serialize};

use crate::config::HadflConfig;
use crate::error::HadflError;
use crate::predict::VersionPredictor;
use crate::select::{select_devices, selection_weights, SelectionPolicy};
use crate::topology::Ring;

/// The *liveness monitor*: tracks which devices are reachable.
///
/// In this reproduction, ground-truth availability comes from the
/// simulator's [`FaultPlan`]; the actors over a real transport find a
/// dead device by the §III-D timeout and handshake instead.
#[derive(Debug, Clone, Default)]
pub struct LivenessMonitor {
    plan: FaultPlan,
}

impl LivenessMonitor {
    /// Creates a monitor over a fault schedule.
    pub fn new(plan: FaultPlan) -> Self {
        LivenessMonitor { plan }
    }

    /// Devices of `0..n` reachable at `t`.
    pub fn available(&self, n: usize, t: VirtualTime) -> Vec<DeviceId> {
        self.plan.available(n, t)
    }

    /// Is one device reachable at `t`?
    pub fn is_up(&self, device: DeviceId, t: VirtualTime) -> bool {
        self.plan.is_up(device, t)
    }
}

/// The *runtime supervisor*: collects each device's parameter versions
/// as they are reported and forecasts its next one with the Eq. (7)
/// predictor. Devices are observed one by one, so a caller that only
/// hears from live devices feeds only those.
#[derive(Debug, Clone)]
pub struct RuntimeSupervisor {
    predictors: Vec<VersionPredictor>,
}

impl RuntimeSupervisor {
    /// Tracks devices `0..devices`, none observed yet.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] for an α outside (0, 1).
    pub fn new(alpha: f64, devices: usize) -> Result<Self, HadflError> {
        // The prior is never read: `forecast` answers only once a device
        // has been observed, and the caller owns the fallback before.
        let unobserved = VersionPredictor::new(alpha, 0.0)?;
        Ok(RuntimeSupervisor {
            predictors: vec![unobserved; devices],
        })
    }

    /// Records `device`'s version in the round just completed.
    ///
    /// # Panics
    ///
    /// Panics if `device` is not below the tracked count.
    pub fn observe(&mut self, device: usize, version: f64) {
        self.predictors[device].observe(version);
    }

    /// `device`'s version one round ahead, or `None` before its first
    /// observation — the caller then plans at the Eq. (6) prior or at
    /// the report itself.
    ///
    /// # Panics
    ///
    /// Panics if `device` is not below the tracked count.
    pub fn forecast(&self, device: usize) -> Option<f64> {
        let p = &self.predictors[device];
        (p.observations() > 0).then(|| p.forecast(1))
    }
}

/// One round's synchronization plan from the *strategy generator*: who
/// aggregates, in what ring order, and who receives the broadcast.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundPlan {
    /// Devices selected for partial synchronization, sorted by id.
    pub selected: Vec<DeviceId>,
    /// The random directed ring over `selected`.
    pub ring: Ring,
    /// Available devices *not* selected; they receive the merged model
    /// non-blockingly.
    pub unselected: Vec<DeviceId>,
    /// The selected device that broadcasts to the unselected set.
    pub broadcaster: DeviceId,
}

impl RoundPlan {
    /// The plan as both stacks log it: round `round`, drawn over
    /// `available` at `versions` with the Eq. (8) `probabilities`.
    pub(crate) fn event(
        &self,
        round: usize,
        available: &[DeviceId],
        versions: Vec<f64>,
        probabilities: Vec<f64>,
    ) -> EventKind {
        EventKind::RoundPlanned {
            round: round as u32,
            available: ids(available),
            versions,
            probabilities,
            selected: ids(&self.selected),
            unselected: ids(&self.unselected),
            broadcaster: self.broadcaster.index() as u32,
        }
    }
}

/// Device ids as they ride in frames and events.
pub(crate) fn ids(devices: &[DeviceId]) -> Vec<u32> {
    devices.iter().map(|d| d.index() as u32).collect()
}

/// The *strategy generator*: turns predicted versions into a
/// [`RoundPlan`] using the Eq. (8) probability-based selection and a
/// random ring.
#[derive(Debug)]
pub struct StrategyGenerator {
    policy: SelectionPolicy,
    n_p: usize,
    rng: SeedStream,
    last_probabilities: Option<Vec<f64>>,
}

impl StrategyGenerator {
    /// Creates a generator from the framework configuration.
    pub fn new(config: &HadflConfig) -> Self {
        StrategyGenerator {
            policy: config.selection,
            n_p: config.num_selected,
            rng: SeedStream::new(config.seed ^ 0x57A7_E6E0),
            last_probabilities: None,
        }
    }

    /// The normalized Eq. (8) first-draw probabilities of the most
    /// recent [`plan_round`](Self::plan_round) call, parallel to its
    /// `available` argument. These are the pdf weights regardless of
    /// the configured policy (the worst-case policy draws
    /// deterministically but the weights still describe Eq. 8's
    /// expectation), so telemetry can log selection skew against them.
    pub fn last_probabilities(&self) -> Option<&[f64]> {
        self.last_probabilities.as_deref()
    }

    /// Plans one synchronization round over the available devices.
    ///
    /// `versions[i]` is the predicted version of `available[i]`.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] if fewer than two devices
    /// are available (no ring is possible) or inputs disagree in length.
    pub fn plan_round(
        &mut self,
        available: &[DeviceId],
        versions: &[f64],
    ) -> Result<RoundPlan, HadflError> {
        if available.len() < 2 {
            return Err(HadflError::InvalidConfig(format!(
                "need at least 2 available devices to synchronize, have {}",
                available.len()
            )));
        }
        let weights = selection_weights(versions)?;
        let total: f64 = weights.iter().sum();
        self.last_probabilities = Some(if total > 0.0 {
            weights.iter().map(|w| w / total).collect()
        } else {
            vec![1.0 / versions.len() as f64; versions.len()]
        });
        let selected = select_devices(self.policy, available, versions, self.n_p, &mut self.rng)?;
        let ring = Ring::random(&selected, &mut self.rng)?;
        let unselected: Vec<DeviceId> = available
            .iter()
            .copied()
            .filter(|d| !selected.contains(d))
            .collect();
        let broadcaster = selected[self.rng.index(selected.len())];
        Ok(RoundPlan {
            selected,
            ring,
            unselected,
            broadcaster,
        })
    }
}

/// One stored model backup.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelBackup {
    /// Synchronization round at which the backup was taken.
    pub round: usize,
    /// Virtual time of the backup.
    pub time: VirtualTime,
    /// The backed-up parameter vector.
    pub params: Vec<f32>,
}

/// The *model manager*: periodically fetches the latest merged model into
/// the coordinator's database (paper workflow step 9).
#[derive(Debug, Clone)]
pub struct ModelManager {
    every_rounds: usize,
    backups: Vec<ModelBackup>,
}

impl ModelManager {
    /// Creates a manager that backs up every `every_rounds` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `every_rounds` is zero.
    pub fn new(every_rounds: usize) -> Self {
        assert!(every_rounds > 0, "backup period must be positive");
        ModelManager {
            every_rounds,
            backups: Vec::new(),
        }
    }

    /// Offers the round's merged model; stores it when the period elapses.
    /// Returns `true` if a backup was taken (the driver then accounts the
    /// device→server transfer).
    pub fn maybe_backup(&mut self, round: usize, time: VirtualTime, params: &[f32]) -> bool {
        if round.is_multiple_of(self.every_rounds) {
            self.backups.push(ModelBackup {
                round,
                time,
                params: to_owned(params),
            });
            true
        } else {
            false
        }
    }

    /// The most recent backup, if any.
    pub fn latest(&self) -> Option<&ModelBackup> {
        self.backups.last()
    }

    /// All backups, oldest first.
    pub fn backups(&self) -> &[ModelBackup] {
        &self.backups
    }
}

fn to_owned(params: &[f32]) -> Vec<f32> {
    params.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadfl_simnet::Outage;

    fn t(s: f64) -> VirtualTime {
        VirtualTime::from_secs(s)
    }

    #[test]
    fn liveness_monitor_reflects_fault_plan() {
        let plan = FaultPlan::new(vec![Outage::window(DeviceId(1), t(1.0), t(2.0))]).unwrap();
        let monitor = LivenessMonitor::new(plan);
        assert_eq!(monitor.available(3, t(1.5)), vec![DeviceId(0), DeviceId(2)]);
        assert!(monitor.is_up(DeviceId(1), t(2.5)));
    }

    #[test]
    fn supervisor_tracks_and_predicts() {
        let mut sup = RuntimeSupervisor::new(0.5, 2).unwrap();
        assert_eq!(sup.forecast(0), None, "no forecast before an observation");
        sup.observe(0, 110.0);
        assert_eq!(sup.forecast(0), Some(110.0));
        assert_eq!(sup.forecast(1), None, "devices are observed one by one");
        // Eq. 7 at α = 0.5 over [110, 120]: s₁ = 115, s₂ = 112.5, so
        // a = 117.5, b = 2.5 and the one-ahead forecast is 120.
        sup.observe(0, 120.0);
        assert_eq!(sup.forecast(0), Some(120.0));
        assert!(RuntimeSupervisor::new(1.0, 2).is_err());
    }

    #[test]
    fn round_plan_partitions_devices() {
        let cfg = HadflConfig::builder()
            .num_selected(2)
            .seed(5)
            .build()
            .unwrap();
        let mut gen = StrategyGenerator::new(&cfg);
        let available: Vec<DeviceId> = (0..4).map(DeviceId).collect();
        let plan = gen
            .plan_round(&available, &[10.0, 20.0, 30.0, 40.0])
            .unwrap();
        assert_eq!(plan.selected.len(), 2);
        assert_eq!(plan.unselected.len(), 2);
        assert!(plan.selected.contains(&plan.broadcaster));
        for d in &plan.unselected {
            assert!(!plan.selected.contains(d));
        }
        assert_eq!(plan.ring.len(), 2);
    }

    #[test]
    fn round_plans_vary_across_rounds() {
        let cfg = HadflConfig::builder()
            .num_selected(2)
            .seed(5)
            .build()
            .unwrap();
        let mut gen = StrategyGenerator::new(&cfg);
        let available: Vec<DeviceId> = (0..6).map(DeviceId).collect();
        let versions = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0];
        let plans: Vec<_> = (0..12)
            .map(|_| gen.plan_round(&available, &versions).unwrap())
            .collect();
        let distinct: std::collections::HashSet<Vec<DeviceId>> =
            plans.iter().map(|p| p.selected.clone()).collect();
        assert!(distinct.len() > 1, "selection never varied");
    }

    #[test]
    fn plan_round_needs_two_devices() {
        let cfg = HadflConfig::builder().build().unwrap();
        let mut gen = StrategyGenerator::new(&cfg);
        assert!(gen.plan_round(&[DeviceId(0)], &[1.0]).is_err());
    }

    #[test]
    fn model_manager_backs_up_on_period() {
        let mut mgr = ModelManager::new(3);
        assert!(mgr.maybe_backup(0, t(0.0), &[1.0]));
        assert!(!mgr.maybe_backup(1, t(1.0), &[2.0]));
        assert!(!mgr.maybe_backup(2, t(2.0), &[3.0]));
        assert!(mgr.maybe_backup(3, t(3.0), &[4.0]));
        assert_eq!(mgr.backups().len(), 2);
        assert_eq!(mgr.latest().map(|b| b.round), Some(3));
    }

    #[test]
    #[should_panic(expected = "backup period")]
    fn model_manager_rejects_zero_period() {
        let _ = ModelManager::new(0);
    }
}
