//! The cloud coordinator (paper §III-A, Fig. 2a). Of its four
//! components, two are types here and two live where the stack keeps
//! its ground truth:
//!
//! - the *runtime supervisor* ([`RuntimeSupervisor`]) and the *strategy
//!   generator* ([`StrategyGenerator`]) serve both stacks: the
//!   closed-form [`run_hadfl`](crate::driver::run_hadfl) and the actors
//!   of [`exec`](crate::exec);
//! - the *liveness monitor* is, in the closed form, the simulator's
//!   [`FaultPlan`](hadfl_simnet::FaultPlan), which `run_hadfl` asks
//!   directly; in the actors it is §III-D's timeouts: a device that
//!   misses the report deadline, or that a ring declares dead, is
//!   dropped;
//! - the *model manager* is, in the closed form, the
//!   [`backup_every`](crate::driver::SimOptions::backup_every)
//!   accounting: every that many rounds one device uploads the merged
//!   model, counted in [`HadflRun::backup_comm`](crate::driver::HadflRun::backup_comm).
//!   The actors take no backups.
//!
//! The coordinator is control-plane only: it receives tiny runtime
//! reports (versions, liveness) and sends tiny configuration messages.
//! Model parameters never flow through it during training — the
//! decentralization property the communication-volume experiment
//! verifies — except for the model manager's periodic *backup* uploads,
//! which the paper describes and which are accounted separately.

use hadfl_simnet::DeviceId;
use hadfl_telemetry::EventKind;
use hadfl_tensor::SeedStream;
use serde::{Deserialize, Serialize};

use crate::config::HadflConfig;
use crate::error::HadflError;
use crate::predict::VersionPredictor;
use crate::select::{select_devices, selection_weights, SelectionPolicy};
use crate::topology::Ring;

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
        Ok(RuntimeSupervisor {
            predictors: vec![VersionPredictor::new(alpha)?; devices],
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
        self.predictors[device].forecast(1)
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
