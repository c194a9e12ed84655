//! Analytic schedule timelines for the paper's Fig. 1: how distributed
//! training, FedAvg, and HADFL occupy heterogeneous devices over one
//! hyperperiod.
//!
//! These are pure time-accounting models (no actual training) used by the
//! `fig1_schedule` harness to regenerate the comparison picture: under a
//! 4:2:1 power ratio, synchronous schemes leave the fast devices idle
//! while HADFL keeps everyone busy with heterogeneity-aware local steps.
//! Step times come from the [`ComputeModel`] and HADFL's window from
//! [`Strategy::derive`]; every scheme has one round shape: compute, idle
//! until the slowest device is done, sync.

use hadfl_simnet::{ComputeModel, DeviceId};
use serde::{Deserialize, Serialize};

use crate::strategy::Strategy;

/// What a device is doing during one timeline segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activity {
    /// Computing local steps.
    Compute,
    /// Blocked waiting for stragglers (the waste HADFL removes).
    Idle,
    /// Communicating (synchronization).
    Sync,
}

/// One segment of a device's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Segment start, seconds.
    pub start: f64,
    /// Segment end, seconds.
    pub end: f64,
    /// What the device is doing.
    pub activity: Activity,
}

impl Segment {
    fn new(start: f64, end: f64, activity: Activity) -> Self {
        Segment {
            start,
            end,
            activity,
        }
    }

    /// Segment duration, seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A per-device schedule timeline for one scheme.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    /// Scheme name.
    pub scheme: String,
    /// `timeline[i]` is device `i`'s segments, in time order.
    pub devices: Vec<Vec<Segment>>,
}

impl Timeline {
    /// Fraction of the makespan each device spends computing.
    pub fn utilization(&self) -> Vec<f64> {
        let makespan = self.makespan();
        self.devices
            .iter()
            .map(|segs| {
                if makespan == 0.0 {
                    return 0.0;
                }
                segs.iter()
                    .filter(|s| s.activity == Activity::Compute)
                    .map(Segment::duration)
                    .sum::<f64>()
                    / makespan
            })
            .collect()
    }

    /// The end of the latest segment.
    pub fn makespan(&self) -> f64 {
        self.devices
            .iter()
            .flat_map(|segs| segs.last())
            .map(|s| s.end)
            .fold(0.0, f64::max)
    }

    /// Total local steps computed, per device, at `compute`'s nominal
    /// step times (devices `compute` does not model are left out).
    pub fn steps_per_device(&self, compute: &ComputeModel) -> Vec<usize> {
        self.devices
            .iter()
            .enumerate()
            .map_while(|(i, segs)| {
                let step = compute.nominal_step_time(DeviceId(i)).ok()?;
                let busy: f64 = segs
                    .iter()
                    .filter(|s| s.activity == Activity::Compute)
                    .map(Segment::duration)
                    .sum();
                Some((busy / step).round() as usize)
            })
            .collect()
    }
}

/// `rounds` rounds of one shape: device `i` computes for `busy[i]`
/// seconds, idles until the slowest device is done, then syncs for
/// `sync_secs`.
fn timeline(scheme: &str, busy: &[f64], sync_secs: f64, rounds: usize) -> Timeline {
    let slowest = busy.iter().copied().fold(0.0, f64::max);
    let mut devices = vec![Vec::new(); busy.len()];
    let mut t = 0.0;
    for _ in 0..rounds {
        for (segs, &b) in devices.iter_mut().zip(busy) {
            segs.push(Segment::new(t, t + b, Activity::Compute));
            if b < slowest {
                segs.push(Segment::new(t + b, t + slowest, Activity::Idle));
            }
            segs.push(Segment::new(
                t + slowest,
                t + slowest + sync_secs,
                Activity::Sync,
            ));
        }
        t += slowest + sync_secs;
    }
    Timeline {
        scheme: scheme.into(),
        devices,
    }
}

/// A synchronous scheme on `compute`'s devices: every round each device
/// computes `local_steps` steps, waits for the slowest, and syncs.
/// Distributed training (a ring all-reduce every step) is
/// `local_steps = 1`; FedAvg aggregates every `local_steps` steps.
pub fn synchronous_timeline(
    scheme: &str,
    compute: &ComputeModel,
    local_steps: usize,
    sync_secs: f64,
    rounds: usize,
) -> Timeline {
    let busy: Vec<f64> = (0..compute.devices())
        .map(|i| {
            let step = compute.nominal_step_time(DeviceId(i));
            step.expect("modelled device") * local_steps as f64
        })
        .collect();
    timeline(scheme, &busy, sync_secs, rounds)
}

/// HADFL: every device computes for the whole sync window
/// ([`Strategy::window_secs`]), then synchronizes — no idle segments.
pub fn hadfl_timeline(strategy: &Strategy, sync_secs: f64, rounds: usize) -> Timeline {
    let busy = vec![strategy.window_secs; strategy.devices()];
    timeline("hadfl", &busy, sync_secs, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 1's 4:2:1 cluster with a 40 ms power-1 step.
    fn fig1() -> ComputeModel {
        ComputeModel::new(0.04, &[4.0, 2.0, 1.0]).unwrap()
    }

    fn hadfl(sync_secs: f64, rounds: usize) -> Timeline {
        let strategy = Strategy::derive(&fig1(), &[10, 10, 10], 1).unwrap();
        hadfl_timeline(&strategy, sync_secs, rounds)
    }

    #[test]
    fn distributed_fast_devices_idle_most() {
        let tl = synchronous_timeline("distributed_training", &fig1(), 1, 0.001, 5);
        let util = tl.utilization();
        // device 2 (power 1) nearly fully busy; device 0 (power 4) ~1/4
        assert!(util[2] > util[0] * 3.0, "{util:?}");
    }

    #[test]
    fn hadfl_has_no_idle_segments() {
        let tl = hadfl(0.001, 3);
        for segs in &tl.devices {
            assert!(segs.iter().all(|s| s.activity != Activity::Idle));
        }
        let util = tl.utilization();
        assert!(util.iter().all(|&u| u > 0.9), "{util:?}");
    }

    #[test]
    fn hadfl_steps_scale_with_power() {
        let steps = hadfl(0.0, 1).steps_per_device(&fig1());
        // 4:2:1 power ratio ⇒ 4:2:1 steps in the same window (Fig. 1)
        assert_eq!(steps[0], 4 * steps[2]);
        assert_eq!(steps[1], 2 * steps[2]);
    }

    #[test]
    fn fedavg_idles_less_than_distributed_per_sync() {
        // Same wall budget: FedAvg syncs once per E steps, distributed every
        // step, so distributed pays sync more often.
        let dist = synchronous_timeline("distributed_training", &fig1(), 1, 0.002, 10);
        let fed = synchronous_timeline("decentralized_fedavg", &fig1(), 10, 0.002, 1);
        let sync_time = |tl: &Timeline| -> f64 {
            tl.devices[0]
                .iter()
                .filter(|s| s.activity == Activity::Sync)
                .map(Segment::duration)
                .sum()
        };
        assert!(sync_time(&dist) > sync_time(&fed) * 5.0);
    }

    #[test]
    fn makespan_matches_last_segment() {
        let tl = synchronous_timeline("distributed_training", &fig1(), 1, 0.001, 2);
        assert!((tl.makespan() - 2.0 * (0.04 + 0.001)).abs() < 1e-12);
    }
}
