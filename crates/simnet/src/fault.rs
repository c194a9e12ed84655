use serde::{Deserialize, Serialize};

use crate::error::SimError;
use crate::time::VirtualTime;
use crate::DeviceId;

/// One scheduled disconnection window of a device.
///
/// The device is unreachable in `[from, until)`; an open-ended outage
/// (crash with no recovery) uses `until = None`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Outage {
    /// The device that disconnects.
    pub device: DeviceId,
    /// Start of the outage (inclusive).
    pub from: VirtualTime,
    /// End of the outage (exclusive); `None` means it never reconnects.
    pub until: Option<VirtualTime>,
}

impl Outage {
    /// A bounded outage window.
    pub fn window(device: DeviceId, from: VirtualTime, until: VirtualTime) -> Self {
        Outage {
            device,
            from,
            until: Some(until),
        }
    }

    /// A permanent crash at `from`.
    pub fn crash(device: DeviceId, from: VirtualTime) -> Self {
        Outage {
            device,
            from,
            until: None,
        }
    }

    fn covers(&self, t: VirtualTime) -> bool {
        t >= self.from && self.until.is_none_or(|u| t < u)
    }
}

/// A schedule of device disconnections, queried by the coordinator's
/// liveness monitor and by ring neighbours during synchronization.
///
/// This is the substitute for the paper's "unstable network connection":
/// the fault-tolerance experiments inject outages here and assert that
/// the ring bypass (§III-D) keeps training alive.
///
/// # Example
///
/// ```
/// use hadfl_simnet::{DeviceId, FaultPlan, Outage, VirtualTime};
///
/// # fn main() -> Result<(), hadfl_simnet::SimError> {
/// let plan = FaultPlan::new(vec![Outage::window(
///     DeviceId(2),
///     VirtualTime::from_secs(1.0),
///     VirtualTime::from_secs(2.0),
/// )])?;
/// assert!(plan.is_up(DeviceId(2), VirtualTime::from_secs(0.5)));
/// assert!(!plan.is_up(DeviceId(2), VirtualTime::from_secs(1.5)));
/// assert!(plan.is_up(DeviceId(2), VirtualTime::from_secs(2.0)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultPlan {
    outages: Vec<Outage>,
}

impl FaultPlan {
    /// Creates a plan from outage windows.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidOutage`] if a window ends at or before
    /// it starts.
    pub fn new(outages: Vec<Outage>) -> Result<Self, SimError> {
        for o in &outages {
            if let Some(u) = o.until {
                if u <= o.from {
                    return Err(SimError::InvalidOutage(format!(
                        "{} outage ends at {u} before it starts at {}",
                        o.device, o.from
                    )));
                }
            }
        }
        Ok(FaultPlan { outages })
    }

    /// A plan with no outages.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// The configured outages.
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// Is `device` reachable at time `t`?
    pub fn is_up(&self, device: DeviceId, t: VirtualTime) -> bool {
        !self
            .outages
            .iter()
            .any(|o| o.device == device && o.covers(t))
    }

    /// All devices of `0..n` that are reachable at `t`.
    pub fn available(&self, n: usize, t: VirtualTime) -> Vec<DeviceId> {
        (0..n).map(DeviceId).filter(|&d| self.is_up(d, t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> VirtualTime {
        VirtualTime::from_secs(s)
    }

    #[test]
    fn empty_plan_everything_up() {
        let plan = FaultPlan::none();
        assert!(plan.is_up(DeviceId(0), t(100.0)));
        assert_eq!(plan.available(3, t(5.0)).len(), 3);
    }

    #[test]
    fn window_boundaries_are_half_open() {
        let plan = FaultPlan::new(vec![Outage::window(DeviceId(0), t(1.0), t(2.0))]).unwrap();
        assert!(plan.is_up(DeviceId(0), t(0.999)));
        assert!(!plan.is_up(DeviceId(0), t(1.0)));
        assert!(!plan.is_up(DeviceId(0), t(1.999)));
        assert!(plan.is_up(DeviceId(0), t(2.0)));
    }

    #[test]
    fn crash_never_recovers() {
        let plan = FaultPlan::new(vec![Outage::crash(DeviceId(1), t(5.0))]).unwrap();
        assert!(plan.is_up(DeviceId(1), t(4.9)));
        assert!(!plan.is_up(DeviceId(1), t(5.0)));
        assert!(!plan.is_up(DeviceId(1), t(1e9)));
    }

    #[test]
    fn available_filters_down_devices() {
        let plan = FaultPlan::new(vec![Outage::window(DeviceId(1), t(0.0), t(10.0))]).unwrap();
        assert_eq!(plan.available(3, t(5.0)), vec![DeviceId(0), DeviceId(2)]);
    }

    #[test]
    fn rejects_inverted_window() {
        assert!(FaultPlan::new(vec![Outage::window(DeviceId(0), t(2.0), t(1.0))]).is_err());
        assert!(FaultPlan::new(vec![Outage::window(DeviceId(0), t(2.0), t(2.0))]).is_err());
    }

    #[test]
    fn overlapping_outages_both_apply() {
        let plan = FaultPlan::new(vec![
            Outage::window(DeviceId(0), t(1.0), t(3.0)),
            Outage::window(DeviceId(0), t(2.0), t(4.0)),
        ])
        .unwrap();
        assert!(!plan.is_up(DeviceId(0), t(3.5)));
        assert!(plan.is_up(DeviceId(0), t(4.0)));
    }
}
