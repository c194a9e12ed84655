//! Virtual-time cost models of a heterogeneous cluster for the HADFL
//! reproduction.
//!
//! The paper evaluates on four V100 GPUs whose heterogeneity is *itself
//! simulated* with `sleep()` calls. This crate moves that simulation into
//! virtual time ([`VirtualTime`]). It holds what a driver charges time
//! and bytes against, not a scheduler — the closed-form driver is a
//! `for` loop and `run_virtual` keeps its own deadlines: devices have
//! computing-power factors ([`ComputeModel`]), point-to-point transfers
//! cost latency plus bytes-over-bandwidth ([`LinkModel`], pairwise
//! [`BandwidthMatrix`]), devices disconnect and reconnect on a schedule
//! ([`FaultPlan`]), and every byte moved is accounted ([`NetStats`]) so
//! the communication-volume claims of the paper (§II-B, §III-D) can be
//! checked exactly.
//!
//! # Example
//!
//! ```
//! use hadfl_simnet::{ComputeModel, DeviceId, VirtualTime};
//!
//! # fn main() -> Result<(), hadfl_simnet::SimError> {
//! // Power ratio [2, 1]: device 0 is twice as fast.
//! let compute = ComputeModel::new(0.010, &[2.0, 1.0])?;
//! let done: Vec<VirtualTime> = (0..2)
//!     .map(|dev| Ok(VirtualTime::ZERO.after(compute.step_time(DeviceId(dev), None)?)))
//!     .collect::<Result<_, hadfl_simnet::SimError>>()?;
//! assert!(done[0] < done[1]); // the fast device finishes first
//! assert!((done[0].as_secs() - 0.005).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

// `!(x > 0)`-style guards are deliberate: unlike `x <= 0` they also
// reject NaN, which is exactly what the validators want.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
mod bandwidth;
mod compute;
mod error;
mod fault;
mod link;
mod stats;
mod time;

pub use bandwidth::BandwidthMatrix;
pub use compute::{ComputeModel, Jitter};
pub use error::SimError;
pub use fault::{FaultPlan, Outage};
pub use link::LinkModel;
pub use stats::{Endpoint, NetStats};
pub use time::VirtualTime;

use serde::{Deserialize, Serialize};

/// Identifier of a simulated device (dense indices from zero).
///
/// # Example
///
/// ```
/// use hadfl_simnet::DeviceId;
///
/// let d = DeviceId(3);
/// assert_eq!(d.index(), 3);
/// assert_eq!(d.to_string(), "dev3");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct DeviceId(pub usize);

impl DeviceId {
    /// The dense index of this device.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

impl From<usize> for DeviceId {
    fn from(index: usize) -> Self {
        DeviceId(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_id_roundtrips() {
        let d = DeviceId::from(7usize);
        assert_eq!(d.index(), 7);
        assert_eq!(format!("{d}"), "dev7");
    }

    #[test]
    fn device_ids_order_by_index() {
        assert!(DeviceId(1) < DeviceId(2));
    }
}
