//! Heterogeneous pairwise bandwidth (the paper's future work:
//! "optimize … taking into account heterogeneous network bandwidth").
//!
//! [`LinkModel`](crate::LinkModel) gives every pair the same cost;
//! [`BandwidthMatrix`] assigns each ordered device pair its own
//! bandwidth — racks, NUMA domains, or WAN segments — so ring *ordering*
//! starts to matter and the topology layer can optimize for it.

use serde::{Deserialize, Serialize};

use crate::error::SimError;
use crate::DeviceId;

/// Pairwise link bandwidths with a shared per-message latency.
///
/// # Example
///
/// ```
/// use hadfl_simnet::{BandwidthMatrix, DeviceId};
///
/// # fn main() -> Result<(), hadfl_simnet::SimError> {
/// let mut net = BandwidthMatrix::uniform(3, 100e-6, 8e9)?;
/// net.set(DeviceId(0), DeviceId(2), 1e6)?; // one slow directed link
/// assert!(net.transfer_time(DeviceId(0), DeviceId(2), 1_000_000)?
///     > net.transfer_time(DeviceId(0), DeviceId(1), 1_000_000)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandwidthMatrix {
    devices: usize,
    latency_secs: f64,
    /// Row-major `devices × devices`; `bw[i][j]` is the `i → j` rate in
    /// bytes/s. The diagonal is unused.
    bandwidth: Vec<f64>,
}

impl BandwidthMatrix {
    /// Creates a matrix where every pair shares one bandwidth.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for zero devices, negative
    /// latency, or a non-positive bandwidth.
    pub fn uniform(devices: usize, latency_secs: f64, bandwidth: f64) -> Result<Self, SimError> {
        if devices == 0 {
            return Err(SimError::InvalidParameter(
                "at least one device required".into(),
            ));
        }
        if !(latency_secs >= 0.0) || !latency_secs.is_finite() {
            return Err(SimError::InvalidParameter(format!(
                "invalid latency {latency_secs}"
            )));
        }
        Self::check_bw(bandwidth)?;
        Ok(BandwidthMatrix {
            devices,
            latency_secs,
            bandwidth: vec![bandwidth; devices * devices],
        })
    }

    /// A two-cluster topology: devices `0..split` and `split..n` enjoy
    /// `intra` bytes/s within their cluster but only `inter` across —
    /// racks joined by an oversubscribed uplink.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for degenerate arguments
    /// (`split` outside `1..devices`, bad rates).
    pub fn two_clusters(
        devices: usize,
        split: usize,
        latency_secs: f64,
        intra: f64,
        inter: f64,
    ) -> Result<Self, SimError> {
        if split == 0 || split >= devices {
            return Err(SimError::InvalidParameter(format!(
                "split {split} must be inside 1..{devices}"
            )));
        }
        let mut m = BandwidthMatrix::uniform(devices, latency_secs, intra)?;
        Self::check_bw(inter)?;
        for i in 0..devices {
            for j in 0..devices {
                if (i < split) != (j < split) {
                    m.bandwidth[i * devices + j] = inter;
                }
            }
        }
        Ok(m)
    }

    fn check_bw(bw: f64) -> Result<(), SimError> {
        if !(bw > 0.0) || !bw.is_finite() {
            return Err(SimError::InvalidParameter(format!(
                "invalid bandwidth {bw}"
            )));
        }
        Ok(())
    }

    fn check_pair(&self, from: DeviceId, to: DeviceId) -> Result<(), SimError> {
        for d in [from, to] {
            if d.index() >= self.devices {
                return Err(SimError::UnknownDevice {
                    index: d.index(),
                    devices: self.devices,
                });
            }
        }
        Ok(())
    }

    /// Number of devices.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Overrides one directed link's bandwidth.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownDevice`] or
    /// [`SimError::InvalidParameter`] for bad arguments.
    pub fn set(&mut self, from: DeviceId, to: DeviceId, bandwidth: f64) -> Result<(), SimError> {
        self.check_pair(from, to)?;
        Self::check_bw(bandwidth)?;
        self.bandwidth[from.index() * self.devices + to.index()] = bandwidth;
        Ok(())
    }

    /// The `from → to` bandwidth, bytes/s.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownDevice`] for an out-of-range device.
    pub fn bandwidth(&self, from: DeviceId, to: DeviceId) -> Result<f64, SimError> {
        self.check_pair(from, to)?;
        Ok(self.bandwidth[from.index() * self.devices + to.index()])
    }

    /// Time to move `bytes` from `from` to `to`, seconds.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownDevice`] for an out-of-range device.
    pub fn transfer_time(&self, from: DeviceId, to: DeviceId, bytes: u64) -> Result<f64, SimError> {
        Ok(self.latency_secs + bytes as f64 / self.bandwidth(from, to)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_matrix_is_symmetric_in_cost() {
        let m = BandwidthMatrix::uniform(3, 0.001, 1e6).unwrap();
        let a = m.transfer_time(DeviceId(0), DeviceId(1), 1000).unwrap();
        let b = m.transfer_time(DeviceId(1), DeviceId(0), 1000).unwrap();
        assert_eq!(a, b);
        assert!((a - (0.001 + 0.001)).abs() < 1e-12);
    }

    #[test]
    fn set_changes_one_direction_only() {
        let mut m = BandwidthMatrix::uniform(2, 0.0, 1e6).unwrap();
        m.set(DeviceId(0), DeviceId(1), 1e3).unwrap();
        assert_eq!(m.bandwidth(DeviceId(0), DeviceId(1)).unwrap(), 1e3);
        assert_eq!(m.bandwidth(DeviceId(1), DeviceId(0)).unwrap(), 1e6);
    }

    #[test]
    fn two_clusters_split_bandwidths() {
        let m = BandwidthMatrix::two_clusters(4, 2, 0.0, 1e9, 1e6).unwrap();
        assert_eq!(m.bandwidth(DeviceId(0), DeviceId(1)).unwrap(), 1e9);
        assert_eq!(m.bandwidth(DeviceId(2), DeviceId(3)).unwrap(), 1e9);
        assert_eq!(m.bandwidth(DeviceId(1), DeviceId(2)).unwrap(), 1e6);
        assert_eq!(m.bandwidth(DeviceId(3), DeviceId(0)).unwrap(), 1e6);
    }

    #[test]
    fn validates_arguments() {
        assert!(BandwidthMatrix::uniform(0, 0.0, 1e6).is_err());
        assert!(BandwidthMatrix::uniform(2, -1.0, 1e6).is_err());
        assert!(BandwidthMatrix::uniform(2, 0.0, 0.0).is_err());
        assert!(BandwidthMatrix::two_clusters(4, 0, 0.0, 1e9, 1e6).is_err());
        assert!(BandwidthMatrix::two_clusters(4, 4, 0.0, 1e9, 1e6).is_err());
        let m = BandwidthMatrix::uniform(2, 0.0, 1e6).unwrap();
        assert!(m.bandwidth(DeviceId(0), DeviceId(5)).is_err());
    }
}
