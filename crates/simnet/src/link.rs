use serde::{Deserialize, Serialize};

use crate::error::SimError;

/// A point-to-point link cost model: fixed latency plus
/// bytes-over-bandwidth serialization time.
///
/// The paper's testbed connects the GPUs over PCIe 3.0 x8 (~8 GB/s); the
/// default mirrors that. Federated deployments would use much slower WAN
/// links — the model is the same, only the constants change.
///
/// # Example
///
/// ```
/// use hadfl_simnet::LinkModel;
///
/// # fn main() -> Result<(), hadfl_simnet::SimError> {
/// let link = LinkModel::new(100e-6, 8e9)?;
/// // 8 MB over 8 GB/s plus 100 µs latency.
/// let t = link.transfer_time(8_000_000);
/// assert!((t - 0.0011).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    latency_secs: f64,
    bandwidth_bytes_per_sec: f64,
}

impl LinkModel {
    /// Creates a link model.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if latency is negative or
    /// bandwidth is not positive (both must be finite).
    pub fn new(latency_secs: f64, bandwidth_bytes_per_sec: f64) -> Result<Self, SimError> {
        if !(latency_secs >= 0.0) || !latency_secs.is_finite() {
            return Err(SimError::InvalidParameter(format!(
                "latency must be non-negative and finite, got {latency_secs}"
            )));
        }
        if !(bandwidth_bytes_per_sec > 0.0) || !bandwidth_bytes_per_sec.is_finite() {
            return Err(SimError::InvalidParameter(format!(
                "bandwidth must be positive and finite, got {bandwidth_bytes_per_sec}"
            )));
        }
        Ok(LinkModel {
            latency_secs,
            bandwidth_bytes_per_sec,
        })
    }

    /// A PCIe-3.0-x8-like link: 100 µs latency, 8 GB/s — the paper's
    /// testbed interconnect.
    pub fn pcie3_x8() -> Self {
        LinkModel {
            latency_secs: 100e-6,
            bandwidth_bytes_per_sec: 8e9,
        }
    }

    /// One-way latency, seconds.
    pub fn latency_secs(&self) -> f64 {
        self.latency_secs
    }

    /// Bandwidth, bytes per second.
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        self.bandwidth_bytes_per_sec
    }

    /// Time to move `bytes` over this link, seconds.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency_secs + bytes as f64 / self.bandwidth_bytes_per_sec
    }
}

impl Default for LinkModel {
    /// The paper's testbed link ([`LinkModel::pcie3_x8`]).
    fn default() -> Self {
        LinkModel::pcie3_x8()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_affine_in_bytes() {
        let l = LinkModel::new(0.001, 1000.0).unwrap();
        assert!((l.transfer_time(0) - 0.001).abs() < 1e-12);
        assert!((l.transfer_time(500) - 0.501).abs() < 1e-12);
        assert!((l.transfer_time(1000) - 1.001).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(LinkModel::new(-0.1, 100.0).is_err());
        assert!(LinkModel::new(0.0, 0.0).is_err());
        assert!(LinkModel::new(f64::NAN, 100.0).is_err());
        assert!(LinkModel::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn default_is_pcie() {
        assert_eq!(LinkModel::default(), LinkModel::pcie3_x8());
    }

    #[test]
    fn zero_latency_link_is_pure_bandwidth() {
        let l = LinkModel::new(0.0, 2000.0).unwrap();
        assert!((l.transfer_time(1000) - 0.5).abs() < 1e-12);
    }
}
