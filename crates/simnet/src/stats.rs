use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::DeviceId;

/// One end of a simulated transfer: a device or the central server /
/// cloud coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Endpoint {
    /// A training device.
    Device(DeviceId),
    /// The central parameter server (baselines) or cloud coordinator
    /// (HADFL control plane).
    Server,
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Device(d) => write!(f, "{d}"),
            Endpoint::Server => write!(f, "server"),
        }
    }
}

/// Communication accounting for a simulation run.
///
/// Every transfer is recorded with its endpoints and size, so the paper's
/// volume claims can be checked exactly: centralized FL moves
/// `2·M·K·rounds` through the server while HADFL's server volume from
/// *model* traffic is zero (§II-B, §III-D).
///
/// # Example
///
/// ```
/// use hadfl_simnet::{DeviceId, Endpoint, NetStats};
///
/// let mut stats = NetStats::new();
/// stats.record(Endpoint::Device(DeviceId(0)), Endpoint::Server, 1000);
/// stats.record(Endpoint::Server, Endpoint::Device(DeviceId(0)), 1000);
/// assert_eq!(stats.server_bytes(), 2000);
/// assert_eq!(stats.total_bytes(), 2000);
/// assert_eq!(stats.messages(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct NetStats {
    sent: BTreeMap<Endpoint, u64>,
    received: BTreeMap<Endpoint, u64>,
    messages: u64,
    total_bytes: u64,
}

impl NetStats {
    /// Creates empty counters.
    pub fn new() -> Self {
        NetStats::default()
    }

    /// Records one transfer of `bytes` from `from` to `to`.
    pub fn record(&mut self, from: Endpoint, to: Endpoint, bytes: u64) {
        *self.sent.entry(from).or_insert(0) += bytes;
        *self.received.entry(to).or_insert(0) += bytes;
        self.messages += 1;
        self.total_bytes += bytes;
    }

    /// Bytes sent by `endpoint`.
    pub fn sent_by(&self, endpoint: Endpoint) -> u64 {
        self.sent.get(&endpoint).copied().unwrap_or(0)
    }

    /// Bytes received by `endpoint`.
    pub fn received_by(&self, endpoint: Endpoint) -> u64 {
        self.received.get(&endpoint).copied().unwrap_or(0)
    }

    /// Bytes through the server in either direction — the centralized
    /// bottleneck the paper eliminates.
    pub fn server_bytes(&self) -> u64 {
        self.sent_by(Endpoint::Server) + self.received_by(Endpoint::Server)
    }

    /// Bytes sent plus received by a device.
    pub fn device_bytes(&self, device: DeviceId) -> u64 {
        self.sent_by(Endpoint::Device(device)) + self.received_by(Endpoint::Device(device))
    }

    /// Total bytes moved across all links.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total number of messages.
    pub fn messages(&self) -> u64 {
        self.messages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tracks_both_directions() {
        let mut s = NetStats::new();
        s.record(
            Endpoint::Device(DeviceId(0)),
            Endpoint::Device(DeviceId(1)),
            10,
        );
        assert_eq!(s.sent_by(Endpoint::Device(DeviceId(0))), 10);
        assert_eq!(s.received_by(Endpoint::Device(DeviceId(1))), 10);
        assert_eq!(s.device_bytes(DeviceId(0)), 10);
        assert_eq!(s.device_bytes(DeviceId(1)), 10);
        assert_eq!(s.server_bytes(), 0);
    }

    #[test]
    fn unknown_endpoints_report_zero() {
        let s = NetStats::new();
        assert_eq!(s.sent_by(Endpoint::Server), 0);
        assert_eq!(s.device_bytes(DeviceId(9)), 0);
    }

    #[test]
    fn display_names_endpoints() {
        assert_eq!(Endpoint::Server.to_string(), "server");
        assert_eq!(Endpoint::Device(DeviceId(2)).to_string(), "dev2");
    }
}
