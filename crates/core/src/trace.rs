//! Experiment traces: the per-round records every training scheme emits,
//! from which all of the paper's tables and figures are regenerated.

use hadfl_simnet::{DeviceId, NetStats};
use hadfl_telemetry::{Event, EventKind};
use serde::{Deserialize, Serialize};

/// One synchronization round's (or epoch's) worth of measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round (HADFL/FedAvg) or epoch (distributed training) index, from 1.
    pub round: usize,
    /// Virtual time at the end of the round, seconds.
    pub time_secs: f64,
    /// Epochs-equivalent of data processed so far across all devices
    /// (total samples / training-set size).
    pub epoch_equiv: f64,
    /// Mean training loss across devices during this round.
    pub train_loss: f32,
    /// Test accuracy of the round's reference model, in `[0, 1]`.
    pub test_accuracy: f32,
    /// Devices selected for aggregation this round (empty when the scheme
    /// synchronizes everyone).
    pub selected: Vec<usize>,
    /// Per-device cumulative parameter versions (local update counts).
    pub versions: Vec<f64>,
}

/// Serializable summary of a run's communication accounting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct CommSummary {
    /// Bytes through the central server/coordinator (both directions).
    pub server_bytes: u64,
    /// Bytes sent+received per device, indexed by device.
    pub device_bytes: Vec<u64>,
    /// Total bytes over all links.
    pub total_bytes: u64,
    /// Total message count.
    pub messages: u64,
}

impl CommSummary {
    /// Summarizes raw [`NetStats`] for a `devices`-device run.
    pub fn from_stats(stats: &NetStats, devices: usize) -> Self {
        CommSummary {
            server_bytes: stats.server_bytes(),
            device_bytes: (0..devices)
                .map(|i| stats.device_bytes(DeviceId(i)))
                .collect(),
            total_bytes: stats.total_bytes(),
            messages: stats.messages(),
        }
    }

    /// Bytes sent or received by the busiest device.
    pub fn max_device_bytes(&self) -> u64 {
        self.device_bytes.iter().copied().max().unwrap_or(0)
    }

    /// Summarizes a telemetry event stream for a `devices`-device run:
    /// every [`EventKind::FrameSent`] counts once, endpoints `0..devices`
    /// are devices and `devices` itself is the coordinator/server — the
    /// same convention [`crate::transport::coordinator_id`] uses. A
    /// port emits one `FrameSent` per frame it charges to its ledger,
    /// so over an instrumented cluster's stream this reproduces
    /// [`CommSummary::from_stats`] of that ledger exactly.
    pub fn from_events(events: &[Event], devices: usize) -> Self {
        let mut summary = CommSummary {
            device_bytes: vec![0; devices],
            ..CommSummary::default()
        };
        let server = devices as u32;
        for event in events {
            let EventKind::FrameSent {
                src, dst, bytes, ..
            } = &event.kind
            else {
                continue;
            };
            summary.total_bytes += bytes;
            summary.messages += 1;
            for &end in &[*src, *dst] {
                if end == server {
                    summary.server_bytes += bytes;
                } else if let Some(slot) = summary.device_bytes.get_mut(end as usize) {
                    *slot += bytes;
                }
            }
        }
        summary
    }
}

/// A complete training run: scheme name, per-round records, and
/// communication accounting — the unit the bench harness serializes.
///
/// # Example
///
/// ```
/// use hadfl::trace::{RoundRecord, Trace};
///
/// let mut trace = Trace::new("hadfl", 4, 1000);
/// trace.push(RoundRecord {
///     round: 1,
///     time_secs: 2.0,
///     epoch_equiv: 1.0,
///     train_loss: 2.3,
///     test_accuracy: 0.4,
///     selected: vec![0, 2],
///     versions: vec![10.0, 5.0, 5.0, 2.0],
/// });
/// assert_eq!(trace.max_accuracy(), 0.4);
/// assert_eq!(trace.time_to_accuracy(0.4), Some(2.0));
/// assert_eq!(trace.time_to_accuracy(0.9), None);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Scheme name (`"hadfl"`, `"decentralized_fedavg"`,
    /// `"distributed_training"`, …).
    pub scheme: String,
    /// Number of devices in the run.
    pub devices: usize,
    /// Model size in bytes (`M` in the paper's volume formulas).
    pub model_bytes: u64,
    /// Per-round records, in round order.
    pub records: Vec<RoundRecord>,
    /// Communication accounting for the whole run.
    pub comm: CommSummary,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new(scheme: &str, devices: usize, model_bytes: u64) -> Self {
        Trace {
            scheme: scheme.to_string(),
            devices,
            model_bytes,
            records: Vec::new(),
            comm: CommSummary::default(),
        }
    }

    /// Appends a round record.
    pub fn push(&mut self, record: RoundRecord) {
        self.records.push(record);
    }

    /// Stores the run's final communication summary.
    pub fn set_comm(&mut self, stats: &NetStats) {
        self.comm = CommSummary::from_stats(stats, self.devices);
    }

    /// The maximum test accuracy reached (0 for an empty trace).
    pub fn max_accuracy(&self) -> f32 {
        self.records
            .iter()
            .map(|r| r.test_accuracy)
            .fold(0.0, f32::max)
    }

    /// The first virtual time at which `target` accuracy was reached.
    pub fn time_to_accuracy(&self, target: f32) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.test_accuracy >= target)
            .map(|r| r.time_secs)
    }

    /// Table I's metric: the maximum accuracy and the first time it was
    /// reached. `None` for an empty trace.
    pub fn time_to_max_accuracy(&self) -> Option<(f32, f64)> {
        let max = self.max_accuracy();
        if self.records.is_empty() {
            return None;
        }
        self.time_to_accuracy(max).map(|t| (max, t))
    }

    /// The final record, if any.
    pub fn last(&self) -> Option<&RoundRecord> {
        self.records.last()
    }

    /// `(time, test_accuracy)` series — Fig. 3 (c)(f).
    pub fn accuracy_vs_time(&self) -> Vec<(f64, f32)> {
        self.records
            .iter()
            .map(|r| (r.time_secs, r.test_accuracy))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadfl_simnet::Endpoint;

    fn record(round: usize, time: f64, acc: f32) -> RoundRecord {
        RoundRecord {
            round,
            time_secs: time,
            epoch_equiv: round as f64,
            train_loss: 1.0 / round as f32,
            test_accuracy: acc,
            selected: vec![],
            versions: vec![],
        }
    }

    #[test]
    fn empty_trace_has_no_milestones() {
        let t = Trace::new("x", 4, 100);
        assert_eq!(t.max_accuracy(), 0.0);
        assert_eq!(t.time_to_accuracy(0.1), None);
        assert_eq!(t.time_to_max_accuracy(), None);
        assert!(t.last().is_none());
    }

    #[test]
    fn time_to_max_accuracy_finds_first_hit() {
        let mut t = Trace::new("x", 4, 100);
        t.push(record(1, 1.0, 0.5));
        t.push(record(2, 2.0, 0.9));
        t.push(record(3, 3.0, 0.7));
        t.push(record(4, 4.0, 0.9));
        assert_eq!(t.time_to_max_accuracy(), Some((0.9, 2.0)));
    }

    #[test]
    fn series_extract_expected_axes() {
        let mut t = Trace::new("x", 2, 100);
        t.push(record(1, 1.5, 0.3));
        t.push(record(2, 3.0, 0.6));
        assert_eq!(t.accuracy_vs_time(), vec![(1.5, 0.3), (3.0, 0.6)]);
    }

    #[test]
    fn comm_summary_reads_stats() {
        let mut stats = NetStats::new();
        stats.record(Endpoint::Device(DeviceId(0)), Endpoint::Server, 10);
        stats.record(
            Endpoint::Device(DeviceId(1)),
            Endpoint::Device(DeviceId(0)),
            6,
        );
        let s = CommSummary::from_stats(&stats, 2);
        assert_eq!(s.server_bytes, 10);
        assert_eq!(s.device_bytes, vec![16, 6]);
        assert_eq!(s.max_device_bytes(), 16);
        assert_eq!(s.messages, 2);
    }

    #[test]
    fn trace_serializes_roundtrip() {
        let mut t = Trace::new("hadfl", 1, 10);
        t.push(record(1, 1.0, 0.2));
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
