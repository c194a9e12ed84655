//! Experiment traces: the per-round records every training scheme's
//! event stream folds into, from which all of the paper's tables and
//! figures are regenerated.

use std::collections::BTreeMap;

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
/// It is a fold over the run's event stream ([`Trace::from_events`]).
///
/// # Example
///
/// ```
/// use std::time::Duration;
///
/// use hadfl::trace::Trace;
/// use hadfl_telemetry::{EventKind, RingBufferSink, Telemetry};
///
/// let events = RingBufferSink::new(16);
/// let tel = Telemetry::new(4, vec![Box::new(events.clone())]);
/// tel.emit(
///     Duration::from_secs(2),
///     EventKind::Evaluated {
///         round: 1,
///         time_secs: 2.0,
///         epoch_equiv: 1.0,
///         train_loss: 2.3,
///         test_accuracy: 0.4,
///         versions: vec![10.0, 5.0, 5.0, 2.0],
///     },
/// );
/// let trace = Trace::from_events("hadfl", 4, 1000, &events.snapshot());
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
    /// Folds a `devices`-device run's events into its trace: one
    /// [`RoundRecord`] per [`EventKind::Evaluated`], in stream order,
    /// whose `selected` is the concatenation of that round's
    /// [`EventKind::RoundPlanned`] selections (empty when nothing was
    /// planned), and `comm` from [`CommSummary::from_events`].
    pub fn from_events(scheme: &str, devices: usize, model_bytes: u64, events: &[Event]) -> Self {
        let mut plans: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        let mut records = Vec::new();
        for event in events {
            match &event.kind {
                EventKind::RoundPlanned {
                    round, selected, ..
                } => {
                    let ids = selected.iter().map(|&d| d as usize);
                    plans.entry(*round).or_default().extend(ids);
                }
                EventKind::Evaluated {
                    round,
                    time_secs,
                    epoch_equiv,
                    train_loss,
                    test_accuracy,
                    versions,
                } => records.push(RoundRecord {
                    round: *round as usize,
                    time_secs: *time_secs,
                    epoch_equiv: *epoch_equiv,
                    train_loss: *train_loss,
                    test_accuracy: *test_accuracy,
                    selected: plans.remove(round).unwrap_or_default(),
                    versions: versions.clone(),
                }),
                _ => {}
            }
        }
        Trace {
            scheme: scheme.to_string(),
            devices,
            model_bytes,
            records,
            comm: CommSummary::from_events(events, devices),
        }
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
    use hadfl_telemetry::SCHEMA_VERSION;

    /// Stamps `kinds` as one node's stream, in order.
    fn stream(kinds: Vec<EventKind>) -> Vec<Event> {
        let event = |(seq, kind)| Event {
            v: SCHEMA_VERSION,
            seq: seq as u64,
            node: 0,
            t_us: 0,
            lam: 0,
            kind,
        };
        kinds.into_iter().enumerate().map(event).collect()
    }

    fn evaluated(round: u32, time: f64, acc: f32) -> EventKind {
        EventKind::Evaluated {
            round,
            time_secs: time,
            epoch_equiv: f64::from(round),
            train_loss: 1.0 / round as f32,
            test_accuracy: acc,
            versions: vec![],
        }
    }

    fn trace(points: &[(f64, f32)]) -> Trace {
        let rounds = (1..).zip(points);
        let kinds = rounds.map(|(r, &(time, acc))| evaluated(r, time, acc));
        Trace::from_events("x", 4, 100, &stream(kinds.collect()))
    }

    #[test]
    fn empty_trace_has_no_milestones() {
        let t = trace(&[]);
        assert_eq!(t.max_accuracy(), 0.0);
        assert_eq!(t.time_to_accuracy(0.1), None);
        assert_eq!(t.time_to_max_accuracy(), None);
        assert!(t.last().is_none());
        assert_eq!(t.comm, CommSummary::from_stats(&NetStats::new(), 4));
    }

    #[test]
    fn time_to_max_accuracy_finds_first_hit() {
        let t = trace(&[(1.0, 0.5), (2.0, 0.9), (3.0, 0.7), (4.0, 0.9)]);
        assert_eq!(t.time_to_max_accuracy(), Some((0.9, 2.0)));
    }

    #[test]
    fn series_extract_expected_axes() {
        let t = trace(&[(1.5, 0.3), (3.0, 0.6)]);
        assert_eq!(t.accuracy_vs_time(), vec![(1.5, 0.3), (3.0, 0.6)]);
    }

    /// Two rounds of a 3-device run whose device 2 is down in round 2:
    /// each `Evaluated` is one record, its selection is its round's
    /// plan, and the ledger counts every `FrameSent` — to and from the
    /// server (node 3) and between devices — and nothing else.
    #[test]
    fn from_events_folds_records_and_the_ledger() {
        let planned = |round, available: &[u32], selected: &[u32]| EventKind::RoundPlanned {
            round,
            available: available.to_vec(),
            versions: vec![1.0; available.len()],
            probabilities: vec![],
            selected: selected.to_vec(),
            unselected: vec![],
            broadcaster: selected[0],
        };
        let frames = [
            vec![
                (0, 3, 16),
                (3, 0, 16),
                (0, 2, 100),
                (2, 0, 100),
                (0, 1, 200),
            ],
            vec![(1, 3, 16), (3, 1, 16), (0, 1, 100), (1, 0, 100)],
        ];
        let sent = |&(src, dst, bytes)| EventKind::FrameSent {
            src,
            dst,
            bytes,
            kind: "x".into(),
            lamport: 0,
        };
        let mut kinds = vec![planned(1, &[0, 1, 2], &[0, 2])];
        kinds.extend(frames[0].iter().map(sent));
        kinds.push(EventKind::FrameReceived {
            src: 0,
            dst: 2,
            bytes: 100,
            kind: "x".into(),
            lamport: 0,
        });
        kinds.push(EventKind::Evaluated {
            round: 1,
            time_secs: 0.1 + 0.2,
            epoch_equiv: 1.0,
            train_loss: 2.0,
            test_accuracy: 0.25,
            versions: vec![8.0, 4.0, 2.0],
        });
        kinds.push(planned(2, &[0, 1], &[1, 0]));
        kinds.extend(frames[1].iter().map(sent));
        kinds.push(EventKind::Evaluated {
            round: 2,
            time_secs: 1.25,
            epoch_equiv: 2.0,
            train_loss: f32::NAN,
            test_accuracy: 0.5,
            versions: vec![16.0, 8.0, 2.0],
        });
        let t = Trace::from_events("hadfl", 3, 100, &stream(kinds));

        assert_eq!(
            (t.scheme.as_str(), t.devices, t.model_bytes),
            ("hadfl", 3, 100)
        );
        assert_eq!(t.records.len(), 2);
        let (r1, r2) = (&t.records[0], &t.records[1]);
        assert_eq!(
            (r1.round, r1.time_secs, r1.epoch_equiv),
            (1, 0.1 + 0.2, 1.0)
        );
        assert_eq!((r1.train_loss, r1.test_accuracy), (2.0, 0.25));
        assert_eq!(r1.selected, vec![0, 2]);
        assert_eq!(r1.versions, vec![8.0, 4.0, 2.0]);
        assert_eq!((r2.round, r2.time_secs, r2.test_accuracy), (2, 1.25, 0.5));
        assert!(r2.train_loss.is_nan());
        assert_eq!(r2.selected, vec![1, 0]);
        assert_eq!(r2.versions, vec![16.0, 8.0, 2.0]);

        let expected = CommSummary {
            server_bytes: 64,
            device_bytes: vec![632, 432, 200],
            total_bytes: 664,
            messages: 9,
        };
        assert_eq!(t.comm, expected);
        let mut stats = NetStats::new();
        let end = |id| match id {
            3 => Endpoint::Server,
            d => Endpoint::Device(DeviceId(d as usize)),
        };
        for &(src, dst, bytes) in frames.iter().flatten() {
            stats.record(end(src), end(dst), bytes);
        }
        assert_eq!(CommSummary::from_stats(&stats, 3), expected);
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
        let t = trace(&[(1.0, 0.2)]);
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
