//! The typed event vocabulary of the HADFL runtime.
//!
//! One [`Event`] is one observable protocol fact: a device entered a
//! ring, the coordinator planned a round, a frame crossed the wire.
//! Events are schema-versioned ([`SCHEMA_VERSION`]) and serialize to
//! exactly one JSON object per line in the JSONL sink, so logs from
//! different nodes — or different releases — can be merged and audited
//! offline by `hadfl-trace`.
//!
//! Timestamps are whatever the emitting participant's
//! `hadfl::clock::Clock` read at the moment of emission, in
//! microseconds. Under a `ManualClock` schedule they are fully
//! deterministic; under `WallClock` they are per-process monotonic
//! readings (epoch = process start), which is all the per-node
//! timeline analysis needs.

use serde::{Deserialize, Serialize};

/// Version stamp carried by every event (`v` field). Bump on any
/// incompatible change to [`Event`] or [`EventKind`].
pub const SCHEMA_VERSION: u32 = 1;

/// One timestamped, sequence-numbered protocol event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub v: u32,
    /// Per-node emission counter, strictly increasing from 0. Breaks
    /// timestamp ties and detects dropped lines.
    pub seq: u64,
    /// The emitting participant: device id, or `k` for the coordinator
    /// of a `k`-device cluster.
    pub node: u32,
    /// Clock reading at emission, microseconds.
    pub t_us: u64,
    /// The node's Lamport clock at emission (see
    /// [`crate::LamportClock`]): bumped on every frame send, max-merged
    /// on every receive. 0 means "no causal exchange yet" — including
    /// every event from pre-stamp logs, whose missing field
    /// deserializes to 0 and keeps them valid under `SCHEMA_VERSION` 1
    /// (the addition is backward compatible, so no bump).
    #[serde(default)]
    pub lam: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The event taxonomy (see DESIGN.md §9 "Observability").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A device's protocol loop started.
    DeviceStarted {
        /// The device.
        device: u32,
    },
    /// A device's protocol loop ended (Shutdown processed).
    DeviceFinished {
        /// The device.
        device: u32,
        /// Final cumulative parameter version (local step count).
        version: u64,
    },
    /// A batch of local SGD steps completed (batched to keep the hot
    /// training loop out of the sink path).
    LocalSteps {
        /// The training device.
        device: u32,
        /// Steps in this batch.
        steps: u64,
        /// Cumulative version after the batch.
        version: u64,
    },
    /// A selected device received its `RoundPlan` and entered the ring.
    RingEnter {
        /// Synchronization round.
        round: u32,
        /// The planned ring order.
        ring: Vec<u32>,
    },
    /// The device left the ring phase and resumed training (or
    /// abandoned the round).
    RingExit {
        /// Synchronization round.
        round: u32,
        /// True if the ring dissolved without producing a merge for
        /// this device.
        dissolved: bool,
    },
    /// A running parameter sum was accumulated and forwarded
    /// (the reduce half of the ring).
    Accumulate {
        /// Synchronization round.
        round: u32,
        /// Hop count of the accumulation after this device's
        /// contribution.
        hops: u32,
    },
    /// Merged parameters were installed (the distribute half).
    Merge {
        /// Synchronization round.
        round: u32,
        /// Live ring members at merge time.
        participants: u32,
    },
    /// A handshake probe expired: the device declared its upstream dead
    /// and warned the ring (§III-D).
    BypassDeclared {
        /// Synchronization round.
        round: u32,
        /// The device found dead.
        dead: u32,
    },
    /// A `BypassWarning` was acted on: the ring was repaired around the
    /// dead member and the pending frame re-sent.
    RingRepair {
        /// Synchronization round.
        round: u32,
        /// The bypassed device.
        dead: u32,
    },
    /// The coordinator planned a round (Eq. 8 selection draw).
    /// `versions` and `probabilities` are parallel to `available`.
    RoundPlanned {
        /// Synchronization round.
        round: u32,
        /// Devices that reported in time.
        available: Vec<u32>,
        /// Reported cumulative versions.
        versions: Vec<f64>,
        /// Normalized Eq. 8 first-draw selection probabilities.
        probabilities: Vec<f64>,
        /// The `N_p` devices drawn into the ring.
        selected: Vec<u32>,
        /// Available but unselected devices (broadcast targets).
        unselected: Vec<u32>,
        /// Ring member elected to broadcast the merged model.
        broadcaster: u32,
    },
    /// Eq. 7 forecast versus the actual reported version, logged by the
    /// coordinator before feeding the observation back to the
    /// predictor.
    Prediction {
        /// Synchronization round.
        round: u32,
        /// The device predicted.
        device: u32,
        /// Brown's double-exponential-smoothing forecast.
        predicted: f64,
        /// The version the device actually reported.
        actual: f64,
    },
    /// The coordinator gave up on a device (missed report deadline).
    DeviceDropped {
        /// Round in which the device went silent.
        round: u32,
        /// The dropped device.
        device: u32,
    },
    /// The coordinator completed a round's bookkeeping; `duration_us`
    /// spans window start to plan emission.
    RoundComplete {
        /// Synchronization round.
        round: u32,
        /// Window + collect duration, microseconds.
        duration_us: u64,
    },
    /// The coordinator broadcast Shutdown after the final round.
    ShutdownSent {
        /// The last completed round.
        round: u32,
    },
    /// A protocol segment opened on a device (see DESIGN.md §9's span
    /// taxonomy: `train`, `wait_for_plan`, `ring_reduce`,
    /// `ring_gather`, `bypass_repair`, `merge`, `broadcast_blend`).
    /// Span ids are per-node counters starting at 1; the analyzer
    /// keys spans by `(node, span)`.
    SpanStart {
        /// Per-node span id (unique within the emitting node's log).
        span: u64,
        /// Enclosing span's id, or 0 for a top-level span.
        parent: u64,
        /// Segment name from the fixed taxonomy.
        name: String,
        /// Synchronization round the segment belongs to.
        round: u32,
        /// The device the segment ran on.
        device: u32,
    },
    /// The matching close of a [`EventKind::SpanStart`]; duration is
    /// the `t_us` difference (same node, so no cross-host skew).
    SpanEnd {
        /// The span being closed.
        span: u64,
        /// Synchronization round (restated for self-contained lines).
        round: u32,
        /// The device (restated).
        device: u32,
    },
    /// A payload frame left this node. Mirrors exactly one
    /// `NetStats::record` call on the sending port — framing bytes and
    /// hellos are *not* events, so summed `bytes` reconcile with the
    /// payload ledger.
    FrameSent {
        /// Sending participant.
        src: u32,
        /// Receiving participant.
        dst: u32,
        /// Encoded payload length.
        bytes: u64,
        /// Wire message kind (`Message::kind()`).
        kind: String,
        /// The causal stamp sealed into the frame — strictly
        /// increasing per sender, so `(src, lamport)` uniquely matches
        /// this send to its receive. 0 in pre-stamp logs.
        #[serde(default)]
        lamport: u64,
    },
    /// A payload frame arrived at this node (same contract as
    /// [`EventKind::FrameSent`], receive side).
    FrameReceived {
        /// Sending participant.
        src: u32,
        /// Receiving participant.
        dst: u32,
        /// Encoded payload length.
        bytes: u64,
        /// Wire message kind (`Message::kind()`).
        kind: String,
        /// The stamp carried by the frame (the *sender's* tick, not
        /// the receiver's merged clock). 0 in pre-stamp logs.
        #[serde(default)]
        lamport: u64,
    },
    /// The node's own `NetStats` ledger at shutdown — the ground truth
    /// the per-frame events must sum to (parity-checked by
    /// `hadfl-trace --check`).
    Ledger {
        /// Total payload bytes this node sent.
        sent_bytes: u64,
        /// Total payload bytes this node received.
        recv_bytes: u64,
        /// Payload frames recorded (sends + receives).
        frames: u64,
    },
    /// One profiled operation's aggregate from the in-process compute
    /// profiler (`hadfl-prof`), emitted once per op when a node's run
    /// ends. `op` is the leaf scope name (`matmul`, `wire_encode`, …),
    /// so a fleet's `hadfl_op_seconds` metrics sum across nodes.
    OpProfile {
        /// Leaf scope name.
        op: String,
        /// Times the scope closed.
        calls: u64,
        /// Total nanoseconds inside the scope (including children).
        total_ns: u64,
        /// Nanoseconds not covered by child scopes.
        self_ns: u64,
        /// Bytes processed, where the site reports them (0 otherwise).
        bytes: u64,
    },
    /// One pool region's dispatch aggregate from `hadfl-prof`: where a
    /// parallel region's wall time went (busy vs parked) and how even
    /// its chunks were. Emitted once per region at run end.
    PoolProfile {
        /// The dispatcher's scope path when the region opened.
        region: String,
        /// Dispatches through the region.
        dispatches: u64,
        /// Most workers any dispatch used.
        max_workers: u64,
        /// Tasks (chunks) executed.
        tasks: u64,
        /// Nanoseconds workers spent computing tasks.
        busy_ns: u64,
        /// Worker lifetime not spent on tasks.
        park_ns: u64,
        /// Dispatcher-side region wall nanoseconds.
        wall_ns: u64,
        /// Slowest single chunk.
        max_chunk_ns: u64,
        /// Fastest single chunk.
        min_chunk_ns: u64,
    },
}

impl Event {
    /// Serializes to the canonical single-line JSON form.
    ///
    /// # Errors
    ///
    /// Returns the serializer's message if the event holds a non-finite
    /// float (the schema forbids them; emitters must sanitize).
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string(self).map_err(|e| e.to_string())
    }

    /// Parses one JSONL line.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed line.
    pub fn from_json(line: &str) -> Result<Event, String> {
        serde_json::from_str(line).map_err(|e| e.to_string())
    }

    /// The event's kind as a short stable label (metric/report keys).
    pub fn kind_label(&self) -> &'static str {
        match &self.kind {
            EventKind::DeviceStarted { .. } => "device_started",
            EventKind::DeviceFinished { .. } => "device_finished",
            EventKind::LocalSteps { .. } => "local_steps",
            EventKind::RingEnter { .. } => "ring_enter",
            EventKind::RingExit { .. } => "ring_exit",
            EventKind::Accumulate { .. } => "accumulate",
            EventKind::Merge { .. } => "merge",
            EventKind::BypassDeclared { .. } => "bypass_declared",
            EventKind::RingRepair { .. } => "ring_repair",
            EventKind::RoundPlanned { .. } => "round_planned",
            EventKind::Prediction { .. } => "prediction",
            EventKind::DeviceDropped { .. } => "device_dropped",
            EventKind::RoundComplete { .. } => "round_complete",
            EventKind::ShutdownSent { .. } => "shutdown_sent",
            EventKind::SpanStart { .. } => "span_start",
            EventKind::SpanEnd { .. } => "span_end",
            EventKind::FrameSent { .. } => "frame_sent",
            EventKind::FrameReceived { .. } => "frame_received",
            EventKind::Ledger { .. } => "ledger",
            EventKind::OpProfile { .. } => "op_profile",
            EventKind::PoolProfile { .. } => "pool_profile",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_variant() {
        let kinds = vec![
            EventKind::DeviceStarted { device: 1 },
            EventKind::DeviceFinished {
                device: 1,
                version: 42,
            },
            EventKind::LocalSteps {
                device: 2,
                steps: 64,
                version: 128,
            },
            EventKind::RingEnter {
                round: 3,
                ring: vec![0, 2, 1],
            },
            EventKind::RingExit {
                round: 3,
                dissolved: false,
            },
            EventKind::Accumulate { round: 3, hops: 2 },
            EventKind::Merge {
                round: 3,
                participants: 3,
            },
            EventKind::BypassDeclared { round: 4, dead: 2 },
            EventKind::RingRepair { round: 4, dead: 2 },
            EventKind::RoundPlanned {
                round: 5,
                available: vec![0, 1, 2],
                versions: vec![10.0, 20.0, 30.0],
                probabilities: vec![0.25, 0.5, 0.25],
                selected: vec![1, 2],
                unselected: vec![0],
                broadcaster: 1,
            },
            EventKind::Prediction {
                round: 5,
                device: 0,
                predicted: 11.5,
                actual: 10.0,
            },
            EventKind::DeviceDropped {
                round: 6,
                device: 3,
            },
            EventKind::RoundComplete {
                round: 6,
                duration_us: 120_000,
            },
            EventKind::ShutdownSent { round: 6 },
            EventKind::SpanStart {
                span: 3,
                parent: 0,
                name: "ring_reduce".into(),
                round: 5,
                device: 1,
            },
            EventKind::SpanEnd {
                span: 3,
                round: 5,
                device: 1,
            },
            EventKind::FrameSent {
                src: 0,
                dst: 4,
                bytes: 17,
                kind: "version_report".into(),
                lamport: 9,
            },
            EventKind::FrameReceived {
                src: 4,
                dst: 0,
                bytes: 21,
                kind: "round_plan".into(),
                lamport: 12,
            },
            EventKind::Ledger {
                sent_bytes: 100,
                recv_bytes: 90,
                frames: 12,
            },
            EventKind::OpProfile {
                op: "matmul".into(),
                calls: 128,
                total_ns: 2_000_000,
                self_ns: 1_800_000,
                bytes: 4096,
            },
            EventKind::PoolProfile {
                region: "train_step;matmul".into(),
                dispatches: 128,
                max_workers: 4,
                tasks: 1024,
                busy_ns: 1_500_000,
                park_ns: 300_000,
                wall_ns: 600_000,
                max_chunk_ns: 4_000,
                min_chunk_ns: 900,
            },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let event = Event {
                v: SCHEMA_VERSION,
                seq: i as u64,
                node: 0,
                t_us: 1_000 * i as u64,
                lam: i as u64 * 2,
                kind,
            };
            let line = event.to_json().unwrap();
            assert!(!line.contains('\n'), "one line per event: {line}");
            let back = Event::from_json(&line).unwrap();
            assert_eq!(back, event);
        }
    }

    #[test]
    fn pre_stamp_lines_still_parse() {
        // A line written before the causal-stamp fields existed: no
        // `lam` on the envelope, no `lamport` on the frame event. Both
        // default to 0 — the schema addition is backward compatible.
        let line = "{\"v\":1,\"seq\":7,\"node\":2,\"t_us\":500,\"kind\":{\"FrameSent\":\
                    {\"src\":2,\"dst\":4,\"bytes\":17,\"kind\":\"version_report\"}}}";
        let event = Event::from_json(line).unwrap();
        assert_eq!(event.lam, 0);
        let EventKind::FrameSent { lamport, bytes, .. } = event.kind else {
            panic!("wrong kind");
        };
        assert_eq!(lamport, 0);
        assert_eq!(bytes, 17);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Event::from_json("").is_err());
        assert!(Event::from_json("not json").is_err());
        assert!(Event::from_json("{\"v\":1}").is_err());
        assert!(Event::from_json(
            "{\"v\":1,\"seq\":0,\"node\":0,\"t_us\":0,\"kind\":\"NoSuchKind\"}"
        )
        .is_err());
    }
}
