//! Acceptance tests for causal tracing: a fully scripted
//! `ManualClock` cluster (two devices + coordinator over the channel
//! fabric, every port Lamport-stamped) whose critical path is computed
//! by hand, and the same script under ±500 ms per-node wall-clock skew
//! whose *merged* timeline must come out identical because the order
//! is causal, not chronological.
//!
//! The script (per-node local milliseconds):
//!
//! ```text
//! t=0   d0,d1: begin_training(round 1)
//! t=2   coordinator sends ReportRequest; devices report
//! t=3   coordinator drains reports, emits RoundPlanned{1} and a
//!       Prediction, sends RoundPlan{ring:[0,1], broadcaster:0}
//! t=5   d0 receives the plan, initiates the reduce (ParamAccum)
//! t=6   d1 receives the plan, waits in ring_reduce
//! t=9   d1 receives the accumulation, merges, sends MergedParams
//! t=12  d0 receives the merged model, exits the ring
//! t=13  coordinator sends Shutdown; devices upload and finish
//! ```
//!
//! Hand-computed critical path for round 1 (see DESIGN.md §9): from
//! RoundPlanned@3ms the chain takes the plan frame to d0 (+2 ms
//! network), rides d0's timeline through ring entry (instantaneous at
//! local 5 ms), then sits 7 ms in d0's `ring_gather` span until the
//! merged model arrives at 12 ms, where the causally-latest RingExit
//! ends the round: **9 ms total = 2 ms network + 7 ms ring_gather,
//! straggler device 0, dominant segment ring_gather**.

use std::sync::Arc;
use std::time::Duration;

use hadfl::clock::{Clock, ManualClock};
use hadfl::exec::{DeviceActor, ProtocolTiming, TrainState};
use hadfl::transport::{coordinator_id, ChannelTransport, Port};
use hadfl::wire::Message;
use hadfl::HadflError;
use hadfl_telemetry::analyze::{check, critical_path, merge, parse_jsonl, ParsedLog};
use hadfl_telemetry::{EventKind, JsonlSink, SharedBuffer, Telemetry};

/// Minimal deterministic train state for single-stepped actors.
struct ToyTrain {
    params: Vec<f32>,
    version: f64,
}

impl TrainState for ToyTrain {
    fn params(&self) -> Vec<f32> {
        self.params.clone()
    }

    fn set_params(&mut self, params: &[f32]) -> Result<(), HadflError> {
        self.params = params.to_vec();
        Ok(())
    }

    fn train_step(&mut self) -> Result<(), HadflError> {
        self.version += 1.0;
        Ok(())
    }

    fn version(&self) -> f64 {
        self.version
    }
}

/// Runs the scripted cluster with the given per-node wall-clock
/// offsets (device 0, device 1, coordinator) and returns each node's
/// JSONL bytes. The schedule is identical in every run; only the
/// epoch each node's clock starts from differs.
fn scripted_run(offset_ms: [u64; 3]) -> Vec<Vec<u8>> {
    let coord = coordinator_id(2);
    let bufs: Vec<SharedBuffer> = (0..3).map(|_| SharedBuffer::new()).collect();
    let tels: Vec<Telemetry> = bufs
        .iter()
        .enumerate()
        .map(|(id, buf)| Telemetry::new(id as u32, vec![Box::new(JsonlSink::new(buf.clone()))]))
        .collect();
    let clocks: Vec<ManualClock> = (0..3).map(|_| ManualClock::new()).collect();
    // Local time `ms` on node `i` is offset + ms: the offsets emulate
    // hosts whose wall clocks disagree.
    let at = |i: usize, ms: u64| clocks[i].set(Duration::from_millis(offset_ms[i] + ms));
    at(0, 0);
    at(1, 0);
    at(2, 0);

    let mut hub = ChannelTransport::hub(3);
    let mut ports: Vec<_> = (0..3)
        .map(|id| {
            let clock: Arc<dyn Clock> = Arc::new(clocks[id].clone());
            hub.claim_instrumented(id, tels[id].clone(), Some(clock))
                .unwrap()
        })
        .collect();
    let mut pc = ports.remove(coord);
    let mut p1 = ports.remove(1);
    let mut p0 = ports.remove(0);

    let toy = || ToyTrain {
        params: vec![0.0, 0.0],
        version: 0.0,
    };
    let mut a0 =
        DeviceActor::new(0, 3, toy(), 0.5, ProtocolTiming::quick()).with_telemetry(tels[0].clone());
    let mut a1 =
        DeviceActor::new(1, 3, toy(), 0.5, ProtocolTiming::quick()).with_telemetry(tels[1].clone());
    a0.begin_training(clocks[0].now(), 1);
    a1.begin_training(clocks[1].now(), 1);

    // Training window: two local steps on d0, one on d1.
    a0.on_idle(&mut p0).unwrap();
    a0.on_idle(&mut p0).unwrap();
    a1.on_idle(&mut p1).unwrap();

    // t=2: report requests out, reports back.
    at(2, 2);
    pc.send(0, &Message::ReportRequest { round: 1 }).unwrap();
    pc.send(1, &Message::ReportRequest { round: 1 }).unwrap();
    at(0, 2);
    let msg = p0.try_recv().unwrap().unwrap();
    a0.on_message(&mut p0, msg, clocks[0].now()).unwrap();
    at(1, 2);
    let msg = p1.try_recv().unwrap().unwrap();
    a1.on_message(&mut p1, msg, clocks[1].now()).unwrap();

    // t=3: the coordinator ingests reports, plans round 1.
    at(2, 3);
    while pc.try_recv().unwrap().is_some() {}
    tels[2].emit(
        clocks[2].now(),
        EventKind::RoundPlanned {
            round: 1,
            available: vec![0, 1],
            versions: vec![2.0, 1.0],
            probabilities: vec![0.75, 0.25],
            selected: vec![0, 1],
            unselected: vec![],
            broadcaster: 0,
        },
    );
    tels[2].emit(
        clocks[2].now(),
        EventKind::Prediction {
            round: 1,
            device: 0,
            predicted: 2.5,
            actual: 2.0,
        },
    );
    let plan = Message::RoundPlan {
        round: 1,
        ring: vec![0, 1],
        broadcaster: 0,
        unselected: vec![],
    };
    pc.send(0, &plan).unwrap();
    pc.send(1, &plan).unwrap();

    // t=5: d0 joins and initiates the reduce.
    at(0, 5);
    let msg = p0.try_recv().unwrap().unwrap();
    a0.on_message(&mut p0, msg, clocks[0].now()).unwrap();
    // t=6: d1 joins and waits for the accumulation.
    at(1, 6);
    let msg = p1.try_recv().unwrap().unwrap();
    a1.on_message(&mut p1, msg, clocks[1].now()).unwrap();
    // t=9: d1 merges and sends the model back around.
    at(1, 9);
    let msg = p1.try_recv().unwrap().unwrap();
    a1.on_message(&mut p1, msg, clocks[1].now()).unwrap();
    // t=12: d0 installs the merged model and exits the ring.
    at(0, 12);
    let msg = p0.try_recv().unwrap().unwrap();
    a0.on_message(&mut p0, msg, clocks[0].now()).unwrap();

    // t=13: shutdown and final uploads.
    at(2, 13);
    pc.send(0, &Message::Shutdown).unwrap();
    pc.send(1, &Message::Shutdown).unwrap();
    at(0, 13);
    let msg = p0.try_recv().unwrap().unwrap();
    a0.on_message(&mut p0, msg, clocks[0].now()).unwrap();
    at(1, 13);
    let msg = p1.try_recv().unwrap().unwrap();
    a1.on_message(&mut p1, msg, clocks[1].now()).unwrap();
    assert!(a0.is_finished() && a1.is_finished());
    at(2, 14);
    while pc.try_recv().unwrap().is_some() {}

    for tel in &tels {
        tel.flush();
    }
    bufs.iter().map(SharedBuffer::contents).collect()
}

fn parse_all(raw: &[Vec<u8>]) -> Vec<ParsedLog> {
    raw.iter()
        .map(|bytes| {
            let log = parse_jsonl(std::str::from_utf8(bytes).unwrap());
            assert_eq!(log.garbage_lines, 0);
            log
        })
        .collect()
}

/// The PR's acceptance test: the scripted round's critical path comes
/// out exactly as computed by hand — total, straggler, dominant
/// segment, and per-segment microseconds — both through the library
/// and through the real `hadfl-trace critical-path --check` binary.
#[test]
fn scripted_critical_path_matches_hand_computation() {
    let raw = scripted_run([0, 0, 0]);
    let logs = parse_all(&raw);
    let outcome = check(&logs);
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    assert!(outcome.warnings.is_empty(), "{:?}", outcome.warnings);

    let merged = merge(&logs);
    let cp = critical_path(&merged, 1);
    assert!(cp.errors.is_empty(), "{:?}", cp.errors);
    assert_eq!(cp.total_us, 9_000, "RoundPlanned@3ms -> RingExit@12ms");
    assert_eq!(cp.straggler, Some(0), "device 0 carries the waited time");
    assert_eq!(cp.dominant_segment.as_deref(), Some("ring_gather"));
    assert_eq!(cp.per_segment_us.get("network"), Some(&2_000));
    assert_eq!(cp.per_segment_us.get("ring_gather"), Some(&7_000));
    let attributed: u64 = cp.per_segment_us.values().sum();
    assert_eq!(attributed, cp.total_us, "every microsecond is attributed");

    // The real binary reproduces the same attribution and exits 0
    // under --check.
    let dir = std::env::temp_dir().join(format!("hadfl-causal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<std::path::PathBuf> = raw
        .iter()
        .enumerate()
        .map(|(id, bytes)| {
            let path = dir.join(format!("node-{id}.jsonl"));
            std::fs::write(&path, bytes).unwrap();
            path
        })
        .collect();
    let trace = env!("CARGO_BIN_EXE_hadfl-trace");
    let out = std::process::Command::new(trace)
        .arg("critical-path")
        .arg("--check")
        .args(&paths)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("round 1: critical path 9000 us"),
        "{stdout}"
    );
    assert!(
        stdout.contains("straggler: device 0   dominant segment: ring_gather"),
        "{stdout}"
    );
    assert!(stdout.contains("Eq. 7 cross-check"), "{stdout}");
    assert!(stdout.contains("Eq. 8 cross-check"), "{stdout}");

    // And the spans subcommand renders the Gantt for the same logs.
    let out = std::process::Command::new(trace)
        .arg("spans")
        .arg("--round")
        .arg("1")
        .args(&paths)
        .output()
        .unwrap();
    assert!(out.status.success());
    let gantt = String::from_utf8_lossy(&out.stdout);
    for needle in ["ring_gather", "ring_reduce", "wait_for_plan", "merge"] {
        assert!(gantt.contains(needle), "gantt lacks {needle}:\n{gantt}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// ±500 ms of per-node wall-clock skew (device 0 runs 500 ms behind
/// the coordinator, device 1 500 ms ahead) must not change the merged
/// timeline at all: ordering is by Lamport stamp, and the stamps are a
/// function of the schedule, not the clocks. The skew itself must be
/// detected and reported as a warning, never an error.
#[test]
fn merged_timeline_is_immune_to_wall_clock_skew() {
    let base = parse_all(&scripted_run([500, 500, 500]));
    let skew = parse_all(&scripted_run([0, 1_000, 500]));

    let order = |logs: &[ParsedLog]| -> Vec<(u32, u64, &'static str)> {
        merge(logs)
            .iter()
            .map(|e| (e.node, e.seq, e.kind_label()))
            .collect()
    };
    assert_eq!(
        order(&base),
        order(&skew),
        "causal merge must ignore per-node epochs"
    );

    let outcome = check(&skew);
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    assert!(
        outcome
            .warnings
            .iter()
            .any(|w| w.contains("wall-clock skew")),
        "skew must surface as a warning: {:?}",
        outcome.warnings
    );

    // The critical path still reconstructs without causal errors.
    let cp = critical_path(&merge(&skew), 1);
    assert!(cp.errors.is_empty(), "{:?}", cp.errors);
}

/// The same schedule twice produces byte-identical JSONL per node —
/// span ids, Lamport stamps, and timestamps are all deterministic
/// functions of the script.
#[test]
fn scripted_span_logs_are_byte_identical() {
    let a = scripted_run([0, 0, 0]);
    let b = scripted_run([0, 0, 0]);
    assert_eq!(a, b);
    let logs = parse_all(&a);
    let spans: Vec<&str> = merge(&logs)
        .iter()
        .filter_map(|e| match &e.kind {
            hadfl_telemetry::EventKind::SpanStart { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .map(|s| match s {
            "train" => "train",
            "wait_for_plan" => "wait_for_plan",
            "ring_reduce" => "ring_reduce",
            "ring_gather" => "ring_gather",
            "merge" => "merge",
            other => panic!("unexpected span name {other}"),
        })
        .collect();
    for needle in [
        "train",
        "wait_for_plan",
        "ring_reduce",
        "ring_gather",
        "merge",
    ] {
        assert!(spans.contains(&needle), "missing span {needle}: {spans:?}");
    }
}
