//! Acceptance test for the compute profiler: a `ManualClock`-scripted
//! two-device schedule must produce exactly the hand-computed call
//! tree — same stacks, same counts, same nanoseconds — and the
//! `hadfl-trace profile` binary must render and `--check` it.
//!
//! The clock only moves when the script moves it (the toy train step
//! advances it 1 ms per call), so every duration below is computed on
//! paper, not measured. Lives in the telemetry crate so
//! `CARGO_BIN_EXE_hadfl-trace` points at the real binary.

use std::sync::Arc;
use std::time::Duration;

use hadfl::clock::{Clock, ManualClock};
use hadfl::exec::{DeviceActor, ProtocolTiming, TrainState};
use hadfl::transport::ChannelTransport;
use hadfl::wire::Message;
use hadfl::HadflError;
use hadfl_prof::{merge_dumps, PoolRow, ProfileDump, Profiler, StackRow};

/// A training stub that advances the shared [`ManualClock`] by 1 ms
/// per step — the only way virtual time passes inside a profiled
/// scope, so `local_step` durations are scripted, not measured.
struct ClockedTrain {
    params: Vec<f32>,
    version: f64,
    clock: ManualClock,
}

impl TrainState for ClockedTrain {
    fn params(&self) -> Vec<f32> {
        self.params.clone()
    }

    fn set_params(&mut self, params: &[f32]) -> Result<(), HadflError> {
        self.params = params.to_vec();
        Ok(())
    }

    fn train_step(&mut self) -> Result<(), HadflError> {
        self.clock.advance(Duration::from_millis(1));
        self.version += 1.0;
        Ok(())
    }

    fn version(&self) -> f64 {
        self.version
    }
}

/// Runs the scripted schedule once and returns both devices' dumps.
///
/// Device 0 is a selected ring member (not the initiator): 3 local
/// steps, then it accumulates an inbound `ParamAccum` and closes the
/// two-member reduce. Device 1 is unselected: 2 local steps, then it
/// blends an inbound `ParamSync` broadcast.
fn run_scripted_pair() -> (ProfileDump, ProfileDump) {
    let k = 2;
    let clock = ManualClock::new();
    let mut hub = ChannelTransport::hub(k + 1);
    let mut port0 = hub.claim(0).unwrap();
    let mut port1 = hub.claim(1).unwrap();
    let _coord = hub.claim(k).unwrap();

    let train = |clock: &ManualClock| ClockedTrain {
        params: vec![0.0, 0.0],
        version: 0.0,
        clock: clock.clone(),
    };

    // Device 0: selected, second in the ring, closes the reduce.
    let prof0 = Profiler::new(0, Arc::new(clock.clone()));
    let guard = prof0.install();
    let mut actor0 = DeviceActor::new(0, k + 1, train(&clock), 0.5, ProtocolTiming::quick());
    for _ in 0..3 {
        actor0.on_idle(&mut port0).unwrap();
    }
    actor0
        .on_message(&mut port0, Message::ReportRequest { round: 1 }, clock.now())
        .unwrap();
    actor0
        .on_message(
            &mut port0,
            Message::RoundPlan {
                round: 1,
                ring: vec![1, 0],
                broadcaster: 1,
                unselected: vec![],
            },
            clock.now(),
        )
        .unwrap();
    actor0
        .on_message(
            &mut port0,
            Message::ParamAccum {
                round: 1,
                hops: 1,
                params: vec![2.0, 2.0],
            },
            clock.now(),
        )
        .unwrap();
    actor0
        .on_message(&mut port0, Message::Shutdown, clock.now())
        .unwrap();
    drop(guard);

    // Device 1: unselected, blends the broadcast while training.
    let prof1 = Profiler::new(1, Arc::new(clock.clone()));
    let guard = prof1.install();
    let mut actor1 = DeviceActor::new(1, k + 1, train(&clock), 0.5, ProtocolTiming::quick());
    for _ in 0..2 {
        actor1.on_idle(&mut port1).unwrap();
    }
    actor1
        .on_message(
            &mut port1,
            Message::ParamSync {
                round: 1,
                params: vec![1.0, 1.0],
            },
            clock.now(),
        )
        .unwrap();
    actor1
        .on_message(&mut port1, Message::Shutdown, clock.now())
        .unwrap();
    drop(guard);

    (prof0.dump(), prof1.dump())
}

fn row(stack: &str, count: u64, ns: u64, bytes: u64) -> StackRow {
    StackRow {
        stack: stack.to_string(),
        count,
        total_ns: ns,
        self_ns: ns,
        bytes,
    }
}

#[test]
fn scripted_two_device_run_matches_the_hand_computed_tree() {
    let (dump0, dump1) = run_scripted_pair();

    // Device 0: three 1 ms training steps, then the ring close. The
    // aggregate kernels run at a frozen clock, so their durations are
    // exactly zero; byte counts follow the scope_bytes formulas
    // (accumulate touches 8 bytes per f32 pair). Device 0 closes the
    // ring, so its accumulate is the fused accumulate-and-scale and
    // `ring_merge` has no kernel of its own left.
    assert_eq!(
        dump0.stacks,
        vec![
            row("local_step", 3, 3_000_000, 0),
            row("ring_accumulate", 1, 0, 0),
            row("ring_accumulate;accumulate_scaled_params", 1, 0, 16),
            row("ring_merge", 1, 0, 0),
        ],
        "device 0 call tree"
    );
    // The 2-element vectors stay under the par threshold, so the
    // kernel's pool region is one serial dispatch: one worker (the
    // dispatcher), one chunk, zero elapsed at a frozen clock. The
    // region key is the dispatching scope's path.
    let serial_region = |key: &str| PoolRow {
        region: key.to_string(),
        dispatches: 1,
        max_workers: 1,
        tasks: 1,
        busy_ns: 0,
        park_ns: 0,
        wake_ns: 0,
        wall_ns: 0,
        serial_est_ns: 0,
        max_chunk_ns: 0,
        min_chunk_ns: 0,
    };
    assert_eq!(
        dump0.pools,
        vec![serial_region("ring_accumulate;accumulate_scaled_params")],
        "device 0 pool regions"
    );

    // Device 1: two 1 ms steps, then the broadcast blend.
    assert_eq!(
        dump1.stacks,
        vec![
            row("broadcast_blend", 1, 0, 0),
            row("broadcast_blend;blend_params", 1, 0, 16),
            row("local_step", 2, 2_000_000, 0),
        ],
        "device 1 call tree"
    );

    // The merge sums `local_step` across nodes and unions the rest.
    let merged = merge_dumps(&[dump0, dump1]);
    let paths: Vec<&str> = merged.stacks.iter().map(|r| r.stack.as_str()).collect();
    assert_eq!(
        paths,
        vec![
            "broadcast_blend",
            "broadcast_blend;blend_params",
            "local_step",
            "ring_accumulate",
            "ring_accumulate;accumulate_scaled_params",
            "ring_merge",
        ]
    );
    let local = merged
        .stacks
        .iter()
        .find(|r| r.stack == "local_step")
        .unwrap();
    assert_eq!((local.count, local.total_ns), (5, 5_000_000));
}

#[test]
fn identical_schedules_dump_identical_bytes() {
    let (a0, a1) = run_scripted_pair();
    let (b0, b1) = run_scripted_pair();
    let a = serde_json::to_string(&merge_dumps(&[a0, a1])).unwrap();
    let b = serde_json::to_string(&merge_dumps(&[b0, b1])).unwrap();
    assert_eq!(a, b, "ManualClock profiles must be byte-identical");
}

#[test]
fn trace_profile_binary_renders_and_checks_the_dumps() {
    let (dump0, dump1) = run_scripted_pair();
    let dir = std::env::temp_dir().join(format!("hadfl-prof-accept-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p0 = dir.join("profile-node-0.json");
    let p1 = dir.join("profile-node-1.json");
    std::fs::write(&p0, serde_json::to_string(&dump0).unwrap()).unwrap();
    std::fs::write(&p1, serde_json::to_string(&dump1).unwrap()).unwrap();
    let folded = dir.join("merged.folded");

    let trace = env!("CARGO_BIN_EXE_hadfl-trace");
    let out = std::process::Command::new(trace)
        .arg("profile")
        .arg("--check")
        .arg("--folded")
        .arg(&folded)
        .arg(&p0)
        .arg(&p1)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("2 node(s)"), "{stdout}");
    assert!(stdout.contains("local_step"), "{stdout}");
    assert!(stdout.contains("x5"), "merged local_step count: {stdout}");
    assert!(stdout.contains("profile check ok"), "{stdout}");

    // The folded export carries the merged self times: 5 scripted
    // 1 ms steps.
    let folded_text = std::fs::read_to_string(&folded).unwrap();
    assert!(folded_text.contains("local_step 5000000"), "{folded_text}");
    std::fs::remove_dir_all(&dir).ok();
}
