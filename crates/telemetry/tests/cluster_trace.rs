//! Acceptance tests for the observability layer against a live
//! cluster: a telemetry-enabled loopback run must produce per-node
//! JSONL that the `hadfl-trace` binary validates (exact `NetStats`
//! ledger parity) and analyzes (Eq. 7 prediction error, Eq. 8
//! selection histogram, 2·K·M communication bound) — and the event
//! stream must be byte-identical across identical `ManualClock`
//! schedules.
//!
//! These live in the telemetry crate (dev-dependency cycle onto the
//! runtime crates) so `CARGO_BIN_EXE_hadfl-trace` points at the real
//! analyzer binary.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use hadfl::clock::{Clock, ManualClock, WallClock};
use hadfl::exec::{
    run_cluster, run_device, DeviceActor, ProtocolTiming, ThreadedOptions, TrainState,
};
use hadfl::transport::{coordinator_id, ChannelTransport, Port};
use hadfl::wire::Message;
use hadfl::{HadflConfig, HadflError, Workload};
use hadfl_net::cluster::ClusterConfig;
use hadfl_net::tcp::{BoundNode, StatsHandle, TcpOptions, TcpPort};
use hadfl_simnet::{DeviceId, Endpoint};
use hadfl_telemetry::analyze::{ledger_parity, parse_jsonl};
use hadfl_telemetry::{Event, EventKind, JsonlSink, SharedBuffer, Telemetry};

/// Runs a telemetry-enabled 5-participant loopback cluster (4 devices +
/// coordinator, the `hadfl-node` process topology with one thread per
/// process) and returns the JSONL directory plus every node's final
/// `NetStats`.
fn run_instrumented_cluster(dir: &std::path::Path) -> Vec<hadfl_simnet::NetStats> {
    let powers = [3.0, 2.0, 1.0, 1.0];
    let k = powers.len();
    let workload = Workload::quick("mlp", 41);
    let config = HadflConfig::builder()
        .num_selected(2)
        .seed(41)
        .build()
        .unwrap();
    let opts = ThreadedOptions {
        powers: powers.to_vec(),
        step_sleep: Duration::from_millis(4),
        window: Duration::from_millis(120),
        rounds: 3,
        timing: ProtocolTiming::quick(),
    };

    let nodes: Vec<BoundNode> = (0..=k)
        .map(|id| BoundNode::bind(id, "127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<String> = nodes
        .iter()
        .map(|b| b.local_addr().unwrap().to_string())
        .collect();
    let cluster = ClusterConfig::from_addrs(&addrs).unwrap();

    let clock: Arc<dyn Clock> = WallClock::shared();
    let tels: Vec<Telemetry> = (0..=k)
        .map(|id| {
            let path = dir.join(format!("node-{id}.jsonl"));
            let sink = JsonlSink::create(&path).unwrap();
            Telemetry::new(id as u32, vec![Box::new(sink)])
        })
        .collect();
    let mut ports: Vec<TcpPort> = nodes
        .into_iter()
        .zip(&tels)
        .map(|(node, tel)| {
            node.into_port_instrumented(
                &cluster,
                TcpOptions::default(),
                Arc::clone(&clock),
                tel.clone(),
            )
            .unwrap()
        })
        .collect();
    let handles: Vec<StatsHandle> = ports.iter().map(TcpPort::stats_handle).collect();
    let coordinator_port = ports.remove(k);
    let built = workload.build(k).unwrap();

    run_cluster(ports, coordinator_port, built.runtimes, &config, &opts).expect("cluster run");

    for (handle, tel) in handles.iter().zip(&tels) {
        handle.emit_ledger();
        tel.flush();
    }
    handles.iter().map(StatsHandle::stats).collect()
}

/// The PR's acceptance test: each node's frame events sum to exactly
/// its `NetStats` ledger, `hadfl-trace --check` passes, and the report
/// covers Eq. 7 prediction error, the Eq. 8 selection histogram, and
/// the ledger-matching communication total.
#[test]
fn cluster_jsonl_passes_hadfl_trace() {
    let dir = std::env::temp_dir().join(format!("hadfl-trace-accept-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stats = run_instrumented_cluster(&dir);
    let k = stats.len() - 1;

    // Satellite 1: telemetry byte/frame counters equal the NetStats
    // ledger, node by node, exactly.
    let paths: Vec<std::path::PathBuf> = (0..=k)
        .map(|id| dir.join(format!("node-{id}.jsonl")))
        .collect();
    for (id, (path, stats)) in paths.iter().zip(&stats).enumerate() {
        let log = parse_jsonl(&std::fs::read_to_string(path).unwrap());
        assert_eq!(log.garbage_lines, 0, "node {id} wrote malformed JSONL");
        let parity = ledger_parity(&log.events);
        assert_eq!(parity.len(), 1, "one node per file");
        let check = &parity[0];
        let me = if id == k {
            Endpoint::Server
        } else {
            Endpoint::Device(DeviceId(id))
        };
        assert_eq!(
            check.sent_event_bytes,
            stats.sent_by(me),
            "node {id} sent bytes"
        );
        assert_eq!(
            check.recv_event_bytes,
            stats.received_by(me),
            "node {id} received bytes"
        );
        assert_eq!(check.event_frames, stats.messages(), "node {id} frames");
        assert!(check.matches(), "node {id} Ledger event must agree");
    }

    // The real binary: --check exits 0 with ledger parity …
    let trace = env!("CARGO_BIN_EXE_hadfl-trace");
    let check_out = std::process::Command::new(trace)
        .arg("--check")
        .args(&paths)
        .output()
        .unwrap();
    let check_stdout = String::from_utf8_lossy(&check_out.stdout);
    assert!(
        check_out.status.success(),
        "--check failed: {check_stdout}\n{}",
        String::from_utf8_lossy(&check_out.stderr)
    );
    assert!(
        check_stdout.contains("ledger parity holds"),
        "{check_stdout}"
    );

    // … and the report covers the paper's diagnostics.
    let report_out = std::process::Command::new(trace)
        .args(&paths)
        .output()
        .unwrap();
    assert!(report_out.status.success());
    let report = String::from_utf8_lossy(&report_out.stdout);
    for needle in [
        "prediction error (Eq. 7)",
        "selection frequency vs Eq. 8 expectation",
        "ring-blocked time per device",
        "2*K*M bound",
    ] {
        assert!(
            report.contains(needle),
            "report lacks {needle:?}:\n{report}"
        );
    }
    let matches = report.matches("-> match").count();
    assert_eq!(matches, k + 1, "every node's ledger must match:\n{report}");

    std::fs::remove_dir_all(&dir).ok();
}

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

/// Satellite 4: single-steps a `DeviceActor` through a fixed
/// `ManualClock` schedule — training window, report, ring entry, merge,
/// shutdown — and demands byte-identical JSONL across runs.
#[test]
fn manual_clock_schedule_is_byte_deterministic() {
    let run = || -> Vec<u8> {
        let k = 2;
        let buf = SharedBuffer::new();
        let tel = Telemetry::new(0, vec![Box::new(JsonlSink::new(buf.clone()))]);
        let clock = ManualClock::new();
        let mut hub = ChannelTransport::hub(k + 1);
        let mut port = hub.claim(0).unwrap();
        let mut peer = hub.claim(1).unwrap();
        let mut coord = hub.claim(coordinator_id(k)).unwrap();

        let train = ToyTrain {
            params: vec![0.0, 0.0],
            version: 0.0,
        };
        let mut actor = DeviceActor::new(0, k + 1, train, 0.5, ProtocolTiming::quick())
            .with_telemetry(tel.clone());

        clock.advance(Duration::from_millis(5));
        for _ in 0..3 {
            actor.on_idle(&mut port).unwrap();
        }
        actor
            .on_message(&mut port, Message::ReportRequest { round: 1 }, clock.now())
            .unwrap();
        clock.advance(Duration::from_millis(7));
        actor
            .on_message(
                &mut port,
                Message::RoundPlan {
                    round: 1,
                    ring: vec![0, 1],
                    broadcaster: 0,
                    unselected: vec![],
                },
                clock.now(),
            )
            .unwrap();
        clock.advance(Duration::from_millis(3));
        actor
            .on_message(
                &mut port,
                Message::MergedParams {
                    round: 1,
                    ttl: 1,
                    params: vec![1.0, 1.0],
                },
                clock.now(),
            )
            .unwrap();
        clock.advance(Duration::from_millis(2));
        for _ in 0..2 {
            actor.on_idle(&mut port).unwrap();
        }
        actor
            .on_message(&mut port, Message::Shutdown, clock.now())
            .unwrap();
        assert!(actor.is_finished());

        // Drain so the channel hub doesn't accumulate state.
        while peer.try_recv().unwrap().is_some() {}
        while coord.try_recv().unwrap().is_some() {}
        tel.flush();
        buf.contents()
    };

    let a = run();
    let b = run();
    assert!(!a.is_empty(), "the schedule must emit events");
    assert_eq!(a, b, "same ManualClock schedule must emit identical bytes");

    // The stream parses back and covers the expected transitions.
    let log = parse_jsonl(std::str::from_utf8(&a).unwrap());
    assert_eq!(log.garbage_lines, 0);
    let labels: Vec<&str> = log.events.iter().map(Event::kind_label).collect();
    for needle in ["local_steps", "ring_enter", "ring_exit", "device_finished"] {
        assert!(labels.contains(&needle), "missing {needle}: {labels:?}");
    }
    let Some(EventKind::LocalSteps { steps, version, .. }) = log
        .events
        .iter()
        .find(|e| e.kind_label() == "local_steps")
        .map(|e| e.kind.clone())
    else {
        unreachable!("asserted above");
    };
    assert_eq!(steps, 3, "first batch covers the pre-report window");
    assert_eq!(version, 3);
}

/// The port is the one injection point: `run_device` over a
/// `claim_instrumented` port on a `ManualClock` — the handle and the
/// clock passed nowhere else — logs the device lifecycle on the same
/// `t_us` scale as that port's frame events. The only thing that moves
/// the clock is the loop's own `step_sleep` per local step, so every
/// timestamp is the epoch plus the steps taken so far.
#[test]
fn run_device_logs_on_its_ports_clock() {
    let k = 2;
    let epoch_us = 5_000;
    let step = Duration::from_millis(3);
    let clock = ManualClock::new();
    clock.advance(Duration::from_micros(epoch_us));
    let sink = hadfl_telemetry::RingBufferSink::new(4096);
    let tel = Telemetry::new(0, vec![Box::new(sink.clone())]);

    let mut hub = ChannelTransport::hub(k + 1);
    let port = hub
        .claim_instrumented(0, tel, Some(Arc::new(clock.clone())))
        .unwrap();
    let mut coord = hub.claim(coordinator_id(k)).unwrap();
    let rt = Workload::quick("mlp", 43)
        .build(k)
        .unwrap()
        .runtimes
        .remove(0);
    let config = HadflConfig::builder().seed(43).build().unwrap();
    let timing = ProtocolTiming::quick();

    thread::scope(|scope| {
        let device = scope.spawn(|| run_device(port, rt, &config, step, &timing));
        // Ask for reports until the device has trained at least once,
        // so the shutdown closes a non-empty step batch.
        loop {
            coord.send(0, &Message::ReportRequest { round: 1 }).unwrap();
            match coord.recv_timeout(Duration::from_secs(10)).unwrap() {
                Some(Message::VersionReport { version, .. }) if version >= 1.0 => break,
                Some(Message::VersionReport { .. }) => {}
                other => panic!("expected a version report, got {other:?}"),
            }
        }
        coord.send(0, &Message::Shutdown).unwrap();
        device.join().unwrap().unwrap();
    });

    let events = sink.snapshot();
    let at = |steps: u64| epoch_us + steps * step.as_micros() as u64;
    let mut last_t = 0;
    let mut frames = 0;
    let mut steps_logged = 0;
    let mut finished_at = None;
    for event in &events {
        assert!(event.t_us >= last_t, "one clock never runs backwards");
        last_t = event.t_us;
        match &event.kind {
            EventKind::DeviceStarted { device: 0 } => assert_eq!(event.t_us, at(0)),
            EventKind::LocalSteps { steps, version, .. } => {
                steps_logged += steps;
                assert_eq!(steps_logged, *version);
                assert_eq!(event.t_us, at(*version), "a batch closes at its last step");
            }
            EventKind::DeviceFinished { version, .. } => {
                assert_eq!(event.t_us, at(*version));
                finished_at = Some(event.t_us);
            }
            EventKind::FrameSent { .. } | EventKind::FrameReceived { .. } => frames += 1,
            _ => {}
        }
    }
    assert!(steps_logged >= 1, "no local steps logged: {events:?}");
    let finished_at = finished_at.expect("device_finished logged through the port's handle");
    assert!(frames >= 4, "report + shutdown in, report + final out");
    // The frames around the shutdown sit on the actor's own timestamps.
    let around_shutdown: Vec<u64> = events
        .iter()
        .filter(|e| match &e.kind {
            EventKind::FrameReceived { kind, .. } => kind == "shutdown",
            EventKind::FrameSent { kind, .. } => kind == "final_params",
            _ => false,
        })
        .map(|e| e.t_us)
        .collect();
    assert_eq!(around_shutdown, [finished_at, finished_at]);
}

/// A `ManualClock` whose every sleep overshoots by a fixed amount, as
/// `thread::sleep` does on a real host.
struct OvershootClock {
    inner: ManualClock,
    overshoot: Duration,
}

impl Clock for OvershootClock {
    fn now(&self) -> Duration {
        self.inner.now()
    }

    fn sleep(&self, d: Duration) {
        self.inner.advance(d + self.overshoot);
    }
}

/// Local steps are paced by deadline, not by sleep length: a sleep that
/// always overshoots by 500 µs comes out of the next wait, so the
/// device's `v`-th step still ends one overshoot past `v` periods
/// instead of `v` overshoots past them.
#[test]
fn run_device_absorbs_sleep_overshoot() {
    let k = 2;
    let epoch_us = 5_000;
    let step = Duration::from_millis(3);
    let overshoot = Duration::from_micros(500);
    let clock = ManualClock::new();
    clock.advance(Duration::from_micros(epoch_us));
    let sink = hadfl_telemetry::RingBufferSink::new(4096);
    let tel = Telemetry::new(0, vec![Box::new(sink.clone())]);

    let mut hub = ChannelTransport::hub(k + 1);
    let port_clock = Arc::new(OvershootClock {
        inner: clock.clone(),
        overshoot,
    });
    let port = hub.claim_instrumented(0, tel, Some(port_clock)).unwrap();
    let mut coord = hub.claim(coordinator_id(k)).unwrap();
    let rt = Workload::quick("mlp", 43)
        .build(k)
        .unwrap()
        .runtimes
        .remove(0);
    let config = HadflConfig::builder().seed(43).build().unwrap();
    let timing = ProtocolTiming::quick();

    thread::scope(|scope| {
        let device = scope.spawn(|| run_device(port, rt, &config, step, &timing));
        // Ask for reports until the device has trained a few steps, so
        // the overshoot has had the chance to pile up.
        loop {
            coord.send(0, &Message::ReportRequest { round: 1 }).unwrap();
            match coord.recv_timeout(Duration::from_secs(10)).unwrap() {
                Some(Message::VersionReport { version, .. }) if version >= 3.0 => break,
                Some(Message::VersionReport { .. }) => {}
                other => panic!("expected a version report, got {other:?}"),
            }
        }
        coord.send(0, &Message::Shutdown).unwrap();
        device.join().unwrap().unwrap();
    });

    let at = |steps: u64| match steps {
        0 => epoch_us,
        _ => epoch_us + steps * step.as_micros() as u64 + overshoot.as_micros() as u64,
    };
    let mut stamped = 0;
    for event in &sink.snapshot() {
        match &event.kind {
            EventKind::LocalSteps { version, .. } | EventKind::DeviceFinished { version, .. } => {
                assert_eq!(event.t_us, at(*version), "version {version}: {event:?}");
                stamped += 1;
            }
            _ => {}
        }
    }
    assert!(stamped >= 2, "a step batch and the finish are stamped");
}
