use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

use hadfl_simnet::NetStats;
use hadfl_telemetry::{Event, EventKind, RingBufferSink, Telemetry};

use super::*;
use crate::clock::{Clock, ManualClock, WallClock};
use crate::config::HadflConfig;
use crate::transport::{coordinator_id, ChannelTransport, Port};
use crate::wire::Message;
use crate::workload::Workload;

fn quick_config(seed: u64) -> HadflConfig {
    HadflConfig::builder()
        .num_selected(2)
        .seed(seed)
        .build()
        .unwrap()
}

#[test]
fn threaded_run_completes_all_rounds() {
    let report = run_threaded(
        &Workload::quick("mlp", 61),
        &quick_config(61),
        &ThreadedOptions::quick(&[2.0, 1.0, 1.0]),
    )
    .unwrap();
    assert_eq!(report.rounds.len(), 3);
    assert!(report.final_accuracy.is_finite());
    assert!(
        report.peer_bytes > 0,
        "parameters must have moved between threads"
    );
    assert!(report.wall >= Duration::from_millis(3 * 60));
    assert!(report.dropped.is_empty());
}

#[test]
fn fast_device_accumulates_more_versions() {
    // Virtual time makes the heterogeneity assertion exact: the
    // power-4 device steps every 2 ms of simulated time, the
    // power-1 device every 8 ms, so per 80 ms window the version
    // gap is 4x by construction — no OS scheduler involved.
    let report = run_virtual(
        &Workload::quick("mlp", 62),
        &quick_config(62),
        &ThreadedOptions {
            powers: vec![4.0, 1.0],
            step_sleep: Duration::from_millis(8),
            window: Duration::from_millis(80),
            rounds: 2,
            timing: ProtocolTiming::quick(),
        },
    )
    .unwrap();
    let last = report.rounds.last().unwrap();
    assert!(
        last.versions[0] > last.versions[1],
        "power-4 device should outpace power-1: {:?}",
        last.versions
    );
}

#[test]
fn virtual_run_completes_rounds_and_is_deterministic() {
    let w = Workload::quick("mlp", 65);
    let c = quick_config(65);
    let opts = ThreadedOptions::quick(&[2.0, 1.0, 1.0]);
    let report = run_virtual(&w, &c, &opts).unwrap();
    assert_eq!(report.rounds.len(), 3);
    assert!(report.final_accuracy.is_finite());
    assert!(
        report.peer_bytes > 0,
        "parameters must have moved through the hub"
    );
    assert!(report.dropped.is_empty());
    assert!(report.wall >= Duration::from_millis(3 * 60));

    let again = run_virtual(&w, &c, &opts).unwrap();
    assert_eq!(report.rounds, again.rounds);
    assert_eq!(report.wall, again.wall);
    assert_eq!(report.peer_bytes, again.peer_bytes);
    assert!((report.final_accuracy - again.final_accuracy).abs() < 1e-12);
}

#[test]
fn virtual_run_validates_options_like_threaded() {
    let w = Workload::quick("mlp", 66);
    let c = quick_config(66);
    assert!(run_virtual(&w, &c, &ThreadedOptions::quick(&[1.0])).is_err());
    let mut bad = ThreadedOptions::quick(&[1.0, 1.0]);
    bad.powers = vec![1.0, f64::NAN];
    assert!(run_virtual(&w, &c, &bad).is_err());
    // A period no `Duration` holds, and one that never advances time.
    let mut bad = ThreadedOptions::quick(&[1.0, 1.0]);
    bad.powers = vec![1.0, 1e-30];
    assert!(run_virtual(&w, &c, &bad).is_err());
    let mut bad = ThreadedOptions::quick(&[1.0, 1.0]);
    bad.step_sleep = Duration::ZERO;
    assert!(run_virtual(&w, &c, &bad).is_err());
}

#[test]
fn every_round_selects_a_valid_ring() {
    let report = run_threaded(
        &Workload::quick("mlp", 63),
        &quick_config(63),
        &ThreadedOptions::quick(&[1.0, 1.0, 1.0, 1.0]),
    )
    .unwrap();
    for r in &report.rounds {
        assert_eq!(r.selected.len(), 2);
        assert!(r.selected.iter().all(|&d| d < 4));
    }
}

#[test]
fn validates_options() {
    let w = Workload::quick("mlp", 64);
    let c = quick_config(64);
    assert!(run_threaded(&w, &c, &ThreadedOptions::quick(&[1.0])).is_err());
    let mut bad = ThreadedOptions::quick(&[1.0, 1.0]);
    bad.rounds = 0;
    assert!(run_threaded(&w, &c, &bad).is_err());
    let mut bad = ThreadedOptions::quick(&[1.0, 1.0]);
    bad.powers = vec![1.0, -1.0];
    assert!(run_threaded(&w, &c, &bad).is_err());
    let mut bad = ThreadedOptions::quick(&[1.0, 1.0]);
    bad.powers = vec![1.0, 1e-30];
    assert!(run_threaded(&w, &c, &bad).is_err());
}

/// `run_cluster` turns each power into a step period, so a power it
/// cannot divide by must be refused before any thread starts.
#[test]
fn run_cluster_rejects_bad_powers_and_zero_rounds() {
    let c = quick_config(64);
    let run = |opts: ThreadedOptions| {
        let k = opts.powers.len();
        let mut hub = ChannelTransport::hub(k + 1);
        let coordinator_port = hub.claim(coordinator_id(k)).unwrap();
        let device_ports = (0..k).map(|i| hub.claim(i).unwrap()).collect();
        let runtimes = Workload::quick("mlp", 64).build(k).unwrap().runtimes;
        run_cluster(device_ports, coordinator_port, runtimes, &c, &opts)
    };
    let mut zero_rounds = ThreadedOptions::quick(&[1.0, 1.0]);
    zero_rounds.rounds = 0;
    let bad_powers = [0.0, f64::NAN, -1.0, 1e-30].map(|p| ThreadedOptions::quick(&[p, 1.0]));
    for opts in bad_powers.into_iter().chain([zero_rounds]) {
        let case = format!("powers {:?}, {} rounds", opts.powers, opts.rounds);
        let result = run(opts);
        assert!(
            matches!(result, Err(HadflError::InvalidConfig(_))),
            "{case}: {result:?}"
        );
    }
}

#[test]
fn comm_ledger_matches_peer_bytes() {
    let report = run_threaded(
        &Workload::quick("mlp", 65),
        &quick_config(65),
        &ThreadedOptions::quick(&[1.0, 1.0, 1.0]),
    )
    .unwrap();
    let device_total: u64 = report.comm.total_bytes - report.comm.server_bytes;
    assert_eq!(report.peer_bytes, device_total);
    assert!(report.comm.messages > 0);
    // Control traffic through the coordinator must be negligible
    // next to the parameter frames (decentralization claim).
    assert!(report.comm.server_bytes < report.peer_bytes);
}

/// A device the coordinator drops keeps training — being excluded
/// from planning does not stop its loop. Shutdown must reach it
/// anyway, or the harness would block forever joining its thread.
#[test]
fn shutdown_reaches_dropped_devices() {
    let k = 3;
    let config = quick_config(67);
    let workload = Workload::quick("mlp", 67);
    let built = workload.build(k).unwrap();
    let mut timing = ProtocolTiming::quick();
    timing.report_deadline = Duration::from_millis(500);
    let step_sleep = Duration::from_millis(4);

    let mut hub = ChannelTransport::hub(k + 1);
    let coordinator_port = hub.claim(coordinator_id(k)).unwrap();
    let mute_id = 2usize;
    let mut mute_port = hub.claim(mute_id).unwrap();
    let mut ports: Vec<_> = (0..k)
        .filter(|&i| i != mute_id)
        .map(|i| hub.claim(i).unwrap())
        .collect();

    let outcome = thread::scope(|scope| {
        let mut runtimes: Vec<_> = built.runtimes.into_iter().enumerate().collect();
        runtimes.retain(|(i, _)| *i != mute_id);
        for ((_, rt), port) in runtimes.into_iter().zip(ports.drain(..)) {
            let timing = timing.clone();
            let config = &config;
            scope.spawn(move || run_device(port, rt, config, step_sleep, &timing));
        }
        // The mute device never reports (so it is dropped in round
        // 1) but stays alive until it hears Shutdown.
        scope.spawn(move || {
            let clock = WallClock::new();
            let deadline = clock.now() + Duration::from_secs(30);
            loop {
                assert!(
                    clock.now() < deadline,
                    "dropped device never heard Shutdown"
                );
                if let Ok(Some(Message::Shutdown)) =
                    mute_port.recv_timeout(Duration::from_millis(100))
                {
                    return;
                }
            }
        });
        run_coordinator(
            coordinator_port,
            &config,
            Duration::from_millis(60),
            2,
            &timing,
        )
    })
    .unwrap();

    assert!(
        outcome.dropped.iter().any(|&(d, _)| d == mute_id),
        "mute device must be dropped: {:?}",
        outcome.dropped
    );
    assert_eq!(outcome.final_models.len(), 2);
}

/// When the cluster collapses below two devices the coordinator
/// errors out — but it must still shut the stragglers down instead
/// of leaving them training forever.
#[test]
fn cluster_dead_still_shuts_devices_down() {
    let k = 2;
    let config = quick_config(68);
    let mut timing = ProtocolTiming::quick();
    timing.report_deadline = Duration::from_millis(300);

    let mut hub = ChannelTransport::hub(k + 1);
    let coordinator_port = hub.claim(coordinator_id(k)).unwrap();
    let mut mute_ports: Vec<_> = (0..k).map(|i| hub.claim(i).unwrap()).collect();

    let err = thread::scope(|scope| {
        for mut port in mute_ports.drain(..) {
            scope.spawn(move || {
                let clock = WallClock::new();
                let deadline = clock.now() + Duration::from_secs(30);
                loop {
                    assert!(
                        clock.now() < deadline,
                        "device never heard Shutdown after ClusterDead"
                    );
                    if let Ok(Some(Message::Shutdown)) =
                        port.recv_timeout(Duration::from_millis(100))
                    {
                        return;
                    }
                }
            });
        }
        run_coordinator(
            coordinator_port,
            &config,
            Duration::from_millis(40),
            2,
            &timing,
        )
    })
    .unwrap_err();
    assert!(
        matches!(err, HadflError::ClusterDead { round: 1 }),
        "expected ClusterDead, got {err:?}"
    );
}

/// TCP gives no ordering between the coordinator's connection and a
/// peer's: a ring frame can arrive before the RoundPlan it belongs
/// to. The actor holds it and replays it once the plan lands; here the
/// replay closes the reduce and sends the merged model on.
#[test]
fn ring_frames_overtaking_their_plan_are_replayed() {
    let k = 2;
    let mut hub = ChannelTransport::hub(k + 1);
    let mut port = hub.claim(0).unwrap();
    let mut peer = hub.claim(1).unwrap();
    let mut actor = stub_actor(0, k);
    let t = Duration::ZERO;
    let accum = Message::param_accum(1, 1, vec![3.0, 4.0]);
    actor.on_message(&mut port, accum, t).unwrap();
    assert_eq!(actor.ring_round(), None, "held: there is no ring yet");
    let plan = Message::round_plan(1, vec![1, 0], 1, vec![]);
    actor.on_message(&mut port, plan, t).unwrap();
    assert_eq!(actor.done_round(), 1, "the replayed frame closed the ring");
    let merged = Message::MergedParams {
        round: 1,
        ttl: 1,
        params: vec![2.0, 3.0],
    };
    assert_eq!(peer.try_recv().unwrap(), Some(merged));
    assert_eq!(actor.train().params, vec![2.0, 3.0]);
}

/// A planned ring member that dies silently mid-protocol: it
/// reports versions (so the coordinator keeps planning it) but
/// ignores ring frames and handshakes. The live members must detect
/// it via the §III-D probe and close the ring around it.
#[test]
fn ring_bypasses_a_silent_member() {
    let k = 4;
    let seed = 66;
    let workload = Workload::quick("mlp", seed);
    // Select every device so the zombie is in the ring from round 1.
    let config = HadflConfig::builder()
        .num_selected(4)
        .seed(seed)
        .build()
        .unwrap();
    let built = workload.build(k).unwrap();
    let timing = ProtocolTiming::quick();
    let step_sleep = Duration::from_millis(4);

    let mut hub = ChannelTransport::hub(k + 1);
    let coordinator_port = hub.claim(coordinator_id(k)).unwrap();
    let zombie_id = 2usize;
    let mut zombie_port = hub.claim(zombie_id).unwrap();
    let mut ports: Vec<_> = (0..k)
        .filter(|&i| i != zombie_id)
        .map(|i| hub.claim(i).unwrap())
        .collect();

    let outcome = thread::scope(|scope| {
        let mut runtimes: Vec<_> = built.runtimes.into_iter().enumerate().collect();
        runtimes.retain(|(i, _)| *i != zombie_id);
        for ((_, rt), port) in runtimes.into_iter().zip(ports.drain(..)) {
            let timing = timing.clone();
            let config = &config;
            scope.spawn(move || run_device(port, rt, config, step_sleep, &timing));
        }
        // The zombie answers the first version report and then dies
        // silently — a death *after* planning, which only the
        // in-ring handshake path can catch.
        scope.spawn(move || loop {
            match zombie_port.recv_timeout(Duration::from_secs(5)) {
                Ok(Some(Message::ReportRequest { round })) => {
                    let _ = zombie_port.send(
                        k,
                        &Message::VersionReport {
                            device: zombie_id as u32,
                            round,
                            version: 1.0,
                        },
                    );
                    return;
                }
                Ok(Some(_)) => {}
                _ => return,
            }
        });
        run_coordinator(
            coordinator_port,
            &config,
            Duration::from_millis(60),
            2,
            &timing,
        )
    })
    .unwrap();

    assert_eq!(outcome.rounds.len(), 2);
    assert!(
        outcome.dropped.iter().any(|&(d, _)| d == zombie_id),
        "zombie must be reported dead via the bypass path: {:?}",
        outcome.dropped
    );
    // The three live devices all upload final parameters.
    assert_eq!(outcome.final_models.len(), 3);
    assert!(!outcome.final_models.contains_key(&zombie_id));
}

/// A minimal [`TrainState`] for single-stepping the actors without
/// a real training substrate.
#[derive(Debug, Clone)]
struct StubTrain {
    params: Vec<f32>,
    steps: u64,
}

impl TrainState for StubTrain {
    fn params(&self) -> Vec<f32> {
        self.params.clone()
    }
    fn set_params(&mut self, params: &[f32]) -> Result<(), HadflError> {
        self.params = params.to_vec();
        Ok(())
    }
    fn train_step(&mut self) -> Result<(), HadflError> {
        self.steps += 1;
        Ok(())
    }
    fn version(&self) -> f64 {
        self.steps as f64
    }
}

fn stub_actor(me: usize, k: usize) -> DeviceActor<StubTrain> {
    DeviceActor::new(
        me,
        k + 1,
        StubTrain {
            params: vec![1.0, 2.0],
            steps: 0,
        },
        0.5,
        ProtocolTiming::zero(),
    )
}

/// [`run_virtual_cluster`] over `k` equal-power stub devices, every
/// participant's telemetry captured in one buffer in emission order,
/// next to the hub's byte ledger.
fn instrumented_virtual_run(
    k: usize,
    num_selected: usize,
    window: Duration,
    kills: &[(usize, Duration)],
) -> (CoordinatorRun, NetStats, Vec<Event>) {
    let config = HadflConfig::builder()
        .num_selected(num_selected)
        .seed(73)
        .build()
        .unwrap();
    instrumented_planned_run(StrategyGenerator::new(&config), &config, k, window, kills)
}

/// [`instrumented_virtual_run`] around any planner.
fn instrumented_planned_run(
    planner: impl Planner,
    config: &HadflConfig,
    k: usize,
    window: Duration,
    kills: &[(usize, Duration)],
) -> (CoordinatorRun, NetStats, Vec<Event>) {
    let buffer = RingBufferSink::new(1 << 16);
    let telemetry: Vec<Telemetry> = (0..=k as u32)
        .map(|node| Telemetry::new(node, vec![Box::new(buffer.clone())]))
        .collect();
    let states = (0..k)
        .map(|i| StubTrain {
            params: vec![i as f32, 1.0],
            steps: 0,
        })
        .collect();
    let opts = ThreadedOptions {
        rounds: 2,
        window,
        ..ThreadedOptions::quick(&vec![1.0; k])
    };
    let (run, stats, _) =
        run_virtual_cluster(states, planner, config, &opts, &telemetry, kills).unwrap();
    assert_eq!(buffer.dropped(), 0);
    (run, stats, buffer.snapshot())
}

/// The generic entry takes states, not a workload: everything
/// [`run_virtual`] gets checked through `opts` is checked against the
/// states there, once, next to what only it accepts.
#[test]
fn virtual_cluster_validates_states_handles_and_kills() {
    let run = |k: usize, opts: &ThreadedOptions, handles: usize, kills: &[(usize, Duration)]| {
        let config = quick_config(74);
        let states = (0..k)
            .map(|_| StubTrain {
                params: vec![0.0],
                steps: 0,
            })
            .collect();
        let telemetry = vec![Telemetry::disabled(); handles];
        let planner = StrategyGenerator::new(&config);
        run_virtual_cluster(states, planner, &config, opts, &telemetry, kills).map(|_| ())
    };
    let opts = ThreadedOptions::quick(&[1.0, 1.0, 1.0]);
    run(3, &opts, 0, &[]).unwrap();
    run(3, &opts, 4, &[(2, Duration::ZERO)]).unwrap();
    let zero_rounds = ThreadedOptions {
        rounds: 0,
        ..opts.clone()
    };
    for (what, result) in [
        ("one state", run(1, &ThreadedOptions::quick(&[1.0]), 0, &[])),
        ("2 states, 3 powers", run(2, &opts, 0, &[])),
        ("3 handles for 3 devices", run(3, &opts, 3, &[])),
        (
            "kill of device 3 of 3",
            run(3, &opts, 0, &[(3, Duration::ZERO)]),
        ),
        ("zero rounds", run(3, &zero_rounds, 0, &[])),
    ] {
        assert!(
            matches!(result, Err(HadflError::InvalidConfig(_))),
            "{what}: {result:?}"
        );
    }
}

/// With every handle on, the virtual cluster's whole event stream —
/// port frames and actor milestones of all participants, a §III-D
/// repair included — is a function of its inputs, byte for byte.
#[test]
fn virtual_cluster_stream_is_byte_identical_across_runs() {
    let jsonl = || -> Vec<String> {
        let kills = [(1, Duration::from_millis(90))];
        let (run, _, events) = instrumented_virtual_run(4, 3, Duration::from_millis(60), &kills);
        assert_eq!(run.dropped, vec![(1, 2)]);
        events.iter().map(|e| e.to_json().unwrap()).collect()
    };
    assert_eq!(jsonl(), jsonl());
}

/// The virtual cluster's event streams, pinned by FNV-1a fingerprint
/// of their JSONL and by length: a refactor of the actors that reorders
/// a span or an event, or adds or loses one, changes the fingerprint
/// even though every run still equals itself.
#[test]
fn virtual_cluster_streams_match_pinned_fingerprints() {
    let fingerprint = |k, num_selected, kills: &[(usize, Duration)]| {
        let (_, _, events) =
            instrumented_virtual_run(k, num_selected, Duration::from_millis(60), kills);
        let hash = events.iter().fold(0xcbf2_9ce4_8422_2325, |h, e| {
            let line = e.to_json().unwrap() + "\n";
            line.bytes().fold(h, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        });
        (hash, events.len())
    };
    // A ring of 3 of 4 with device 1 killed at 90 ms: a §III-D bypass
    // inside the ring.
    assert_eq!(
        fingerprint(4, 3, &[(1, Duration::from_millis(90))]),
        (8288881713135238642, 157),
        "bypass inside the ring"
    );
    // A ring of 2 of 3 whose broadcaster serves the third device.
    assert_eq!(
        fingerprint(3, 2, &[]),
        (13994083135427376221, 122),
        "ring and broadcast"
    );
}

/// One `FrameSent` per frame a port charged to the hub's ledger — a
/// §III-D bypass re-send included — so summing the stream gives the
/// ledger's [`CommSummary`], field for field.
#[test]
fn virtual_cluster_frames_sum_to_the_hub_ledger() {
    // The schedule of `virtual_ring_bypasses_a_member_killed_after_reporting`.
    let k = 5;
    let kills = [(4, Duration::ZERO), (2, Duration::from_millis(1500))];
    let (_, stats, events) = instrumented_virtual_run(k, 4, Duration::from_secs(1), &kills);
    let declared = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::BypassDeclared { dead: 2, .. }))
        .expect("the ring found device 2 dead");
    let resent = events[declared..]
        .iter()
        .take_while(|e| !matches!(e.kind, EventKind::Merge { .. }))
        .any(|e| matches!(&e.kind, EventKind::FrameSent { kind, .. } if kind == "param_accum"));
    assert!(resent, "the repair re-sends the running sum past device 2");
    assert_eq!(
        CommSummary::from_events(&events, k),
        CommSummary::from_stats(&stats, k)
    );
}

/// [`shutdown_reaches_dropped_devices`] in virtual time: a device dead
/// before its first report is dropped at the round-1 deadline, and the
/// coordinator still addresses it a `Shutdown`.
#[test]
fn virtual_shutdown_reaches_a_device_killed_before_its_first_report() {
    let (run, _, events) =
        instrumented_virtual_run(3, 2, Duration::from_millis(60), &[(2, Duration::ZERO)]);
    assert_eq!(run.rounds.len(), 2);
    assert_eq!(run.dropped, vec![(2, 1)]);
    assert_eq!(run.final_models.len(), 2);
    let dropped = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::DeviceDropped { device: 2, .. }))
        .expect("DeviceDropped for device 2");
    let shutdown = events
        .iter()
        .position(|e| {
            matches!(&e.kind, EventKind::FrameSent { src: 3, dst: 2, kind, .. }
                if kind == "shutdown")
        })
        .expect("Shutdown sent to the dropped device");
    assert!(dropped < shutdown);
    assert!(
        !events.iter().any(|e| e.node == 2
            && matches!(
                e.kind,
                EventKind::LocalSteps { .. } | EventKind::FrameReceived { .. }
            )),
        "a device killed at time zero neither steps nor reads its mailbox"
    );
}

/// [`ring_bypasses_a_silent_member`] in virtual time. Device 4 is dead
/// from the start, which holds round 1's collection open until the
/// report deadline; device 2 reports, then dies inside that wait, so
/// the plan rings it in. Its downstream probes (§III-D), warns, and
/// the ring closes around it. The warning lands in round 2's window,
/// which the coordinator sleeps through: it is read as the collection
/// opens, ending it there instead of at the report deadline.
#[test]
fn virtual_ring_bypasses_a_member_killed_after_reporting() {
    let kills = [(4, Duration::ZERO), (2, Duration::from_millis(1500))];
    let (run, _, events) = instrumented_virtual_run(5, 4, Duration::from_secs(1), &kills);
    assert_eq!(run.rounds.len(), 2);
    assert_eq!(run.rounds[0].selected.len(), 4, "{:?}", run.rounds[0]);
    assert_eq!(run.dropped, vec![(4, 1), (2, 2)]);
    assert_eq!(run.final_models.len(), 3);
    let at = |pred: &dyn Fn(&EventKind) -> bool| {
        let event = events.iter().find(|e| pred(&e.kind)).expect("event");
        Duration::from_micros(event.t_us)
    };
    let probed = at(
        &|kind| matches!(kind, EventKind::FrameSent { dst: 2, kind, .. } if kind == "handshake"),
    );
    let declared = at(&|kind| matches!(kind, EventKind::BypassDeclared { dead: 2, .. }));
    let dropped = at(&|kind| matches!(kind, EventKind::DeviceDropped { device: 2, .. }));
    // Window 1 s + report deadline 5 s: the ring forms at 6 s.
    let timing = ProtocolTiming::quick();
    assert_eq!(probed, Duration::from_secs(6) + timing.ring_wait);
    assert_eq!(declared, probed + timing.handshake_wait);
    assert_eq!(dropped, Duration::from_secs(7), "round 2's window closes");
    assert!(events.iter().any(|e| matches!(
        e.kind,
        EventKind::Merge {
            participants: 3,
            ..
        }
    )));
}

/// A ring member's silence runs from the last event it handled: a
/// device training outside the ring does not restart it. Device 4 is
/// dead from the start, so round 1 is planned at its report deadline,
/// 7 s; device 2 reports, then dies, and is ringed with 0 and 1 while 3
/// trains unselected. Device 0 hears nothing from its upstream 2: it
/// probes at 7 s + `ring_wait` and closes the ring around 2 one
/// `handshake_wait` later.
#[test]
fn virtual_ring_silence_runs_while_others_train() {
    /// Ring 0 → 1 → 2 with 3 unselected in round 1, everyone after.
    struct FixedRing(usize);
    impl Planner for FixedRing {
        fn plan(&mut self, available: &[DeviceId], _: &[f64]) -> Result<RoundPlan, HadflError> {
            self.0 += 1;
            let (ring, unselected) = match self.0 {
                1 => (
                    vec![DeviceId(0), DeviceId(1), DeviceId(2)],
                    vec![DeviceId(3)],
                ),
                _ => (available.to_vec(), vec![]),
            };
            Ok(RoundPlan {
                selected: ring.clone(),
                ring: crate::topology::Ring::from_order(ring.clone())?,
                unselected,
                broadcaster: ring[0],
            })
        }
    }
    let window = Duration::from_secs(2);
    let kills = [(4, Duration::ZERO), (2, window + Duration::from_millis(1))];
    let config = quick_config(76);
    let (_, _, events) = instrumented_planned_run(FixedRing(0), &config, 5, window, &kills);
    let repaired = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::RingRepair { round: 1, dead: 2 }))
        .expect("round 1's ring closes around device 2");
    let timing = ProtocolTiming::quick();
    assert_eq!(
        Duration::from_micros(repaired.t_us),
        Duration::from_secs(7) + timing.ring_wait + timing.handshake_wait
    );
}

/// Eq. 7's error table starts where forecasts do. A device the
/// supervisor has not observed is planned at its report and logs no
/// `Prediction`, so the report has no round-1 row charging it the whole
/// version; every logged forecast is the version the plan used.
#[test]
fn predictions_are_the_plans_forecasts_and_start_at_round_two() {
    let (run, _, events) = instrumented_virtual_run(3, 2, Duration::from_millis(60), &[]);
    let report = hadfl_telemetry::analyze::report(&events);
    let rounds: Vec<u32> = report.prediction_error.iter().map(|&(r, _)| r).collect();
    assert_eq!(rounds, vec![2], "{:?}", report.prediction_error);

    let plans: Vec<(Vec<u32>, Vec<f64>)> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::RoundPlanned {
                available,
                versions,
                ..
            } => Some((available.clone(), versions.clone())),
            _ => None,
        })
        .collect();
    let reported: Vec<f64> = run.rounds[0].versions.iter().map(|&v| v as f64).collect();
    assert_eq!(
        plans[0],
        (vec![0, 1, 2], reported),
        "round 1 plans at the reports"
    );
    let mut forecasts = 0;
    for e in &events {
        if let EventKind::Prediction {
            round,
            device,
            predicted,
            ..
        } = e.kind
        {
            let (available, versions) = &plans[round as usize - 1];
            let at = available.iter().position(|&d| d == device).unwrap();
            assert_eq!(versions[at], predicted, "round {round} device {device}");
            forecasts += 1;
        }
    }
    assert_eq!(forecasts, 3, "one forecast per device in round 2");
}

/// A ghost whose version advances one per step until `slow_after`
/// steps, then on every other step only: the device halves its speed
/// mid-run, as in `examples/version_prediction.rs`.
struct SlowingGhost {
    calls: u64,
    version: u64,
    slow_after: u64,
}

impl TrainState for SlowingGhost {
    fn params(&self) -> Vec<f32> {
        vec![0.0]
    }
    fn set_params(&mut self, _params: &[f32]) -> Result<(), HadflError> {
        Ok(())
    }
    fn train_step(&mut self) -> Result<(), HadflError> {
        self.calls += 1;
        if self.calls <= self.slow_after || self.calls.is_multiple_of(2) {
            self.version += 1;
        }
        Ok(())
    }
    fn version(&self) -> f64 {
        self.version as f64
    }
}

/// The paper's strategy generator, logging the versions it is handed.
struct RecordingPlanner {
    inner: StrategyGenerator,
    log: Arc<Mutex<Vec<Vec<f64>>>>,
}

impl Planner for RecordingPlanner {
    fn plan(&mut self, available: &[DeviceId], versions: &[f64]) -> Result<RoundPlan, HadflError> {
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(versions.to_vec());
        self.inner.plan_round(available, versions)
    }
}

/// Eq. 7 planning through the actors, on a `ManualClock`. Two devices
/// step every 10 ms of a 100 ms window, so each reports 10 versions
/// per round until device 1 halves its speed after 30 steps: reports
/// are 10, 20, 30, 40, 50 and 10, 20, 30, 35, 40. Round 1 is planned
/// at the reports; from round 2 the planner gets the supervisor's
/// forecast at `smoothing_alpha` = 0.5, made before that round's
/// reports (`predict.rs::two_observations_match_eq7_by_hand`):
///
/// - round 2, one observation [10]: the forecast echoes it, 10;
/// - round 3, [10, 20]: s₁ = 15, s₂ = 12.5, a = 17.5, b = 2.5 → 20;
/// - round 4, [.., 30]: s₁ = 22.5, s₂ = 17.5, a = 27.5, b = 5 → 32.5;
/// - round 5, [.., 40]: s₁ = 31.25, s₂ = 24.375, a = 38.125,
///   b = 6.875 → 45; [.., 35]: s₁ = 28.75, s₂ = 23.125, a = 34.375,
///   b = 5.625 → 40.
///
/// The inputs are the same with telemetry on and off.
#[test]
fn coordinator_plans_from_eq7_forecasts() {
    let config = HadflConfig::builder()
        .smoothing_alpha(0.5)
        .seed(75)
        .build()
        .unwrap();
    let opts = ThreadedOptions {
        powers: vec![1.0, 1.0],
        step_sleep: Duration::from_millis(10),
        window: Duration::from_millis(100),
        rounds: 5,
        timing: ProtocolTiming::quick(),
    };
    let planned = |telemetry: &[Telemetry]| {
        let log = Arc::new(Mutex::new(Vec::new()));
        let planner = RecordingPlanner {
            inner: StrategyGenerator::new(&config),
            log: Arc::clone(&log),
        };
        let states = [u64::MAX, 30]
            .into_iter()
            .map(|slow_after| SlowingGhost {
                calls: 0,
                version: 0,
                slow_after,
            })
            .collect();
        let (run, _, _) =
            run_virtual_cluster(states, planner, &config, &opts, telemetry, &[]).unwrap();
        let reported: Vec<Vec<u64>> = run.rounds.iter().map(|r| r.versions.clone()).collect();
        assert_eq!(
            reported,
            [[10, 10], [20, 20], [30, 30], [40, 35], [50, 40]],
            "the ghosts' reports"
        );
        Arc::try_unwrap(log).unwrap().into_inner().unwrap()
    };
    let expected = [
        [10.0, 10.0],
        [10.0, 10.0],
        [20.0, 20.0],
        [32.5, 32.5],
        [45.0, 40.0],
    ];
    let off = planned(&[]);
    assert_eq!(off, expected);
    let buffer = RingBufferSink::new(1 << 12);
    let telemetry: Vec<Telemetry> = (0..3)
        .map(|node| Telemetry::new(node, vec![Box::new(buffer.clone())]))
        .collect();
    assert_eq!(planned(&telemetry), off, "telemetry must not move the plan");
    assert!(buffer.snapshot().iter().any(
        |e| matches!(e.kind, EventKind::Prediction { round: 5, device: 1, predicted, actual }
            if predicted == 40.0 && actual == 40.0)
    ));
}

/// Single-stepped through a full two-member ring, the actor walks
/// Training → Ring → Training → Finished and its digest changes at
/// every transition.
#[test]
fn device_actor_single_steps_a_ring() {
    let k = 2;
    let mut hub = ChannelTransport::hub(k + 1);
    let mut port = hub.claim(0).unwrap();
    let mut peer = hub.claim(1).unwrap();
    let mut actor = stub_actor(0, k);
    let t = Duration::ZERO;

    assert_eq!(actor.hint(t), DeviceHint::Train);
    let mut d0 = Vec::new();
    actor.digest_into(&mut d0);

    actor
        .on_message(
            &mut port,
            Message::RoundPlan {
                round: 1,
                ring: vec![0, 1],
                broadcaster: 0,
                unselected: vec![],
            },
            t,
        )
        .unwrap();
    assert_eq!(actor.ring_round(), Some(1));
    let mut d1 = Vec::new();
    actor.digest_into(&mut d1);
    assert_ne!(d0, d1, "entering the ring must change the digest");
    // As live[0] the actor initiated the reduce.
    match peer.try_recv().unwrap() {
        Some(Message::ParamAccum {
            round: 1, hops: 1, ..
        }) => {}
        other => panic!("expected the opening accumulation, got {other:?}"),
    }

    actor
        .on_message(
            &mut port,
            Message::MergedParams {
                round: 1,
                ttl: 1,
                params: vec![5.0, 5.0],
            },
            t,
        )
        .unwrap();
    assert_eq!(actor.ring_round(), None);
    assert_eq!(actor.done_round(), 1);
    assert_eq!(actor.train().params, vec![5.0, 5.0]);

    actor.on_message(&mut port, Message::Shutdown, t).unwrap();
    assert!(actor.is_finished());
    assert_eq!(actor.hint(t), DeviceHint::Finished);
}

/// The device's wake contract through its phases. Training, it sleeps
/// until a step is due, reads the mail that waited, then steps and
/// sleeps one period more. In a ring it reads mail until `ring_wait`
/// after the last event it handled, then until the probe's deadline.
#[test]
fn device_actor_wakes_for_steps_then_for_ring_silence() {
    let k = 2;
    let mut hub = ChannelTransport::hub(k + 1);
    let mut port = hub.claim(0).unwrap();
    let _peer = hub.claim(1).unwrap();
    let timing = ProtocolTiming::quick();
    let state = StubTrain {
        params: vec![1.0, 2.0],
        steps: 0,
    };
    let p = Duration::from_millis(4);
    let mut actor = DeviceActor::new(0, k + 1, state, 0.5, timing.clone()).with_step_period(p);
    let t = Duration::from_millis(10);

    // The first step is due at once.
    assert_eq!(actor.wake(), Wake::Recv(Duration::ZERO));
    actor.on_wake(&mut port, t).unwrap();
    assert_eq!(actor.train().steps, 1);
    assert_eq!(actor.wake(), Wake::Sleep(t + p));
    actor.on_wake(&mut port, t + p).unwrap();
    assert_eq!(actor.wake(), Wake::Recv(t + p));
    // Mail read before the step leaves it due.
    let report = Message::ReportRequest { round: 1 };
    actor.on_message(&mut port, report, t + p).unwrap();
    assert_eq!(actor.wake(), Wake::Recv(t + p));
    actor.on_wake(&mut port, t + p).unwrap();
    assert_eq!(actor.train().steps, 2);
    assert_eq!(actor.wake(), Wake::Sleep(t + 2 * p));

    // Ring 1 → 0: silence runs from the plan, then from each event.
    actor.on_wake(&mut port, t + 2 * p).unwrap();
    let plan = Message::RoundPlan {
        round: 1,
        ring: vec![1, 0],
        broadcaster: 1,
        unselected: vec![],
    };
    let entered = t + 2 * p;
    actor.on_message(&mut port, plan, entered).unwrap();
    assert_eq!(actor.wake(), Wake::Recv(entered + timing.ring_wait));
    let heard = entered + Duration::from_millis(100);
    let probe = Message::Handshake { from: 1 };
    actor.on_message(&mut port, probe, heard).unwrap();
    let silent = heard + timing.ring_wait;
    assert_eq!(actor.wake(), Wake::Recv(silent));
    actor.on_wake(&mut port, silent).unwrap();
    assert!(actor.probe_suspect().is_some());
    assert_eq!(actor.wake(), Wake::Recv(silent + timing.handshake_wait));

    // Back in training after the ring, the late step is still due.
    let merged = Message::MergedParams {
        round: 1,
        ttl: 1,
        params: vec![5.0, 5.0],
    };
    actor.on_message(&mut port, merged, silent).unwrap();
    assert_eq!(actor.ring_round(), None);
    assert_eq!(actor.wake(), Wake::Recv(t + 2 * p));
    actor.on_wake(&mut port, silent).unwrap();
    assert_eq!(
        actor.wake(),
        Wake::Sleep(silent + p),
        "a late step restarts"
    );
    actor
        .on_message(&mut port, Message::Shutdown, silent)
        .unwrap();
    assert_eq!(actor.wake(), Wake::Done);
}

/// The coordinator's wake contract through its phases: it sleeps
/// through the window, reads reports until their deadline, reads final
/// uploads until theirs, and is done.
#[test]
fn coordinator_wakes_for_window_then_collections() {
    let k = 2;
    let config = quick_config(77);
    let timing = ProtocolTiming::quick();
    let window = Duration::from_millis(60);
    let mut hub = ChannelTransport::hub(k + 1);
    let mut port = hub.claim(coordinator_id(k)).unwrap();
    let _devices: Vec<_> = (0..k).map(|i| hub.claim(i).unwrap()).collect();
    let supervisor = crate::coordinator::RuntimeSupervisor::new(0.5, k).unwrap();
    let planner = StrategyGenerator::new(&config);
    let mut coord = CoordinatorActor::new(
        k,
        planner,
        supervisor,
        window,
        1,
        timing.clone(),
        Duration::ZERO,
    );

    assert_eq!(coord.wake(), Wake::Sleep(window));
    coord.on_wake(&mut port, window).unwrap();
    let reports = window + timing.report_deadline;
    assert_eq!(coord.wake(), Wake::Recv(reports));
    for device in 0..k as u32 {
        let report = Message::VersionReport {
            device,
            round: 1,
            version: 3.0,
        };
        coord.on_message(&mut port, report, window).unwrap();
    }
    // The last report closed the only round: the cluster shuts down.
    let uploads = window + timing.final_deadline;
    assert_eq!(coord.wake(), Wake::Recv(uploads));
    coord.on_wake(&mut port, uploads).unwrap();
    assert_eq!(coord.wake(), Wake::Done);
}

/// A broadcast whose length is not the model's is dropped: the
/// receiver keeps its parameters, stays up and goes on to the next
/// round as after a blend; a well-sized one after it still blends.
#[test]
fn device_actor_drops_a_mis_sized_broadcast() {
    let k = 2;
    let mut hub = ChannelTransport::hub(k + 1);
    let mut port = hub.claim(0).unwrap();
    let mut actor = stub_actor(0, k);
    let t = Duration::ZERO;
    for params in [vec![], vec![9.0], vec![9.0; 3]] {
        let sync = Message::ParamSync { round: 1, params };
        actor.on_message(&mut port, sync, t).unwrap();
        assert_eq!(actor.train().params, vec![1.0, 2.0]);
        assert!(!actor.is_finished());
        assert_eq!(actor.hint(t), DeviceHint::Train);
    }
    let sync = Message::ParamSync {
        round: 2,
        params: vec![3.0, 4.0],
    };
    actor.on_message(&mut port, sync, t).unwrap();
    assert_eq!(actor.train().params, vec![2.0, 3.0]);
}

/// The §III-D bypass through its three entrances, in ring 2 → 0 → 1
/// as member 0. Two timer firings — probe, then expired probe — bypass
/// a dead upstream, exactly the schedule the checker explores; a
/// peer's warning about the same death must leave the same ring and
/// send the same frame. A warning about the downstream re-sends the
/// frame it swallowed, whether it finds this member still inside the
/// ring or already back in training.
#[test]
fn device_actor_timers_drive_the_bypass() {
    let k = 3;
    let t = Duration::ZERO;
    let in_ring = || {
        let mut hub = ChannelTransport::hub(k + 1);
        let mut ports: Vec<_> = (0..=k).map(|id| hub.claim(id).unwrap()).collect();
        let mut actor = stub_actor(0, k);
        actor
            .on_message(
                &mut ports[0],
                Message::RoundPlan {
                    round: 1,
                    ring: vec![2, 0, 1],
                    broadcaster: 2,
                    unselected: vec![],
                },
                t,
            )
            .unwrap();
        (actor, ports)
    };

    // The origin 2 dies silent before sending anything.
    for own_probe in [true, false] {
        let (mut actor, mut ports) = in_ring();
        if own_probe {
            assert!(actor.probe_suspect().is_none());
            actor.on_timer(&mut ports[0], t).unwrap();
            assert!(
                actor.probe_suspect().is_some(),
                "first timer arms the probe"
            );
            match ports[2].try_recv().unwrap() {
                Some(Message::Handshake { from: 0 }) => {}
                other => panic!("expected a handshake probe, got {other:?}"),
            }
            actor.on_timer(&mut ports[0], t).unwrap();
            assert!(
                actor.probe_suspect().is_none(),
                "second timer declares the death"
            );
            for (hears, who) in [(1, "ring peers"), (k, "the coordinator")] {
                match ports[hears].try_recv().unwrap() {
                    Some(Message::BypassWarning { dead: 2 }) => {}
                    other => panic!("{who} must hear the bypass, got {other:?}"),
                }
            }
        } else {
            actor
                .on_message(&mut ports[0], Message::BypassWarning { dead: 2 }, t)
                .unwrap();
        }
        assert_eq!(actor.ring_live(), Some(&[0, 1][..]));
        // This member is now first and initiates the reduce.
        assert_eq!(
            ports[1].try_recv().unwrap(),
            Some(Message::ParamAccum {
                round: 1,
                hops: 1,
                params: vec![1.0, 2.0],
            }),
            "survivor must initiate the reduce (own probe: {own_probe})"
        );
        assert_eq!(ports[1].try_recv().unwrap(), None);
    }

    // The downstream 1 dies holding this member's last frame: the
    // accumulation it forwarded, or — had 2's frame closed the reduce
    // here — the merged model, sent on the way out of the ring.
    for finished in [false, true] {
        let (mut actor, mut ports) = in_ring();
        actor
            .on_message(
                &mut ports[0],
                Message::ParamAccum {
                    round: 1,
                    hops: if finished { 2 } else { 1 },
                    params: vec![3.0, 3.0],
                },
                t,
            )
            .unwrap();
        assert_eq!(actor.ring_round().is_none(), finished);
        let swallowed = ports[1].try_recv().unwrap();
        assert!(swallowed.is_some());
        actor
            .on_message(&mut ports[0], Message::BypassWarning { dead: 1 }, t)
            .unwrap();
        assert_eq!(actor.ring_live(), Some(&[2, 0][..]));
        assert_eq!(
            ports[2].try_recv().unwrap(),
            swallowed,
            "the new downstream gets the very frame (finished: {finished})"
        );
        assert_eq!(ports[2].try_recv().unwrap(), None);
    }
}

/// A live upstream's ack clears the probe instead of killing it.
#[test]
fn device_actor_ack_clears_probe() {
    let k = 2;
    let mut hub = ChannelTransport::hub(k + 1);
    let mut port = hub.claim(0).unwrap();
    let _peer = hub.claim(1).unwrap();
    let mut actor = stub_actor(0, k);
    let t = Duration::ZERO;
    actor
        .on_message(
            &mut port,
            Message::RoundPlan {
                round: 1,
                ring: vec![1, 0],
                broadcaster: 1,
                unselected: vec![],
            },
            t,
        )
        .unwrap();
    actor.on_timer(&mut port, t).unwrap();
    assert!(actor.probe_suspect().is_some());
    actor
        .on_message(&mut port, Message::HandshakeAck { from: 1 }, t)
        .unwrap();
    assert!(
        actor.probe_suspect().is_none(),
        "ack must clear the §III-D probe"
    );
    assert_eq!(actor.ring_round(), Some(1), "ring continues after ack");
}

/// The wrap-around bypass shape `hadfl-check` found: in ring
/// 0→1→2→0, member 2 dies after 1 forwarded it the two-member
/// accumulation; 1's bypass re-send hands the *complete* sum back
/// to the already-contributed initiator 0, who must merge it (not
/// drop it as a duplicate, which stalls the ring for good).
#[test]
fn complete_resend_to_contributed_initiator_finishes_the_ring() {
    let k = 3;
    let mut hub = ChannelTransport::hub(k + 1);
    let mut port = hub.claim(0).unwrap();
    let mut peer1 = hub.claim(1).unwrap();
    let _peer2 = hub.claim(2).unwrap();
    let mut actor = stub_actor(0, k);
    let t = Duration::ZERO;
    actor
        .on_message(
            &mut port,
            Message::RoundPlan {
                round: 1,
                ring: vec![0, 1, 2],
                broadcaster: 0,
                unselected: vec![],
            },
            t,
        )
        .unwrap();
    // Initiator sent accum(hops=1) to 1; now its upstream 2 goes
    // silent: probe, then declare dead — live shrinks to [0, 1].
    actor.on_timer(&mut port, t).unwrap();
    assert!(actor.probe_suspect().is_some());
    actor.on_timer(&mut port, t).unwrap();
    assert_eq!(actor.ring_round(), Some(1), "ring repaired, not done");
    // 1's bypass re-send: the accumulation that was addressed to
    // the dead 2, carrying both live members' parameters.
    actor
        .on_message(
            &mut port,
            Message::ParamAccum {
                round: 1,
                hops: 2,
                params: vec![6.0, 6.0],
            },
            t,
        )
        .unwrap();
    assert_eq!(actor.done_round(), 1, "complete re-send ends the ring");
    assert_eq!(
        actor.train().params,
        vec![3.0, 3.0],
        "merged model is the accumulation averaged over its hops"
    );
    let mut merged = 0;
    while let Some(msg) = peer1.try_recv().unwrap() {
        if let Message::MergedParams {
            round: 1,
            ttl: 1,
            params,
        } = msg
        {
            assert_eq!(params, vec![3.0, 3.0]);
            merged += 1;
        }
    }
    assert_eq!(merged, 1, "survivor 1 must receive the merged model");
}

/// The warning-overtakes-plan shape `hadfl-check` found: device 2
/// hears `BypassWarning(dead 0)` *before* the round-1 `RoundPlan`
/// naming 0 arrives (independent connections give no ordering).
/// Joining with the stale membership would forward the
/// accumulation to dead 0 and stall the ring; instead the plan's
/// membership must be filtered through the remembered death.
#[test]
fn bypass_warning_before_the_plan_filters_ring_membership() {
    let k = 3;
    let mut hub = ChannelTransport::hub(k + 1);
    let mut port = hub.claim(2).unwrap();
    let _peer0 = hub.claim(0).unwrap();
    let mut peer1 = hub.claim(1).unwrap();
    let mut actor = stub_actor(2, k);
    let t = Duration::ZERO;
    actor
        .on_message(&mut port, Message::BypassWarning { dead: 0 }, t)
        .unwrap();
    actor
        .on_message(
            &mut port,
            Message::RoundPlan {
                round: 1,
                ring: vec![0, 1, 2],
                broadcaster: 0,
                unselected: vec![],
            },
            t,
        )
        .unwrap();
    assert_eq!(actor.ring_round(), Some(1), "ring runs without dead 0");
    assert_eq!(actor.ring_live(), Some(&[1, 2][..]));
    // With 0 filtered out, 1 initiates; its hops-1 accumulation
    // closes the two-member ring at this actor.
    actor
        .on_message(
            &mut port,
            Message::ParamAccum {
                round: 1,
                hops: 1,
                params: vec![5.0, 2.0],
            },
            t,
        )
        .unwrap();
    assert_eq!(actor.done_round(), 1, "two survivors finish the ring");
    assert_eq!(
        actor.train().params,
        vec![3.0, 2.0],
        "merge averages the initiator's [5, 2] with our own [1, 2]"
    );
    let mut merged = 0;
    while let Some(msg) = peer1.try_recv().unwrap() {
        if let Message::MergedParams {
            round: 1,
            ttl: 1,
            params,
        } = msg
        {
            assert_eq!(params, vec![3.0, 2.0]);
            merged += 1;
        }
    }
    assert_eq!(merged, 1, "initiator 1 must receive the merged model");
}

/// When every other planned member is already known dead, the ring
/// dissolves at entry: the device keeps its local model, marks the
/// round synchronized, and keeps training instead of stalling.
#[test]
fn ring_dissolved_at_entry_keeps_local_model() {
    let k = 2;
    let mut hub = ChannelTransport::hub(k + 1);
    let mut port = hub.claim(1).unwrap();
    let mut peer0 = hub.claim(0).unwrap();
    let mut actor = stub_actor(1, k);
    let t = Duration::ZERO;
    actor
        .on_message(&mut port, Message::BypassWarning { dead: 0 }, t)
        .unwrap();
    actor
        .on_message(
            &mut port,
            Message::RoundPlan {
                round: 1,
                ring: vec![0, 1],
                broadcaster: 0,
                unselected: vec![],
            },
            t,
        )
        .unwrap();
    assert_eq!(actor.ring_round(), None, "no ring with a lone member");
    assert_eq!(actor.done_round(), 1, "round counts as synchronized");
    assert_eq!(actor.train().params, vec![1.0, 2.0], "model untouched");
    assert_eq!(
        peer0.try_recv().unwrap(),
        None,
        "nothing may be sent to the dead member"
    );
}

/// The coordinator driver runs to completion on a [`ManualClock`]:
/// virtual time advances through window, report deadline, and final
/// deadline without any wall-clock waiting.
#[test]
fn coordinator_runs_on_a_manual_clock() {
    let k = 2;
    let config = quick_config(72);
    let timing = ProtocolTiming::quick();
    let clock = ManualClock::new();
    let mut hub = ChannelTransport::hub(k + 1);
    let coordinator_port = hub
        .claim_instrumented(
            coordinator_id(k),
            Telemetry::disabled(),
            Some(Arc::new(clock.clone())),
        )
        .unwrap();
    let mut ports: Vec<_> = (0..k).map(|i| hub.claim(i).unwrap()).collect();

    let outcome = thread::scope(|scope| {
        for (i, mut port) in ports.drain(..).enumerate() {
            scope.spawn(move || {
                // A scripted device: answer reports, echo ring
                // frames to close the reduce, upload on shutdown.
                let me = i;
                loop {
                    match port.recv_timeout(Duration::from_secs(10)) {
                        Ok(Some(Message::ReportRequest { round })) => {
                            let _ = port.send(
                                k,
                                &Message::VersionReport {
                                    device: me as u32,
                                    round,
                                    version: 1.0,
                                },
                            );
                        }
                        Ok(Some(Message::RoundPlan { round, ring, .. })) => {
                            // First member starts; the other just
                            // completes the two-hop reduce.
                            if ring.first() == Some(&(me as u32)) {
                                let other = ring[1] as usize;
                                let _ = port.send(
                                    other,
                                    &Message::ParamAccum {
                                        round,
                                        hops: 1,
                                        params: vec![1.0, 1.0],
                                    },
                                );
                            }
                        }
                        Ok(Some(Message::ParamAccum { round, .. })) => {
                            let other = 1 - me;
                            let _ = port.send(
                                other,
                                &Message::MergedParams {
                                    round,
                                    ttl: 1,
                                    params: vec![1.0, 1.0],
                                },
                            );
                        }
                        Ok(Some(Message::Shutdown)) => {
                            let _ = port.send(
                                k,
                                &Message::FinalParams {
                                    device: me as u32,
                                    params: vec![1.0, 1.0],
                                },
                            );
                            return;
                        }
                        Ok(Some(_)) => {}
                        _ => return,
                    }
                }
            });
        }
        run_coordinator(
            coordinator_port,
            &config,
            Duration::from_millis(50),
            2,
            &timing,
        )
    })
    .unwrap();
    assert_eq!(outcome.rounds.len(), 2);
    assert_eq!(outcome.final_models.len(), 2);
    assert!(outcome.dropped.is_empty());
    assert!(
        clock.now() >= Duration::from_millis(100),
        "windows must have advanced the virtual clock"
    );
}

/// A ring frame of another length than the member's model is refused
/// before it has any effect (no sum of unequal lengths exists, and a
/// `MergedParams` is forwarded before it is installed): nothing is
/// accumulated or installed, and the device stays up. Its sender, the
/// upstream, is bypassed as if its probe had expired: the warnings to
/// the other live member and the coordinator go out first, then the
/// repair, and nothing else is sent.
#[test]
fn wrong_length_ring_frames_are_refused_before_any_effect() {
    let k = 3;
    let t = Duration::ZERO;
    let wrong = vec![9.0; 3];
    let frames = [
        Message::ParamAccum {
            round: 1,
            hops: 1,
            params: wrong.clone(),
        },
        // The closing hop, and a complete re-send, take other branches.
        Message::ParamAccum {
            round: 1,
            hops: 2,
            params: wrong.clone(),
        },
        Message::MergedParams {
            round: 1,
            ttl: 2,
            params: wrong,
        },
    ];
    for me in [0, 1] {
        let (upstream, downstream) = ((me + 2) % 3, (me + 1) % 3);
        for frame in &frames {
            let mut hub = ChannelTransport::hub(k + 1);
            let mut ports: Vec<_> = (0..=k).map(|id| hub.claim(id).unwrap()).collect();
            let mut actor = stub_actor(me, k);
            let plan = Message::RoundPlan {
                round: 1,
                ring: vec![0, 1, 2],
                broadcaster: me as u32,
                unselected: vec![],
            };
            actor.on_message(&mut ports[me], plan, t).unwrap();
            // Member 0 opened the reduce; drain that.
            while ports[1].try_recv().unwrap().is_some() {}

            actor.on_message(&mut ports[me], frame.clone(), t).unwrap();
            assert_eq!(actor.train().params, vec![1.0, 2.0], "nothing installed");
            assert_eq!(actor.ring_round(), Some(1), "member {me}: {frame:?}");
            let sent: Vec<Vec<Message>> = ports
                .iter_mut()
                .map(|port| std::iter::from_fn(|| port.try_recv().unwrap()).collect())
                .collect();
            let warning = Message::BypassWarning {
                dead: upstream as u32,
            };
            let mut expected = vec![vec![]; k + 1];
            expected[downstream].push(warning.clone());
            expected[k].push(warning);
            if me == 1 {
                // First now, member 1 opens the reduce with its own model.
                expected[downstream].push(Message::param_accum(1, 1, vec![1.0, 2.0]));
            }
            assert_eq!(sent, expected, "member {me}, {frame:?}");
        }
    }
}

/// A device whose model is truncated from round 2 on opens that round's
/// ring: its downstream refuses the short frame, bypasses it and
/// reports it, and the honest devices finish the run with full-length,
/// finite models.
#[test]
fn a_truncated_contribution_is_bypassed_and_the_run_completes() {
    /// The offender's model is whole until it installs its first merged
    /// model, and truncated from then on.
    #[derive(Debug, Clone)]
    struct Truncating {
        inner: StubTrain,
        offender: bool,
        synced: bool,
    }
    impl TrainState for Truncating {
        fn params(&self) -> Vec<f32> {
            let params = self.inner.params();
            let len = if self.offender && self.synced {
                1
            } else {
                params.len()
            };
            params[..len].to_vec()
        }
        fn set_params(&mut self, params: &[f32]) -> Result<(), HadflError> {
            self.synced = true;
            self.inner.set_params(params)
        }
        fn train_step(&mut self) -> Result<(), HadflError> {
            self.inner.train_step()
        }
        fn version(&self) -> f64 {
            self.inner.version()
        }
    }
    /// Everyone in every ring; round 2's ring starts at the offender.
    struct OffenderFirst {
        offender: DeviceId,
        round: usize,
    }
    impl Planner for OffenderFirst {
        fn plan(&mut self, available: &[DeviceId], _: &[f64]) -> Result<RoundPlan, HadflError> {
            self.round += 1;
            let mut order = available.to_vec();
            if self.round == 2 {
                order.retain(|&d| d != self.offender);
                order.insert(0, self.offender);
            }
            Ok(RoundPlan {
                selected: order.clone(),
                ring: crate::topology::Ring::from_order(order.clone())?,
                unselected: vec![],
                broadcaster: order[0],
            })
        }
    }

    let (k, offender) = (3, 2);
    let states = (0..k)
        .map(|i| Truncating {
            inner: StubTrain {
                params: vec![i as f32, 1.0],
                steps: 0,
            },
            offender: i == offender,
            synced: false,
        })
        .collect();
    let planner = OffenderFirst {
        offender: DeviceId(offender),
        round: 0,
    };
    let config = quick_config(75);
    // The coordinator shuts down as it plans the last round, so round
    // 2's ring runs inside round 3's window.
    let opts = ThreadedOptions {
        rounds: 3,
        ..ThreadedOptions::quick(&vec![1.0; k])
    };
    let (run, _, _) = run_virtual_cluster(states, planner, &config, &opts, &[], &[]).unwrap();
    assert_eq!(run.rounds.len(), 3);
    // The warning lands in round 3's window and is read as its
    // collection opens.
    assert_eq!(run.dropped, vec![(offender, 3)]);
    for device in (0..k).filter(|&d| d != offender) {
        let params = &run.final_models[&device];
        assert_eq!(params.len(), 2, "device {device}: {params:?}");
        assert!(params.iter().all(|p| p.is_finite()), "device {device}");
    }
}

/// One step of a scripted ring, as the shared log of [`LoggedTrain`]
/// and [`LoggedPort`] records it.
#[derive(Debug, Clone, PartialEq)]
enum Step {
    Delivered(usize, &'static str),
    Params(usize),
    SetParams(usize),
    Sent(usize, usize, &'static str),
}

type StepLog = Arc<Mutex<Vec<Step>>>;

/// A [`StubTrain`] that logs every parameter copy out and in.
struct LoggedTrain {
    me: usize,
    inner: StubTrain,
    log: StepLog,
}

impl TrainState for LoggedTrain {
    fn params(&self) -> Vec<f32> {
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Step::Params(self.me));
        self.inner.params()
    }
    fn set_params(&mut self, params: &[f32]) -> Result<(), HadflError> {
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Step::SetParams(self.me));
        self.inner.set_params(params)
    }
    fn train_step(&mut self) -> Result<(), HadflError> {
        self.inner.train_step()
    }
    fn version(&self) -> f64 {
        self.inner.version()
    }
}

/// A [`ChannelPort`](crate::transport::ChannelPort) that logs every send.
struct LoggedPort {
    inner: crate::transport::ChannelPort,
    log: StepLog,
}

impl Port for LoggedPort {
    fn id(&self) -> usize {
        self.inner.id()
    }
    fn participants(&self) -> usize {
        self.inner.participants()
    }
    fn send(&mut self, to: usize, msg: &Message) -> Result<(), HadflError> {
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Step::Sent(self.inner.id(), to, msg.kind()));
        self.inner.send(to, msg)
    }
    fn try_recv(&mut self) -> Result<Option<Message>, HadflError> {
        self.inner.try_recv()
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, HadflError> {
        self.inner.recv_timeout(timeout)
    }
    fn stats(&self) -> NetStats {
        self.inner.stats()
    }
}

/// Only the sum and the wire are on the ring's critical path: every
/// member copies its parameters out once per ring, on the `RoundPlan`
/// (while the accumulation is still upstream of it), and whoever holds
/// the merged model — the closing member 2, the forwarding member 0,
/// the last member 1, each of them as broadcaster in turn — serves its
/// downstream and the unselected before it installs its own copy.
#[test]
fn ring_members_snapshot_on_the_plan_and_install_after_forwarding() {
    let k = 4;
    let ring = [0usize, 1, 2];
    let t = Duration::ZERO;
    for broadcaster in ring {
        let log = StepLog::default();
        let mut hub = ChannelTransport::hub(k + 1);
        let mut ports: Vec<LoggedPort> = (0..=k)
            .map(|id| LoggedPort {
                inner: hub.claim(id).unwrap(),
                log: Arc::clone(&log),
            })
            .collect();
        let mut actors: Vec<_> = ring
            .iter()
            .map(|&me| {
                let train = LoggedTrain {
                    me,
                    inner: StubTrain {
                        params: vec![me as f32, 1.0],
                        steps: 0,
                    },
                    log: Arc::clone(&log),
                };
                DeviceActor::new(me, k + 1, train, 0.5, ProtocolTiming::zero())
            })
            .collect();
        let plan = Message::RoundPlan {
            round: 1,
            ring: ring.iter().map(|&d| d as u32).collect(),
            broadcaster: broadcaster as u32,
            unselected: vec![3],
        };
        // Plans reach the members last-first, so nobody's frame is in
        // its mailbox yet when it copies its parameters out.
        for &me in ring.iter().rev() {
            ports[k].send(me, &plan).unwrap();
        }
        loop {
            let mut delivered = false;
            for &me in ring.iter().rev() {
                if let Some(msg) = ports[me].try_recv().unwrap() {
                    log.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(Step::Delivered(me, msg.kind()));
                    actors[me].on_message(&mut ports[me], msg, t).unwrap();
                    delivered = true;
                }
            }
            if !delivered {
                break;
            }
        }
        let log = log.lock().unwrap_or_else(PoisonError::into_inner).clone();
        let at = |step: &Step| {
            let mut found = log.iter().enumerate().filter(|(_, s)| *s == step);
            let first = found.next().map(|(i, _)| i);
            assert!(found.next().is_none(), "{step:?} twice in {log:#?}");
            first.unwrap_or_else(|| panic!("no {step:?} in {log:#?}"))
        };
        for me in ring {
            assert_eq!(actors[me].done_round(), 1);
            assert_eq!(actors[me].train().inner.params, vec![1.0, 1.0]);
            assert_eq!(
                at(&Step::Params(me)),
                at(&Step::Delivered(me, "round_plan")) + 1,
                "member {me} copies out once, on the plan: {log:#?}"
            );
            let installed = at(&Step::SetParams(me));
            for (i, step) in log.iter().enumerate() {
                if matches!(step, Step::Sent(from, _, "merged_params" | "param_sync") if *from == me)
                {
                    assert!(i < installed, "member {me} installs last: {log:#?}");
                }
            }
        }
        // The frames the order is about were really sent.
        at(&Step::Sent(2, 0, "merged_params"));
        at(&Step::Sent(0, 1, "merged_params"));
        at(&Step::Sent(broadcaster, 3, "param_sync"));
    }
}
