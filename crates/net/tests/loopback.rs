//! Loopback-TCP integration tests: the threaded executor's protocol
//! loops running over real sockets.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use hadfl::clock::{ManualClock, WallClock};
use hadfl::exec::{
    run_cluster, run_coordinator, run_device, run_threaded, CoordinatorRun, ProtocolTiming,
    ThreadedOptions, ThreadedRound,
};
use hadfl::transport::{coordinator_id, ChannelTransport, Port};
use hadfl::wire::Message;
use hadfl::{HadflConfig, HadflError, Workload};
use hadfl_net::cluster::ClusterConfig;
use hadfl_net::tcp::{BoundNode, TcpOptions, TcpPort};
use hadfl_simnet::{DeviceId, Endpoint, NetStats};
use hadfl_telemetry::{EventKind, RingBufferSink, Telemetry};

fn tcp_opts() -> TcpOptions {
    TcpOptions {
        write_timeout: Duration::from_millis(500),
        max_frame_bytes: 8 << 20,
    }
}

/// Binds `n` loopback listeners on kernel-chosen ports and describes
/// them as a cluster (highest id coordinates).
fn bind_cluster(n: usize) -> (ClusterConfig, Vec<BoundNode>) {
    let nodes: Vec<BoundNode> = (0..n)
        .map(|id| BoundNode::bind(id, "127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<String> = nodes
        .iter()
        .map(|b| b.local_addr().unwrap().to_string())
        .collect();
    (ClusterConfig::from_addrs(&addrs).unwrap(), nodes)
}

/// Consensus accuracy of the final models a coordinator collected.
fn consensus_accuracy(workload: &Workload, k: usize, run: &CoordinatorRun) -> f32 {
    let mut built = workload.build(k).unwrap();
    let consensus = run.consensus().unwrap();
    built.evaluate_params(&consensus).unwrap().accuracy
}

/// Acceptance path: 4 devices + coordinator over loopback TCP complete
/// every configured round and land within noise of the in-process
/// threaded executor on the same seed.
///
/// Structural invariants (every round finishes, nobody is dropped,
/// everyone uploads) are asserted on every run. The accuracy bar is
/// timing-sensitive on contended hosts — wall-clock report windows
/// decide which training steps make each sync, so two runs with the
/// same step count can blend models at different maturities — and a
/// single starved run can land at the chance floor without any
/// protocol bug. So the accuracy check gets up to three attempts: a
/// real convergence regression fails all of them, while scheduler
/// jitter cannot plausibly lose three comparable runs in a row.
#[test]
fn tcp_cluster_converges_like_threaded_executor() {
    let workload = Workload::quick("mlp", 91);
    let config = HadflConfig::builder()
        .num_selected(2)
        .seed(91)
        .build()
        .unwrap();
    let powers = [4.0, 2.0, 1.0, 1.0];
    let opts = ThreadedOptions::quick(&powers);

    let baseline = run_threaded(&workload, &config, &opts).unwrap();
    let work = |rounds: &[ThreadedRound]| -> u64 {
        rounds
            .last()
            .map(|r| r.versions.iter().sum())
            .unwrap_or_default()
    };

    let k = powers.len();
    const ATTEMPTS: usize = 3;
    for attempt in 1..=ATTEMPTS {
        let (cluster, nodes) = bind_cluster(k + 1);
        let built = workload.build(k).unwrap();
        let mut nodes = nodes.into_iter();
        let mut device_ports: Vec<TcpPort> = Vec::with_capacity(k);
        for _ in 0..k {
            device_ports.push(
                nodes
                    .next()
                    .unwrap()
                    .into_port(&cluster, tcp_opts())
                    .unwrap(),
            );
        }
        let coordinator_port = nodes
            .next()
            .unwrap()
            .into_port(&cluster, tcp_opts())
            .unwrap();
        assert_eq!(coordinator_port.id(), coordinator_id(k));

        let run = run_cluster(
            device_ports,
            coordinator_port,
            built.runtimes,
            &config,
            &opts,
        )
        .unwrap();

        assert_eq!(run.rounds.len(), opts.rounds);
        assert!(
            run.dropped.is_empty(),
            "no deaths injected: {:?}",
            run.dropped
        );
        assert_eq!(
            run.final_models.len(),
            k,
            "all devices must upload final parameters"
        );
        let tcp_accuracy = consensus_accuracy(&workload, k, &run);
        // Accuracy assertions only hold when training actually
        // happened. On a starved host (1-CPU CI runners), ten threads
        // share one core and the wall-clock report window closes after
        // a handful of steps — that is scheduler behaviour, not a
        // protocol bug. The accuracy checks apply only when the TCP
        // run's step counts are within 2x of the baseline's AND the
        // baseline itself demonstrably learned; a starved run still
        // must satisfy every structural assertion above.
        let (tcp_work, base_work) = (work(&run.rounds), work(&baseline.rounds));
        let comparable = tcp_work * 2 >= base_work && base_work * 2 >= tcp_work;
        if !(comparable && baseline.final_accuracy > 0.25) {
            eprintln!(
                "skipping accuracy checks: starved host — {tcp_work} TCP steps vs \
                 {base_work} threaded steps, baseline accuracy {}",
                baseline.final_accuracy
            );
            assert!(tcp_accuracy.is_finite());
            return;
        }
        // The headline invariant is the test's name: TCP lands within
        // noise of the threaded executor. The absolute chance-floor
        // bar only applies when the baseline clears the floor with
        // margin — a starved baseline at 0.26 says nothing about where
        // a within-noise TCP run must land.
        let floor_applies = baseline.final_accuracy > 0.45;
        let converged = (tcp_accuracy - baseline.final_accuracy).abs() < 0.25
            && (!floor_applies || tcp_accuracy > 0.25);
        if converged {
            return;
        }
        assert!(
            attempt < ATTEMPTS,
            "TCP consensus missed the accuracy bar in {ATTEMPTS} comparable runs: \
             got {tcp_accuracy}, threaded baseline {}",
            baseline.final_accuracy
        );
        eprintln!(
            "attempt {attempt}: comparable work ({tcp_work} TCP steps vs {base_work} \
             threaded) but accuracy {tcp_accuracy} missed the bar (baseline {}); \
             retrying — single-run accuracy is jittery on a contended host",
            baseline.final_accuracy
        );
    }
}

/// §III-D over real sockets: a device that goes silent mid-run is
/// probed, bypassed by its ring, and dropped by the coordinator; the
/// remaining devices finish every round.
#[test]
fn tcp_cluster_survives_peer_death() {
    let k = 4;
    let zombie_id = 2usize;
    let workload = Workload::quick("mlp", 92);
    // Everyone is selected each round, so the zombie sits in the ring.
    let config = HadflConfig::builder()
        .num_selected(k)
        .seed(92)
        .build()
        .unwrap();
    let timing = ProtocolTiming::quick();
    let step_sleep = Duration::from_millis(4);

    let (cluster, nodes) = bind_cluster(k + 1);
    let built = workload.build(k).unwrap();
    let mut ports: Vec<Option<TcpPort>> = nodes
        .into_iter()
        .map(|node| Some(node.into_port(&cluster, tcp_opts()).unwrap()))
        .collect();
    let coordinator_port = ports[k].take().unwrap();

    let run = thread::scope(|scope| {
        for (i, rt) in built.runtimes.into_iter().enumerate() {
            let port = ports[i].take().unwrap();
            let config = &config;
            let timing = timing.clone();
            if i == zombie_id {
                // The zombie answers the first report request, then
                // vanishes: its port drops, its listener closes, and
                // every later frame to it is met with silence.
                scope.spawn(move || {
                    let mut port = port;
                    loop {
                        match port.recv_timeout(Duration::from_secs(20)).unwrap() {
                            Some(Message::ReportRequest { round }) => {
                                port.send(
                                    coordinator_id(k),
                                    &Message::VersionReport {
                                        device: zombie_id as u32,
                                        round,
                                        version: 1.0,
                                    },
                                )
                                .unwrap();
                                return;
                            }
                            Some(_) => {}
                            None => panic!("zombie never saw a report request"),
                        }
                    }
                });
            } else {
                scope.spawn(move || run_device(port, rt, config, step_sleep, &timing).unwrap());
            }
        }
        run_coordinator(
            coordinator_port,
            &config,
            Duration::from_millis(60),
            2,
            &timing,
        )
        .unwrap()
    });

    assert_eq!(run.rounds.len(), 2, "the cluster must finish both rounds");
    assert!(
        run.dropped.iter().any(|&(d, _)| d == zombie_id),
        "the silent device must be dropped: {:?}",
        run.dropped
    );
    assert!(!run.final_models.contains_key(&zombie_id));
    assert!(
        run.final_models.len() >= 2,
        "survivors must upload: {:?}",
        run.final_models.keys()
    );
    let accuracy = consensus_accuracy(&workload, k, &run);
    assert!(accuracy.is_finite());
}

/// For one scripted exchange, every TCP port's payload ledger matches
/// the channel fabric's — same per-endpoint bytes, same message counts,
/// transport chatter excluded — and each port's telemetry frame events
/// sum to exactly its `NetStats` ledger.
#[test]
fn tcp_ledger_matches_channel_fabric() {
    let k = 2;
    let script: [(usize, usize, Message); 4] = [
        (
            0,
            1,
            Message::ParamSync {
                round: 1,
                params: vec![0.5; 33],
            },
        ),
        (
            1,
            coordinator_id(k),
            Message::VersionReport {
                device: 1,
                round: 1,
                version: 9.0,
            },
        ),
        (
            coordinator_id(k),
            0,
            Message::RoundPlan {
                round: 2,
                ring: vec![0, 1],
                broadcaster: 1,
                unselected: vec![],
            },
        ),
        (
            1,
            0,
            Message::ParamAccum {
                round: 2,
                hops: 1,
                params: vec![1.0; 33],
            },
        ),
    ];

    // Channel fabric: one hub ledger covers the whole exchange.
    let mut hub = ChannelTransport::hub(k + 1);
    let mut channel_ports: Vec<_> = (0..=k).map(|id| hub.claim(id).unwrap()).collect();
    for (from, to, msg) in &script {
        channel_ports[*from].send(*to, msg).unwrap();
    }
    for port in &mut channel_ports {
        while port.try_recv().unwrap().is_some() {}
    }
    let hub_stats = hub.net_stats();

    // TCP: each port keeps its own ledger of the flows it took part in,
    // and an instrumented port mirrors every ledger entry as a frame
    // event.
    let (cluster, nodes) = bind_cluster(k + 1);
    let opts = tcp_opts();
    let sinks: Vec<RingBufferSink> = (0..=k).map(|_| RingBufferSink::new(1024)).collect();
    let mut tcp_ports: Vec<TcpPort> = nodes
        .into_iter()
        .enumerate()
        .map(|(id, node)| {
            let tel = Telemetry::new(id as u32, vec![Box::new(sinks[id].clone())]);
            node.into_port_instrumented(&cluster, opts.clone(), WallClock::shared(), tel)
                .unwrap()
        })
        .collect();
    let handles: Vec<_> = tcp_ports.iter().map(TcpPort::stats_handle).collect();
    for (from, to, msg) in &script {
        tcp_ports[*from].send(*to, msg).unwrap();
    }
    // Frames from different senders ride different connections, so a
    // recipient's arrival order across senders is unspecified: check
    // each inbox as a multiset.
    for (id, port) in tcp_ports.iter_mut().enumerate() {
        let mut expected: Vec<&Message> = script
            .iter()
            .filter(|(_, to, _)| *to == id)
            .map(|(_, _, m)| m)
            .collect();
        let mut got = Vec::new();
        while got.len() < expected.len() {
            match port.recv_timeout(Duration::from_secs(5)).unwrap() {
                Some(msg) => got.push(msg),
                None => break,
            }
        }
        let key = |m: &Message| format!("{m:?}");
        expected.sort_by_key(|m| key(m));
        got.sort_by_key(|m| key(m));
        assert_eq!(
            got.iter().collect::<Vec<_>>(),
            expected,
            "inbox of participant {id}"
        );
    }

    let endpoint = |id: usize| -> Endpoint {
        if id == k {
            Endpoint::Server
        } else {
            Endpoint::Device(DeviceId(id))
        }
    };
    for (id, port) in tcp_ports.iter().enumerate() {
        let local: NetStats = port.stats();
        assert_eq!(
            local.sent_by(endpoint(id)),
            hub_stats.sent_by(endpoint(id)),
            "sent bytes of participant {id}"
        );
        assert_eq!(
            local.received_by(endpoint(id)),
            hub_stats.received_by(endpoint(id)),
            "received bytes of participant {id}"
        );
        // Framing and hellos ride outside the ledger, and nothing else
        // does: every frame the port sent or received costs a 4-byte
        // length prefix and a 12-byte stamp on top of its payload, and
        // each connection it dialed or accepted one 21-byte Hello.
        let frames: u64 = script
            .iter()
            .filter(|(from, to, _)| *from == id || *to == id)
            .map(|(_, _, m)| 16 + m.encoded_len() as u64)
            .sum();
        let connections: BTreeSet<(usize, usize)> = script
            .iter()
            .filter(|(from, to, _)| *from == id || *to == id)
            .map(|(from, to, _)| (*from, *to))
            .collect();
        assert_eq!(
            port.raw_bytes(),
            frames + 21 * connections.len() as u64,
            "raw bytes of participant {id}"
        );
    }
    let payload: u64 = script.iter().map(|(_, _, m)| m.encoded_len() as u64).sum();
    assert_eq!(hub_stats.total_bytes(), payload);

    // Satellite check: per-port telemetry frame events sum to exactly
    // the port's own NetStats ledger, and the Ledger event the stats
    // handle stamps repeats the same totals.
    for (id, (port, (sink, handle))) in tcp_ports.iter().zip(sinks.iter().zip(&handles)).enumerate()
    {
        handle.emit_ledger();
        let stats = port.stats();
        let mut sent = 0u64;
        let mut recv = 0u64;
        let mut frames = 0u64;
        let mut ledger = None;
        for event in sink.snapshot() {
            match event.kind {
                EventKind::FrameSent { src, bytes, .. } => {
                    assert_eq!(src, id as u32, "sent frames carry the emitting port");
                    sent += bytes;
                    frames += 1;
                }
                EventKind::FrameReceived { dst, bytes, .. } => {
                    assert_eq!(dst, id as u32, "received frames carry the emitting port");
                    recv += bytes;
                    frames += 1;
                }
                EventKind::Ledger {
                    sent_bytes,
                    recv_bytes,
                    frames,
                } => ledger = Some((sent_bytes, recv_bytes, frames)),
                other => panic!("unexpected transport event: {other:?}"),
            }
        }
        assert_eq!(
            sent,
            stats.sent_by(endpoint(id)),
            "telemetry sent bytes of participant {id}"
        );
        assert_eq!(
            recv,
            stats.received_by(endpoint(id)),
            "telemetry received bytes of participant {id}"
        );
        assert_eq!(frames, stats.messages(), "telemetry frames of {id}");
        assert_eq!(
            ledger,
            Some((sent, recv, frames)),
            "Ledger event must restate the frame-event sums for {id}"
        );
    }
}

/// The real deal: four `hadfl-node` OS processes plus a coordinator
/// process, wired by a TOML cluster file, train to a consensus — with
/// telemetry on, each process writing a JSONL event log whose frame
/// events reconcile exactly with its `NetStats` ledger.
#[test]
fn hadfl_node_processes_train_to_consensus() {
    let k = 4;
    // Reserve kernel-assigned ports, then free them for the processes.
    let (cluster, nodes) = bind_cluster(k + 1);
    drop(nodes);
    let dir = std::env::temp_dir().join(format!("hadfl-net-proc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tel_dir = dir.join("telemetry");
    let path = dir.join("cluster.toml");
    std::fs::write(&path, cluster.to_toml()).unwrap();

    let bin = env!("CARGO_BIN_EXE_hadfl-node");
    let spawn = |id: usize| {
        std::process::Command::new(bin)
            .args(["--cluster", path.to_str().unwrap()])
            .args(["--id", &id.to_string()])
            .args(["--seed", "93", "--rounds", "2", "--window-ms", "120"])
            .args(["--telemetry-dir", tel_dir.to_str().unwrap()])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap()
    };
    let devices: Vec<_> = (0..k).map(spawn).collect();
    let coordinator = spawn(k);

    let out = coordinator.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "coordinator failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("consensus accuracy"),
        "coordinator must report a consensus: {stdout}"
    );
    for device in devices {
        let out = device.wait_with_output().unwrap();
        assert!(
            out.status.success(),
            "device failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // Satellite: every process's event log exists, parses cleanly, and
    // its frame events sum to exactly the Ledger event the node stamped
    // from its own NetStats at exit — the analyzer-level parity the
    // `hadfl-trace --check` CI gate enforces, here across 5 real OS
    // processes.
    let logs: Vec<hadfl_telemetry::analyze::ParsedLog> = (0..=k)
        .map(|id| {
            let path = tel_dir.join(format!("node-{id}.jsonl"));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing event log {}: {e}", path.display()));
            hadfl_telemetry::analyze::parse_jsonl(&text)
        })
        .collect();
    for (id, log) in logs.iter().enumerate() {
        assert_eq!(log.garbage_lines, 0, "node {id} wrote malformed JSONL");
        assert!(!log.events.is_empty(), "node {id} emitted nothing");
        let parity = hadfl_telemetry::analyze::ledger_parity(&log.events);
        assert_eq!(parity.len(), 1);
        assert!(
            parity[0].matches(),
            "node {id}: frame events must reconcile with its NetStats ledger: {:?}",
            parity[0]
        );
    }
    let errors = hadfl_telemetry::analyze::check(&logs).errors;
    assert!(
        errors.is_empty(),
        "hadfl-trace --check would fail: {errors:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Oversized length prefixes must not allocate: the victim drops the
/// connection and stays healthy for well-formed peers.
#[test]
fn oversized_frames_are_rejected() {
    use std::io::Write;
    use std::net::TcpStream;

    let (cluster, nodes) = bind_cluster(3);
    let mut nodes = nodes.into_iter();
    let mut opts = tcp_opts();
    opts.max_frame_bytes = 1024;
    let victim_node = nodes.next().unwrap();
    let victim_addr = victim_node.local_addr().unwrap();
    let mut victim = victim_node.into_port(&cluster, opts.clone()).unwrap();
    let mut peer = nodes.next().unwrap().into_port(&cluster, opts).unwrap();

    // A raw attacker announces a 2 GiB frame.
    let mut rogue = TcpStream::connect(victim_addr).unwrap();
    rogue.write_all(&(2u32 << 30).to_le_bytes()).unwrap();
    rogue.write_all(&[0u8; 64]).unwrap();

    // The victim still serves honest traffic.
    peer.send(0, &Message::Handshake { from: 1 }).unwrap();
    assert_eq!(
        victim.recv_timeout(Duration::from_secs(5)).unwrap(),
        Some(Message::Handshake { from: 1 })
    );
    assert!(
        victim.try_recv().unwrap().is_none(),
        "the rogue frame must not surface"
    );
}

/// The transport reports `InvalidConfig`, not a hang, when a peer's
/// address never comes up (bounded redial budget). The port runs on a
/// `ManualClock`, so the backoff between attempts takes no wall time.
#[test]
fn transport_errors_surface_as_hadfl_errors() {
    let (cluster, mut nodes) = bind_cluster(3);
    drop(nodes.remove(1));
    let mut port = nodes
        .remove(0)
        .into_port_instrumented(
            &cluster,
            tcp_opts(),
            Arc::new(ManualClock::new()),
            Telemetry::disabled(),
        )
        .unwrap();
    match port.send(1, &Message::Shutdown) {
        Err(HadflError::InvalidConfig(msg)) => {
            assert!(msg.contains("unreachable"), "got: {msg}")
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}
