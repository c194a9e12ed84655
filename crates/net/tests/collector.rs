//! End-to-end collector tests: the event stream of a 1k-device
//! virtual-time run of the real actors shipped over real TCP into a
//! running [`CollectorServer`], and a scripted [`ManualClock`]
//! reproduction of every health rule.

use std::collections::{HashMap, HashSet};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use hadfl::clock::{Clock, ManualClock, WallClock};
use hadfl::coordinator::StrategyGenerator;
use hadfl::exec::{run_virtual_cluster, ProtocolTiming, ThreadedOptions, TrainState};
use hadfl::{HadflConfig, HadflError};
use hadfl_net::collector::{Collector, CollectorOptions, CollectorServer};
use hadfl_net::ship::TcpShipper;
use hadfl_telemetry::health::HealthOptions;
use hadfl_telemetry::ship::{BatchShipper, ShipBatch, ShipOptions, ShipSink};
use hadfl_telemetry::sink::Sink;
use hadfl_telemetry::{
    Event, EventKind, FollowState, MetricsRegistry, RingBufferSink, Telemetry, SCHEMA_VERSION,
};

/// Minimal HTTP/1.1 GET against the collector's endpoint; returns the
/// full response (headers + body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect http");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: collector\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

/// Coordinates per ghost model: 64 KiB of `f32`s on the wire.
const GHOST_PARAMS: usize = 16 * 1024;

/// A 64 KiB model that is one number: every coordinate carries the
/// same value, so ring means and broadcast blends stay exact while a
/// thousand of these cost a thousand scalars at rest. A local step
/// nudges the value and advances the version.
struct Ghost {
    value: f32,
    steps: u64,
}

impl TrainState for Ghost {
    fn params(&self) -> Vec<f32> {
        vec![self.value; GHOST_PARAMS]
    }
    fn set_params(&mut self, params: &[f32]) -> Result<(), HadflError> {
        self.value = params[0];
        Ok(())
    }
    fn train_step(&mut self) -> Result<(), HadflError> {
        self.steps += 1;
        self.value += 1e-3;
        Ok(())
    }
    fn version(&self) -> f64 {
        self.steps as f64
    }
}

#[test]
fn thousand_device_fleet_ships_through_a_live_collector() {
    // The stream is the protocol's own: 1000 real `DeviceActor`s and
    // the real `CoordinatorActor` + `StrategyGenerator` in virtual
    // time, every participant's handle feeding one buffer. Device 3
    // runs at a tenth of the fleet's power; device 7 dies between the
    // second and the third report.
    let devices = 1000;
    let buffer = RingBufferSink::new(1 << 20);
    let telemetry: Vec<Telemetry> = (0..=devices as u32)
        .map(|node| Telemetry::new(node, vec![Box::new(buffer.clone())]))
        .collect();
    let config = HadflConfig::builder()
        .num_selected(32)
        .build()
        .expect("config");
    let mut powers = vec![1.0; devices];
    powers[3] = 0.1;
    let opts = ThreadedOptions {
        powers,
        step_sleep: Duration::from_millis(5),
        window: Duration::from_millis(500),
        rounds: 5,
        timing: ProtocolTiming::quick(),
    };
    let states = (0..devices)
        .map(|_| Ghost {
            value: 0.0,
            steps: 0,
        })
        .collect();
    let (_, stats, _) = run_virtual_cluster(
        states,
        StrategyGenerator::new(&config),
        &config,
        &opts,
        &telemetry,
        &[(7, Duration::from_millis(1200))],
    )
    .expect("fleet run");
    assert_eq!(buffer.dropped(), 0, "buffer was above the event count");
    let events = buffer.snapshot();
    let events_emitted = events.len() as u64;
    let param_bytes_total = stats.total_bytes() - stats.server_bytes();

    let spool = std::env::temp_dir().join(format!(
        "hadfl-collector-fleet-{}.jsonl",
        std::process::id()
    ));
    let opts = CollectorOptions {
        spool: Some(spool.clone()),
        ..CollectorOptions::default()
    };
    let registry = MetricsRegistry::new();
    let collector = Collector::new(WallClock::shared(), registry, &opts).expect("collector setup");
    let server = CollectorServer::start(
        "127.0.0.1:0",
        "127.0.0.1:0",
        Arc::new(Mutex::new(collector)),
        Duration::from_millis(20),
        CollectorOptions::default().max_frame_bytes,
    )
    .expect("collector server");

    // Ship the whole fleet's stream through the production path: the
    // ShipSink queue + shipper thread + sealed TCP frames. Capacity is
    // raised above the event count so the parity check stays exact.
    let coordinator = devices as u32;
    let shipper = TcpShipper::new(
        &server.ingest_addr().to_string(),
        coordinator,
        hadfl_telemetry::LamportClock::new(),
    );
    let ledger = shipper.ledger();
    {
        let mut sink = ShipSink::new(
            coordinator,
            ShipOptions {
                capacity: events.len() + 1,
                ..ShipOptions::default()
            },
            Box::new(shipper),
        );
        for event in &events {
            sink.record(event);
        }
        sink.flush();
    } // drop joins the shipper thread after a final flush

    // Wait for the collector to apply every event.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let applied = server
            .collector()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .status()
            .events_applied;
        if applied >= events_emitted {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "collector applied only {applied}/{} events",
            events_emitted
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let status = server
        .collector()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .status();
    assert_eq!(status.events_applied, events_emitted);
    assert_eq!(status.garbage_lines, 0);
    assert_eq!(status.events_dropped, 0, "capacity was above event count");

    // Telemetry is ledgered apart from param traffic, and the claim
    // under test: observing the fleet costs < 5% of moving its
    // parameters. Both sides of the wire must agree on the ledger.
    assert_eq!(
        status.telemetry_bytes,
        ledger.payload_bytes(),
        "shipper and collector ledgers disagree"
    );
    assert!(
        status.telemetry_bytes < param_bytes_total / 20,
        "telemetry {} bytes >= 5% of param {} bytes",
        status.telemetry_bytes,
        param_bytes_total
    );

    // The injected faults each raise their alert, within 3 rounds.
    let alerts = status.report.alerts;
    let straggler = alerts
        .iter()
        .find(|a| a.rule == "straggler" && a.device == Some(3))
        .expect("straggler alert for device 3");
    assert!(
        straggler.round.unwrap_or(u32::MAX) <= 1 + 2,
        "straggler alert too late: {straggler:?}"
    );
    let dead = alerts
        .iter()
        .find(|a| a.rule == "dead-device" && a.device == Some(7))
        .expect("dead-device alert for device 7");
    assert!(
        dead.round.unwrap_or(u32::MAX) <= 3 + 2,
        "dead-device alert too late: {dead:?}"
    );
    assert!(
        !alerts.iter().any(|a| a.rule == "round-watchdog"),
        "no stalled rounds in a completed run: {alerts:?}"
    );

    // The HTTP surface serves the same picture.
    let health = http_get(server.http_addr(), "/health");
    assert!(health.contains("200 OK"), "{health}");
    assert!(health.contains("application/json"), "{health}");
    assert!(health.contains("\"straggler\""), "{health}");
    assert!(health.contains("\"dead-device\""), "{health}");
    let metrics = http_get(server.http_addr(), "/metrics");
    assert!(
        metrics.contains("Content-Type: text/plain; version=0.0.4"),
        "{metrics}"
    );
    assert!(metrics.contains("hadfl_fleet_nodes"), "{metrics}");
    assert!(
        metrics.contains("hadfl_fleet_alerts{rule=\"straggler\"}"),
        "{metrics}"
    );

    server.shutdown();

    // The spool is a causal merge, in exactly the format `hadfl-trace
    // --follow` tails: every node's events in its own `seq` order, and
    // no frame received before it was sent. (It is not globally
    // `lam`-sorted: the collector orders each tick's stage, and nodes
    // keep their own Lamport clocks.)
    let spooled = std::fs::read_to_string(&spool).expect("read spool");
    let mut follow = FollowState::new();
    let mut last_seq: HashMap<u32, u64> = HashMap::new();
    let mut sent: HashSet<(u32, u64)> = HashSet::new();
    for line in spooled.lines() {
        let event = Event::from_json(line).expect("spool line parses");
        if let Some(last) = last_seq.insert(event.node, event.seq) {
            assert!(event.seq > last, "node {} out of seq order", event.node);
        }
        match &event.kind {
            EventKind::FrameSent { src, lamport, .. } => {
                sent.insert((*src, *lamport));
            }
            EventKind::FrameReceived { src, lamport, .. } => assert!(
                sent.contains(&(*src, *lamport)),
                "frame ({src}, {lamport}) received before it was sent"
            ),
            _ => {}
        }
        follow.observe(&event);
    }
    assert_eq!(follow.events_seen(), events_emitted);
    let rendered = follow.render(16);
    assert!(rendered.contains("round"), "{rendered}");
    let _ = std::fs::remove_file(&spool);
}

/// Both listeners block in `accept` and are woken by `shutdown`, which
/// joins them: the addresses refuse connections as soon as it returns.
#[test]
fn shutdown_closes_both_listeners_before_returning() {
    let collector = Collector::new(
        WallClock::shared(),
        MetricsRegistry::new(),
        &CollectorOptions::default(),
    )
    .expect("collector setup");
    let server = CollectorServer::start(
        "127.0.0.1:0",
        "127.0.0.1:0",
        Arc::new(Mutex::new(collector)),
        Duration::from_millis(20),
        CollectorOptions::default().max_frame_bytes,
    )
    .expect("collector server");
    let addrs = [server.ingest_addr(), server.http_addr()];
    assert!(http_get(addrs[1], "/health").contains("200 OK"));
    server.shutdown();
    for addr in addrs {
        let err = TcpStream::connect(addr).expect_err("listener must be closed");
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused, "{addr}");
    }
}

/// `shutdown` joins every ingest reader before its final tick: batches a
/// shipper wrote just before it are all applied and spooled, none left
/// behind by a reader that was still parsing.
#[test]
fn shutdown_applies_every_batch_shipped_before_it() {
    const BATCHES: u64 = 200;
    let spool = std::env::temp_dir().join(format!(
        "hadfl-collector-shutdown-{}.jsonl",
        std::process::id()
    ));
    let opts = CollectorOptions {
        spool: Some(spool.clone()),
        ..CollectorOptions::default()
    };
    let collector = Collector::new(WallClock::shared(), MetricsRegistry::new(), &opts)
        .expect("collector setup");
    let collector = Arc::new(Mutex::new(collector));
    let server = CollectorServer::start(
        "127.0.0.1:0",
        "127.0.0.1:0",
        Arc::clone(&collector),
        Duration::from_millis(1),
        opts.max_frame_bytes,
    )
    .expect("collector server");
    let mut shipper = TcpShipper::new(
        &server.ingest_addr().to_string(),
        5,
        hadfl_telemetry::LamportClock::new(),
    );
    let batch = |seq: u64| ShipBatch {
        node: 5,
        dropped: 0,
        events: vec![ev(
            5,
            seq,
            EventKind::Ledger {
                sent_bytes: seq,
                recv_bytes: 0,
                frames: 1,
            },
        )],
    };
    // The first batch is staged once its connection was accepted.
    shipper.ship(&batch(1)).expect("ship");
    let deadline = Instant::now() + Duration::from_secs(10);
    while collector
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .status()
        .nodes
        .is_empty()
    {
        assert!(Instant::now() < deadline, "the first batch never arrived");
        std::thread::sleep(Duration::from_millis(5));
    }
    // The rest queue up behind a reader that cannot stage them while
    // the collector is held, and the server stops the moment it is not.
    // They are small enough to sit in the collector's socket buffer:
    // bytes still in the shipper's send buffer at stop are not read.
    let held = collector.lock().unwrap_or_else(PoisonError::into_inner);
    for seq in 2..=BATCHES {
        shipper.ship(&batch(seq)).expect("ship");
    }
    drop(held);
    server.shutdown();

    let status = collector
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .status();
    assert_eq!(status.nodes[0].batches, BATCHES);
    assert_eq!(status.events_applied, BATCHES);
    let spooled = std::fs::read_to_string(&spool).expect("read spool");
    assert_eq!(spooled.lines().count() as u64, BATCHES);
    let _ = std::fs::remove_file(&spool);
}

/// Builds one scripted event; `lam` doubles as seq for brevity.
fn ev(node: u32, lam: u64, kind: EventKind) -> Event {
    Event {
        v: SCHEMA_VERSION,
        seq: lam,
        node,
        t_us: lam * 1_000,
        lam,
        kind,
    }
}

/// Scripts a collector on a [`ManualClock`] through every health rule
/// and returns the serialized alerts, in the order they were raised.
fn scripted_alerts() -> Vec<String> {
    let clock = ManualClock::new();
    let opts = CollectorOptions {
        health: HealthOptions {
            round_deadline: Duration::from_secs(10),
            budget_bytes: Some(1_000),
        },
        ..CollectorOptions::default()
    };
    let registry = MetricsRegistry::new();
    let clock_dyn: Arc<dyn Clock> = Arc::new(clock.clone());
    let mut collector = Collector::new(clock_dyn, registry, &opts).expect("collector setup");

    // Round 1 planned; everyone healthy so far.
    collector.ingest_event(ev(
        1000,
        1,
        EventKind::RoundPlanned {
            round: 1,
            available: vec![0, 1, 2],
            versions: vec![100.0, 100.0, 100.0],
            probabilities: vec![1.0 / 3.0; 3],
            selected: vec![0, 1],
            unselected: vec![2],
            broadcaster: 0,
        },
    ));
    collector.tick();
    assert!(collector.alerts().is_empty(), "{:?}", collector.alerts());

    // 1. No ring progress for 11s > 10s deadline: round-watchdog.
    clock.advance(Duration::from_secs(11));
    collector.tick();

    // 2. Device 1 found dead twice: dead-device via repeated bypass.
    collector.ingest_event(ev(0, 2, EventKind::BypassDeclared { round: 1, dead: 1 }));
    collector.ingest_event(ev(0, 3, EventKind::BypassDeclared { round: 1, dead: 1 }));
    collector.tick();

    // 3. Round 1 dissolves without a merge; planning round 2 closes it
    //    as a dead ring.
    collector.ingest_event(ev(
        0,
        4,
        EventKind::RingExit {
            round: 1,
            dissolved: true,
        },
    ));
    collector.ingest_event(ev(
        1000,
        5,
        EventKind::RoundPlanned {
            round: 2,
            available: vec![0, 2],
            versions: vec![110.0, 110.0],
            probabilities: vec![0.5; 2],
            selected: vec![0, 2],
            unselected: vec![],
            broadcaster: 0,
        },
    ));
    collector.tick();

    // 4. Device 5's Eq. 7 forecasts keep overshooting: straggler.
    collector.ingest_event(ev(
        1000,
        6,
        EventKind::Prediction {
            round: 2,
            device: 5,
            predicted: 200.0,
            actual: 100.0,
        },
    ));
    collector.ingest_event(ev(
        1000,
        7,
        EventKind::Prediction {
            round: 3,
            device: 5,
            predicted: 210.0,
            actual: 105.0,
        },
    ));
    collector.tick();

    // 5. Param traffic crosses the configured budget: budget-burn.
    collector.ingest_event(ev(
        0,
        8,
        EventKind::FrameSent {
            src: 0,
            dst: 2,
            bytes: 2_000,
            kind: "param_accum".into(),
            lamport: 8,
        },
    ));
    collector.tick();

    collector
        .alerts()
        .iter()
        .map(|a| serde_json::to_string(a).expect("alert serializes"))
        .collect()
}

#[test]
fn manual_clock_script_reproduces_every_alert_deterministically() {
    let alerts = scripted_alerts();
    let rules: Vec<&str> = alerts
        .iter()
        .map(|a| {
            if a.contains("\"round-watchdog\"") {
                "round-watchdog"
            } else if a.contains("\"dead-device\"") {
                "dead-device"
            } else if a.contains("\"dead-ring\"") {
                "dead-ring"
            } else if a.contains("\"straggler\"") {
                "straggler"
            } else if a.contains("\"budget-burn\"") {
                "budget-burn"
            } else {
                "?"
            }
        })
        .collect();
    assert_eq!(
        rules,
        vec![
            "round-watchdog",
            "dead-device",
            "dead-ring",
            "straggler",
            "budget-burn"
        ],
        "{alerts:#?}"
    );
    // Virtual time makes the whole script reproducible bit-for-bit.
    assert_eq!(alerts, scripted_alerts());
}
