//! Integration tests of the advanced execution modes: hierarchical
//! grouping, the threaded executor, non-IID weighted aggregation, and
//! the heterogeneous-bandwidth ring.

use std::time::Duration;

use hadfl::driver::{run_hadfl, HadflRun, SimOptions};
use hadfl::exec::{run_threaded, ThreadedOptions};
use hadfl::topology::Ring;
use hadfl::workload::ShardKind;
use hadfl::{HadflConfig, Workload};
use hadfl_simnet::{BandwidthMatrix, DeviceId, FaultPlan, Outage, VirtualTime};
use hadfl_tensor::SeedStream;

#[test]
fn grouped_and_flat_reach_similar_accuracy() {
    let mut workload = Workload::quick("mlp", 71);
    workload.train_size = 768;
    workload.test_size = 192;
    let mut opts = SimOptions::quick(&[2.0, 2.0, 1.0, 1.0, 2.0, 2.0, 1.0, 1.0]);
    opts.epochs_total = 10.0;

    let flat_cfg = HadflConfig::builder()
        .num_selected(4)
        .seed(71)
        .build()
        .unwrap();
    let flat = run_hadfl(&workload, &flat_cfg, &opts).unwrap();

    let grouped_cfg = HadflConfig::builder()
        .group_size(Some(4))
        .inter_group_every(2)
        .num_selected(2)
        .seed(71)
        .build()
        .unwrap();
    let grouped = run_hadfl(&workload, &grouped_cfg, &opts).unwrap();

    let fa = flat.trace.max_accuracy();
    let ga = grouped.trace.max_accuracy();
    assert!(fa > 0.5 && ga > 0.5, "flat {fa} grouped {ga}");
    assert!(
        (f64::from(fa) - f64::from(ga)).abs() < 0.25,
        "flat {fa} vs grouped {ga}"
    );
}

#[test]
fn grouped_run_is_deterministic() {
    let workload = Workload::quick("mlp", 72);
    let config = HadflConfig::builder()
        .group_size(Some(2))
        .inter_group_every(2)
        .seed(72)
        .build()
        .unwrap();
    let opts = SimOptions::quick(&[2.0, 1.0, 2.0, 1.0]);
    let a = run_hadfl(&workload, &config, &opts).unwrap();
    let b = run_hadfl(&workload, &config, &opts).unwrap();
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.inter_sync_rounds, b.inter_sync_rounds);
}

/// Three groups of two; group 0 dies inside window 2 and stays dead, so
/// every inter-group ring of the run forms without it.
fn group_outage_run(group0_power: f64, max_rounds: usize) -> HadflRun {
    let workload = Workload::quick("mlp", 76);
    let config = HadflConfig::builder()
        .group_size(Some(2))
        .inter_group_every(2)
        .seed(76)
        .build()
        .unwrap();
    // A power-2 device halves a 40 ms epoch, which leaves the hyperperiod
    // — and with it every window boundary — where all-ones put it.
    let mut opts = SimOptions::quick(&[group0_power, group0_power, 1.0, 1.0, 1.0, 1.0]);
    opts.epochs_total = 1e9;
    opts.max_rounds = max_rounds;
    let healthy = run_hadfl(&workload, &config, &opts).unwrap();
    // A millisecond after round 1's rings finish, well inside window 2.
    let died = VirtualTime::from_secs(healthy.trace.records[0].time_secs + 1e-3);
    opts.faults = FaultPlan::new(vec![
        Outage::crash(DeviceId(0), died),
        Outage::crash(DeviceId(1), died),
    ])
    .unwrap();
    run_hadfl(&workload, &config, &opts).unwrap()
}

#[test]
fn dead_group_stays_out_of_the_inter_group_consensus() {
    let run = group_outage_run(1.0, 6);
    assert_eq!(run.groups, vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
    assert_eq!(run.inter_sync_rounds, vec![2, 4, 6]);
    // Planned at the start of window 2, dead at its end: the whole ring
    // is bypassed and the run goes on.
    assert_eq!(run.bypass_log.len(), 1);
    assert_eq!(run.bypass_log[0].0, 2);

    // No byte moves to or from a dead device, in either tier: cut the
    // same run after round 2 and group 0's ledger is already final, while
    // every live device's keeps growing.
    let cut = group_outage_run(1.0, 2);
    let (bytes, cut_bytes) = (&run.trace.comm.device_bytes, &cut.trace.comm.device_bytes);
    assert_eq!(bytes[..2], cut_bytes[..2]);
    for d in 2..6 {
        assert!(
            bytes[d] > cut_bytes[d],
            "device {d}: {bytes:?} vs {cut_bytes:?}"
        );
    }

    // The consensus is the mean of the live groups' models and nothing
    // else: give group 0 another power — another stale model, the same
    // windows — and what groups 1 and 2 evaluate and count is unchanged.
    let other = group_outage_run(2.0, 6);
    assert_ne!(run.strategy.local_steps, other.strategy.local_steps);
    for (a, b) in run.trace.records.iter().zip(&other.trace.records) {
        assert_eq!(a.test_accuracy, b.test_accuracy, "round {}", a.round);
        assert_eq!(a.versions[2..], b.versions[2..], "round {}", a.round);
    }
    assert_eq!(run.trace.records.len(), other.trace.records.len());

    let again = group_outage_run(1.0, 6);
    assert_eq!(run, again);
}

#[test]
fn threaded_executor_matches_virtual_time_protocol() {
    // Same workload through both executors: both must select 2-device
    // rings, accumulate versions, and produce a finite consensus.
    let workload = Workload::quick("mlp", 73);
    let config = HadflConfig::builder()
        .num_selected(2)
        .seed(73)
        .build()
        .unwrap();

    let virtual_run = run_hadfl(&workload, &config, &SimOptions::quick(&[2.0, 1.0, 1.0])).unwrap();
    let threaded = run_threaded(
        &workload,
        &config,
        &ThreadedOptions {
            powers: vec![2.0, 1.0, 1.0],
            step_sleep: Duration::from_millis(4),
            window: Duration::from_millis(50),
            rounds: 3,
            timing: hadfl::exec::ProtocolTiming::quick(),
        },
    )
    .unwrap();

    for r in &virtual_run.trace.records {
        assert_eq!(r.selected.len(), 2);
    }
    for r in &threaded.rounds {
        assert_eq!(r.selected.len(), 2);
    }
    assert!(threaded.final_accuracy.is_finite());
    assert!(threaded.peer_bytes > 0);
}

#[test]
fn noniid_weighted_aggregation_end_to_end() {
    let mut workload = Workload::quick("mlp", 74);
    workload.shard = ShardKind::Dirichlet { alpha: 0.5 };
    let mut opts = SimOptions::quick(&[3.0, 3.0, 1.0, 1.0]);
    opts.epochs_total = 10.0;
    let config = HadflConfig::builder()
        .weight_by_samples(true)
        .seed(74)
        .build()
        .unwrap();
    let run = run_hadfl(&workload, &config, &opts).unwrap();
    assert!(
        run.trace.max_accuracy() > 0.3,
        "accuracy {}",
        run.trace.max_accuracy()
    );
}

#[test]
fn bandwidth_aware_ring_avoids_slow_links_when_possible() {
    let net = BandwidthMatrix::two_clusters(6, 3, 0.0, 1e9, 1e5).unwrap();
    let members: Vec<DeviceId> = (0..6).map(DeviceId).collect();
    let mut rng = SeedStream::new(75);
    for _ in 0..5 {
        let ring = Ring::greedy_bandwidth(&members, &net, &mut rng).unwrap();
        let crossings = ring
            .members()
            .iter()
            .enumerate()
            .filter(|&(i, &from)| {
                let to = ring.members()[(i + 1) % ring.len()];
                net.bandwidth(from, to).unwrap() < 1e9
            })
            .count();
        assert_eq!(crossings, 2, "minimum crossings for two clusters: {ring}");
    }
}
