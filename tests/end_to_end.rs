//! End-to-end integration tests of the full HADFL workflow across the
//! workspace crates.

use hadfl::driver::{run_hadfl, HadflRun, SimOptions};
use hadfl::workload::ShardKind;
use hadfl::{HadflConfig, Workload};
use hadfl_simnet::{DeviceId, FaultPlan, Jitter, Outage, VirtualTime};

const GOLDEN_PLAIN: u64 = 0x8dba_5cee_9181_3e7f;
const GOLDEN_FAULTED: u64 = 0xe046_fbb8_c0ae_8560;
const GOLDEN_WEIGHTED: u64 = 0x2217_a70a_879b_8b5a;
const GOLDEN_BACKUP: u64 = 0xebc9_ba16_0faa_e2f2;
const GOLDEN_GROUPED: u64 = 0xeca0_d743_9843_844f;
const GOLDEN_SPIKED: u64 = 0xb5af_ffc5_1f16_e181;

fn quick_opts(powers: &[f64], epochs: f64) -> SimOptions {
    let mut opts = SimOptions::quick(powers);
    opts.epochs_total = epochs;
    opts
}

#[test]
fn hadfl_learns_the_synthetic_task() {
    let config = HadflConfig::builder().seed(21).build().unwrap();
    let run = run_hadfl(
        &Workload::quick("mlp", 21),
        &config,
        &quick_opts(&[3.0, 3.0, 1.0, 1.0], 10.0),
    )
    .unwrap();
    let last = run.trace.records.last().unwrap();
    assert!(last.test_accuracy > 0.5, "accuracy {}", last.test_accuracy);
    assert!(last.epoch_equiv >= 10.0);
}

#[test]
fn whole_pipeline_is_deterministic() {
    let config = HadflConfig::builder().seed(22).build().unwrap();
    let opts = quick_opts(&[4.0, 2.0, 2.0, 1.0], 6.0);
    let a = run_hadfl(&Workload::quick("mlp", 22), &config, &opts).unwrap();
    let b = run_hadfl(&Workload::quick("mlp", 22), &config, &opts).unwrap();
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.setup_comm, b.setup_comm);
    assert_eq!(a.strategy, b.strategy);
}

#[test]
fn different_seeds_give_different_runs() {
    // 4 devices, N_p = 2: the framework seed drives which pair gossips,
    // so two seeds must diverge. (With K = N_p the seed has no visible
    // effect — everyone is always selected.)
    let opts = quick_opts(&[2.0, 1.0, 2.0, 1.0], 8.0);
    let a = run_hadfl(
        &Workload::quick("mlp", 23),
        &HadflConfig::builder().seed(1).build().unwrap(),
        &opts,
    )
    .unwrap();
    let b = run_hadfl(
        &Workload::quick("mlp", 23),
        &HadflConfig::builder().seed(2).build().unwrap(),
        &opts,
    )
    .unwrap();
    // Same workload, different framework seeds: selection and rings
    // differ, so the traces should not be identical.
    assert_ne!(a.trace, b.trace);
}

#[test]
fn strategy_matches_power_ratio() {
    let config = HadflConfig::builder().seed(24).build().unwrap();
    let run = run_hadfl(
        &Workload::quick("mlp", 24),
        &config,
        &quick_opts(&[3.0, 3.0, 1.0, 1.0], 4.0),
    )
    .unwrap();
    let steps = &run.strategy.local_steps;
    // Fast devices get ~3x the local step budget of the stragglers.
    let ratio = steps[0] as f64 / steps[3] as f64;
    assert!((2.5..=3.5).contains(&ratio), "steps {steps:?}");
}

#[test]
fn versions_track_cumulative_updates() {
    let config = HadflConfig::builder().seed(25).build().unwrap();
    let run = run_hadfl(
        &Workload::quick("mlp", 25),
        &config,
        &quick_opts(&[2.0, 1.0], 6.0),
    )
    .unwrap();
    // Versions are cumulative, so they must be non-decreasing round over
    // round for every device.
    for pair in run.trace.records.windows(2) {
        for (prev, next) in pair[0].versions.iter().zip(&pair[1].versions) {
            assert!(next >= prev, "version went backwards: {prev} -> {next}");
        }
    }
}

#[test]
fn selected_sets_vary_over_rounds() {
    let config = HadflConfig::builder().seed(26).build().unwrap();
    let run = run_hadfl(
        &Workload::quick("mlp", 26),
        &config,
        &quick_opts(&[1.0, 1.0, 1.0, 1.0], 16.0),
    )
    .unwrap();
    let distinct: std::collections::HashSet<&Vec<usize>> =
        run.trace.records.iter().map(|r| &r.selected).collect();
    assert!(
        distinct.len() > 1,
        "probabilistic selection should vary: {:?}",
        run.trace
            .records
            .iter()
            .map(|r| &r.selected)
            .collect::<Vec<_>>()
    );
}

#[test]
fn umbrella_crate_reexports_compile() {
    // hadfl_suite re-exports every workspace crate; touch each path.
    let _spec = hadfl_suite::nn::SyntheticSpec::tiny();
    let _t = hadfl_suite::tensor::Tensor::zeros(&[2, 2]);
    let _d = hadfl_suite::simnet::DeviceId(0);
    let _c = hadfl_suite::hadfl::HadflConfig::builder().build().unwrap();
    let _b = hadfl_suite::baselines::run_distributed;
}

/// FNV-1a over the JSON of the `HadflRun` fields that predate grouping
/// folding into `run_hadfl`; `groups` and `inter_sync_rounds` are left
/// out, so the constants below are the parent commit's.
fn fingerprint(run: &HadflRun) -> u64 {
    let json = serde_json::to_string(&(
        (&run.trace, &run.setup_comm, &run.backup_comm),
        (run.backups_taken, &run.strategy, &run.bypass_log),
    ))
    .expect("finite run serializes");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Flat runs are bit-identical to the loop that existed before grouped
/// and flat HADFL shared one driver: four configurations covering the
/// plain path, bypass + rejoin, the weighted merge, and backup with an
/// overridden wire size, pinned to fingerprints taken at that commit.
/// Two later pins ride along: a grouped run with inter-group rings, and
/// a run whose step times spike, which draws on every device's
/// step-time stream.
#[test]
fn flat_runs_match_pre_fold_fingerprints() {
    let seeded = |seed| HadflConfig::builder().seed(seed);

    let plain = run_hadfl(
        &Workload::quick("mlp", 31),
        &seeded(31).build().unwrap(),
        &quick_opts(&[3.0, 3.0, 1.0, 1.0], 6.0),
    )
    .unwrap();
    assert_eq!(fingerprint(&plain), GOLDEN_PLAIN, "plain [3,3,1,1]");

    // Every device is always selected, so the crashed device 3 and the
    // briefly absent device 1 are both planned into rings they miss.
    let mut opts = quick_opts(&[3.0, 3.0, 1.0, 1.0], 10.0);
    opts.faults = FaultPlan::new(vec![
        Outage::crash(DeviceId(3), VirtualTime::from_secs(0.20)),
        Outage::window(
            DeviceId(1),
            VirtualTime::from_secs(0.15),
            VirtualTime::from_secs(0.30),
        ),
    ])
    .unwrap();
    let faulted = run_hadfl(
        &Workload::quick("mlp", 32),
        &seeded(32).num_selected(4).build().unwrap(),
        &opts,
    )
    .unwrap();
    let bypassed: Vec<usize> = faulted
        .bypass_log
        .iter()
        .flat_map(|(_, devs)| devs.iter().copied())
        .collect();
    assert!(
        bypassed.contains(&1) && bypassed.contains(&3),
        "{bypassed:?}"
    );
    let last = faulted.trace.records.last().unwrap();
    assert!(last.selected.contains(&1), "device 1 rejoined");
    assert_eq!(fingerprint(&faulted), GOLDEN_FAULTED, "crash + outage");

    let mut noniid = Workload::quick("mlp", 33);
    noniid.shard = ShardKind::Dirichlet { alpha: 0.3 };
    let weighted = run_hadfl(
        &noniid,
        &seeded(33).weight_by_samples(true).build().unwrap(),
        &quick_opts(&[2.0, 1.0, 2.0, 1.0], 6.0),
    )
    .unwrap();
    assert_eq!(fingerprint(&weighted), GOLDEN_WEIGHTED, "weighted non-IID");

    let mut opts = quick_opts(&[2.0, 1.0, 1.0], 6.0);
    opts.backup_every = Some(2);
    opts.wire_model_bytes = Some(46_000_000);
    let backed_up = run_hadfl(
        &Workload::quick("mlp", 34),
        &seeded(34).build().unwrap(),
        &opts,
    )
    .unwrap();
    assert!(backed_up.backups_taken >= 1);
    assert_eq!(fingerprint(&backed_up), GOLDEN_BACKUP, "backup + wire size");

    let grouped = run_hadfl(
        &Workload::quick("mlp", 35),
        &seeded(35)
            .group_size(Some(2))
            .inter_group_every(2)
            .build()
            .unwrap(),
        &quick_opts(&[2.0, 1.0, 2.0, 1.0], 6.0),
    )
    .unwrap();
    assert!(!grouped.inter_sync_rounds.is_empty());
    assert_eq!(
        fingerprint(&grouped),
        GOLDEN_GROUPED,
        "grouped, inter-group"
    );

    let mut opts = quick_opts(&[3.0, 3.0, 1.0, 1.0], 6.0);
    opts.jitter = Jitter::Spike {
        prob: 0.15,
        slow_factor: 3.0,
    };
    let spiked = run_hadfl(
        &Workload::quick("mlp", 36),
        &seeded(36).build().unwrap(),
        &opts,
    )
    .unwrap();
    assert_eq!(fingerprint(&spiked), GOLDEN_SPIKED, "spike jitter");
}
