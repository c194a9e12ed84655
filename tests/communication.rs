//! Communication-accounting integration tests: the §II-B / §III-D
//! volume claims checked end to end across schemes.

use hadfl::driver::{run_hadfl, SimOptions};
use hadfl::{HadflConfig, Workload};
use hadfl_baselines::{run_centralized_fedavg, run_decentralized_fedavg, run_distributed};

fn opts(epochs: f64) -> SimOptions {
    let mut o = SimOptions::quick(&[3.0, 3.0, 1.0, 1.0]);
    o.epochs_total = epochs;
    o
}

#[test]
fn centralized_server_carries_2mk_per_round() {
    let trace = run_centralized_fedavg(&Workload::quick("mlp", 51), &opts(6.0)).unwrap();
    let rounds = trace.records.len() as u64;
    assert_eq!(trace.comm.server_bytes, 2 * trace.model_bytes * 4 * rounds);
}

#[test]
fn decentralized_schemes_have_zero_server_model_traffic() {
    let fedavg = run_decentralized_fedavg(&Workload::quick("mlp", 52), &opts(6.0)).unwrap();
    assert_eq!(fedavg.comm.server_bytes, 0);

    let dist = run_distributed(&Workload::quick("mlp", 52), &opts(6.0)).unwrap();
    assert_eq!(dist.comm.server_bytes, 0);

    let config = HadflConfig::builder().seed(52).build().unwrap();
    let hadfl = run_hadfl(&Workload::quick("mlp", 52), &config, &opts(6.0)).unwrap();
    // HADFL's training-phase server traffic is control-plane only.
    assert!(hadfl.trace.comm.server_bytes < hadfl.trace.model_bytes);
}

#[test]
fn hadfl_device_volume_is_comparable_to_fedavg() {
    // §III-D: "The total communication volume of devices is 2·K·M, which
    // is the same as FL." Check the per-round per-device model transfers
    // are within a small factor of FedAvg's.
    let o = opts(10.0);
    let w = Workload::quick("mlp", 53);
    let config = HadflConfig::builder().seed(53).build().unwrap();
    let hadfl = run_hadfl(&w, &config, &o).unwrap();
    let fedavg = run_decentralized_fedavg(&w, &o).unwrap();

    let per_round = |total: u64, rounds: usize| total as f64 / rounds as f64;
    let h = per_round(hadfl.trace.comm.total_bytes, hadfl.trace.records.len());
    let f = per_round(fedavg.comm.total_bytes, fedavg.records.len());
    assert!(
        h < 1.5 * f,
        "hadfl per-round volume {h:.0} should not exceed fedavg's {f:.0} by much"
    );
}

#[test]
fn setup_dispatch_is_one_model_per_device() {
    let config = HadflConfig::builder().seed(54).build().unwrap();
    let run = run_hadfl(&Workload::quick("mlp", 54), &config, &opts(4.0)).unwrap();
    // K models out plus K tiny timing reports in.
    assert!(run.setup_comm.server_bytes >= 4 * run.trace.model_bytes);
    assert!(run.setup_comm.server_bytes < 4 * run.trace.model_bytes + 1024);
}

#[test]
fn backups_cost_one_model_each() {
    let config = HadflConfig::builder().seed(55).build().unwrap();
    let mut o = opts(8.0);
    o.backup_every = Some(2);
    let run = run_hadfl(&Workload::quick("mlp", 55), &config, &o).unwrap();
    assert!(run.backups_taken > 0);
    assert_eq!(
        run.backup_comm.server_bytes,
        run.backups_taken as u64 * run.trace.model_bytes
    );
}

#[test]
fn wire_override_scales_comm_not_math() {
    let config = HadflConfig::builder().seed(56).build().unwrap();
    let mut small = opts(4.0);
    small.wire_model_bytes = None;
    let mut big = opts(4.0);
    big.wire_model_bytes = Some(44_600_000);
    let w = Workload::quick("mlp", 56);
    let a = run_hadfl(&w, &config, &small).unwrap();
    let b = run_hadfl(&w, &config, &big).unwrap();
    // Same learning dynamics (accuracy identical), different wire volume.
    let accs = |t: &hadfl::trace::Trace| {
        t.records
            .iter()
            .map(|r| r.test_accuracy)
            .collect::<Vec<_>>()
    };
    assert_eq!(accs(&a.trace), accs(&b.trace));
    assert!(b.trace.comm.total_bytes > 100 * a.trace.comm.total_bytes);
}
