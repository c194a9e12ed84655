//! Regenerates the paper's **communication-volume analysis** (§II-B and
//! §III-D): centralized FedAvg pushes `2·M·K` bytes through the server
//! every aggregation round, while decentralized schemes (including
//! HADFL) move the same per-device volume peer-to-peer with *zero* model
//! bytes through any central point — and HADFL's per-device total stays
//! `2·K·M`-comparable, "the same as FL", as §III-D claims.
//!
//! Run: `cargo run --release -p hadfl-bench --bin comm_volume`

use hadfl::driver::{run_hadfl, SimOptions};
use hadfl::{HadflConfig, Workload};
use hadfl_baselines::run_centralized_fedavg;
use hadfl_bench::write_csv;

fn main() {
    let powers = [3.0, 3.0, 1.0, 1.0];
    let workload = Workload::quick("mlp", 700);
    let mut opts = SimOptions::quick(&powers);
    opts.epochs_total = 12.0;

    let central = run_centralized_fedavg(&workload, &opts).expect("centralized run failed");
    let config = HadflConfig::builder()
        .num_selected(2)
        .seed(700)
        .build()
        .expect("valid");
    let hadfl = run_hadfl(&workload, &config, &opts).expect("hadfl run failed");

    let m = central.model_bytes;
    let k = central.devices as u64;
    let central_rounds = central.records.len() as u64;
    let hadfl_rounds = hadfl.trace.records.len() as u64;

    println!("communication volume (model size M = {m} bytes, K = {k} devices)\n");
    println!(
        "{:<24} {:>8} {:>16} {:>16} {:>16}",
        "scheme", "rounds", "server bytes", "max device", "total"
    );
    println!(
        "{:<24} {:>8} {:>16} {:>16} {:>16}",
        "centralized_fedavg",
        central_rounds,
        central.comm.server_bytes,
        central.comm.max_device_bytes(),
        central.comm.total_bytes
    );
    println!(
        "{:<24} {:>8} {:>16} {:>16} {:>16}",
        "hadfl (train phase)",
        hadfl_rounds,
        hadfl.trace.comm.server_bytes,
        hadfl.trace.comm.max_device_bytes(),
        hadfl.trace.comm.total_bytes
    );

    // §II-B: the server carries 2·M·K per round in centralized FL.
    assert_eq!(central.comm.server_bytes, 2 * m * k * central_rounds);
    // HADFL: no model traffic through any central point during training
    // (control-plane messages only, ≪ M).
    assert!(hadfl.trace.comm.server_bytes < m);

    let central_dev_per_round =
        central.comm.max_device_bytes() as f64 / central_rounds as f64 / m as f64;
    let hadfl_dev_per_round =
        hadfl.trace.comm.max_device_bytes() as f64 / hadfl_rounds as f64 / m as f64;
    println!(
        "\nper-device per-round model transfers: centralized {central_dev_per_round:.2}·M, \
         hadfl {hadfl_dev_per_round:.2}·M (§III-D: device volume comparable, server removed)"
    );

    write_csv(
        "comm_volume.csv",
        "scheme,rounds,server_bytes,max_device_bytes,total_bytes,model_bytes",
        &[
            format!(
                "centralized_fedavg,{central_rounds},{},{},{},{m}",
                central.comm.server_bytes,
                central.comm.max_device_bytes(),
                central.comm.total_bytes
            ),
            format!(
                "hadfl,{hadfl_rounds},{},{},{},{m}",
                hadfl.trace.comm.server_bytes,
                hadfl.trace.comm.max_device_bytes(),
                hadfl.trace.comm.total_bytes
            ),
        ],
    );
}
