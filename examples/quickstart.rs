//! Quickstart: train a small model with HADFL on four simulated devices
//! with the paper's [3, 3, 1, 1] computing-power ratio, and compare
//! against decentralized FedAvg.
//!
//! Run: `cargo run --release --example quickstart`

use hadfl::driver::{run_hadfl, SimOptions};
use hadfl::{HadflConfig, Workload};
use hadfl_baselines::run_decentralized_fedavg;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A CI-scale workload: the tiny synthetic CIFAR task and an MLP.
    let workload = Workload::quick("mlp", 42);

    // Four devices; device 0 is 3x as fast as device 3 (the paper's
    // sleep()-emulated heterogeneity, here in virtual time).
    let mut opts = SimOptions::quick(&[3.0, 3.0, 1.0, 1.0]);
    opts.epochs_total = 10.0;

    // The paper's defaults: T_sync = 1 hyperperiod, N_p = 2 selected
    // devices per round, Eq. (8) probabilistic selection.
    let config = HadflConfig::builder().num_selected(2).seed(42).build()?;

    let run = run_hadfl(&workload, &config, &opts)?;
    let (acc, secs) = run
        .trace
        .time_to_max_accuracy()
        .expect("trained at least one round");
    println!(
        "HADFL:  reached {:.1}% test accuracy at {:.2} virtual seconds",
        acc * 100.0,
        secs
    );
    println!(
        "        hyperperiod {:.0} ms, local steps per window {:?} (heterogeneity-aware)",
        run.strategy.hyperperiod_secs * 1e3,
        run.strategy.local_steps
    );
    println!(
        "        server model traffic during training: {} bytes (decentralized)",
        run.trace.comm.server_bytes
    );

    let fedavg = run_decentralized_fedavg(&workload, &opts)?;
    let (facc, fsecs) = fedavg.time_to_max_accuracy().expect("trained");
    println!(
        "FedAvg: reached {:.1}% test accuracy at {:.2} virtual seconds",
        facc * 100.0,
        fsecs
    );
    println!(
        "speedup of HADFL over decentralized FedAvg: {:.2}x",
        fsecs / secs
    );
    Ok(())
}
