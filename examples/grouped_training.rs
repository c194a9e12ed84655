//! Hierarchical grouping (paper §III-C, Fig. 2a): eight devices in two
//! groups of four; intra-group rings every round, inter-group
//! representative rings every second round.
//!
//! Run: `cargo run --release --example grouped_training`

use hadfl::driver::{run_hadfl, SimOptions};
use hadfl::{HadflConfig, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut workload = Workload::quick("mlp", 11);
    workload.train_size = 768; // 96 samples per device across 8 devices
    workload.test_size = 192;

    // Two fast + two slow devices per group.
    let mut opts = SimOptions::quick(&[2.0, 2.0, 1.0, 1.0, 2.0, 2.0, 1.0, 1.0]);
    opts.epochs_total = 10.0;

    let config = HadflConfig::builder()
        .group_size(Some(4))
        .inter_group_every(2)
        .num_selected(2)
        .seed(11)
        .build()?;

    // `group_size` is all it takes: `run_hadfl` partitions the devices.
    let run = run_hadfl(&workload, &config, &opts)?;
    println!("groups: {:?}", run.groups);
    println!(
        "inter-group synchronizations fired at rounds {:?} (period 2)",
        run.inter_sync_rounds
    );
    let last = run.trace.records.last().expect("at least one round");
    println!(
        "final test accuracy {:.1}% after {:.1} epoch-equivalents in {:.2} virtual s",
        last.test_accuracy * 100.0,
        last.epoch_equiv,
        last.time_secs
    );
    println!(
        "server traffic: {} bytes of version reports and plans, no model — decentralized at both tiers",
        run.trace.comm.server_bytes
    );
    Ok(())
}
