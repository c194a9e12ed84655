//! HADFL on real OS threads: one thread per device, heterogeneity
//! emulated with `sleep()` exactly as the paper does on its GPUs, and
//! parameters moving between threads as protocol frames.
//!
//! Run: `cargo run --release --example threaded_cluster`

use std::time::Duration;

use hadfl::exec::{run_threaded, ThreadedOptions};
use hadfl::{HadflConfig, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = Workload::quick("mlp", 17);
    let config = HadflConfig::builder().num_selected(2).seed(17).build()?;
    // The fastest device's step period (30 ms / 3) must exceed the
    // actual (shared-CPU) gradient math, or its steps run back to back
    // and the power ratio flattens on a small machine.
    let opts = ThreadedOptions {
        powers: vec![3.0, 3.0, 1.0, 1.0],
        step_sleep: Duration::from_millis(30),
        window: Duration::from_millis(300),
        rounds: 4,
        timing: hadfl::exec::ProtocolTiming::default(),
    };

    let report = run_threaded(&workload, &config, &opts)?;
    println!(
        "threaded HADFL over {} wall-clock ms:",
        report.wall.as_millis()
    );
    for r in &report.rounds {
        println!(
            "  round {}: versions {:?}  selected {:?}",
            r.round, r.versions, r.selected
        );
    }
    println!(
        "fast devices (power 3) out-stepped stragglers without any barrier; \
         {} bytes of encoded frames moved peer-to-peer",
        report.peer_bytes
    );
    println!(
        "consensus test accuracy: {:.1}%",
        report.final_accuracy * 100.0
    );
    Ok(())
}
