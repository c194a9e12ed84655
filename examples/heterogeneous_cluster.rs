//! Compare all three training schemes over the paper's two
//! heterogeneity distributions — a miniature Table I.
//!
//! Run: `cargo run --release --example heterogeneous_cluster`

use hadfl::driver::{run_hadfl, SimOptions};
use hadfl::{HadflConfig, Workload};
use hadfl_baselines::{run_decentralized_fedavg, run_distributed};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<16} {:<24} {:>9} {:>13}",
        "powers", "scheme", "max acc", "time to max"
    );
    for powers in [&[3.0, 3.0, 1.0, 1.0][..], &[4.0, 2.0, 2.0, 1.0][..]] {
        let workload = Workload::quick("mlp", 7);
        let mut opts = SimOptions::quick(powers);
        opts.epochs_total = 10.0;
        // The paper's convention: the fastest device runs at native
        // speed, the others are slowed by the ratio.
        opts.base_step_secs = 0.010 * powers.iter().copied().fold(1.0, f64::max);

        let mut results: Vec<(String, f32, f64)> = Vec::new();

        let dist = run_distributed(&workload, &opts)?;
        if let Some((a, t)) = dist.time_to_max_accuracy() {
            results.push(("distributed_training".into(), a, t));
        }
        let fedavg = run_decentralized_fedavg(&workload, &opts)?;
        if let Some((a, t)) = fedavg.time_to_max_accuracy() {
            results.push(("decentralized_fedavg".into(), a, t));
        }
        let config = HadflConfig::builder().num_selected(2).seed(7).build()?;
        let hadfl = run_hadfl(&workload, &config, &opts)?;
        if let Some((a, t)) = hadfl.trace.time_to_max_accuracy() {
            results.push(("hadfl".into(), a, t));
        }

        for (scheme, acc, time) in &results {
            println!(
                "{:<16} {:<24} {:>8.1}% {:>12.2}s",
                format!("{powers:?}"),
                scheme,
                acc * 100.0,
                time
            );
        }
        if let (Some(h), Some(f)) = (
            results.iter().find(|r| r.0 == "hadfl"),
            results.iter().find(|r| r.0 == "decentralized_fedavg"),
        ) {
            println!("    → HADFL speedup over FedAvg: {:.2}x\n", f.2 / h.2);
        }
    }
    Ok(())
}
