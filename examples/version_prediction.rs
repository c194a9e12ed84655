//! Runtime version prediction under compute jitter (paper §III-B): the
//! coordinator's double-exponential-smoothing predictor tracks device
//! speeds that drift at runtime, keeping the Eq. (8) selection honest.
//!
//! Run: `cargo run --release --example version_prediction`

use hadfl::driver::{run_hadfl, SimOptions};
use hadfl::predict::VersionPredictor;
use hadfl::{HadflConfig, Workload};
use hadfl_simnet::Jitter;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Part 1: the predictor in isolation, on a device that abruptly
    // halves its speed (background load arrives).
    let mut predictor = VersionPredictor::new(0.5)?;
    println!("round  actual  forecast(next)");
    let mut actual = 0.0;
    for round in 1..=12 {
        let rate = if round <= 6 { 100.0 } else { 50.0 };
        actual += rate;
        predictor.observe(actual);
        let forecast = predictor.forecast(1).expect("observed");
        println!("{round:>5}  {actual:>6.0}  {forecast:>8.0}");
    }
    println!("(the forecast bends to the new 50-steps/round rate within a few rounds)\n");

    // Part 2: end-to-end — jittered compute with occasional 3x slowdowns.
    let workload = Workload::quick("mlp", 13);
    let mut opts = SimOptions::quick(&[3.0, 3.0, 1.0, 1.0]);
    opts.jitter = Jitter::Spike {
        prob: 0.15,
        slow_factor: 3.0,
    };
    opts.epochs_total = 10.0;
    let config = HadflConfig::builder()
        .smoothing_alpha(0.6)
        .seed(13)
        .build()?;
    let run = run_hadfl(&workload, &config, &opts)?;
    let last = run.trace.records.last().expect("trained");
    println!(
        "with spiky compute, HADFL still reached {:.1}% accuracy in {:.2} virtual s",
        last.test_accuracy * 100.0,
        last.time_secs
    );
    println!("cumulative versions per device: {:?}", last.versions);
    println!("(fast devices pull ahead even under jitter; selection keeps tracking them)");
    Ok(())
}
