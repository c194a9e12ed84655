//! Cross-scheme integration tests: the paper's qualitative claims must
//! hold at CI scale — HADFL beats the synchronous schemes on
//! heterogeneous clusters, and its advantage shrinks as the cluster
//! becomes homogeneous.

use hadfl::driver::{run_hadfl, SimOptions};
use hadfl::{HadflConfig, Workload};
use hadfl_baselines::{run_decentralized_fedavg, run_distributed};

fn opts(powers: &[f64], epochs: f64) -> SimOptions {
    let mut o = SimOptions::quick(powers);
    o.epochs_total = epochs;
    // Fix the fastest device at native speed (the paper's convention).
    o.base_step_secs = 0.010 * powers.iter().copied().fold(1.0, f64::max);
    o
}

/// Virtual seconds per epoch-equivalent for a finished trace.
fn secs_per_epoch(records_time: f64, epochs: f64) -> f64 {
    records_time / epochs
}

#[test]
fn hadfl_is_faster_per_epoch_on_heterogeneous_clusters() {
    let powers = [3.0, 3.0, 1.0, 1.0];
    let o = opts(&powers, 8.0);
    let w = Workload::quick("mlp", 31);
    let config = HadflConfig::builder().seed(31).build().unwrap();

    let hadfl = run_hadfl(&w, &config, &o).unwrap();
    let fedavg = run_decentralized_fedavg(&w, &o).unwrap();
    let dist = run_distributed(&w, &o).unwrap();

    let h = hadfl.trace.records.last().unwrap();
    let f = fedavg.records.last().unwrap();
    let d = dist.records.last().unwrap();
    let h_rate = secs_per_epoch(h.time_secs, h.epoch_equiv);
    let f_rate = secs_per_epoch(f.time_secs, f.epoch_equiv);
    let d_rate = secs_per_epoch(d.time_secs, d.epoch_equiv);

    // HADFL processes data faster than both synchronous schemes…
    assert!(
        h_rate < f_rate,
        "hadfl {h_rate:.4} vs fedavg {f_rate:.4} s/epoch"
    );
    assert!(
        h_rate < d_rate,
        "hadfl {h_rate:.4} vs distributed {d_rate:.4} s/epoch"
    );
    // …by an amount in the ballpark of the mean/min power ratio (2.0
    // here), eroded only by the warm-up phase.
    let speedup = f_rate / h_rate;
    assert!(
        (1.2..=2.4).contains(&speedup),
        "speedup {speedup:.2} outside the plausible band"
    );
}

#[test]
fn hadfl_advantage_shrinks_on_homogeneous_clusters() {
    let w = Workload::quick("mlp", 32);
    let config = HadflConfig::builder().seed(32).build().unwrap();

    let rate = |powers: &[f64]| {
        let o = opts(powers, 8.0);
        let hadfl = run_hadfl(&w, &config, &o).unwrap();
        let fedavg = run_decentralized_fedavg(&w, &o).unwrap();
        let h = hadfl.trace.records.last().unwrap();
        let f = fedavg.records.last().unwrap();
        (f.time_secs / f.epoch_equiv) / (h.time_secs / h.epoch_equiv)
    };

    let hetero_speedup = rate(&[4.0, 2.0, 2.0, 1.0]);
    let homo_speedup = rate(&[1.0, 1.0, 1.0, 1.0]);
    assert!(
        hetero_speedup > homo_speedup,
        "heterogeneity should be where HADFL wins: hetero {hetero_speedup:.2} vs homo {homo_speedup:.2}"
    );
    // On a homogeneous cluster there is no straggler waste to reclaim.
    assert!(
        homo_speedup < 1.35,
        "homogeneous speedup {homo_speedup:.2} suspiciously high"
    );
}

#[test]
fn deeper_heterogeneity_costs_synchronous_schemes_more() {
    let w = Workload::quick("mlp", 33);
    let total_time = |powers: &[f64]| {
        let o = opts(powers, 6.0);
        let fedavg = run_decentralized_fedavg(&w, &o).unwrap();
        fedavg.records.last().unwrap().time_secs
    };
    // [4,2,2,1] has a 4x straggler gap vs 3x: synchronous rounds stretch.
    assert!(total_time(&[4.0, 2.0, 2.0, 1.0]) > total_time(&[3.0, 3.0, 1.0, 1.0]));
}

#[test]
fn all_schemes_reach_comparable_accuracy_given_enough_epochs() {
    let powers = [2.0, 2.0, 1.0, 1.0];
    let o = opts(&powers, 14.0);
    let w = Workload::quick("mlp", 34);
    let config = HadflConfig::builder().seed(34).build().unwrap();

    let hadfl = run_hadfl(&w, &config, &o).unwrap().trace.max_accuracy();
    let fedavg = run_decentralized_fedavg(&w, &o).unwrap().max_accuracy();
    let dist = run_distributed(&w, &o).unwrap().max_accuracy();

    assert!(
        fedavg > 0.6 && dist > 0.6 && hadfl > 0.6,
        "{hadfl} {fedavg} {dist}"
    );
    // The paper: "almost no loss of convergence accuracy" — allow a
    // modest partial-aggregation gap at this tiny scale.
    assert!(
        (f64::from(fedavg) - f64::from(hadfl)).abs() < 0.25,
        "hadfl {hadfl} vs fedavg {fedavg}"
    );
}
