//! One evaluation path: a merged model is evaluated the same way by the
//! actors' close (`run_virtual`), the closed-form driver's record
//! (`Cluster::record`) and `BuiltWorkload::evaluate_params`, and the
//! merge carries the BatchNorm running statistics it is evaluated with.

use std::time::Duration;

use hadfl::coordinator::StrategyGenerator;
use hadfl::driver::{Cluster, SimOptions};
use hadfl::exec::{run_virtual, run_virtual_cluster, ThreadedOptions};
use hadfl::{HadflConfig, Workload};

#[test]
fn a_merged_resnet_evaluates_to_one_accuracy_on_every_path() {
    let mut workload = Workload::quick("resnet18_lite", 5);
    // Small batches and a small test set keep the test quick.
    workload.device_batch = 8;
    workload.test_size = 32;
    let config = HadflConfig::builder().num_selected(2).build().unwrap();
    // Two local steps on each device's own shard, then one ring of both.
    let step = Duration::from_millis(4);
    let opts = ThreadedOptions::new(&[1.0, 1.0], step, 2 * step, 1);

    // The actors' close evaluates the consensus of the final states.
    let closed = run_virtual(&workload, &config, &opts)
        .unwrap()
        .final_accuracy;

    // The same run by hand, for the merge itself.
    let mut built = workload.build(2).unwrap();
    for rt in &mut built.runtimes {
        rt.set_optimizer(config.lr, config.momentum);
    }
    let runtimes = std::mem::take(&mut built.runtimes);
    let planner = StrategyGenerator::new(&config);
    let (run, _, _) = run_virtual_cluster(runtimes, planner, &config, &opts, &[], &[]).unwrap();
    let merged = run.consensus().unwrap();
    let model = workload.model().unwrap();
    assert_eq!(
        merged.len(),
        model.state_len(),
        "the merge has no statistics"
    );
    assert!(model.state_len() > model.num_params());

    // The closed-form driver records on a cluster whose replicas have
    // trained, each on its shard, as they have by any recorded round.
    let mut cluster = Cluster::new(5, &workload, &SimOptions::quick(&[1.0, 1.0])).unwrap();
    for rt in &mut cluster.built.runtimes {
        rt.train_steps(4).unwrap();
    }
    cluster.record(1, 1.0, 0.0, 0.0, &merged).unwrap();
    let recorded = cluster.finish("hadfl").records[0].test_accuracy;

    let direct = built.evaluate_params(&merged).unwrap().accuracy;
    assert_eq!(closed.to_bits(), direct.to_bits(), "{closed} vs {direct}");
    assert_eq!(
        recorded.to_bits(),
        direct.to_bits(),
        "{recorded} vs {direct}"
    );
}
