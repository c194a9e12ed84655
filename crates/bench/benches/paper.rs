//! Criterion benchmarks mirroring the paper's experiments at CI scale:
//! one group per table/figure, each timing a full (quick-profile)
//! simulated training run of the schemes involved. The report-scale
//! numbers for EXPERIMENTS.md come from the `src/bin/` harnesses; these
//! benches keep the experiment paths exercised and timed on every
//! `cargo bench`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hadfl::driver::{run_hadfl, SimOptions};
use hadfl::schedule::{distributed_timeline, fedavg_timeline, hadfl_timeline};
use hadfl::select::SelectionPolicy;
use hadfl::{HadflConfig, Workload};
use hadfl_baselines::{
    run_centralized_fedavg, run_decentralized_fedavg, run_distributed, BaselineConfig,
};

fn quick_opts() -> SimOptions {
    let mut opts = SimOptions::quick(&[3.0, 3.0, 1.0, 1.0]);
    opts.epochs_total = 3.0;
    opts
}

fn bench_table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_time_to_accuracy");
    group.sample_size(10);
    group.bench_function("hadfl", |b| {
        let config = HadflConfig::builder().seed(1).build().expect("valid");
        b.iter(|| {
            let run = run_hadfl(&Workload::quick("mlp", 1), &config, &quick_opts()).expect("runs");
            black_box(run.trace.time_to_max_accuracy())
        });
    });
    group.bench_function("decentralized_fedavg", |b| {
        b.iter(|| {
            let t = run_decentralized_fedavg(
                &Workload::quick("mlp", 1),
                &BaselineConfig::default(),
                &quick_opts(),
            )
            .expect("runs");
            black_box(t.time_to_max_accuracy())
        });
    });
    group.bench_function("distributed_training", |b| {
        b.iter(|| {
            let t = run_distributed(
                &Workload::quick("mlp", 1),
                &BaselineConfig::default(),
                &quick_opts(),
            )
            .expect("runs");
            black_box(t.time_to_max_accuracy())
        });
    });
    group.finish();
}

fn bench_fig3_curves(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_curves");
    group.sample_size(10);
    group.bench_function("hadfl_trace_extraction", |b| {
        let config = HadflConfig::builder().seed(2).build().expect("valid");
        let run = run_hadfl(&Workload::quick("mlp", 2), &config, &quick_opts()).expect("runs");
        b.iter(|| {
            black_box((
                run.trace.loss_vs_epoch(),
                run.trace.accuracy_vs_epoch(),
                run.trace.accuracy_vs_time(),
            ))
        });
    });
    group.finish();
}

fn bench_worst_case(c: &mut Criterion) {
    let mut group = c.benchmark_group("worst_case_upper_bound");
    group.sample_size(10);
    group.bench_function("worst_two_selection", |b| {
        let config = HadflConfig::builder()
            .selection(SelectionPolicy::WorstCase)
            .seed(3)
            .build()
            .expect("valid");
        b.iter(|| {
            let run = run_hadfl(&Workload::quick("mlp", 3), &config, &quick_opts()).expect("runs");
            black_box(run.trace.max_accuracy())
        });
    });
    group.finish();
}

fn bench_fig1_schedules(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_schedule");
    let powers = [4.0, 2.0, 1.0];
    group.bench_function("distributed", |b| {
        b.iter(|| black_box(distributed_timeline(&powers, 0.04, 0.002, 16).expect("valid")));
    });
    group.bench_function("fedavg", |b| {
        b.iter(|| black_box(fedavg_timeline(&powers, 0.04, 0.002, 8, 2).expect("valid")));
    });
    group.bench_function("hadfl", |b| {
        b.iter(|| {
            black_box(hadfl_timeline(&powers, 0.04, 0.002, &[8, 8, 8], 1, 2).expect("valid"))
        });
    });
    group.finish();
}

fn bench_comm_volume(c: &mut Criterion) {
    let mut group = c.benchmark_group("comm_volume");
    group.sample_size(10);
    group.bench_function("centralized_fedavg_server_bytes", |b| {
        b.iter(|| {
            let t = run_centralized_fedavg(
                &Workload::quick("mlp", 4),
                &BaselineConfig::default(),
                &quick_opts(),
            )
            .expect("runs");
            black_box(t.comm.server_bytes)
        });
    });
    group.bench_function("hadfl_server_bytes", |b| {
        let config = HadflConfig::builder().seed(4).build().expect("valid");
        b.iter(|| {
            let run = run_hadfl(&Workload::quick("mlp", 4), &config, &quick_opts()).expect("runs");
            black_box(run.trace.comm.server_bytes)
        });
    });
    group.finish();
}

fn bench_grouped(c: &mut Criterion) {
    let mut group = c.benchmark_group("grouped_hierarchy");
    group.sample_size(10);
    group.bench_function("two_groups_of_two", |b| {
        let config = HadflConfig::builder()
            .group_size(Some(2))
            .inter_group_every(2)
            .seed(5)
            .build()
            .expect("valid");
        let mut opts = SimOptions::quick(&[2.0, 1.0, 2.0, 1.0]);
        opts.epochs_total = 3.0;
        b.iter(|| {
            let run = run_hadfl(&Workload::quick("mlp", 5), &config, &opts).expect("runs");
            black_box(run.trace.max_accuracy())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_table1,
    bench_fig3_curves,
    bench_worst_case,
    bench_fig1_schedules,
    bench_comm_volume,
    bench_grouped
);
criterion_main!(benches);
