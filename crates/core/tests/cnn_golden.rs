//! 50 `train_steps(1)` of each lite CNN land on the pinned parameters —
//! and so does the state `param_vector()` does not show: the BatchNorm
//! running statistics (through the evaluation loss after those steps)
//! and the SGD velocity (through the parameters ten steps later).

mod common;

use common::*;
use hadfl::Workload;

fn hash_after_50_steps(model: &str) -> u64 {
    let mut rt = golden_runtime(model);
    for _ in 0..50 {
        rt.train_steps(1).expect("trains");
    }
    fnv1a(&rt.model.param_vector())
}

/// `(evaluate(test, 64).loss bits after 50 steps, parameter hash after
/// 10 further steps)`.
fn hidden_state_after_50_steps(model: &str) -> (u32, u64) {
    let mut rt = golden_runtime(model);
    rt.train_steps(50).expect("trains");
    let test = Workload::quick(model, 0)
        .build(2)
        .expect("quick workload builds")
        .test;
    let loss = rt.model.evaluate(&test, 64).expect("evaluates").loss;
    rt.train_steps(10).expect("trains");
    (loss.to_bits(), fnv1a(&rt.model.param_vector()))
}

#[test]
fn resnet18_lite_parameters_after_50_steps_are_pinned() {
    let got = hash_after_50_steps("resnet18_lite");
    assert_eq!(got, RESNET18_LITE_50_STEPS, "got {got:#018x}");
}

#[test]
fn vgg16_lite_parameters_after_50_steps_are_pinned() {
    let got = hash_after_50_steps("vgg16_lite");
    assert_eq!(got, VGG16_LITE_50_STEPS, "got {got:#018x}");
}

#[test]
fn resnet18_lite_running_stats_and_velocity_are_pinned() {
    let (loss, params) = hidden_state_after_50_steps("resnet18_lite");
    assert_eq!(loss, RESNET18_LITE_EVAL_LOSS_BITS, "got {loss:#010x}");
    assert_eq!(params, RESNET18_LITE_60_STEPS, "got {params:#018x}");
}

#[test]
fn vgg16_lite_running_stats_and_velocity_are_pinned() {
    let (loss, params) = hidden_state_after_50_steps("vgg16_lite");
    assert_eq!(loss, VGG16_LITE_EVAL_LOSS_BITS, "got {loss:#010x}");
    assert_eq!(params, VGG16_LITE_60_STEPS, "got {params:#018x}");
}
