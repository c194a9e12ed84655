//! 50 `train_steps(1)` of each lite CNN land on the pinned parameters.

mod common;

use common::*;

fn hash_after_50_steps(model: &str) -> u64 {
    let mut rt = golden_runtime(model);
    for _ in 0..50 {
        rt.train_steps(1).expect("trains");
    }
    fnv1a(&rt.model.param_vector())
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
