//! Golden parameter hashes for the CNN train step, shared by the tests
//! that pin them.
//!
//! The compute kernels promise the same IEEE operations in the same
//! order whatever their blocking (DESIGN.md §10), so 50 SGD steps on a
//! fixed workload must land on the same bits forever. The constants
//! were taken before the register-tile kernels replaced the row-at-a-
//! time ones; a mismatch means a float association changed.
#![allow(dead_code)] // each test crate uses its own subset

use hadfl::workload::DeviceRuntime;
use hadfl::Workload;

pub const RESNET18_LITE_50_STEPS: u64 = 0xdcb7_1cbe_f2f9_b640;
pub const VGG16_LITE_50_STEPS: u64 = 0x2d3e_9810_b234_a511;

// State `param_vector()` does not hold, taken at the commit before the
// elementwise kernels were rewritten: the bits of `evaluate(test,
// 64).loss` after the 50 steps (reads the BatchNorm running statistics)
// and the parameter hash 10 steps later (reads the SGD velocity).
pub const RESNET18_LITE_EVAL_LOSS_BITS: u32 = 0x3fed_7198;
pub const RESNET18_LITE_60_STEPS: u64 = 0xf717_4e5b_f836_2fb2;
pub const VGG16_LITE_EVAL_LOSS_BITS: u32 = 0x4014_b24f;
pub const VGG16_LITE_60_STEPS: u64 = 0xc1f4_0674_f0e2_2bae;

/// FNV-1a over the little-endian bytes of every parameter.
pub fn fnv1a(params: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in params.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Device 0 of `Workload::quick(model, 0)` split two ways — the runtime
/// the constants were taken on.
pub fn golden_runtime(model: &str) -> DeviceRuntime {
    Workload::quick(model, 0)
        .build(2)
        .expect("quick workload builds")
        .runtimes
        .swap_remove(0)
}
