//! Allocation budget of one CNN train step: once every convolution
//! holds its patch buffer (two warm-up steps), a `resnet18_lite` step on
//! `Workload::quick` requests **no** allocation of 64 KiB or more. It
//! was 2.6 MiB: a fresh `cols` matrix per layer going forward and a
//! `gcols` matrix of the same size coming back.
//!
//! A retained buffer must not leak one batch shape into the next: an
//! evaluation pass at the evaluator's batch of 64 in the middle of
//! training leaves the pinned 50-step parameters unchanged, which holds
//! only if the buffer is re-zeroed when its row count changes.
//!
//! The counter is process-wide, so this file holds a single test.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use common::*;
use hadfl::Workload;

const LARGE: usize = 64 << 10;

struct CountLarge;

static REQUESTED: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if size >= LARGE {
        REQUESTED.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the wrapper
// only counts the requested size first.
unsafe impl GlobalAlloc for CountLarge {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountLarge = CountLarge;

#[test]
fn a_warm_cnn_step_requests_no_large_allocation() {
    let mut rt = golden_runtime("resnet18_lite");
    rt.train_steps(2).expect("warm-up trains");
    let before = REQUESTED.load(Ordering::Relaxed);
    rt.train_steps(1).expect("trains");
    let step = REQUESTED.load(Ordering::Relaxed) - before;
    assert_eq!(
        step, 0,
        "a warm train step requested {step} B in allocations >= 64 KiB"
    );

    // The evaluator's batch of 64 through the same layers, mid-run.
    let test = Workload::quick("resnet18_lite", 0)
        .build(2)
        .expect("quick workload builds")
        .test;
    rt.train_steps(22).expect("trains");
    rt.model.evaluate(&test, 64).expect("evaluates");
    rt.train_steps(25).expect("trains");
    let got = fnv1a(&rt.model.param_vector());
    assert_eq!(got, RESNET18_LITE_50_STEPS, "got {got:#018x}");
}
