//! Allocation budget of one CNN train step: once the thread's spare
//! patch matrices are warm (two warm-up steps), a `resnet18_lite` step
//! on `Workload::quick` requests **no** allocation of 64 KiB or more. It
//! was 2.6 MiB: a fresh `cols` matrix per layer going forward and a
//! `gcols` matrix of the same size coming back.
//!
//! The spare matrices belong to the thread, not to a replica: four
//! fresh replicas stepped in turn, as `run_virtual` steps its devices,
//! request nothing on a thread one replica has warmed, and neither do
//! repeated episodes of such steps closed by an evaluation at the device
//! batch — so the spare list serves every shape and stays the same
//! length.
//!
//! A reused buffer must not leak one batch shape into the next: an
//! evaluation pass at a batch of 64 in the middle of training leaves the
//! pinned 50-step parameters unchanged, which holds only if a buffer is
//! reused for its own shape alone.
//!
//! The counter is process-wide, so this file holds a single test.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use common::*;
use hadfl::workload::BuiltWorkload;
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

    let workload = Workload::quick("resnet18_lite", 0);
    let mut built = workload.build(4).expect("quick workload builds");
    let round_robin = |built: &mut BuiltWorkload, steps| {
        for rt in &mut built.runtimes {
            rt.train_steps(steps).expect("trains");
        }
    };
    // The replicas' first steps take the patch matrices `rt` returned.
    let before = REQUESTED.load(Ordering::Relaxed);
    round_robin(&mut built, 1);
    let round = REQUESTED.load(Ordering::Relaxed) - before;
    assert_eq!(
        round, 0,
        "a first round of four replicas requested {round} B in allocations >= 64 KiB"
    );
    for episode in 0..3 {
        let before = REQUESTED.load(Ordering::Relaxed);
        round_robin(&mut built, 2);
        // The close's evaluation: a fresh model at the device batch.
        let fresh = workload.model().expect("model builds");
        fresh
            .evaluate(&built.test, built.device_batch)
            .expect("evaluates");
        let spent = REQUESTED.load(Ordering::Relaxed) - before;
        assert_eq!(
            spent, 0,
            "episode {episode} requested {spent} B in allocations >= 64 KiB"
        );
    }

    // A batch of 64 through the same layers, mid-run.
    let test = built.test;
    rt.train_steps(22).expect("trains");
    rt.model.evaluate(&test, 64).expect("evaluates");
    rt.train_steps(25).expect("trains");
    let got = fnv1a(&rt.model.param_vector());
    assert_eq!(got, RESNET18_LITE_50_STEPS, "got {got:#018x}");
}
