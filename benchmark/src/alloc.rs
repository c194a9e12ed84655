//! Counting allocator: the churn of large buffers, reported exactly.
//!
//! The pinned malloc thresholds (see `main.rs`) keep multi-MiB frames
//! inside the arena so their page-fault cost does not swamp the timing;
//! what the protocol *asks* of the allocator is still worth a number,
//! and this is it: bytes requested in allocations of at least
//! [`BIG`] bytes. Small allocations are not counted — they are noise
//! next to a 4 MiB frame and would make the count depend on incidental
//! bookkeeping.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations at least this large are counted.
pub const BIG: usize = 64 << 10;

static BIG_BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator, counting large requests.
pub struct Counting;

#[inline]
fn count(size: usize) {
    if size >= BIG {
        // A statistic that publishes no other data.
        BIG_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter has no effect
// on the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes requested so far in allocations of at least [`BIG`] bytes.
pub fn big_bytes() -> u64 {
    BIG_BYTES.load(Ordering::Relaxed)
}
