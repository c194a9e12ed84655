//! Seeded violations for `thread-scratch`: a second per-thread cache
//! in the layer crate, beside the one training scratch.

use std::cell::RefCell;

thread_local! { //~ thread-scratch
    static MASKS: RefCell<Vec<Vec<bool>>> = const { RefCell::new(Vec::new()) };
}

pub fn spare_masks() -> usize {
    MASKS.with_borrow(Vec::len)
}

#[cfg(test)]
mod tests {
    // Test code is not exempt.
    std::thread_local! { //~ thread-scratch
        static SEEN: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }
}
