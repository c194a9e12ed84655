//! Outside `ambient-clock`'s scope: the Clock seam's wall clock lives
//! in the bottom crate, the one sanctioned real-time source.

pub fn wall_now() -> std::time::Instant {
    std::time::Instant::now()
}
