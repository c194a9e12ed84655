//! Seeded violations for `ambient-clock`: raw wall-clock reads that
//! the hadfl-check scheduler cannot see.

use std::time::{Duration, Instant, SystemTime};

pub fn naive_elapsed() -> Duration {
    let start = Instant::now(); //~ ambient-clock
    start.elapsed()
}

pub fn stamp() -> SystemTime {
    SystemTime::now() //~ ambient-clock
}

pub fn fully_qualified() -> Instant {
    std::time::Instant::now() //~ ambient-clock
}

#[cfg(test)]
mod tests {
    // Test code is not exempt: a test that reads the wall clock is as
    // invisible to the hadfl-check scheduler as protocol code.
    #[test]
    fn timed() {
        let _ = std::time::Instant::now(); //~ ambient-clock
    }
}
