//! Seeded violations for `raw-spawn`: ad-hoc threads in a compute
//! kernel bypass hadfl-par's fixed chunk boundaries.

pub fn split_sum(xs: Vec<f32>) -> usize {
    let handle = std::thread::spawn(move || xs.len()); //~ raw-spawn
    handle.join().unwrap_or(0)
}

pub fn named_worker() {
    let builder = std::thread::Builder::new().name("kernel".into());
    let _ = builder.spawn(|| {}); //~ raw-spawn
}

#[cfg(test)]
mod tests {
    // Test code is not exempt.
    #[test]
    fn spawns() {
        let _ = std::thread::spawn(|| 1).join(); //~ raw-spawn
    }
}
