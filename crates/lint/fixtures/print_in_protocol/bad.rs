//! Seeded violations for `print-in-protocol`: ad-hoc stdout/stderr in
//! protocol paths instead of telemetry events.

pub fn chatty(round: u32) {
    println!("starting round {round}"); //~ print-in-protocol
    if round > 3 {
        eprintln!("round {round} is late"); //~ print-in-protocol
    }
}

pub fn partial(x: u32) {
    print!("{x} "); //~ print-in-protocol
    eprint!("."); //~ print-in-protocol
}

pub fn debugging(state: &[u32]) -> usize {
    dbg!(state.len()) //~ print-in-protocol
}

#[cfg(test)]
mod tests {
    // Test code is not exempt.
    #[test]
    fn chatty_test() {
        println!("round 1"); //~ print-in-protocol
    }
}
