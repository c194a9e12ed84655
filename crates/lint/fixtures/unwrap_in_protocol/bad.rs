//! Seeded violations for `unwrap-in-protocol`: panicking shortcuts in
//! non-test protocol code.

pub fn deliver(res: Result<Frame, Error>) -> Frame {
    res.unwrap() //~ unwrap-in-protocol
}

pub fn described(res: Result<Frame, Error>) -> Frame {
    res.expect("always a frame") //~ unwrap-in-protocol
}

pub fn inverted(res: Result<Frame, Error>) -> Error {
    res.unwrap_err() //~ unwrap-in-protocol
}

pub fn routed(kind: u8) -> &'static str {
    match kind {
        0 => "hello",
        1 => "params",
        _ => unreachable!("checked by caller"), //~ unwrap-in-protocol
    }
}

pub fn unfinished() {
    todo!() //~ unwrap-in-protocol
}

pub fn asserted(flag: bool) {
    if !flag {
        panic!("flag must be set"); //~ unwrap-in-protocol
    }
}

pub fn locked(m: &std::sync::Mutex<u32>) -> u32 {
    // A poisoned mutex panics here too: no exemption for guards.
    *m.lock().unwrap() //~ unwrap-in-protocol
}

#[cfg(test)]
mod tests {
    // Test code is exempt; the markers above are the whole finding set.
    #[test]
    fn tests_may_unwrap() {
        let v: Option<u32> = Some(1);
        assert_eq!(v.unwrap(), 1);
    }
}
