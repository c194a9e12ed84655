//! Seeded violations for `guard-across-send`: a lock guard held over
//! a blocking two-argument `Port::send`. Includes the two
//! false-negative blind spots of the old awk gate as regressions.

pub fn basic(port: &mut TcpPort, m: &Mutex<State>) {
    let guard = m.lock();
    port.send(1, msg()); //~ guard-across-send
    drop(guard);
}

/// awk blind spot (false negative): a method-chain guard is still a
/// guard — `unwrap` passes the `LockResult` shell through.
pub fn chained_guard(port: &mut TcpPort, m: &std::sync::Mutex<State>) {
    let guard = m.lock().unwrap();
    port.send(1, msg()); //~ guard-across-send
    let _ = guard;
}

/// awk blind spot (false negative): shadowing in an inner scope does
/// not end the outer guard — Rust drops shadowed values at scope end.
pub fn shadowed_inner(port: &mut TcpPort, m: &Mutex<State>) {
    let g = m.lock();
    {
        let g = checksum();
        let _ = g;
    }
    port.send(1, msg()); //~ guard-across-send
}

/// Same-scope shadowing: the first guard lives until the scope ends,
/// even though its name now refers to the checksum.
pub fn shadowed_same_scope(port: &mut TcpPort, m: &Mutex<State>) {
    let g = m.lock();
    let g = checksum_of(&g);
    port.send(2, msg()); //~ guard-across-send
    let _ = g;
}

/// `expect` preserves the guard just like `unwrap`.
pub fn expected_guard(port: &mut TcpPort, m: &std::sync::RwLock<State>) {
    let view = m.read().expect("poisoned");
    port.send(3, wrap(&view)); //~ guard-across-send
}

/// `unwrap_or_else` preserves the guard too: the poison-ignoring
/// `std::sync::Mutex` idiom still binds a live guard.
pub fn poison_ignored_guard(port: &mut TcpPort, m: &std::sync::Mutex<State>) {
    let guard = m.lock().unwrap_or_else(PoisonError::into_inner);
    port.send(4, wrap(&guard)); //~ guard-across-send
}
