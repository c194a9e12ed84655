//! Known-clean for `guard-across-send`, including the old awk gate's
//! false-positive blind spot: `drop(guard)` before the send.

/// awk blind spot (false positive): the guard is dropped before the
/// send, so nothing is held across it.
pub fn drop_then_send(port: &mut TcpPort, m: &Mutex<State>) {
    let g = m.lock();
    let snapshot = snapshot_of(&g);
    drop(g);
    port.send(1, wrap(snapshot));
}

/// A statement-temporary guard dies at its `;` — the lock is not held
/// by the time the send runs.
pub fn temporary(port: &mut TcpPort, stats: &Mutex<Stats>) {
    stats.lock().record(1, 2);
    port.send(1, msg());
}

/// `lock().remove(..)` reduces the chain to a value; the temporary
/// guard is gone at the `;`.
pub fn take_out(port: &mut TcpPort, conns: &Mutex<ConnMap>) {
    let cached = conns.lock().remove(&1);
    port.send(1, wrap(cached));
}

/// One-argument channel sends are non-blocking and exempt.
pub fn channel_send(tx: &Sender<Msg>, m: &Mutex<State>) {
    let g = m.lock();
    tx.send(msg());
    let _ = g;
}

/// A guard confined to an inner block is gone by the send.
pub fn scoped(port: &mut TcpPort, m: &Mutex<State>) {
    {
        let g = m.lock();
        let _ = g;
    }
    port.send(1, msg());
}

/// A poison-ignoring lock reduced to a value in its own statement:
/// the temporary guard is gone at the `;`.
pub fn poison_ignored_value(port: &mut TcpPort, m: &std::sync::Mutex<State>) {
    let snapshot = m.lock().unwrap_or_else(PoisonError::into_inner).clone();
    port.send(1, wrap(snapshot));
}
