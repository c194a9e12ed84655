//! Known-clean look-alikes for `nonblocking-listener`: blocking
//! accepts woken at stop, sockets put back into blocking mode, and the
//! call named only in comments, strings and tests.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};

pub fn blocking_accept(listener: &TcpListener, stop: &AtomicBool) -> Option<TcpStream> {
    // The shape the rule pushes toward: block in accept, and let the
    // stopper wake it with one connection to the listener's address.
    let (stream, _) = listener.accept().ok()?;
    (!stop.load(Ordering::SeqCst)).then_some(stream)
}

pub fn wake(addr: SocketAddr, stop: &AtomicBool) {
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(addr);
}

pub fn back_to_blocking(stream: &TcpStream) {
    // Restoring blocking mode is the opposite of polling.
    let _ = stream.set_nonblocking(false);
}

pub fn named_in_text() -> &'static str {
    // listener.set_nonblocking(true) in a comment is not a call.
    "listener.set_nonblocking(true)"
}

pub fn other_setters(stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_poll() {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.set_nonblocking(true).unwrap();
    }
}
