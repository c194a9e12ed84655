//! Seeded violations for `nonblocking-listener`: sockets switched to
//! nonblocking mode, which std can only wait on by sleeping and
//! retrying.

use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream, UdpSocket};
use std::time::Duration;

pub fn poll_accept(listener: TcpListener) {
    // The transport's old accept loop: one poll period added to the
    // first frame of every new connection.
    listener.set_nonblocking(true).unwrap(); //~ nonblocking-listener
    loop {
        match listener.accept() {
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => return,
        }
    }
}

pub fn chained_bind(addr: &str) -> std::io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?; //~ nonblocking-listener
    Ok(listener)
}

pub fn streams_poll_too(stream: &TcpStream, socket: &UdpSocket) {
    // Not only listeners: any nonblocking socket is waited on by polling.
    let _ = stream.set_nonblocking(true); //~ nonblocking-listener
    let _ = socket.set_nonblocking(true); //~ nonblocking-listener
}

pub fn split_across_lines(listener: &TcpListener) {
    // Tokens, not lines: rustfmt's vertical layout and its trailing
    // comma are the same call.
    listener
        .set_nonblocking( //~ nonblocking-listener
            true,
        )
        .ok();
}

#[cfg(test)]
mod tests {
    // Test code is exempt; the markers above are the whole finding set.
    #[test]
    fn tests_may_poll() {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.set_nonblocking(true).unwrap();
    }
}
