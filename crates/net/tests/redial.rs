//! A peer that dials a port over and over pins no file descriptors: the
//! port keeps a handle on every connection it accepted, so that dropping
//! it can end the connection's reader, and drops the handle of a reader
//! that finished at its next accept.
//!
//! The only test in its binary, so the process's descriptor count moves
//! with the port alone.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use hadfl_net::cluster::ClusterConfig;
use hadfl_net::tcp::{BoundNode, TcpOptions};

#[cfg(target_os = "linux")]
#[test]
fn a_redialing_peer_pins_no_descriptors() {
    let nodes: Vec<BoundNode> = (0..3)
        .map(|id| BoundNode::bind(id, "127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<String> = nodes
        .iter()
        .map(|n| n.local_addr().unwrap().to_string())
        .collect();
    let cluster = ClusterConfig::from_addrs(&addrs).unwrap();
    let mut nodes = nodes.into_iter();
    let node = nodes.next().unwrap();
    let addr = node.local_addr().unwrap();
    let port = node.into_port(&cluster, TcpOptions::default()).unwrap();
    let open = || std::fs::read_dir("/proc/self/fd").unwrap().count();

    let before = open();
    for _ in 0..200 {
        drop(TcpStream::connect(addr).unwrap());
    }
    // Readers still running at the last accept keep theirs until the
    // next one: dial on until they are gone.
    let deadline = Instant::now() + Duration::from_secs(10);
    while open() > before + 4 {
        assert!(
            Instant::now() < deadline,
            "{} descriptors held after 200 dials from {before}",
            open()
        );
        drop(TcpStream::connect(addr).unwrap());
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(port);
}
