//! The TCP reader, driven by raw-socket scripts over loopback: a frame
//! that arrives in a dribble must be resumed, not restarted, and a
//! hostile peer must be dropped before anything is allocated by its
//! say-so.
//!
//! The binary carries its own allocator so the "without allocating"
//! half is checked, not assumed: every hostile script announces sizes
//! of a gibibyte or more, the honest ones stay near 4 MiB, and the
//! largest single request the process ever made is asserted to sit
//! far below the former (so the tests may run in parallel).

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Duration;

use hadfl::transport::Port;
use hadfl::wire::{self, CausalStamp, Message, MAX_PARAM_HEAD};
use hadfl_net::cluster::ClusterConfig;
use hadfl_net::tcp::{BoundNode, TcpOptions, TcpPort};
use hadfl_simnet::{DeviceId, Endpoint};

struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the wrapper
// only records the requested size first.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LargestRequest = LargestRequest;

/// What a hostile script announces, and what no test here may request.
const HOSTILE: usize = 1 << 30;
/// How long a dribbling peer pauses between writes.
const STALL: Duration = Duration::from_millis(20);

fn assert_nothing_hostile_was_allocated() {
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest < HOSTILE / 4,
        "a {largest}-byte allocation was requested on a hostile peer's say-so"
    );
}

/// A victim port (participant 0) and an honest peer (participant 1) of
/// a 2-device cluster, with `max_frame_bytes` on both.
fn victim_and_peer(max_frame_bytes: u32) -> (TcpPort, SocketAddr, TcpPort) {
    let nodes: Vec<BoundNode> = (0..3)
        .map(|id| BoundNode::bind(id, "127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<String> = nodes
        .iter()
        .map(|n| n.local_addr().unwrap().to_string())
        .collect();
    let cluster = ClusterConfig::from_addrs(&addrs).unwrap();
    let opts = TcpOptions {
        max_frame_bytes,
        ..TcpOptions::default()
    };
    let mut nodes = nodes.into_iter();
    let victim = nodes.next().unwrap();
    let victim_addr = victim.local_addr().unwrap();
    let victim = victim.into_port(&cluster, opts.clone()).unwrap();
    let peer = nodes.next().unwrap().into_port(&cluster, opts).unwrap();
    (victim, victim_addr, peer)
}

/// `msg` as it travels: length prefix, then the sealed frame.
fn framed(lamport: u64, msg: &Message) -> Vec<u8> {
    let frame = wire::seal(CausalStamp { origin: 1, lamport }, msg);
    let mut out = (frame.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&frame);
    out
}

fn hello() -> Vec<u8> {
    framed(1, &Message::Hello { from: 1 })
}

/// Blocks until the victim has closed `conn` (end of stream or reset).
fn assert_dropped(mut conn: TcpStream) {
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match conn.read(&mut [0u8; 16]) {
        Ok(0) => {}
        Ok(n) => panic!("victim wrote {n} bytes to a connection it should drop"),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            panic!("victim kept the connection open")
        }
        Err(_) => {} // reset: unread bytes were pending when it closed
    }
}

/// The victim still serves an honest peer, and nothing a rogue sent
/// ever surfaced.
fn assert_still_serving(victim: &mut TcpPort, peer: &mut TcpPort) {
    peer.send(0, &Message::Handshake { from: 1 }).unwrap();
    assert_eq!(
        victim.recv_timeout(Duration::from_secs(10)).unwrap(),
        Some(Message::Handshake { from: 1 })
    );
    assert_eq!(victim.try_recv().unwrap(), None);
}

#[test]
fn dribbled_param_frame_is_resumed_not_restarted() {
    const N: usize = 1 << 20;
    let (mut victim, addr, _peer) = victim_and_peer(8 << 20);
    let msg = Message::ParamAccum {
        round: 7,
        hops: 2,
        params: (0..N).map(|i| (i as f32 * 0.37).sin()).collect(),
    };
    let bytes = framed(2, &msg);
    assert_eq!(bytes.len(), 4 + MAX_PARAM_HEAD + 4 * N);

    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_nodelay(true).unwrap();
    conn.write_all(&hello()).unwrap();
    // Stall inside the length prefix, inside the head, one byte into the
    // payload, and then after every 512th of the 1 KiB writes the
    // payload goes out in: the reader wakes with a part of the frame
    // each time.
    let stall = || thread::sleep(STALL);
    let mut at = 0;
    for cut in [2, 4 + 9, 4 + MAX_PARAM_HEAD + 1] {
        conn.write_all(&bytes[at..cut]).unwrap();
        at = cut;
        stall();
    }
    for (i, chunk) in bytes[at..].chunks(1024).enumerate() {
        conn.write_all(chunk).unwrap();
        if i % 512 == 511 {
            stall();
        }
    }

    let got = victim.recv_timeout(Duration::from_secs(20)).unwrap();
    assert!(
        got == Some(msg.clone()),
        "the dribbled frame arrived damaged"
    );
    assert_eq!(victim.try_recv().unwrap(), None);
    // One payload frame on the ledger, and hello + frame on the wire.
    assert_eq!(
        victim.stats().received_by(Endpoint::Device(DeviceId(0))),
        msg.encoded_len() as u64
    );
    assert_eq!(victim.raw_bytes(), (hello().len() + bytes.len()) as u64);
}

#[test]
fn hostile_length_prefix_drops_the_connection_without_allocating() {
    let (mut victim, addr, mut peer) = victim_and_peer(8 << 20);
    // One past the bound is as hostile as a gibibyte.
    for announced in [(8u32 << 20) + 1, HOSTILE as u32, u32::MAX] {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&hello()).unwrap();
        conn.write_all(&announced.to_le_bytes()).unwrap();
        assert_dropped(conn);
    }
    assert_still_serving(&mut victim, &mut peer);
    assert_nothing_hostile_was_allocated();
}

#[test]
fn param_head_count_disagreeing_with_the_frame_length_drops_the_connection() {
    let (mut victim, addr, mut peer) = victim_and_peer(8 << 20);
    let honest = framed(
        2,
        &Message::ParamAccum {
            round: 1,
            hops: 1,
            params: vec![1.0, 2.0, 3.0, 4.0],
        },
    );
    let count_at = 4 + MAX_PARAM_HEAD - 4;
    // A count far beyond the frame (the allocation a naive reader would
    // make), one element too many, and one too few.
    for count in [(HOSTILE / 4) as u32, 5, 3] {
        let mut lying = honest.clone();
        lying[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&hello()).unwrap();
        conn.write_all(&lying).unwrap();
        assert_dropped(conn);
    }
    assert_still_serving(&mut victim, &mut peer);
    assert_nothing_hostile_was_allocated();
}

#[test]
fn frame_before_hello_is_still_rejected() {
    let (mut victim, addr, mut peer) = victim_and_peer(8 << 20);
    for early in [
        Message::Handshake { from: 9 },
        Message::ParamSync {
            round: 1,
            params: vec![0.5; 64],
        },
    ] {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&framed(1, &early)).unwrap();
        assert_dropped(conn);
    }
    assert_still_serving(&mut victim, &mut peer);
}
