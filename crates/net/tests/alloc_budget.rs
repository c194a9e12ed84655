//! Allocation budget of one ring round: four ghost devices of 1 Mi f32
//! (4 MiB) run a full `N_p = K = 4` ring — three `ParamAccum` and three
//! `MergedParams` hops, 24 MiB of payload — and the bytes requested in
//! allocations of 64 KiB or more are held to a budget, per fabric.
//!
//! What a round has to allocate: each of the six frames lands in one
//! fresh `Vec<f32>` at its receiver (24 MiB), and every member copies
//! its parameters out of its `TrainState` once, on the `RoundPlan`
//! (16 MiB: the origin's copy becomes the opening frame, the others wait
//! as entry snapshots for the accumulation to arrive). That is 40 MiB,
//! and neither fabric adds to it. A `TcpPort` writes from the message's
//! own vector and its reader fills the receiver's; its budget is 48 (it
//! was 220 with a built frame, a doubling receive buffer and a decode
//! copy per hop). A `ChannelPort` has to own what it queues, and what it
//! queues *is* the receiver's vector — one `Message::clone` per send,
//! moved out on receive — so its "frame lands at the receiver" and its
//! "queue copy" are the same 4 MiB and its budget is the floor itself,
//! 40 (it was 64 plus six heads when each frame was sealed into bytes on
//! the way in and decoded into a second vector on the way out, and 100
//! before that).
//!
//! Where the TCP round allocates is pinned too: every one of its 40 MiB
//! is requested on a device thread — the entry snapshots, and the
//! receive buffer each delivered frame leaves in the port's slot for the
//! next — and none on a reader thread (which used to allocate all 24 MiB
//! of received frames, to be freed later across threads and arenas).
//! The counting allocator tells the two apart by a thread-local flag
//! that `device_loop` raises.
//!
//! The counters are process-wide, so both fabrics are measured by the
//! one test, one after the other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use hadfl::clock::{Clock, WallClock};
use hadfl::exec::{DeviceActor, ProtocolTiming, TrainState};
use hadfl::transport::{ChannelTransport, Port};
use hadfl::wire::Message;
use hadfl::HadflError;
use hadfl_net::cluster::ClusterConfig;
use hadfl_net::tcp::{BoundNode, TcpOptions};

const MIB: u64 = 1 << 20;
const LARGE: usize = 64 << 10;
const K: usize = 4;
const GHOST_LEN: usize = 1 << 20;

struct CountLarge;

/// Large bytes requested on device threads, and on every other thread.
static ON_DEVICES: AtomicU64 = AtomicU64::new(0);
static ELSEWHERE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Raised by `device_loop` on its own thread. Const-initialised and
    /// without a destructor, so the allocator may read it at any time.
    static ON_DEVICE: Cell<bool> = const { Cell::new(false) };
}

fn count(size: usize) {
    if size >= LARGE {
        let counter = if ON_DEVICE.with(Cell::get) {
            &ON_DEVICES
        } else {
            &ELSEWHERE
        };
        counter.fetch_add(size as u64, Ordering::Relaxed);
    }
}

/// (device threads, other threads) so far.
fn requested_so_far() -> (u64, u64) {
    (
        ON_DEVICES.load(Ordering::Relaxed),
        ELSEWHERE.load(Ordering::Relaxed),
    )
}

// SAFETY: every call is forwarded unchanged to `System`; the wrapper
// only counts the requested size first.
unsafe impl GlobalAlloc for CountLarge {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountLarge = CountLarge;

/// A parameter vector with no model behind it: `params` clones,
/// `set_params` copies in place.
struct Ghost(Vec<f32>);

impl TrainState for Ghost {
    fn params(&self) -> Vec<f32> {
        self.0.clone()
    }
    fn set_params(&mut self, params: &[f32]) -> Result<(), HadflError> {
        self.0.copy_from_slice(params);
        Ok(())
    }
    fn train_step(&mut self) -> Result<(), HadflError> {
        Ok(())
    }
    fn version(&self) -> f64 {
        0.0
    }
}

/// Pumps `port` into a ghost actor, reporting every ring it finishes,
/// until `stop` is raised.
fn device_loop<P: Port>(
    device: usize,
    mut port: P,
    done: mpsc::Sender<u32>,
    stop: Arc<AtomicBool>,
) {
    ON_DEVICE.with(|on| on.set(true));
    let clock = WallClock::new();
    let ghost = Ghost(vec![device as f32 + 1.0; GHOST_LEN]);
    let mut actor = DeviceActor::new(device, K + 1, ghost, 0.5, ProtocolTiming::default());
    actor.begin_training(Duration::ZERO, 1);
    while !stop.load(Ordering::SeqCst) {
        let Some(msg) = port.recv_timeout(Duration::from_millis(20)).unwrap() else {
            continue;
        };
        let before = actor.done_round();
        actor.on_message(&mut port, msg, clock.now()).unwrap();
        if actor.done_round() > before {
            done.send(actor.done_round()).unwrap();
        }
    }
}

/// Runs rounds 1 (warm-up: lazy dials, first-touch growth, empty
/// receive slots) and 2 over the given ports — devices `0..K`, then the
/// coordinator's — and returns the large-allocation bytes round 2
/// requested on device threads and on all others.
fn measured_round<P: Port + 'static>(mut ports: Vec<P>) -> (u64, u64) {
    let mut coord = ports.pop().unwrap();
    let (done_tx, done) = mpsc::channel();
    let stop = Arc::new(AtomicBool::new(false));
    let devices: Vec<JoinHandle<()>> = ports
        .into_iter()
        .enumerate()
        .map(|(device, port)| {
            let (done_tx, stop) = (done_tx.clone(), Arc::clone(&stop));
            thread::spawn(move || device_loop(device, port, done_tx, stop))
        })
        .collect();

    let mut requested = (0, 0);
    for round in 1..=2u32 {
        let plan = Message::RoundPlan {
            round,
            ring: vec![2, 0, 3, 1],
            broadcaster: 0,
            unselected: Vec::new(),
        };
        let before = requested_so_far();
        for member in 0..K {
            coord.send(member, &plan).unwrap();
        }
        for _ in 0..K {
            let finished = done.recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(finished, round);
        }
        let after = requested_so_far();
        requested = (after.0 - before.0, after.1 - before.1);
    }
    stop.store(true, Ordering::SeqCst);
    for device in devices {
        device.join().unwrap();
    }
    requested
}

#[test]
fn ring4_round_stays_within_its_allocation_budget() {
    let mut hub = ChannelTransport::hub(K + 1);
    let (chan_devices, chan_elsewhere) =
        measured_round((0..=K).map(|id| hub.claim(id).unwrap()).collect());
    let chan = chan_devices + chan_elsewhere;
    assert!(
        chan <= 40 * MIB,
        "ChannelPort ring4 round requested {:.1} MiB in large allocations (budget 40)",
        chan as f64 / MIB as f64
    );

    let nodes: Vec<BoundNode> = (0..=K)
        .map(|id| BoundNode::bind(id, "127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<String> = nodes
        .iter()
        .map(|n| n.local_addr().unwrap().to_string())
        .collect();
    let cluster = ClusterConfig::from_addrs(&addrs).unwrap();
    let (tcp_devices, tcp_elsewhere) = measured_round(
        nodes
            .into_iter()
            .map(|n| n.into_port(&cluster, TcpOptions::default()).unwrap())
            .collect(),
    );
    let tcp = tcp_devices + tcp_elsewhere;
    assert!(
        tcp <= 48 * MIB,
        "TcpPort ring4 round requested {:.1} MiB in large allocations (budget 48)",
        tcp as f64 / MIB as f64
    );
    // The floor both share: six received vectors, four entry snapshots.
    assert!(chan >= 40 * MIB && tcp >= 40 * MIB, "{chan} / {tcp}");
    // All of it on the threads that keep it: no reader thread allocates.
    assert_eq!(
        (tcp_devices, tcp_elsewhere),
        (40 * MIB, 0),
        "TcpPort ring4 round: bytes requested on (device, other) threads"
    );
}
