//! Microbenchmarks of the wire codec the socket transport frames every
//! message through: encode and decode across the size spectrum the
//! protocol actually produces, from 5-byte heartbeats to full parameter
//! payloads, and one 4 MiB parameter frame sealed, opened, and carried
//! over a loopback TCP hop.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hadfl::transport::Port;
use hadfl::wire::{self, CausalStamp, Message};
use hadfl_net::cluster::ClusterConfig;
use hadfl_net::tcp::{BoundNode, TcpOptions};

/// The quick-profile MLP moves ~26k parameters; the experiment-scale
/// models move hundreds of thousands. Cover both ends.
const PARAM_SIZES: [usize; 3] = [1_024, 26_506, 262_144];

fn param_vec(n: usize) -> Vec<f32> {
    (0..n).map(|i| (i as f32).sin()).collect()
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_encode");
    group.bench_function("heartbeat", |b| {
        let msg = Message::Heartbeat { from: 3 };
        b.iter(|| black_box(black_box(&msg).encode()));
    });
    group.bench_function("round_plan_16", |b| {
        let msg = Message::RoundPlan {
            round: 7,
            ring: (0..16).collect(),
            broadcaster: 5,
            unselected: (16..32).collect(),
        };
        b.iter(|| black_box(black_box(&msg).encode()));
    });
    for n in PARAM_SIZES {
        let msg = Message::ParamSync {
            round: 9,
            params: param_vec(n),
        };
        group.bench_function(&format!("param_sync_{n}"), |b| {
            b.iter(|| black_box(black_box(&msg).encode()));
        });
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_decode");
    group.bench_function("heartbeat", |b| {
        let frame = Message::Heartbeat { from: 3 }.encode();
        b.iter(|| black_box(Message::decode(black_box(&frame)).expect("valid frame")));
    });
    group.bench_function("round_plan_16", |b| {
        let frame = Message::RoundPlan {
            round: 7,
            ring: (0..16).collect(),
            broadcaster: 5,
            unselected: (16..32).collect(),
        }
        .encode();
        b.iter(|| black_box(Message::decode(black_box(&frame)).expect("valid frame")));
    });
    for n in PARAM_SIZES {
        let frame = Message::ParamSync {
            round: 9,
            params: param_vec(n),
        }
        .encode();
        group.bench_function(&format!("param_sync_{n}"), |b| {
            b.iter(|| black_box(Message::decode(black_box(&frame)).expect("valid frame")));
        });
    }
    group.finish();
}

fn bench_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_roundtrip");
    // The dominant per-round flow: one accumulate hop of the ring.
    let msg = Message::ParamAccum {
        round: 1,
        hops: 2,
        params: param_vec(26_506),
    };
    group.bench_function("param_accum_26506", |b| {
        b.iter(|| {
            let frame = black_box(&msg).encode();
            black_box(Message::decode(&frame).expect("valid frame"))
        });
    });
    group.finish();
}

/// The ring's unit of work at the round benchmark's size: one 1 Mi-f32
/// (4 MiB) parameter frame sealed and opened whole — what a channel hop
/// pays per side — and carried across a loopback `TcpPort` pair, send
/// start to receive return, where the split frame path applies.
fn bench_param_hop(c: &mut Criterion) {
    const N: usize = 1 << 20;
    let stamp = CausalStamp {
        origin: 1,
        lamport: 7,
    };
    let msg = Message::ParamAccum {
        round: 3,
        hops: 2,
        params: param_vec(N),
    };

    let mut group = c.benchmark_group("wire");
    group.bench_function("seal_param_1m", |b| {
        b.iter(|| black_box(wire::seal(stamp, black_box(&msg))));
    });
    let sealed = wire::seal(stamp, &msg);
    group.bench_function("open_param_1m", |b| {
        b.iter(|| black_box(wire::open(black_box(&sealed)).expect("valid frame")));
    });
    group.finish();

    let nodes: Vec<BoundNode> = (0..3)
        .map(|id| BoundNode::bind(id, "127.0.0.1:0").expect("loopback bind"))
        .collect();
    let addrs: Vec<String> = nodes
        .iter()
        .map(|n| n.local_addr().expect("bound").to_string())
        .collect();
    let cluster = ClusterConfig::from_addrs(&addrs).expect("three loopback nodes");
    let mut ports: Vec<_> = nodes
        .into_iter()
        .map(|n| {
            n.into_port(&cluster, TcpOptions::default())
                .expect("loopback port")
        })
        .collect();
    let (senders, receivers) = ports.split_at_mut(1);
    let (a, b_port) = (&mut senders[0], &mut receivers[0]);
    let mut group = c.benchmark_group("tcp");
    group.bench_function("hop_4mib", |b| {
        b.iter(|| {
            a.send(1, black_box(&msg)).expect("loopback send");
            black_box(
                b_port
                    .recv_timeout(std::time::Duration::from_secs(20))
                    .expect("loopback receive")
                    .expect("frame arrives"),
            )
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_encode,
    bench_decode,
    bench_roundtrip,
    bench_param_hop
);
criterion_main!(benches);
