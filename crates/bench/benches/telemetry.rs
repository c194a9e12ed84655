//! The cost of telemetry, measured: `run_partial_sync`'s hot ring loop
//! with (a) a disabled handle (one `Option` check per emission site)
//! and (b) a live handle feeding an in-memory ring buffer.
//!
//! (a) is the baseline every untelemetered caller pays; (b) bounds the
//! cost of turning telemetry on.
//!
//! Run: `cargo bench -p hadfl-bench --bench telemetry`

use std::collections::BTreeMap;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hadfl::gossip::run_partial_sync;
use hadfl::topology::Ring;
use hadfl_simnet::{DeviceId, FaultPlan, LinkModel, NetStats, VirtualTime};
use hadfl_telemetry::{RingBufferSink, Telemetry};

const RING_SIZE: usize = 8;
const PARAMS: usize = 26_506; // quick-profile MLP parameter count
const MODEL_BYTES: u64 = 4 * PARAMS as u64;

fn fixture() -> (Ring, BTreeMap<DeviceId, Vec<f32>>) {
    let ring = Ring::from_order((0..RING_SIZE).map(DeviceId).collect()).unwrap();
    let params = (0..RING_SIZE)
        .map(|i| (DeviceId(i), vec![i as f32 * 0.25; PARAMS]))
        .collect();
    (ring, params)
}

fn bench_partial_sync(c: &mut Criterion) {
    let (ring, params) = fixture();
    let faults = FaultPlan::none();
    let link = LinkModel::default();
    let mut group = c.benchmark_group("partial_sync_telemetry");

    group.bench_function("disabled_handle", |b| {
        let tel = Telemetry::disabled();
        b.iter(|| {
            let mut stats = NetStats::new();
            black_box(
                run_partial_sync(
                    black_box(&ring),
                    black_box(&params),
                    None,
                    &faults,
                    VirtualTime::from_secs(1.0),
                    &link,
                    0.05,
                    MODEL_BYTES,
                    MODEL_BYTES,
                    &mut stats,
                    &tel,
                    1,
                )
                .expect("healthy ring"),
            )
        });
    });

    group.bench_function("ring_buffer_sink", |b| {
        let sink = RingBufferSink::new(4096);
        let tel = Telemetry::new(0, vec![Box::new(sink)]);
        b.iter(|| {
            let mut stats = NetStats::new();
            black_box(
                run_partial_sync(
                    black_box(&ring),
                    black_box(&params),
                    None,
                    &faults,
                    VirtualTime::from_secs(1.0),
                    &link,
                    0.05,
                    MODEL_BYTES,
                    MODEL_BYTES,
                    &mut stats,
                    &tel,
                    1,
                )
                .expect("healthy ring"),
            )
        });
    });

    group.finish();
}

/// The causal-tracing additions must hold PR 3's parity bar: a
/// disabled handle makes span emission a branch-and-return (same as
/// every other emission site), and a live handle's per-span cost is
/// bounded by one event clone into the sink — for the metrics sink,
/// plus one histogram observation on `SpanEnd`.
fn bench_span_emission(c: &mut Criterion) {
    use std::time::Duration;

    use hadfl_telemetry::{EventKind, MetricsRegistry, MetricsSink};

    let emit_pair = |tel: &Telemetry, i: u64| {
        let t = Duration::from_micros(i * 10);
        tel.emit(
            t,
            EventKind::SpanStart {
                span: i,
                parent: 0,
                name: "ring_reduce".to_string(),
                round: 1,
                device: 0,
            },
        );
        tel.emit(
            t + Duration::from_micros(5),
            EventKind::SpanEnd {
                span: i,
                round: 1,
                device: 0,
            },
        );
    };

    let mut group = c.benchmark_group("span_emission");
    group.bench_function("disabled_handle", |b| {
        let tel = Telemetry::disabled();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            emit_pair(black_box(&tel), black_box(i));
        });
    });
    group.bench_function("ring_buffer_sink", |b| {
        let tel = Telemetry::new(0, vec![Box::new(RingBufferSink::new(4096))]);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            emit_pair(black_box(&tel), black_box(i));
        });
    });
    group.bench_function("metrics_sink", |b| {
        let registry = MetricsRegistry::new();
        let tel = Telemetry::new(0, vec![Box::new(MetricsSink::new(registry))]);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            emit_pair(black_box(&tel), black_box(i));
        });
    });
    group.bench_function("ship_queue_sink", |b| {
        use hadfl_telemetry::ship::{BatchShipper, ShipBatch};
        use hadfl_telemetry::{ShipOptions, ShipSink};

        /// Discards batches: the bench measures the hot-path cost of
        /// `ShipQueue::offer` + the channel hop, not a transport.
        struct NullShipper;
        impl BatchShipper for NullShipper {
            fn ship(&mut self, _batch: &ShipBatch) -> Result<(), String> {
                Ok(())
            }
        }
        let sink = ShipSink::new(0, ShipOptions::default(), Box::new(NullShipper));
        let tel = Telemetry::new(0, vec![Box::new(sink)]);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            emit_pair(black_box(&tel), black_box(i));
        });
    });
    group.finish();
}

criterion_group!(benches, bench_partial_sync, bench_span_emission);
criterion_main!(benches);
