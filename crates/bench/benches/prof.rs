//! Overhead bounds for the `hadfl-prof` compute profiler.
//!
//! Three claims, each a recorded row in the committed `BENCH_*.json`:
//!
//! - `prof/scope_disabled` — a scope on a thread with no profiler
//!   installed is one thread-local `Cell` read: a few ns, the price
//!   every production kernel pays for carrying instrumentation;
//! - `prof/scope_enabled_pair` — a full enter/exit against an
//!   installed profiler (two clock reads plus the lane bookkeeping);
//! - `prof_parity/matmul_64x128x64_{plain,profiled}` — the same
//!   kernel with and without a profiler installed. The pair must stay
//!   within noise of each other: instrumented kernels may not get
//!   slower when nobody is measuring them, and only clock-read slower
//!   when somebody is.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hadfl_prof::{Profiler, WallTime};
use hadfl_tensor::{matmul, SeedStream, Tensor};

fn bench_scope(c: &mut Criterion) {
    let mut group = c.benchmark_group("prof");
    group.bench_function("scope_disabled", |bch| {
        bch.iter(|| black_box(hadfl_prof::scope("bench_op")));
    });
    let prof = Profiler::new(0, WallTime::shared());
    let guard = prof.install();
    group.bench_function("scope_enabled_pair", |bch| {
        bch.iter(|| black_box(hadfl_prof::scope("bench_op")));
    });
    drop(guard);
    group.finish();
}

fn bench_parity(c: &mut Criterion) {
    let mut group = c.benchmark_group("prof_parity");
    let mut rng = SeedStream::new(1);
    let mut a = Tensor::zeros(&[64, 128]);
    let mut b = Tensor::zeros(&[128, 64]);
    for v in a.as_mut_slice() {
        *v = rng.normal();
    }
    for v in b.as_mut_slice() {
        *v = rng.normal();
    }
    group.bench_function("matmul_64x128x64_plain", |bch| {
        bch.iter(|| black_box(matmul(&a, &b).expect("shapes agree")));
    });
    let prof = Profiler::new(0, WallTime::shared());
    let guard = prof.install();
    group.bench_function("matmul_64x128x64_profiled", |bch| {
        bch.iter(|| black_box(matmul(&a, &b).expect("shapes agree")));
    });
    drop(guard);
    group.finish();
}

criterion_group!(benches, bench_scope, bench_parity);
criterion_main!(benches);
