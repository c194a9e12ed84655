//! Microbenchmarks of the substrate kernels the simulation spends its
//! time in: tensor matmul / im2col, the CNN forward+backward step, and
//! the per-round HADFL algorithm pieces (selection, prediction,
//! aggregation, hyperperiod).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hadfl::aggregate::{average_params, ring_allreduce_cost};
use hadfl::predict::VersionPredictor;
use hadfl::select::{select_devices, SelectionPolicy, VersionScale};
use hadfl::strategy::hyperperiod;
use hadfl::topology::Ring;
use hadfl_nn::{models, Dataset, LrSchedule, Sgd, SyntheticSpec};
use hadfl_simnet::{DeviceId, LinkModel};
use hadfl_tensor::{
    conv_backward_input, conv_backward_weight, conv_forward, im2col, matmul, Conv2dGeometry,
    SeedStream, Tensor,
};

/// Machine-speed yardstick for `hadfl-bench-diff`: a fixed
/// single-threaded fused-multiply-add sweep over 1M floats, immune to
/// thread count, allocator state, and every knob the other benches
/// turn. Two BENCH_*.json files taken on different machines (or a
/// loaded vs idle one) are comparable after dividing each op by its
/// file's calibration row.
fn bench_calibration(c: &mut Criterion) {
    let mut group = c.benchmark_group("calibration");
    let mut buf = vec![1.0f32; 1_000_000];
    group.bench_function("serial_fma_1m", |bch| {
        bch.iter(|| {
            let mut acc = 0.0f32;
            for v in buf.iter_mut() {
                *v = v.mul_add(0.999_999_9, 1.0e-9);
                acc += *v;
            }
            black_box(acc)
        });
    });
    group.finish();
}

fn bench_tensor(c: &mut Criterion) {
    let mut group = c.benchmark_group("tensor");
    let mut rng = SeedStream::new(1);
    let mut a = Tensor::zeros(&[64, 128]);
    let mut b = Tensor::zeros(&[128, 64]);
    for v in a.as_mut_slice() {
        *v = rng.normal();
    }
    for v in b.as_mut_slice() {
        *v = rng.normal();
    }
    group.bench_function("matmul_64x128x64", |bch| {
        bch.iter(|| black_box(matmul(&a, &b).expect("shapes agree")));
    });
    let geom = Conv2dGeometry::new(3, 16, 16, 3, 1, 1).expect("valid");
    let img = Tensor::zeros(&[8, 3, 16, 16]);
    group.bench_function("im2col_8x3x16x16_k3", |bch| {
        bch.iter(|| black_box(im2col(&img, &geom).expect("shapes agree")));
    });
    group.finish();
}

/// The three products of one convolution layer at the shape the round
/// benchmark's workload spends most of a step in (`resnet18_lite` on
/// `Workload::quick`: batch 16, 8 → 8 channels at 8×8, so 1024 patch
/// rows × 8 filters × 72 patch columns), plus its gather. The backward
/// products have k = 8; `tensor/matmul_64x128x64` (k = 128) says
/// nothing about them.
fn bench_conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv");
    let mut rng = SeedStream::new(4);
    let mut random = |dims: &[usize]| {
        let mut t = Tensor::zeros(dims);
        for v in t.as_mut_slice() {
            *v = rng.normal();
        }
        t
    };
    let geom = Conv2dGeometry::new(8, 8, 8, 3, 1, 1).expect("valid");
    let x = random(&[16, 8, 8, 8]);
    let weight = random(&[8, 72]);
    let bias = random(&[8]);
    let grad_out = random(&[16, 8, 8, 8]);
    let cols = im2col(&x, &geom).expect("shapes agree");
    group.bench_function("im2col_16x8x8x8_k3", |bch| {
        bch.iter(|| black_box(im2col(&x, &geom).expect("shapes agree")));
    });
    group.bench_function("fwd_1024x8x72", |bch| {
        bch.iter(|| black_box(conv_forward(&cols, &weight, &bias, &geom).expect("shapes agree")));
    });
    let mut grad_weight = Tensor::zeros(&[8, 72]);
    group.bench_function("bwd_weight_1024x8x72", |bch| {
        bch.iter(|| {
            conv_backward_weight(&grad_out, &cols, &geom, &mut grad_weight).expect("shapes agree");
            grad_weight.fill_zero();
        });
    });
    group.bench_function("bwd_input_1024x8x72", |bch| {
        bch.iter(|| {
            black_box(conv_backward_input(&grad_out, &weight, &geom).expect("shapes agree"))
        });
    });
    group.finish();
}

fn bench_train_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_step");
    group.sample_size(20);
    let spec = SyntheticSpec::cifar_like();
    let ds = Dataset::synthetic_cifar(64, &spec, 1).expect("valid spec");
    let (x, y) = ds.batch(&(0..64).collect::<Vec<_>>()).expect("in range");
    for name in ["mlp", "resnet18_lite", "vgg16_lite"] {
        let mut model =
            models::by_name(name, &spec.sample_dims(), spec.classes, 1).expect("zoo model");
        let mut opt = Sgd::new(LrSchedule::constant(0.01), 0.9);
        group.bench_function(name, |bch| {
            bch.iter(|| black_box(model.train_step(&x, &y, &mut opt).expect("trains")));
        });
    }
    group.finish();
}

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("hadfl_round_pieces");
    let devices: Vec<DeviceId> = (0..32).map(DeviceId).collect();
    let versions: Vec<f64> = (0..32).map(|i| 100.0 + 7.0 * i as f64).collect();
    group.bench_function("select_32_choose_8", |bch| {
        let mut rng = SeedStream::new(2);
        bch.iter(|| {
            black_box(
                select_devices(
                    SelectionPolicy::VersionGaussian,
                    &devices,
                    &versions,
                    8,
                    VersionScale::ZScore,
                    &mut rng,
                )
                .expect("valid inputs"),
            )
        });
    });
    group.bench_function("ring_random_8", |bch| {
        let mut rng = SeedStream::new(3);
        let members: Vec<DeviceId> = (0..8).map(DeviceId).collect();
        bch.iter(|| black_box(Ring::random(&members, &mut rng).expect("≥2 members")));
    });
    group.bench_function("predictor_observe_forecast", |bch| {
        let mut p = VersionPredictor::new(0.5, 100.0).expect("valid alpha");
        let mut v = 0.0;
        bch.iter(|| {
            v += 100.0;
            p.observe(v);
            black_box(p.forecast(1))
        });
    });
    group.bench_function("hyperperiod_8_devices", |bch| {
        let times: Vec<f64> = (1..=8).map(|i| 0.012 * i as f64).collect();
        bch.iter(|| black_box(hyperperiod(&times).expect("valid times")));
    });
    let params: Vec<Vec<f32>> = (0..4).map(|i| vec![i as f32; 100_000]).collect();
    group.bench_function("average_params_4x100k", |bch| {
        let refs: Vec<&[f32]> = params.iter().map(Vec::as_slice).collect();
        bch.iter(|| black_box(average_params(&refs).expect("equal lengths")));
    });
    group.bench_function("ring_allreduce_cost", |bch| {
        let link = LinkModel::pcie3_x8();
        bch.iter(|| black_box(ring_allreduce_cost(8, 44_600_000, &link).expect("n > 0")));
    });
    group.finish();
}

/// Thread-scaling sweep of the hot kernels: the same workload at 1, 2,
/// and 4 worker threads via the `hadfl-par` override (`_tN` suffix).
/// `tools/bench.sh` parses these names into the current `BENCH_*.json`
/// artifact, so the speedup at each thread count is a recorded fact
/// rather than a claim. `with_threads` respects the measured work-size
/// cutoffs, exactly as production dispatch does — a row where the
/// autotuner declines to parallelize records the serial time, which is
/// the honest number. On a single-core host the t2/t4 rows measure
/// dispatch overhead, not speedup — the JSON keeps whatever the
/// hardware gives.
fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling");
    group.sample_size(20);
    const THREADS: [usize; 3] = [1, 2, 4];

    let mut rng = SeedStream::new(1);
    let mut a = Tensor::zeros(&[64, 128]);
    let mut b = Tensor::zeros(&[128, 64]);
    for v in a.as_mut_slice() {
        *v = rng.normal();
    }
    for v in b.as_mut_slice() {
        *v = rng.normal();
    }
    for t in THREADS {
        group.bench_function(&format!("matmul_64x128x64_t{t}"), |bch| {
            bch.iter(|| {
                hadfl_par::with_threads(t, || black_box(matmul(&a, &b).expect("shapes agree")))
            });
        });
    }

    let spec = SyntheticSpec::cifar_like();
    let ds = Dataset::synthetic_cifar(64, &spec, 1).expect("valid spec");
    let (x, y) = ds.batch(&(0..64).collect::<Vec<_>>()).expect("in range");
    for t in THREADS {
        let mut model =
            models::by_name("resnet18_lite", &spec.sample_dims(), spec.classes, 1).expect("zoo");
        let mut opt = Sgd::new(LrSchedule::constant(0.01), 0.9);
        group.bench_function(&format!("train_step_cnn_t{t}"), |bch| {
            bch.iter(|| {
                hadfl_par::with_threads(t, || {
                    black_box(model.train_step(&x, &y, &mut opt).expect("trains"))
                })
            });
        });
    }

    let params: Vec<Vec<f32>> = (0..4).map(|i| vec![i as f32; 100_000]).collect();
    let refs: Vec<&[f32]> = params.iter().map(Vec::as_slice).collect();
    for t in THREADS {
        group.bench_function(&format!("average_params_4x100k_t{t}"), |bch| {
            bch.iter(|| {
                hadfl_par::with_threads(t, || {
                    black_box(average_params(&refs).expect("equal lengths"))
                })
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_calibration,
    bench_tensor,
    bench_conv,
    bench_train_step,
    bench_algorithms,
    bench_scaling
);
criterion_main!(benches);
