//! Property-based tests for the training substrate.

use hadfl_nn::{
    models, softmax_cross_entropy, BatchNorm2d, Dataset, Layer, NnError, Relu, Sgd, ShardSpec,
    SyntheticSpec, Tape,
};
use hadfl_tensor::{SeedStream, Tensor, TensorError};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn param_vector_roundtrip_is_identity(seed in 0u64..500) {
        let mut m = models::mlp(&[3, 8, 8], &[12], 10, seed).unwrap();
        let v = m.param_vector();
        m.set_param_vector(&v).unwrap();
        prop_assert_eq!(m.param_vector(), v);
    }

    #[test]
    fn set_param_vector_overwrites_exactly(seed_a in 0u64..200, seed_b in 200u64..400) {
        let a = models::mlp(&[3, 8, 8], &[12], 10, seed_a).unwrap();
        let mut b = models::mlp(&[3, 8, 8], &[12], 10, seed_b).unwrap();
        b.set_param_vector(&a.param_vector()).unwrap();
        prop_assert_eq!(a.param_vector(), b.param_vector());
    }

    #[test]
    fn cross_entropy_is_nonnegative(logits in proptest::collection::vec(-8.0f32..8.0, 12)) {
        let t = Tensor::from_vec(logits, &[3, 4]).unwrap();
        let (loss, grad) = softmax_cross_entropy(&t, &[0, 1, 3]).unwrap();
        prop_assert!(loss >= 0.0);
        prop_assert_eq!(grad.dims(), &[3, 4]);
        // gradient rows sum to ~0
        for r in 0..3 {
            let s: f32 = grad.as_slice()[r * 4..(r + 1) * 4].iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn shards_partition_the_dataset(k in 1usize..6, seed in 0u64..100) {
        let spec = SyntheticSpec::tiny();
        let ds = Dataset::synthetic_cifar(60, &spec, 3).unwrap();
        let shards = ds.shard(k, ShardSpec::Iid, seed).unwrap();
        prop_assert_eq!(shards.len(), k);
        let total: usize = shards.iter().map(Dataset::len).sum();
        prop_assert_eq!(total, 60);
        // class counts across shards must sum to the global histogram
        let global = ds.class_counts();
        let mut summed = vec![0usize; global.len()];
        for s in &shards {
            for (c, &n) in s.class_counts().iter().enumerate() {
                summed[c] += n;
            }
        }
        prop_assert_eq!(summed, global);
    }

    #[test]
    fn dirichlet_shards_partition_too(alpha in 0.05f32..5.0, seed in 0u64..50) {
        let spec = SyntheticSpec::tiny();
        let ds = Dataset::synthetic_cifar(50, &spec, 4).unwrap();
        let shards = ds.shard(3, ShardSpec::Dirichlet { alpha }, seed).unwrap();
        let total: usize = shards.iter().map(Dataset::len).sum();
        prop_assert_eq!(total, 50);
    }

    #[test]
    fn synthetic_labels_in_range(n in 1usize..80, seed in 0u64..100) {
        let spec = SyntheticSpec::tiny();
        let ds = Dataset::synthetic_cifar(n, &spec, seed).unwrap();
        prop_assert_eq!(ds.len(), n);
        prop_assert!(ds.labels().iter().all(|&l| l < spec.classes));
    }
}

// ---------------------------------------------------------------------------
// The elementwise kernels against their specification.
//
// The `*_spec` functions below are the loops `BatchNorm2d`, `Relu` and
// `Sgd::step` ran before they were rewritten (side-by-side channel
// sums, a branch-free mask, one fused pass per tensor), transcribed one
// for one and kept as the definition of the right answer: the kernels
// must agree with them in every bit.
// ---------------------------------------------------------------------------

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn random(len: usize, rng: &mut SeedStream) -> Vec<f32> {
    (0..len).map(|_| rng.normal() * 3.0 + 0.5).collect()
}

const BN_EPS: f32 = 1e-5;
const BN_MOMENTUM: f32 = 0.1;

struct BnForward {
    out: Vec<f32>,
    xhat: Vec<f32>,
    inv_std: Vec<f32>,
}

/// The training-mode forward pass; updates the running statistics.
fn bn_forward_spec(
    src: &[f32],
    (n, c, plane): (usize, usize, usize),
    (gamma, beta): (&[f32], &[f32]),
    (running_mean, running_var): (&mut [f32], &mut [f32]),
) -> BnForward {
    let m = (n * plane) as f32;
    let mut out = Vec::with_capacity(src.len());
    let mut means = Vec::with_capacity(c);
    let mut inv_std = Vec::with_capacity(c);
    for ch in 0..c {
        let mut mean = 0.0f32;
        for img in 0..n {
            let base = (img * c + ch) * plane;
            mean += src[base..base + plane].iter().sum::<f32>();
        }
        mean /= m;
        let mut var = 0.0f32;
        for img in 0..n {
            let base = (img * c + ch) * plane;
            var += src[base..base + plane]
                .iter()
                .map(|v| (v - mean).powi(2))
                .sum::<f32>();
        }
        var /= m;
        means.push(mean);
        inv_std.push(1.0 / (var + BN_EPS).sqrt());
        running_mean[ch] = (1.0 - BN_MOMENTUM) * running_mean[ch] + BN_MOMENTUM * mean;
        running_var[ch] = (1.0 - BN_MOMENTUM) * running_var[ch] + BN_MOMENTUM * var;
    }
    let mut xhat = Vec::with_capacity(src.len());
    for (i, xs) in src.chunks(plane).enumerate() {
        let ch = i % c;
        let (mean, istd) = (means[ch], inv_std[ch]);
        xhat.extend(xs.iter().map(|&x| (x - mean) * istd));
        let hs = &xhat[i * plane..];
        out.extend(hs.iter().map(|&h| gamma[ch] * h + beta[ch]));
    }
    BnForward { out, xhat, inv_std }
}

/// The backward pass: `(gx, grad_gamma, grad_beta)`, the parameter
/// gradients accumulated onto zero.
fn bn_backward_spec(
    gy: &[f32],
    fwd: &BnForward,
    (n, c, plane): (usize, usize, usize),
    gamma: &[f32],
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let m = (n * plane) as f32;
    let xh = &fwd.xhat;
    let (mut gg, mut gb) = (vec![0.0f32; c], vec![0.0f32; c]);
    let mut coeffs = Vec::with_capacity(c);
    for ch in 0..c {
        let mut sum_gy = 0.0f32;
        let mut sum_gy_xh = 0.0f32;
        for img in 0..n {
            let base = (img * c + ch) * plane;
            for i in base..base + plane {
                sum_gy += gy[i];
                sum_gy_xh += gy[i] * xh[i];
            }
        }
        gg[ch] += sum_gy_xh;
        gb[ch] += sum_gy;
        coeffs.push((gamma[ch] * fwd.inv_std[ch], sum_gy / m, sum_gy_xh / m));
    }
    let mut gx = Vec::with_capacity(gy.len());
    for (i, (gs, hs)) in gy.chunks(plane).zip(xh.chunks(plane)).enumerate() {
        let (k, mean_gy, mean_gy_xh) = coeffs[i % c];
        gx.extend(
            gs.iter()
                .zip(hs)
                .map(|(&g, &h)| k * (g - mean_gy - h * mean_gy_xh)),
        );
    }
    (gx, gg, gb)
}

#[test]
fn batchnorm_matches_its_spec_bit_for_bit() {
    let mut rng = SeedStream::new(0xB0);
    for c in [1, 3, 4, 5, 8, 33] {
        for plane in [1, 2, 4, 15, 64] {
            for n in [1, 2, 5, 16] {
                let case = format!("c={c} plane={plane} n={n}");
                let dims = [n, c, 1, plane];
                let mut bn = BatchNorm2d::new(c).unwrap();
                let (gamma, beta) = (random(c, &mut rng), random(c, &mut rng));
                let mut fresh = [gamma.as_slice(), beta.as_slice()].into_iter();
                bn.visit_params_mut(&mut |p| {
                    p.as_mut_slice().copy_from_slice(fresh.next().unwrap())
                });
                let mut batch =
                    || Tensor::from_vec(random(n * c * plane, &mut rng), &dims).unwrap();
                if n * plane < 2 {
                    assert!(
                        matches!(bn.forward_train(&batch()), Err(NnError::BatchMismatch(_))),
                        "{case}"
                    );
                    continue;
                }
                let (mut mean, mut var) = (vec![0.0f32; c], vec![1.0f32; c]);
                // Two batches: the second starts from running statistics
                // other than the initial (0, 1) and reuses the buffers.
                for _ in 0..2 {
                    let (x, gy) = (batch(), batch());
                    let want = bn_forward_spec(
                        x.as_slice(),
                        (n, c, plane),
                        (&gamma, &beta),
                        (&mut mean, &mut var),
                    );
                    let (out, tape) = bn.forward_train(&x).unwrap();
                    assert_eq!(bits(out.as_slice()), bits(&want.out), "out, {case}");
                    assert_eq!(bits(tape.xhat().unwrap()), bits(&want.xhat), "xhat, {case}");
                    assert_eq!(bits(bn.running_mean()), bits(&mean), "running mean, {case}");
                    assert_eq!(bits(bn.running_var()), bits(&var), "running var, {case}");

                    let (want_gx, want_gg, want_gb) =
                        bn_backward_spec(gy.as_slice(), &want, (n, c, plane), &gamma);
                    bn.zero_grads();
                    let gx = bn.backward(tape, &gy).unwrap();
                    assert_eq!(bits(gx.as_slice()), bits(&want_gx), "gx, {case}");
                    let mut grads = Vec::new();
                    bn.visit_params_grads_mut(&mut |_, g| grads.push(bits(g.as_slice())));
                    assert_eq!(
                        grads,
                        [bits(&want_gg), bits(&want_gb)],
                        "gamma/beta grads, {case}"
                    );
                }
            }
        }
    }
}

/// Values a mask has to get right beyond the ordinary ones.
const SPECIALS: [f32; 8] = [
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    -1.5,
    2.5,
    f32::MIN_POSITIVE,
];

fn relu_backward_spec(input: &[f32], grad_out: &[f32]) -> Vec<f32> {
    let mask: Vec<bool> = input.iter().map(|&v| v > 0.0).collect();
    let mut gx = grad_out.to_vec();
    for (g, &m) in gx.iter_mut().zip(&mask) {
        if !m {
            *g = 0.0;
        }
    }
    gx
}

#[test]
fn relu_backward_matches_its_spec_bit_for_bit() {
    // Every special input against every special gradient (a NaN with a
    // payload and a sign among them), then a long random batch.
    let mut rng = SeedStream::new(0xAC);
    let payload_nan = f32::from_bits(0xffc1_2345);
    let mut input = Vec::new();
    let mut grad = Vec::new();
    for x in SPECIALS {
        for g in SPECIALS.into_iter().chain([payload_nan]) {
            input.push(x);
            grad.push(g);
        }
    }
    input.extend(random(1000, &mut rng));
    grad.extend(random(1000, &mut rng));
    let dims = [1, input.len()];

    let mut relu = Relu::new();
    let (out, tape) = relu
        .forward_train(&Tensor::from_vec(input.clone(), &dims).unwrap())
        .unwrap();
    for (&x, &y) in input.iter().zip(out.as_slice()) {
        // `f32::max` leaves the sign of a zero result open.
        let want = x.max(0.0);
        assert!(
            y.to_bits() == want.to_bits() || (y == 0.0 && want == 0.0),
            "relu({x}) = {y}"
        );
    }
    let gx = relu
        .backward(tape, &Tensor::from_vec(grad.clone(), &dims).unwrap())
        .unwrap();
    assert_eq!(gx.dims(), &dims);
    assert_eq!(
        bits(gx.as_slice()),
        bits(&relu_backward_spec(&input, &grad))
    );
    for ((&x, &g), &got) in input.iter().zip(&grad).zip(gx.as_slice()) {
        let want = if x > 0.0 { g.to_bits() } else { 0 };
        assert_eq!(got.to_bits(), want, "x = {x}, g = {g}");
    }
}

/// A bag of `(parameter, gradient)` tensors for the optimizer to walk.
struct Params(Vec<(Tensor, Tensor)>);

impl Params {
    fn new(tensors: &[(&[usize], &[f32], &[f32])]) -> Self {
        Params(
            tensors
                .iter()
                .map(|&(dims, p, g)| {
                    (
                        Tensor::from_vec(p.to_vec(), dims).unwrap(),
                        Tensor::from_vec(g.to_vec(), dims).unwrap(),
                    )
                })
                .collect(),
        )
    }
}

impl Layer for Params {
    fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        Ok(input.clone())
    }
    fn forward_train(&mut self, input: &Tensor) -> Result<(Tensor, Tape), NnError> {
        Ok((input.clone(), Tape::default()))
    }
    fn backward(&mut self, _tape: Tape, grad_out: &Tensor) -> Result<Tensor, NnError> {
        Ok(grad_out.clone())
    }
    fn visit_params(&self, f: &mut dyn FnMut(&Tensor)) {
        self.0.iter().for_each(|(p, _)| f(p));
    }
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.0.iter_mut().for_each(|(p, _)| f(p));
    }
    fn visit_params_grads_mut(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.0.iter_mut().for_each(|(p, g)| f(p, g));
    }
    fn zero_grads(&mut self) {
        self.0.iter_mut().for_each(|(_, g)| g.fill_zero());
    }
    fn name(&self) -> &'static str {
        "Params"
    }
}

/// One optimizer step over one tensor: scale the velocity, add the
/// gradient, `p += -lr * v` (or `p += -lr * g` without momentum), then
/// the finiteness check and the gradient reset. `false` = non-finite.
fn sgd_spec(p: &mut [f32], v: &mut [f32], g: &mut [f32], lr: f32, momentum: f32) -> bool {
    if momentum != 0.0 {
        v.iter_mut().for_each(|a| *a *= momentum);
        v.iter_mut().zip(g.iter()).for_each(|(a, &b)| *a += b);
        p.iter_mut().zip(v.iter()).for_each(|(a, &b)| *a += -lr * b);
    } else {
        p.iter_mut().zip(g.iter()).for_each(|(a, &b)| *a += -lr * b);
    }
    if p.iter().any(|a| !a.is_finite()) {
        return false;
    }
    g.fill(0.0);
    true
}

#[test]
fn sgd_matches_its_spec_bit_for_bit() {
    let mut rng = SeedStream::new(0x5D);
    // A scalar, a ragged small tensor, and one long enough to be cut
    // into chunks when the parallel path is forced.
    let shapes: [&[usize]; 3] = [&[1], &[3, 7], &[2, 40_000]];
    for momentum in [0.0, 0.9] {
        for lr in [0.0, 0.05] {
            for threads in [1, 4] {
                let case = format!("momentum={momentum} lr={lr} threads={threads}");
                let len = |dims: &[usize]| dims.iter().product::<usize>();
                let mut want: Vec<(Vec<f32>, Vec<f32>)> = shapes
                    .iter()
                    .map(|dims| (random(len(dims), &mut rng), vec![0.0; len(dims)]))
                    .collect();
                let zeros: Vec<Vec<f32>> = shapes.iter().map(|dims| vec![0.0; len(dims)]).collect();
                let mut layer = Params::new(
                    &(0..shapes.len())
                        .map(|i| (shapes[i], want[i].0.as_slice(), zeros[i].as_slice()))
                        .collect::<Vec<_>>(),
                );
                let mut opt = Sgd::new(lr, momentum);
                for step in 0..3 {
                    for ((p, v), (_, g)) in want.iter_mut().zip(&mut layer.0) {
                        let mut grad = random(p.len(), &mut rng);
                        g.as_mut_slice().copy_from_slice(&grad);
                        assert!(sgd_spec(p, v, &mut grad, lr, momentum), "{case}");
                    }
                    hadfl_par::with_threads_forced(threads, || opt.step(&mut layer)).unwrap();
                    for ((p, _), (got, g)) in want.iter().zip(&layer.0) {
                        assert_eq!(bits(got.as_slice()), bits(p), "step {step}, {case}");
                        assert!(g.as_slice().iter().all(|g| g.to_bits() == 0), "{case}");
                    }
                }
                assert_eq!(opt.steps_taken(), 3);
            }
        }
    }
}

#[test]
fn sgd_reports_a_nan_gradient_as_non_finite() {
    for momentum in [0.0, 0.9] {
        let mut layer = Params::new(&[
            (&[2], &[1.0, 2.0], &[0.5, 0.5]),
            (&[3], &[1.0, 2.0, 3.0], &[0.5, f32::NAN, 0.5]),
            (&[1], &[4.0], &[0.5]),
        ]);
        let mut opt = Sgd::new(0.1, momentum);
        assert_eq!(
            opt.step(&mut layer),
            Err(NnError::NonFinite("sgd parameter update"))
        );
        assert_eq!(opt.steps_taken(), 0);
        // The walk stops at the offending tensor.
        assert_eq!(layer.0[0].0.as_slice(), &[0.95, 1.95]);
        assert_eq!(layer.0[2].0.as_slice(), &[4.0]);
        assert_eq!(layer.0[2].1.as_slice(), &[0.5]);
    }
}

#[test]
fn sgd_rejects_a_tensor_whose_shape_changed_between_steps() {
    let reshaped = || Params::new(&[(&[3], &[1.0, 1.0, 1.0], &[1.0, 1.0, 1.0])]);

    let mut layer = Params::new(&[(&[2], &[1.0, 1.0], &[1.0, 1.0])]);
    let mut opt = Sgd::new(0.5, 0.9);
    opt.step(&mut layer).unwrap();
    // The velocity still has the old shape: the mismatch is an error,
    // not an update of the first two elements.
    let mut layer = reshaped();
    assert_eq!(
        opt.step(&mut layer),
        Err(NnError::Tensor(TensorError::ShapeMismatch {
            op: "add_assign",
            lhs: vec![2],
            rhs: vec![3],
        }))
    );
    assert_eq!(layer.0[0].0.as_slice(), &[1.0, 1.0, 1.0]);

    // Without momentum the velocity is never read, so its stale shape
    // is not an error — and must not shorten the update either.
    let mut layer = Params::new(&[(&[2], &[1.0, 1.0], &[1.0, 1.0])]);
    let mut opt = Sgd::new(0.5, 0.0);
    opt.step(&mut layer).unwrap();
    let mut layer = reshaped();
    opt.step(&mut layer).unwrap();
    assert_eq!(layer.0[0].0.as_slice(), &[0.5, 0.5, 0.5]);

    // A gradient that does not match its own parameter.
    let mut layer = reshaped();
    layer.0[0].1 = Tensor::zeros(&[2]);
    assert_eq!(
        Sgd::new(0.5, 0.0).step(&mut layer),
        Err(NnError::Tensor(TensorError::ShapeMismatch {
            op: "axpy",
            lhs: vec![3],
            rhs: vec![2],
        }))
    );
}
