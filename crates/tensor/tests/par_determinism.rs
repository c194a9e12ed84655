//! Determinism contract tests for the parallel tensor kernels
//! (DESIGN.md §10): every kernel must be **bit-identical** to its
//! naive serial reference at any thread count, including ragged chunk
//! tails, empty tensors, and degenerate 1×N / N×1 shapes.
//!
//! The [`hadfl_par::with_threads_forced`] override forces the parallel
//! path even for tiny inputs (it bypasses the measured work-size
//! cutoffs that plain `with_threads` respects), so these shapes
//! genuinely exercise multi-chunk dispatch through the persistent
//! worker pool — including pool reuse across dispatches and thread
//! count transitions mid-process.

mod common;

use common::*;
use hadfl_par::with_threads_forced as with_threads;
use hadfl_tensor::{
    conv_backward_input, conv_backward_weight, conv_forward, im2col, im2col_into, log_softmax_rows,
    matmul, matmul_a_bt, matmul_at_b, sum, Conv2dGeometry, Tensor,
};
use proptest::prelude::*;

/// Thread counts every kernel is checked under; 1 is the serial
/// reference path, the rest exercise real worker dispatch (8 exceeds
/// any CI runner's core count, so oversubscription is covered too).
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn vals(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-8.0f32..8.0, len)
}

/// Sprinkles exact zeros of both signs over generated values so the
/// zero-skip fast path (and its ±0.0 edge cases) is exercised.
fn with_zeros(mut v: Vec<f32>) -> Vec<f32> {
    for (i, x) in v.iter_mut().enumerate() {
        if i % 5 == 0 {
            *x = 0.0;
        } else if i % 7 == 0 {
            *x = -0.0;
        }
    }
    v
}

fn tensor2(data: Vec<f32>, r: usize, c: usize) -> Tensor {
    Tensor::from_vec(data, &[r, c]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_bit_identical_across_threads(
        m in 0usize..12, ka in 0usize..12, n in 0usize..20, seed in 0u64..1 << 16,
    ) {
        let mut rng = hadfl_tensor::SeedStream::new(seed);
        let av: Vec<f32> = (0..m * ka).map(|_| rng.normal()).collect();
        let bv: Vec<f32> = (0..ka * n).map(|_| rng.normal()).collect();
        let want = matmul_ref(&av, &bv, m, ka, n);
        let (a, b) = (tensor2(av, m, ka), tensor2(bv, ka, n));
        for t in THREADS {
            let got = with_threads(t, || matmul(&a, &b).unwrap());
            prop_assert_eq!(
                bits(&got),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "matmul {}x{}x{} at {} threads",
                m, ka, n, t
            );
        }
    }

    #[test]
    fn transposed_matmuls_bit_identical_across_threads(
        m in 0usize..10, ka in 0usize..10, n in 0usize..10, av in vals(100), bv in vals(100),
    ) {
        let (av, bv) = (with_zeros(av), with_zeros(bv));
        let at = tensor2(av[..ka * m].to_vec(), ka, m);
        let b = tensor2(bv[..ka * n].to_vec(), ka, n);
        let want_at = matmul_at_b_ref(at.as_slice(), b.as_slice(), ka, m, n);
        let a = tensor2(av[..m * ka].to_vec(), m, ka);
        let bt = tensor2(bv[..n * ka].to_vec(), n, ka);
        let want_bt = matmul_a_bt_ref(a.as_slice(), bt.as_slice(), m, ka, n);
        for t in THREADS {
            let got_at = with_threads(t, || matmul_at_b(&at, &b).unwrap());
            prop_assert_eq!(bits(&got_at), want_at.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
            let got_bt = with_threads(t, || matmul_a_bt(&a, &bt).unwrap());
            prop_assert_eq!(bits(&got_bt), want_bt.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn conv_kernels_bit_identical_across_threads(
        batch in 1usize..4, oc in 1usize..12, k in 1usize..4, s in 1usize..3, p in 0usize..2,
        ci in 0usize..3, seed in 0u64..1 << 16,
    ) {
        // One channel count per tile shape of the stride-1 input gradient.
        let cin = [3, 16, 32][ci];
        let geom = match Conv2dGeometry::new(cin, 6, 5, k, s, p) {
            Ok(g) => g,
            Err(_) => return Ok(()),
        };
        let mut rng = hadfl_tensor::SeedStream::new(seed);
        let x = random(&[batch, cin, 6, 5], &mut rng);
        let w = random(&[oc, geom.patch_len()], &mut rng);
        let bias = random(&[oc], &mut rng);
        let gy = random(&[batch, oc, geom.out_h, geom.out_w], &mut rng);
        let gw0 = random(&[oc, geom.patch_len()], &mut rng);
        let want_cols = im2col_ref(&x, &geom);
        let cols = im2col(&x, &geom).unwrap();
        let want_y = conv_forward_ref(&cols, &w, &bias, &geom);
        let want_gw = conv_backward_weight_ref(&gy, &cols, &gw0);
        let want_dx = conv_backward_input_ref(&gy, &w, &geom);
        // One retained buffer across all thread counts, as a layer has.
        let mut reused = Tensor::default();
        for t in THREADS {
            with_threads(t, || im2col_into(&x, &geom, &mut reused).unwrap());
            prop_assert!(same_floats(reused.as_slice(), &want_cols), "im2col at {} threads", t);
            let y = with_threads(t, || conv_forward(&cols, &w, &bias, &geom).unwrap());
            prop_assert!(same_floats(y.as_slice(), &want_y), "conv_forward at {} threads", t);
            let mut gw = gw0.clone();
            with_threads(t, || conv_backward_weight(&gy, &cols, &geom, &mut gw).unwrap());
            prop_assert!(same_floats(gw.as_slice(), &want_gw), "backward_weight at {} threads", t);
            let dx = with_threads(t, || conv_backward_input(&gy, &w, &geom).unwrap());
            prop_assert!(same_floats(dx.as_slice(), &want_dx), "backward_input at {} threads", t);
        }
    }

    #[test]
    fn elementwise_and_reductions_bit_identical_across_threads(
        len in 0usize..200, seed in 0u64..1 << 16,
    ) {
        let mut rng = hadfl_tensor::SeedStream::new(seed);
        let xs: Vec<f32> = (0..len).map(|_| rng.normal()).collect();
        let ys: Vec<f32> = (0..len).map(|_| rng.normal()).collect();
        let x = Tensor::from_vec(xs, &[len]).unwrap();
        let y = Tensor::from_vec(ys, &[len]).unwrap();

        let want_add = with_threads(1, || {
            let mut a = x.clone();
            a.add_assign_t(&y).unwrap();
            a
        });
        let want_dot = with_threads(1, || x.dot(&y).unwrap());
        let want_sum = with_threads(1, || sum(&x));
        let want_norm = with_threads(1, || x.norm_l2());
        for t in THREADS {
            let got_add = with_threads(t, || {
                let mut a = x.clone();
                a.add_assign_t(&y).unwrap();
                a
            });
            prop_assert_eq!(bits(&got_add), bits(&want_add));
            prop_assert_eq!(with_threads(t, || x.dot(&y).unwrap()).to_bits(), want_dot.to_bits());
            prop_assert_eq!(with_threads(t, || sum(&x)).to_bits(), want_sum.to_bits());
            prop_assert_eq!(with_threads(t, || x.norm_l2()).to_bits(), want_norm.to_bits());
        }
    }

    #[test]
    fn log_softmax_bit_identical_across_threads(
        rows in 0usize..40, cols in 1usize..8, seed in 0u64..1 << 16,
    ) {
        let mut rng = hadfl_tensor::SeedStream::new(seed);
        let xs: Vec<f32> = (0..rows * cols).map(|_| rng.normal()).collect();
        let x = Tensor::from_vec(xs, &[rows, cols]).unwrap();
        let want = with_threads(1, || log_softmax_rows(&x).unwrap());
        for t in THREADS {
            let got = with_threads(t, || log_softmax_rows(&x).unwrap());
            prop_assert_eq!(bits(&got), bits(&want), "log_softmax at {} threads", t);
        }
    }
}

/// Ragged tails and degenerate shapes, pinned explicitly (proptest may
/// not hit exactly these): a matmul whose row count is not a multiple
/// of the band size, 1×N, N×1, and empty operands.
#[test]
fn degenerate_shapes_bit_identical() {
    for (m, ka, n) in [
        (9, 3, 17), // ragged row band (9 = 8 + 1) and ragged col tile
        (1, 64, 7), // 1×N
        (33, 1, 1), // N×1
        (0, 4, 4),  // empty left
        (4, 0, 4),  // empty inner: all-zero output
        (4, 4, 0),  // empty right
    ] {
        let av: Vec<f32> = (0..m * ka).map(|i| (i as f32 * 0.37).sin()).collect();
        let bv: Vec<f32> = (0..ka * n).map(|i| (i as f32 * 0.71).cos()).collect();
        let want = matmul_ref(&av, &bv, m, ka, n);
        let a = Tensor::from_vec(av, &[m, ka]).unwrap();
        let b = Tensor::from_vec(bv, &[ka, n]).unwrap();
        for t in THREADS {
            let got = with_threads(t, || matmul(&a, &b).unwrap());
            assert_eq!(
                got.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "matmul {m}x{ka}x{n} at {t} threads"
            );
        }
    }
    // Empty tensors through the elementwise and reduction paths.
    let empty = Tensor::zeros(&[0]);
    for t in THREADS {
        with_threads(t, || {
            let mut e = empty.clone();
            e.add_assign_t(&empty).unwrap();
            assert_eq!(e.len(), 0);
            assert_eq!(sum(&e), 0.0);
            assert_eq!(e.norm_l2(), 0.0);
        });
    }
}

fn test_operands(m: usize, ka: usize, n: usize) -> (Tensor, Tensor) {
    let av: Vec<f32> = (0..m * ka).map(|i| (i as f32 * 0.37).sin()).collect();
    let bv: Vec<f32> = (0..ka * n).map(|i| (i as f32 * 0.71).cos()).collect();
    (
        Tensor::from_vec(av, &[m, ka]).unwrap(),
        Tensor::from_vec(bv, &[ka, n]).unwrap(),
    )
}

/// The persistent pool parks between dispatches and is reused by every
/// subsequent one; repeated dispatches must keep producing the serial
/// bits, with no first-dispatch/late-dispatch difference.
#[test]
fn pool_reuse_across_many_dispatches_stays_bit_identical() {
    let (a, b) = test_operands(17, 23, 9);
    let want = bits(&with_threads(1, || matmul(&a, &b).unwrap()));
    for round in 0..50 {
        let got = with_threads(4, || matmul(&a, &b).unwrap());
        assert_eq!(bits(&got), want, "round {round}");
    }
}

/// Changing the thread override mid-process (including dropping back
/// to 1 and oversubscribing past the pool's previous size) must not
/// move a bit.
#[test]
fn with_threads_transitions_keep_bits() {
    let (a, b) = test_operands(13, 31, 11);
    let want = bits(&with_threads(1, || matmul(&a, &b).unwrap()));
    for t in [4, 1, 8, 2, 4, 1] {
        let got = with_threads(t, || matmul(&a, &b).unwrap());
        assert_eq!(bits(&got), want, "after transition to {t} threads");
    }
}

/// A kernel invoked from inside a parallel region must serialize (no
/// nested fan-out, no deadlock on the pool) and still produce the
/// reference bits.
#[test]
fn nested_kernel_dispatch_serializes_and_matches() {
    let (a, b) = test_operands(9, 15, 7);
    let want = bits(&with_threads(1, || matmul(&a, &b).unwrap()));
    let results = with_threads(4, || {
        hadfl_par::par_map_collect(8, |_| bits(&matmul(&a, &b).unwrap()))
    });
    for (i, got) in results.iter().enumerate() {
        assert_eq!(got, &want, "nested matmul {i}");
    }
}
