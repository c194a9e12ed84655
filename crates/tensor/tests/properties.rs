//! Property-based tests for the tensor kernels.

mod common;

use common::*;
use hadfl_tensor::{
    argmax, conv_backward_input, conv_backward_weight, conv_forward, im2col, im2col_into, matmul,
    matmul_a_bt, matmul_at_b, softmax_rows, Conv2dGeometry, SeedStream, Tensor,
};
use proptest::prelude::*;

fn tensor_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

proptest! {
    #[test]
    fn add_is_commutative(xs in tensor_strategy(16), ys in tensor_strategy(16)) {
        let a = Tensor::from_vec(xs, &[4, 4]).unwrap();
        let b = Tensor::from_vec(ys, &[4, 4]).unwrap();
        prop_assert_eq!(a.add(&b).unwrap(), b.add(&a).unwrap());
    }

    #[test]
    fn scale_distributes_over_add(xs in tensor_strategy(8), ys in tensor_strategy(8), k in -4.0f32..4.0) {
        let a = Tensor::from_vec(xs, &[8]).unwrap();
        let b = Tensor::from_vec(ys, &[8]).unwrap();
        let lhs = a.add(&b).unwrap().scale(k);
        let rhs = a.scale(k).add(&b.scale(k)).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-3);
        }
    }

    #[test]
    fn matmul_identity_right(xs in tensor_strategy(12)) {
        let a = Tensor::from_vec(xs, &[3, 4]).unwrap();
        let c = matmul(&a, &Tensor::eye(4)).unwrap();
        prop_assert_eq!(c, a);
    }

    #[test]
    fn matmul_associates_with_scaling(xs in tensor_strategy(6), ys in tensor_strategy(6), k in -3.0f32..3.0) {
        let a = Tensor::from_vec(xs, &[2, 3]).unwrap();
        let b = Tensor::from_vec(ys, &[3, 2]).unwrap();
        let lhs = matmul(&a.scale(k), &b).unwrap();
        let rhs = matmul(&a, &b).unwrap().scale(k);
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-2);
        }
    }

    #[test]
    fn transposed_matmuls_agree_with_plain(xs in tensor_strategy(12), ys in tensor_strategy(12)) {
        // a: 3x4 (stored transposed as 4x3 too), b: 4x3
        let a = Tensor::from_vec(xs.clone(), &[3, 4]).unwrap();
        let b = Tensor::from_vec(ys, &[4, 3]).unwrap();
        // explicit transpose of a (4x3)
        let mut at_data = vec![0.0; 12];
        for i in 0..3 {
            for j in 0..4 {
                at_data[j * 3 + i] = xs[i * 4 + j];
            }
        }
        let at = Tensor::from_vec(at_data, &[4, 3]).unwrap();
        let plain = matmul(&a, &b).unwrap();
        let via_at = matmul_at_b(&at, &b).unwrap();
        for (x, y) in plain.as_slice().iter().zip(via_at.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-3);
        }
        // and a_bt: a (3x4) * (bᵀ)ᵀ where we pass bᵀ (3x4)
        let mut bt_data = vec![0.0; 12];
        for i in 0..4 {
            for j in 0..3 {
                bt_data[j * 4 + i] = b.as_slice()[i * 3 + j];
            }
        }
        let bt = Tensor::from_vec(bt_data, &[3, 4]).unwrap();
        let via_bt = matmul_a_bt(&a, &bt).unwrap();
        for (x, y) in plain.as_slice().iter().zip(via_bt.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-3);
        }
    }

    #[test]
    fn softmax_rows_are_distributions(xs in tensor_strategy(20)) {
        let t = Tensor::from_vec(xs, &[4, 5]).unwrap();
        let s = softmax_rows(&t).unwrap();
        for r in 0..4 {
            let row = &s.as_slice()[r * 5..(r + 1) * 5];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn softmax_preserves_argmax(xs in tensor_strategy(10)) {
        let t = Tensor::from_vec(xs.clone(), &[1, 10]).unwrap();
        let s = softmax_rows(&t).unwrap();
        prop_assert_eq!(argmax(&xs).unwrap(), argmax(s.as_slice()).unwrap());
    }

    #[test]
    fn im2col_backward_input_adjoint(seed in 0u64..1000, k in 1usize..4, s in 1usize..3, p in 0usize..2) {
        // <im2col(x), y> == <x, im2col*(y)>; with an identity filter
        // bank `gp · W` is `gp`, so backward-input is the bare adjoint.
        let geom = match Conv2dGeometry::new(2, 6, 5, k, s, p) {
            Ok(g) => g,
            Err(_) => return Ok(()),
        };
        let width = geom.patch_len();
        let mut rng = SeedStream::new(seed);
        let x = random(&[1, 2, 6, 5], &mut rng);
        let gy = random(&[1, width, geom.out_h, geom.out_w], &mut rng);
        let y = Tensor::from_vec(patch_major(&gy), &[geom.patches_per_image(), width]).unwrap();
        let lhs = im2col(&x, &geom).unwrap().dot(&y).unwrap();
        let aty = conv_backward_input(&gy, &Tensor::eye(width), &geom).unwrap();
        let rhs = x.dot(&aty).unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0));
    }
}

/// Values with exact zeros of both signs sprinkled in, so the zero-skip
/// (and its ±0.0 edge) is exercised.
fn with_zeros(dims: &[usize], rng: &mut SeedStream) -> Tensor {
    let mut t = random(dims, rng);
    for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
        match i % 7 {
            0 => *v = 0.0,
            3 => *v = -0.0,
            _ => {}
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The register-tile kernels against the scalar ikj loop, over
    /// shapes that leave ragged row blocks, ragged column tiles, and
    /// empty or single-step inner dimensions; and the four-dot row-dot
    /// against per-element `dot8`, over depths of zero, one and two
    /// whole eight-lane chunks with and without a tail, and widths past
    /// two four-dot tiles.
    #[test]
    fn blocked_matmuls_equal_the_scalar_reference(
        m in 0usize..11, ka in 0usize..6, n in 0usize..37, seed in 0u64..1 << 16,
        kd in 0usize..20, nd in 0usize..13,
    ) {
        let mut rng = SeedStream::new(seed);
        let a = with_zeros(&[m, ka], &mut rng);
        let b = random(&[ka, n], &mut rng);
        let got = matmul(&a, &b).unwrap();
        prop_assert!(same_floats(got.as_slice(), &matmul_ref(a.as_slice(), b.as_slice(), m, ka, n)));
        let at = with_zeros(&[ka, m], &mut rng);
        let got = matmul_at_b(&at, &b).unwrap();
        prop_assert!(same_floats(got.as_slice(), &matmul_at_b_ref(at.as_slice(), b.as_slice(), ka, m, n)));
        let a = with_zeros(&[m, kd], &mut rng);
        let bt = random(&[nd, kd], &mut rng);
        let got = matmul_a_bt(&a, &bt).unwrap();
        prop_assert!(same_floats(got.as_slice(), &matmul_a_bt_ref(a.as_slice(), bt.as_slice(), m, kd, nd)));
    }

    /// A non-finite `b` row is masked exactly where `a` is zero — row
    /// by row of the block, not block by block.
    #[test]
    fn a_zero_masks_a_non_finite_b_per_row(
        m in 1usize..9, ka in 1usize..6, n in 1usize..35, seed in 0u64..1 << 16, bad in 0usize..3,
    ) {
        let mut rng = SeedStream::new(seed);
        let mut a = random(&[m, ka], &mut rng);
        let mut b = random(&[ka, n], &mut rng);
        let k = seed as usize % ka;
        let poison = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][bad];
        b.as_mut_slice()[k * n..(k + 1) * n].fill(poison);
        // Every other row of `a` is zero under the poisoned `k`.
        for i in (0..m).step_by(2) {
            a.as_mut_slice()[i * ka + k] = 0.0;
        }
        let got = matmul(&a, &b).unwrap();
        prop_assert!(same_floats(got.as_slice(), &matmul_ref(a.as_slice(), b.as_slice(), m, ka, n)));
        for i in (0..m).step_by(2) {
            prop_assert!(got.as_slice()[i * n..(i + 1) * n].iter().all(|v| v.is_finite()));
        }
        // The same operand read column-wise through `matmul_at_b`.
        let mut at = Tensor::zeros(&[ka, m]);
        for i in 0..m {
            for kk in 0..ka {
                at.as_mut_slice()[kk * m + i] = a.as_slice()[i * ka + kk];
            }
        }
        prop_assert_eq!(bits(&matmul_at_b(&at, &b).unwrap()), bits(&got));
    }

    /// The three convolution products against their unfused definitions;
    /// `oc` up to 9 draws two whole four-dot tiles of the forward
    /// product and a ragged third.
    #[test]
    fn conv_products_equal_their_unfused_references(
        batch in 1usize..4, cin in 1usize..4, oc in 1usize..10,
        k in 1usize..4, s in 1usize..3, p in 0usize..2, seed in 0u64..1 << 16,
    ) {
        let geom = match Conv2dGeometry::new(cin, 6, 5, k, s, p) {
            Ok(g) => g,
            Err(_) => return Ok(()),
        };
        let mut rng = SeedStream::new(seed);
        let x = random(&[batch, cin, 6, 5], &mut rng);
        let w = random(&[oc, geom.patch_len()], &mut rng);
        let bias = random(&[oc], &mut rng);
        let gy = with_zeros(&[batch, oc, geom.out_h, geom.out_w], &mut rng);
        let cols = im2col(&x, &geom).unwrap();

        let y = conv_forward(&cols, &w, &bias, &geom).unwrap();
        prop_assert_eq!(y.dims(), &[batch, oc, geom.out_h, geom.out_w][..]);
        prop_assert!(same_floats(y.as_slice(), &conv_forward_ref(&cols, &w, &bias, &geom)));

        let mut gw = random(&[oc, geom.patch_len()], &mut rng);
        let want = conv_backward_weight_ref(&gy, &cols, &gw);
        conv_backward_weight(&gy, &cols, &geom, &mut gw).unwrap();
        prop_assert!(same_floats(gw.as_slice(), &want));

        let dx = conv_backward_input(&gy, &w, &geom).unwrap();
        prop_assert_eq!(dx.dims(), x.dims());
        prop_assert!(same_floats(dx.as_slice(), &conv_backward_input_ref(&gy, &w, &geom)));
    }

    /// Whatever a buffer of the right shape held before — here NaN in
    /// every cell — `im2col_into` leaves exactly a fresh `im2col`: pixel
    /// cells and padding cells are all written on every call.
    #[test]
    fn im2col_into_a_dirty_buffer_equals_im2col(
        batch in 1usize..4, cin in 1usize..4, h in 1usize..10, w in 1usize..8,
        k in 1usize..6, s in 1usize..4, p in 0usize..3, seed in 0u64..1 << 16,
    ) {
        let geom = match Conv2dGeometry::new(cin, h, w, k, s, p) {
            Ok(g) => g,
            Err(_) => return Ok(()),
        };
        let mut rng = SeedStream::new(seed);
        let x = random(&[batch, cin, h, w], &mut rng);
        let dims = [batch * geom.patches_per_image(), geom.patch_len()];
        let mut cols = Tensor::from_vec(vec![f32::NAN; dims[0] * dims[1]], &dims).unwrap();
        im2col_into(&x, &geom, &mut cols).unwrap();
        prop_assert_eq!(cols.dims(), &dims[..]);
        prop_assert_eq!(bits(&cols), bits(&im2col(&x, &geom).unwrap()));
        prop_assert_eq!(
            bits(&cols),
            im2col_ref(&x, &geom).iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    /// The stride-1 gather against the product-then-scatter definition,
    /// over every tile shape (channel counts that pad, divide by 16 and
    /// by 32), ragged pixel tiles, kernels wider than the plane and
    /// paddings wider than the kernel.
    #[test]
    fn stride_one_input_gradient_equals_the_scatter_reference(
        bi in 0usize..3, ci in 0usize..7, oi in 0usize..5, ki in 0usize..3,
        p in 0usize..3, h in 1usize..10, w in 1usize..8, seed in 0u64..1 << 16,
    ) {
        let (batch, cin) = ([1, 2, 5][bi], [1, 3, 5, 8, 16, 32, 33][ci]);
        let (oc, k) = ([1, 2, 8, 17, 32][oi], [1, 3, 5][ki]);
        let geom = match Conv2dGeometry::new(cin, h, w, k, 1, p) {
            Ok(g) => g,
            Err(_) => return Ok(()),
        };
        let mut rng = SeedStream::new(seed);
        let wt = random(&[oc, geom.patch_len()], &mut rng);
        let gy = with_zeros(&[batch, oc, geom.out_h, geom.out_w], &mut rng);
        let dx = conv_backward_input(&gy, &wt, &geom).unwrap();
        prop_assert_eq!(dx.dims(), &[batch, cin, h, w][..]);
        prop_assert!(same_floats(dx.as_slice(), &conv_backward_input_ref(&gy, &wt, &geom)));
    }

    /// The zero-skip is part of the contract, not an optimisation: a
    /// non-finite filter row stays masked wherever its gradient is
    /// exactly zero and poisons exactly the footprint of the one patch
    /// where it is not — gather (stride 1) and scatter (stride 2) alike.
    #[test]
    fn zero_gradient_masks_a_non_finite_filter_per_patch(
        ci in 0usize..5, oc in 1usize..6, s in 1usize..3, seed in 0u64..1 << 16, bad in 0usize..3,
    ) {
        let cin = [1, 3, 8, 16, 32][ci];
        let geom = Conv2dGeometry::new(cin, 5, 4, 3, s, 1).unwrap();
        let (ppi, width) = (geom.patches_per_image(), geom.patch_len());
        let mut rng = SeedStream::new(seed);
        let mut wt = random(&[oc, width], &mut rng);
        let mut gy = random(&[2, oc, geom.out_h, geom.out_w], &mut rng);
        let (bad_oc, live) = (seed as usize % oc, seed as usize / 7 % ppi);
        let poison = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][bad];
        wt.as_mut_slice()[bad_oc * width..(bad_oc + 1) * width].fill(poison);
        // The poisoned filter's gradient: zeros of both signs, except at
        // patch `live` of every image.
        for img in 0..2 {
            for patch in 0..ppi {
                if patch != live {
                    let zero = if patch % 2 == 0 { 0.0 } else { -0.0 };
                    gy.as_mut_slice()[(img * oc + bad_oc) * ppi + patch] = zero;
                }
            }
        }
        let dx = conv_backward_input(&gy, &wt, &geom).unwrap();
        prop_assert!(same_floats(dx.as_slice(), &conv_backward_input_ref(&gy, &wt, &geom)));
        let (oy, ox) = (live / geom.out_w, live % geom.out_w);
        for (i, v) in dx.as_slice().iter().enumerate() {
            let (y, x) = (i / geom.in_w % geom.in_h, i % geom.in_w);
            let hit = (oy * s..oy * s + 3).contains(&(y + 1)) && (ox * s..ox * s + 3).contains(&(x + 1));
            prop_assert_eq!(v.is_finite(), !hit, "pixel ({}, {}) under patch ({}, {})", y, x, oy, ox);
        }
    }

    /// The same contract for the weight gradient: a non-finite pixel is
    /// masked for the filters whose gradient is zero at every patch that
    /// sees it, and poisons the others.
    #[test]
    fn zero_gradient_masks_a_non_finite_pixel_per_filter(
        cin in 1usize..4, oc in 2usize..7, s in 1usize..3, seed in 0u64..1 << 16, bad in 0usize..3,
    ) {
        let geom = Conv2dGeometry::new(cin, 5, 4, 3, s, 1).unwrap();
        let (ppi, width) = (geom.patches_per_image(), geom.patch_len());
        let mut rng = SeedStream::new(seed);
        let mut x = random(&[2, cin, 5, 4], &mut rng);
        let mut gy = random(&[2, oc, geom.out_h, geom.out_w], &mut rng);
        let pixel = seed as usize % x.len();
        x.as_mut_slice()[pixel] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][bad];
        let cols = im2col(&x, &geom).unwrap();
        // Even filters get a zero gradient at every patch row that
        // holds the pixel.
        for (row, crow) in cols.as_slice().chunks(width).enumerate() {
            if crow.iter().any(|v| !v.is_finite()) {
                for c in (0..oc).step_by(2) {
                    gy.as_mut_slice()[(row / ppi * oc + c) * ppi + row % ppi] = 0.0;
                }
            }
        }
        let mut gw = random(&[oc, width], &mut rng);
        let want = conv_backward_weight_ref(&gy, &cols, &gw);
        conv_backward_weight(&gy, &cols, &geom, &mut gw).unwrap();
        prop_assert!(same_floats(gw.as_slice(), &want));
        for (c, grow) in gw.as_slice().chunks(width).enumerate() {
            prop_assert_eq!(grow.iter().all(|v| v.is_finite()), c % 2 == 0, "filter {}", c);
        }
    }
}

/// The six convolution geometries of `resnet18_lite` on 3×8×8 samples at
/// the benchmark's batch size, spelled out: `(C, out channels, plane,
/// stride)`, all 3×3 with padding 1.
#[test]
fn resnet18_lite_layer_shapes_match_their_references() {
    let mut rng = SeedStream::new(18);
    for (cin, oc, hw, s) in [
        (3, 8, 8, 1),
        (8, 8, 8, 1),
        (8, 16, 8, 2),
        (16, 16, 4, 1),
        (16, 32, 4, 2),
        (32, 32, 2, 1),
    ] {
        let geom = Conv2dGeometry::new(cin, hw, hw, 3, s, 1).unwrap();
        let x = random(&[16, cin, hw, hw], &mut rng);
        let w = random(&[oc, geom.patch_len()], &mut rng);
        let gy = with_zeros(&[16, oc, geom.out_h, geom.out_w], &mut rng);
        let cols = im2col(&x, &geom).unwrap();
        assert!(
            same_floats(cols.as_slice(), &im2col_ref(&x, &geom)),
            "im2col {cin}->{oc} @{hw}x{hw} s{s}"
        );
        let dx = conv_backward_input(&gy, &w, &geom).unwrap();
        assert!(
            same_floats(dx.as_slice(), &conv_backward_input_ref(&gy, &w, &geom)),
            "conv_backward_input {cin}->{oc} @{hw}x{hw} s{s}"
        );
    }
}
