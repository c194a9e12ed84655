//! Naive scalar references the kernel tests compare against, bit for
//! bit. Each is the definition of an association written as plainly as
//! possible: per output element, one accumulator, additions in the
//! documented order.
#![allow(dead_code)] // each test crate uses its own subset

use hadfl_tensor::{Conv2dGeometry, SeedStream, Tensor};

pub fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Bit equality, except that any NaN matches any NaN: which payload an
/// invalid operation yields is the hardware's choice, not the kernel's.
pub fn same_floats(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
}

pub fn random(dims: &[usize], rng: &mut SeedStream) -> Tensor {
    let mut t = Tensor::zeros(dims);
    for v in t.as_mut_slice() {
        *v = rng.normal();
    }
    t
}

/// Naive scalar matmul: per output element, additions in ascending `k`
/// with the `a[i,k] == 0` skip — the reference operation order the
/// blocked kernel must reproduce exactly.
pub fn matmul_ref(av: &[f32], bv: &[f32], m: usize, ka: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..ka {
                let aik = av[i * ka + k];
                if aik == 0.0 {
                    continue;
                }
                acc += aik * bv[k * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

pub fn matmul_at_b_ref(av: &[f32], bv: &[f32], ka: usize, m: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..ka {
                let aki = av[k * m + i];
                if aki == 0.0 {
                    continue;
                }
                acc += aki * bv[k * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// The fixed eight-lane association of `hadfl_tensor::simd`, written
/// independently: element `k` joins lane `k % 8`, lanes combine in the
/// pairwise tree.
pub fn dot8_ref(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    for (k, (&x, &y)) in a.iter().zip(b).enumerate() {
        acc[k % 8] += x * y;
    }
    let (s0, s1) = (acc[0] + acc[4], acc[1] + acc[5]);
    let (s2, s3) = (acc[2] + acc[6], acc[3] + acc[7]);
    (s0 + s2) + (s1 + s3)
}

pub fn matmul_a_bt_ref(av: &[f32], bv: &[f32], m: usize, ka: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[i * n + j] = dot8_ref(&av[i * ka..(i + 1) * ka], &bv[j * ka..(j + 1) * ka]);
        }
    }
    out
}

/// Calls `f(col, pixel)` for every patch column of patch `(oy, ox)`
/// that lands inside the image, `pixel` being the offset within one
/// image; columns ascend.
fn patch_cells(g: &Conv2dGeometry, oy: usize, ox: usize, mut f: impl FnMut(usize, usize)) {
    for c in 0..g.in_channels {
        for ky in 0..g.kernel {
            for kx in 0..g.kernel {
                let y = (oy * g.stride + ky) as isize - g.padding as isize;
                let x = (ox * g.stride + kx) as isize - g.padding as isize;
                if y >= 0 && (y as usize) < g.in_h && x >= 0 && (x as usize) < g.in_w {
                    let col = (c * g.kernel + ky) * g.kernel + kx;
                    f(col, (c * g.in_h + y as usize) * g.in_w + x as usize);
                }
            }
        }
    }
}

/// Element-by-element `im2col`.
pub fn im2col_ref(x: &Tensor, g: &Conv2dGeometry) -> Vec<f32> {
    let (batch, ppi, width) = (x.dims()[0], g.patches_per_image(), g.patch_len());
    let img_len = g.in_channels * g.in_h * g.in_w;
    let mut out = vec![0.0f32; batch * ppi * width];
    for row in 0..batch * ppi {
        let (img, patch) = (row / ppi, row % ppi);
        patch_cells(g, patch / g.out_w, patch % g.out_w, |col, pixel| {
            out[row * width + col] = x.as_slice()[img * img_len + pixel];
        });
    }
    out
}

/// An NCHW `(N, oc, oh, ow)` gradient as the patch-major `(N·ppi) × oc`
/// matrix the products are defined on.
pub fn patch_major(gy: &Tensor) -> Vec<f32> {
    let (batch, oc) = (gy.dims()[0], gy.dims()[1]);
    let ppi = gy.dims()[2] * gy.dims()[3];
    let mut gp = vec![0.0f32; batch * ppi * oc];
    for img in 0..batch {
        for c in 0..oc {
            for p in 0..ppi {
                gp[(img * ppi + p) * oc + c] = gy.as_slice()[(img * oc + c) * ppi + p];
            }
        }
    }
    gp
}

/// `conv_forward`: the `a_bt` product, transposed to NCHW, plus bias.
pub fn conv_forward_ref(cols: &Tensor, w: &Tensor, bias: &Tensor, g: &Conv2dGeometry) -> Vec<f32> {
    let (rows, width, oc, ppi) = (
        cols.dims()[0],
        g.patch_len(),
        bias.len(),
        g.patches_per_image(),
    );
    let prod = matmul_a_bt_ref(cols.as_slice(), w.as_slice(), rows, width, oc);
    let mut out = vec![0.0f32; rows * oc];
    for row in 0..rows {
        let (img, p) = (row / ppi, row % ppi);
        for c in 0..oc {
            out[(img * oc + c) * ppi + p] = prod[row * oc + c] + bias.as_slice()[c];
        }
    }
    out
}

/// `conv_backward_weight`: `gw + gpᵀ·cols`, the product summed from
/// zero and added once.
pub fn conv_backward_weight_ref(gy: &Tensor, cols: &Tensor, gw: &Tensor) -> Vec<f32> {
    let (rows, width, oc) = (cols.dims()[0], cols.dims()[1], gy.dims()[1]);
    let prod = matmul_at_b_ref(&patch_major(gy), cols.as_slice(), rows, oc, width);
    gw.as_slice()
        .iter()
        .zip(&prod)
        .map(|(g, p)| g + p)
        .collect()
}

/// `conv_backward_input`: the full `gp · W` product, then a patch-major
/// scatter in ascending column order.
pub fn conv_backward_input_ref(gy: &Tensor, w: &Tensor, g: &Conv2dGeometry) -> Vec<f32> {
    let (batch, oc) = (gy.dims()[0], gy.dims()[1]);
    let (ppi, width) = (g.patches_per_image(), g.patch_len());
    let gcols = matmul_ref(&patch_major(gy), w.as_slice(), batch * ppi, oc, width);
    let img_len = g.in_channels * g.in_h * g.in_w;
    let mut dx = vec![0.0f32; batch * img_len];
    for row in 0..batch * ppi {
        let (img, patch) = (row / ppi, row % ppi);
        patch_cells(g, patch / g.out_w, patch % g.out_w, |col, pixel| {
            dx[img * img_len + pixel] += gcols[row * width + col];
        });
    }
    dx
}
