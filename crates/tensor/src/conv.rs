//! `im2col` lowering for 2-D convolution, and the three products a
//! convolution layer is made of.
//!
//! Convolution layers in the `nn` crate are computed as a matrix product
//! over patches: the NCHW input is unrolled into a `(N·out_h·out_w) ×
//! (C·kh·kw)` patch matrix ([`im2col_into`]) and multiplied against the
//! reshaped filter bank ([`conv_forward`]); gradients flow back through
//! [`conv_backward_weight`] and [`conv_backward_input`]. The products
//! read and write activations in NCHW directly — the patch-major ↔ NCHW
//! transposes, the bias add and the patch scatter are the prologue and
//! epilogue of the product they belong to, not passes of their own.

use std::ops::Range;

use hadfl_par::OpClass;
use serde::{Deserialize, Serialize};

use crate::error::TensorError;
use crate::linalg::{block_product, row_block, rows_a_bt, PackedRows, Strided, ROW_BAND};
use crate::simd::{dispatch, Isa};
use crate::tensor::Tensor;

/// Static geometry of a 2-D convolution: input extents, kernel, stride and
/// zero padding, with the derived output extents.
///
/// # Example
///
/// ```
/// use hadfl_tensor::Conv2dGeometry;
///
/// # fn main() -> Result<(), hadfl_tensor::TensorError> {
/// let g = Conv2dGeometry::new(3, 8, 8, 3, 1, 1)?;
/// assert_eq!((g.out_h, g.out_w), (8, 8)); // 'same' padding
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel extent.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub padding: usize,
    /// Derived output height.
    pub out_h: usize,
    /// Derived output width.
    pub out_w: usize,
}

impl Conv2dGeometry {
    /// Computes the geometry, validating that the kernel fits.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if any extent is zero, the
    /// stride is zero, or the padded input is smaller than the kernel.
    pub fn new(
        in_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self, TensorError> {
        if in_channels == 0 || in_h == 0 || in_w == 0 || kernel == 0 {
            return Err(TensorError::InvalidGeometry(format!(
                "zero extent: channels={in_channels} h={in_h} w={in_w} kernel={kernel}"
            )));
        }
        if stride == 0 {
            return Err(TensorError::InvalidGeometry(
                "stride must be positive".into(),
            ));
        }
        let padded_h = in_h + 2 * padding;
        let padded_w = in_w + 2 * padding;
        if padded_h < kernel || padded_w < kernel {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {kernel} larger than padded input {padded_h}x{padded_w}"
            )));
        }
        Ok(Conv2dGeometry {
            in_channels,
            in_h,
            in_w,
            kernel,
            stride,
            padding,
            out_h: (padded_h - kernel) / stride + 1,
            out_w: (padded_w - kernel) / stride + 1,
        })
    }

    /// Number of columns in the patch matrix: `C·kh·kw`.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Number of patch rows per batch element: `out_h·out_w`.
    pub fn patches_per_image(&self) -> usize {
        self.out_h * self.out_w
    }
}

/// Patch rows per parallel chunk in [`im2col_into`], rounded to whole
/// images (at least one) — a constant of the kernel, never derived from
/// the thread count.
const ROW_CHUNK: usize = 32;

/// Copies `h × w` planes into the interior of zero-bordered ones, `b`
/// cells of border on every side. Only the interior is written, so a
/// `bordered` that starts as zeros keeps its border zero however many
/// images pass through it.
fn embed_in_border(planes: &[f32], (h, w): (usize, usize), b: usize, bordered: &mut [f32]) {
    let pw = w + 2 * b;
    let plane = (h + 2 * b) * pw;
    for (c, src) in planes.chunks(h * w).enumerate() {
        let interior = &mut bordered[c * plane + b * pw + b..];
        for (y, srow) in src.chunks(w).enumerate() {
            // Rows are a few floats: a loop, not a `memcpy` call.
            for (d, &v) in interior[y * pw..y * pw + w].iter_mut().zip(srow) {
                *d = v;
            }
        }
    }
}

/// Fills one patch row from a zero-bordered image (`plane` floats per
/// channel, rows `pw` apart): kernel row `ky` of channel `c` is the `k`
/// floats at `base + c·plane + ky·pw`, never clipped, and lands at
/// column `(c·k + ky)·k`.
///
/// For `k == 3` the runs are written as overlapping 4-float moves in
/// ascending column order: the fourth float of each lands where the
/// next run starts and is overwritten by it, and the row's last run is
/// an exact 3. A fixed-size move is one load and one store; a
/// variable-length one is a `memcpy` call.
#[inline(always)]
fn fill_patch_row(
    drow: &mut [f32],
    bordered: &[f32],
    base: usize,
    plane: usize,
    pw: usize,
    k: usize,
) {
    if k == 3 {
        let channel = |d: &mut [f32], s: &[f32], tail: usize| {
            d[0..4].copy_from_slice(&s[..4]);
            d[3..7].copy_from_slice(&s[pw..pw + 4]);
            d[6..6 + tail].copy_from_slice(&s[2 * pw..2 * pw + tail]);
        };
        let last = drow.len() / 9 - 1;
        for c in 0..last {
            let s = &bordered[c * plane + base..][..2 * pw + 4];
            channel(&mut drow[c * 9..c * 9 + 10], s, 4);
        }
        let s = &bordered[last * plane + base..][..2 * pw + 3];
        channel(&mut drow[last * 9..last * 9 + 9], s, 3);
    } else {
        for (c, dplane) in drow.chunks_exact_mut(k * k).enumerate() {
            for (ky, d) in dplane.chunks_exact_mut(k).enumerate() {
                let off = base + c * plane + ky * pw;
                d.copy_from_slice(&bordered[off..off + k]);
            }
        }
    }
}

/// Calls `run(col, offset, len)` for every kernel row of the patch at
/// `(oy, ox)` that overlaps the image: `len` consecutive patch columns
/// starting at `col` correspond to `len` consecutive pixels starting at
/// `offset` within one image. Within a patch row, `x` advances by
/// exactly 1 per `kx` (the stride applies to `ox`, not `kx`), so the
/// part of a kernel row that is not clipped by padding is always one
/// contiguous run; runs come in ascending `col` order.
///
/// `k` is `geom.kernel`, passed separately so a caller can hand in a
/// literal: an unclipped run then has a compile-time length.
#[inline(always)]
fn for_each_patch_run(
    geom: &Conv2dGeometry,
    k: usize,
    oy: usize,
    ox: usize,
    mut run: impl FnMut(usize, usize, usize),
) {
    let (ih, iw, s, p) = (geom.in_h, geom.in_w, geom.stride, geom.padding);
    let (y0, x0) = (oy * s, ox * s);
    // Pixel (y0 + ky - p, x0 + kx - p) is inside the image for
    // ky_lo <= ky < ky_hi and kx_lo <= kx < kx_hi.
    let (ky_lo, ky_hi) = (p.saturating_sub(y0), k.min((ih + p).saturating_sub(y0)));
    let (kx_lo, kx_hi) = (p.saturating_sub(x0), k.min((iw + p).saturating_sub(x0)));
    if kx_lo >= kx_hi {
        return;
    }
    // The first run of channel 0; every later one is a fixed step away.
    let (len, col0) = (kx_hi - kx_lo, ky_lo * k + kx_lo);
    let off0 = (y0 + ky_lo - p) * iw + x0 + kx_lo - p;
    for c in 0..geom.in_channels {
        let (mut col, mut off) = (c * k * k + col0, c * ih * iw + off0);
        for _ in ky_lo..ky_hi {
            // Unclipped runs are `k` long; saying so lets a literal
            // `k` reach the callback.
            if len == k {
                run(col, off, k);
            } else {
                run(col, off, len);
            }
            col += k;
            off += iw;
        }
    }
}

/// Unrolls an NCHW batch into a patch matrix of shape
/// `(N·out_h·out_w) × (C·kh·kw)`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `input` is not
/// `(N, C, H, W)` matching `geom`.
pub fn im2col(input: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor, TensorError> {
    let mut cols = Tensor::default();
    im2col_into(input, geom, &mut cols)?;
    Ok(cols)
}

/// [`im2col`] into a buffer the caller keeps between calls.
///
/// Every cell of `cols` is written on every call, the zeros of the
/// padding included, so what the buffer held before does not matter: a
/// `cols` of the right shape is reused as it is, one of any other shape
/// (a new buffer, or a changed batch size) is replaced first.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `input` is not
/// `(N, C, H, W)` matching `geom`.
pub fn im2col_into(
    input: &Tensor,
    geom: &Conv2dGeometry,
    cols: &mut Tensor,
) -> Result<(), TensorError> {
    let dims = input.dims();
    if dims.len() != 4
        || dims[1] != geom.in_channels
        || dims[2] != geom.in_h
        || dims[3] != geom.in_w
    {
        return Err(TensorError::ShapeMismatch {
            op: "im2col",
            lhs: dims.to_vec(),
            rhs: vec![0, geom.in_channels, geom.in_h, geom.in_w],
        });
    }
    let ppi = geom.patches_per_image();
    let rows = dims[0] * ppi;
    let width = geom.patch_len();
    if cols.dims() != [rows, width] {
        *cols = Tensor::zeros(&[rows, width]);
    }
    let _prof = hadfl_prof::scope_bytes("im2col", 4 * (input.len() + rows * width) as u64);
    let src = input.as_slice();
    let (ih, iw, k, s, p) = (geom.in_h, geom.in_w, geom.kernel, geom.stride, geom.padding);
    let img_stride = geom.in_channels * ih * iw;
    // The image with its zero border: `C` planes of `ph × pw`.
    let (ph, pw) = (ih + 2 * p, iw + 2 * p);
    let plane = ph * pw;

    // Patch rows are disjoint output windows, so they split into fixed
    // chunks of whole images (boundaries independent of the thread
    // count) whose fills commute — bit-identical at any parallelism.
    let imgs = (ROW_CHUNK / ppi).max(1);
    let work = (rows as u64) * (width as u64);
    hadfl_par::plan(work).chunks_mut(cols.as_mut_slice(), imgs * ppi * width, |chunk, dchunk| {
        // The border is handled here, once per image: only the interior
        // is ever written, so the border stays zero for the chunk's
        // life and no patch below needs clipping.
        let mut bordered = vec![0.0f32; geom.in_channels * plane];
        for (i, dimg) in dchunk.chunks_mut(ppi * width).enumerate() {
            let simg = &src[(chunk * imgs + i) * img_stride..][..img_stride];
            embed_in_border(simg, (ih, iw), p, &mut bordered);
            let mut drows = dimg.chunks_mut(width);
            for oy in 0..geom.out_h {
                for (ox, drow) in (0..geom.out_w).zip(&mut drows) {
                    fill_patch_row(drow, &bordered, (oy * pw + ox) * s, plane, pw, k);
                }
            }
        }
    });
    Ok(())
}

/// Checks an NCHW activation gradient against `geom`'s output extents
/// and returns `(batch, out_channels)`.
fn check_grad_out(
    grad_out: &Tensor,
    geom: &Conv2dGeometry,
    op: &'static str,
) -> Result<(usize, usize), TensorError> {
    let dims = grad_out.dims();
    if dims.len() != 4 || dims[2] != geom.out_h || dims[3] != geom.out_w {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: dims.to_vec(),
            rhs: vec![0, 0, geom.out_h, geom.out_w],
        });
    }
    Ok((dims[0], dims[1]))
}

fn check_dims(op: &'static str, t: &Tensor, want: &[usize]) -> Result<(), TensorError> {
    if t.dims() != want {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: t.dims().to_vec(),
            rhs: want.to_vec(),
        });
    }
    Ok(())
}

/// The forward product `cols · weightᵀ + bias`, written straight into
/// NCHW: `out[img, c, p] = dot8(cols[img·ppi + p, ·], weight[c, ·]) +
/// bias[c]`.
///
/// `cols` is the `(N·ppi) × patch_len` patch matrix, `weight` the
/// `oc × patch_len` filter bank, `bias` has `oc` entries.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the operands disagree with
/// each other or with `geom`.
pub fn conv_forward(
    cols: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    geom: &Conv2dGeometry,
) -> Result<Tensor, TensorError> {
    let (ppi, width) = (geom.patches_per_image(), geom.patch_len());
    let rows = cols.dims().first().copied().unwrap_or(0);
    let batch = rows / ppi;
    check_dims("conv_forward", cols, &[batch * ppi, width])?;
    let oc = bias.len();
    check_dims("conv_forward", weight, &[oc, width])?;
    check_dims("conv_forward", bias, &[oc])?;
    let _prof = hadfl_prof::scope_bytes(
        "conv_forward",
        4 * (cols.len() + weight.len() + rows * oc) as u64,
    );
    let mut out = Tensor::zeros(&[batch, oc, geom.out_h, geom.out_w]);
    let (cv, bv) = (cols.as_slice(), bias.as_slice());
    // The filter bank re-laid once for the four-dot tile, shared by
    // every image (36 KiB at `resnet18_lite`'s widest layer).
    let wt = PackedRows::new(weight.as_slice(), width, oc);
    // Each image owns a disjoint `oc·ppi` window of the output and every
    // element is one fixed-association dot — bit-identical at any
    // thread count. Patch `p`, channel `c` lands at `c·ppi + p`.
    let (work, isa) = ((rows as u64) * (width as u64) * (oc as u64), Isa::best());
    hadfl_par::plan_for(OpClass::Matmul, work).chunks_mut(
        out.as_mut_slice(),
        (oc * ppi).max(1),
        |img, dimg| {
            let a = &cv[img * ppi * width..];
            rows_a_bt(isa, a, &wt, Some(bv), dimg, (1, ppi));
        },
    );
    Ok(out)
}

/// Accumulates the weight gradient `grad_weight += gpᵀ · cols`, where
/// `gp` is `grad_out` in patch-major `(N·ppi) × oc` layout — read in
/// place from NCHW, one image per `k` segment, never transposed.
///
/// Per element the product is summed from zero in ascending patch-row
/// order with the `gp == 0.0` skip and then added to `grad_weight` once:
/// the bits of [`crate::matmul_at_b`] followed by `add_assign_t`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the operands disagree with
/// each other or with `geom`.
pub fn conv_backward_weight(
    grad_out: &Tensor,
    cols: &Tensor,
    geom: &Conv2dGeometry,
    grad_weight: &mut Tensor,
) -> Result<(), TensorError> {
    let (batch, oc) = check_grad_out(grad_out, geom, "conv_backward_weight")?;
    let (ppi, width) = (geom.patches_per_image(), geom.patch_len());
    check_dims("conv_backward_weight", cols, &[batch * ppi, width])?;
    check_dims("conv_backward_weight", grad_weight, &[oc, width])?;
    let _prof = hadfl_prof::scope_bytes(
        "conv_backward_weight",
        4 * (grad_out.len() + cols.len() + oc * width) as u64,
    );
    let (gv, cv) = (grad_out.as_slice(), cols.as_slice());
    let work = (batch * ppi) as u64 * (width as u64) * (oc as u64);
    let isa = Isa::best();
    hadfl_par::plan_for(OpClass::Matmul, work).chunks_mut(
        grad_weight.as_mut_slice(),
        ROW_BAND * width,
        |band, gband| {
            let row0 = band * ROW_BAND;
            weight_band(isa, gv, (batch, oc, ppi), row0, cv, width, gband);
        },
    );
    Ok(())
}

dispatch! {
    /// One band of [`conv_backward_weight`]: `gband += gp · cols` for
    /// the band's filter rows, which start at row `row0` of `gp`, in
    /// blocks of [`row_block`] rows; `g` is the NCHW `grad_out` of
    /// `(batch, oc, ppi)` images, channels and patches per image, and
    /// `cols` has `width` columns.
    fn weight_band(
        g: &[f32],
        shape: (usize, usize, usize),
        row0: usize,
        cols: &[f32],
        width: usize,
        gband: &mut [f32],
    ) = weight_band_body::<{ row_block(ISA) }>;
}

#[inline(always)]
fn weight_band_body<const RB: usize>(
    g: &[f32],
    (batch, oc, ppi): (usize, usize, usize),
    row0: usize,
    cols: &[f32],
    width: usize,
    gband: &mut [f32],
) {
    // Filter rows of gpᵀ: the patch axis is contiguous within an image
    // and restarts `oc·ppi` further on. Built here rather than passed
    // in, so that the `k` loop sees the literal `k_stride` 1 and can
    // prove every index in range.
    let gp = Strided {
        a: g,
        row_stride: ppi,
        k_stride: 1,
        depth: ppi,
        seg_stride: oc * ppi,
        segments: batch,
    };
    for (blk, gblock) in gband.chunks_mut(RB * width).enumerate() {
        let lhs = gp.skip_rows(row0 + blk * RB);
        block_product::<RB>(lhs, cols, width, gblock.len() / width, |r, jt, vals| {
            for (g, &v) in gblock[r * width + jt..].iter_mut().zip(vals) {
                *g += v;
            }
        });
    }
}

/// What every tile of one image's gather reads: the zero-bordered
/// gradient planes `gb` (`plane` floats per output channel, rows `pw`
/// apart), and the `oc` output channels and `k` kernel extent the
/// weight's `[tap][oc][CH]` rows are laid out for.
struct GatherOperands<'a> {
    gb: &'a [f32],
    plane: usize,
    pw: usize,
    oc: usize,
    k: usize,
}

/// One tile of the gather: for `px ≤ PX` consecutive pixels of one row
/// of `dx`, whose tap `(dy, dx) = (0, 0)` is bordered cell `cell`, and
/// one group of `CH` input channels, whose weight `wg` is laid out as
/// `[tap][oc][CH]`: the sum over the taps `dys × dxs` of `T = Σ_oc g ·
/// w`. `T` is summed from `+0.0` in ascending `oc` skipping `g == 0.0`,
/// and the taps are added in the order given — ascending patch order,
/// see [`conv_backward_input`].
///
/// The tile lies in one row, so for each tap its gradients are `px`
/// consecutive cells of every plane: one slice per output channel, at
/// the same offset in each, whose range check the compiler makes once
/// per tap. `px` is a plain argument so the ragged last
/// tile of a row takes the same code; the caller passes `PX` for a full
/// one.
#[inline(always)]
fn gather_tile<const PX: usize, const CH: usize>(
    ops: &GatherOperands<'_>,
    wg: &[f32],
    (dys, dxs): (Range<usize>, Range<usize>),
    cell: usize,
    px: usize,
) -> [[f32; CH]; PX] {
    let (k, oc, plane) = (ops.k, ops.oc, ops.plane);
    let mut acc = [[0.0f32; CH]; PX];
    for dy in dys {
        for dx in dxs.clone() {
            // Walking the plane forwards walks the kernel backwards.
            let tap = (k - 1 - dy) * k + (k - 1 - dx);
            let wtap = &wg[tap * oc * CH..][..oc * CH];
            let at = cell + dy * ops.pw + dx;
            let mut t = [[0.0f32; CH]; PX];
            for (gplane, wrow) in ops.gb.chunks_exact(plane).zip(wtap.chunks_exact(CH)) {
                for (ti, &g) in t[..px].iter_mut().zip(&gplane[at..][..px]) {
                    // The skip of the product; on the border it is
                    // also the test for "no such patch".
                    if g == 0.0 {
                        continue;
                    }
                    for (x, &w) in ti.iter_mut().zip(wrow) {
                        *x += g * w;
                    }
                }
            }
            for (ai, ti) in acc[..px].iter_mut().zip(&t) {
                for (x, &v) in ai.iter_mut().zip(ti) {
                    *x += v;
                }
            }
        }
    }
    acc
}

dispatch! {
    /// [`gather_image_body`] on `isa` at 32 channels per tile.
    fn gather32(
        g: &[f32],
        wt: &[f32],
        geom: &Conv2dGeometry,
        dimg: &mut [f32],
    ) = gather_image_body::<{ gather_px(ISA, 32) }, 32>;
}

dispatch! {
    /// [`gather_image_body`] on `isa` at 16 channels per tile.
    fn gather16(
        g: &[f32],
        wt: &[f32],
        geom: &Conv2dGeometry,
        dimg: &mut [f32],
    ) = gather_image_body::<{ gather_px(ISA, 16) }, 16>;
}

dispatch! {
    /// [`gather_image_body`] on `isa` at 8 channels per tile.
    fn gather8(
        g: &[f32],
        wt: &[f32],
        geom: &Conv2dGeometry,
        dimg: &mut [f32],
    ) = gather_image_body::<{ gather_px(ISA, 8) }, 8>;
}

/// The stride-1 input gradient of one image, as a gather: every pixel
/// of `dimg` (`C × H × W`) owns its accumulator from first tap to last
/// and is stored once. `g` is the image's `oc × out_h × out_w` output
/// gradient, `wt` the weight re-laid by [`gather_weight`] for `CH`.
///
/// Tiles run along a row and never across two: each row is `PX`-pixel
/// tiles and a ragged last one.
#[inline(always)]
fn gather_image_body<const PX: usize, const CH: usize>(
    g: &[f32],
    wt: &[f32],
    geom: &Conv2dGeometry,
    dimg: &mut [f32],
) {
    let (k, p) = (geom.kernel, geom.padding);
    let (iw, hw) = (geom.in_w, geom.in_h * geom.in_w);
    let (oh, ow) = (geom.out_h, geom.out_w);
    let oc = g.len() / (oh * ow);
    // Pixel (y, x) takes tap (ky, kx) from patch (y + p − ky, x + p − kx).
    // With a border of `b = k − 1 − p` zeros around each gradient plane
    // that is bordered cell (y + dy, x + dx) for dy = k − 1 − ky: the
    // kernel walked backwards over a plane walked forwards. (`p > k − 1`
    // needs no border; the walk then starts `shift` cells in.)
    let (b, shift) = ((k - 1).saturating_sub(p), p.saturating_sub(k - 1));
    let (ph, pw) = (oh + 2 * b, ow + 2 * b);
    let plane = ph * pw;
    let mut gb = vec![0.0f32; oc * plane];
    embed_in_border(g, (oh, ow), b, &mut gb);
    let ops = GatherOperands {
        gb: &gb,
        plane,
        pw,
        oc,
        k,
    };
    // One channel group's weight: `[tap][oc][CH]`.
    let group = k * k * oc * CH;
    for y in 0..geom.in_h {
        for x0 in (0..iw).step_by(PX) {
            let px = (iw - x0).min(PX);
            let (yb, xb) = (y + shift, x0 + shift);
            // The taps some pixel of the tile has a patch for: bordered
            // row `y + dy` is a real one iff `b ≤ y + dy < b + oh`,
            // columns alike. A tile of one pixel multiplies nothing it
            // need not; a wider one leaves the rest to the border's
            // zeros.
            let dys = b.saturating_sub(yb)..k.min(b + oh - yb);
            let dxs = b.saturating_sub(xb + px - 1)..k.min(b + ow - xb);
            let (q0, cell) = (y * iw + x0, yb * pw + xb);
            for (cg, dgroup) in dimg.chunks_mut(CH * hw).enumerate() {
                let wg = &wt[cg * group..][..group];
                let taps = (dys.clone(), dxs.clone());
                // A full tile gets the literal: its pixel loops unroll
                // and the accumulators stay in registers. With `px`
                // passed straight through the 8→8 layer at 8×8 read 114
                // µs per call against 78, the 16→16 layer at 4×4 81
                // against 55.
                let acc = if px == PX {
                    gather_tile::<PX, CH>(&ops, wg, taps, cell, PX)
                } else {
                    gather_tile::<PX, CH>(&ops, wg, taps, cell, px)
                };
                for (dplane, j) in dgroup.chunks_mut(hw).zip(0..CH) {
                    for (d, ai) in dplane[q0..q0 + px].iter_mut().zip(&acc) {
                        *d = ai[j];
                    }
                }
            }
        }
    }
}

/// A gather dispatcher, as [`gather_input`] calls it.
type Gather = fn(Isa, &[f32], &[f32], &Conv2dGeometry, &mut [f32]);

/// The pixels of a gather tile at `ch` channels on `isa` — a function
/// of the problem shape and the instruction set, like [`row_block`].
/// `PX × CH` is 32 accumulators (eight 128-bit registers) except for 8
/// channels under AVX2, where 8 × 8 fills eight 256-bit ones; 64 at
/// `CH` 32 read slower on the 32-channel layers.
const fn gather_px(isa: Isa, ch: usize) -> usize {
    match (isa, ch) {
        (_, 32) => 1,
        (_, 16) => 2,
        (Isa::Baseline, _) => 4,
        (Isa::Avx2, _) => 8,
    }
}

/// The gather for `c_in` input channels: `CH`, as wide as the channel
/// count divides, and the dispatcher whose tiles hold that many
/// channels.
fn gather_kernel(c_in: usize) -> (usize, Gather) {
    match c_in {
        c if c % 32 == 0 => (32, gather32),
        c if c % 16 == 0 => (16, gather16),
        _ => (8, gather8),
    }
}

/// The stride-1 input gradient as a gather, one image per chunk of
/// `plan`; see [`conv_backward_input`] for the order it keeps. The
/// weight is re-laid once per call by [`gather_weight`] for the tile
/// [`gather_kernel`] picks.
fn gather_input(
    plan: hadfl_par::Plan,
    (gv, wv): (&[f32], &[f32]),
    geom: &Conv2dGeometry,
    dx: &mut [f32],
) {
    let (c_in, taps) = (geom.in_channels, geom.kernel * geom.kernel);
    let isa = Isa::best();
    let (ch, gather) = gather_kernel(c_in);
    let wt = gather_weight(wv, geom, ch);
    let g_stride = wv.len() / (c_in * taps) * geom.patches_per_image();
    let dx_stride = c_in * geom.in_h * geom.in_w;
    plan.chunks_mut(dx, dx_stride, |img, dimg| {
        gather(
            isa,
            &gv[img * g_stride..(img + 1) * g_stride],
            &wt,
            geom,
            dimg,
        );
    });
}

/// The `oc × C·k·k` weight `wv` re-laid as `[channel group][tap][oc][ch]`
/// so that the vector axis is the input channel and one tap's rows for
/// one group are consecutive; a ragged last group is zero-filled.
fn gather_weight(wv: &[f32], geom: &Conv2dGeometry, ch: usize) -> Vec<f32> {
    let (c_in, taps) = (geom.in_channels, geom.kernel * geom.kernel);
    let oc = wv.len() / (c_in * taps);
    let mut wt = vec![0.0f32; c_in.div_ceil(ch) * taps * oc * ch];
    for (o, wrow) in wv.chunks(c_in * taps).enumerate() {
        for (c, wtaps) in wrow.chunks(taps).enumerate() {
            for (tap, &w) in wtaps.iter().enumerate() {
                wt[((c / ch * taps + tap) * oc + o) * ch + c % ch] = w;
            }
        }
    }
    wt
}

/// The input gradient at any stride as product-then-scatter, one image
/// per chunk of `plan`: a register block of patch rows of `gp · weight`
/// at a time into a small tile (ascending `oc`, `g == 0.0` skipped),
/// scatter-added immediately, patch by patch in ascending order.
fn scatter_input(
    plan: hadfl_par::Plan,
    (gv, wv): (&[f32], &[f32]),
    geom: &Conv2dGeometry,
    dx: &mut [f32],
) {
    let (ppi, width) = (geom.patches_per_image(), geom.patch_len());
    let oc = wv.len() / width;
    let (dx_stride, isa) = (geom.in_channels * geom.in_h * geom.in_w, Isa::best());
    plan.chunks_mut(dx, dx_stride, |img, dimg| {
        let g = &gv[img * oc * ppi..][..oc * ppi];
        scatter_image(isa, g, wv, geom, dimg);
    });
}

dispatch! {
    /// [`scatter_image_body`] on `isa`, in blocks of [`row_block`]
    /// patch rows.
    fn scatter_image(
        g: &[f32],
        wv: &[f32],
        geom: &Conv2dGeometry,
        dimg: &mut [f32],
    ) = scatter_image_body::<{ row_block(ISA) }>;
}

/// The input gradient of one image at any stride: `g` is the image's
/// `oc × ppi` output gradient, `wv` the `oc × patch_len` weight, `dimg`
/// the image's `C × H × W` gradient, scatter-added into.
#[inline(always)]
fn scatter_image_body<const RB: usize>(
    g: &[f32],
    wv: &[f32],
    geom: &Conv2dGeometry,
    dimg: &mut [f32],
) {
    let (ppi, width, ow) = (geom.patches_per_image(), geom.patch_len(), geom.out_w);
    let oc = wv.len() / width;
    let mut tile = vec![0.0f32; RB * width];
    for p0 in (0..ppi).step_by(RB) {
        let rows = (ppi - p0).min(RB);
        let lhs = Strided::new(g, 1, ppi, oc).skip_rows(p0);
        block_product::<RB>(lhs, wv, width, rows, |r, jt, vals| {
            tile[r * width + jt..r * width + jt + vals.len()].copy_from_slice(vals);
        });
        for (r, trow) in tile.chunks(width).take(rows).enumerate() {
            let patch = p0 + r;
            let add = |col: usize, off: usize, len: usize| {
                for (d, &v) in dimg[off..off + len].iter_mut().zip(&trow[col..col + len]) {
                    *d += v;
                }
            };
            if geom.kernel == 3 {
                for_each_patch_run(geom, 3, patch / ow, patch % ow, add);
            } else {
                for_each_patch_run(geom, geom.kernel, patch / ow, patch % ow, add);
            }
        }
    }
}

/// The input gradient `dx = im2col*(gp · weight)` — the adjoint of
/// [`im2col`] applied to a product that is never stored.
///
/// The bits are those of the full product (`T[p, j] = Σ_oc g[oc, p] ·
/// w[oc, j]` from `+0.0` in ascending `oc`, `g == 0.0` skipped)
/// followed by a patch-major scatter: an input pixel receives at most
/// one column of any patch, so `dx[c, y, x] = (+0.0) + T[p₁, j₁] +
/// T[p₂, j₂] + …` over its patches in ascending order.
///
/// At stride 1 that sum is computed as a gather, pixel by pixel: patch
/// `(y + pad − ky, x + pad − kx)` ascends as `(ky, kx)` descends, so
/// walking the kernel backwards is ascending patch order, and the
/// accumulator stays in registers from the first tap to the last —
/// nothing is scattered and nothing is read back. A tap without a patch
/// contributes nothing; where the tile is wider than one pixel it may
/// instead contribute `+0.0`, which is the same: the accumulator starts
/// at `+0.0` and a sum that cancels to zero rounds to `+0.0`, so it is
/// never `−0.0`, and `x + (+0.0)` has the bits of every other `x`.
/// At any other stride the product is computed a few patch rows at a
/// time and scatter-added in that order.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the operands disagree with
/// each other or with `geom`.
pub fn conv_backward_input(
    grad_out: &Tensor,
    weight: &Tensor,
    geom: &Conv2dGeometry,
) -> Result<Tensor, TensorError> {
    let (batch, oc) = check_grad_out(grad_out, geom, "conv_backward_input")?;
    let (ppi, width) = (geom.patches_per_image(), geom.patch_len());
    check_dims("conv_backward_input", weight, &[oc, width])?;
    let _prof = hadfl_prof::scope_bytes(
        "conv_backward_input",
        4 * (grad_out.len() + weight.len()) as u64,
    );
    let mut out = Tensor::zeros(&[batch, geom.in_channels, geom.in_h, geom.in_w]);
    // Overlapping patches accumulate *within* an image but never
    // across images, so the image is the natural disjoint chunk; the
    // per-image accumulation order (patch-major, ascending) is the
    // scalar reference order regardless of thread count.
    let work = (batch * ppi) as u64 * (width as u64) * (oc as u64);
    let plan = hadfl_par::plan_for(OpClass::Matmul, work);
    let operands = (grad_out.as_slice(), weight.as_slice());
    if geom.stride == 1 {
        gather_input(plan, operands, geom, out.as_mut_slice());
    } else {
        scatter_input(plan, operands, geom, out.as_mut_slice());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::on_every_isa;

    #[test]
    fn geometry_same_padding() {
        let g = Conv2dGeometry::new(3, 8, 8, 3, 1, 1).unwrap();
        assert_eq!((g.out_h, g.out_w), (8, 8));
        assert_eq!(g.patch_len(), 27);
        assert_eq!(g.patches_per_image(), 64);
    }

    #[test]
    fn geometry_stride_two_halves_output() {
        let g = Conv2dGeometry::new(1, 8, 8, 2, 2, 0).unwrap();
        assert_eq!((g.out_h, g.out_w), (4, 4));
    }

    #[test]
    fn geometry_rejects_bad_inputs() {
        assert!(Conv2dGeometry::new(0, 8, 8, 3, 1, 1).is_err());
        assert!(Conv2dGeometry::new(1, 8, 8, 3, 0, 1).is_err());
        assert!(Conv2dGeometry::new(1, 2, 2, 5, 1, 0).is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no padding: patch matrix is the image itself
        // with channels spread across columns.
        let g = Conv2dGeometry::new(2, 2, 2, 1, 1, 0).unwrap();
        let input = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[1, 2, 2, 2]).unwrap();
        let cols = im2col(&input, &g).unwrap();
        assert_eq!(cols.dims(), &[4, 2]);
        // row = pixel position, col = channel
        assert_eq!(cols.as_slice(), &[0.0, 4.0, 1.0, 5.0, 2.0, 6.0, 3.0, 7.0]);
    }

    #[test]
    fn im2col_padding_zero_fills() {
        let g = Conv2dGeometry::new(1, 1, 1, 3, 1, 1).unwrap();
        let input = Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]).unwrap();
        let cols = im2col(&input, &g).unwrap();
        assert_eq!(cols.dims(), &[1, 9]);
        // center of 3x3 patch holds the pixel, rest is padding
        let mut want = [0.0f32; 9];
        want[4] = 5.0;
        assert_eq!(cols.as_slice(), &want[..]);
    }

    #[test]
    fn im2col_rejects_wrong_shape() {
        let g = Conv2dGeometry::new(3, 4, 4, 3, 1, 1).unwrap();
        assert!(im2col(&Tensor::zeros(&[1, 2, 4, 4]), &g).is_err());
        assert!(im2col(&Tensor::zeros(&[3, 4, 4]), &g).is_err());
    }

    fn random(dims: &[usize], rng: &mut crate::init::SeedStream) -> Tensor {
        let mut t = Tensor::zeros(dims);
        for v in t.as_mut_slice() {
            *v = rng.normal();
        }
        t
    }

    #[test]
    fn im2col_into_reuses_a_buffer_and_replaces_it_on_batch_change() {
        let g = Conv2dGeometry::new(2, 5, 4, 3, 2, 1).unwrap();
        let mut rng = crate::init::SeedStream::new(9);
        let mut cols = Tensor::default();
        for batch in [2, 2, 3, 1] {
            let x = random(&[batch, 2, 5, 4], &mut rng);
            im2col_into(&x, &g, &mut cols).unwrap();
            assert_eq!(cols, im2col(&x, &g).unwrap(), "batch {batch}");
        }
    }

    #[test]
    fn im2col_into_one_buffer_across_geometries_of_equal_shape() {
        // Both geometries give a 16 × 9 patch matrix; in `same` 31 % of
        // the cells are padding, in `valid` every cell is a pixel. None
        // of `valid`'s pixels may survive in `same`'s padding cells.
        let same = Conv2dGeometry::new(1, 4, 4, 3, 1, 1).unwrap();
        let valid = Conv2dGeometry::new(1, 6, 6, 3, 1, 0).unwrap();
        let mut rng = crate::init::SeedStream::new(23);
        let mut cols = Tensor::default();
        im2col_into(&random(&[1, 1, 6, 6], &mut rng), &valid, &mut cols).unwrap();
        assert_eq!(cols.dims(), &[16, 9]);
        let x = random(&[1, 1, 4, 4], &mut rng);
        im2col_into(&x, &same, &mut cols).unwrap();
        let fresh = im2col(&x, &same).unwrap();
        assert_eq!(fresh.as_slice().iter().filter(|&&v| v == 0.0).count(), 44);
        assert_eq!(cols, fresh);
    }

    #[test]
    fn backward_input_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, im2col*(y)> for random x, y — the defining
        // property of the adjoint, which is exactly what backprop needs.
        // With an identity filter bank, gp · W is gp itself.
        let g = Conv2dGeometry::new(2, 5, 4, 3, 2, 1).unwrap();
        let (ppi, width) = (g.patches_per_image(), g.patch_len());
        let mut rng = crate::init::SeedStream::new(1234);
        let x = random(&[2, 2, 5, 4], &mut rng);
        let gy = random(&[2, width, g.out_h, g.out_w], &mut rng);
        let mut y = Tensor::zeros(&[2 * ppi, width]);
        for img in 0..2 {
            for c in 0..width {
                for p in 0..ppi {
                    y.as_mut_slice()[(img * ppi + p) * width + c] =
                        gy.as_slice()[(img * width + c) * ppi + p];
                }
            }
        }
        let ax = im2col(&x, &g).unwrap();
        let aty = conv_backward_input(&gy, &Tensor::eye(width), &g).unwrap();
        let lhs = ax.dot(&y).unwrap();
        let rhs = x.dot(&aty).unwrap();
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    /// One conv layer's operands for the A/B tests: a batch of two
    /// `h × w` images (5×7 for ragged pixel tiles) and `OC` output
    /// channels (a ragged band of filter rows), with signed zeros in the
    /// gradient. Two rows are non-finite under a zero: output channel
    /// 0's weight, whose gradient is all zero, and the first patch row
    /// of `cols`, whose gradient is zero in every even output channel.
    struct Layer {
        geom: Conv2dGeometry,
        gy: Tensor,
        w: Tensor,
        cols: Tensor,
    }

    const OC: usize = 11;
    const CHANNELS: [usize; 5] = [3, 5, 8, 16, 32];

    fn layer(c: usize, stride: usize, seed: u64) -> Layer {
        layer_of(c, (5, 7), stride, seed)
    }

    fn layer_of(c: usize, (h, w): (usize, usize), stride: usize, seed: u64) -> Layer {
        let geom = Conv2dGeometry::new(c, h, w, 3, stride, 1).unwrap();
        let (ppi, width) = (geom.patches_per_image(), geom.patch_len());
        let mut rng = crate::init::SeedStream::new(seed);
        let mut gy = random(&[2, OC, geom.out_h, geom.out_w], &mut rng);
        for (i, v) in gy.as_mut_slice().iter_mut().enumerate() {
            let (o, p) = (i / ppi % OC, i % ppi);
            if o == 0 || i % 7 == 0 || (o % 2 == 0 && p == 0) {
                *v = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        let mut wt = random(&[OC, width], &mut rng);
        wt.as_mut_slice()[..width].fill([f32::INFINITY, f32::NAN][c % 2]);
        let x = random(&[2, c, h, w], &mut rng);
        let mut cols = im2col(&x, &geom).unwrap();
        cols.as_mut_slice()[..width].fill([f32::NEG_INFINITY, f32::NAN][c % 2]);
        Layer {
            geom,
            gy,
            w: wt,
            cols,
        }
    }

    /// Both compilations of `weight_band`, band by band as
    /// [`conv_backward_weight`] runs them, against each other and
    /// against it.
    #[test]
    fn weight_band_agrees_on_every_isa() {
        for c in CHANNELS {
            for stride in [1, 2] {
                let Layer { geom, gy, cols, .. } = layer(c, stride, 41);
                let (ppi, width) = (geom.patches_per_image(), geom.patch_len());
                let mut want = Tensor::zeros(&[OC, width]);
                conv_backward_weight(&gy, &cols, &geom, &mut want).unwrap();
                let got = on_every_isa(&format!("c={c} stride={stride}"), |isa| {
                    let mut gw = vec![0.0f32; OC * width];
                    for (band, gband) in gw.chunks_mut(ROW_BAND * width).enumerate() {
                        let (g, cv, row0) = (gy.as_slice(), cols.as_slice(), band * ROW_BAND);
                        weight_band(isa, g, (2, OC, ppi), row0, cv, width, gband);
                    }
                    gw
                });
                assert_eq!(bits(&got), bits(want.as_slice()), "c={c} stride={stride}");
                assert!(got[..width].iter().all(|v| v.is_finite()), "c={c}");
            }
        }
    }

    /// Every gather dispatcher [`gather_kernel`] can pick, each on both
    /// compilations at their own tile shapes, against each other and against
    /// [`conv_backward_input`] (stride 1, where it gathers): on 5×7
    /// planes, whose rows end in ragged tiles, and on the 8×8, 4×4 and
    /// 2×2 planes of `resnet18_lite`, where every tile fills its row or
    /// divides it.
    #[test]
    fn gather_image_agrees_on_every_isa_and_tile() {
        let tiles: [(usize, Gather); 3] = [(8, gather8), (16, gather16), (32, gather32)];
        for c in [3, 8, 16, 32] {
            let (ch, _) = gather_kernel(c);
            let listed = tiles.iter().any(|&(t, _)| t == ch);
            assert!(listed, "c={c}: a tile the test does not run");
        }
        for plane in [(5, 7), (8, 8), (4, 4), (2, 2)] {
            for c in CHANNELS {
                let Layer { geom, gy, w, .. } = layer_of(c, plane, 1, 43);
                let want = conv_backward_input(&gy, &w, &geom).unwrap();
                let img = OC * geom.patches_per_image();
                for (ch, gather) in tiles {
                    let what = format!("{plane:?} c={c} ch={ch}");
                    let wt = gather_weight(w.as_slice(), &geom, ch);
                    let got = on_every_isa(&what, |isa| {
                        let mut dx = vec![f32::NAN; want.len()];
                        let dimgs = dx.chunks_mut(want.len() / 2);
                        for (g, dimg) in gy.as_slice().chunks(img).zip(dimgs) {
                            gather(isa, g, &wt, &geom, dimg);
                        }
                        dx
                    });
                    assert_eq!(bits(&got), bits(want.as_slice()), "{what}");
                    assert!(got.iter().all(|v| v.is_finite()), "{what}");
                }
            }
        }
    }

    /// Both compilations of `scatter_image`, image by image, against
    /// each other and against [`conv_backward_input`] at stride 2; at
    /// stride 1, where that gathers instead, against the gather's bits.
    #[test]
    fn scatter_image_agrees_on_every_isa() {
        for c in CHANNELS {
            for stride in [1, 2] {
                let Layer { geom, gy, w, .. } = layer(c, stride, 47);
                let want = conv_backward_input(&gy, &w, &geom).unwrap();
                let img = OC * geom.patches_per_image();
                let got = on_every_isa(&format!("c={c} stride={stride}"), |isa| {
                    let mut dx = vec![0.0f32; want.len()];
                    for (g, dimg) in gy.as_slice().chunks(img).zip(dx.chunks_mut(want.len() / 2)) {
                        scatter_image(isa, g, w.as_slice(), &geom, dimg);
                    }
                    dx
                });
                assert_eq!(bits(&got), bits(want.as_slice()), "c={c} stride={stride}");
                assert!(got.iter().all(|v| v.is_finite()), "c={c} stride={stride}");
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn conv_products_reject_wrong_shapes() {
        let g = Conv2dGeometry::new(1, 4, 4, 3, 1, 1).unwrap();
        let (w, b) = (Tensor::zeros(&[2, 9]), Tensor::zeros(&[2]));
        let cols = Tensor::zeros(&[16, 9]);
        let gy = Tensor::zeros(&[1, 2, 4, 4]);
        assert!(conv_forward(&cols, &w, &b, &g).is_ok());
        assert!(conv_forward(&Tensor::zeros(&[15, 9]), &w, &b, &g).is_err());
        assert!(conv_forward(&cols, &Tensor::zeros(&[2, 8]), &b, &g).is_err());
        assert!(conv_backward_input(&gy, &w, &g).is_ok());
        assert!(conv_backward_input(&Tensor::zeros(&[1, 2, 3, 4]), &w, &g).is_err());
        assert!(conv_backward_input(&gy, &Tensor::zeros(&[3, 9]), &g).is_err());
        // No output channels: a zero gradient, at either stride.
        let none = Tensor::zeros(&[0, 9]);
        for stride in [1, 2] {
            let g = Conv2dGeometry::new(1, 4, 4, 3, stride, 1).unwrap();
            let gy = Tensor::zeros(&[1, 0, g.out_h, g.out_w]);
            let dx = conv_backward_input(&gy, &none, &g).unwrap();
            assert_eq!(dx, Tensor::zeros(&[1, 1, 4, 4]), "stride {stride}");
        }
        let mut gw = Tensor::zeros(&[2, 9]);
        assert!(conv_backward_weight(&gy, &cols, &g, &mut gw).is_ok());
        assert!(conv_backward_weight(&gy, &Tensor::zeros(&[8, 9]), &g, &mut gw).is_err());
        assert!(conv_backward_weight(&gy, &cols, &g, &mut Tensor::zeros(&[9, 2])).is_err());
    }
}
