//! Dense matrix kernels: plain, transposed-operand, and outer products.
//!
//! The kernels are register-blocked and row-parallel: output rows are
//! split into fixed [`ROW_BAND`]-row bands dispatched through
//! `hadfl-par` (sized with the measured [`OpClass::Matmul`] cutoff).
//! Within a band, [`matmul`] and [`matmul_at_b`] share one micro-kernel
//! ([`block_product`]) that holds a [`ROW_BLOCK`]×[`COL_TILE`]
//! accumulator block in registers across all of `k`, so each loaded
//! `b` tile feeds every row of the block and no output element touches
//! memory before it is final. Per output element the additions still
//! occur in strictly increasing `k` order with the `a == 0.0` skip —
//! the same association as the naive ikj scalar loop — while
//! [`matmul_a_bt`]'s row-dot ([`rows_a_bt`]) computes [`DOT_TILE`] dots
//! per loaded chunk of a row, each with the fixed eight-lane association
//! of [`crate::simd::dot8`]. Both associations are pure functions of the
//! problem shape, so results are bit-identical to the scalar reference
//! at any thread count and any blocking (the determinism contract of
//! DESIGN.md §10).

use hadfl_par::OpClass;

use crate::error::TensorError;
use crate::simd::{combine, dispatch, Isa, LANES};
use crate::tensor::Tensor;

/// Fixed number of output rows per parallel band. A function of the
/// problem shape only — never of the thread count — so the work
/// decomposition (and thus the result) is independent of parallelism.
pub(crate) const ROW_BAND: usize = 8;

/// Register-tile width: output columns accumulated in registers at a
/// time.
pub(crate) const COL_TILE: usize = 16;

/// Register-tile height: output rows that share each loaded `b` tile.
pub(crate) const ROW_BLOCK: usize = 2;

/// A strided view of a left operand's rows: element `(r, k)` of the
/// block is `a[r * row_stride + k * k_stride]`, for `k < depth`.
/// Row-major `a` has `k_stride == 1`; a transposed or channel-major
/// operand has `row_stride == 1` instead, which is how [`matmul_at_b`]
/// and the convolution gradients read their operand in place.
///
/// An operand that is only piecewise strided — an NCHW gradient, whose
/// patch axis restarts with every image — is `segments` such pieces
/// `seg_stride` apart; `k` then runs over `segments * depth` values in
/// order.
#[derive(Clone, Copy)]
pub(crate) struct Strided<'a> {
    pub a: &'a [f32],
    pub row_stride: usize,
    pub k_stride: usize,
    pub depth: usize,
    pub seg_stride: usize,
    pub segments: usize,
}

impl<'a> Strided<'a> {
    /// A single-segment view.
    pub fn new(a: &'a [f32], row_stride: usize, k_stride: usize, depth: usize) -> Self {
        Strided {
            a,
            row_stride,
            k_stride,
            depth,
            seg_stride: 0,
            segments: 1,
        }
    }

    /// The same view starting `rows` rows further down. An operand with
    /// no `k` extent is empty however many rows it has, hence the
    /// saturating slice.
    pub fn skip_rows(self, rows: usize) -> Self {
        Strided {
            a: self.a.get(rows * self.row_stride..).unwrap_or(&[]),
            ..self
        }
    }
}

/// One register block of accumulators.
type Block = [[f32; COL_TILE]; ROW_BLOCK];

/// `acc[r][j] = Σ_k a(r,k)·b[k, jt + j]` over the leading `rows × tile`
/// corner of a block. For every element the additions run in ascending
/// `k`, and a row whose `a(r,k)` is exactly zero skips that `k` — so a
/// non-finite `b[k, ·]` under a zero stays masked, row by row.
///
/// `rows` and `tile` are plain arguments so that ragged edges take the
/// same code; the caller passes the constants for a full block, which
/// the forced inlining propagates into fixed trip counts. The block is
/// a local returned by value: behind a `&mut` parameter it is not
/// promoted to registers (measured 3× slower).
#[inline(always)]
fn tile_product(
    lhs: Strided<'_>,
    b: &[f32],
    n: usize,
    jt: usize,
    rows: usize,
    tile: usize,
) -> Block {
    let mut acc = [[0.0f32; COL_TILE]; ROW_BLOCK];
    for s in 0..lhs.segments {
        let a = &lhs.a[s * lhs.seg_stride..];
        for k in 0..lhs.depth {
            let at = (s * lhs.depth + k) * n + jt;
            let brow = &b[at..at + tile];
            for (r, arow) in acc[..rows].iter_mut().enumerate() {
                let v = a[r * lhs.row_stride + k * lhs.k_stride];
                if v == 0.0 {
                    continue;
                }
                for (x, &bkj) in arow[..tile].iter_mut().zip(brow) {
                    *x += v * bkj;
                }
            }
        }
    }
    acc
}

/// The shared micro-kernel driver: computes the `rows × n` block
/// `A · B` (`rows ≤ ROW_BLOCK`) one column tile at a time and hands each
/// finished tile row to `emit(r, jt, values)`, columns `jt..` in
/// ascending order, each exactly once. `b` is row-major with `n` columns
/// and one row per `k` of `lhs`.
///
/// A full row block only runs tiles of a fixed width — 16, 8 or 4
/// columns — so its accumulators stay in registers at every `n`. A
/// ragged remainder takes the narrowest of those widths that covers it
/// and still fits in `n`, shifted left to end at column `n`: the columns
/// it shares with the previous tile are computed again, with the same
/// bits, and not emitted. Only `n < 4` and a ragged row block run the
/// runtime-width tile.
///
/// Forced inline, like [`tile_product`]: it is part of the body of
/// every kernel that calls it, and so compiled for each [`Isa`] the
/// kernel is.
#[inline(always)]
pub(crate) fn block_product(
    lhs: Strided<'_>,
    b: &[f32],
    n: usize,
    rows: usize,
    mut emit: impl FnMut(usize, usize, &[f32]),
) {
    debug_assert!(rows <= ROW_BLOCK);
    let mut jt = 0;
    while jt < n {
        let left = n - jt;
        let (j0, tile, acc) = if rows < ROW_BLOCK || n < 4 {
            let tile = left.min(COL_TILE);
            (jt, tile, tile_product(lhs, b, n, jt, rows, tile))
        } else if left >= COL_TILE {
            // Apart from the ragged arms: folded into their `match`, the
            // whole tiles of the `n` = 144 and 288 layers ran 3–12 %
            // slower.
            let acc = tile_product(lhs, b, n, jt, ROW_BLOCK, COL_TILE);
            (jt, COL_TILE, acc)
        } else {
            let width = match (left, n) {
                (9.., COL_TILE..) => COL_TILE,
                (5.., 8..) => 8,
                _ => 4,
            };
            let j0 = jt.min(n - width);
            let acc = match width {
                4 => tile_product(lhs, b, n, j0, ROW_BLOCK, 4),
                8 => tile_product(lhs, b, n, j0, ROW_BLOCK, 8),
                _ => tile_product(lhs, b, n, j0, ROW_BLOCK, COL_TILE),
            };
            (j0, width, acc)
        };
        for (r, arow) in acc[..rows].iter().enumerate() {
            emit(r, jt, &arow[jt - j0..tile]);
        }
        jt = j0 + tile;
    }
}

dispatch! {
    /// Fills one output band (`oband`, row-major with `n` columns) with
    /// `A · B`, where `lhs` views the band's rows of `A`.
    fn band_product(lhs: Strided<'_>, b: &[f32], n: usize, oband: &mut [f32]) = band_product_body;
}

#[inline(always)]
fn band_product_body(lhs: Strided<'_>, b: &[f32], n: usize, oband: &mut [f32]) {
    for (blk, oblock) in oband.chunks_mut(ROW_BLOCK * n).enumerate() {
        let view = lhs.skip_rows(blk * ROW_BLOCK);
        block_product(view, b, n, oblock.len() / n, |r, jt, vals| {
            oblock[r * n + jt..r * n + jt + vals.len()].copy_from_slice(vals);
        });
    }
}

fn check_matrix(t: &Tensor, op: &'static str) -> Result<(usize, usize), TensorError> {
    if t.dims().len() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: t.dims().len(),
        });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

/// Matrix product `a (m×k) · b (k×n) → (m×n)`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either operand is not rank 2 and
/// [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use hadfl_tensor::{matmul, Tensor};
///
/// # fn main() -> Result<(), hadfl_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2])?;
/// let c = matmul(&a, &b)?;
/// assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, ka) = check_matrix(a, "matmul")?;
    let (kb, n) = check_matrix(b, "matmul")?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let _prof = hadfl_prof::scope_bytes("matmul", 4 * (a.len() + b.len() + m * n) as u64);
    let mut out = Tensor::zeros(&[m, n]);
    let (av, bv) = (a.as_slice(), b.as_slice());
    let (work, isa) = ((m as u64) * (ka as u64) * (n as u64), Isa::best());
    hadfl_par::plan_for(OpClass::Matmul, work).chunks_mut(
        out.as_mut_slice(),
        ROW_BAND * n.max(1),
        |band, oband| {
            let lhs = Strided::new(av, ka, 1, ka).skip_rows(band * ROW_BAND);
            band_product(isa, lhs, bv, n, oband);
        },
    );
    Ok(out)
}

/// Matrix product with the left operand transposed: `aᵀ (k×m)ᵀ · b (k×n) → (m×n)`.
///
/// Used by backward passes to form weight gradients without materializing a
/// transposed copy.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] or [`TensorError::ShapeMismatch`]
/// under the same conditions as [`matmul`].
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (ka, m) = check_matrix(a, "matmul_at_b")?;
    let (kb, n) = check_matrix(b, "matmul_at_b")?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_at_b",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let _prof = hadfl_prof::scope_bytes("matmul_at_b", 4 * (a.len() + b.len() + m * n) as u64);
    let mut out = Tensor::zeros(&[m, n]);
    let (av, bv) = (a.as_slice(), b.as_slice());
    let (work, isa) = ((m as u64) * (ka as u64) * (n as u64), Isa::best());
    let plan = hadfl_par::plan_for(OpClass::Matmul, work);
    plan.chunks_mut(out.as_mut_slice(), ROW_BAND * n.max(1), |band, oband| {
        let lhs = Strided::new(av, 1, m, ka).skip_rows(band * ROW_BAND);
        band_product(isa, lhs, bv, n, oband);
    });
    Ok(out)
}

/// Matrix product with the right operand transposed: `a (m×k) · bᵀ (n×k)ᵀ → (m×n)`.
///
/// Used by backward passes to propagate gradients to layer inputs.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] or [`TensorError::ShapeMismatch`]
/// under the same conditions as [`matmul`].
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, ka) = check_matrix(a, "matmul_a_bt")?;
    let (n, kb) = check_matrix(b, "matmul_a_bt")?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_a_bt",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let _prof = hadfl_prof::scope_bytes("matmul_a_bt", 4 * (a.len() + b.len() + m * n) as u64);
    let mut out = Tensor::zeros(&[m, n]);
    let av = a.as_slice();
    let bt = PackedRows::new(b.as_slice(), ka, n);
    let (work, isa) = ((m as u64) * (ka as u64) * (n as u64), Isa::best());
    hadfl_par::plan_for(OpClass::Matmul, work).chunks_mut(
        out.as_mut_slice(),
        ROW_BAND * n.max(1),
        |band, oband| {
            let a = &av[band * ROW_BAND * ka..];
            rows_a_bt(isa, a, &bt, None, oband, (n, 1));
        },
    );
    Ok(out)
}

/// Dots per row-dot tile: [`rows_a_bt`] computes this many outputs of
/// a row from each loaded eight-float chunk of it.
const DOT_TILE: usize = 4;

/// The right operand of [`rows_a_bt`]: the `n` rows of a row-major
/// `n × ka` matrix, re-laid once per call as `[group of DOT_TILE
/// rows][chunk of LANES][row][lane]` so that one tile's weights for one
/// chunk are `DOT_TILE · LANES` consecutive floats. A ragged last group
/// is zero-filled, and its padding rows are computed but never stored;
/// a ragged last chunk is zero-filled for [`four_dots`]' tail.
pub(crate) struct PackedRows {
    w: Vec<f32>,
    ka: usize,
    n: usize,
}

impl PackedRows {
    pub fn new(b: &[f32], ka: usize, n: usize) -> Self {
        let chunks = ka.div_ceil(LANES);
        let mut w = vec![0.0f32; n.div_ceil(DOT_TILE) * chunks * DOT_TILE * LANES];
        for j in 0..n {
            let (g, r) = (j / DOT_TILE, j % DOT_TILE);
            for (c, xs) in b[j * ka..(j + 1) * ka].chunks(LANES).enumerate() {
                let at = ((g * chunks + c) * DOT_TILE + r) * LANES;
                w[at..at + xs.len()].copy_from_slice(xs);
            }
        }
        PackedRows { w, ka, n }
    }
}

/// `DOT_TILE` dots of one row with one packed group, lane by lane: the
/// `LANES` accumulators of every dot before [`combine`]. Each loaded
/// chunk of `arow` feeds all four dots; dot `j` sees exactly the terms
/// of `dot8(arow, b[j, ·])` in the same lanes and order, the tail
/// included, so its lanes are `dot8`'s.
///
/// The ragged tail runs as one more whole chunk: the row's last
/// `ka % 8` floats followed by zeros, against the packed rows' zero
/// fill. A padding lane adds `0 · 0 = +0.0` to an accumulator that
/// started at `+0.0` and so is never `−0.0` (a sum is `−0.0` only when
/// both addends are), and `x + (+0.0)` has the bits of every such `x`.
/// The chunk is filled by a fixed eight-step loop: a `copy_from_slice`
/// of the tail compiled to a `memcpy` call that spilled all 32
/// accumulators, and the stem (`ka` 27) then ran 18 % slower than one
/// `dot8` at a time instead of 30 % faster.
#[inline(always)]
fn four_dots(arow: &[f32], wg: &[f32]) -> [[f32; LANES]; DOT_TILE] {
    let mut acc = [[0.0f32; LANES]; DOT_TILE];
    let mut ac = arow.chunks_exact(LANES);
    let mut wc = wg.chunks_exact(DOT_TILE * LANES);
    for (xs, ws) in ac.by_ref().zip(wc.by_ref()) {
        for (lanes, w) in acc.iter_mut().zip(ws.chunks_exact(LANES)) {
            for ((l, &x), &y) in lanes.iter_mut().zip(xs).zip(w) {
                *l += x * y;
            }
        }
    }
    // `zip` stops on `ac` first, so `wc` still holds the tail's chunk.
    if let Some(ws) = wc.next() {
        let mut xs = [0.0f32; LANES];
        let rem = ac.remainder();
        for (l, d) in xs.iter_mut().enumerate() {
            if l < rem.len() {
                *d = rem[l];
            }
        }
        for (lanes, w) in acc.iter_mut().zip(ws.chunks_exact(LANES)) {
            for ((l, &x), &y) in lanes.iter_mut().zip(&xs).zip(w) {
                *l += x * y;
            }
        }
    }
    acc
}

dispatch! {
    /// [`rows_a_bt_body`] on `isa`, kept out of line on purpose:
    /// [`matmul_a_bt`] and [`crate::conv_forward`] then run one compiled
    /// body per [`Isa`]. Inlined, the same source came out with the
    /// chunk loop unrolled at one call site and not at the other (a
    /// measured 20–30 % apart).
    #[inline(never)]
    pub(crate) fn rows_a_bt(
        a: &[f32],
        bt: &PackedRows,
        bias: Option<&[f32]>,
        out: &mut [f32],
        strides: (usize, usize),
    ) = rows_a_bt_body;
}

/// `out[r·rs + j·cs] = dot8(a[r, ·], b[j, ·]) (+ bias[j])` for every row
/// `r` of `a` (row-major, `bt.ka` columns) that `out` has room for, and
/// `(rs, cs)` the output's row and column strides: `(n, 1)` for a
/// row-major product, `(1, rows)` for an NCHW image window.
///
/// One tile is one row against a group of [`DOT_TILE`] packed rows,
/// groups in the outer loop (rows outermost measured the same).
/// Every stored element has the bits of one `dot8` — lane `i % 8`, the
/// same tail, the same pairwise combine — and the bias is added to the
/// finished dot, so the bits depend on `ka` alone.
#[inline(always)]
fn rows_a_bt_body(
    a: &[f32],
    bt: &PackedRows,
    bias: Option<&[f32]>,
    out: &mut [f32],
    (rs, cs): (usize, usize),
) {
    let (ka, n) = (bt.ka, bt.n);
    let rows = out.len().checked_div(n).unwrap_or(0);
    let group = ka.div_ceil(LANES) * DOT_TILE * LANES;
    for g in 0..n.div_ceil(DOT_TILE) {
        let wg = &bt.w[g * group..(g + 1) * group];
        let j0 = g * DOT_TILE;
        for r in 0..rows {
            let acc = four_dots(&a[r * ka..(r + 1) * ka], wg);
            for (j, lanes) in (j0..n).zip(&acc) {
                let dot = combine(*lanes);
                out[r * rs + j * cs] = bias.map_or(dot, |b| dot + b[j]);
            }
        }
    }
}

/// Outer product of two vectors: `a (m) ⊗ b (n) → (m×n)`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either operand is not rank 1.
pub fn outer(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    if a.dims().len() != 1 {
        return Err(TensorError::RankMismatch {
            op: "outer",
            expected: 1,
            actual: a.dims().len(),
        });
    }
    if b.dims().len() != 1 {
        return Err(TensorError::RankMismatch {
            op: "outer",
            expected: 1,
            actual: b.dims().len(),
        });
    }
    let (m, n) = (a.len(), b.len());
    let mut out = Tensor::zeros(&[m, n]);
    let ov = out.as_mut_slice();
    for (i, &x) in a.as_slice().iter().enumerate() {
        for (j, &y) in b.as_slice().iter().enumerate() {
            ov[i * n + j] = x * y;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::on_every_isa;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let c = matmul(&a, &Tensor::eye(3)).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_rectangular() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_inner_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_rejects_non_matrix() {
        let a = Tensor::zeros(&[6]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]); // aᵀ is 2x3
        let b = t(&[1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        let got = matmul_at_b(&a, &b).unwrap();
        // explicit transpose of a
        let at = t(&[1.0, 3.0, 5.0, 2.0, 4.0, 6.0], &[2, 3]);
        let want = matmul(&at, &b).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let got = matmul_a_bt(&a, &b).unwrap();
        let bt = t(&[5.0, 7.0, 6.0, 8.0], &[2, 2]);
        let want = matmul(&a, &bt).unwrap();
        assert_eq!(got, want);
    }

    /// Values of varied magnitude, so that a changed association moves
    /// bits, with exact zeros of both signs.
    fn noisy(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = crate::init::SeedStream::new(seed);
        (0..len)
            .map(|i| match i % 11 {
                0 => 0.0,
                5 => -0.0,
                _ => rng.normal() * 10f32.powi((i % 7) as i32 - 3),
            })
            .collect()
    }

    fn same_bits(got: &[f32], want: &[f32]) -> bool {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
    }

    /// Both compilations of [`rows_a_bt`] against each other and
    /// against `dot8`, with a non-finite `b` row against a zero `a` row:
    /// a dot has no zero skip, so those elements are NaN, and the two
    /// compilations must agree on their bits too.
    #[test]
    fn rows_a_bt_is_dot8_per_element_in_both_layouts_on_every_isa() {
        let rows = 3;
        for ka in [0, 1, 7, 8, 9, 27, 288] {
            for n in 1..=9 {
                let mut a = noisy(rows * ka, 1);
                let mut b = noisy(n * ka, 2);
                if ka > 0 {
                    a[..ka].fill(0.0);
                    b[..ka].fill([f32::INFINITY, f32::NEG_INFINITY, f32::NAN][n % 3]);
                }
                let bias = noisy(n, 3);
                let dot = |r: usize, j: usize| {
                    crate::simd::dot8(&a[r * ka..(r + 1) * ka], &b[j * ka..(j + 1) * ka])
                };
                let bt = PackedRows::new(&b, ka, n);
                // Row-major, no bias.
                let out = on_every_isa(&format!("ka={ka} n={n} row-major"), |isa| {
                    let mut out = vec![f32::NAN; rows * n];
                    rows_a_bt(isa, &a, &bt, None, &mut out, (n, 1));
                    out
                });
                let want: Vec<f32> = (0..rows * n).map(|i| dot(i / n, i % n)).collect();
                assert!(same_bits(&out, &want), "ka={ka} n={n} row-major");
                // Channel-major with bias, as `conv_forward` writes it.
                let out = on_every_isa(&format!("ka={ka} n={n} channel-major"), |isa| {
                    let mut out = vec![f32::NAN; rows * n];
                    rows_a_bt(isa, &a, &bt, Some(&bias), &mut out, (1, rows));
                    out
                });
                let want: Vec<f32> = (0..rows * n)
                    .map(|i| dot(i % rows, i / rows) + bias[i / rows])
                    .collect();
                assert!(same_bits(&out, &want), "ka={ka} n={n} channel-major");
            }
        }
    }

    /// The scalar ikj loop: per element, ascending `k`, `a == 0` skipped.
    fn ikj(a: &[f32], b: &[f32], m: usize, ka: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                for k in 0..ka {
                    if a[i * ka + k] != 0.0 {
                        out[i * n + j] += a[i * ka + k] * b[k * n + j];
                    }
                }
            }
        }
        out
    }

    #[test]
    fn block_product_tails_keep_the_ikj_bits_and_the_zero_skip() {
        let ka = 13;
        for n in [8, 11, 27, 72] {
            for (bad, poison) in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN]
                .into_iter()
                .enumerate()
            {
                let mut a = noisy(ROW_BLOCK * ka, 4 + bad as u64);
                let mut b = noisy(ka * n, 7);
                // Row 0 has a zero under the poisoned `b` row, row 1 does not.
                let k0 = (n + bad) % ka;
                b[k0 * n..(k0 + 1) * n].fill(poison);
                a[k0] = 0.0;
                a[ka + k0] = 1.5;
                let want = ikj(&a, &b, ROW_BLOCK, ka, n);
                for rows in [ROW_BLOCK, 1] {
                    let mut out = vec![0.0f32; rows * n];
                    let mut hits = vec![0u32; rows * n];
                    let lhs = Strided::new(&a, ka, 1, ka);
                    block_product(lhs, &b, n, rows, |r, jt, vals| {
                        for (j, &v) in (jt..).zip(vals) {
                            out[r * n + j] = v;
                            hits[r * n + j] += 1;
                        }
                    });
                    assert!(hits.iter().all(|&h| h == 1), "n={n} rows={rows}: {hits:?}");
                    assert!(same_bits(&out, &want[..rows * n]), "n={n} rows={rows}");
                    assert!(out[..n].iter().all(|v| v.is_finite()), "n={n} rows={rows}");
                }
                assert!(want[n..].iter().all(|v| !v.is_finite()), "n={n}");
            }
        }
    }

    /// Both compilations of [`band_product`] against each other and
    /// against the ikj loop: full and ragged row blocks and bands,
    /// `n < 4`, the ragged column widths, and a non-finite `b` row that
    /// only the rows with a zero above it skip.
    #[test]
    fn band_product_agrees_on_every_isa() {
        for ka in [0, 1, 7, 8, 9, 27] {
            for m in [1, 2, 3, 8, 11] {
                for n in (1..=9).chain([11, 16, 27, 72]) {
                    let mut a = noisy(m * ka, 5);
                    let mut b = noisy(ka * n, 6);
                    if ka > 0 {
                        let k0 = n % ka;
                        b[k0 * n..(k0 + 1) * n].fill([f32::INFINITY, f32::NAN][m % 2]);
                        for i in (0..m).step_by(2) {
                            a[i * ka + k0] = 0.0;
                        }
                    }
                    let out = on_every_isa(&format!("ka={ka} m={m} n={n}"), |isa| {
                        let mut out = vec![f32::NAN; m * n];
                        for (band, oband) in out.chunks_mut(ROW_BAND * n).enumerate() {
                            let lhs = Strided::new(&a, ka, 1, ka).skip_rows(band * ROW_BAND);
                            band_product(isa, lhs, &b, n, oband);
                        }
                        out
                    });
                    let want = ikj(&a, &b, m, ka, n);
                    assert!(same_bits(&out, &want), "ka={ka} m={m} n={n}");
                }
            }
        }
    }

    #[test]
    fn outer_shape_and_values() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[3.0, 4.0, 5.0], &[3]);
        let c = outer(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.as_slice(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn outer_rejects_matrices() {
        assert!(outer(&Tensor::zeros(&[2, 2]), &Tensor::zeros(&[2])).is_err());
    }
}
