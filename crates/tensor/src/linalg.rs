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
//! [`matmul_a_bt`]'s row-dot uses the fixed eight-lane association of
//! [`crate::simd`]. Both associations are pure functions of the
//! problem shape, so results are bit-identical to the scalar reference
//! at any thread count and any blocking (the determinism contract of
//! DESIGN.md §10).

use hadfl_par::OpClass;

use crate::error::TensorError;
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
/// `A · B` (`rows ≤ ROW_BLOCK`) one [`COL_TILE`] at a time and hands
/// each finished tile row to `emit(r, jt, values)`. `b` is row-major
/// with `n` columns and one row per `k` of `lhs`.
#[inline]
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
        let tile = (n - jt).min(COL_TILE);
        let acc = if rows == ROW_BLOCK && tile == COL_TILE {
            tile_product(lhs, b, n, jt, ROW_BLOCK, COL_TILE)
        } else {
            tile_product(lhs, b, n, jt, rows, tile)
        };
        for (r, arow) in acc[..rows].iter().enumerate() {
            emit(r, jt, &arow[..tile]);
        }
        jt += tile;
    }
}

/// Fills one output band (`oband`, row-major with `n` columns) with
/// `A · B`, where `lhs` views the band's rows of `A`.
fn band_product(lhs: Strided<'_>, b: &[f32], n: usize, oband: &mut [f32]) {
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
    let work = (m as u64) * (ka as u64) * (n as u64);
    hadfl_par::plan_for(OpClass::Matmul, work).chunks_mut(
        out.as_mut_slice(),
        ROW_BAND * n.max(1),
        |band, oband| {
            let lhs = Strided::new(av, ka, 1, ka).skip_rows(band * ROW_BAND);
            band_product(lhs, bv, n, oband);
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
    let work = (m as u64) * (ka as u64) * (n as u64);
    let plan = hadfl_par::plan_for(OpClass::Matmul, work);
    plan.chunks_mut(out.as_mut_slice(), ROW_BAND * n.max(1), |band, oband| {
        let lhs = Strided::new(av, 1, m, ka).skip_rows(band * ROW_BAND);
        band_product(lhs, bv, n, oband);
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
    let (av, bv) = (a.as_slice(), b.as_slice());
    let work = (m as u64) * (ka as u64) * (n as u64);
    hadfl_par::plan_for(OpClass::Matmul, work).chunks_mut(
        out.as_mut_slice(),
        ROW_BAND * n.max(1),
        |band, oband| rows_a_bt(&av[band * ROW_BAND * ka..], bv, ka, n, oband),
    );
    Ok(out)
}

/// `out[r, j] = dot8(a[r, ·], b[j, ·])` for the rows of `out` (row-major,
/// `n` columns); `a` and `b` are row-major with `ka` columns. Both
/// operands walk `k` contiguously, so the fixed eight-lane dot
/// vectorizes this — the association depends only on `ka`.
///
/// Kept out of line on purpose: [`matmul_a_bt`] and
/// [`crate::conv_forward`] then run one compiled body. Inlined, the same
/// source came out with the dot's chunk loop unrolled at one call site
/// and not at the other (a measured 20–30 % apart).
#[inline(never)]
pub(crate) fn rows_a_bt(a: &[f32], b: &[f32], ka: usize, n: usize, out: &mut [f32]) {
    for (r, orow) in out.chunks_mut(n).enumerate() {
        let arow = &a[r * ka..(r + 1) * ka];
        for (j, o) in orow.iter_mut().enumerate() {
            *o = crate::simd::dot8(arow, &b[j * ka..(j + 1) * ka]);
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
