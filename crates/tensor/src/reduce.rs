//! Reductions and row-wise softmax utilities used by the loss layer.

use crate::error::TensorError;
use crate::tensor::Tensor;

/// Sum of all elements.
///
/// # Example
///
/// ```
/// use hadfl_tensor::{sum, Tensor};
///
/// let t = Tensor::ones(&[2, 3]);
/// assert_eq!(sum(&t), 6.0);
/// ```
pub fn sum(t: &Tensor) -> f32 {
    let v = t.as_slice();
    crate::tensor::chunked_sum(v.len(), |lo, hi| crate::simd::sum8(&v[lo..hi]))
}

/// Arithmetic mean of all elements.
///
/// # Errors
///
/// Returns [`TensorError::Empty`] for an empty tensor.
pub fn mean(t: &Tensor) -> Result<f32, TensorError> {
    if t.is_empty() {
        return Err(TensorError::Empty("mean"));
    }
    Ok(sum(t) / t.len() as f32)
}

/// Index of the maximum element of a flat slice, ties broken toward the
/// lower index.
///
/// # Errors
///
/// Returns [`TensorError::Empty`] for an empty slice.
pub fn argmax(values: &[f32]) -> Result<usize, TensorError> {
    if values.is_empty() {
        return Err(TensorError::Empty("argmax"));
    }
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    Ok(best)
}

/// Numerically stable softmax applied independently to each row of a
/// `(rows × cols)` matrix.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if `t` is not rank 2.
pub fn softmax_rows(t: &Tensor) -> Result<Tensor, TensorError> {
    let mut out = log_softmax_rows(t)?;
    out.map_inplace(f32::exp);
    Ok(out)
}

/// Numerically stable log-softmax applied independently to each row of a
/// `(rows × cols)` matrix.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if `t` is not rank 2.
pub fn log_softmax_rows(t: &Tensor) -> Result<Tensor, TensorError> {
    if t.dims().len() != 2 {
        return Err(TensorError::RankMismatch {
            op: "log_softmax_rows",
            expected: 2,
            actual: t.dims().len(),
        });
    }
    let (rows, cols) = (t.dims()[0], t.dims()[1]);
    let _prof = hadfl_prof::scope_bytes("log_softmax_rows", 4 * t.len() as u64);
    let mut out = t.clone();
    let data = out.as_mut_slice();
    // Rows are independent, so fixed row chunks parallelize without
    // changing any per-row operation order.
    let work = (rows as u64) * (cols as u64);
    hadfl_par::plan(work).chunks_mut(data, SOFTMAX_ROW_CHUNK * cols.max(1), |_, dchunk| {
        for row in dchunk.chunks_mut(cols.max(1)) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for v in row.iter() {
                denom += (v - max).exp();
            }
            let log_denom = denom.ln() + max;
            for v in row.iter_mut() {
                *v -= log_denom;
            }
        }
    });
    Ok(out)
}

/// Fixed matrix rows per parallel chunk in [`log_softmax_rows`] — a
/// constant of the kernel, never derived from the thread count.
const SOFTMAX_ROW_CHUNK: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_and_mean() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        assert_eq!(sum(&t), 10.0);
        assert_eq!(mean(&t).unwrap(), 2.5);
    }

    #[test]
    fn mean_of_empty_is_error() {
        assert!(mean(&Tensor::zeros(&[0])).is_err());
    }

    #[test]
    fn argmax_prefers_first_on_tie() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]).unwrap(), 1);
        assert!(argmax(&[]).is_err());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let s = softmax_rows(&t).unwrap();
        for r in 0..2 {
            let row_sum: f32 = s.as_slice()[r * 3..(r + 1) * 3].iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-5, "row {r} sums to {row_sum}");
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let t = Tensor::from_vec(vec![1000.0, 1001.0, 1002.0], &[1, 3]).unwrap();
        let s = softmax_rows(&t).unwrap();
        assert!(s.as_slice().iter().all(|v| v.is_finite()));
        let row_sum: f32 = s.as_slice().iter().sum();
        // f32 ULP at magnitude ~1e3 limits achievable accuracy here.
        assert!((row_sum - 1.0).abs() < 1e-3);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let t = Tensor::from_vec(vec![0.3, -0.7, 2.0], &[1, 3]).unwrap();
        let ls = log_softmax_rows(&t).unwrap();
        let s = softmax_rows(&t).unwrap();
        for (a, b) in ls.as_slice().iter().zip(s.as_slice()) {
            assert!((a - b.ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_rejects_non_matrix() {
        assert!(softmax_rows(&Tensor::zeros(&[3])).is_err());
    }
}
