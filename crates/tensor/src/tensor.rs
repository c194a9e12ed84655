use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::TensorError;
use crate::shape::Shape;

/// A dense, row-major `f32` tensor.
///
/// `Tensor` owns its storage (a flat `Vec<f32>`) and a [`Shape`]. All
/// elementwise arithmetic is provided both as allocating methods (`add`,
/// `sub`, …) and in-place methods (`add_assign_t`, `fill_zero`, …); the
/// training loops in the layers above use the in-place variants to avoid
/// per-step allocation.
///
/// # Example
///
/// ```
/// use hadfl_tensor::Tensor;
///
/// # fn main() -> Result<(), hadfl_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0], &[2])?;
/// let b = Tensor::full(&[2], 10.0);
/// let c = a.add(&b)?;
/// assert_eq!(c.as_slice(), &[11.0, 12.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from flat data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch {
                len: data.len(),
                shape: dims.to_vec(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        Tensor {
            shape: Shape::new(dims),
            data: vec![0.0; Shape::new(dims).len()],
        }
    }

    /// Creates a tensor of ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        Tensor {
            shape: Shape::new(dims),
            data: vec![value; Shape::new(dims).len()],
        }
    }

    /// Creates an `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The tensor's dimension extents.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the flat storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the flat storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of range.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of range.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.shape.offset(idx);
        self.data[off] = value;
    }

    /// Returns a reshaped copy sharing the same flat data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Self, TensorError> {
        Tensor::from_vec(self.data.clone(), dims)
    }

    fn check_same_shape(&self, rhs: &Tensor, op: &'static str) -> Result<(), TensorError> {
        if self.shape != rhs.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.dims().to_vec(),
                rhs: rhs.dims().to_vec(),
            });
        }
        Ok(())
    }

    /// Elementwise sum, allocating a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        self.check_same_shape(rhs, "add")?;
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Elementwise difference, allocating a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        self.check_same_shape(rhs, "sub")?;
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Elementwise (Hadamard) product, allocating a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        self.check_same_shape(rhs, "mul")?;
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a * b)
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Multiplies every element by `k`, allocating a new tensor.
    pub fn scale(&self, k: f32) -> Tensor {
        let data = self.data.iter().map(|a| a * k).collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// In-place `self += rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_assign_t(&mut self, rhs: &Tensor) -> Result<(), TensorError> {
        self.check_same_shape(rhs, "add_assign")?;
        zip_chunks(&mut self.data, &rhs.data, |a, &b| *a += b);
        Ok(())
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        hadfl_par::par_chunks_mut(&mut self.data, hadfl_par::F32_CHUNK, |_, chunk| {
            chunk.fill(0.0);
        });
    }

    /// Applies `f` to every element, allocating a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Dot product of the flattened tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn dot(&self, rhs: &Tensor) -> Result<f32, TensorError> {
        self.check_same_shape(rhs, "dot")?;
        let (a, b) = (&self.data, &rhs.data);
        Ok(chunked_sum(a.len(), |lo, hi| {
            crate::simd::dot8(&a[lo..hi], &b[lo..hi])
        }))
    }

    /// Euclidean (L2) norm of the flattened tensor.
    pub fn norm_l2(&self) -> f32 {
        let a = &self.data;
        chunked_sum(a.len(), |lo, hi| crate::simd::sum_sq8(&a[lo..hi])).sqrt()
    }
}

/// Applies `f` to aligned element pairs of `dst` and `src` through the
/// parallel plan. Chunk boundaries sit at fixed [`hadfl_par::F32_CHUNK`]
/// multiples regardless of thread count and every element is written
/// exactly once, so the result is bit-identical at any parallelism.
fn zip_chunks(dst: &mut [f32], src: &[f32], f: impl Fn(&mut f32, &f32) + Sync) {
    hadfl_par::par_chunks_mut(dst, hadfl_par::F32_CHUNK, |chunk, dchunk| {
        let base = chunk * hadfl_par::F32_CHUNK;
        let schunk = &src[base..base + dchunk.len()];
        for (a, b) in dchunk.iter_mut().zip(schunk) {
            f(a, b);
        }
    });
}

/// Chunked sum reduction: `partial(lo, hi)` produces the sum of one
/// fixed [`hadfl_par::F32_CHUNK`]-sized window (via the fixed
/// eight-lane association of [`crate::simd`] at every call site) and
/// the window partials fold in ascending chunk order. The association
/// is the same at every thread count — including one — so the
/// reduction is thread-count-invariant by construction.
pub(crate) fn chunked_sum(len: usize, partial: impl Fn(usize, usize) -> f32 + Sync) -> f32 {
    let n = hadfl_par::chunk_count(len, hadfl_par::F32_CHUNK);
    hadfl_par::par_reduce(
        n,
        len as u64,
        |c| {
            let lo = c * hadfl_par::F32_CHUNK;
            partial(lo, (lo + hadfl_par::F32_CHUNK).min(len))
        },
        |a, b| a + b,
    )
    .unwrap_or(0.0)
}

impl Default for Tensor {
    /// An empty rank-1 tensor of length zero.
    fn default() -> Self {
        Tensor {
            shape: Shape::new(&[0]),
            data: Vec::new(),
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor{} [", self.shape)?;
        for (i, v) in self.data.iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > PREVIEW {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(matches!(
            Tensor::from_vec(vec![1.0; 3], &[2, 2]),
            Err(TensorError::LengthMismatch { len: 3, .. })
        ));
    }

    #[test]
    fn eye_is_identity_under_indexing() {
        let id = Tensor::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(id.at(&[i, j]), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![0.5, 0.5, 0.5], &[3]).unwrap();
        let back = a.add(&b).unwrap().sub(&b).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn add_rejects_shape_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 2]);
        assert!(matches!(
            a.add(&b),
            Err(TensorError::ShapeMismatch { op: "add", .. })
        ));
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        let b = a.reshape(&[3, 2]).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        assert!(a.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn norm_and_dot_agree() {
        let a = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert!((a.norm_l2() - 5.0).abs() < 1e-6);
        assert!((a.dot(&a).unwrap() - 25.0).abs() < 1e-6);
    }

    #[test]
    fn map_inplace_matches_map() {
        let a = Tensor::from_vec(vec![-1.0, 2.0, -3.0], &[3]).unwrap();
        let mapped = a.map(|x| x.max(0.0));
        let mut b = a.clone();
        b.map_inplace(|x| x.max(0.0));
        assert_eq!(mapped, b);
        assert_eq!(b.as_slice(), &[0.0, 2.0, 0.0]);
    }

    #[test]
    fn display_truncates_long_tensors() {
        let t = Tensor::zeros(&[100]);
        let s = t.to_string();
        assert!(s.contains('…'));
        assert!(s.len() < 200);
    }

    #[test]
    fn fill_zero_keeps_shape() {
        let mut t = Tensor::ones(&[2, 2]);
        t.fill_zero();
        assert_eq!(t, Tensor::zeros(&[2, 2]));
    }
}
