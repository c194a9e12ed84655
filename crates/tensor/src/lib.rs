//! Minimal dense `f32` tensor library backing the HADFL reproduction.
//!
//! This crate deliberately implements only what the federated-learning
//! substrates above it need — dense row-major tensors, the handful of
//! linear-algebra kernels used by dense and convolutional layers
//! ([`matmul`], [`im2col`], the [`conv_forward`] family), reductions, and
//! seeded random initialization — rather than binding to an external
//! BLAS. Everything is deterministic given a seed, which the experiment
//! harness relies on.
//!
//! # Example
//!
//! ```
//! use hadfl_tensor::{Tensor, matmul};
//!
//! # fn main() -> Result<(), hadfl_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = matmul(&a, &b)?;
//! assert_eq!(c.as_slice(), a.as_slice());
//! # Ok(())
//! # }
//! ```

// `!(x > 0)`-style guards are deliberate: unlike `x <= 0` they also
// reject NaN, which is exactly what the validators want.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
mod conv;
mod error;
mod init;
mod linalg;
mod reduce;
mod shape;
pub mod simd;
mod tensor;

pub use conv::{
    conv_backward_input, conv_backward_weight, conv_forward, im2col, im2col_into, Conv2dGeometry,
};
pub use error::TensorError;
pub use init::{Initializer, SeedStream};
pub use linalg::{matmul, matmul_a_bt, matmul_at_b, outer};
pub use reduce::{argmax, log_softmax_rows, mean, softmax_rows, sum};
pub use shape::Shape;
pub use tensor::Tensor;
