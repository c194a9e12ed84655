use std::error::Error;
use std::fmt;

use hadfl_tensor::TensorError;

/// Error produced by network construction, training, and data handling.
///
/// # Example
///
/// ```
/// use hadfl_nn::{Dataset, SyntheticSpec};
///
/// let bad = SyntheticSpec { classes: 0, ..SyntheticSpec::tiny() };
/// assert!(Dataset::synthetic_cifar(8, &bad, 1).is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// A tensor kernel failed (shape/rank/geometry problems).
    Tensor(TensorError),
    /// The network or a layer was configured inconsistently.
    InvalidConfig(String),
    /// A batch of inputs did not match the labels or the expected sample
    /// shape.
    BatchMismatch(String),
    /// A parameter vector had the wrong length for this model.
    ParamLengthMismatch {
        /// Length the model requires.
        expected: usize,
        /// Length that was supplied.
        actual: usize,
    },
    /// Training produced NaN/inf parameters or loss.
    NonFinite(&'static str),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            NnError::BatchMismatch(msg) => write!(f, "batch mismatch: {msg}"),
            NnError::ParamLengthMismatch { expected, actual } => {
                write!(
                    f,
                    "parameter vector length {actual} does not match model size {expected}"
                )
            }
            NnError::NonFinite(what) => write!(f, "non-finite value produced in {what}"),
        }
    }
}

impl Error for NnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_error_is_wrapped_with_source() {
        let err = NnError::from(TensorError::Empty("mean"));
        assert!(err.to_string().contains("tensor error"));
        assert!(Error::source(&err).is_some());
    }

    #[test]
    fn param_length_message_names_both_lengths() {
        let err = NnError::ParamLengthMismatch {
            expected: 10,
            actual: 7,
        };
        let msg = err.to_string();
        assert!(msg.contains("10") && msg.contains('7'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }
}
