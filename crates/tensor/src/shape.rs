use std::fmt;

use serde::{Deserialize, Serialize};

/// A row-major tensor shape: an ordered list of dimension extents.
///
/// `Shape` is a thin, validated wrapper over `Vec<usize>` that provides the
/// index arithmetic shared by every kernel in this crate.
///
/// # Example
///
/// ```
/// use hadfl_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from dimension extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Creates a scalar (rank-0) shape.
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Total number of elements (product of extents; 1 for a scalar).
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// Returns `true` when the shape has zero elements in some dimension.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// The extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat offset.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or any coordinate is out of range.
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.rank(), "index rank mismatch");
        let mut off = 0;
        let strides = self.strides();
        for (axis, (&i, &s)) in idx.iter().zip(strides.iter()).enumerate() {
            assert!(
                i < self.0[axis],
                "index {i} out of range for axis {axis} (extent {})",
                self.0[axis]
            );
            off += i * s;
        }
        off
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape_has_one_element() {
        let s = Shape::scalar();
        assert_eq!(s.len(), 1);
        assert_eq!(s.rank(), 0);
        assert!(!s.is_empty());
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
        assert!(Shape::scalar().strides().is_empty());
    }

    #[test]
    fn offset_roundtrip() {
        let s = Shape::new(&[2, 3, 4]);
        let mut seen = std::collections::HashSet::new();
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    let off = s.offset(&[i, j, k]);
                    assert!(off < s.len());
                    assert!(seen.insert(off), "offset {off} visited twice");
                }
            }
        }
        assert_eq!(seen.len(), s.len());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn offset_out_of_range_panics() {
        Shape::new(&[2, 2]).offset(&[2, 0]);
    }

    #[test]
    fn zero_extent_is_empty() {
        assert!(Shape::new(&[3, 0, 2]).is_empty());
    }

    #[test]
    fn display_uses_x_separator() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "[2x3]");
    }
}
