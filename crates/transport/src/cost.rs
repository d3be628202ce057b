//! Square cost matrices encoding the ground distance between histogram bins.

use std::fmt;
use std::sync::OnceLock;

/// Tolerance, relative to the largest cost, of the diagonal-reduction
/// guard ([`CostMatrix::admits_diagonal_reduction`]). Ground distances
/// computed in floating point (Euclidean distances between bin
/// centroids) meet the triangle inequality to within a few ulps, far
/// inside this margin.
const REDUCTION_TOL: f64 = 1e-12;

/// A dense square matrix of non-negative ground-distance costs.
///
/// `CostMatrix` is shared by the exact solver and every lower bound in
/// `earthmover-core`: entry `(i, j)` is the cost of moving one unit of mass
/// from bin `i` to bin `j`. The Earth Mover's Distance is a metric exactly
/// when the encoded ground distance is a metric (zero diagonal, symmetry,
/// triangle inequality) — [`CostMatrix::is_metric`] checks this.
#[derive(Debug, Clone)]
pub struct CostMatrix {
    n: usize,
    /// Row-major `n * n` entries.
    data: Vec<f64>,
    /// Cached [`CostMatrix::admits_diagonal_reduction`]; computed on first
    /// use, so building a matrix never pays the `O(n³)` check.
    reducible: OnceLock<bool>,
}

/// Equality compares the entries only, never the cached guard.
impl PartialEq for CostMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.data == other.data
    }
}

impl CostMatrix {
    /// Builds an `n × n` cost matrix from a generator function.
    ///
    /// # Panics
    ///
    /// Panics if the generator produces a negative or non-finite cost.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                let c = f(i, j);
                assert!(
                    c.is_finite() && c >= 0.0,
                    "cost ({i},{j}) must be finite and non-negative, got {c}"
                );
                data.push(c);
            }
        }
        CostMatrix::new_unchecked(n, data)
    }

    fn new_unchecked(n: usize, data: Vec<f64>) -> Self {
        CostMatrix {
            n,
            data,
            reducible: OnceLock::new(),
        }
    }

    /// Wraps an existing row-major buffer of length `n * n`.
    pub fn from_vec(n: usize, data: Vec<f64>) -> Result<Self, CostMatrixError> {
        if data.len() != n * n {
            return Err(CostMatrixError::WrongLength {
                expected: n * n,
                actual: data.len(),
            });
        }
        if let Some(idx) = data.iter().position(|c| !c.is_finite() || *c < 0.0) {
            return Err(CostMatrixError::InvalidCost {
                row: idx / n,
                col: idx % n,
                value: data[idx],
            });
        }
        Ok(CostMatrix::new_unchecked(n, data))
    }

    /// Number of bins (the matrix is `len × len`).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix has zero bins.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Cost of moving one unit of mass from bin `i` to bin `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// The `i`-th row as a slice (costs from bin `i` to every bin).
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Largest cost in the matrix, or zero for an empty matrix.
    pub fn max_cost(&self) -> f64 {
        self.data.iter().copied().fold(0.0, f64::max)
    }

    /// Checks the three metric axioms on the encoded ground distance:
    /// zero diagonal (and strictly positive off-diagonal), symmetry, and
    /// the triangle inequality `c_ik ≤ c_ij + c_jk` (within `tol`).
    ///
    /// This is an `O(n³)` diagnostic intended for construction-time
    /// validation, not for hot paths.
    pub fn is_metric(&self, tol: f64) -> bool {
        let n = self.n;
        for i in 0..n {
            for j in 0..n {
                if i != j && self.get(i, j) <= tol {
                    return false;
                }
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        self.zero_diagonal_and_triangle(tol)
    }

    /// True when the exact solver may leave the shared mass
    /// `min(x_i, y_i)` of every bin in place and solve only the bins with
    /// surplus against the bins with deficit.
    ///
    /// That is valid when the diagonal is zero and the triangle inequality
    /// `c_ik ≤ c_ij + c_jk` holds (symmetry is not needed): any optimal
    /// flow that routes mass through a bin can be short-cut to one that
    /// does not, at no extra cost. Both are checked to within `1e-12` of
    /// the largest cost. The `O(n³)` check runs once, on the first call,
    /// and is cached.
    pub fn admits_diagonal_reduction(&self) -> bool {
        *self
            .reducible
            .get_or_init(|| self.zero_diagonal_and_triangle(REDUCTION_TOL * self.max_cost()))
    }

    /// Zero diagonal and `c_ik ≤ c_ij + c_jk` for all `i, j, k`, within
    /// `tol`.
    fn zero_diagonal_and_triangle(&self, tol: f64) -> bool {
        (0..self.n).all(|i| self.get(i, i).abs() <= tol)
            && (0..self.n).all(|i| {
                let from_i = self.row(i);
                from_i.iter().enumerate().all(|(j, &c_ij)| {
                    from_i
                        .iter()
                        .zip(self.row(j))
                        .all(|(&c_ik, &c_jk)| c_ik <= c_ij + c_jk + tol)
                })
            })
    }
}

/// Errors constructing a [`CostMatrix`].
#[derive(Debug, Clone, PartialEq)]
pub enum CostMatrixError {
    /// Buffer length does not equal `n * n`.
    WrongLength { expected: usize, actual: usize },
    /// A cost entry is negative or non-finite.
    InvalidCost { row: usize, col: usize, value: f64 },
}

impl fmt::Display for CostMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostMatrixError::WrongLength { expected, actual } => {
                write!(f, "cost buffer has length {actual}, expected {expected}")
            }
            CostMatrixError::InvalidCost { row, col, value } => {
                write!(f, "cost ({row},{col}) = {value} is negative or non-finite")
            }
        }
    }
}

impl std::error::Error for CostMatrixError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_get_agree() {
        let c = CostMatrix::from_fn(3, |i, j| (i * 10 + j) as f64);
        assert_eq!(c.get(2, 1), 21.0);
        assert_eq!(c.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.max_cost(), 22.0);
    }

    #[test]
    fn from_vec_validates_length() {
        let err = CostMatrix::from_vec(2, vec![0.0; 3]).unwrap_err();
        assert!(matches!(err, CostMatrixError::WrongLength { .. }));
    }

    #[test]
    fn from_vec_rejects_negative() {
        let err = CostMatrix::from_vec(2, vec![0.0, 1.0, -1.0, 0.0]).unwrap_err();
        assert!(matches!(
            err,
            CostMatrixError::InvalidCost { row: 1, col: 0, .. }
        ));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_fn_panics_on_negative() {
        let _ = CostMatrix::from_fn(2, |i, j| i as f64 - j as f64);
    }

    #[test]
    fn metric_check_accepts_line_metric() {
        let c = CostMatrix::from_fn(4, |i, j| (i as f64 - j as f64).abs());
        assert!(c.is_metric(1e-12));
    }

    #[test]
    fn metric_check_rejects_asymmetry() {
        let c = CostMatrix::from_fn(2, |i, j| {
            if i < j {
                1.0
            } else if i > j {
                2.0
            } else {
                0.0
            }
        });
        assert!(!c.is_metric(1e-12));
    }

    #[test]
    fn metric_check_rejects_triangle_violation() {
        // d(0,2) = 10 but d(0,1) + d(1,2) = 2.
        let c =
            CostMatrix::from_vec(3, vec![0.0, 1.0, 10.0, 1.0, 0.0, 1.0, 10.0, 1.0, 0.0]).unwrap();
        assert!(!c.is_metric(1e-12));
    }

    #[test]
    fn metric_check_rejects_nonzero_diagonal() {
        let c = CostMatrix::from_vec(2, vec![0.5, 1.0, 1.0, 0.0]).unwrap();
        assert!(!c.is_metric(1e-12));
    }

    #[test]
    fn empty_matrix() {
        let c = CostMatrix::from_fn(0, |_, _| 0.0);
        assert!(c.is_empty());
        assert_eq!(c.max_cost(), 0.0);
        assert!(c.is_metric(1e-12));
        assert!(c.admits_diagonal_reduction());
    }

    #[test]
    fn reduction_guard_needs_zero_diagonal_and_triangle_inequality() {
        let line = CostMatrix::from_fn(4, |i, j| (i as f64 - j as f64).abs());
        assert!(line.admits_diagonal_reduction());
        // Asymmetric but short-cut free: still reducible.
        let asym = CostMatrix::from_fn(3, |i, j| match i.cmp(&j) {
            std::cmp::Ordering::Less => 1.0,
            std::cmp::Ordering::Greater => 2.0,
            std::cmp::Ordering::Equal => 0.0,
        });
        assert!(asym.admits_diagonal_reduction());
        let triangle =
            CostMatrix::from_vec(3, vec![0.0, 1.0, 10.0, 1.0, 0.0, 1.0, 10.0, 1.0, 0.0]).unwrap();
        assert!(!triangle.admits_diagonal_reduction());
        let diagonal = CostMatrix::from_vec(2, vec![0.5, 1.0, 1.0, 0.0]).unwrap();
        assert!(!diagonal.admits_diagonal_reduction());
    }

    #[test]
    fn equality_ignores_the_cached_guard() {
        let a = CostMatrix::from_fn(3, |i, j| (i as f64 - j as f64).abs());
        let b = a.clone();
        let fresh = CostMatrix::from_fn(3, |i, j| (i as f64 - j as f64).abs());
        assert!(a.admits_diagonal_reduction());
        assert_eq!(a, fresh);
        assert_eq!(b, fresh);
    }
}
