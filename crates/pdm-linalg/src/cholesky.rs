//! Cholesky factorisation of symmetric positive-definite matrices.
//!
//! Used for (a) cheap positive-definiteness checks on the ellipsoid shape
//! matrix, (b) log-determinant computation (the ellipsoid volume evolves as
//! `exp` of the log-determinant, which is far better conditioned than the raw
//! product of eigenvalues), and (c) solving the normal equations of the
//! ordinary-least-squares learner.
//!
//! [`PackedCholesky`] factors a [`PackedSymmetric`] matrix, the ellipsoid's
//! shape, without expanding it: one `n(n+1)/2` buffer, the dense factor's
//! elimination order, and so the same verdict and factor bits as
//! [`Cholesky::factor`] on the expanded matrix.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::packed::PackedSymmetric;
use crate::vector::Vector;

/// Lower-triangular Cholesky factor `L` with `A = L L^T`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    lower: Matrix,
}

impl Cholesky {
    /// Factorises a symmetric positive-definite matrix.
    ///
    /// # Errors
    /// Returns [`LinalgError::NotSquare`] or [`LinalgError::NotSymmetric`] for
    /// malformed inputs, [`LinalgError::NonFinite`] when any entry is NaN or
    /// infinite, and [`LinalgError::NotPositiveDefinite`] when a pivot
    /// becomes non-positive.
    pub fn factor(matrix: &Matrix, symmetry_tol: f64) -> Result<Self> {
        let mut lower = Matrix::default();
        Self::factor_into(matrix, symmetry_tol, &mut lower)?;
        Ok(Self { lower })
    }

    /// In-place Cholesky factorisation into a caller-owned buffer.
    ///
    /// On success `lower` holds the lower-triangular factor `L` with
    /// `A = L L^T` — bit-for-bit the factor [`Cholesky::factor`] produces
    /// (the elimination order is identical) — without allocating beyond the
    /// buffer's capacity.  `lower` is resized and zeroed first, so any
    /// previous contents are irrelevant.  On error the buffer contents are
    /// unspecified.
    ///
    /// # Errors
    /// Returns [`LinalgError::NotSquare`] or [`LinalgError::NotSymmetric`] for
    /// malformed inputs, [`LinalgError::NonFinite`] when any entry is NaN or
    /// infinite, and [`LinalgError::NotPositiveDefinite`] when a pivot
    /// becomes non-positive.
    pub fn factor_into(matrix: &Matrix, symmetry_tol: f64, lower: &mut Matrix) -> Result<()> {
        if !matrix.is_square() {
            return Err(LinalgError::NotSquare {
                rows: matrix.rows(),
                cols: matrix.cols(),
            });
        }
        // NaN slips past both tests below: `f64::max` drops it from the
        // asymmetry, and `NaN <= 0.0` is false at a pivot.  The elimination
        // also never reads the upper triangle.
        if !matrix.is_finite() {
            return Err(LinalgError::NonFinite {
                operation: "Cholesky::factor",
            });
        }
        let asym = matrix.max_asymmetry();
        if asym > symmetry_tol {
            return Err(LinalgError::NotSymmetric {
                max_asymmetry: asym,
            });
        }
        let n = matrix.rows();
        lower.resize_zeroed(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = matrix.get(i, j);
                for k in 0..j {
                    sum -= lower.get(i, k) * lower.get(j, k);
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite {
                            pivot: i,
                            value: sum,
                        });
                    }
                    lower.set(i, j, sum.sqrt());
                } else {
                    lower.set(i, j, sum / lower.get(j, j));
                }
            }
        }
        Ok(())
    }

    /// The lower-triangular factor `L`.
    #[must_use]
    pub fn lower(&self) -> &Matrix {
        &self.lower
    }

    /// Dimension of the factored matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.lower.rows()
    }

    /// Determinant of the original matrix: `prod(L[i][i])^2`.
    #[must_use]
    pub fn determinant(&self) -> f64 {
        let mut prod = 1.0;
        for i in 0..self.dim() {
            prod *= self.lower.get(i, i);
        }
        prod * prod
    }

    /// Natural logarithm of the determinant, computed stably as
    /// `2 * sum(log L[i][i])`.
    #[must_use]
    pub fn log_determinant(&self) -> f64 {
        (0..self.dim())
            .map(|i| self.lower.get(i, i).ln())
            .sum::<f64>()
            * 2.0
    }

    /// Solves `A x = b` using the factorisation (forward then backward
    /// substitution).
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when `b.len() != n`.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "Cholesky::solve",
                expected: n,
                actual: b.len(),
            });
        }
        // Forward substitution: L y = b.
        let mut y = Vector::zeros(n);
        for i in 0..n {
            let mut acc = b[i];
            for j in 0..i {
                acc -= self.lower.get(i, j) * y[j];
            }
            y[i] = acc / self.lower.get(i, i);
        }
        // Backward substitution: L^T x = y.
        let mut x = Vector::zeros(n);
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.lower.get(j, i) * x[j];
            }
            x[i] = acc / self.lower.get(i, i);
        }
        Ok(x)
    }

    /// Inverse of the original matrix, column by column.
    ///
    /// # Errors
    /// Propagates solver errors (none expected for a valid factorisation).
    pub fn inverse(&self) -> Result<Matrix> {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        for j in 0..n {
            let e = Vector::basis(n, j);
            let col = self.solve(&e)?;
            for i in 0..n {
                inv.set(i, j, col[i]);
            }
        }
        Ok(inv)
    }
}

/// Lower-triangular Cholesky factor `L` of a [`PackedSymmetric`] matrix,
/// stored packed by rows: row `i` is the contiguous run `lᵢ₀, …, lᵢᵢ`.
#[derive(Debug, Clone)]
pub struct PackedCholesky {
    dim: usize,
    lower: Vec<f64>,
}

impl PackedCholesky {
    /// Factorises a packed symmetric matrix into one `n(n+1)/2` buffer, its
    /// only allocation.
    ///
    /// Every entry of `L` is computed by the operations of
    /// [`Cholesky::factor`], in its order, reading `aᵢⱼ` from the stored
    /// triangle instead of a dense copy.  So on `matrix.to_dense()` (which
    /// is exactly symmetric, so the dense symmetry test always passes) both
    /// give the same verdict: the same factor bits, or the same error with
    /// the same pivot and pivot value.
    ///
    /// # Errors
    /// Returns [`LinalgError::NonFinite`] when any entry is NaN or infinite,
    /// and [`LinalgError::NotPositiveDefinite`] when a pivot becomes
    /// non-positive.
    pub fn factor(matrix: &PackedSymmetric) -> Result<Self> {
        if !matrix.is_finite() {
            return Err(LinalgError::NonFinite {
                operation: "PackedCholesky::factor",
            });
        }
        let n = matrix.dim();
        let upper = matrix.as_slice();
        let mut lower = vec![0.0; n * (n + 1) / 2];
        let mut row_start = 0;
        for i in 0..n {
            let (done, row) = lower.split_at_mut(row_start);
            let row = &mut row[..=i];
            // `aⱼᵢ` for `j ≤ i` is column `i` of the stored upper triangle:
            // `a₀ᵢ` of row 0 at offset `i`, and row `j + 1` starts `n - j`
            // slots after row `j`.
            let mut a_index = i;
            let mut j_start = 0;
            for j in 0..i {
                let row_j = &done[j_start..=j_start + j];
                let mut sum = upper[a_index];
                for (lik, ljk) in row[..j].iter().zip(&row_j[..j]) {
                    sum -= lik * ljk;
                }
                row[j] = sum / row_j[j];
                a_index += n - j - 1;
                j_start += j + 1;
            }
            let mut sum = upper[a_index];
            for lik in &row[..i] {
                sum -= lik * lik;
            }
            if sum <= 0.0 {
                return Err(LinalgError::NotPositiveDefinite {
                    pivot: i,
                    value: sum,
                });
            }
            row[i] = sum.sqrt();
            row_start += i + 1;
        }
        Ok(Self { dim: n, lower })
    }

    /// The packed factor, row by row (`lᵢⱼ` for `j ≤ i`).
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.lower
    }

    /// Natural logarithm of the determinant, `2 * sum(log L[i][i])`: the
    /// bits of [`Cholesky::log_determinant`] for the same matrix.
    #[must_use]
    pub fn log_determinant(&self) -> f64 {
        // Row `i` ends with its diagonal entry at offset `i(i+1)/2 + i`.
        (0..self.dim)
            .map(|i| self.lower[i * (i + 1) / 2 + i].ln())
            .sum::<f64>()
            * 2.0
    }
}

/// Returns `true` when `matrix` is symmetric positive definite (within the
/// given symmetry tolerance).
#[must_use]
pub fn is_positive_definite(matrix: &Matrix, symmetry_tol: f64) -> bool {
    Cholesky::factor(matrix, symmetry_tol).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn spd_example() -> Matrix {
        Matrix::from_rows(&[
            vec![4.0, 2.0, 0.6],
            vec![2.0, 3.0, 0.4],
            vec![0.6, 0.4, 2.0],
        ])
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd_example();
        let chol = Cholesky::factor(&a, 1e-12).unwrap();
        let l = chol.lower();
        let recon = l.matmul(&l.transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!(approx_eq(recon.get(i, j), a.get(i, j), 1e-10));
            }
        }
    }

    #[test]
    fn determinant_matches_solve_based_check() {
        let a = spd_example();
        let chol = Cholesky::factor(&a, 1e-12).unwrap();
        assert!(chol.determinant() > 0.0);
        assert!(approx_eq(
            chol.log_determinant(),
            chol.determinant().ln(),
            1e-10
        ));
    }

    #[test]
    fn solve_matches_direct_solver() {
        let a = spd_example();
        let b = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let chol = Cholesky::factor(&a, 1e-12).unwrap();
        let x_chol = chol.solve(&b).unwrap();
        let x_direct = a.solve(&b).unwrap();
        for i in 0..3 {
            assert!(approx_eq(x_chol[i], x_direct[i], 1e-9));
        }
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = spd_example();
        let inv = Cholesky::factor(&a, 1e-12).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!(approx_eq(prod.get(i, j), expected, 1e-9));
            }
        }
    }

    #[test]
    fn rejects_non_positive_definite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::factor(&a, 1e-12),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        assert!(!is_positive_definite(&a, 1e-12));
        assert!(is_positive_definite(&Matrix::identity(4), 1e-12));
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(matches!(
            Cholesky::factor(&Matrix::zeros(2, 3), 1e-12),
            Err(LinalgError::NotSquare { .. })
        ));
        let asym = Matrix::from_rows(&[vec![1.0, 0.5], vec![0.0, 1.0]]);
        assert!(matches!(
            Cholesky::factor(&asym, 1e-12),
            Err(LinalgError::NotSymmetric { .. })
        ));
    }

    #[test]
    fn rejects_non_finite_entries() {
        let nan = f64::NAN;
        for bad in [
            Matrix::from_rows(&[vec![1.0, nan], vec![nan, 1.0]]),
            // The elimination reads only the lower triangle, so a NaN above
            // the diagonal would never reach a pivot.
            Matrix::from_rows(&[vec![1.0, nan], vec![0.5, 1.0]]),
            Matrix::from_rows(&[vec![1.0, 0.5], vec![0.5, f64::INFINITY]]),
        ] {
            assert!(matches!(
                Cholesky::factor(&bad, 1e-12),
                Err(LinalgError::NonFinite { .. })
            ));
            assert!(!is_positive_definite(&bad, 1e-12));
        }
    }

    #[test]
    fn factor_into_matches_factor_bitwise_and_reuses_buffer() {
        let a = spd_example();
        let reference = Cholesky::factor(&a, 1e-12).unwrap();
        let mut lower = Matrix::from_fn(5, 5, |_, _| 9.9); // stale contents
        Cholesky::factor_into(&a, 1e-12, &mut lower).unwrap();
        assert_eq!(lower.as_slice(), reference.lower().as_slice());
        // Error paths still reject the same inputs as the allocating API.
        assert!(Cholesky::factor_into(&Matrix::zeros(2, 3), 1e-12, &mut lower).is_err());
        let indef = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert!(matches!(
            Cholesky::factor_into(&indef, 1e-12, &mut lower),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let chol = Cholesky::factor(&Matrix::identity(3), 1e-12).unwrap();
        assert!(chol.solve(&Vector::zeros(2)).is_err());
    }
}
