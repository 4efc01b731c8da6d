//! Dense, row-major `f64` matrices.
//!
//! [`Matrix`] provides the dense operations of the learners (Gram matrices,
//! transposes, solves via [`crate::Cholesky`]) and the off-hot-path
//! analyses of the ellipsoid mechanism (volumes, eigenvalues, membership),
//! which expand its packed shape ([`crate::PackedSymmetric`]) to a dense
//! matrix first.

use crate::error::{LinalgError, Result};
use crate::vector::Vector;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense matrix stored in row-major order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    #[must_use]
    pub fn diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.set(i, i, d);
        }
        m
    }

    /// Builds a matrix from a nested slice of rows.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    #[must_use]
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Builds a matrix by evaluating `f(i, j)`.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Builds a matrix from row-major data.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidArgument`] when `data.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidArgument {
                message: format!(
                    "row-major data has {} entries, expected {}",
                    data.len(),
                    rows * cols
                ),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Outer product `a * b^T`.
    #[must_use]
    pub fn outer(a: &Vector, b: &Vector) -> Self {
        let mut m = Self::zeros(a.len(), b.len());
        for i in 0..a.len() {
            for j in 0..b.len() {
                m.set(i, j, a[i] * b[j]);
            }
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` when the matrix is square.
    #[must_use]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Element accessor.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Element mutator.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        self.data[i * self.cols + j] = value;
    }

    /// Adds `value` to element `(i, j)`.
    pub fn add_to(&mut self, i: usize, j: usize, value: f64) {
        self.data[i * self.cols + j] += value;
    }

    /// Immutable view of the `i`-th row.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies the `j`-th column into a new [`Vector`].
    #[must_use]
    pub fn column(&self, j: usize) -> Vector {
        Vector::from_fn(self.rows, |i| self.get(i, j))
    }

    /// Copies the main diagonal into a new [`Vector`].
    #[must_use]
    pub fn diag(&self) -> Vector {
        let n = self.rows.min(self.cols);
        Vector::from_fn(n, |i| self.get(i, i))
    }

    /// Raw row-major data.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Resizes the matrix to `rows x cols` and fills it with zeros, reusing
    /// the existing allocation whenever its capacity suffices.
    ///
    /// Used by in-place factorisations ([`crate::Cholesky::factor_into`])
    /// that need a clean buffer without a fresh allocation each call.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Trace (sum of diagonal entries).
    #[must_use]
    pub fn trace(&self) -> f64 {
        (0..self.rows.min(self.cols)).map(|i| self.get(i, i)).sum()
    }

    /// Frobenius norm.
    #[must_use]
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Returns a transposed copy.
    #[must_use]
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Returns a copy scaled by `factor`.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * factor).collect(),
        }
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    /// Panics when `x.len() != self.cols()`.
    #[must_use]
    pub fn matvec(&self, x: &Vector) -> Vector {
        assert_eq!(
            x.len(),
            self.cols,
            "matvec: vector length {} does not match {} columns",
            x.len(),
            self.cols
        );
        Vector::from_fn(self.rows, |i| {
            let row = self.row(i);
            row.iter().zip(x.iter()).map(|(a, b)| a * b).sum()
        })
    }

    /// Transposed matrix–vector product `A^T x`.
    ///
    /// # Panics
    /// Panics when `x.len() != self.rows()`.
    #[must_use]
    pub fn matvec_transposed(&self, x: &Vector) -> Vector {
        assert_eq!(
            x.len(),
            self.rows,
            "matvec_transposed: vector length {} does not match {} rows",
            x.len(),
            self.rows
        );
        let mut out = Vector::zeros(self.cols);
        for i in 0..self.rows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            let row = self.row(i);
            for j in 0..self.cols {
                out[j] += xi * row[j];
            }
        }
        out
    }

    /// Matrix–matrix product `A B`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when inner dimensions differ.
    pub fn matmul(&self, other: &Self) -> Result<Self> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "Matrix::matmul",
                expected: self.cols,
                actual: other.rows,
            });
        }
        let mut out = Self::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.add_to(i, j, aik * other.get(k, j));
                }
            }
        }
        Ok(out)
    }

    /// Quadratic form `x^T A x`.
    ///
    /// # Panics
    /// Panics when the matrix is not square or `x.len() != n`.
    #[must_use]
    pub fn quadratic_form(&self, x: &Vector) -> f64 {
        assert!(self.is_square(), "quadratic_form requires a square matrix");
        // pdm-lint: allow(no-unwrap-in-lib) reason="matvec already rejected any dimension mismatch for the same x on this line"
        self.matvec(x).dot(x).expect("dimensions checked above")
    }

    /// In-place symmetric rank-one update `A += alpha * v v^T`.
    ///
    /// # Panics
    /// Panics when the matrix is not square or `v.len() != n`.
    pub fn rank_one_update(&mut self, alpha: f64, v: &Vector) {
        assert!(self.is_square(), "rank_one_update requires a square matrix");
        assert_eq!(v.len(), self.rows, "rank_one_update: dimension mismatch");
        for i in 0..self.rows {
            let vi = v[i];
            for j in 0..self.cols {
                self.add_to(i, j, alpha * vi * v[j]);
            }
        }
    }

    /// Maximum absolute asymmetry `max_ij |A[i][j] - A[j][i]|` (zero for
    /// non-square matrices is meaningless, so this panics in that case).
    ///
    /// # Panics
    /// Panics when the matrix is not square.
    #[must_use]
    pub fn max_asymmetry(&self) -> f64 {
        assert!(self.is_square(), "max_asymmetry requires a square matrix");
        let mut worst = 0.0_f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self.get(i, j) - self.get(j, i)).abs());
            }
        }
        worst
    }

    /// Returns `true` when the matrix is symmetric within `tol`.
    #[must_use]
    pub fn is_symmetric(&self, tol: f64) -> bool {
        self.is_square() && self.max_asymmetry() <= tol
    }

    /// Forces exact symmetry by replacing every off-diagonal pair with its
    /// average `0.5 · (aᵢⱼ + aⱼᵢ)`.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self.get(i, j) + self.get(j, i));
                self.set(i, j, avg);
                self.set(j, i, avg);
            }
        }
    }

    /// Returns `true` when every entry is finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Solves `A x = b` by Gaussian elimination with partial pivoting.
    ///
    /// This is a general-purpose solver used by the learners and the simplex
    /// tableau construction; the pricing hot path never calls it.
    ///
    /// # Errors
    /// Returns [`LinalgError::NotSquare`] for non-square systems and
    /// [`LinalgError::InvalidArgument`] for singular systems or mismatched
    /// right-hand-side lengths.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        if b.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "Matrix::solve",
                expected: self.rows,
                actual: b.len(),
            });
        }
        let n = self.rows;
        // Build the augmented system [A | b] and run Gauss-Jordan with
        // partial pivoting.
        let mut a = self.clone();
        let mut rhs = b.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for col in 0..n {
            // Pivot selection.
            let (pivot_row, pivot_val) =
                (col..n)
                    .map(|r| (r, a.get(r, col).abs()))
                    .fold(
                        (col, 0.0),
                        |acc, item| if item.1 > acc.1 { item } else { acc },
                    );
            if pivot_val < 1e-14 {
                return Err(LinalgError::InvalidArgument {
                    message: format!("singular matrix at column {col}"),
                });
            }
            if pivot_row != col {
                for j in 0..n {
                    let tmp = a.get(col, j);
                    a.set(col, j, a.get(pivot_row, j));
                    a.set(pivot_row, j, tmp);
                }
                let tmp = rhs[col];
                rhs[col] = rhs[pivot_row];
                rhs[pivot_row] = tmp;
                perm.swap(col, pivot_row);
            }
            // Eliminate below.
            let pivot = a.get(col, col);
            for r in (col + 1)..n {
                let factor = a.get(r, col) / pivot;
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    let updated = a.get(r, j) - factor * a.get(col, j);
                    a.set(r, j, updated);
                }
                rhs[r] -= factor * rhs[col];
            }
        }
        // Back substitution.
        let mut x = Vector::zeros(n);
        for i in (0..n).rev() {
            let mut acc = rhs[i];
            for j in (i + 1)..n {
                acc -= a.get(i, j) * x[j];
            }
            x[i] = acc / a.get(i, i);
        }
        Ok(x)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &Self::Output {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Self::Output {
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "Matrix add: row mismatch");
        assert_eq!(self.cols, rhs.cols, "Matrix add: column mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "Matrix sub: row mismatch");
        assert_eq!(self.cols, rhs.cols, "Matrix sub: column mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        self.scaled(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn example() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])
    }

    #[test]
    fn constructors_and_accessors() {
        let m = example();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.column(0).as_slice(), &[1.0, 3.0]);
        assert_eq!(m.diag().as_slice(), &[1.0, 4.0]);

        let id = Matrix::identity(3);
        assert_eq!(id.trace(), 3.0);
        let d = Matrix::diagonal(&[1.0, 2.0, 3.0]);
        assert_eq!(d.get(2, 2), 3.0);
        assert_eq!(d.get(0, 1), 0.0);
    }

    #[test]
    fn from_row_major_checks_length() {
        assert!(Matrix::from_row_major(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        let m = Matrix::from_row_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m, example());
    }

    #[test]
    fn matvec_and_transpose() {
        let m = example();
        let x = Vector::from_slice(&[1.0, 1.0]);
        assert_eq!(m.matvec(&x).as_slice(), &[3.0, 7.0]);
        assert_eq!(m.transpose().matvec(&x).as_slice(), &[4.0, 6.0]);
        assert_eq!(m.matvec_transposed(&x).as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = example();
        let b = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[vec![2.0, 1.0], vec![4.0, 3.0]]));
        assert!(a.matmul(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn quadratic_form_matches_direct_evaluation() {
        let a = Matrix::from_rows(&[vec![2.0, 0.5], vec![0.5, 1.0]]);
        let x = Vector::from_slice(&[1.0, 2.0]);
        // x^T A x = 2 + 0.5*2 + 0.5*2 + 4 = 8
        assert!(approx_eq(a.quadratic_form(&x), 8.0, 1e-12));
    }

    #[test]
    fn rank_one_update_and_outer() {
        let v = Vector::from_slice(&[1.0, 2.0]);
        let mut a = Matrix::identity(2);
        a.rank_one_update(2.0, &v);
        let expected = &Matrix::identity(2) + &Matrix::outer(&v, &v).scaled(2.0);
        assert_eq!(a, expected);
    }

    #[test]
    fn symmetry_helpers() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0 + 1e-8, 1.0]]);
        assert!(!m.is_symmetric(1e-12));
        assert!(m.is_symmetric(1e-6));
        m.symmetrize();
        assert!(m.is_symmetric(0.0));
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ]);
        let x_true = Vector::from_slice(&[1.0, -2.0, 3.0]);
        let b = a.matvec(&x_true);
        let x = a.solve(&b).unwrap();
        for i in 0..3 {
            assert!(approx_eq(x[i], x_true[i], 1e-9));
        }
    }

    #[test]
    fn solve_rejects_singular() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(a.solve(&Vector::from_slice(&[1.0, 2.0])).is_err());
    }

    #[test]
    fn solve_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            a.solve(&Vector::zeros(2)),
            Err(LinalgError::NotSquare { .. })
        ));
        let b = Matrix::identity(2);
        assert!(matches!(
            b.solve(&Vector::zeros(3)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn arithmetic_operators() {
        let a = example();
        let b = Matrix::identity(2);
        assert_eq!((&a + &b).get(0, 0), 2.0);
        assert_eq!((&a - &b).get(1, 1), 3.0);
        assert_eq!((&a * 2.0).get(1, 0), 6.0);
    }

    #[test]
    fn frobenius_norm_matches_hand_computation() {
        let m = example();
        assert!(approx_eq(m.frobenius_norm(), 30.0_f64.sqrt(), 1e-12));
    }

    #[test]
    fn resize_zeroed_clears_a_dirty_buffer() {
        let mut dst = example();
        dst.resize_zeroed(2, 3);
        assert_eq!(dst, Matrix::zeros(2, 3));
    }

    #[test]
    fn finite_detection() {
        assert!(example().is_finite());
        let mut m = example();
        m.set(0, 0, f64::NAN);
        assert!(!m.is_finite());
    }
}
