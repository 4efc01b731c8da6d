//! Symmetric matrices stored as their packed upper triangle.
//!
//! [`PackedSymmetric`] keeps the `n(n+1)/2` entries `aᵢⱼ` with `i ≤ j`,
//! row by row: row `i` is the contiguous run `aᵢᵢ, aᵢ,ᵢ₊₁, …, aᵢ,ₙ₋₁`.
//! The lower triangle is never stored, so the matrix is symmetric by
//! construction and holds half the floats of a dense [`Matrix`].
//!
//! It is the ellipsoid mechanism's shape matrix.  The two per-round
//! kernels each make one contiguous pass over the triangle:
//! [`PackedSymmetric::quadratic_form_with`] (the quote's `A x` and
//! `xᵀ A x`) and [`PackedSymmetric::rank_one_update_scaled`] (the cut's
//! `A ← (A + α v vᵀ) β`, in place).  Everything else — factorisations,
//! eigenvalues, solves — expands the triangle with
//! [`PackedSymmetric::to_dense`] first.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::vector::Vector;

/// A symmetric `n × n` matrix stored as its packed upper triangle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedSymmetric {
    dim: usize,
    data: Vec<f64>,
}

/// Number of stored entries of an `n × n` packed triangle.
fn packed_len(n: usize) -> usize {
    n * (n + 1) / 2
}

impl PackedSymmetric {
    /// `value · I` of dimension `dim`, built directly in packed form.
    #[must_use]
    pub fn scaled_identity(dim: usize, value: f64) -> Self {
        let mut data = vec![0.0; packed_len(dim)];
        let mut start = 0;
        for i in 0..dim {
            data[start] = value;
            start += dim - i;
        }
        Self { dim, data }
    }

    /// Packs a dense square matrix, symmetrizing it on the way: each stored
    /// entry is `aᵢⱼ` when `aᵢⱼ = aⱼᵢ`, and their average `0.5 · (aᵢⱼ + aⱼᵢ)`
    /// otherwise.  A symmetric input is therefore packed exactly.
    ///
    /// # Errors
    /// Returns [`LinalgError::NotSquare`] for a non-square input and
    /// [`LinalgError::NonFinite`] when any packed entry is not finite (which
    /// is the case whenever any entry of the input is not finite, and when
    /// an average overflows).
    pub fn from_dense(matrix: &Matrix) -> Result<Self> {
        if !matrix.is_square() {
            return Err(LinalgError::NotSquare {
                rows: matrix.rows(),
                cols: matrix.cols(),
            });
        }
        let dim = matrix.rows();
        let mut data = Vec::with_capacity(packed_len(dim));
        for i in 0..dim {
            data.extend((i..dim).map(|j| {
                let (upper, lower) = (matrix.get(i, j), matrix.get(j, i));
                if upper == lower {
                    upper
                } else {
                    0.5 * (upper + lower)
                }
            }));
        }
        let packed = Self { dim, data };
        if !packed.is_finite() {
            return Err(LinalgError::NonFinite {
                operation: "PackedSymmetric::from_dense",
            });
        }
        Ok(packed)
    }

    /// Expands the triangle into a dense, exactly symmetric matrix.
    #[must_use]
    pub fn to_dense(&self) -> Matrix {
        Matrix::from_fn(self.dim, self.dim, |i, j| self.get(i, j))
    }

    /// Dimension `n`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Offset of row `i` (the entry `aᵢᵢ`) in the packed data.
    fn row_start(&self, i: usize) -> usize {
        i * (2 * self.dim + 1 - i) / 2
    }

    /// Element `aᵢⱼ` (equal to `aⱼᵢ`).
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (i, j) = if i <= j { (i, j) } else { (j, i) };
        self.data[self.row_start(i) + j - i]
    }

    /// Sets `aᵢⱼ` and, with it, `aⱼᵢ`.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        let (i, j) = if i <= j { (i, j) } else { (j, i) };
        let index = self.row_start(i) + j - i;
        self.data[index] = value;
    }

    /// The packed upper triangle, row by row.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Number of `f64` slots the packed buffer has allocated.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Every entry of the full `n × n` matrix in row-major order, read
    /// straight from the triangle (no dense copy is built).
    pub fn dense_row_major(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.dim).flat_map(move |i| (0..self.dim).map(move |j| self.get(i, j)))
    }

    /// The largest diagonal entry, or `0` when every diagonal entry is
    /// `≤ 0`.  For a positive semi-definite matrix `|aᵢⱼ| ≤ max aᵢᵢ`, so
    /// this bounds every entry.
    #[must_use]
    pub fn max_diagonal(&self) -> f64 {
        (0..self.dim)
            .map(|i| self.data[self.row_start(i)])
            .fold(0.0, f64::max)
    }

    /// Scales the matrix in place by `factor`.
    pub fn scale_mut(&mut self, factor: f64) {
        for x in &mut self.data {
            *x *= factor;
        }
    }

    /// Returns `true` when every entry is finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Matrix–vector product `A x` (allocating; bit-for-bit the `A x` of
    /// [`PackedSymmetric::quadratic_form_with`]).
    ///
    /// # Panics
    /// Panics when `x.len() != self.dim()`.
    #[must_use]
    pub fn matvec(&self, x: &Vector) -> Vector {
        let mut y = Vector::zeros(0);
        self.quadratic_form_with(x, &mut y);
        y
    }

    /// Quadratic form `xᵀ A x` (allocating; bit-for-bit the value of
    /// [`PackedSymmetric::quadratic_form_with`]).
    ///
    /// # Panics
    /// Panics when `x.len() != self.dim()`.
    #[must_use]
    pub fn quadratic_form(&self, x: &Vector) -> f64 {
        let mut y = Vector::zeros(0);
        self.quadratic_form_with(x, &mut y)
    }

    /// Quadratic form `xᵀ A x`, leaving `A x` in the caller-owned `y`
    /// (resized to `n`) without allocating beyond its capacity.
    ///
    /// One pass over the triangle.  Row `i` contributes one contiguous dot
    /// product `Σ_{j ≥ i} aᵢⱼ xⱼ` to `yᵢ`, and one contiguous axpy
    /// `yⱼ += xᵢ aᵢⱼ` for `j > i` (its mirror image in the lower triangle).
    /// `yᵢ` is final once row `i` is done: rows before it have added their
    /// `aₖᵢ xₖ`.  The form is then `Σᵢ yᵢ xᵢ`.
    ///
    /// # Panics
    /// Panics when `x.len() != self.dim()`.
    pub fn quadratic_form_with(&self, x: &Vector, y: &mut Vector) -> f64 {
        let n = self.dim;
        assert_eq!(
            x.len(),
            n,
            "quadratic_form_with: vector length {} does not match dimension {n}",
            x.len()
        );
        y.resize(n);
        let out = y.as_mut_slice();
        out.fill(0.0);
        let x = x.as_slice();
        let mut start = 0;
        for i in 0..n {
            let row = &self.data[start..start + n - i];
            start += n - i;
            let dot: f64 = row.iter().zip(&x[i..]).map(|(a, b)| a * b).sum();
            out[i] += dot;
            let xi = x[i];
            for (slot, &a) in out[i + 1..].iter_mut().zip(&row[1..]) {
                *slot += xi * a;
            }
        }
        out.iter().zip(x).map(|(m, d)| m * d).sum()
    }

    /// In-place scaled rank-one update `aᵢⱼ ← (aᵢⱼ + α·(vᵢ vⱼ)) · β`.
    ///
    /// The product `vᵢ vⱼ` is formed first, and `vᵢ vⱼ = vⱼ vᵢ` holds
    /// exactly in IEEE-754 arithmetic, so the update of the full matrix is
    /// exactly symmetric and computing the stored triangle is computing all
    /// of it.  One contiguous pass that the compiler vectorises.  The
    /// caller decides beforehand whether the result stays finite; nothing
    /// here checks it.
    ///
    /// # Panics
    /// Panics when `v.len() != self.dim()`.
    pub fn rank_one_update_scaled(&mut self, alpha: f64, v: &Vector, beta: f64) {
        let n = self.dim;
        assert_eq!(v.len(), n, "rank_one_update_scaled: dimension mismatch");
        let v = v.as_slice();
        let mut start = 0;
        for i in 0..n {
            let row = &mut self.data[start..start + n - i];
            start += n - i;
            let vi = v[i];
            for (a, &vj) in row.iter_mut().zip(&v[i..]) {
                *a = (*a + alpha * (vi * vj)) * beta;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Matrix {
        Matrix::from_rows(&[
            vec![4.0, 0.5, -1.25],
            vec![0.5, 3.0, 0.75],
            vec![-1.25, 0.75, 2.0],
        ])
    }

    #[test]
    fn packs_the_upper_triangle_row_by_row() {
        let packed = PackedSymmetric::from_dense(&example()).unwrap();
        assert_eq!(packed.dim(), 3);
        assert_eq!(packed.as_slice(), &[4.0, 0.5, -1.25, 3.0, 0.75, 2.0]);
        assert_eq!(packed.get(2, 0), -1.25);
        assert_eq!(packed.to_dense(), example());
        let dense: Vec<f64> = packed.dense_row_major().collect();
        assert_eq!(dense, example().as_slice());
        assert_eq!(packed.max_diagonal(), 4.0);
    }

    #[test]
    fn from_dense_averages_asymmetry_and_refuses_non_finite_entries() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 1.0]]);
        let packed = PackedSymmetric::from_dense(&m).unwrap();
        assert_eq!(packed.get(0, 1), 2.5);
        for poison in [f64::NAN, f64::INFINITY] {
            let mut m = example();
            m.set(2, 1, poison);
            assert!(matches!(
                PackedSymmetric::from_dense(&m),
                Err(LinalgError::NonFinite { .. })
            ));
        }
        let huge = Matrix::from_rows(&[vec![1.0, f64::MAX], vec![0.9 * f64::MAX, 1.0]]);
        assert!(PackedSymmetric::from_dense(&huge).is_err());
        assert!(matches!(
            PackedSymmetric::from_dense(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn scaled_identity_and_set() {
        let mut packed = PackedSymmetric::scaled_identity(3, 2.5);
        assert_eq!(packed.to_dense(), Matrix::identity(3).scaled(2.5));
        packed.set(2, 1, 7.0);
        assert_eq!(packed.get(1, 2), 7.0);
        packed.scale_mut(2.0);
        assert_eq!(packed.get(0, 0), 5.0);
        assert!(packed.is_finite());
    }

    #[test]
    fn quadratic_form_matches_the_dense_product() {
        let packed = PackedSymmetric::from_dense(&example()).unwrap();
        let x = Vector::from_slice(&[1.0, -2.0, 0.5]);
        let mut y = Vector::from_slice(&[f64::NAN; 5]);
        let q = packed.quadratic_form_with(&x, &mut y);
        // Small integers and halves: every product and sum is exact.
        assert_eq!(y.as_slice(), example().matvec(&x).as_slice());
        assert_eq!(q, example().quadratic_form(&x));
        assert_eq!(packed.matvec(&x), y);
        assert_eq!(packed.quadratic_form(&x).to_bits(), q.to_bits());
    }

    #[test]
    fn rank_one_update_is_symmetric_by_construction() {
        let mut packed = PackedSymmetric::from_dense(&example()).unwrap();
        let v = Vector::from_slice(&[0.5, -1.0, 2.0]);
        packed.rank_one_update_scaled(2.0, &v, 0.5);
        let expected = Matrix::from_fn(3, 3, |i, j| {
            (example().get(i, j) + 2.0 * (v[i] * v[j])) * 0.5
        });
        assert_eq!(packed.to_dense(), expected);
    }
}
