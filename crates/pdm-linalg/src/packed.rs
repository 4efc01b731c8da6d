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
//! `A ← (A + α v vᵀ) β`, in place).  The positive-definiteness check and
//! the log-determinant factor the triangle where it lies
//! ([`crate::PackedCholesky`]).  Everything else — eigenvalues, solves —
//! expands the triangle with [`PackedSymmetric::to_dense`] first.

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

    /// Takes `data` as the packed upper triangle of a `dim × dim` matrix,
    /// row by row (the layout of [`PackedSymmetric::as_slice`]).
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] unless `data` holds
    /// exactly `dim(dim+1)/2` entries, and [`LinalgError::NonFinite`] when
    /// any entry is not finite.
    pub fn from_packed(dim: usize, data: Vec<f64>) -> Result<Self> {
        let expected = dim
            .checked_add(1)
            .and_then(|next| dim.checked_mul(next))
            .map_or(usize::MAX, |twice| twice / 2);
        if data.len() != expected {
            return Err(LinalgError::DimensionMismatch {
                operation: "PackedSymmetric::from_packed",
                expected,
                actual: data.len(),
            });
        }
        let packed = Self { dim, data };
        if !packed.is_finite() {
            return Err(LinalgError::NonFinite {
                operation: "PackedSymmetric::from_packed",
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
    /// Rows go four to a block, so the block's four dots are independent
    /// chains in one loop over the columns instead of one serial chain
    /// after another.  Each sum keeps the order of the row-by-row loop: a
    /// dot adds its terms in column order, as `Sum` does, and `yⱼ` adds
    /// the rows' terms in row order, so every bit of `y` and of the form
    /// is the row-by-row loop's.  The last `n mod 4` rows go one at a
    /// time.
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
        let mut i = 0;
        while i + 4 <= n {
            let len = n - i;
            let (row0, rest) = self.data[start..].split_at(len);
            let (row1, rest) = rest.split_at(len - 1);
            let (row2, rest) = rest.split_at(len - 2);
            let row3 = &rest[..len - 3];
            start += 4 * len - 6;
            let (x0, x1, x2, x3) = (x[i], x[i + 1], x[i + 2], x[i + 3]);
            // The columns inside the block first (`Sum` starts from `-0.0`,
            // which leaves the first term as it is), …
            let mut d0 = row0[0] * x0 + row0[1] * x1 + row0[2] * x2 + row0[3] * x3;
            let mut d1 = row1[0] * x1 + row1[1] * x2 + row1[2] * x3;
            let mut d2 = row2[0] * x2 + row2[1] * x3;
            let mut d3 = row3[0] * x3;
            // … then every column after it, which each of the four rows
            // reaches with its dot and its axpy.
            let after = row0[4..]
                .iter()
                .zip(&row1[3..])
                .zip(&row2[2..])
                .zip(&row3[1..])
                .zip(&x[i + 4..])
                .zip(&mut out[i + 4..]);
            for (((((&a0, &a1), &a2), &a3), &xj), yj) in after {
                d0 += a0 * xj;
                d1 += a1 * xj;
                d2 += a2 * xj;
                d3 += a3 * xj;
                *yj += x0 * a0;
                *yj += x1 * a1;
                *yj += x2 * a2;
                *yj += x3 * a3;
            }
            // The block's own `y`s: the axpys of the rows above in the
            // block, then the row's dot.
            out[i] += d0;
            out[i + 1] += x0 * row0[1];
            out[i + 1] += d1;
            out[i + 2] += x0 * row0[2];
            out[i + 2] += x1 * row1[1];
            out[i + 2] += d2;
            out[i + 3] += x0 * row0[3];
            out[i + 3] += x1 * row1[2];
            out[i + 3] += x2 * row2[1];
            out[i + 3] += d3;
            i += 4;
        }
        for i in i..n {
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        assert_eq!(packed.max_diagonal(), 4.0);
    }

    #[test]
    fn from_packed_takes_the_triangle_and_refuses_a_wrong_length_or_non_finite_entry() {
        let packed = PackedSymmetric::from_dense(&example()).unwrap();
        let again = PackedSymmetric::from_packed(3, packed.as_slice().to_vec()).unwrap();
        assert_eq!(again, packed);
        assert_eq!(
            PackedSymmetric::from_packed(0, Vec::new()).unwrap().dim(),
            0
        );
        for len in [5, 7, 9] {
            assert!(matches!(
                PackedSymmetric::from_packed(3, vec![1.0; len]),
                Err(LinalgError::DimensionMismatch {
                    expected: 6,
                    actual,
                    ..
                }) if actual == len
            ));
        }
        // A dimension whose triangle length overflows is a mismatch, not
        // a wrapped length or a panic.
        assert!(PackedSymmetric::from_packed(usize::MAX, vec![1.0]).is_err());
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut data = packed.as_slice().to_vec();
            data[4] = poison;
            assert!(matches!(
                PackedSymmetric::from_packed(3, data),
                Err(LinalgError::NonFinite { .. })
            ));
        }
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

    /// The row-by-row loop `quadratic_form_with` ran before it took rows
    /// four at a time: the oracle its bits must match.
    fn quadratic_form_by_rows(packed: &PackedSymmetric, x: &[f64], out: &mut Vec<f64>) -> f64 {
        let n = packed.dim();
        out.clear();
        out.resize(n, 0.0);
        let mut start = 0;
        for i in 0..n {
            let row = &packed.as_slice()[start..start + n - i];
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

    /// Exact zeros of both signs, negatives, and values of many scales,
    /// so sums cancel, round and keep a zero's sign.
    fn awkward(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..6) {
            0 => 0.0,
            1 => -0.0,
            2 => -rng.gen_range(0.0..4.0f64),
            3 => rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-12..12)),
            4 => f64::from(rng.gen_range(-3..=3)),
            _ => rng.gen_range(0.0..4.0),
        }
    }

    /// A random triangle and vector of `dim` drawn from [`awkward`].
    fn random_case(rng: &mut StdRng, dim: usize) -> (PackedSymmetric, Vector) {
        let data: Vec<f64> = (0..packed_len(dim)).map(|_| awkward(rng)).collect();
        let packed = PackedSymmetric::from_packed(dim, data).unwrap();
        (packed, Vector::from_fn(dim, |_| awkward(rng)))
    }

    /// `quadratic_form_with` against the row-by-row loop, by bits.
    fn assert_matches_rows(packed: &PackedSymmetric, x: &Vector) {
        let dim = packed.dim();
        let mut y = Vector::zeros(0);
        let mut expected_y = Vec::new();
        let form = packed.quadratic_form_with(x, &mut y);
        let expected = quadratic_form_by_rows(packed, x.as_slice(), &mut expected_y);
        assert_eq!(
            form.to_bits(),
            expected.to_bits(),
            "dim {dim}: {form} vs {expected}"
        );
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(y.as_slice()), bits(&expected_y), "dim {dim}");
    }

    #[test]
    fn every_block_remainder_keeps_the_row_by_row_bits() {
        // Dims 1–9 run each remainder 0–3 with no block, one and two.
        let mut rng = StdRng::seed_from_u64(9);
        for dim in 1..=9 {
            for _ in 0..4 {
                let (packed, x) = random_case(&mut rng, dim);
                assert_matches_rows(&packed, &x);
            }
            // Zeros of both signs only: the form keeps the sign its chain
            // gives a zero sum.
            let packed = PackedSymmetric::scaled_identity(dim, -0.0);
            let x = Vector::from_fn(dim, |i| if i % 2 == 0 { -0.0 } else { 0.0 });
            assert_matches_rows(&packed, &x);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_form_keeps_the_row_by_row_bits(seed in 0u64..u64::MAX, dim in 1usize..34) {
            let (packed, x) = random_case(&mut StdRng::seed_from_u64(seed), dim);
            assert_matches_rows(&packed, &x);
        }
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
