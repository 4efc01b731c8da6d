//! Dense `f64` vectors.
//!
//! [`Vector`] is a thin, owned wrapper around `Vec<f64>` with the operations
//! needed by the ellipsoid machinery (dot products, norms, scaled additions)
//! and by the learners (elementwise maps, slicing into feature blocks).

use crate::error::{LinalgError, Result};
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense, heap-allocated vector of `f64` values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a vector of `len` zeros.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Self {
            data: vec![0.0; len],
        }
    }

    /// Creates a vector of `len` ones.
    #[must_use]
    pub fn ones(len: usize) -> Self {
        Self {
            data: vec![1.0; len],
        }
    }

    /// Creates a vector whose entries are all `value`.
    #[must_use]
    pub fn filled(len: usize, value: f64) -> Self {
        Self {
            data: vec![value; len],
        }
    }

    /// Creates the `i`-th standard basis vector of dimension `len`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[must_use]
    pub fn basis(len: usize, i: usize) -> Self {
        assert!(i < len, "basis index {i} out of range for dimension {len}");
        let mut v = Self::zeros(len);
        v.data[i] = 1.0;
        v
    }

    /// Builds a vector from a slice.
    #[must_use]
    pub fn from_slice(values: &[f64]) -> Self {
        Self {
            data: values.to_vec(),
        }
    }

    /// Builds a vector from an owned `Vec<f64>` without copying.
    #[must_use]
    pub fn from_vec(values: Vec<f64>) -> Self {
        Self { data: values }
    }

    /// Builds a vector by evaluating `f(i)` for `i` in `0..len`.
    #[must_use]
    pub fn from_fn(len: usize, f: impl FnMut(usize) -> f64) -> Self {
        Self {
            data: (0..len).map(f).collect(),
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the vector has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying storage.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Overwrites `self` with the contents of `src`, reusing the existing
    /// allocation whenever its capacity suffices.
    ///
    /// This is the scratch-buffer primitive of the pricing hot loop: a
    /// session copies each round's features into a long-lived buffer instead
    /// of cloning a fresh `Vec` per round.
    pub fn copy_from(&mut self, src: &Vector) {
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Resizes the vector to `len` entries, zero-filling any growth and
    /// reusing the existing allocation whenever its capacity suffices.
    ///
    /// Used by the `*_into` kernels to shape a scratch buffer before
    /// overwriting every entry.
    pub fn resize(&mut self, len: usize) {
        self.data.resize(len, 0.0);
    }

    /// Number of entries the vector has allocated room for.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Consumes the vector and returns the underlying storage.
    #[must_use]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Iterator over entries.
    pub fn iter(&self) -> impl Iterator<Item = &f64> {
        self.data.iter()
    }

    /// Dot product with another vector.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
    pub fn dot(&self, other: &Self) -> Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "Vector::dot",
                expected: self.len(),
                actual: other.len(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum())
    }

    /// Euclidean (L2) norm.
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// L1 norm (sum of absolute values).
    #[must_use]
    pub fn norm_l1(&self) -> f64 {
        self.data.iter().map(|x| x.abs()).sum()
    }

    /// L∞ norm (maximum absolute value); zero for an empty vector.
    #[must_use]
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, x| acc.max(x.abs()))
    }

    /// Sum of entries.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of entries; zero for an empty vector.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f64
        }
    }

    /// Returns a copy scaled by `factor`.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            data: self.data.iter().map(|x| x * factor).collect(),
        }
    }

    /// Scales the vector in place by `factor`.
    pub fn scale_mut(&mut self, factor: f64) {
        for x in &mut self.data {
            *x *= factor;
        }
    }

    /// Returns a copy with each entry transformed by `f`.
    #[must_use]
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        Self {
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Normalises the vector to unit L2 norm and returns it.
    ///
    /// A zero vector is returned unchanged (there is no direction to keep).
    #[must_use]
    pub fn normalized(&self) -> Self {
        let n = self.norm();
        if n == 0.0 {
            self.clone()
        } else {
            self.scaled(1.0 / n)
        }
    }

    /// In-place `self += alpha * other` (the BLAS "axpy" primitive).
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
    pub fn axpy(&mut self, alpha: f64, other: &Self) -> Result<()> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "Vector::axpy",
                expected: self.len(),
                actual: other.len(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
    pub fn hadamard(&self, other: &Self) -> Result<Self> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "Vector::hadamard",
                expected: self.len(),
                actual: other.len(),
            });
        }
        Ok(Self {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a * b)
                .collect(),
        })
    }

    /// Largest entry; `f64::NEG_INFINITY` for an empty vector.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.data
            .iter()
            .fold(f64::NEG_INFINITY, |acc, &x| acc.max(x))
    }

    /// Smallest entry; `f64::INFINITY` for an empty vector.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.data.iter().fold(f64::INFINITY, |acc, &x| acc.min(x))
    }

    /// Number of entries whose absolute value exceeds `tol`.
    #[must_use]
    pub fn count_nonzero(&self, tol: f64) -> usize {
        self.data.iter().filter(|x| x.abs() > tol).count()
    }

    /// Returns `true` when every entry is finite (no NaN / infinity).
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Concatenates `self` with `other` into a new vector.
    #[must_use]
    pub fn concat(&self, other: &Self) -> Self {
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Self { data }
    }

    /// Euclidean distance to another vector.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
    pub fn distance(&self, other: &Self) -> Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "Vector::distance",
                expected: self.len(),
                actual: other.len(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt())
    }
}

impl Index<usize> for Vector {
    type Output = f64;

    fn index(&self, index: usize) -> &Self::Output {
        &self.data[index]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, index: usize) -> &mut Self::Output {
        &mut self.data[index]
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Self { data }
    }
}

impl From<&[f64]> for Vector {
    fn from(data: &[f64]) -> Self {
        Self::from_slice(data)
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Self {
            data: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for Vector {
    type Item = f64;
    type IntoIter = std::vec::IntoIter<f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.into_iter()
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl Add<&Vector> for &Vector {
    type Output = Vector;

    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "Vector add: length mismatch");
        Vector {
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub<&Vector> for &Vector {
    type Output = Vector;

    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "Vector sub: length mismatch");
        Vector {
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "Vector add_assign: length mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "Vector sub_assign: length mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;

    fn mul(self, rhs: f64) -> Vector {
        self.scaled(rhs)
    }
}

impl Neg for &Vector {
    type Output = Vector;

    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn constructors() {
        assert_eq!(Vector::zeros(3).as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(Vector::ones(2).as_slice(), &[1.0, 1.0]);
        assert_eq!(Vector::filled(2, 5.0).as_slice(), &[5.0, 5.0]);
        assert_eq!(Vector::basis(3, 1).as_slice(), &[0.0, 1.0, 0.0]);
        assert_eq!(
            Vector::from_fn(3, |i| i as f64).as_slice(),
            &[0.0, 1.0, 2.0]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basis_out_of_range_panics() {
        let _ = Vector::basis(2, 5);
    }

    #[test]
    fn dot_and_norms() {
        let a = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let b = Vector::from_slice(&[4.0, -5.0, 6.0]);
        assert!(approx_eq(a.dot(&b).unwrap(), 12.0, 1e-12));
        assert!(approx_eq(a.norm(), 14.0_f64.sqrt(), 1e-12));
        assert!(approx_eq(b.norm_l1(), 15.0, 1e-12));
        assert!(approx_eq(b.norm_inf(), 6.0, 1e-12));
    }

    #[test]
    fn dot_dimension_mismatch() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        assert!(matches!(
            a.dot(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn arithmetic_operators() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0, 4.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 6.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 2.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);

        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 6.0]);
        c -= &b;
        assert_eq!(c.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Vector::from_slice(&[1.0, 1.0]);
        let b = Vector::from_slice(&[2.0, 3.0]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 2.5]);
    }

    #[test]
    fn normalized_is_unit_norm() {
        let a = Vector::from_slice(&[3.0, 4.0]);
        assert!(approx_eq(a.normalized().norm(), 1.0, 1e-12));
        // A zero vector stays zero.
        let z = Vector::zeros(4);
        assert_eq!(z.normalized(), z);
    }

    #[test]
    fn statistics_helpers() {
        let a = Vector::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert!(approx_eq(a.sum(), 10.0, 1e-12));
        assert!(approx_eq(a.mean(), 2.5, 1e-12));
        assert!(approx_eq(a.max(), 4.0, 1e-12));
        assert!(approx_eq(a.min(), 1.0, 1e-12));
        assert_eq!(a.count_nonzero(1e-12), 4);
        assert_eq!(Vector::zeros(3).count_nonzero(1e-12), 0);
    }

    #[test]
    fn hadamard_product() {
        let a = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let b = Vector::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.hadamard(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn distance_and_concat() {
        let a = Vector::from_slice(&[0.0, 0.0]);
        let b = Vector::from_slice(&[3.0, 4.0]);
        assert!(approx_eq(a.distance(&b).unwrap(), 5.0, 1e-12));
        assert_eq!(a.concat(&b).as_slice(), &[0.0, 0.0, 3.0, 4.0]);
    }

    #[test]
    fn finite_detection() {
        assert!(Vector::from_slice(&[1.0, 2.0]).is_finite());
        assert!(!Vector::from_slice(&[1.0, f64::NAN]).is_finite());
        assert!(!Vector::from_slice(&[f64::INFINITY]).is_finite());
    }

    #[test]
    fn copy_from_reuses_capacity() {
        let mut buffer = Vector::zeros(4);
        let capacity_probe = buffer.data.capacity();
        let src = Vector::from_slice(&[1.0, 2.0]);
        buffer.copy_from(&src);
        assert_eq!(buffer.as_slice(), &[1.0, 2.0]);
        // Shrinking stays within the original allocation.
        assert_eq!(buffer.data.capacity(), capacity_probe);
        // Growing past capacity still produces the right contents.
        let big = Vector::from_fn(16, |i| i as f64);
        buffer.copy_from(&big);
        assert_eq!(buffer, big);
    }

    #[test]
    fn map_and_iterators() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        assert_eq!(a.map(|x| x * x).as_slice(), &[1.0, 4.0]);
        let collected: Vector = a.iter().map(|x| x + 1.0).collect();
        assert_eq!(collected.as_slice(), &[2.0, 3.0]);
        let summed: f64 = (&a).into_iter().sum();
        assert!(approx_eq(summed, 3.0, 1e-12));
    }
}
