//! # pdm-linalg
//!
//! A small, dependency-free dense linear-algebra substrate used throughout the
//! `personal-data-pricing` workspace.
//!
//! The ellipsoid-based pricing mechanism of Niu et al. (ICDE 2020) only needs
//! a handful of operations — matrix–vector products and rank-one updates of a
//! symmetric positive-definite shape matrix (stored as its packed upper
//! triangle, [`PackedSymmetric`]), eigenvalues (for ellipsoid volumes and
//! axis widths), and Cholesky factorisation (for positive definiteness
//! checks and the ordinary-least-squares learner) — so this crate
//! implements exactly those, plus a dense simplex linear-programming solver
//! used in tests to cross-check ellipsoid bounds against the exact polytope
//! knowledge set.
//!
//! Because this crate is the dependency-free root of the workspace DAG it
//! also hosts the shared, non-numeric utilities: the deterministic [`json`]
//! tree (bench reports, service snapshots), the streaming statistics of
//! [`stats`], and the fixed log-bucket grid of [`logbucket`] that the
//! observability layer's mergeable histograms are built on.
//!
//! Everything is `f64`, row-major, and written for clarity first; the matrix
//! dimensions in the paper (n ≤ 1024) are small enough that straightforward
//! O(n³) algorithms are more than fast enough.
//!
//! ## Quick example
//!
//! ```
//! use pdm_linalg::{Matrix, Vector};
//!
//! let a = Matrix::identity(3).scaled(2.0);
//! let x = Vector::from_slice(&[1.0, 2.0, 3.0]);
//! let y = a.matvec(&x);
//! assert_eq!(y.as_slice(), &[2.0, 4.0, 6.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cholesky;
pub mod eigen;
pub mod error;
pub mod json;
pub mod logbucket;
pub mod matrix;
pub mod packed;
pub mod sampling;
pub mod simplex;
pub mod stats;
pub mod vector;

pub use cholesky::{Cholesky, PackedCholesky};
pub use eigen::{jacobi_eigen, EigenDecomposition};
pub use error::{LinalgError, Result};
pub use json::Json;
pub use matrix::Matrix;
pub use packed::PackedSymmetric;
pub use simplex::{LinearProgram, LpOutcome, LpSolution};
pub use stats::{
    mean, population_std, quantile_sorted, quantiles, sample_std, OnlineStats, SampleWindow,
};
pub use vector::Vector;

/// Numerical tolerance used across the crate for "is this effectively zero"
/// style checks (symmetry, positive-definiteness margins, convergence).
pub const EPS: f64 = 1e-10;

/// Returns `true` when two floating point values agree up to `tol` in either
/// absolute or relative terms.
///
/// This is the comparison helper used by the test suites across the workspace;
/// it is exposed publicly so downstream crates compare numbers consistently.
#[must_use]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.01, 1e-9));
    }

    #[test]
    fn approx_eq_relative_for_large_values() {
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-9));
        assert!(!approx_eq(1e12, 1.1e12, 1e-9));
    }

    #[test]
    fn approx_eq_handles_zero() {
        assert!(approx_eq(0.0, 0.0, 1e-12));
        assert!(approx_eq(0.0, 1e-13, 1e-12));
        assert!(!approx_eq(0.0, 1e-3, 1e-12));
    }
}
