//! Error types for the linear-algebra substrate.

use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Errors that can arise from linear-algebra operations.
///
/// The pricing code treats most of these as programming errors (dimension
/// mismatches) or as signals that a knowledge set has degenerated numerically
/// (loss of positive definiteness), so the variants carry enough context to
/// produce actionable messages.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Two operands had incompatible dimensions.
    DimensionMismatch {
        /// Human-readable name of the operation that failed.
        operation: &'static str,
        /// Dimension expected by the operation.
        expected: usize,
        /// Dimension actually provided.
        actual: usize,
    },
    /// A matrix expected to be square was not.
    NotSquare {
        /// Number of rows of the offending matrix.
        rows: usize,
        /// Number of columns of the offending matrix.
        cols: usize,
    },
    /// A matrix expected to be symmetric was not (beyond tolerance).
    NotSymmetric {
        /// Maximum absolute asymmetry `|A[i][j] - A[j][i]|` observed.
        max_asymmetry: f64,
    },
    /// A matrix expected to be positive definite was not.
    NotPositiveDefinite {
        /// Index of the pivot at which the Cholesky factorisation failed.
        pivot: usize,
        /// Value of the failing pivot.
        value: f64,
    },
    /// An iterative algorithm failed to converge.
    NoConvergence {
        /// Human-readable name of the algorithm.
        algorithm: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// The linear program was infeasible.
    Infeasible,
    /// The linear program was unbounded in the optimisation direction.
    Unbounded,
    /// A vector or matrix that must be non-empty was empty.
    Empty {
        /// Human-readable name of the operation that failed.
        operation: &'static str,
    },
    /// A vector or matrix that must hold only finite numbers held a NaN or
    /// an infinity.
    NonFinite {
        /// Human-readable name of the operation that refused the value.
        operation: &'static str,
    },
    /// A scalar argument was outside its valid domain.
    InvalidArgument {
        /// Description of the violated requirement.
        message: String,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch {
                operation,
                expected,
                actual,
            } => write!(
                f,
                "dimension mismatch in {operation}: expected {expected}, got {actual}"
            ),
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square: {rows}x{cols}")
            }
            LinalgError::NotSymmetric { max_asymmetry } => {
                write!(
                    f,
                    "matrix is not symmetric (max asymmetry {max_asymmetry:e})"
                )
            }
            LinalgError::NotPositiveDefinite { pivot, value } => write!(
                f,
                "matrix is not positive definite (pivot {pivot} has value {value:e})"
            ),
            LinalgError::NoConvergence {
                algorithm,
                iterations,
            } => write!(
                f,
                "{algorithm} failed to converge after {iterations} iterations"
            ),
            LinalgError::Infeasible => write!(f, "linear program is infeasible"),
            LinalgError::Unbounded => write!(f, "linear program is unbounded"),
            LinalgError::Empty { operation } => {
                write!(f, "{operation} requires a non-empty operand")
            }
            LinalgError::NonFinite { operation } => {
                write!(f, "{operation} requires finite entries")
            }
            LinalgError::InvalidArgument { message } => {
                write!(f, "invalid argument: {message}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let err = LinalgError::DimensionMismatch {
            operation: "dot",
            expected: 3,
            actual: 4,
        };
        let msg = err.to_string();
        assert!(msg.contains("dot"));
        assert!(msg.contains('3'));
        assert!(msg.contains('4'));
    }

    #[test]
    fn display_not_positive_definite() {
        let err = LinalgError::NotPositiveDefinite {
            pivot: 2,
            value: -1.5,
        };
        assert!(err.to_string().contains("positive definite"));
    }

    #[test]
    fn display_infeasible_and_unbounded() {
        assert!(LinalgError::Infeasible.to_string().contains("infeasible"));
        assert!(LinalgError::Unbounded.to_string().contains("unbounded"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_error(_e: &dyn std::error::Error) {}
        takes_error(&LinalgError::Infeasible);
    }
}
