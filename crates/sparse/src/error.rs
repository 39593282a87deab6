//! Error types for the sparse solvers.

use std::fmt;

/// Result alias for sparse operations.
pub type SparseResult<T> = std::result::Result<T, SolveError>;

/// Errors produced by factorizations and iterative solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// A factorization hit a non-positive pivot — the matrix is not SPD
    /// (or the MIC(0) preconditioner broke down, which for M-matrices like
    /// PDN conductance matrices indicates a stamping bug).
    NotPositiveDefinite {
        /// Row at which the breakdown occurred.
        row: usize,
        /// The offending pivot value.
        pivot: f64,
    },
    /// The iterative solver exhausted its iteration budget without reaching
    /// the requested tolerance.
    NotConverged {
        /// Iterations performed.
        iterations: usize,
        /// Relative residual at the last iteration.
        residual: f64,
    },
    /// Operand dimensions are incompatible.
    DimensionMismatch {
        /// Description of the mismatch.
        detail: String,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::NotPositiveDefinite { row, pivot } => {
                write!(f, "matrix is not positive definite: pivot {pivot:e} at row {row}")
            }
            SolveError::NotConverged { iterations, residual } => {
                write!(f, "solver did not converge after {iterations} iterations (relative residual {residual:e})")
            }
            SolveError::DimensionMismatch { detail } => {
                write!(f, "dimension mismatch: {detail}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = SolveError::NotConverged { iterations: 10, residual: 1e-3 };
        assert!(e.to_string().contains("10 iterations"));
        let e = SolveError::NotPositiveDefinite { row: 3, pivot: -1.0 };
        assert!(e.to_string().contains("row 3"));
    }
}
