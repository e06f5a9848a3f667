//! # emx-linalg — dense linear algebra substrate
//!
//! A small, self-contained dense linear-algebra library supporting the
//! Hartree–Fock kernel in `emx-chem`. It provides exactly the pieces an
//! SCF procedure needs and nothing more:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with the usual
//!   arithmetic, products, and norms.
//! * [`eigen::jacobi_eigen`] — a cyclic Jacobi eigensolver for real
//!   symmetric matrices (eigenvalues + orthonormal eigenvectors).
//! * [`ortho`] — symmetric (Löwdin) orthogonalization, i.e. `S^{-1/2}`
//!   construction from an overlap matrix.
//! * [`lu`] — partial-pivoting LU decomposition and solve (used by the
//!   DIIS convergence accelerator).
//!
//! The library is deliberately free of external dependencies so the whole
//! reproduction builds offline; it is not intended to compete with BLAS —
//! SCF matrices in this study are a few hundred rows at most.
//!
//! ## Example
//!
//! ```
//! use emx_linalg::{Matrix, eigen::jacobi_eigen};
//!
//! let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
//! let eig = jacobi_eigen(&a, 1e-12, 100).unwrap();
//! assert!((eig.values[0] - 1.0).abs() < 1e-10);
//! assert!((eig.values[1] - 3.0).abs() < 1e-10);
//! ```

pub mod eigen;
pub mod lu;
pub mod matrix;
pub mod ortho;

pub use eigen::{jacobi_eigen, Eigen};
pub use lu::{lu_decompose, lu_solve, Lu};
pub use matrix::Matrix;
pub use ortho::{inverse_sqrt, symmetric_orthogonalizer};

/// Errors produced by the linear-algebra routines.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Shape of the left operand, `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right operand, `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// The matrix was expected to be square.
    NotSquare {
        /// Actual shape.
        shape: (usize, usize),
    },
    /// The matrix was expected to be symmetric within `tol`.
    NotSymmetric {
        /// Largest deviation `|a_ij - a_ji|` found.
        max_asymmetry: f64,
    },
    /// An iterative method failed to converge within its sweep budget.
    NoConvergence {
        /// Number of sweeps/iterations performed.
        iterations: usize,
        /// Residual off-diagonal norm (or similar) at exit.
        residual: f64,
    },
    /// The matrix is singular (or numerically singular) for a solve.
    Singular {
        /// Pivot column at which breakdown occurred.
        pivot: usize,
    },
    /// The matrix is not positive definite where required
    /// (e.g. an overlap matrix fed to `inverse_sqrt`).
    NotPositiveDefinite {
        /// Offending eigenvalue.
        eigenvalue: f64,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "shape mismatch in {op}: {lhs:?} vs {rhs:?}")
            }
            LinalgError::NotSquare { shape } => write!(f, "matrix not square: {shape:?}"),
            LinalgError::NotSymmetric { max_asymmetry } => {
                write!(
                    f,
                    "matrix not symmetric (max |a_ij - a_ji| = {max_asymmetry:e})"
                )
            }
            LinalgError::NoConvergence {
                iterations,
                residual,
            } => {
                write!(
                    f,
                    "no convergence after {iterations} iterations (residual {residual:e})"
                )
            }
            LinalgError::Singular { pivot } => write!(f, "singular matrix at pivot {pivot}"),
            LinalgError::NotPositiveDefinite { eigenvalue } => {
                write!(
                    f,
                    "matrix not positive definite (eigenvalue {eigenvalue:e})"
                )
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
