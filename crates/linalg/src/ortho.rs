//! Orthogonalization of an overlap metric.
//!
//! A Gaussian atomic-orbital basis is not orthonormal: the overlap
//! matrix `S` is symmetric positive definite but far from the identity.
//! The Roothaan equations `F C = S C ε` are turned into a standard
//! eigenproblem by the symmetric (Löwdin) transformation `X = S^{-1/2}`,
//! which satisfies `Xᵀ S X = 1` and preserves maximal resemblance
//! between transformed and original orbitals.

use crate::eigen::jacobi_eigen;
use crate::{LinalgError, Matrix, Result};

/// Computes `S^{-1/2}` for a symmetric positive-definite matrix via its
/// eigendecomposition.
///
/// Fails with [`LinalgError::NotPositiveDefinite`] if any eigenvalue is
/// `<= floor` (default callers pass a small positive floor such as
/// `1e-10` to catch numerically dependent basis sets).
pub fn inverse_sqrt(s: &Matrix, floor: f64) -> Result<Matrix> {
    let e = jacobi_eigen(s, 1e-12, 100)?;
    if let Some(&bad) = e.values.iter().find(|&&v| v <= floor) {
        return Err(LinalgError::NotPositiveDefinite { eigenvalue: bad });
    }
    let inv_sqrt: Vec<f64> = e.values.iter().map(|v| 1.0 / v.sqrt()).collect();
    let d = Matrix::from_diag(&inv_sqrt);
    e.vectors.matmul(&d)?.matmul(&e.vectors.transpose())
}

/// Symmetric (Löwdin) orthogonalizer `X = S^{-1/2}`.
///
/// Thin, intention-revealing wrapper over [`inverse_sqrt`] with the
/// conventional eigenvalue floor for quantum-chemistry overlap matrices.
pub fn symmetric_orthogonalizer(s: &Matrix) -> Result<Matrix> {
    inverse_sqrt(s, 1e-10)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spd(n: usize) -> Matrix {
        // diag-dominant SPD matrix resembling an overlap: 1 on the
        // diagonal with exponentially decaying off-diagonals.
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                1.0
            } else {
                0.5f64.powi((i as i32 - j as i32).abs())
            }
        })
    }

    #[test]
    fn inverse_sqrt_of_identity() {
        let x = inverse_sqrt(&Matrix::identity(4), 1e-12).unwrap();
        assert!(x.max_abs_diff(&Matrix::identity(4)) < 1e-12);
    }

    #[test]
    fn xsx_is_identity() {
        let s = sample_spd(6);
        let x = symmetric_orthogonalizer(&s).unwrap();
        let t = s.congruence(&x).unwrap();
        assert!(
            t.max_abs_diff(&Matrix::identity(6)) < 1e-9,
            "XᵀSX = {:?}",
            t
        );
    }

    #[test]
    fn inverse_sqrt_squares_to_inverse() {
        let s = sample_spd(5);
        let x = inverse_sqrt(&s, 1e-12).unwrap();
        // X * X = S^{-1}, so S * X * X = 1.
        let sxx = s.matmul(&x).unwrap().matmul(&x).unwrap();
        assert!(sxx.max_abs_diff(&Matrix::identity(5)) < 1e-9);
    }

    #[test]
    fn rejects_indefinite() {
        let s = Matrix::from_diag(&[1.0, -0.5]);
        assert!(matches!(
            inverse_sqrt(&s, 1e-12),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }
}
