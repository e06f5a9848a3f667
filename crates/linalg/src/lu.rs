//! LU decomposition with partial pivoting and linear solves.
//!
//! Used by the DIIS extrapolation in the SCF driver (small, dense,
//! possibly ill-conditioned systems).

use crate::{LinalgError, Matrix, Result};

/// A partial-pivoting LU factorization `P·A = L·U`.
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined `L` (unit lower, below diagonal) and `U` (upper) factors.
    pub lu: Matrix,
    /// Row permutation: row `i` of `P·A` is row `perm[i]` of `A`.
    pub perm: Vec<usize>,
}

/// Factorizes a square matrix as `P·A = L·U` with partial pivoting.
///
/// Fails with [`LinalgError::Singular`] when a pivot column has no entry
/// larger than `1e-300` in magnitude.
pub fn lu_decompose(a: &Matrix) -> Result<Lu> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    let n = a.rows();
    let mut lu = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();

    for col in 0..n {
        // Pivot selection: largest magnitude in the remaining column.
        let mut pivot_row = col;
        let mut pivot_val = lu[(col, col)].abs();
        for r in col + 1..n {
            let v = lu[(r, col)].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < 1e-300 {
            return Err(LinalgError::Singular { pivot: col });
        }
        if pivot_row != col {
            for j in 0..n {
                let tmp = lu[(col, j)];
                lu[(col, j)] = lu[(pivot_row, j)];
                lu[(pivot_row, j)] = tmp;
            }
            perm.swap(col, pivot_row);
        }
        let pivot = lu[(col, col)];
        for r in col + 1..n {
            let factor = lu[(r, col)] / pivot;
            lu[(r, col)] = factor;
            for j in col + 1..n {
                let sub = factor * lu[(col, j)];
                lu[(r, j)] -= sub;
            }
        }
    }
    Ok(Lu { lu, perm })
}

/// Solves `A·x = b` given a prior factorization of `A`.
#[allow(clippy::needless_range_loop)] // indexed form mirrors the math
pub fn lu_solve(f: &Lu, b: &[f64]) -> Result<Vec<f64>> {
    let n = f.lu.rows();
    if b.len() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "lu_solve",
            lhs: (n, n),
            rhs: (b.len(), 1),
        });
    }
    // Forward substitution with the permuted right-hand side.
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut s = b[f.perm[i]];
        for j in 0..i {
            s -= f.lu[(i, j)] * y[j];
        }
        y[i] = s;
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = y[i];
        for j in i + 1..n {
            s -= f.lu[(i, j)] * x[j];
        }
        x[i] = s / f.lu[(i, i)];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_known_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = lu_solve(&lu_decompose(&a).unwrap(), &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero in the (0,0) position forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = lu_solve(&lu_decompose(&a).unwrap(), &[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn residual_is_small_for_random_like_system() {
        let n = 8;
        let a = Matrix::from_fn(n, n, |i, j| {
            ((i * 7 + j * 13 + 3) % 17) as f64 / 17.0 + if i == j { 2.0 } else { 0.0 }
        });
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 1.0).collect();
        let x = lu_solve(&lu_decompose(&a).unwrap(), &b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (l, r) in ax.iter().zip(&b) {
            assert!((l - r).abs() < 1e-10);
        }
    }

    #[test]
    fn singular_matrix_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            lu_decompose(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            lu_decompose(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn rhs_length_mismatch() {
        let a = Matrix::identity(3);
        let f = lu_decompose(&a).unwrap();
        assert!(lu_solve(&f, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn permutation_sign_tracked() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        // One row swap: the odd permutation [1, 0].
        let f = lu_decompose(&a).unwrap();
        assert_eq!(f.perm, vec![1, 0]);
    }
}
