//! Row-major dense `f64` matrix.
//!
//! [`Matrix`] is the single data type shared by the SCF driver, the
//! integral engines and the eigensolver. It stores its elements in one
//! contiguous `Vec<f64>` so products and sweeps are cache-friendly, and
//! it exposes both safe indexing (`m[(i, j)]`) and slice access per row.

use crate::{LinalgError, Result};

/// A dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row slices. All rows must have equal length.
    ///
    /// # Panics
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a matrix from a closure `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the backing storage (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the backing storage (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// Uses the classic i-k-j loop order so the innermost loop walks both
    /// operands contiguously.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                for (o, &r) in orow.iter_mut().zip(rrow) {
                    *o += a * r;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Elementwise sum `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Elementwise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// In-place `self += alpha * rhs` (AXPY).
    pub fn axpy(&mut self, alpha: f64, rhs: &Matrix) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Returns `self` scaled by `alpha`.
    pub fn scaled(&self, alpha: f64) -> Matrix {
        let mut m = self.clone();
        for v in &mut m.data {
            *v *= alpha;
        }
        m
    }

    /// Scales all entries in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Trace (sum of diagonal entries). Requires a square matrix.
    pub fn trace(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        Ok((0..self.rows).map(|i| self[(i, i)]).sum())
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Largest absolute elementwise difference to `rhs`.
    ///
    /// Shape mismatch yields `f64::INFINITY`, which composes naturally
    /// with tolerance comparisons in convergence loops and tests.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f64 {
        if self.shape() != rhs.shape() {
            return f64::INFINITY;
        }
        self.data
            .iter()
            .zip(&rhs.data)
            .fold(0.0, |m, (a, b)| m.max((a - b).abs()))
    }

    /// Largest deviation from symmetry, `max |a_ij - a_ji|`.
    pub fn max_asymmetry(&self) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols.min(self.rows) {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }

    /// True when square and symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        self.is_square() && self.max_asymmetry() <= tol
    }

    /// Numerically symmetrizes the matrix in place: `a = (a + aᵀ)/2`.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// Frobenius inner product `⟨self, rhs⟩ = Σ a_ij b_ij`.
    pub fn dot(&self, rhs: &Matrix) -> Result<f64> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "dot",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        Ok(self.data.iter().zip(&rhs.data).map(|(a, b)| a * b).sum())
    }

    /// The congruence transform `xᵀ · self · x` used to move operators
    /// between the atomic-orbital and orthonormal bases.
    pub fn congruence(&self, x: &Matrix) -> Result<Matrix> {
        x.transpose().matmul(self)?.matmul(x)
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>12.6} ", self[(i, j)])?;
            }
            writeln!(f, "{}]", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.trace().unwrap(), 3.0);
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_ragged_panics() {
        let _ = Matrix::from_rows(&[&[1.0], &[2.0, 3.0]]);
    }

    #[test]
    fn matmul_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let i = Matrix::identity(4);
        assert_eq!(a.matmul(&i).unwrap().max_abs_diff(&a), 0.0);
        assert_eq!(i.matmul(&a).unwrap().max_abs_diff(&a), 0.0);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn matvec_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |i, j| (i as f64) * 10.0 + j as f64);
        assert_eq!(a.transpose().transpose().max_abs_diff(&a), 0.0);
        assert_eq!(a.transpose().shape(), (5, 3));
    }

    #[test]
    fn add_sub_axpy() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0]]);
        assert_eq!(a.add(&b).unwrap().row(0), &[11.0, 22.0]);
        assert_eq!(b.sub(&a).unwrap().row(0), &[9.0, 18.0]);
        let mut c = a.clone();
        c.axpy(2.0, &b).unwrap();
        assert_eq!(c.row(0), &[21.0, 42.0]);
    }

    #[test]
    fn norms_and_trace() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert_eq!(a.frobenius_norm(), 5.0);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.trace().unwrap(), 7.0);
        assert!(Matrix::zeros(2, 3).trace().is_err());
    }

    #[test]
    fn symmetry_checks() {
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 5.0]]);
        assert!(s.is_symmetric(0.0));
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[2.5, 5.0]]);
        assert!(!a.is_symmetric(1e-12));
        assert!((a.max_asymmetry() - 0.5).abs() < 1e-15);
        a.symmetrize();
        assert!(a.is_symmetric(0.0));
        assert_eq!(a[(0, 1)], 2.25);
    }

    #[test]
    fn congruence_with_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 3.0]]);
        let x = Matrix::identity(2);
        assert_eq!(a.congruence(&x).unwrap().max_abs_diff(&a), 0.0);
    }

    #[test]
    fn dot_is_frobenius_inner_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.dot(&a).unwrap(), 30.0);
        assert_eq!(a.dot(&a).unwrap().sqrt(), a.frobenius_norm());
    }

    #[test]
    fn max_abs_diff_shape_mismatch_is_infinite() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(3, 3);
        assert_eq!(a.max_abs_diff(&b), f64::INFINITY);
    }

    #[test]
    fn from_diag_builds_diagonal() {
        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.trace().unwrap(), 6.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert_eq!(d[(2, 2)], 3.0);
    }
}
