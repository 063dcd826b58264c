//! Dense row-major matrices over `f64` and [`Complex64`].

use crate::{Complex64, SparsityPattern};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64` values.
///
/// # Example
///
/// ```
/// use paraspace_linalg::Matrix;
///
/// let mut m = Matrix::zeros(2, 3);
/// m[(0, 1)] = 5.0;
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m[(0, 1)], 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows.checked_mul(cols).expect("matrix dimensions overflow");
        Matrix { rows, cols, data: vec![0.0; len] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(i, j)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
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

    /// Returns `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix–vector product `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "vector length must equal cols");
        let mut y = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Matrix–vector product into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if dimensions do not match.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            y[i] = acc;
        }
    }

    /// [`mul_vec_into`](Self::mul_vec_into) visiting only the entries on
    /// `pattern`, each row in ascending column order.
    ///
    /// When every entry off the pattern is `+0.0` and `x` is finite the
    /// result is the dense product's to the bit: each skipped product is
    /// `±0.0`, and an accumulator that starts at `+0.0` is never `−0.0`, so
    /// adding it would have changed nothing.
    ///
    /// # Panics
    ///
    /// Panics if dimensions do not match.
    pub fn mul_vec_on_pattern_into(&self, pattern: &SparsityPattern, x: &[f64], y: &mut [f64]) {
        assert_eq!(pattern.dim(), self.rows);
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for &j in pattern.row(i) {
                acc += row[j as usize] * x[j as usize];
            }
            *yi = acc;
        }
    }

    /// In-place scaled addition `self += k * other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, k: f64, other: &Matrix) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += k * b;
        }
    }

    /// Maximum absolute entry (the max norm).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// The infinity norm: maximum absolute row sum.
    pub fn inf_norm(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|x| x.abs()).sum::<f64>())
            .fold(0.0f64, f64::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:>12.5e}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

/// A dense, row-major matrix of [`Complex64`] values.
///
/// Used by the Radau IIA solver for the complex Newton system
/// `(α + iβ)/h · I − J`.
///
/// # Example
///
/// ```
/// use paraspace_linalg::{CMatrix, Complex64};
///
/// let mut m = CMatrix::zeros(2, 2);
/// m[(0, 0)] = Complex64::new(1.0, -1.0);
/// assert_eq!(m[(0, 0)].im, -1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// Creates a `rows × cols` complex matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows.checked_mul(cols).expect("matrix dimensions overflow");
        CMatrix { rows, cols, data: vec![Complex64::ZERO; len] }
    }

    /// Builds a complex matrix from a real one (zero imaginary parts).
    pub fn from_real(m: &Matrix) -> Self {
        CMatrix {
            rows: m.rows(),
            cols: m.cols(),
            data: m.as_slice().iter().map(|&x| Complex64::from_real(x)).collect(),
        }
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

    /// Borrow of the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Borrows row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[Complex64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [Complex64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix–vector product `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(x.len(), self.cols);
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(x.iter()).map(|(&a, &b)| a * b).sum())
            .collect()
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_vector_is_identity_map() {
        let i3 = Matrix::identity(3);
        let x = vec![1.0, -2.0, 3.5];
        assert_eq!(i3.mul_vec(&x), x);
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "all rows must have equal length")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[&[1.0], &[2.0, 3.0]]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 7 + j) as f64);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::zeros(2, 2);
        let b = Matrix::identity(2);
        a.axpy(3.0, &b);
        assert_eq!(a[(0, 0)], 3.0);
        assert_eq!(a[(0, 1)], 0.0);
    }

    #[test]
    fn inf_norm_is_max_row_sum() {
        let m = Matrix::from_rows(&[&[1.0, -2.0], &[-3.0, 0.5]]);
        assert_eq!(m.inf_norm(), 3.5);
        assert_eq!(m.max_abs(), 3.0);
    }

    #[test]
    fn cmatrix_from_real_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let c = CMatrix::from_real(&m);
        assert_eq!(c[(1, 1)], Complex64::from_real(4.0));
        let y = c.mul_vec(&[Complex64::ONE, Complex64::I]);
        assert_eq!(y[0], Complex64::new(1.0, 2.0));
        assert_eq!(y[1], Complex64::new(3.0, 4.0));
    }

    #[test]
    fn zero_sized_matrices_are_fine() {
        let m = Matrix::zeros(0, 5);
        assert_eq!(m.rows(), 0);
        assert_eq!(m.transpose().cols(), 0);
        let v: Vec<f64> = vec![];
        assert!(Matrix::zeros(0, 0).mul_vec(&v).is_empty());
    }
}
