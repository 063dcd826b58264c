//! LU factorization with partial pivoting, real and complex, plus a batched
//! driver used as the cuBLAS substitute by the virtual-GPU engines.
//!
//! Every dense factorization in this crate — [`LuFactor`], [`CluFactor`] and
//! each lane of [`BatchLuFactor`](crate::BatchLuFactor) /
//! [`BatchCluFactor`](crate::BatchCluFactor) — is one call to
//! [`eliminate`] on a contiguous row-major `n × n` slice, and every dense
//! solve one call to [`solve_factored`]. The routines work on row slices
//! (the pivot row and a target row as split borrows, zipped over
//! `k+1..n`), so no element pays a 2-D index. What is contractual is the
//! arithmetic, because recorded trajectories depend on it bit for bit:
//! the pivot is the first row attaining the strict maximum of `|a_ik|`
//! (`|a_ik|²` for complex), a column whose maximum is exactly zero is
//! singular, a row whose multiplier `m = a_ik / a_kk` is exactly zero is
//! skipped (which matters bitwise when the pivot row holds infinities:
//! `0 × ∞ = NaN`), and otherwise each `a_ij − m·u_kj` is formed once, for
//! `j` ascending.

use crate::{CMatrix, Complex64, LinalgError, Matrix};
use std::ops::{Div, Mul, Sub};

/// The two element types the dense LU kernels are instantiated at. Public
/// only so the lane-batched factor can name it as a bound; it is not
/// exported from the crate.
pub trait LuScalar:
    Copy + PartialEq + Sub<Output = Self> + Mul<Output = Self> + Div<Output = Self>
{
    /// The additive identity.
    const ZERO: Self;
    /// What partial pivoting compares: `|x|` for reals, `|z|²` for complex
    /// numbers (no square root).
    fn pivot_size(self) -> f64;
}

impl LuScalar for f64 {
    const ZERO: Self = 0.0;
    #[inline(always)]
    fn pivot_size(self) -> f64 {
        self.abs()
    }
}

impl LuScalar for Complex64 {
    const ZERO: Self = Complex64::ZERO;
    #[inline(always)]
    fn pivot_size(self) -> f64 {
        self.abs_sq()
    }
}

/// Factors the row-major `n × n` matrix in `a` in place (`P A = L U`, unit
/// diagonal of `L` implicit) and records the row exchanges in `pivots`
/// (LAPACK `ipiv` style: at step `k` row `k` was exchanged with row
/// `pivots[k]`). Returns the sign of the permutation, or `Err(k)` when
/// column `k` has no nonzero pivot candidate — `a` is then left partially
/// eliminated.
pub(crate) fn eliminate<T: LuScalar>(
    a: &mut [T],
    n: usize,
    pivots: &mut [usize],
) -> Result<f64, usize> {
    assert_eq!(a.len(), n * n, "matrix storage length");
    assert_eq!(pivots.len(), n, "pivot vector length");
    let mut sign = 1.0;
    for k in 0..n {
        // Partial pivoting: pick the largest |a[i][k]| for i >= k.
        let mut piv = k;
        let mut max = a[k * n + k].pivot_size();
        for (i, row) in (k + 1..n).zip(a[(k + 1) * n..].chunks_exact(n)) {
            let v = row[k].pivot_size();
            if v > max {
                max = v;
                piv = i;
            }
        }
        if max == 0.0 {
            return Err(k);
        }
        pivots[k] = piv;
        let (upper, lower) = a.split_at_mut((k + 1) * n);
        let pivot_row = &mut upper[k * n..];
        if piv != k {
            // Swap the full rows; the permutation acts on b at solve time.
            pivot_row.swap_with_slice(&mut lower[(piv - k - 1) * n..][..n]);
            sign = -sign;
        }
        let pivot = pivot_row[k];
        let u = &pivot_row[k + 1..];
        for row in lower.chunks_exact_mut(n) {
            let m = row[k] / pivot;
            row[k] = m;
            if m != T::ZERO {
                for (x, &u) in row[k + 1..].iter_mut().zip(u) {
                    *x = *x - m * u;
                }
            }
        }
    }
    Ok(sign)
}

/// Solves `A x = b` in place against the factors [`eliminate`] left in `lu`:
/// replays the row exchanges on `b`, then substitutes forward (`L y = P b`,
/// unit diagonal) and backward (`U x = y`), each sum taken left to right.
pub(crate) fn solve_factored<T: LuScalar>(lu: &[T], pivots: &[usize], b: &mut [T]) {
    let n = b.len();
    assert_eq!(lu.len(), n * n, "factor storage length");
    assert_eq!(pivots.len(), n, "pivot vector length");
    if n == 0 {
        return;
    }
    for (k, &p) in pivots.iter().enumerate() {
        b.swap(k, p);
    }
    for (i, row) in lu.chunks_exact(n).enumerate().skip(1) {
        let mut acc = b[i];
        for (&l, &y) in row[..i].iter().zip(&b[..i]) {
            acc = acc - l * y;
        }
        b[i] = acc;
    }
    for (i, row) in lu.chunks_exact(n).enumerate().rev() {
        let mut acc = b[i];
        for (&u, &x) in row[i + 1..].iter().zip(&b[i + 1..]) {
            acc = acc - u * x;
        }
        b[i] = acc / row[i];
    }
}

/// LU factorization (with partial pivoting) of a real square matrix.
///
/// The factorization satisfies `P A = L U` where `L` is unit lower
/// triangular, `U` upper triangular and `P` a permutation. Storage is
/// in-place: `L` (below the diagonal, implicit unit diagonal) and `U` share
/// the original matrix buffer.
///
/// # Example
///
/// ```
/// use paraspace_linalg::{LuFactor, Matrix};
///
/// # fn main() -> Result<(), paraspace_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let lu = LuFactor::new(a)?;
/// let x = lu.solve(&[3.0, 4.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuFactor {
    lu: Matrix,
    /// Pivot rows as a swap sequence (LAPACK `ipiv` style): at step `k` row
    /// `k` was exchanged with row `pivots[k]`. Stored this way so the
    /// permutation applies to a right-hand side in place, without a scratch
    /// vector.
    pivots: Vec<usize>,
    sign: f64,
}

impl LuFactor {
    /// Factorizes `a`, consuming it.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::Singular`] when a pivot column is exactly zero.
    pub fn new(mut a: Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
        }
        let n = a.rows();
        let mut pivots = vec![0; n];
        match eliminate(a.as_mut_slice(), n, &mut pivots) {
            Ok(sign) => Ok(LuFactor { lu: a, pivots, sign }),
            Err(pivot) => Err(LinalgError::Singular { pivot }),
        }
    }

    /// The dimension of the factored matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Consumes the factorization, returning the underlying matrix storage
    /// so a caller can reuse the allocation for the next factorization.
    pub fn into_matrix(self) -> Matrix {
        self.lu
    }

    /// Solves `A x = b`, returning `x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if b.len() != self.dim() {
            return Err(LinalgError::DimensionMismatch { expected: self.dim(), actual: b.len() });
        }
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        Ok(x)
    }

    /// Solves `A x = b` in place: on entry `b` holds the right-hand side, on
    /// exit the solution. Performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.dim(), "right-hand side length must equal matrix dimension");
        solve_factored(self.lu.as_slice(), &self.pivots, b);
    }

    /// The determinant of the original matrix (product of pivots, signed by
    /// the permutation parity).
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Number of floating-point operations an LU factorization of this size
    /// performs (≈ 2n³/3), used by the virtual-GPU cost model.
    pub fn flops(n: usize) -> u64 {
        let n = n as u64;
        2 * n * n * n / 3
    }

    /// Flops of a single triangular solve pair (≈ 2n²).
    pub fn solve_flops(n: usize) -> u64 {
        let n = n as u64;
        2 * n * n
    }
}

/// LU factorization (partial pivoting) of a complex square matrix.
///
/// Mirrors [`LuFactor`] over [`Complex64`]; used for the complex Newton
/// system of the Radau IIA method.
///
/// # Example
///
/// ```
/// use paraspace_linalg::{CluFactor, CMatrix, Complex64};
///
/// # fn main() -> Result<(), paraspace_linalg::LinalgError> {
/// let mut a = CMatrix::zeros(2, 2);
/// a[(0, 0)] = Complex64::new(0.0, 1.0);
/// a[(0, 1)] = Complex64::ONE;
/// a[(1, 0)] = Complex64::ONE;
/// a[(1, 1)] = Complex64::new(0.0, 1.0);
/// let lu = CluFactor::new(a)?;
/// // det = i*i - 1 = -2, so the system is well posed.
/// let x = lu.solve(&[Complex64::ONE, Complex64::ZERO])?;
/// assert!((x[0] - Complex64::new(0.0, -0.5)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CluFactor {
    lu: CMatrix,
    /// Pivot rows as a swap sequence; see [`LuFactor`].
    pivots: Vec<usize>,
}

impl CluFactor {
    /// Factorizes `a`, consuming it.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::Singular`] when a pivot column vanishes.
    pub fn new(mut a: CMatrix) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
        }
        let n = a.rows();
        let mut pivots = vec![0; n];
        match eliminate(a.as_mut_slice(), n, &mut pivots) {
            Ok(_) => Ok(CluFactor { lu: a, pivots }),
            Err(pivot) => Err(LinalgError::Singular { pivot }),
        }
    }

    /// The dimension of the factored matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Consumes the factorization, returning the underlying matrix storage
    /// so a caller can reuse the allocation for the next factorization.
    pub fn into_matrix(self) -> CMatrix {
        self.lu
    }

    /// Solves `A x = b`, returning `x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[Complex64]) -> Result<Vec<Complex64>, LinalgError> {
        if b.len() != self.dim() {
            return Err(LinalgError::DimensionMismatch { expected: self.dim(), actual: b.len() });
        }
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        Ok(x)
    }

    /// Solves `A x = b` in place. Performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve_in_place(&self, b: &mut [Complex64]) {
        assert_eq!(b.len(), self.dim(), "right-hand side length must equal matrix dimension");
        solve_factored(self.lu.as_slice(), &self.pivots, b);
    }
}

/// Factorizes a batch of equally sized matrices, mirroring cuBLAS's
/// `getrfBatched` interface (the virtual-GPU engines charge device time for
/// this work; the numerics happen here).
///
/// # Errors
///
/// Fails on the first singular or non-square member, reporting its error.
pub fn batched_lu(batch: Vec<Matrix>) -> Result<Vec<LuFactor>, LinalgError> {
    batch.into_iter().map(LuFactor::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual_inf(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.mul_vec(x);
        ax.iter().zip(b).map(|(p, q)| (p - q).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn solves_known_3x3_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let b = [8.0, -11.0, -3.0];
        let lu = LuFactor::new(a.clone()).unwrap();
        let x = lu.solve(&b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] - -1.0).abs() < 1e-12);
        assert!(residual_inf(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = LuFactor::new(a).unwrap();
        let x = lu.solve(&[5.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 5.0]);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(LuFactor::new(a), Err(LinalgError::Singular { pivot: 1 })));
    }

    #[test]
    fn not_square_is_reported() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(LuFactor::new(a), Err(LinalgError::NotSquare { rows: 2, cols: 3 })));
    }

    #[test]
    fn det_matches_cofactor_expansion() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let lu = LuFactor::new(a).unwrap();
        assert!((lu.det() - -2.0).abs() < 1e-12);
        // Permutation sign: swapping rows flips determinant sign.
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[1.0, 2.0]]);
        assert!((LuFactor::new(b).unwrap().det() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_in_place_matches_solve() {
        let a =
            Matrix::from_fn(5, 5, |i, j| if i == j { 4.0 } else { 1.0 / (1.0 + (i + j) as f64) });
        let b: Vec<f64> = (0..5).map(|i| (i as f64).sin() + 1.0).collect();
        let lu = LuFactor::new(a).unwrap();
        let x1 = lu.solve(&b).unwrap();
        let mut x2 = b.clone();
        lu.solve_in_place(&mut x2);
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-14);
        }
    }

    #[test]
    fn wrong_rhs_length_is_dimension_mismatch() {
        let lu = LuFactor::new(Matrix::identity(3)).unwrap();
        assert!(matches!(
            lu.solve(&[1.0, 2.0]),
            Err(LinalgError::DimensionMismatch { expected: 3, actual: 2 })
        ));
    }

    #[test]
    fn random_system_has_small_residual() {
        // Deterministic pseudo-random fill to avoid a rand dependency here.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let n = 40;
        let a = Matrix::from_fn(n, n, |i, j| next() + if i == j { 2.0 } else { 0.0 });
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let lu = LuFactor::new(a.clone()).unwrap();
        let x = lu.solve(&b).unwrap();
        assert!(residual_inf(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn complex_lu_solves_complex_system() {
        // A = [[1+i, 2], [3i, 1-i]], solve against a known x.
        let mut a = CMatrix::zeros(2, 2);
        a[(0, 0)] = Complex64::new(1.0, 1.0);
        a[(0, 1)] = Complex64::new(2.0, 0.0);
        a[(1, 0)] = Complex64::new(0.0, 3.0);
        a[(1, 1)] = Complex64::new(1.0, -1.0);
        let x_true = [Complex64::new(1.0, -2.0), Complex64::new(0.5, 0.5)];
        let b = a.mul_vec(&x_true);
        let lu = CluFactor::new(a).unwrap();
        let x = lu.solve(&b).unwrap();
        for (p, q) in x.iter().zip(&x_true) {
            assert!((*p - *q).abs() < 1e-12);
        }
    }

    #[test]
    fn complex_singular_detection() {
        let a = CMatrix::zeros(3, 3);
        assert!(matches!(CluFactor::new(a), Err(LinalgError::Singular { pivot: 0 })));
    }

    #[test]
    fn complex_pivoting_zero_leading_entry() {
        let mut a = CMatrix::zeros(2, 2);
        a[(0, 1)] = Complex64::ONE;
        a[(1, 0)] = Complex64::I;
        let lu = CluFactor::new(a).unwrap();
        let x = lu.solve(&[Complex64::ONE, Complex64::ONE]).unwrap();
        // x0 = 1/i = -i, x1 = 1.
        assert!((x[0] - Complex64::new(0.0, -1.0)).abs() < 1e-14);
        assert!((x[1] - Complex64::ONE).abs() < 1e-14);
    }

    #[test]
    fn batched_lu_factors_all_members() {
        let batch: Vec<Matrix> = (1..5)
            .map(|k| Matrix::from_fn(3, 3, |i, j| if i == j { k as f64 + 1.0 } else { 0.5 }))
            .collect();
        let factors = batched_lu(batch).unwrap();
        assert_eq!(factors.len(), 4);
        for f in &factors {
            assert_eq!(f.dim(), 3);
        }
    }

    #[test]
    fn flop_counts_scale_cubically() {
        assert_eq!(LuFactor::flops(10), 2 * 1000 / 3);
        assert!(LuFactor::flops(20) > 7 * LuFactor::flops(10));
        assert_eq!(LuFactor::solve_flops(10), 200);
    }

    #[test]
    fn one_by_one_system() {
        let lu = LuFactor::new(Matrix::from_rows(&[&[4.0]])).unwrap();
        assert_eq!(lu.solve(&[8.0]).unwrap(), vec![2.0]);
        assert_eq!(lu.det(), 4.0);
    }
}
