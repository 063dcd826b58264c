//! LU factorization with partial pivoting, real and complex, plus a batched
//! driver used as the cuBLAS substitute by the virtual-GPU engines.
//!
//! Every dense factorization in this crate is one call to one of two
//! elimination routines on contiguous row-major storage — [`eliminate()`] for
//! real matrices ([`LuFactor`] and each lane of
//! [`BatchLuFactor`](crate::BatchLuFactor)), [`eliminate_planar()`] for
//! complex ones ([`CluFactor`] and each lane of
//! [`BatchCluFactor`](crate::BatchCluFactor)) — and every dense solve one
//! call to one of two lockstep substitutions, [`substitute`] /
//! [`substitute_planar`], which solve the lanes of a lane-minor right-hand
//! side together: at width 1 for [`LuFactor`] / [`CluFactor`], at the lane
//! width for the batched factors. A complex matrix is stored as **two `f64`
//! planes**, all real parts and then all imaginary parts: the row update
//! `x − m·u` is then four multiplies and four additions over four plain
//! `f64` slices, which the compiler vectorises, where the same update over
//! interleaved `(re, im)` pairs stays scalar.
//! The routines work on row slices (the pivot row and a target row as split
//! borrows, zipped over `k+1..n`), so no element pays a 2-D index. What is
//! contractual is the arithmetic, because recorded trajectories depend on
//! it bit for bit: the pivot is the first row attaining the strict maximum
//! of `|a_ik|` (`re² + im²` for complex), a column whose maximum is exactly
//! zero is singular, the multiplier is `m = a_ik / a_kk` (Smith's quotient
//! for complex, [`SmithDivisor`]), a row whose multiplier is exactly zero
//! is skipped (which matters bitwise when the pivot row holds infinities:
//! `0 × ∞ = NaN`), and otherwise each `a_ij − m·u_kj` is formed once, for
//! `j` ascending — for complex as `re − (m.re·u.re − m.im·u.im)` and
//! `im − (m.re·u.im + m.im·u.re)`, the expansion of
//! [`Complex64`]'s own `*` and `-`. The substitution replays a lane's
//! exchanges in order, then forms each component as `acc = b_i`,
//! `acc −= l_ij·y_j` for `j` ascending (`u_ij·x_j` on the way back), and
//! `x_i = acc / u_ii` — for complex in the same expansion, the division
//! Smith's quotient — so a lane's result does not depend on how many lanes
//! ran beside it.
//!
//! Both elimination routines and the complex lane substitution are ISA
//! twins ([`isa_twins!`]): the binary holds a copy for x86-64 baseline,
//! whose packed arithmetic is SSE2 (two `f64` per instruction), and one
//! with AVX2 (four), and runs the AVX2 copy on a CPU that reports it.
//! Neither enables FMA, so both form the same IEEE-754 expressions above
//! and leave the same factors and solutions, bit for bit.

use crate::complex::SmithDivisor;
use crate::{isa_twins, CMatrix, Complex64, LinalgError, Matrix};

/// The two element types the dense LU kernels serve, each with the storage
/// its factors live in. Public only so the lane-batched factor can name it
/// as a bound; it is not exported from the crate.
pub trait LuScalar: Copy {
    /// `f64` planes per matrix and `f64` rows per component of a
    /// right-hand side: an `n × n` matrix of this type is stored as
    /// `PLANES` consecutive row-major `n × n` blocks of `f64`, and an
    /// `n`-vector per lane as `PLANES·n` lane-minor rows.
    const PLANES: usize;
    /// Factors the matrix stored in `a` in place; `Err(k)` when column `k`
    /// has no nonzero pivot candidate.
    fn eliminate(a: &mut [f64], n: usize, pivots: &mut [usize]) -> Result<(), usize>;
    /// Solves the `live` lanes of a lane-minor block in place against the
    /// lane-major factors `eliminate` left, at the width of `live` (1, 2, 4
    /// or 8: [`substitute_lanes()`] / [`substitute_planar_lanes()`]).
    fn substitute_lanes(n: usize, lu: &[f64], pivots: &[usize], live: &[bool], b: &mut [f64]);
}

impl LuScalar for f64 {
    const PLANES: usize = 1;
    #[inline]
    fn eliminate(a: &mut [f64], n: usize, pivots: &mut [usize]) -> Result<(), usize> {
        eliminate(a, n, pivots).map(drop)
    }
    #[inline]
    fn substitute_lanes(n: usize, lu: &[f64], pivots: &[usize], live: &[bool], b: &mut [f64]) {
        substitute_lanes(n, lu, pivots, live, b);
    }
}

impl LuScalar for Complex64 {
    const PLANES: usize = 2;
    #[inline]
    fn eliminate(a: &mut [f64], n: usize, pivots: &mut [usize]) -> Result<(), usize> {
        let (re, im) = a.split_at_mut(n * n);
        eliminate_planar(re, im, n, pivots)
    }
    #[inline]
    fn substitute_lanes(n: usize, lu: &[f64], pivots: &[usize], live: &[bool], b: &mut [f64]) {
        substitute_planar_lanes(n, lu, pivots, live, b);
    }
}

isa_twins! {
    /// Factors the row-major `n × n` matrix in `a` in place (`P A = L U`, unit
    /// diagonal of `L` implicit) and records the row exchanges in `pivots`
    /// (LAPACK `ipiv` style: at step `k` row `k` was exchanged with row
    /// `pivots[k]`). Returns the sign of the permutation, or `Err(k)` when
    /// column `k` has no nonzero pivot candidate — `a` is then left partially
    /// eliminated.
    pub(crate) fn eliminate(a: &mut [f64], n: usize, pivots: &mut [usize]) -> Result<f64, usize> {
        assert_eq!(a.len(), n * n, "matrix storage length");
        assert_eq!(pivots.len(), n, "pivot vector length");
        let mut sign = 1.0;
        for k in 0..n {
            // Partial pivoting: pick the largest |a[i][k]| for i >= k.
            let mut piv = k;
            let mut max = a[k * n + k].abs();
            for (i, row) in (k + 1..n).zip(a[(k + 1) * n..].chunks_exact(n)) {
                let v = row[k].abs();
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
                if m != 0.0 {
                    for (x, &u) in row[k + 1..].iter_mut().zip(u) {
                        *x -= m * u;
                    }
                }
            }
        }
        Ok(sign)
    }
}

isa_twins! {
    /// [`eliminate()`] for a complex matrix held as its real plane `re` and its
    /// imaginary plane `im` (each row-major `n × n`): the same pivot search,
    /// exchanges, zero-multiplier skip and update order, entry for entry what
    /// the elimination over [`Complex64`] values computes.
    pub(crate) fn eliminate_planar(
        re: &mut [f64],
        im: &mut [f64],
        n: usize,
        pivots: &mut [usize],
    ) -> Result<(), usize> {
        assert_eq!(re.len(), n * n, "real plane length");
        assert_eq!(im.len(), n * n, "imaginary plane length");
        assert_eq!(pivots.len(), n, "pivot vector length");
        for k in 0..n {
            // Partial pivoting on |a[i][k]|² for i >= k.
            let size = |i: usize| Complex64::new(re[i * n + k], im[i * n + k]).abs_sq();
            let mut piv = k;
            let mut max = size(k);
            for i in k + 1..n {
                let v = size(i);
                if v > max {
                    max = v;
                    piv = i;
                }
            }
            if max == 0.0 {
                return Err(k);
            }
            pivots[k] = piv;
            let (re_upper, re_lower) = re.split_at_mut((k + 1) * n);
            let (im_upper, im_lower) = im.split_at_mut((k + 1) * n);
            let (re_pivot, im_pivot) = (&mut re_upper[k * n..], &mut im_upper[k * n..]);
            if piv != k {
                re_pivot.swap_with_slice(&mut re_lower[(piv - k - 1) * n..][..n]);
                im_pivot.swap_with_slice(&mut im_lower[(piv - k - 1) * n..][..n]);
            }
            // The divisor's half of Smith's quotient, once per column.
            let pivot = SmithDivisor::new(Complex64::new(re_pivot[k], im_pivot[k]));
            let (u_re, u_im) = (&re_pivot[k + 1..], &im_pivot[k + 1..]);
            for (row_re, row_im) in re_lower.chunks_exact_mut(n).zip(im_lower.chunks_exact_mut(n)) {
                let m = pivot.divide(Complex64::new(row_re[k], row_im[k]));
                row_re[k] = m.re;
                row_im[k] = m.im;
                if m != Complex64::ZERO {
                    let x = row_re[k + 1..].iter_mut().zip(&mut row_im[k + 1..]);
                    for ((x_re, x_im), (&u_re, &u_im)) in x.zip(u_re.iter().zip(u_im)) {
                        *x_re -= m.re * u_re - m.im * u_im;
                        *x_im -= m.re * u_im + m.im * u_re;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Solves `A_l x_l = b_l` in place for the `L` lanes of a lane-minor block
/// at once, against the factors [`eliminate()`] left lane-major in `lu`: lane
/// `l`'s `n × n` block at `l·n²`, its exchanges at `pivots[l·n..]`, entry `i`
/// of `b_l` at `i·L + l`. Each lane in `live` replays its row exchanges,
/// then substitutes forward (`L y = P b`, unit diagonal) and backward
/// (`U x = y`) into one `[f64; L]` accumulator row per component, its own
/// sum taken left to right; the other lanes' entries are left as they
/// were. No expression mixes two lanes, so a lane's bits are the same at
/// every width — width 1 is [`LuFactor::solve_in_place`] — while `L` lanes
/// run `L` independent subtraction chains in the time of one.
#[inline(always)]
pub(crate) fn substitute<const L: usize>(
    n: usize,
    lu: &[f64],
    pivots: &[usize],
    live: [bool; L],
    b: &mut [f64],
) {
    let size = n * n;
    assert_eq!(lu.len(), size * L, "factor storage length");
    assert_eq!(pivots.len(), n * L, "pivot vector length");
    assert_eq!(b.len(), n * L, "right-hand-side block length");
    if n == 0 {
        return;
    }
    for (l, pivots) in pivots.chunks_exact(n).enumerate().filter(|&(l, _)| live[l]) {
        for (k, &p) in pivots.iter().enumerate() {
            b.swap(k * L + l, p * L + l);
        }
    }
    let keep = |row: &mut [f64; L], acc: [f64; L]| {
        for l in (0..L).filter(|&l| live[l]) {
            row[l] = acc[l];
        }
    };
    for i in 1..n {
        let (done, rest) = b.split_at_mut(i * L);
        let row = &mut rest.as_chunks_mut::<L>().0[0];
        let factors: [&[f64]; L] = std::array::from_fn(|l| &lu[l * size + i * n..][..i]);
        let mut acc = *row;
        for (j, y) in (0..i).zip(done.as_chunks::<L>().0) {
            for l in 0..L {
                acc[l] -= factors[l][j] * y[l];
            }
        }
        keep(row, acc);
    }
    for i in (0..n).rev() {
        let (head, tail) = b.split_at_mut((i + 1) * L);
        let row = &mut head.as_chunks_mut::<L>().0[i];
        let factors: [&[f64]; L] = std::array::from_fn(|l| &lu[l * size + i * n + i..][..n - i]);
        let mut acc = *row;
        for (j, x) in (1..n - i).zip(tail.as_chunks::<L>().0) {
            for l in 0..L {
                acc[l] -= factors[l][j] * x[l];
            }
        }
        for l in 0..L {
            acc[l] /= factors[l][0];
        }
        keep(row, acc);
    }
}

/// [`substitute`] against the planes [`eliminate_planar()`] left in `lu` (lane
/// `l`'s real plane at `2·l·n²`, its imaginary plane after it) for a
/// complex lane-minor block held as split rows: component `i`'s real parts
/// are row `2i` (at `2i·L + l`), its imaginary parts row `2i + 1`. The same
/// exchanges and left-to-right sums in [`Complex64`] arithmetic, expanded:
/// `acc − l·y` as `re − (l.re·y.re − l.im·y.im)` and
/// `im − (l.re·y.im + l.im·y.re)`, the division Smith's quotient. At width
/// 1 the split rows are a `Complex64` slice's own layout, and this is
/// [`CluFactor::solve_in_place`].
#[inline(always)]
pub(crate) fn substitute_planar<const L: usize>(
    n: usize,
    lu: &[f64],
    pivots: &[usize],
    live: [bool; L],
    b: &mut [f64],
) {
    let size = n * n;
    assert_eq!(lu.len(), 2 * size * L, "factor storage length");
    assert_eq!(pivots.len(), n * L, "pivot vector length");
    assert_eq!(b.len(), 2 * n * L, "right-hand-side block length");
    if n == 0 {
        return;
    }
    for (l, pivots) in pivots.chunks_exact(n).enumerate().filter(|&(l, _)| live[l]) {
        for (k, &p) in pivots.iter().enumerate() {
            b.swap(2 * k * L + l, 2 * p * L + l);
            b.swap((2 * k + 1) * L + l, (2 * p + 1) * L + l);
        }
    }
    let keep = |pair: &mut [[f64; L]], acc: [[f64; L]; 2]| {
        for l in (0..L).filter(|&l| live[l]) {
            (pair[0][l], pair[1][l]) = (acc[0][l], acc[1][l]);
        }
    };
    for i in 1..n {
        let (done, rest) = b.split_at_mut(2 * i * L);
        let pair = &mut rest.as_chunks_mut::<L>().0[..2];
        let re: [&[f64]; L] = std::array::from_fn(|l| &lu[2 * l * size + i * n..][..i]);
        let im: [&[f64]; L] = std::array::from_fn(|l| &lu[(2 * l + 1) * size + i * n..][..i]);
        let [mut acc_re, mut acc_im] = [pair[0], pair[1]];
        for (j, y) in (0..i).zip(done.as_chunks::<L>().0.chunks_exact(2)) {
            for l in 0..L {
                let (l_re, l_im) = (re[l][j], im[l][j]);
                acc_re[l] -= l_re * y[0][l] - l_im * y[1][l];
                acc_im[l] -= l_re * y[1][l] + l_im * y[0][l];
            }
        }
        keep(pair, [acc_re, acc_im]);
    }
    for i in (0..n).rev() {
        let (head, tail) = b.split_at_mut(2 * (i + 1) * L);
        let pair = &mut head.as_chunks_mut::<L>().0[2 * i..];
        let re: [&[f64]; L] = std::array::from_fn(|l| &lu[2 * l * size + i * n + i..][..n - i]);
        let im: [&[f64]; L] =
            std::array::from_fn(|l| &lu[(2 * l + 1) * size + i * n + i..][..n - i]);
        let [mut acc_re, mut acc_im] = [pair[0], pair[1]];
        for (j, x) in (1..n - i).zip(tail.as_chunks::<L>().0.chunks_exact(2)) {
            for l in 0..L {
                let (u_re, u_im) = (re[l][j], im[l][j]);
                acc_re[l] -= u_re * x[0][l] - u_im * x[1][l];
                acc_im[l] -= u_re * x[1][l] + u_im * x[0][l];
            }
        }
        for l in 0..L {
            let pivot = SmithDivisor::new(Complex64::new(re[l][0], im[l][0]));
            let x = pivot.divide(Complex64::new(acc_re[l], acc_im[l]));
            (acc_re[l], acc_im[l]) = (x.re, x.im);
        }
        keep(pair, [acc_re, acc_im]);
    }
}

/// `live` as the lane row of a sweep `L` lanes wide.
#[inline(always)]
fn lane_row<const L: usize>(live: &[bool]) -> [bool; L] {
    live.try_into().expect("one mask entry per lane")
}

/// [`substitute`] at the width of `live`, one of 1, 2, 4 and 8 lanes. One
/// instruction set: the real sweep waits on its subtraction chains, not on
/// arithmetic throughput, so an AVX2 twin measured no faster.
pub(crate) fn substitute_lanes(
    n: usize,
    lu: &[f64],
    pivots: &[usize],
    live: &[bool],
    b: &mut [f64],
) {
    match live.len() {
        1 => substitute(n, lu, pivots, lane_row::<1>(live), b),
        2 => substitute(n, lu, pivots, lane_row::<2>(live), b),
        4 => substitute(n, lu, pivots, lane_row::<4>(live), b),
        8 => substitute(n, lu, pivots, lane_row::<8>(live), b),
        width => panic!("no lockstep substitution {width} lanes wide"),
    }
}

isa_twins! {
    /// [`substitute_planar`] at the width of `live`, one of 1, 2, 4 and 8 lanes:
    /// four products per term keep two `f64` per instruction busy, and the
    /// AVX2 twin runs four lanes' worth in one.
    pub(crate) fn substitute_planar_lanes(
        n: usize,
        lu: &[f64],
        pivots: &[usize],
        live: &[bool],
        b: &mut [f64],
    ) {
        match live.len() {
            1 => substitute_planar(n, lu, pivots, lane_row::<1>(live), b),
            2 => substitute_planar(n, lu, pivots, lane_row::<2>(live), b),
            4 => substitute_planar(n, lu, pivots, lane_row::<4>(live), b),
            8 => substitute_planar(n, lu, pivots, lane_row::<8>(live), b),
            width => panic!("no lockstep substitution {width} lanes wide"),
        }
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
        substitute(self.dim(), self.lu.as_slice(), &self.pivots, [true], b);
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
/// system of the Radau IIA method. The factors are held as two `f64` planes
/// (see the module docs); [`new`](Self::new) splits a [`CMatrix`] into
/// them, and a caller that refactors in a loop builds the planes itself and
/// hands them back and forth through [`from_planes`](Self::from_planes) /
/// [`into_planes`](Self::into_planes).
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
    n: usize,
    /// The packed factors: the row-major real plane, then the imaginary one.
    planes: Vec<f64>,
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
    pub fn new(a: CMatrix) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
        }
        let entries = a.as_slice().iter();
        let planes = entries.clone().map(|z| z.re).chain(entries.map(|z| z.im)).collect();
        Self::from_planes(a.rows(), planes)
    }

    /// Factorizes the `n × n` matrix given as its row-major real plane
    /// followed by its row-major imaginary plane (`2·n²` values), consuming
    /// the storage.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `planes` does not
    /// hold `2·n²` values and [`LinalgError::Singular`] when a pivot column
    /// vanishes.
    pub fn from_planes(n: usize, mut planes: Vec<f64>) -> Result<Self, LinalgError> {
        if planes.len() != 2 * n * n {
            return Err(LinalgError::DimensionMismatch {
                expected: 2 * n * n,
                actual: planes.len(),
            });
        }
        let mut pivots = vec![0; n];
        match Complex64::eliminate(&mut planes, n, &mut pivots) {
            Ok(()) => Ok(CluFactor { n, planes, pivots }),
            Err(pivot) => Err(LinalgError::Singular { pivot }),
        }
    }

    /// The dimension of the factored matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Consumes the factorization, returning the plane storage (the packed
    /// factors, real plane first) so a caller can reuse the allocation for
    /// the next [`from_planes`](Self::from_planes).
    pub fn into_planes(self) -> Vec<f64> {
        self.planes
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
        let b = Complex64::as_f64s_mut(b);
        substitute_planar(self.n, &self.planes, &self.pivots, [true], b);
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

    /// The bits of every value, with every NaN read as the one NaN: IEEE-754
    /// leaves the sign and payload of a NaN an operation produces to the
    /// hardware, and which operand of a `+` or `×` comes first — which x86
    /// propagates — to the code generator, which may commute them.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits()).collect()
    }

    /// An `n × n` matrix of deterministic pseudo-random values, bent by
    /// `variant` toward one branch of the elimination: dense; mostly signed
    /// zeros (exact-zero multipliers, which skip their row); sprinkled with
    /// `±0`, `±∞` and NaN; zeros under an infinity in the first pivot row
    /// (where `0 × ∞` must not be formed); an exactly singular column.
    fn adversarial(n: usize, variant: usize, salt: u64) -> Vec<f64> {
        let seed = salt ^ ((n as u64) << 8) ^ variant as u64;
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut a: Vec<f64> = (0..n * n).map(|_| next()).collect();
        let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        for (i, x) in a.iter_mut().enumerate() {
            match variant {
                1 if !i.is_multiple_of(3) => *x = if i % 2 == 0 { 0.0 } else { -0.0 },
                2 if (7 * i + salt as usize).is_multiple_of(13) => {
                    *x = specials[i % specials.len()]
                }
                3 if i.is_multiple_of(n) && i > 0 => *x = if i % 2 == 0 { 0.0 } else { -0.0 },
                4 if i % n == n / 2 => *x = 0.0,
                _ => {}
            }
        }
        if variant == 3 && n > 1 {
            a[0] = 7.0; // row 0 stays the first pivot row
            a[1] = f64::INFINITY;
        }
        a
    }

    /// Both twins of [`eliminate()`] and of [`eliminate_planar()`] leave the same
    /// bits — factors, pivots, sign, singular column — on every input,
    /// including the ones IEEE arithmetic is easiest to get wrong on.
    #[test]
    fn elimination_twins_agree_bit_for_bit() {
        if !crate::avx2_detected() {
            println!("skipped: this CPU has no AVX2, so only the baseline twins run");
            return;
        }
        let (mut singular, mut nonfinite) = (0, 0);
        for n in 1..=64 {
            for variant in 0..5 {
                let a = adversarial(n, variant, 1);
                let (mut wide, mut base) = (a.clone(), a.clone());
                let (mut wide_pivots, mut base_pivots) = (vec![usize::MAX; n], vec![usize::MAX; n]);
                let got = eliminate(&mut wide, n, &mut wide_pivots);
                let want = eliminate::baseline(&mut base, n, &mut base_pivots);
                let case = format!("real n={n} variant={variant}");
                assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{case}");
                assert_eq!(wide_pivots, base_pivots, "{case}");
                assert_eq!(bits(&wide), bits(&base), "{case}");
                singular += usize::from(got.is_err());
                nonfinite += usize::from(wide.iter().any(|x| !x.is_finite()));

                let (re, im) = (a, adversarial(n, variant, 2));
                let (mut wide_re, mut wide_im) = (re.clone(), im.clone());
                let (mut base_re, mut base_im) = (re, im);
                let (mut wide_pivots, mut base_pivots) = (vec![usize::MAX; n], vec![usize::MAX; n]);
                let got = eliminate_planar(&mut wide_re, &mut wide_im, n, &mut wide_pivots);
                let want =
                    eliminate_planar::baseline(&mut base_re, &mut base_im, n, &mut base_pivots);
                let case = format!("complex n={n} variant={variant}");
                assert_eq!(got, want, "{case}");
                assert_eq!(wide_pivots, base_pivots, "{case}");
                assert_eq!(bits(&wide_re), bits(&base_re), "{case}: real plane");
                assert_eq!(bits(&wide_im), bits(&base_im), "{case}: imaginary plane");
                singular += usize::from(got.is_err());
            }
        }
        assert!(singular >= 2 * 63, "every singular-column input must fail ({singular})");
        assert!(nonfinite > 60, "the specials must reach the factors ({nonfinite})");
    }

    /// Both twins of [`substitute_planar_lanes()`] leave the same bits on
    /// every input — factors with signed zeros, infinities and NaNs among
    /// them — at each width they are instantiated at, with lanes masked out.
    #[test]
    fn substitution_twins_agree_bit_for_bit() {
        if !crate::avx2_detected() {
            println!("skipped: this CPU has no AVX2, so only the baseline twins run");
            return;
        }
        for n in [1usize, 2, 5, 13] {
            for (variant, lanes) in (0..5).zip([1usize, 2, 4, 8, 4]) {
                let live: Vec<bool> = (0..lanes).map(|l| variant == 0 || l % 3 != 1).collect();
                let pivots: Vec<usize> =
                    (0..lanes * n).map(|i| ((i * 5 + variant) % n).max(i % n)).collect();
                let lu: Vec<f64> = (0..2 * lanes as u64)
                    .flat_map(|plane| adversarial(n, variant, 3 + 7 * plane))
                    .collect();
                let b: Vec<f64> =
                    adversarial(n, 0, 8).into_iter().cycle().take(2 * n * lanes).collect();
                let (mut wide, mut base) = (b.clone(), b);
                substitute_planar_lanes(n, &lu, &pivots, &live, &mut wide);
                substitute_planar_lanes::baseline(n, &lu, &pivots, &live, &mut base);
                assert_eq!(bits(&wide), bits(&base), "n={n} variant={variant}");
            }
        }
    }

    #[test]
    fn one_by_one_system() {
        let lu = LuFactor::new(Matrix::from_rows(&[&[4.0]])).unwrap();
        assert_eq!(lu.solve(&[8.0]).unwrap(), vec![2.0]);
        assert_eq!(lu.det(), 4.0);
    }
}
