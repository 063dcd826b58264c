//! Lane-batched dense LU factorization: the "getrfBatched/getrsBatched"
//! substrate the lockstep Radau IIA kernel hands its per-lane iteration
//! matrices to.
//!
//! Factor storage is **lane-major**: lane `l`'s `n × n` matrix is one
//! contiguous block (row-major; a complex lane is its real plane followed by
//! its imaginary plane, as everywhere in this crate), its pivot sequence
//! sits at `l·n`. Elimination stays per lane: every lane pivots on its own
//! rows, carries its own step size in the matrix and is refreshed on its own
//! schedule (the mask) — in the autophagy PSA campaign a factor call
//! eliminates 1.87 of 4 lanes on average — so each masked lane is factored
//! by the same elimination call [`LuFactor`](crate::LuFactor) /
//! [`CluFactor`](crate::CluFactor) make, over its own contiguous block. A
//! lane-interleaved elimination prototype ran 2–3× slower than that.
//!
//! The substitution is where lanes meet. Right-hand sides are lane-minor
//! (`i·L + l`, the layout of every stage vector; a complex block as split
//! rows, component `i`'s real parts at row `2i` and its imaginary parts at
//! row `2i + 1`), and [`solve_lanes`](BatchDenseLu::solve_lanes) runs the
//! exchanges, the forward and the back sweep of every lane at once: one
//! accumulator row of `L` values per component, each lane's sum still formed
//! left to right against its own lane-major factors. A lane's substitution
//! is one chain of dependent subtractions; `L` lanes are `L` independent
//! chains for the time of one. The sweep is one body for 1, 2, 4 and 8
//! lanes (a call with one lane to solve, or at another width, solves each
//! lane alone at width 1), and width 1 is the scalar types'
//! `solve_in_place` (see the `lu` module
//! for the arithmetic that is contractual), so a lane factored and solved
//! here is bit-identical to routing that lane's matrix through the scalar
//! types — the property the lockstep solver's determinism contract rests
//! on.
//!
//! Lanes are *masked*: `factor` touches only the lanes the caller selects,
//! leaving every other lane's stored factorization (and pivot sequence)
//! intact. That is how the Radau kernel reuses a lane's LU across steps
//! while refactoring its neighbours. A solve leaves the right-hand side of
//! every lane outside its mask — and of every singular or never-factored
//! lane — bit for bit as it was.

use crate::lu::LuScalar;
use crate::{Complex64, LinalgError};
use std::marker::PhantomData;

/// What a lane's factor storage holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Factors {
    /// Nothing was factored into the lane since its storage was sized.
    None,
    /// The factors of the lane's last matrix.
    Ready,
    /// A partial elimination: the last matrix had a zero pivot column.
    Singular,
}

/// Lane-batched LU factorization of `n × n` systems; used through its two
/// instantiations [`BatchLuFactor`] and [`BatchCluFactor`].
#[derive(Debug, Clone, Default)]
pub struct BatchDenseLu<T> {
    n: usize,
    lanes: usize,
    /// Lane `l` at `l·PLANES·n²`: matrix entries before `factor`, the
    /// packed `L`/`U` factors after (unit diagonal of `L` implicit).
    lu: Vec<f64>,
    /// Pivot swap sequence of lane `l` at `l·n` (LAPACK `ipiv` style).
    pivots: Vec<usize>,
    factors: Vec<Factors>,
    /// The lanes a sweep solves.
    live: Vec<bool>,
    /// One lane's column, gathered to be solved by itself.
    column: Vec<f64>,
    _element: PhantomData<T>,
}

/// Lane-batched LU factorization of real `n × n` systems.
///
/// # Example
///
/// ```
/// use paraspace_linalg::BatchLuFactor;
///
/// # fn main() -> Result<(), paraspace_linalg::LinalgError> {
/// // Two lanes: lane 0 holds [[2,1],[1,3]], lane 1 the identity.
/// let mut lu = BatchLuFactor::new(2, 2, 2)?;
/// lu.lane_mut(0).copy_from_slice(&[2.0, 1.0, 1.0, 3.0]);
/// lu.lane_mut(1).copy_from_slice(&[1.0, 0.0, 0.0, 1.0]);
/// lu.factor(&[true, true]);
/// assert!(!lu.is_singular(0) && !lu.is_singular(1));
/// let mut b = vec![3.0, 7.0, 4.0, -2.0]; // n × L block: b = (3, 4) | (7, -2)
/// lu.solve_lanes(&mut b, &[true, true]);
/// assert!((b[0] - 1.0).abs() < 1e-12 && (b[2] - 1.0).abs() < 1e-12); // lane 0: x = (1, 1)
/// assert_eq!((b[1], b[3]), (7.0, -2.0)); // lane 1 solved against I
/// # Ok(())
/// # }
/// ```
pub type BatchLuFactor = BatchDenseLu<f64>;

/// Lane-batched LU factorization of complex `n × n` systems — the complex
/// Newton system of the lockstep Radau IIA kernel, each lane held as two
/// `f64` planes and factored exactly as [`CluFactor`](crate::CluFactor)
/// factors them. Its right-hand sides are `2n × L` blocks of split rows:
/// component `i`'s real parts at row `2i`, its imaginary parts at row
/// `2i + 1`.
pub type BatchCluFactor = BatchDenseLu<Complex64>;

impl<T: LuScalar> BatchDenseLu<T> {
    /// Zeroed storage for `lanes` systems of `rows × cols` shape.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] when `rows != cols` (LU
    /// factorization needs a square system, the same contract as the scalar
    /// [`LuFactor::new`](crate::LuFactor::new)) and
    /// [`LinalgError::EmptyBatch`] when `lanes == 0`.
    pub fn new(rows: usize, cols: usize, lanes: usize) -> Result<Self, LinalgError> {
        if rows != cols {
            return Err(LinalgError::NotSquare { rows, cols });
        }
        if lanes == 0 {
            return Err(LinalgError::EmptyBatch);
        }
        let mut batch = BatchDenseLu {
            n: 0,
            lanes: 0,
            lu: Vec::new(),
            pivots: Vec::new(),
            factors: Vec::new(),
            live: Vec::new(),
            column: Vec::new(),
            _element: PhantomData,
        };
        batch.ensure(rows, lanes);
        Ok(batch)
    }

    /// Re-targets the storage to `n × n × lanes`, zero-filling. A no-op when
    /// the shape already matches (stored factorizations are kept).
    ///
    /// # Panics
    ///
    /// Panics when `lanes == 0` (the fallible construction path is
    /// [`new`](Self::new)).
    pub fn ensure(&mut self, n: usize, lanes: usize) {
        assert!(lanes > 0, "batched factor requires at least one lane");
        if self.n == n && self.lanes == lanes {
            return;
        }
        self.n = n;
        self.lanes = lanes;
        self.lu.clear();
        self.lu.resize(T::PLANES * n * n * lanes, 0.0);
        self.pivots.clear();
        self.pivots.resize(n * lanes, 0);
        self.factors.clear();
        self.factors.resize(lanes, Factors::None);
    }

    /// System dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Lane width `L`.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Lane `l`'s matrix storage.
    fn lane_storage_mut(&mut self, l: usize) -> &mut [f64] {
        let size = T::PLANES * self.n * self.n;
        &mut self.lu[l * size..][..size]
    }

    /// Whether lane `l`'s last factorization hit an exactly-zero pivot
    /// column.
    pub fn is_singular(&self, l: usize) -> bool {
        self.factors[l] == Factors::Singular
    }

    /// Factors the masked lanes in place, each exactly as the scalar
    /// [`LuFactor::new`](crate::LuFactor::new) /
    /// [`CluFactor::new`](crate::CluFactor::new) would. Unmasked lanes are
    /// untouched. Singular lanes are flagged (check
    /// [`is_singular`](Self::is_singular)) and their storage left partially
    /// eliminated; a solve skips them.
    pub fn factor(&mut self, mask: &[bool]) {
        assert_eq!(mask.len(), self.lanes, "mask length");
        let n = self.n;
        if n == 0 {
            return;
        }
        let lanes =
            self.lu.chunks_exact_mut(T::PLANES * n * n).zip(self.pivots.chunks_exact_mut(n));
        for (l, (a, pivots)) in lanes.enumerate().filter(|&(l, _)| mask[l]) {
            self.factors[l] = match T::eliminate(a, n, pivots) {
                Ok(()) => Factors::Ready,
                Err(_) => Factors::Singular,
            };
        }
    }

    /// Solves `A_l x_l = b_l` in place for every masked lane whose last
    /// factorization succeeded; every other lane's entries are left as they
    /// were, bit for bit. `b` is a lane-minor block of `PLANES·n` rows of
    /// `L` (real: component `i`, lane `l` ⇒ `i·L + l`; complex: split rows,
    /// see [`BatchCluFactor`]). Each lane is solved as
    /// [`LuFactor::solve_in_place`](crate::LuFactor::solve_in_place) /
    /// [`CluFactor::solve_in_place`](crate::CluFactor::solve_in_place)
    /// solve it — by the same substitution, which runs every lane at once
    /// (one lane alone at width 1). A solve allocates nothing once the
    /// factor has solved a block of this shape.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != PLANES·n·L` or `mask.len() != L`.
    pub fn solve_lanes(&mut self, b: &mut [f64], mask: &[bool]) {
        let (n, lanes) = (self.n, self.lanes);
        assert_eq!(b.len(), T::PLANES * n * lanes, "right-hand-side block length");
        assert_eq!(mask.len(), lanes, "mask length");
        self.live.clear();
        self.live.extend(mask.iter().zip(&self.factors).map(|(&m, &f)| m && f == Factors::Ready));
        if matches!(lanes, 2 | 4 | 8) && self.live.iter().filter(|&&live| live).count() >= 2 {
            return T::substitute_lanes(n, &self.lu, &self.pivots, &self.live, b);
        }
        // One lane, or a width the sweep is not instantiated at: each lane
        // by itself.
        for l in 0..lanes {
            if self.live[l] {
                self.solve_alone(l, b);
            }
        }
    }

    /// Solves lane `l` of a lane-minor block by itself, at width 1: its
    /// column is gathered, substituted and scattered back.
    fn solve_alone(&mut self, l: usize, b: &mut [f64]) {
        let (n, lanes, size) = (self.n, self.lanes, T::PLANES * self.n * self.n);
        let (lu, pivots) = (&self.lu[l * size..][..size], &self.pivots[l * n..][..n]);
        self.column.clear();
        self.column.extend(b.iter().skip(l).step_by(lanes));
        T::substitute_lanes(n, lu, pivots, &[true], &mut self.column);
        for (b, &x) in b.iter_mut().skip(l).step_by(lanes).zip(&self.column) {
            *b = x;
        }
    }
}

impl BatchDenseLu<f64> {
    /// Lane `l`'s matrix storage, row-major `n × n`. Callers write the next
    /// matrix here and then [`factor`](Self::factor) the lane; until then
    /// the lane's previous factorization is gone. Other lanes are untouched.
    pub fn lane_mut(&mut self, l: usize) -> &mut [f64] {
        self.lane_storage_mut(l)
    }
}

impl BatchDenseLu<Complex64> {
    /// Lane `l`'s matrix storage as its real and imaginary planes, each
    /// row-major `n × n`; see [`BatchLuFactor::lane_mut`].
    pub fn lane_planes_mut(&mut self, l: usize) -> (&mut [f64], &mut [f64]) {
        let entries = self.n * self.n;
        self.lane_storage_mut(l).split_at_mut(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::{eliminate, eliminate_planar};
    use crate::{CMatrix, CluFactor, LuFactor, Matrix};
    use std::ops::{Div, Mul, Sub};

    /// Deterministic pseudo-random values (no rand dependency here).
    fn rng(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        }
    }

    fn fill_lane(batch: &mut BatchLuFactor, l: usize, m: &Matrix) {
        batch.lane_mut(l).copy_from_slice(m.as_slice());
    }

    /// Lane `l` of an `n × L` lane-minor block.
    fn lane_of<T: Copy>(block: &[T], lanes: usize, l: usize) -> Vec<T> {
        block.iter().skip(l).step_by(lanes).copied().collect()
    }

    /// Member vectors to one `n × L` lane-minor block.
    fn soa<T: Copy + Default>(members: &[Vec<T>]) -> Vec<T> {
        let lanes = members.len();
        let mut block = vec![T::default(); members[0].len() * lanes];
        for (l, member) in members.iter().enumerate() {
            for (i, &v) in member.iter().enumerate() {
                block[i * lanes + l] = v;
            }
        }
        block
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn cbits(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// Complex member vectors to one `2n × L` block of split rows.
    fn split_rows(members: &[Vec<Complex64>]) -> Vec<f64> {
        let parts = |part: fn(&Complex64) -> f64| -> Vec<Vec<f64>> {
            members.iter().map(|m| m.iter().map(part).collect()).collect()
        };
        let (re, im) = (soa(&parts(|z| z.re)), soa(&parts(|z| z.im)));
        re.chunks(members.len())
            .zip(im.chunks(members.len()))
            .flat_map(|(r, i)| [r, i])
            .flatten()
            .copied()
            .collect()
    }

    /// Lane `l` of a `2n × L` block of split rows.
    fn split_lane_of(block: &[f64], lanes: usize, l: usize) -> Vec<Complex64> {
        let column = lane_of(block, lanes, l);
        column.chunks_exact(2).map(|z| Complex64::new(z[0], z[1])).collect()
    }

    /// What the reference elimination asks of an element type.
    trait Elem:
        Copy + PartialEq + Sub<Output = Self> + Mul<Output = Self> + Div<Output = Self>
    {
        const ZERO: Self;
        fn pivot_size(self) -> f64;
    }

    impl Elem for f64 {
        const ZERO: Self = 0.0;
        fn pivot_size(self) -> f64 {
            self.abs()
        }
    }

    impl Elem for Complex64 {
        const ZERO: Self = Complex64::ZERO;
        fn pivot_size(self) -> f64 {
            self.abs_sq()
        }
    }

    /// The textbook elimination, one 2-D index per element, over values of
    /// the element type (complex entries as interleaved [`Complex64`]s):
    /// what every dense kernel in this crate did before they shared
    /// [`eliminate()`] / [`eliminate_planar()`], and the reference both are
    /// held to.
    fn reference_eliminate<T: Elem>(a: &mut [T], n: usize) -> Result<(Vec<usize>, f64), usize> {
        let at = |i: usize, j: usize| i * n + j;
        let (mut pivots, mut sign) = (Vec::new(), 1.0);
        for k in 0..n {
            let mut piv = k;
            let mut max = a[at(k, k)].pivot_size();
            for i in (k + 1)..n {
                let v = a[at(i, k)].pivot_size();
                if v > max {
                    max = v;
                    piv = i;
                }
            }
            if max == 0.0 {
                return Err(k);
            }
            pivots.push(piv);
            if piv != k {
                for j in 0..n {
                    a.swap(at(k, j), at(piv, j));
                }
                sign = -sign;
            }
            let pivot = a[at(k, k)];
            for i in (k + 1)..n {
                let m = a[at(i, k)] / pivot;
                a[at(i, k)] = m;
                if m != T::ZERO {
                    for j in (k + 1)..n {
                        a[at(i, j)] = a[at(i, j)] - m * a[at(k, j)];
                    }
                }
            }
        }
        Ok((pivots, sign))
    }

    /// The textbook substitution against [`reference_eliminate`]'s factors:
    /// exchanges, then `L y = P b` and `U x = y`, sums left to right.
    fn reference_solve<T: Elem>(lu: &[T], n: usize, pivots: &[usize], b: &mut [T]) {
        for (k, &p) in pivots.iter().enumerate() {
            b.swap(k, p);
        }
        for i in 0..n {
            for j in 0..i {
                b[i] = b[i] - lu[i * n + j] * b[j];
            }
        }
        for i in (0..n).rev() {
            for j in (i + 1)..n {
                b[i] = b[i] - lu[i * n + j] * b[j];
            }
            b[i] = b[i] / lu[i * n + i];
        }
    }

    /// A complex matrix as its real plane and its imaginary plane.
    fn planes(a: &[Complex64]) -> (Vec<f64>, Vec<f64>) {
        (a.iter().map(|z| z.re).collect(), a.iter().map(|z| z.im).collect())
    }

    /// The bits of two planes, entry by entry: comparable with [`cbits`].
    fn plane_bits(re: &[f64], im: &[f64]) -> Vec<(u64, u64)> {
        re.iter().zip(im).map(|(re, im)| (re.to_bits(), im.to_bits())).collect()
    }

    /// Random dense `n × n` values shaped to take every branch: a zeroed
    /// diagonal forces row exchanges, zeroed sub-diagonal entries give
    /// exact-zero multipliers, and (`with_inf`) an infinity in the first
    /// pivot row sits over one of them, where `0 × ∞` would be a NaN.
    fn branchy(n: usize, seed: u64, with_inf: bool) -> Vec<f64> {
        let mut next = rng(seed);
        let mut a: Vec<f64> = (0..n * n).map(|_| next()).collect();
        for i in 0..n {
            if i % 2 == 0 {
                a[i * n + i] = 0.0;
            }
            for j in 0..i {
                if (i + 2 * j + seed as usize).is_multiple_of(3) {
                    a[i * n + j] = 0.0;
                }
            }
        }
        if with_inf {
            a[0] = 7.0; // row 0 stays the first pivot row
            a[1] = f64::INFINITY;
            a[n] = 0.0; // row 1: multiplier exactly zero under the infinity
        }
        a
    }

    #[test]
    fn shared_elimination_matches_the_index_based_reference() {
        let (mut exchanged, mut complex_exchanged, mut complex_singular) = (0, 0, 0);
        for n in [1usize, 2, 3, 7, 16] {
            for seed in 1..=6u64 {
                let real = branchy(n, seed.wrapping_mul(0x9e3779b97f4a7c15), n >= 3 && seed == 6);
                let mut imag = rng(seed ^ 0xabcdef);
                let cplx: Vec<Complex64> = real
                    .iter()
                    .map(|&re| Complex64::new(re, if re == 0.0 { 0.0 } else { imag() }))
                    .collect();

                let (mut want, mut got) = (real.clone(), real.clone());
                let mut pivots = vec![usize::MAX; n];
                match (reference_eliminate(&mut want, n), eliminate(&mut got, n, &mut pivots)) {
                    (Ok((want_pivots, want_sign)), Ok(sign)) => {
                        assert_eq!(pivots, want_pivots, "n={n} seed={seed}: pivots");
                        assert_eq!(sign, want_sign, "n={n} seed={seed}: determinant sign");
                        assert_eq!(bits(&got), bits(&want), "n={n} seed={seed}: factors");
                        exchanged += pivots.iter().enumerate().filter(|&(k, &p)| p != k).count();
                        // The scalar type reports what the routine does.
                        let lu = LuFactor::new(Matrix::from_vec(n, n, real.clone())).unwrap();
                        let det = got.iter().step_by(n + 1).fold(sign, |d, &u| d * u);
                        assert_eq!(lu.det().to_bits(), det.to_bits(), "n={n} seed={seed}: det");
                        assert_eq!(bits(lu.into_matrix().as_slice()), bits(&want));
                    }
                    (Err(want_k), Err(k)) => {
                        assert_eq!(k, want_k, "n={n} seed={seed}: singular column");
                        assert_eq!(bits(&got), bits(&want), "n={n} seed={seed}: partial factors");
                    }
                    (want, got) => panic!("n={n} seed={seed}: reference {want:?}, shared {got:?}"),
                }

                // The planar routine against the same reference run over
                // interleaved values: pivots, the singular column, and the
                // (partial) factors, bit for bit.
                let (mut want, (mut re, mut im)) = (cplx.clone(), planes(&cplx));
                let mut pivots = vec![usize::MAX; n];
                match (
                    reference_eliminate(&mut want, n),
                    eliminate_planar(&mut re, &mut im, n, &mut pivots),
                ) {
                    (Ok((want_pivots, _)), Ok(())) => {
                        assert_eq!(pivots, want_pivots, "complex n={n} seed={seed}: pivots");
                        complex_exchanged +=
                            pivots.iter().enumerate().filter(|&(k, &p)| p != k).count();
                    }
                    (Err(want_k), Err(k)) => {
                        assert_eq!(k, want_k, "complex n={n} seed={seed}");
                        complex_singular += 1;
                    }
                    (want, got) => {
                        panic!("complex n={n} seed={seed}: reference {want:?}, planar {got:?}")
                    }
                }
                assert_eq!(plane_bits(&re, &im), cbits(&want), "complex n={n} seed={seed}");
            }
        }
        assert!(exchanged > 20, "the inputs must force row exchanges ({exchanged})");
        assert!(complex_exchanged > 20, "complex row exchanges ({complex_exchanged})");
        assert!(complex_singular > 0, "the inputs must include a singular complex column");
    }

    #[test]
    fn zero_multiplier_under_an_infinity_is_skipped() {
        let mut a = vec![7.0, f64::INFINITY, 1.0, 0.0, 2.0, 3.0, 0.0, 1.0, 5.0];
        let mut pivots = vec![0; 3];
        eliminate(&mut a, 3, &mut pivots).unwrap();
        assert_eq!(pivots, [0, 1, 2]);
        // Rows 1 and 2 have multiplier 0 under the infinity: `0 × ∞` must
        // not have been formed.
        assert_eq!(a, [7.0, f64::INFINITY, 1.0, 0.0, 2.0, 3.0, 0.0, 0.5, 3.5]);
    }

    #[test]
    fn batched_factor_and_solve_are_bitwise_equal_to_scalar() {
        let n = 7;
        for lanes in [1usize, 2, 4, 8] {
            let mut next = rng(0x9e3779b97f4a7c15 ^ lanes as u64);
            let mats: Vec<Matrix> = (0..lanes)
                .map(|_| Matrix::from_fn(n, n, |i, j| next() + if i == j { 3.0 } else { 0.0 }))
                .collect();
            let rhs: Vec<Vec<f64>> = (0..lanes).map(|_| (0..n).map(|_| next()).collect()).collect();

            let mut batch = BatchLuFactor::new(n, n, lanes).unwrap();
            for (l, m) in mats.iter().enumerate() {
                fill_lane(&mut batch, l, m);
            }
            let mask = vec![true; lanes];
            batch.factor(&mask);
            let mut b = soa(&rhs);
            batch.solve_lanes(&mut b, &mask);

            for (l, m) in mats.iter().enumerate() {
                let scalar = LuFactor::new(m.clone()).unwrap();
                let mut x = rhs[l].clone();
                scalar.solve_in_place(&mut x);
                assert_eq!(bits(&lane_of(&b, lanes, l)), bits(&x), "lanes={lanes} lane={l}");
                let factors = scalar.into_matrix();
                assert_eq!(
                    bits(batch.lane_mut(l)),
                    bits(factors.as_slice()),
                    "lanes={lanes} lane={l}"
                );
            }
        }
    }

    #[test]
    fn complex_batched_factor_matches_scalar_bitwise() {
        let n = 5;
        for lanes in [1usize, 2, 4, 8] {
            let mut next = rng(0x51_7c_c1_b7_27_22_0a_95 ^ lanes as u64);
            let mats: Vec<CMatrix> = (0..lanes)
                .map(|_| {
                    let mut m = CMatrix::zeros(n, n);
                    for i in 0..n {
                        for j in 0..n {
                            m[(i, j)] =
                                Complex64::new(next() + if i == j { 2.5 } else { 0.0 }, next());
                        }
                    }
                    m
                })
                .collect();
            let rhs: Vec<Vec<Complex64>> = (0..lanes)
                .map(|_| (0..n).map(|_| Complex64::new(next(), next())).collect())
                .collect();

            let mut batch = BatchCluFactor::new(n, n, lanes).unwrap();
            for (l, m) in mats.iter().enumerate() {
                let (re, im) = planes(m.as_slice());
                let (lane_re, lane_im) = batch.lane_planes_mut(l);
                lane_re.copy_from_slice(&re);
                lane_im.copy_from_slice(&im);
            }
            let mask = vec![true; lanes];
            batch.factor(&mask);
            let mut b = split_rows(&rhs);
            batch.solve_lanes(&mut b, &mask);

            for (l, m) in mats.iter().enumerate() {
                // The interleaved textbook factor-and-solve is the reference
                // for the scalar type, and the scalar type for the lane.
                let mut want = m.as_slice().to_vec();
                let (pivots, _) = reference_eliminate(&mut want, n).unwrap();
                let mut want_x = rhs[l].clone();
                reference_solve(&want, n, &pivots, &mut want_x);

                let scalar = CluFactor::new(m.clone()).unwrap();
                let mut x = rhs[l].clone();
                scalar.solve_in_place(&mut x);
                assert_eq!(cbits(&x), cbits(&want_x), "lanes={lanes} lane={l}: scalar solve");
                assert_eq!(
                    cbits(&split_lane_of(&b, lanes, l)),
                    cbits(&x),
                    "lanes={lanes} lane={l}"
                );
                let factors = scalar.into_planes();
                assert_eq!(plane_bits(&factors[..n * n], &factors[n * n..]), cbits(&want));
                let (lane_re, lane_im) = batch.lane_planes_mut(l);
                assert_eq!(plane_bits(lane_re, lane_im), cbits(&want), "lanes={lanes} lane={l}");
            }
        }
    }

    /// What a lane of the lockstep tests is put through.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Role {
        /// Factored, masked in: solved.
        Solved,
        /// Factored against a matrix with a zero column, masked in.
        Singular,
        /// Factored, then its storage overwritten with NaN, masked out.
        Garbage,
        /// Never factored, masked in.
        Unfactored,
    }

    /// Lane `l`'s role under each mask pattern: every lane solved; the four
    /// roles in turn (width 8 runs two solved lanes among the others, widths
    /// 2–4 one, which is solved alone); solved and masked-out lanes in turn.
    fn role(pattern: usize, l: usize) -> Role {
        const ROLES: [Role; 4] = [Role::Solved, Role::Singular, Role::Garbage, Role::Unfactored];
        match pattern {
            0 => Role::Solved,
            1 => ROLES[l % 4],
            _ => ROLES[2 * (l % 2)],
        }
    }

    /// A `branchy` matrix (row exchanges, zero multipliers) of its own per
    /// lane, with a zero column for a singular lane.
    fn lane_matrix(n: usize, seed: u64, role: Role) -> Vec<f64> {
        let mut a = branchy(n, seed.wrapping_mul(0x9e3779b97f4a7c15), false);
        if role == Role::Singular {
            a.iter_mut().skip(1).step_by(n).for_each(|x| *x = 0.0);
        }
        a
    }

    /// Whether lane `l` of `batch` exchanged a row.
    fn exchanges<T: LuScalar>(batch: &BatchDenseLu<T>, l: usize) -> bool {
        let n = batch.dim();
        batch.pivots[l * n..][..n].iter().enumerate().any(|(k, &p)| p != k)
    }

    #[test]
    fn lockstep_solve_is_each_lanes_scalar_solve() {
        let n = 5;
        let mut exchanged = 0;
        for lanes in [1usize, 2, 3, 4, 8] {
            for pattern in 0..3 {
                let role = |l| role(pattern, l);
                let mut next = rng(lanes as u64 * 7 + pattern as u64);
                let mats: Vec<Vec<f64>> =
                    (0..lanes).map(|l| lane_matrix(n, (lanes * 8 + l) as u64, role(l))).collect();
                let rhs: Vec<Vec<f64>> =
                    (0..lanes).map(|_| (0..n).map(|_| next()).collect()).collect();

                let mut batch = BatchLuFactor::new(n, n, lanes).unwrap();
                for (l, m) in mats.iter().enumerate() {
                    batch.lane_mut(l).copy_from_slice(m);
                }
                batch.factor(&(0..lanes).map(|l| role(l) != Role::Unfactored).collect::<Vec<_>>());
                for l in (0..lanes).filter(|&l| role(l) == Role::Garbage) {
                    batch.lane_mut(l).fill(f64::NAN);
                }
                let mut b = soa(&rhs);
                batch.solve_lanes(
                    &mut b,
                    &(0..lanes).map(|l| role(l) != Role::Garbage).collect::<Vec<_>>(),
                );

                for l in 0..lanes {
                    let case = format!("lanes={lanes} pattern={pattern} lane={l} {:?}", role(l));
                    assert_eq!(batch.is_singular(l), role(l) == Role::Singular, "{case}");
                    let mut want = rhs[l].clone();
                    if role(l) == Role::Solved {
                        let scalar =
                            LuFactor::new(Matrix::from_vec(n, n, mats[l].clone())).unwrap();
                        scalar.solve_in_place(&mut want);
                        let (mut lu, mut textbook) = (mats[l].clone(), rhs[l].clone());
                        let (pivots, _) = reference_eliminate(&mut lu, n).unwrap();
                        reference_solve(&lu, n, &pivots, &mut textbook);
                        assert_eq!(bits(&want), bits(&textbook), "{case}: scalar solve");
                        exchanged += usize::from(exchanges(&batch, l));
                    }
                    assert_eq!(bits(&lane_of(&b, lanes, l)), bits(&want), "{case}");
                }
            }
        }
        assert!(exchanged > 10, "the lanes must exchange rows ({exchanged})");
    }

    #[test]
    fn complex_lockstep_solve_is_each_lanes_scalar_solve() {
        let n = 4;
        let mut exchanged = 0;
        for lanes in [1usize, 2, 3, 4, 8] {
            for pattern in 0..3 {
                let role = |l| role(pattern, l);
                let mut next = rng(lanes as u64 * 11 + pattern as u64);
                let mats: Vec<Vec<Complex64>> = (0..lanes)
                    .map(|l| {
                        let re = lane_matrix(n, (lanes * 8 + l) as u64, role(l));
                        let mut im = |re: f64| if re == 0.0 { 0.0 } else { next() };
                        re.iter().map(|&re| Complex64::new(re, im(re))).collect()
                    })
                    .collect();
                let rhs: Vec<Vec<Complex64>> = (0..lanes)
                    .map(|_| (0..n).map(|_| Complex64::new(next(), next())).collect())
                    .collect();

                let mut batch = BatchCluFactor::new(n, n, lanes).unwrap();
                for (l, m) in mats.iter().enumerate() {
                    let (re, im) = planes(m);
                    let (lane_re, lane_im) = batch.lane_planes_mut(l);
                    lane_re.copy_from_slice(&re);
                    lane_im.copy_from_slice(&im);
                }
                batch.factor(&(0..lanes).map(|l| role(l) != Role::Unfactored).collect::<Vec<_>>());
                for l in (0..lanes).filter(|&l| role(l) == Role::Garbage) {
                    let (re, im) = batch.lane_planes_mut(l);
                    re.fill(f64::NAN);
                    im.fill(f64::NAN);
                }
                let mut b = split_rows(&rhs);
                batch.solve_lanes(
                    &mut b,
                    &(0..lanes).map(|l| role(l) != Role::Garbage).collect::<Vec<_>>(),
                );

                for l in 0..lanes {
                    let case = format!("lanes={lanes} pattern={pattern} lane={l} {:?}", role(l));
                    assert_eq!(batch.is_singular(l), role(l) == Role::Singular, "{case}");
                    let mut want = rhs[l].clone();
                    if role(l) == Role::Solved {
                        let (re, im) = planes(&mats[l]);
                        CluFactor::from_planes(n, [re, im].concat())
                            .unwrap()
                            .solve_in_place(&mut want);
                        let (mut lu, mut textbook) = (mats[l].clone(), rhs[l].clone());
                        let (pivots, _) = reference_eliminate(&mut lu, n).unwrap();
                        reference_solve(&lu, n, &pivots, &mut textbook);
                        assert_eq!(cbits(&want), cbits(&textbook), "{case}: scalar solve");
                        exchanged += usize::from(exchanges(&batch, l));
                    }
                    assert_eq!(cbits(&split_lane_of(&b, lanes, l)), cbits(&want), "{case}");
                }
            }
        }
        assert!(exchanged > 10, "the lanes must exchange rows ({exchanged})");
    }

    #[test]
    fn masked_refactor_preserves_other_lanes() {
        let n = 4;
        let lanes = 3;
        let mut next = rng(42);
        let mats: Vec<Matrix> = (0..lanes)
            .map(|_| Matrix::from_fn(n, n, |i, j| next() + ((i == j) as u64 as f64) * 4.0))
            .collect();
        let mut batch = BatchLuFactor::new(n, n, lanes).unwrap();
        for (l, m) in mats.iter().enumerate() {
            fill_lane(&mut batch, l, m);
        }
        batch.factor(&[true, true, true]);
        let live: Vec<Vec<u64>> = (0..lanes).map(|l| bits(batch.lane_mut(l))).collect();
        let live_pivots = batch.pivots.clone();

        // Refactor lane 1 only against a new matrix; lanes 0 and 2 must
        // keep their factors and pivots, and still solve against their
        // original systems, bit for bit.
        let fresh = Matrix::from_fn(n, n, |i, j| if i == j { 9.0 } else { 0.25 });
        fill_lane(&mut batch, 1, &fresh);
        batch.factor(&[false, true, false]);
        for l in [0, 2] {
            assert_eq!(bits(batch.lane_mut(l)), live[l], "lane {l}: factors");
            assert_eq!(batch.pivots[l * n..][..n], live_pivots[l * n..][..n], "lane {l}: pivots");
        }

        let rhs: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut b = soa(&vec![rhs.clone(); lanes]);
        batch.solve_lanes(&mut b, &[true, true, true]);
        for (l, m) in [(0usize, &mats[0]), (1, &fresh), (2, &mats[2])] {
            let scalar = LuFactor::new(m.clone()).unwrap();
            let mut x = rhs.clone();
            scalar.solve_in_place(&mut x);
            assert_eq!(bits(&lane_of(&b, lanes, l)), bits(&x), "lane={l}");
        }
    }

    #[test]
    fn singular_lane_is_flagged_without_poisoning_neighbours() {
        let n = 3;
        let lanes = 3;
        let mut batch = BatchLuFactor::new(n, n, lanes).unwrap();
        // Lane 1: singular (two proportional rows), between two regular
        // lanes.
        let singular = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[2.0, 4.0, 0.0], &[0.0, 0.0, 1.0]]);
        let good = [
            Matrix::from_fn(n, n, |i, j| if i == j { 2.0 } else { 0.5 }),
            Matrix::from_fn(n, n, |i, j| if i == j { -3.0 } else { 0.25 * (i + j) as f64 }),
        ];
        fill_lane(&mut batch, 0, &good[0]);
        fill_lane(&mut batch, 1, &singular);
        fill_lane(&mut batch, 2, &good[1]);
        batch.factor(&[true, true, true]);
        assert!(!batch.is_singular(0));
        assert!(batch.is_singular(1));
        assert!(!batch.is_singular(2));
        assert!(matches!(LuFactor::new(singular), Err(LinalgError::Singular { pivot: 1 })));

        let rhs = vec![1.0, 2.0, 3.0];
        let mut b = soa(&vec![rhs.clone(); lanes]);
        batch.solve_lanes(&mut b, &[true, true, true]);
        // Lane 1 untouched (singular lanes are skipped)...
        assert_eq!(lane_of(&b, lanes, 1), rhs);
        // ...its neighbours solved as the scalar type solves them.
        for (l, m) in [(0, &good[0]), (2, &good[1])] {
            let mut x = rhs.clone();
            LuFactor::new(m.clone()).unwrap().solve_in_place(&mut x);
            assert_eq!(bits(&lane_of(&b, lanes, l)), bits(&x), "lane={l}");
        }

        // A regular matrix refactored into the lane clears the flag.
        fill_lane(&mut batch, 1, &good[0]);
        batch.factor(&[false, true, false]);
        assert!(!batch.is_singular(1));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry_per_lane() {
        let n = 2;
        let lanes = 2;
        let mut batch = BatchLuFactor::new(n, n, lanes).unwrap();
        let m = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        fill_lane(&mut batch, 0, &m);
        fill_lane(&mut batch, 1, &m);
        batch.factor(&[true, true]);
        let mut b = vec![5.0, 5.0, 7.0, 7.0];
        batch.solve_lanes(&mut b, &[true, true]);
        assert_eq!(&b, &[7.0, 7.0, 5.0, 5.0]);
    }

    #[test]
    fn non_square_and_zero_lane_batches_are_rejected() {
        assert!(matches!(
            BatchLuFactor::new(3, 2, 4),
            Err(LinalgError::NotSquare { rows: 3, cols: 2 })
        ));
        assert!(matches!(BatchLuFactor::new(3, 3, 0), Err(LinalgError::EmptyBatch)));
        assert!(matches!(
            BatchCluFactor::new(2, 5, 1),
            Err(LinalgError::NotSquare { rows: 2, cols: 5 })
        ));
        assert!(matches!(BatchCluFactor::new(4, 4, 0), Err(LinalgError::EmptyBatch)));
    }

    #[test]
    fn ensure_is_idempotent_and_reshapes() {
        let mut batch = BatchLuFactor::new(2, 2, 2).unwrap();
        batch.lane_mut(0)[0] = 1.0;
        batch.ensure(2, 2); // no-op: contents kept
        assert_eq!(batch.lane_mut(0)[0], 1.0);
        batch.ensure(3, 4);
        assert_eq!(batch.dim(), 3);
        assert_eq!(batch.lanes(), 4);
        assert!((0..4).all(|l| batch.lane_mut(l).iter().all(|&v| v == 0.0)));
        let mut c = BatchCluFactor::new(2, 2, 2).unwrap();
        c.ensure(3, 4);
        assert_eq!(c.dim(), 3);
        assert_eq!(c.lanes(), 4);
    }
}
