//! Structure-exploiting batched sparse LU: the KLU-style
//! symbolic-once / numeric-per-lane substrate behind the stiff lane path.
//!
//! The mass-action Jacobian's sparsity is fixed by stoichiometry the moment
//! a model is compiled, and the Radau iteration matrices `c/h·I − J` only
//! add the diagonal. That makes the classic two-phase split pay: a
//! [`SymbolicLu`] analysis runs **once per model** over the structural
//! pattern, and the numeric kernels ([`BatchSparseLuFactor`] /
//! [`BatchSparseCluFactor`]) then factor `L` lanes per Newton refresh while
//! streaming only the pattern's entries — `nnz·L` doubles instead of the
//! `n²·L` the dense kernel reads and writes, which is the difference
//! between the factor working set fitting in cache and blowing it on
//! 100-species metabolic networks.
//!
//! # Pivoting and the static fill pattern
//!
//! The numeric kernels replicate the dense batched kernels **branch for
//! branch** — the strict-`>` partial-pivot search seeded by the diagonal,
//! the `max == 0.0` singularity test, the `m != 0.0` elimination guard —
//! so a lane factored here produces bit-identical solves to the dense path
//! (and therefore to the scalar [`LuFactor`](crate::LuFactor)) on the same
//! pivot sequence. Because partial pivoting is data-driven and differs per
//! lane, the symbolic pattern must hold *every* pivot sequence any lane can
//! take: [`SymbolicLu::analyze`] computes a fill pattern **closed under row
//! interchanges** by propagating, at each elimination step `k`, the union
//! of every candidate pivot row's pattern into every row that can hold a
//! nonzero multiplier in column `k`. The result is a superset of the
//! classical (fixed-pivot) fill-in, and every value the dense kernel can
//! produce at a position outside it is an exact `±0.0`.
//!
//! Rows are never moved in storage: each lane carries a logical→storage
//! permutation, so a "row swap" is one index exchange and the SoA value
//! block (`entry e`, lane `l` ⇒ `e·L + l`) stays put. Bitwise equality with
//! the physically-swapping dense kernel holds because both read and write
//! the same values in the same order; the only representational difference
//! is the sign of exact zeros at structurally-zero positions, which compare
//! equal and contribute `±0.0` terms the dense substitution absorbs
//! unchanged.
//!
//! # Fill-reducing ordering
//!
//! [`SymbolicLu::analyze_ordered`] additionally accepts a fill-reducing
//! symmetric permutation (greedy minimum-degree on the symmetrized
//! pattern, [`min_degree_ordering`]). Reordering changes the elimination
//! order and therefore the floating-point results, so the lockstep Radau
//! kernel — whose contract is bitwise identity with the scalar solver —
//! analyzes in natural order and uses the ordering only as a what-if in
//! the cost model; callers without a bitwise contract can factor under the
//! ordering directly.

use crate::{Complex64, LinalgError};
use std::sync::Arc;

/// The structural nonzero positions of an `n × n` matrix, in CSR form
/// (sorted, deduplicated column indices per row).
///
/// # Example
///
/// ```
/// use paraspace_linalg::SparsityPattern;
///
/// let p = SparsityPattern::from_entries(3, [(0, 0), (0, 2), (2, 0), (1, 1), (0, 2)]);
/// assert_eq!(p.nnz(), 4); // duplicates collapse
/// assert!(p.contains(0, 2) && !p.contains(2, 2));
/// assert_eq!(p.row(0), &[0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityPattern {
    n: usize,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
}

impl SparsityPattern {
    /// Builds a pattern from `(row, col)` entries (any order, duplicates
    /// allowed).
    ///
    /// # Panics
    ///
    /// Panics if an entry lies outside `n × n`.
    pub fn from_entries(n: usize, entries: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, j) in entries {
            assert!(i < n && j < n, "pattern entry ({i}, {j}) outside {n}x{n}");
            rows[i].push(j as u32);
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        row_ptr.push(0);
        for r in &mut rows {
            r.sort_unstable();
            r.dedup();
            cols.extend_from_slice(r);
            row_ptr.push(cols.len());
        }
        SparsityPattern { n, row_ptr, cols }
    }

    /// The fully dense pattern (every position structural).
    pub fn dense(n: usize) -> Self {
        let mut cols = Vec::with_capacity(n * n);
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        for _ in 0..n {
            cols.extend(0..n as u32);
            row_ptr.push(cols.len());
        }
        SparsityPattern { n, row_ptr, cols }
    }

    /// Matrix dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// `nnz / n²` (1.0 for [`dense`](Self::dense); 0.0 for `n = 0`).
    pub fn density(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.n * self.n) as f64
        }
    }

    /// Sorted column indices of row `i`.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.cols[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Whether position `(i, j)` is structural.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.row(i).binary_search(&(j as u32)).is_ok()
    }
}

/// A greedy minimum-degree ordering of the symmetrized pattern
/// `P ∪ Pᵀ`: returns a permutation `order` such that eliminating
/// `order[0], order[1], …` tends to produce less fill than natural order.
///
/// This is the classical quotient-free greedy scheme (no supernode or
/// element absorption), adequate for the few-hundred-species networks this
/// suite targets; the symbolic pass accepts any permutation, so a sharper
/// ordering can be swapped in without touching the numeric kernels.
pub fn min_degree_ordering(pattern: &SparsityPattern) -> Vec<usize> {
    let n = pattern.dim();
    let words = n.div_ceil(64).max(1);
    // Symmetrized adjacency as bitsets (diagonal included).
    let mut adj = vec![0u64; n * words];
    for i in 0..n {
        adj[i * words + i / 64] |= 1u64 << (i % 64);
        for &j in pattern.row(i) {
            let j = j as usize;
            adj[i * words + j / 64] |= 1u64 << (j % 64);
            adj[j * words + i / 64] |= 1u64 << (i % 64);
        }
    }
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut clique = vec![0u64; words];
    for _ in 0..n {
        // Pick the uneliminated vertex of minimum current degree (ties by
        // index, keeping the ordering deterministic).
        let mut best = usize::MAX;
        let mut best_deg = usize::MAX;
        for v in 0..n {
            if eliminated[v] {
                continue;
            }
            let mut deg = 0usize;
            for w in 0..words {
                deg += adj[v * words + w].count_ones() as usize;
            }
            if deg < best_deg {
                best_deg = deg;
                best = v;
            }
        }
        let v = best;
        eliminated[v] = true;
        order.push(v);
        // Eliminating v connects its remaining neighbours into a clique.
        clique.copy_from_slice(&adj[v * words..(v + 1) * words]);
        for u in 0..n {
            if eliminated[u] || clique[u / 64] >> (u % 64) & 1 == 0 {
                continue;
            }
            for w in 0..words {
                adj[u * words + w] |= clique[w];
            }
            adj[u * words + v / 64] &= !(1u64 << (v % 64));
        }
    }
    order
}

/// The symbolic phase of the batched sparse LU: a static, pivot-order-closed
/// fill pattern plus O(1) position lookup, computed once per model and
/// shared by every lane and every Newton refresh.
///
/// # Example
///
/// ```
/// use paraspace_linalg::{SparsityPattern, SymbolicLu};
///
/// // An arrow matrix: dense last row/column + diagonal.
/// let n = 5;
/// let mut entries = vec![];
/// for i in 0..n {
///     entries.push((i, i));
///     entries.push((n - 1, i));
///     entries.push((i, n - 1));
/// }
/// let sym = SymbolicLu::analyze(&SparsityPattern::from_entries(n, entries));
/// assert!(sym.nnz() < n * n, "arrow pattern must not fill densely");
/// assert!(sym.pos(0, 0).is_some() && sym.pos(1, 0).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct SymbolicLu {
    n: usize,
    /// The input pattern (diagonal added), kept for cache-identity checks
    /// and superset reporting.
    input: SparsityPattern,
    /// Fill-closed pattern in CSR (sorted columns per storage row).
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    /// Entry index of `(i, j)`, or `-1` when structurally zero (`i·n + j`).
    pos: Vec<i32>,
    /// Entry index of each storage row's diagonal.
    diag: Vec<usize>,
    /// Optional fill-reducing symmetric permutation this analysis was run
    /// under (`order[p]` = original index eliminated at step `p`); `None`
    /// for natural order.
    order: Option<Vec<usize>>,
}

impl SymbolicLu {
    /// Analyzes `pattern` in natural order: adds the diagonal (the default
    /// pivot slot of every elimination step), then closes the pattern under
    /// fill-in for **every** partial-pivoting row sequence.
    pub fn analyze(pattern: &SparsityPattern) -> Self {
        Self::analyze_impl(pattern, None)
    }

    /// [`analyze`](Self::analyze) under a symmetric permutation: row and
    /// column `order[p]` of the original matrix become row and column `p`
    /// of the factored one. Numeric kernels built on this analysis expect
    /// their inputs pre-permuted the same way (use
    /// [`order`](Self::order) to map), and their results are **not**
    /// bitwise comparable to a natural-order factorization.
    pub fn analyze_ordered(pattern: &SparsityPattern, order: Vec<usize>) -> Self {
        assert_eq!(order.len(), pattern.dim(), "ordering length");
        let n = pattern.dim();
        let mut inv = vec![0usize; n];
        for (p, &v) in order.iter().enumerate() {
            inv[v] = p;
        }
        let permuted = SparsityPattern::from_entries(
            n,
            (0..n).flat_map(|i| {
                let inv = &inv;
                pattern.row(i).iter().map(move |&j| (inv[i], inv[j as usize]))
            }),
        );
        let mut sym = Self::analyze_impl(&permuted, Some(order));
        // Cache identity is judged against the caller's (unpermuted)
        // pattern plus the diagonal.
        sym.input = with_diagonal(pattern);
        sym
    }

    fn analyze_impl(pattern: &SparsityPattern, order: Option<Vec<usize>>) -> Self {
        let input = with_diagonal(pattern);
        let n = input.dim();
        let words = n.div_ceil(64).max(1);
        let mut bits = vec![0u64; n * words];
        for i in 0..n {
            for &j in input.row(i) {
                bits[i * words + j as usize / 64] |= 1u64 << (j as usize % 64);
            }
        }
        // One forward sweep reaches the fixpoint: fill produced at step k
        // only involves columns > k, which later steps observe. At step k,
        // any row with a structural column k can be the pivot (a
        // structurally-zero entry is exactly ±0.0 and can never win the
        // strict-> search), and any such row can receive a nonzero
        // multiplier — so the union of the candidates' trailing patterns
        // spreads to every candidate.
        let mut pivu = vec![0u64; words];
        for k in 0..n {
            let (kw, kb) = (k / 64, k % 64);
            pivu.fill(0);
            for r in 0..n {
                if bits[r * words + kw] >> kb & 1 == 1 {
                    for w in kw..words {
                        pivu[w] |= bits[r * words + w];
                    }
                }
            }
            // Only columns strictly right of k spread.
            pivu[kw] &= !(((1u64 << kb) - 1) | (1u64 << kb));
            for r in 0..n {
                if bits[r * words + kw] >> kb & 1 == 1 {
                    for w in kw..words {
                        bits[r * words + w] |= pivu[w];
                    }
                }
            }
        }
        // Harvest the closed pattern into CSR + the O(1) position table.
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut pos = vec![-1i32; n * n];
        let mut diag = vec![0usize; n];
        row_ptr.push(0);
        for i in 0..n {
            for j in 0..n {
                if bits[i * words + j / 64] >> (j % 64) & 1 == 1 {
                    pos[i * n + j] = cols.len() as i32;
                    if i == j {
                        diag[i] = cols.len();
                    }
                    cols.push(j as u32);
                }
            }
            row_ptr.push(cols.len());
        }
        SymbolicLu { n, input, row_ptr, cols, pos, diag, order }
    }

    /// Matrix dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Structural nonzeros of the closed fill pattern.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// `nnz / n²` of the closed pattern.
    pub fn fill_density(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.n * self.n) as f64
        }
    }

    /// Entries added by fill-in over the (diagonal-augmented) input.
    pub fn fill_in(&self) -> usize {
        self.nnz() - self.input.nnz()
    }

    /// The diagonal-augmented input pattern this analysis was built from.
    pub fn input_pattern(&self) -> &SparsityPattern {
        &self.input
    }

    /// The fill-reducing permutation this analysis ran under, if any.
    pub fn order(&self) -> Option<&[usize]> {
        self.order.as_deref()
    }

    /// Whether the closed pattern is sparse enough for the indirection of
    /// the sparse kernels to beat the dense kernel's streaming: the
    /// crossover sits where the factor's working set stops fitting in
    /// cache, which for the lane widths in play means "big enough and
    /// under a quarter dense".
    pub fn prefers_sparse(&self) -> bool {
        self.n >= 24 && 4 * self.nnz() <= self.n * self.n
    }

    /// Sorted structural columns of storage row `i`.
    pub fn row_cols(&self, i: usize) -> &[u32] {
        &self.cols[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Entry-index range of storage row `i` (entry `e` ⇔ `cols[e]`).
    pub fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        self.row_ptr[i]..self.row_ptr[i + 1]
    }

    /// Column of entry `e`.
    #[inline]
    pub fn col_of(&self, e: usize) -> usize {
        self.cols[e] as usize
    }

    /// Entry index of position `(i, j)`, if structural.
    #[inline]
    pub fn pos(&self, i: usize, j: usize) -> Option<usize> {
        let p = self.pos[i * self.n + j];
        (p >= 0).then_some(p as usize)
    }

    /// Entry index of the diagonal of row `i` (always structural).
    #[inline]
    pub fn diag_entry(&self, i: usize) -> usize {
        self.diag[i]
    }

    /// Whether this analysis covers the same (diagonal-augmented) input
    /// pattern and ordering — the cache-reuse test the solver scratch uses.
    pub fn same_analysis(&self, other: &SymbolicLu) -> bool {
        self.n == other.n && self.order == other.order && self.input == other.input
    }

    /// Flops of one numeric factorization over this pattern: the dominant
    /// `Σ_k |col k below diag| · |row k right of diag|` multiply-add pairs
    /// plus one division per sub-diagonal entry. A pivot-order-independent
    /// upper estimate used by the lane-width cost model.
    pub fn factor_flops(&self) -> u64 {
        let n = self.n;
        let mut below = vec![0u64; n];
        let mut right = vec![0u64; n];
        for i in 0..n {
            for &j in self.row_cols(i) {
                let j = j as usize;
                match j.cmp(&i) {
                    std::cmp::Ordering::Less => below[j] += 1,
                    std::cmp::Ordering::Greater => right[i] += 1,
                    std::cmp::Ordering::Equal => {}
                }
            }
        }
        (0..n).map(|k| below[k] * (2 * right[k] + 1)).sum()
    }

    /// Flops of one forward+backward substitution pair over this pattern
    /// (≈ 2·nnz).
    pub fn solve_flops(&self) -> u64 {
        2 * self.nnz() as u64
    }
}

/// `pattern ∪ diagonal` (the iteration matrices `c/h·I − J` and the pivot
/// search both need every diagonal slot).
fn with_diagonal(pattern: &SparsityPattern) -> SparsityPattern {
    let n = pattern.dim();
    SparsityPattern::from_entries(
        n,
        (0..n).flat_map(|i| {
            pattern.row(i).iter().map(move |&j| (i, j as usize)).chain(std::iter::once((i, i)))
        }),
    )
}

/// Lane-batched sparse LU of real `n × n` systems over a shared
/// [`SymbolicLu`] pattern.
///
/// Values live in SoA element-major layout (`entry e`, lane `l` ⇒
/// `e·L + l`); masking, the singular-lane contract, and the per-lane
/// bitwise equivalence to [`BatchLuFactor`](crate::BatchLuFactor) are
/// documented in the module docs of `sparse`.
///
/// # Example
///
/// ```
/// use paraspace_linalg::{BatchSparseLuFactor, SparsityPattern, SymbolicLu};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), paraspace_linalg::LinalgError> {
/// // Lane 0 holds [[2,1],[0,3]] over a pattern missing the (1,0) slot.
/// let sym = Arc::new(SymbolicLu::analyze(&SparsityPattern::from_entries(2, [(0, 1)])));
/// let mut lu = BatchSparseLuFactor::new(sym.clone(), 1)?;
/// let v = lu.values_mut();
/// v[sym.pos(0, 0).unwrap()] = 2.0;
/// v[sym.pos(0, 1).unwrap()] = 1.0;
/// v[sym.pos(1, 1).unwrap()] = 3.0;
/// lu.factor(&[true]);
/// let mut b = vec![5.0, 6.0];
/// lu.solve_lanes(&mut b, &[true]);
/// assert!((b[0] - 1.5).abs() < 1e-12 && (b[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchSparseLuFactor {
    sym: Arc<SymbolicLu>,
    lanes: usize,
    /// `e·L + l`: pattern-entry values before `factor`, packed `L`/`U` after.
    vals: Vec<f64>,
    /// Pivot swap sequence per lane (logical rows, LAPACK `ipiv` style).
    pivots: Vec<usize>,
    /// Logical position → storage row, per lane (`i·L + l`).
    perm: Vec<u32>,
    singular: Vec<bool>,
}

impl BatchSparseLuFactor {
    /// Zeroed storage for `lanes` systems over `sym`'s pattern.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::EmptyBatch`] when `lanes == 0`.
    pub fn new(sym: Arc<SymbolicLu>, lanes: usize) -> Result<Self, LinalgError> {
        if lanes == 0 {
            return Err(LinalgError::EmptyBatch);
        }
        let n = sym.dim();
        let nnz = sym.nnz();
        Ok(BatchSparseLuFactor {
            sym,
            lanes,
            vals: vec![0.0; nnz * lanes],
            pivots: vec![0; n * lanes],
            perm: vec![0; n * lanes],
            singular: vec![false; lanes],
        })
    }

    /// Re-targets the storage to `sym` × `lanes`, zero-filling. A no-op when
    /// the analysis and lane count already match (stored factorizations are
    /// kept).
    pub fn ensure(&mut self, sym: &Arc<SymbolicLu>, lanes: usize) {
        assert!(lanes > 0, "batched factor requires at least one lane");
        if self.lanes == lanes && (Arc::ptr_eq(&self.sym, sym) || self.sym.same_analysis(sym)) {
            return;
        }
        self.sym = sym.clone();
        self.lanes = lanes;
        let (n, nnz) = (self.sym.dim(), self.sym.nnz());
        self.vals.clear();
        self.vals.resize(nnz * lanes, 0.0);
        self.pivots.clear();
        self.pivots.resize(n * lanes, 0);
        self.perm.clear();
        self.perm.resize(n * lanes, 0);
        self.singular.clear();
        self.singular.resize(lanes, false);
    }

    /// The shared symbolic analysis.
    pub fn symbolic(&self) -> &SymbolicLu {
        &self.sym
    }

    /// System dimension `n`.
    pub fn dim(&self) -> usize {
        self.sym.dim()
    }

    /// Lane width `L`.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Mutable SoA value storage (`e·L + l`; entry coordinates come from
    /// [`symbolic`](Self::symbolic)). Callers build the next matrices
    /// **only in the lane columns they are about to
    /// [`factor`](Self::factor)**; other lanes' columns hold live
    /// factorizations that must not be disturbed.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// The symbolic analysis and the mutable value storage together — the
    /// shape a masked build loop needs (iterate the pattern, write the
    /// lane's values).
    pub fn parts_mut(&mut self) -> (&SymbolicLu, &mut [f64]) {
        (&self.sym, &mut self.vals)
    }

    /// Whether lane `l`'s last factorization hit an exactly-zero pivot
    /// column.
    pub fn is_singular(&self, l: usize) -> bool {
        self.singular[l]
    }

    /// Factors the masked lanes in place over the shared pattern,
    /// replicating the dense kernel's per-lane operation sequence (see the
    /// module docs of `sparse`). Unmasked lanes keep their stored
    /// factorizations; singular lanes are flagged and must not be solved
    /// against.
    pub fn factor(&mut self, mask: &[bool]) {
        assert_eq!(mask.len(), self.lanes, "mask length");
        let (n, lanes) = (self.sym.dim(), self.lanes);
        let sym = &*self.sym;
        let vals = &mut self.vals;
        for l in 0..lanes {
            if !mask[l] {
                continue;
            }
            self.singular[l] = false;
            for i in 0..n {
                self.perm[i * lanes + l] = i as u32;
            }
            'steps: for k in 0..n {
                // Partial pivoting over the structural column-k candidates,
                // seeded by the (logical) diagonal exactly as the dense
                // kernel is: structurally-zero entries are ±0.0 and can
                // never win the strict-> comparison, so skipping them
                // selects the same pivot row.
                let rk = self.perm[k * lanes + l] as usize;
                let mut max = match sym.pos(rk, k) {
                    Some(e) => vals[e * lanes + l].abs(),
                    None => 0.0,
                };
                let mut piv = k;
                for i in (k + 1)..n {
                    let r = self.perm[i * lanes + l] as usize;
                    if let Some(e) = sym.pos(r, k) {
                        let v = vals[e * lanes + l].abs();
                        if v > max {
                            max = v;
                            piv = i;
                        }
                    }
                }
                if max == 0.0 {
                    self.singular[l] = true;
                    break 'steps;
                }
                self.pivots[k * lanes + l] = piv;
                if piv != k {
                    // The "row swap" is one index exchange; values stay put.
                    self.perm.swap(k * lanes + l, piv * lanes + l);
                }
                let rk = self.perm[k * lanes + l] as usize;
                let krange = sym.row_range(rk);
                let kcols = sym.row_cols(rk);
                // First pivot-row entry strictly right of the diagonal.
                let split = krange.start + kcols.partition_point(|&j| (j as usize) <= k);
                let pivot = vals[sym.pos(rk, k).expect("structural pivot") * lanes + l];
                for i in (k + 1)..n {
                    let r = self.perm[i * lanes + l] as usize;
                    let Some(em) = sym.pos(r, k) else {
                        // Structural zero ⇒ the dense kernel's multiplier is
                        // ±0.0 and its `m != 0.0` guard skips the update.
                        continue;
                    };
                    let m = vals[em * lanes + l] / pivot;
                    vals[em * lanes + l] = m;
                    if m != 0.0 {
                        for e in split..krange.end {
                            let j = sym.col_of(e);
                            let u = vals[e * lanes + l];
                            // Fill closure guarantees (r, j) is structural.
                            let et = sym.pos(r, j).expect("fill-closed pattern");
                            vals[et * lanes + l] -= m * u;
                        }
                    }
                }
            }
        }
    }

    /// Solves `A_l x_l = b_l` in place for every masked, non-singular lane;
    /// `b` is an `n × L` SoA block (`component i`, lane `l` ⇒ `i·L + l`).
    /// Replays the pivot swaps then substitutes over the pattern, exactly
    /// as the dense kernel does over full rows.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n·L` or `mask.len() != L`.
    pub fn solve_lanes(&self, b: &mut [f64], mask: &[bool]) {
        let (n, lanes) = (self.sym.dim(), self.lanes);
        assert_eq!(b.len(), n * lanes, "right-hand-side block length");
        assert_eq!(mask.len(), lanes, "mask length");
        let sym = &*self.sym;
        for l in 0..lanes {
            if !mask[l] || self.singular[l] {
                continue;
            }
            for k in 0..n {
                let p = self.pivots[k * lanes + l];
                b.swap(k * lanes + l, p * lanes + l);
            }
            // Forward: L y = P b (unit diagonal; multipliers live at the
            // storage row's sub-diagonal pattern entries).
            for i in 1..n {
                let r = self.perm[i * lanes + l] as usize;
                let mut acc = b[i * lanes + l];
                for e in sym.row_range(r) {
                    let j = sym.col_of(e);
                    if j >= i {
                        break;
                    }
                    acc -= self.vals[e * lanes + l] * b[j * lanes + l];
                }
                b[i * lanes + l] = acc;
            }
            // Backward: U x = y.
            for i in (0..n).rev() {
                let r = self.perm[i * lanes + l] as usize;
                let range = sym.row_range(r);
                let kcols = sym.row_cols(r);
                let split = range.start + kcols.partition_point(|&j| (j as usize) <= i);
                let mut acc = b[i * lanes + l];
                for e in split..range.end {
                    let j = sym.col_of(e);
                    acc -= self.vals[e * lanes + l] * b[j * lanes + l];
                }
                b[i * lanes + l] =
                    acc / self.vals[sym.pos(r, i).expect("structural diagonal") * lanes + l];
            }
        }
    }
}

/// Lane-batched sparse LU of complex systems over a shared [`SymbolicLu`],
/// mirroring [`BatchSparseLuFactor`] over [`Complex64`] — the complex
/// Newton system of the lockstep Radau IIA kernel. Pivoting uses `|·|²`
/// exactly as the dense [`BatchCluFactor`](crate::BatchCluFactor) does.
#[derive(Debug, Clone)]
pub struct BatchSparseCluFactor {
    sym: Arc<SymbolicLu>,
    lanes: usize,
    vals: Vec<Complex64>,
    pivots: Vec<usize>,
    perm: Vec<u32>,
    singular: Vec<bool>,
}

impl BatchSparseCluFactor {
    /// Zeroed storage for `lanes` systems over `sym`'s pattern.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::EmptyBatch`] when `lanes == 0`.
    pub fn new(sym: Arc<SymbolicLu>, lanes: usize) -> Result<Self, LinalgError> {
        if lanes == 0 {
            return Err(LinalgError::EmptyBatch);
        }
        let n = sym.dim();
        let nnz = sym.nnz();
        Ok(BatchSparseCluFactor {
            sym,
            lanes,
            vals: vec![Complex64::ZERO; nnz * lanes],
            pivots: vec![0; n * lanes],
            perm: vec![0; n * lanes],
            singular: vec![false; lanes],
        })
    }

    /// Re-targets the storage to `sym` × `lanes`, zero-filling; no-op when
    /// both already match.
    pub fn ensure(&mut self, sym: &Arc<SymbolicLu>, lanes: usize) {
        assert!(lanes > 0, "batched factor requires at least one lane");
        if self.lanes == lanes && (Arc::ptr_eq(&self.sym, sym) || self.sym.same_analysis(sym)) {
            return;
        }
        self.sym = sym.clone();
        self.lanes = lanes;
        let (n, nnz) = (self.sym.dim(), self.sym.nnz());
        self.vals.clear();
        self.vals.resize(nnz * lanes, Complex64::ZERO);
        self.pivots.clear();
        self.pivots.resize(n * lanes, 0);
        self.perm.clear();
        self.perm.resize(n * lanes, 0);
        self.singular.clear();
        self.singular.resize(lanes, false);
    }

    /// The shared symbolic analysis.
    pub fn symbolic(&self) -> &SymbolicLu {
        &self.sym
    }

    /// System dimension `n`.
    pub fn dim(&self) -> usize {
        self.sym.dim()
    }

    /// Lane width `L`.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Mutable SoA value storage (`e·L + l`); masked-build contract as for
    /// [`BatchSparseLuFactor::values_mut`].
    pub fn values_mut(&mut self) -> &mut [Complex64] {
        &mut self.vals
    }

    /// The symbolic analysis and the mutable value storage together; see
    /// [`BatchSparseLuFactor::parts_mut`].
    pub fn parts_mut(&mut self) -> (&SymbolicLu, &mut [Complex64]) {
        (&self.sym, &mut self.vals)
    }

    /// Whether lane `l`'s last factorization hit a vanished pivot column.
    pub fn is_singular(&self, l: usize) -> bool {
        self.singular[l]
    }

    /// Factors the masked lanes in place; see [`BatchSparseLuFactor::factor`].
    pub fn factor(&mut self, mask: &[bool]) {
        assert_eq!(mask.len(), self.lanes, "mask length");
        let (n, lanes) = (self.sym.dim(), self.lanes);
        let sym = &*self.sym;
        let vals = &mut self.vals;
        for l in 0..lanes {
            if !mask[l] {
                continue;
            }
            self.singular[l] = false;
            for i in 0..n {
                self.perm[i * lanes + l] = i as u32;
            }
            'steps: for k in 0..n {
                let rk = self.perm[k * lanes + l] as usize;
                let mut max = match sym.pos(rk, k) {
                    Some(e) => vals[e * lanes + l].abs_sq(),
                    None => 0.0,
                };
                let mut piv = k;
                for i in (k + 1)..n {
                    let r = self.perm[i * lanes + l] as usize;
                    if let Some(e) = sym.pos(r, k) {
                        let v = vals[e * lanes + l].abs_sq();
                        if v > max {
                            max = v;
                            piv = i;
                        }
                    }
                }
                if max == 0.0 {
                    self.singular[l] = true;
                    break 'steps;
                }
                self.pivots[k * lanes + l] = piv;
                if piv != k {
                    self.perm.swap(k * lanes + l, piv * lanes + l);
                }
                let rk = self.perm[k * lanes + l] as usize;
                let krange = sym.row_range(rk);
                let kcols = sym.row_cols(rk);
                let split = krange.start + kcols.partition_point(|&j| (j as usize) <= k);
                let pivot = vals[sym.pos(rk, k).expect("structural pivot") * lanes + l];
                for i in (k + 1)..n {
                    let r = self.perm[i * lanes + l] as usize;
                    let Some(em) = sym.pos(r, k) else {
                        continue;
                    };
                    let m = vals[em * lanes + l] / pivot;
                    vals[em * lanes + l] = m;
                    if m != Complex64::ZERO {
                        for e in split..krange.end {
                            let j = sym.col_of(e);
                            let u = vals[e * lanes + l];
                            let et = sym.pos(r, j).expect("fill-closed pattern");
                            let v = vals[et * lanes + l] - m * u;
                            vals[et * lanes + l] = v;
                        }
                    }
                }
            }
        }
    }

    /// Solves `A_l x_l = b_l` in place for every masked, non-singular lane;
    /// `b` is an `n × L` SoA block of [`Complex64`]. See
    /// [`BatchSparseLuFactor::solve_lanes`].
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n·L` or `mask.len() != L`.
    pub fn solve_lanes(&self, b: &mut [Complex64], mask: &[bool]) {
        let (n, lanes) = (self.sym.dim(), self.lanes);
        assert_eq!(b.len(), n * lanes, "right-hand-side block length");
        assert_eq!(mask.len(), lanes, "mask length");
        let sym = &*self.sym;
        for l in 0..lanes {
            if !mask[l] || self.singular[l] {
                continue;
            }
            for k in 0..n {
                let p = self.pivots[k * lanes + l];
                b.swap(k * lanes + l, p * lanes + l);
            }
            for i in 1..n {
                let r = self.perm[i * lanes + l] as usize;
                let mut acc = b[i * lanes + l];
                for e in sym.row_range(r) {
                    let j = sym.col_of(e);
                    if j >= i {
                        break;
                    }
                    acc -= self.vals[e * lanes + l] * b[j * lanes + l];
                }
                b[i * lanes + l] = acc;
            }
            for i in (0..n).rev() {
                let r = self.perm[i * lanes + l] as usize;
                let range = sym.row_range(r);
                let kcols = sym.row_cols(r);
                let split = range.start + kcols.partition_point(|&j| (j as usize) <= i);
                let mut acc = b[i * lanes + l];
                for e in split..range.end {
                    let j = sym.col_of(e);
                    acc -= self.vals[e * lanes + l] * b[j * lanes + l];
                }
                b[i * lanes + l] =
                    acc / self.vals[sym.pos(r, i).expect("structural diagonal") * lanes + l];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchCluFactor, BatchLuFactor, CMatrix, CluFactor, LuFactor, Matrix};

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

    /// A reproducible sparse pattern: the diagonal, a sub-diagonal band,
    /// and scattered entries — enough structure to force fill-in and,
    /// with a zeroed diagonal entry, genuine pivoting.
    fn test_pattern(n: usize, seed: u64) -> SparsityPattern {
        let mut next = rng(seed);
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i));
            if i > 0 {
                entries.push((i, i - 1));
            }
            for j in 0..n {
                if next() > 0.35 {
                    entries.push((i, j));
                }
            }
        }
        SparsityPattern::from_entries(n, entries)
    }

    /// Dense per-lane matrices over `pattern` with pseudo-random values;
    /// every `zero_diag_step`-th diagonal entry is zeroed so partial
    /// pivoting genuinely reorders rows (differently per lane).
    fn lane_matrices(
        pattern: &SparsityPattern,
        lanes: usize,
        seed: u64,
        zero_diag_step: usize,
    ) -> Vec<Matrix> {
        let n = pattern.dim();
        let mut next = rng(seed);
        (0..lanes)
            .map(|l| {
                let mut m = Matrix::zeros(n, n);
                for i in 0..n {
                    for &j in pattern.row(i) {
                        let j = j as usize;
                        m[(i, j)] = next() + if i == j { 2.0 } else { 0.0 };
                    }
                }
                for i in 0..n {
                    if zero_diag_step > 0 && (i + l) % zero_diag_step == 0 {
                        m[(i, i)] = 0.0;
                    }
                }
                m
            })
            .collect()
    }

    fn fill_sparse_lane(batch: &mut BatchSparseLuFactor, l: usize, m: &Matrix) {
        let lanes = batch.lanes();
        let n = batch.dim();
        let entries: Vec<(usize, usize, usize)> = (0..n)
            .flat_map(|i| {
                let sym = batch.symbolic();
                sym.row_range(i).map(move |e| (e, i, sym.col_of(e))).collect::<Vec<_>>()
            })
            .collect();
        let vals = batch.values_mut();
        for (e, i, j) in entries {
            vals[e * lanes + l] = m[(i, j)];
        }
    }

    fn fill_dense_lane(batch: &mut BatchLuFactor, l: usize, m: &Matrix) {
        batch.lane_mut(l).copy_from_slice(m.as_slice());
    }

    #[test]
    fn fill_pattern_is_superset_of_input_and_closed() {
        for seed in [1u64, 7, 99] {
            let p = test_pattern(13, seed);
            let sym = SymbolicLu::analyze(&p);
            for i in 0..p.dim() {
                assert!(sym.pos(i, i).is_some(), "diagonal ({i},{i}) must be structural");
                for &j in p.row(i) {
                    assert!(sym.pos(i, j as usize).is_some(), "input entry ({i},{j}) lost");
                }
            }
            // Closure: for every pair of structural (i,k) and (k',j) with a
            // shared column k = k' and i, j > k, (i, j) must be structural —
            // the static-pattern invariant the numeric kernel's
            // `expect("fill-closed pattern")` relies on. Stronger
            // (permutation-closed) variant: any row with column k can be
            // the pivot, so cross rows too.
            let n = p.dim();
            for k in 0..n {
                let holders: Vec<usize> = (0..n).filter(|&r| sym.pos(r, k).is_some()).collect();
                for &r1 in &holders {
                    for &r2 in &holders {
                        for j in (k + 1)..n {
                            if sym.pos(r1, j).is_some() {
                                assert!(
                                    sym.pos(r2, j).is_some(),
                                    "seed {seed}: fill not closed at k={k}, rows {r1}->{r2}, col {j}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sparse_factor_matches_dense_and_scalar_bitwise_across_widths() {
        let n = 12;
        let p = test_pattern(n, 0xfeed);
        let sym = Arc::new(SymbolicLu::analyze(&p));
        for lanes in [2usize, 4, 8] {
            let mats = lane_matrices(&p, lanes, 0xbeef ^ lanes as u64, 5);
            let mut sparse = BatchSparseLuFactor::new(sym.clone(), lanes).unwrap();
            let mut dense = BatchLuFactor::new(n, n, lanes).unwrap();
            for (l, m) in mats.iter().enumerate() {
                fill_sparse_lane(&mut sparse, l, m);
                fill_dense_lane(&mut dense, l, m);
            }
            let mask = vec![true; lanes];
            sparse.factor(&mask);
            dense.factor(&mask);

            let mut next = rng(0x5eed ^ lanes as u64);
            let rhs: Vec<Vec<f64>> = (0..lanes).map(|_| (0..n).map(|_| next()).collect()).collect();
            let mut bs = vec![0.0; n * lanes];
            let mut bd = vec![0.0; n * lanes];
            for (l, r) in rhs.iter().enumerate() {
                for i in 0..n {
                    bs[i * lanes + l] = r[i];
                    bd[i * lanes + l] = r[i];
                }
            }
            sparse.solve_lanes(&mut bs, &mask);
            dense.solve_lanes(&mut bd, &mask);
            for (l, m) in mats.iter().enumerate() {
                assert!(!sparse.is_singular(l), "lanes={lanes} lane={l} must factor");
                let scalar = LuFactor::new(m.clone()).unwrap();
                let mut x = rhs[l].clone();
                scalar.solve_in_place(&mut x);
                for i in 0..n {
                    assert_eq!(
                        bs[i * lanes + l].to_bits(),
                        bd[i * lanes + l].to_bits(),
                        "lanes={lanes} lane={l} i={i}: sparse vs dense"
                    );
                    assert_eq!(
                        bs[i * lanes + l].to_bits(),
                        x[i].to_bits(),
                        "lanes={lanes} lane={l} i={i}: sparse vs scalar"
                    );
                }
            }
        }
    }

    #[test]
    fn complex_sparse_matches_dense_and_scalar_bitwise() {
        let n = 9;
        let p = test_pattern(n, 0xc0ffee);
        let sym = Arc::new(SymbolicLu::analyze(&p));
        for lanes in [2usize, 4, 8] {
            let mut next = rng(0xabad1dea ^ lanes as u64);
            let mats: Vec<CMatrix> = (0..lanes)
                .map(|l| {
                    let mut m = CMatrix::zeros(n, n);
                    for i in 0..n {
                        for &j in p.row(i) {
                            let j = j as usize;
                            let re = next() + if i == j { 2.0 } else { 0.0 };
                            m[(i, j)] = Complex64::new(re, next());
                        }
                    }
                    // Zeroed diagonals force per-lane pivoting.
                    m[((l + 2) % n, (l + 2) % n)] = Complex64::ZERO;
                    m
                })
                .collect();
            let mut sparse = BatchSparseCluFactor::new(sym.clone(), lanes).unwrap();
            let mut dense = BatchCluFactor::new(n, n, lanes).unwrap();
            {
                let entries: Vec<(usize, usize, usize)> = (0..n)
                    .flat_map(|i| {
                        sym.row_range(i).map(|e| (e, i, sym.col_of(e))).collect::<Vec<_>>()
                    })
                    .collect();
                let sv = sparse.values_mut();
                for (l, m) in mats.iter().enumerate() {
                    for &(e, i, j) in &entries {
                        sv[e * lanes + l] = m[(i, j)];
                    }
                }
                for (l, m) in mats.iter().enumerate() {
                    dense.lane_mut(l).copy_from_slice(m.as_slice());
                }
            }
            let mask = vec![true; lanes];
            sparse.factor(&mask);
            dense.factor(&mask);
            let rhs: Vec<Vec<Complex64>> = (0..lanes)
                .map(|_| (0..n).map(|_| Complex64::new(next(), next())).collect())
                .collect();
            let mut bs = vec![Complex64::ZERO; n * lanes];
            let mut bd = bs.clone();
            for (l, r) in rhs.iter().enumerate() {
                for i in 0..n {
                    bs[i * lanes + l] = r[i];
                    bd[i * lanes + l] = r[i];
                }
            }
            sparse.solve_lanes(&mut bs, &mask);
            dense.solve_lanes(&mut bd, &mask);
            for (l, m) in mats.iter().enumerate() {
                let scalar = CluFactor::new(m.clone()).unwrap();
                let mut x = rhs[l].clone();
                scalar.solve_in_place(&mut x);
                for i in 0..n {
                    let gs = bs[i * lanes + l];
                    let gd = bd[i * lanes + l];
                    assert_eq!(gs.re.to_bits(), gd.re.to_bits(), "lanes={lanes} l={l} i={i} re");
                    assert_eq!(gs.im.to_bits(), gd.im.to_bits(), "lanes={lanes} l={l} i={i} im");
                    assert_eq!(
                        gs.re.to_bits(),
                        x[i].re.to_bits(),
                        "lanes={lanes} l={l} i={i} re/s"
                    );
                    assert_eq!(
                        gs.im.to_bits(),
                        x[i].im.to_bits(),
                        "lanes={lanes} l={l} i={i} im/s"
                    );
                }
            }
        }
    }

    #[test]
    fn masked_refactor_preserves_other_lanes() {
        let n = 8;
        let p = test_pattern(n, 3);
        let sym = Arc::new(SymbolicLu::analyze(&p));
        let lanes = 3;
        let mats = lane_matrices(&p, lanes, 17, 0);
        let mut batch = BatchSparseLuFactor::new(sym.clone(), lanes).unwrap();
        for (l, m) in mats.iter().enumerate() {
            fill_sparse_lane(&mut batch, l, m);
        }
        batch.factor(&[true, true, true]);

        let fresh = lane_matrices(&p, 1, 23, 0).remove(0);
        fill_sparse_lane(&mut batch, 1, &fresh);
        batch.factor(&[false, true, false]);

        let rhs: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut b = vec![0.0; n * lanes];
        for l in 0..lanes {
            for i in 0..n {
                b[i * lanes + l] = rhs[i];
            }
        }
        batch.solve_lanes(&mut b, &[true, true, true]);
        for (l, m) in [(0usize, &mats[0]), (1, &fresh), (2, &mats[2])] {
            let scalar = LuFactor::new(m.clone()).unwrap();
            let mut x = rhs.clone();
            scalar.solve_in_place(&mut x);
            for i in 0..n {
                assert_eq!(b[i * lanes + l].to_bits(), x[i].to_bits(), "lane={l} i={i}");
            }
        }
    }

    #[test]
    fn singular_lane_is_flagged_without_poisoning_neighbours() {
        let n = 4;
        let p = SparsityPattern::from_entries(
            n,
            [(0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)],
        );
        let sym = Arc::new(SymbolicLu::analyze(&p));
        let lanes = 2;
        let mut batch = BatchSparseLuFactor::new(sym.clone(), lanes).unwrap();
        {
            let pos = |i, j| sym.pos(i, j).unwrap();
            let v = batch.values_mut();
            // Lane 0: rows 2,3 proportional -> singular at pivot column 2.
            for (i, j, val) in [
                (0usize, 0usize, 1.0),
                (0, 1, 2.0),
                (1, 0, 3.0),
                (1, 1, 1.0),
                (2, 2, 1.0),
                (2, 3, 2.0),
                (3, 2, 2.0),
                (3, 3, 4.0),
            ] {
                v[pos(i, j) * lanes] = val;
            }
            // Lane 1: well conditioned.
            for (i, j, val) in [
                (0usize, 0usize, 2.0),
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 1, 3.0),
                (2, 2, 4.0),
                (2, 3, 1.0),
                (3, 2, 1.0),
                (3, 3, 5.0),
            ] {
                v[pos(i, j) * lanes + 1] = val;
            }
        }
        batch.factor(&[true, true]);
        assert!(batch.is_singular(0));
        assert!(!batch.is_singular(1));
        let mut b = vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0];
        batch.solve_lanes(&mut b, &[true, true]);
        assert_eq!(b[0], 1.0, "singular lane 0 must be skipped");
        assert!((4.0 * b[2 * lanes + 1] + 1.0 * b[3 * lanes + 1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_lanes_are_rejected() {
        let sym = Arc::new(SymbolicLu::analyze(&SparsityPattern::from_entries(2, [(0, 1)])));
        assert!(matches!(BatchSparseLuFactor::new(sym.clone(), 0), Err(LinalgError::EmptyBatch)));
        assert!(matches!(BatchSparseCluFactor::new(sym, 0), Err(LinalgError::EmptyBatch)));
    }

    #[test]
    fn ensure_reuses_matching_analysis_and_reshapes_otherwise() {
        let p = test_pattern(6, 11);
        let sym = Arc::new(SymbolicLu::analyze(&p));
        let mut batch = BatchSparseLuFactor::new(sym.clone(), 2).unwrap();
        batch.values_mut()[0] = 7.0;
        let sym_again = Arc::new(SymbolicLu::analyze(&p));
        batch.ensure(&sym_again, 2); // equal analysis: contents kept
        assert_eq!(batch.values_mut()[0], 7.0);
        let other = Arc::new(SymbolicLu::analyze(&test_pattern(6, 12)));
        batch.ensure(&other, 4);
        assert_eq!(batch.lanes(), 4);
        assert!(batch.values_mut().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn min_degree_ordering_reduces_fill_on_an_arrow_matrix() {
        // Arrow pointing the wrong way: dense first row/column fills the
        // whole matrix in natural order, but eliminating the tip last
        // (which minimum degree does) keeps it sparse.
        let n = 10;
        let mut entries = vec![];
        for i in 0..n {
            entries.push((i, i));
            entries.push((0, i));
            entries.push((i, 0));
        }
        let p = SparsityPattern::from_entries(n, entries);
        let natural = SymbolicLu::analyze(&p);
        let order = min_degree_ordering(&p);
        let tip_at = order.iter().position(|&v| v == 0).unwrap();
        assert!(tip_at >= n - 2, "the dense tip must be eliminated at the end, got {tip_at}");
        let ordered = SymbolicLu::analyze_ordered(&p, order);
        assert_eq!(natural.nnz(), n * n, "natural order fills densely");
        // Permutation-closure keeps the dense row a pivot candidate at every
        // step, so the ordered pattern still fills its upper triangle — the
        // win is bounded but must be real.
        assert!(
            ordered.nnz() < natural.nnz() * 3 / 4,
            "min-degree fill {} must undercut natural fill {}",
            ordered.nnz(),
            natural.nnz()
        );
    }

    #[test]
    fn factor_flops_track_pattern_size() {
        let dense = SymbolicLu::analyze(&SparsityPattern::dense(10));
        let sparse = SymbolicLu::analyze(&SparsityPattern::from_entries(
            10,
            (0..10).map(|i| (i, i)).chain((1..10).map(|i| (i, i - 1))),
        ));
        assert!(sparse.factor_flops() < dense.factor_flops() / 4);
        assert!(sparse.solve_flops() < dense.solve_flops());
        assert!(dense.fill_density() == 1.0 && !dense.prefers_sparse());
    }
}
