//! Compiled ODE encoding: the flat, GPU-style data structures produced by
//! phase P1 of the simulation pipeline.
//!
//! The encoding mirrors what the published simulator uploads to device
//! memory: CSR-like arrays describing, per reaction, which species enter the
//! flux with which order, and, per species, which reaction fluxes contribute
//! with which net coefficient. Evaluating the right-hand side is two flat
//! passes — exactly the shape a fine-grained kernel parallelizes over
//! threads:
//!
//! * the **flux pass** runs the model's *flux program*: the reactant side
//!   of every mass-action reaction is decoded once, at compile time, into
//!   one typed `FluxOp` (source, first order, dimerisation, bimolecular,
//!   or a generic walk of the reactant list), so the hot loop reads one op
//!   and one constant per reaction and gathers at most two concentrations —
//!   no offsets, no order array, no integer-power loop;
//! * the **accumulation pass** walks the per-species term lists as slices.
//!
//! The Jacobian is two flat passes of the same kind, over the model's
//! *Jacobian program*: `∂flux_r/∂x_j` does not depend on which species the
//! reaction feeds, so it is compiled to one typed `DerivOp` per *reactant
//! slot* (decoded from the same reactant shapes as the flux ops) and
//! evaluated once per slot —
//!
//! * the **derivative pass** fills the slot table;
//! * the **scatter pass** zeroes each Jacobian row and adds its terms
//!   `coeff · d[slot]` from one flat list, compiled in the (species, term,
//!   reactant) order a walk of the term and reactant lists would visit.
//!
//! The scalar kernels and the lane-batched ones run the same programs; the
//! lane passes are written once over [`LaneWidth`] rows (`[f64; L]` at
//! widths 1, 2, 4 and 8, slices otherwise) and the scalar Jacobian *is* the
//! width-1 instantiation. What is contractual
//! is the arithmetic *inside* one flux (`k`, then the reactants in list
//! order, `x·x` for an order-2 reactant), inside one flux derivative
//! (`k·a·x^(a−1)`, then the other reactants in list order), inside one
//! species sum (`0.0 + c₀f₀ + c₁f₁ + …` in term order) and inside one
//! Jacobian entry (`0.0 + c₀d₀ + …` in term, then reactant, order): scalar
//! and lanes agree bitwise at any width, with each other and with a naive
//! evaluation of the model. The order reactions, slots and species are
//! *visited* in is free.

use crate::ReactionBasedModel;
use paraspace_linalg::{isa_twins, with_lane_width, FixedWidth, LaneWidth, Matrix};

/// A reaction-based model compiled to flat arrays for fast, parallelizable
/// right-hand-side and Jacobian evaluation.
///
/// Obtained from [`ReactionBasedModel::compile`].
///
/// # Example
///
/// ```
/// use paraspace_rbm::{Reaction, ReactionBasedModel};
///
/// # fn main() -> Result<(), paraspace_rbm::RbmError> {
/// let mut m = ReactionBasedModel::new();
/// let a = m.add_species("A", 1.0);
/// m.add_reaction(Reaction::mass_action(&[(a, 1)], &[], 3.0))?; // A -> ∅
/// let odes = m.compile()?;
/// let mut d = [0.0];
/// odes.rhs(0.0, &[2.0], &mut d);
/// assert_eq!(d[0], -6.0); // dA/dt = -3·[A]
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledOdes {
    n_species: usize,
    n_reactions: usize,
    // Per-reaction reactant lists (CSR).
    reactant_offsets: Vec<u32>,
    reactant_species: Vec<u32>,
    reactant_orders: Vec<u32>,
    rate_constants: Vec<f64>,
    // One op per reaction, decoded from the reactant lists above; what the
    // flux kernels read instead of them.
    flux_program: Vec<FluxOp>,
    // One derivative op per reactant slot (slot `q` is position `q` of the
    // reactant lists above), with the reaction whose constant it scales.
    jac_program: Vec<(u32, DerivOp)>,
    // The Jacobian as a scatter of the slot derivatives, row `s` over
    // `jac_row_offsets[s]..[s + 1]`, in (term, reactant) order.
    jac_row_offsets: Vec<u32>,
    jac_terms: Vec<JacTerm>,
    // The terms above that land on the diagonal; `col` is the species.
    jac_diag_terms: Vec<JacTerm>,
    // The positions `jac_terms` can write, row by row.
    jac_sparsity: paraspace_linalg::SparsityPattern,
    // Per-species contribution lists (CSR): dX_s/dt = Σ coeff · flux_r.
    term_offsets: Vec<u32>,
    term_reactions: Vec<u32>,
    term_coeffs: Vec<f64>,
    // Per-reaction net-stoichiometry columns (CSR): the transpose of the
    // term lists, used by the parameter-Jacobian kernels to scatter one
    // reaction's flux derivative into the species it touches.
    stoich_offsets: Vec<u32>,
    stoich_species: Vec<u32>,
    stoich_coeffs: Vec<f64>,
}

/// The flux of one mass-action reaction, specialised by the shape of its
/// reactant side. Every variant computes `k · Π int_pow(x, order)` left to
/// right over the reactant list with exactly the products the generic walk
/// would form, so which variant a reaction gets never shows in the bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FluxOp {
    /// `∅ → …`: `k`.
    Source,
    /// `A → …`: `k·x_a`.
    FirstOrder(u32),
    /// `2A → …`: `k·(x_a·x_a)`.
    Dimerisation(u32),
    /// `A + B → …`: `(k·x_a)·x_b`.
    Bimolecular(u32, u32),
    /// Anything else (order ≥ 3, three or more reactants, `2A + B`): walks
    /// `reactant_species`/`reactant_orders` over `lo..hi`.
    Generic { lo: u32, hi: u32 },
}

impl FluxOp {
    /// The op for one reaction's reactant list, which starts at `lo` in the
    /// reactant CSR.
    fn for_reactants(reactants: &[(usize, u32)], lo: usize) -> Self {
        match *reactants {
            [] => FluxOp::Source,
            [(a, 1)] => FluxOp::FirstOrder(a as u32),
            [(a, 2)] => FluxOp::Dimerisation(a as u32),
            [(a, 1), (b, 1)] => FluxOp::Bimolecular(a as u32, b as u32),
            _ => FluxOp::Generic { lo: lo as u32, hi: (lo + reactants.len()) as u32 },
        }
    }
}

/// `∂flux_r/∂x_j` for one reactant slot of a mass-action reaction, decoded
/// from the reaction's [`FluxOp`] shape. Every variant computes
/// `k · a · int_pow(x_j, a − 1) · Π_{other} int_pow(x, order)` with exactly
/// the products the generic walk would form (`k·1·1` is `k`, `1·x` is
/// `x`), so which variant a slot gets never shows in the bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DerivOp {
    /// The slot of `A → …`: `k`.
    FirstOrder,
    /// The slot of `2A → …`: `k·2·x_a`.
    Dimerisation(u32),
    /// A slot of `A + B → …`: `k` times the *other* reactant.
    Bimolecular(u32),
    /// The reactant at position `at` of a generic reaction's list `lo..hi`:
    /// `k·a·x^(a−1)`, then the other reactants in list order.
    Generic { lo: u32, hi: u32, at: u32 },
}

impl DerivOp {
    /// The ops for one reaction's reactant slots, which start at `lo` in
    /// the reactant CSR; one per reactant, in list order.
    fn for_reactants(reactants: &[(usize, u32)], lo: usize) -> impl Iterator<Item = Self> + '_ {
        let hi = lo + reactants.len();
        reactants.iter().enumerate().map(move |(which, _)| match *reactants {
            [(_, 1)] => DerivOp::FirstOrder,
            [(a, 2)] => DerivOp::Dimerisation(a as u32),
            [(a, 1), (b, 1)] => DerivOp::Bimolecular(if which == 0 { b } else { a } as u32),
            _ => DerivOp::Generic { lo: lo as u32, hi: hi as u32, at: (lo + which) as u32 },
        })
    }
}

/// One term of the Jacobian scatter: `J[row][col] += coeff · d[slot]`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct JacTerm {
    col: u32,
    slot: u32,
    coeff: f64,
}

/// `out[col] += coeff · d[slot]` over one row of lanes.
#[inline(always)]
fn accumulate_term<W: LaneWidth>(w: W, t: JacTerm, d: &[f64], out: &mut [f64]) {
    let (d, out) = (w.row(d, t.slot as usize), w.row_mut(out, t.col as usize));
    for l in 0..w.lanes() {
        out[l] += t.coeff * d[l];
    }
}

/// Integer power by repeated squaring; exact for the small orders (0–2)
/// mass-action networks use, and correct for larger ones.
#[inline]
fn int_pow(x: f64, mut n: u32) -> f64 {
    let mut base = x;
    let mut acc = 1.0;
    while n > 0 {
        if n & 1 == 1 {
            acc *= base;
        }
        base *= base;
        n >>= 1;
    }
    acc
}

isa_twins! {
    /// The flux pass then the accumulation pass of
    /// [`CompiledOdes::rhs_batch`], at the width `lanes` picks.
    fn rhs_batch(
        odes: &CompiledOdes,
        lanes: usize,
        x: &[f64],
        k: &[f64],
        flux: &mut [f64],
        dxdt: &mut [f64],
    ) {
        with_lane_width!(lanes, |w| {
            odes.flux_rows(w, x, k, flux);
            odes.accumulate_rows(w, flux, dxdt);
        });
    }
}

impl CompiledOdes {
    /// The flux of one mass-action reaction at constant `k` (`1.0` gives
    /// the unit flux): `k`, then the reactants in list order.
    #[inline(always)]
    fn mass_action_flux(&self, op: FluxOp, k: f64, x: &[f64]) -> f64 {
        match op {
            FluxOp::Source => k,
            FluxOp::FirstOrder(a) => k * x[a as usize],
            FluxOp::Dimerisation(a) => {
                let xa = x[a as usize];
                k * (xa * xa)
            }
            FluxOp::Bimolecular(a, b) => k * x[a as usize] * x[b as usize],
            FluxOp::Generic { lo, hi } => {
                let list = lo as usize..hi as usize;
                let species = &self.reactant_species[list.clone()];
                let mut f = k;
                for (&s, &order) in species.iter().zip(&self.reactant_orders[list]) {
                    f *= int_pow(x[s as usize], order);
                }
                f
            }
        }
    }

    /// [`mass_action_flux`](Self::mass_action_flux) for one row of lanes:
    /// `k` and `f` are the reaction's rows, `x` the whole `N×L` block.
    #[inline(always)]
    fn mass_action_flux_row<W: LaneWidth>(
        &self,
        w: W,
        op: FluxOp,
        k: &W::Row<f64>,
        x: &[f64],
        f: &mut W::Row<f64>,
    ) {
        match op {
            FluxOp::Source => {
                for l in 0..w.lanes() {
                    f[l] = k[l];
                }
            }
            FluxOp::FirstOrder(a) => {
                let xa = w.row(x, a as usize);
                for l in 0..w.lanes() {
                    f[l] = k[l] * xa[l];
                }
            }
            FluxOp::Dimerisation(a) => {
                let xa = w.row(x, a as usize);
                for l in 0..w.lanes() {
                    f[l] = k[l] * (xa[l] * xa[l]);
                }
            }
            FluxOp::Bimolecular(a, b) => {
                let (xa, xb) = (w.row(x, a as usize), w.row(x, b as usize));
                for l in 0..w.lanes() {
                    f[l] = k[l] * xa[l] * xb[l];
                }
            }
            FluxOp::Generic { lo, hi } => {
                let list = lo as usize..hi as usize;
                let species = &self.reactant_species[list.clone()];
                for l in 0..w.lanes() {
                    f[l] = k[l];
                }
                for (&s, &order) in species.iter().zip(&self.reactant_orders[list]) {
                    let xs = w.row(x, s as usize);
                    for l in 0..w.lanes() {
                        f[l] *= int_pow(xs[l], order);
                    }
                }
            }
        }
    }

    /// The lane-batched flux pass at width `w`. Always inlined into
    /// [`with_lane_width!`]'s arm for `w`, so each width the engines
    /// schedule gets its own copy over `[f64; L]` rows.
    #[inline(always)]
    fn flux_rows<W: LaneWidth>(&self, w: W, x: &[f64], k: &[f64], flux: &mut [f64]) {
        for (r, &op) in self.flux_program.iter().enumerate() {
            self.mass_action_flux_row(w, op, w.row(k, r), x, w.row_mut(flux, r));
        }
    }

    /// The lane-batched accumulation pass at width `w`: every species sum
    /// is built in an accumulator row and stored once. Inlined like
    /// [`flux_rows`](Self::flux_rows).
    #[inline(always)]
    fn accumulate_rows<W: LaneWidth>(&self, w: W, flux: &[f64], dxdt: &mut [f64]) {
        for (s, span) in self.term_offsets.windows(2).enumerate() {
            let terms = span[0] as usize..span[1] as usize;
            let (coeffs, reactions) =
                (&self.term_coeffs[terms.clone()], &self.term_reactions[terms]);
            w.reduce(0.0, w.row_mut(dxdt, s), |acc| {
                for (&c, &r) in coeffs.iter().zip(reactions) {
                    let f = w.row(flux, r as usize);
                    for l in 0..w.lanes() {
                        acc[l] += c * f[l];
                    }
                }
            });
        }
    }

    /// The lane-batched derivative pass at width `w`: runs the Jacobian
    /// program, writing `∂flux_r/∂x_j` of slot `q` to row `q` of `d`.
    /// Inlined like [`flux_rows`](Self::flux_rows).
    #[inline(always)]
    fn derivative_rows<W: LaneWidth>(&self, w: W, x: &[f64], k: &[f64], d: &mut [f64]) {
        for (q, &(r, op)) in self.jac_program.iter().enumerate() {
            let (k, d) = (w.row(k, r as usize), w.row_mut(d, q));
            match op {
                DerivOp::FirstOrder => {
                    for l in 0..w.lanes() {
                        d[l] = k[l];
                    }
                }
                DerivOp::Dimerisation(a) => {
                    let xa = w.row(x, a as usize);
                    for l in 0..w.lanes() {
                        d[l] = k[l] * 2.0 * xa[l];
                    }
                }
                DerivOp::Bimolecular(other) => {
                    let xo = w.row(x, other as usize);
                    for l in 0..w.lanes() {
                        d[l] = k[l] * xo[l];
                    }
                }
                DerivOp::Generic { lo, hi, at } => {
                    let order = self.reactant_orders[at as usize];
                    let own = w.row(x, self.reactant_species[at as usize] as usize);
                    for l in 0..w.lanes() {
                        d[l] = k[l] * order as f64 * int_pow(own[l], order - 1);
                    }
                    for q in (lo..hi).filter(|&q| q != at) {
                        let order = self.reactant_orders[q as usize];
                        let xs = w.row(x, self.reactant_species[q as usize] as usize);
                        for l in 0..w.lanes() {
                            d[l] *= int_pow(xs[l], order);
                        }
                    }
                }
            }
        }
    }

    /// The lane-batched scatter pass at width `w`: every Jacobian entry is
    /// `0.0` plus its terms `coeff · d[slot]` in list order. `jac` is the
    /// `N×N×L` block, `d` the slot rows; inlined like
    /// [`flux_rows`](Self::flux_rows).
    #[inline(always)]
    fn scatter_rows<W: LaneWidth>(&self, w: W, d: &[f64], jac: &mut [f64]) {
        let rows = jac.chunks_exact_mut(self.n_species * w.lanes());
        for (row, span) in rows.zip(self.jac_row_offsets.windows(2)) {
            row.fill(0.0);
            for t in &self.jac_terms[span[0] as usize..span[1] as usize] {
                accumulate_term(w, *t, d, row);
            }
        }
    }

    /// Derivative pass then scatter pass at width `w`; `d` is the slot-row
    /// scratch.
    #[inline(always)]
    fn jacobian_rows<W: LaneWidth>(
        &self,
        w: W,
        x: &[f64],
        k: &[f64],
        d: &mut [f64],
        jac: &mut [f64],
    ) {
        self.derivative_rows(w, x, k, d);
        self.scatter_rows(w, d, jac);
    }

    /// Derivative pass then the diagonal's share of the scatter pass.
    #[inline(always)]
    fn jacobian_diag_rows<W: LaneWidth>(
        &self,
        w: W,
        x: &[f64],
        k: &[f64],
        d: &mut [f64],
        diag: &mut [f64],
    ) {
        self.derivative_rows(w, x, k, d);
        diag.fill(0.0);
        for t in &self.jac_diag_terms {
            accumulate_term(w, *t, d, diag);
        }
    }

    pub(crate) fn from_model(model: &ReactionBasedModel) -> Self {
        let n_species = model.n_species();
        let n_reactions = model.n_reactions();

        let mut reactant_offsets = Vec::with_capacity(n_reactions + 1);
        let mut reactant_species = Vec::new();
        let mut reactant_orders = Vec::new();
        let mut rate_constants = Vec::with_capacity(n_reactions);
        let mut flux_program = Vec::with_capacity(n_reactions);
        let n_slots = model.reactions().iter().map(|r| r.reactants().len()).sum();
        let mut jac_program = Vec::with_capacity(n_slots);
        reactant_offsets.push(0u32);
        for (i, r) in model.reactions().iter().enumerate() {
            let lo = reactant_species.len();
            flux_program.push(FluxOp::for_reactants(r.reactants(), lo));
            jac_program.extend(DerivOp::for_reactants(r.reactants(), lo).map(|op| (i as u32, op)));
            for &(s, a) in r.reactants() {
                reactant_species.push(s as u32);
                reactant_orders.push(a);
            }
            reactant_offsets.push(reactant_species.len() as u32);
            rate_constants.push(r.rate_constant());
        }

        // Build per-species terms from net stoichiometry, plus the
        // reaction-major transpose for the parameter-Jacobian kernels.
        let mut per_species: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n_species];
        let mut stoich_offsets = Vec::with_capacity(n_reactions + 1);
        let mut stoich_species = Vec::new();
        let mut stoich_coeffs = Vec::new();
        stoich_offsets.push(0u32);
        for (i, r) in model.reactions().iter().enumerate() {
            let mut net: Vec<(usize, f64)> = Vec::new();
            for &(s, a) in r.reactants() {
                net.push((s, -(a as f64)));
            }
            for &(s, b) in r.products() {
                match net.iter_mut().find(|(sp, _)| *sp == s) {
                    Some((_, c)) => *c += b as f64,
                    None => net.push((s, b as f64)),
                }
            }
            for (s, c) in net {
                if c != 0.0 {
                    per_species[s].push((i as u32, c));
                    stoich_species.push(s as u32);
                    stoich_coeffs.push(c);
                }
            }
            stoich_offsets.push(stoich_species.len() as u32);
        }
        let mut term_offsets = Vec::with_capacity(n_species + 1);
        let mut term_reactions = Vec::new();
        let mut term_coeffs = Vec::new();
        term_offsets.push(0u32);
        for terms in &per_species {
            for &(r, c) in terms {
                term_reactions.push(r);
                term_coeffs.push(c);
            }
            term_offsets.push(term_reactions.len() as u32);
        }

        // The Jacobian scatter: species `s` gets, for each of its terms
        // `(r, coeff)` and each reactant slot `q` of `r`, the contribution
        // `coeff · ∂flux_r/∂x_q` in column `species(q)`.
        let slots_of = |r: u32| reactant_offsets[r as usize]..reactant_offsets[r as usize + 1];
        let n_jac_terms = term_reactions.iter().map(|&r| slots_of(r).len()).sum();
        let mut jac_row_offsets = Vec::with_capacity(n_species + 1);
        let mut jac_terms = Vec::with_capacity(n_jac_terms);
        let mut jac_diag_terms = Vec::new();
        jac_row_offsets.push(0u32);
        for (s, terms) in per_species.iter().enumerate() {
            for &(r, coeff) in terms {
                for slot in slots_of(r) {
                    let term = JacTerm { col: reactant_species[slot as usize], slot, coeff };
                    jac_terms.push(term);
                    if term.col as usize == s {
                        jac_diag_terms.push(term);
                    }
                }
            }
            jac_row_offsets.push(jac_terms.len() as u32);
        }
        jac_diag_terms.shrink_to_fit();
        let jac_sparsity = paraspace_linalg::SparsityPattern::from_rows(
            n_species,
            jac_row_offsets.windows(2).map(|row| {
                jac_terms[row[0] as usize..row[1] as usize].iter().map(|t| t.col as usize)
            }),
        );

        CompiledOdes {
            n_species,
            n_reactions,
            reactant_offsets,
            reactant_species,
            reactant_orders,
            rate_constants,
            flux_program,
            jac_program,
            jac_row_offsets,
            jac_terms,
            jac_diag_terms,
            jac_sparsity,
            term_offsets,
            term_reactions,
            term_coeffs,
            stoich_offsets,
            stoich_species,
            stoich_coeffs,
        }
    }

    /// Number of species `N` (the ODE system dimension).
    pub fn n_species(&self) -> usize {
        self.n_species
    }

    /// Number of reactions `M`.
    pub fn n_reactions(&self) -> usize {
        self.n_reactions
    }

    /// Number of reactant slots (one per reactant of every reaction): the
    /// row count of the scratch the lane-batched Jacobian kernels take.
    pub fn n_reactant_slots(&self) -> usize {
        self.jac_program.len()
    }

    /// The baked-in kinetic constants.
    pub fn rate_constants(&self) -> &[f64] {
        &self.rate_constants
    }

    /// Evaluates all reaction fluxes into `flux` using the baked rate
    /// constants.
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths do not match the model.
    pub fn fluxes(&self, x: &[f64], flux: &mut [f64]) {
        self.fluxes_with(x, &self.rate_constants, flux);
    }

    /// Evaluates all reaction fluxes with an explicit rate-constant vector
    /// (used by coarse-grained batches where each simulation carries its own
    /// parameterization).
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths do not match the model.
    pub fn fluxes_with(&self, x: &[f64], k: &[f64], flux: &mut [f64]) {
        assert_eq!(x.len(), self.n_species, "state vector length");
        assert_eq!(k.len(), self.n_reactions, "rate constant vector length");
        assert_eq!(flux.len(), self.n_reactions, "flux buffer length");
        for ((f, &k), &op) in flux.iter_mut().zip(k).zip(&self.flux_program) {
            *f = self.mass_action_flux(op, k, x);
        }
    }

    /// Evaluates the right-hand side `dX/dt = (B − A)ᵀ [K ⊙ X^A]` with the
    /// baked rate constants. The time argument is accepted for solver-trait
    /// compatibility; autonomous mass-action systems ignore it.
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths do not match the model.
    pub fn rhs(&self, _t: f64, x: &[f64], dxdt: &mut [f64]) {
        let mut flux = vec![0.0; self.n_reactions];
        self.rhs_with_buffer(x, &self.rate_constants, &mut flux, dxdt);
    }

    /// Right-hand side with explicit rate constants and a caller-provided
    /// flux buffer (the allocation-free path used inside solver loops).
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths do not match the model.
    pub fn rhs_with_buffer(&self, x: &[f64], k: &[f64], flux: &mut [f64], dxdt: &mut [f64]) {
        assert_eq!(dxdt.len(), self.n_species, "derivative buffer length");
        self.fluxes_with(x, k, flux);
        for (d, span) in dxdt.iter_mut().zip(self.term_offsets.windows(2)) {
            let terms = span[0] as usize..span[1] as usize;
            let mut acc = 0.0;
            for (&c, &r) in self.term_coeffs[terms.clone()].iter().zip(&self.term_reactions[terms])
            {
                acc += c * flux[r as usize];
            }
            *d = acc;
        }
    }

    /// Whether this model's flux pass has a lane-batched implementation:
    /// always `true`, since every model is mass action. Kept only for the
    /// benchmark's trace probe, which still asks; no workspace code does.
    pub fn supports_lane_batch(&self) -> bool {
        true
    }

    /// Evaluates all reaction fluxes for `lanes` parameterizations at once.
    ///
    /// Every buffer is structure-of-arrays with lane-minor layout: entry
    /// `i` of lane `l` lives at `i·lanes + l` (`x`: `N×L` species block,
    /// `k`/`flux`: `M×L` reaction blocks). Each op of the flux program is
    /// applied to one row of lanes — a `[f64; L]` at widths 1, 2, 4 and 8,
    /// where the release build's width-8 first-order and bimolecular ops
    /// are four `mulpd` (eight) over unchecked loads, one checked index per
    /// gathered species; a slice at any other width. Per lane the
    /// operation sequence is identical to
    /// [`fluxes_with`](Self::fluxes_with), so lane results are bitwise
    /// equal to scalar evaluation.
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths do not match.
    pub fn fluxes_batch(&self, lanes: usize, x: &[f64], k: &[f64], flux: &mut [f64]) {
        self.check_flux_blocks(lanes, x, k, flux);
        with_lane_width!(lanes, |w| self.flux_rows(w, x, k, flux));
    }

    /// The flux pass's preconditions, shared by the kernels that run it.
    fn check_flux_blocks(&self, lanes: usize, x: &[f64], k: &[f64], flux: &[f64]) {
        assert_eq!(x.len(), self.n_species * lanes, "state block length");
        assert_eq!(k.len(), self.n_reactions * lanes, "rate-constant block length");
        assert_eq!(flux.len(), self.n_reactions * lanes, "flux block length");
    }

    /// Lane-batched right-hand side: the flux pass then the per-species
    /// accumulation pass, each sweeping all lanes in its inner loop.
    ///
    /// Layouts as in [`fluxes_batch`](Self::fluxes_batch); `dxdt` is an
    /// `N×L` species block. Per lane, results are bitwise identical to
    /// [`rhs_with_buffer`](Self::rhs_with_buffer) with that lane's state
    /// and constants. Both passes are compiled twice, for x86-64 baseline
    /// and with AVX2 ([`isa_twins!`](paraspace_linalg::isa_twins)), and a
    /// CPU with AVX2 runs the second — the same bits, four lanes per
    /// instruction where the baseline packs two; the scalar kernels stay
    /// baseline, so every scalar-against-lanes check is also one across the
    /// two instruction sets.
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths do not match.
    pub fn rhs_batch(
        &self,
        lanes: usize,
        x: &[f64],
        k: &[f64],
        flux: &mut [f64],
        dxdt: &mut [f64],
    ) {
        self.check_flux_blocks(lanes, x, k, flux);
        assert_eq!(dxdt.len(), self.n_species * lanes, "derivative block length");
        rhs_batch(self, lanes, x, k, flux, dxdt);
    }

    /// Lane-batched Jacobian diagonal `∂(dX_s/dt)/∂X_s` for stiffness
    /// triage: the dominant-eigenvalue screen only needs the diagonal, so
    /// lane-groups can be triaged with the derivative pass and the short
    /// diagonal scatter instead of `L` full `N×N` Jacobians.
    ///
    /// Layouts as in [`fluxes_batch`](Self::fluxes_batch); `diag` is an
    /// `N×L` species block and `slots` the caller's
    /// [`n_reactant_slots`](Self::n_reactant_slots)`×L` scratch, as in
    /// [`jacobian_batch`](Self::jacobian_batch), whose diagonal these
    /// entries are, bitwise.
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths do not match.
    pub fn jacobian_diag_batch(
        &self,
        lanes: usize,
        x: &[f64],
        k: &[f64],
        slots: &mut [f64],
        diag: &mut [f64],
    ) {
        assert_eq!(x.len(), self.n_species * lanes, "state block length");
        assert_eq!(k.len(), self.n_reactions * lanes, "rate-constant block length");
        assert_eq!(diag.len(), self.n_species * lanes, "diagonal block length");
        assert_eq!(slots.len(), self.jac_program.len() * lanes, "slot scratch length");
        with_lane_width!(lanes, |w| self.jacobian_diag_rows(w, x, k, slots, diag));
    }

    /// Lane-batched full analytic Jacobian for the lockstep Radau kernel:
    /// `jac[(s·N + j)·L + l] = ∂(dX_s/dt)/∂X_j` for lane `l`.
    ///
    /// Layouts as in [`fluxes_batch`](Self::fluxes_batch) (`x` an `N×L`
    /// species block, `k` an `M×L` reaction block); `jac` is an `N×N×L`
    /// SoA block, lane-minor like everything else. `slots` is the
    /// derivative pass's output, one row per reactant slot
    /// ([`n_reactant_slots`](Self::n_reactant_slots)`×L`): scratch the
    /// caller keeps between calls (every row is overwritten, so its
    /// contents on entry do not matter) — the kernel allocates nothing.
    /// This is the same Jacobian program
    /// [`jacobian_with`](Self::jacobian_with) runs at width 1, so each
    /// lane's Jacobian is bitwise identical to the scalar evaluation with
    /// that lane's state and constants.
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths do not match.
    pub fn jacobian_batch(
        &self,
        lanes: usize,
        x: &[f64],
        k: &[f64],
        slots: &mut [f64],
        jac: &mut [f64],
    ) {
        let n = self.n_species;
        assert_eq!(x.len(), n * lanes, "state block length");
        assert_eq!(k.len(), self.n_reactions * lanes, "rate-constant block length");
        assert_eq!(jac.len(), n * n * lanes, "jacobian block length");
        assert_eq!(slots.len(), self.jac_program.len() * lanes, "slot scratch length");
        with_lane_width!(lanes, |w| self.jacobian_rows(w, x, k, slots, jac));
    }

    /// Analytic Jacobian `J[s][j] = ∂(dX_s/dt)/∂X_j` with the baked
    /// constants, written into `jac`.
    ///
    /// # Panics
    ///
    /// Panics if `jac` is not `N × N`.
    pub fn jacobian(&self, _t: f64, x: &[f64], jac: &mut Matrix) {
        self.jacobian_with(x, &self.rate_constants, jac);
    }

    /// Analytic Jacobian with explicit rate constants.
    ///
    /// Two flat passes, like the right-hand side: the **derivative pass**
    /// evaluates `∂flux_r/∂x_j` once per reactant slot (the model's
    /// *Jacobian program*), and the **scatter
    /// pass** adds `coeff · d[slot]` into `J[s][j]` for every species `s`
    /// the reaction feeds — per entry in the species' term order, then the
    /// reaction's reactant order.
    ///
    /// # Panics
    ///
    /// Panics if `jac` is not `N × N` or vector lengths mismatch.
    pub fn jacobian_with(&self, x: &[f64], k: &[f64], jac: &mut Matrix) {
        assert_eq!(jac.rows(), self.n_species, "jacobian rows");
        assert_eq!(jac.cols(), self.n_species, "jacobian cols");
        assert_eq!(x.len(), self.n_species);
        assert_eq!(k.len(), self.n_reactions);
        let mut d = vec![0.0; self.jac_program.len()];
        self.jacobian_rows(FixedWidth::<1>, x, k, &mut d, jac.as_mut_slice());
    }

    /// The unit flux `g_r(x)` of reaction `r`: its flux evaluated with the
    /// rate constant replaced by 1. A mass-action flux is linear in its
    /// constant (`flux = k·g(x)`), so the unit flux **is** the exact
    /// analytic `∂flux_r/∂k_r` — no finite differencing, no division by `k`
    /// (which would break at `k = 0`).
    pub fn unit_flux(&self, r: usize, x: &[f64]) -> f64 {
        self.mass_action_flux(self.flux_program[r], 1.0, x)
    }

    /// Analytic parameter Jacobian `∂f/∂k` for the selected rate constants:
    /// `out[j·N + s] = ∂(dX_s/dt)/∂k_{which[j]}`, one `N`-column per entry
    /// of `which` (param-major).
    ///
    /// Because each flux is linear in its own constant and independent of
    /// every other constant, column `j` is the single scaled flux column
    /// `ν_r · g_r(x)` (net stoichiometry times the unit flux) of reaction
    /// `r = which[j]` — exact and `O(column nnz)` cheap. This is the
    /// right-hand-side forcing term of the forward sensitivity equations
    /// `ṡⱼ = J·sⱼ + ∂f/∂kⱼ`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or an out-of-range reaction index.
    pub fn dfdk_with(&self, x: &[f64], which: &[usize], out: &mut [f64]) {
        let n = self.n_species;
        assert_eq!(x.len(), n, "state vector length");
        assert_eq!(out.len(), which.len() * n, "dfdk buffer length");
        out.fill(0.0);
        for (j, &r) in which.iter().enumerate() {
            assert!(r < self.n_reactions, "reaction index {r} out of range");
            let g = self.unit_flux(r, x);
            let col = &mut out[j * n..(j + 1) * n];
            let lo = self.stoich_offsets[r] as usize;
            let hi = self.stoich_offsets[r + 1] as usize;
            for p in lo..hi {
                col[self.stoich_species[p] as usize] = self.stoich_coeffs[p] * g;
            }
        }
    }

    /// The structural sparsity pattern of the Jacobian, fixed by
    /// stoichiometry at compile time: `J[s][j]` can be nonzero only when
    /// some reaction contributing to species `s` has species `j` among its
    /// reactants. The pattern holds for **every** state and
    /// parameterization, which is what lets the sensitivity `J·S` passes
    /// skip every entry off it.
    pub fn jacobian_sparsity(&self) -> &paraspace_linalg::SparsityPattern {
        &self.jac_sparsity
    }

    /// Approximate floating-point operation count of one right-hand-side
    /// evaluation; the virtual-GPU cost model charges kernels with this.
    pub fn rhs_flops(&self) -> u64 {
        // Flux pass: one multiply per (reactant, order) factor plus one per
        // reaction for the rate constant; accumulation: one fused
        // multiply-add per species term.
        let factor_ops: u64 = self.reactant_orders.iter().map(|&o| o.max(1) as u64).sum();
        factor_ops + self.n_reactions as u64 + 2 * self.term_reactions.len() as u64
    }

    /// Approximate flop count of one analytic Jacobian evaluation.
    pub fn jacobian_flops(&self) -> u64 {
        // Each species-term revisits the reaction's reactant list once per
        // reactant: quadratic in reactants-per-reaction (small: ≤ 2).
        let mut total = 0u64;
        for s in 0..self.n_species {
            let lo = self.term_offsets[s] as usize;
            let hi = self.term_offsets[s + 1] as usize;
            for p in lo..hi {
                let r = self.term_reactions[p] as usize;
                let nr = (self.reactant_offsets[r + 1] - self.reactant_offsets[r]) as u64;
                total += 2 * nr * nr.max(1) + 2;
            }
        }
        total
    }

    /// Total number of nonzero species-term entries (a size proxy for
    /// memory-traffic estimates).
    pub fn n_terms(&self) -> usize {
        self.term_reactions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Reaction, ReactionBasedModel};
    use paraspace_linalg::finite_difference_jacobian;

    /// Lotka–Volterra as an RBM:
    ///   R0: X -> 2X        (k0)   prey growth
    ///   R1: X + Y -> 2Y    (k1)   predation
    ///   R2: Y -> ∅         (k2)   predator death
    fn lotka_volterra() -> (ReactionBasedModel, CompiledOdes) {
        let mut m = ReactionBasedModel::new();
        let x = m.add_species("X", 1.0);
        let y = m.add_species("Y", 0.5);
        m.add_reaction(Reaction::mass_action(&[(x, 1)], &[(x, 2)], 2.0)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(x, 1), (y, 1)], &[(y, 2)], 1.5)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(y, 1)], &[], 0.8)).unwrap();
        let c = m.compile().unwrap();
        (m, c)
    }

    #[test]
    fn lotka_volterra_rhs_matches_closed_form() {
        let (_, odes) = lotka_volterra();
        let x = [1.2, 0.7];
        let mut d = [0.0; 2];
        odes.rhs(0.0, &x, &mut d);
        // dX/dt = 2X - 1.5XY ; dY/dt = 1.5XY - 0.8Y
        let expected_x = 2.0 * x[0] - 1.5 * x[0] * x[1];
        let expected_y = 1.5 * x[0] * x[1] - 0.8 * x[1];
        assert!((d[0] - expected_x).abs() < 1e-14);
        assert!((d[1] - expected_y).abs() < 1e-14);
    }

    #[test]
    fn rhs_matches_matrix_formula() {
        // Verify dX/dt == (B-A)^T (K ⊙ X^A) computed via dense matrices.
        let (m, odes) = lotka_volterra();
        let x: [f64; 2] = [0.9, 1.1];
        let a = m.stoichiometry_reactants();
        let k = m.rate_constants();
        // X^A per reaction.
        let mut flux = vec![0.0; m.n_reactions()];
        for i in 0..m.n_reactions() {
            let mut f = k[i];
            for j in 0..m.n_species() {
                f *= x[j].powf(a[(i, j)]);
            }
            flux[i] = f;
        }
        let net = m.net_stoichiometry();
        let expected = net.mul_vec(&flux);
        let mut d = [0.0; 2];
        odes.rhs(0.0, &x, &mut d);
        for (p, q) in d.iter().zip(&expected) {
            assert!((p - q).abs() < 1e-13);
        }
    }

    #[test]
    fn analytic_jacobian_matches_finite_difference() {
        let (_, odes) = lotka_volterra();
        let x = [1.3, 0.4];
        let mut jac = Matrix::zeros(2, 2);
        odes.jacobian(0.0, &x, &mut jac);
        let fd = finite_difference_jacobian(|t, y, d| odes.rhs(t, y, d), 0.0, &x);
        for i in 0..2 {
            for j in 0..2 {
                assert!(
                    (jac[(i, j)] - fd[(i, j)]).abs() < 1e-5,
                    "J[{i}][{j}]: {} vs {}",
                    jac[(i, j)],
                    fd[(i, j)]
                );
            }
        }
    }

    #[test]
    fn second_order_same_species_jacobian() {
        // 2A -> B : flux = k [A]^2, d/dA = 2k[A].
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let b = m.add_species("B", 0.0);
        m.add_reaction(Reaction::mass_action(&[(a, 2)], &[(b, 1)], 3.0)).unwrap();
        let odes = m.compile().unwrap();
        let x = [0.7, 0.0];
        let mut jac = Matrix::zeros(2, 2);
        odes.jacobian(0.0, &x, &mut jac);
        // dA/dt = -2·flux → d/dA = -2·(2·3·0.7) = -8.4
        assert!((jac[(0, 0)] + 8.4).abs() < 1e-12);
        // dB/dt = +flux → d/dA = 4.2
        assert!((jac[(1, 0)] - 4.2).abs() < 1e-12);
        assert_eq!(jac[(0, 1)], 0.0);
    }

    #[test]
    fn catalyst_cancels_in_net_but_enters_flux() {
        // A + E -> B + E (E catalytic): net coefficient of E is zero, so E
        // has no term for this reaction, but flux depends on [E].
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let e = m.add_species("E", 0.5);
        let b = m.add_species("B", 0.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1), (e, 1)], &[(b, 1), (e, 1)], 2.0)).unwrap();
        let odes = m.compile().unwrap();
        let x = [1.0, 0.5, 0.0];
        let mut d = [0.0; 3];
        odes.rhs(0.0, &x, &mut d);
        assert!((d[0] + 1.0).abs() < 1e-14);
        assert_eq!(d[1], 0.0); // catalyst unchanged
        assert!((d[2] - 1.0).abs() < 1e-14);
        // Jacobian: ∂(dA/dt)/∂E = -2·[A] = -2.
        let mut jac = Matrix::zeros(3, 3);
        odes.jacobian(0.0, &x, &mut jac);
        assert!((jac[(0, 1)] + 2.0).abs() < 1e-13);
        assert_eq!(jac[(1, 0)], 0.0);
    }

    #[test]
    fn explicit_rate_constants_override_baked() {
        let (_, odes) = lotka_volterra();
        let x = [1.0, 1.0];
        let k = [0.0, 0.0, 1.0]; // only predator death active
        let mut flux = vec![0.0; 3];
        let mut d = [0.0; 2];
        odes.rhs_with_buffer(&x, &k, &mut flux, &mut d);
        assert_eq!(d[0], 0.0);
        assert!((d[1] + 1.0).abs() < 1e-14);
    }

    #[test]
    fn zero_order_source_reaction() {
        // ∅ -> A at rate 5: constant production.
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 0.0);
        m.add_reaction(Reaction::mass_action(&[], &[(a, 1)], 5.0)).unwrap();
        let odes = m.compile().unwrap();
        let mut d = [0.0];
        odes.rhs(0.0, &[123.0], &mut d);
        assert_eq!(d[0], 5.0);
        let mut jac = Matrix::zeros(1, 1);
        odes.jacobian(0.0, &[123.0], &mut jac);
        assert_eq!(jac[(0, 0)], 0.0);
    }

    #[test]
    fn jacobian_sparsity_covers_every_analytic_nonzero() {
        let (_, odes) = lotka_volterra();
        let p = odes.jacobian_sparsity();
        assert_eq!(p.dim(), 2);
        let x = [1.3, 0.4];
        let mut jac = Matrix::zeros(2, 2);
        odes.jacobian(0.0, &x, &mut jac);
        for i in 0..2 {
            for j in 0..2 {
                if jac[(i, j)] != 0.0 {
                    assert!(p.contains(i, j), "nonzero J[{i}][{j}] outside pattern");
                }
            }
        }
        // Catalysts enter the flux but not the net stoichiometry: the
        // pattern must still include the catalyst column.
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let e = m.add_species("E", 0.5);
        let b = m.add_species("B", 0.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1), (e, 1)], &[(b, 1), (e, 1)], 2.0)).unwrap();
        let odes = m.compile().unwrap();
        let cat = odes.jacobian_sparsity();
        assert!(cat.contains(0, 1), "∂(dA/dt)/∂E must be structural");
        assert!(cat.contains(2, 0) && cat.contains(2, 1));
        assert!(!cat.contains(1, 0), "catalyst has no net term, so row E is empty");
    }

    #[test]
    fn flop_counts_positive_and_scale_with_size() {
        let (_, small) = lotka_volterra();
        assert!(small.rhs_flops() > 0);
        assert!(small.jacobian_flops() > 0);
        assert!(small.n_terms() >= 4);
    }

    /// Two species and one reaction of every reactant shape, each feeding
    /// A: every `FluxOp` and `DerivOp` variant, the generic walk twice.
    fn every_shape() -> CompiledOdes {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let b = m.add_species("B", 0.5);
        for reactants in [
            &[][..],
            &[(a, 1)],
            &[(b, 2)],
            &[(a, 1), (b, 1)],
            &[(b, 1), (b, 1)], // merged to 2B by `Reaction`
            &[(a, 2), (b, 1)],
            &[(a, 3)],
        ] {
            m.add_reaction(Reaction::mass_action(reactants, &[(a, 1)], 1.0)).unwrap();
        }
        m.compile().unwrap()
    }

    #[test]
    fn each_reactant_shape_compiles_to_its_own_op() {
        let odes = every_shape();
        assert_eq!(
            odes.flux_program,
            [
                FluxOp::Source,
                FluxOp::FirstOrder(0),
                FluxOp::Dimerisation(1),
                FluxOp::Bimolecular(0, 1),
                FluxOp::Dimerisation(1),
                FluxOp::Generic { lo: 5, hi: 7 },
                FluxOp::Generic { lo: 7, hi: 8 },
            ]
        );
        // One derivative op per reactant slot, in the same order.
        assert_eq!(
            odes.jac_program,
            [
                (1, DerivOp::FirstOrder),
                (2, DerivOp::Dimerisation(1)),
                (3, DerivOp::Bimolecular(1)),
                (3, DerivOp::Bimolecular(0)),
                (4, DerivOp::Dimerisation(1)),
                (5, DerivOp::Generic { lo: 5, hi: 7, at: 5 }),
                (5, DerivOp::Generic { lo: 5, hi: 7, at: 6 }),
                (6, DerivOp::Generic { lo: 7, hi: 8, at: 7 }),
            ]
        );
        // The scatter rows of A and B as `(col, slot, coeff)`. A reaction
        // whose net effect on a species is zero (`A → A` and `A + B → A`
        // on A) has no term for it, so none of its slots reach that row.
        let terms = |s: usize| {
            let span = odes.jac_row_offsets[s] as usize..odes.jac_row_offsets[s + 1] as usize;
            odes.jac_terms[span].iter().map(|t| (t.col, t.slot, t.coeff)).collect::<Vec<_>>()
        };
        assert_eq!(terms(0), [(1, 1, 1.0), (1, 4, 1.0), (0, 5, -1.0), (1, 6, -1.0), (0, 7, -2.0)]);
        assert_eq!(
            terms(1),
            [(1, 1, -2.0), (0, 2, -1.0), (1, 3, -1.0), (1, 4, -2.0), (0, 5, -1.0), (1, 6, -1.0)]
        );
        let diagonal: Vec<_> = odes.jac_diag_terms.iter().map(|t| (t.col, t.slot)).collect();
        assert_eq!(diagonal, [(0, 5), (0, 7), (1, 1), (1, 3), (1, 4), (1, 6)]);
        // Generated networks are at most bimolecular: none of their
        // reactions may fall back to the generic walk.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let generated = crate::sbgen::SbGen::new(32, 48).generate(&mut rng).compile().unwrap();
        assert!(!generated.flux_program.iter().any(|op| matches!(op, FluxOp::Generic { .. })));
        assert!(!generated.jac_program.iter().any(|(_, op)| matches!(op, DerivOp::Generic { .. })));
    }

    /// SoA blocks for `lanes` perturbed copies of a base vector.
    fn soa_block(base: &[f64], lanes: usize) -> Vec<f64> {
        let mut block = vec![0.0; base.len() * lanes];
        for (i, &v) in base.iter().enumerate() {
            for l in 0..lanes {
                block[i * lanes + l] = v * (1.0 + 0.13 * l as f64) + 0.01 * l as f64;
            }
        }
        block
    }

    /// Lane `l` of an SoA block, gathered to a contiguous vector.
    fn lane_of(block: &[f64], lanes: usize, l: usize) -> Vec<f64> {
        block.iter().skip(l).step_by(lanes).copied().collect()
    }

    /// The widths every row pass is pinned at: 1, 2, 4, 8 run on `[f64; L]`
    /// rows, 3 and 5 on slices — one body, so the same bits.
    const WIDTHS: [usize; 6] = [1, 2, 3, 4, 5, 8];

    /// A `rows × lanes` block of sign-mixed values, no two alike, with a
    /// `-0.0` in every lane.
    fn mixed_block(rows: usize, lanes: usize, salt: f64) -> Vec<f64> {
        (0..rows * lanes)
            .map(|i| if i / lanes == 1 { -0.0 } else { ((i as f64 + salt) * 0.7311).sin() * 2.5 })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn flux_rows_are_the_scalar_flux_of_every_op_in_every_lane() {
        let odes = every_shape();
        let m = odes.n_reactions();
        for lanes in WIDTHS {
            let (x, k) = (mixed_block(2, lanes, 1.0), mixed_block(m, lanes, 2.0));
            let mut flux = vec![f64::NAN; m * lanes];
            with_lane_width!(lanes, |w| odes.flux_rows(w, &x, &k, &mut flux));
            for l in 0..lanes {
                let (x, k) = (lane_of(&x, lanes, l), lane_of(&k, lanes, l));
                let want: Vec<f64> =
                    (0..m).map(|r| odes.mass_action_flux(odes.flux_program[r], k[r], &x)).collect();
                assert_eq!(bits(&lane_of(&flux, lanes, l)), bits(&want), "width {lanes}, lane {l}");
            }
        }
    }

    #[test]
    fn accumulate_rows_are_the_scalar_species_sums_in_every_lane() {
        // Three species over five fluxes: an empty sum, a one-term sum and
        // a sum whose order shows in the last bit.
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let b = m.add_species("B", 1.0);
        let _idle = m.add_species("C", 1.0);
        for _ in 0..4 {
            m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(a, 3)], 1.0)).unwrap();
        }
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(a, 1), (b, 1)], 1.0)).unwrap();
        let odes = m.compile().unwrap();
        for lanes in WIDTHS {
            let flux = mixed_block(5, lanes, 3.0);
            let mut dxdt = vec![f64::NAN; 3 * lanes];
            with_lane_width!(lanes, |w| odes.accumulate_rows(w, &flux, &mut dxdt));
            for l in 0..lanes {
                let f = lane_of(&flux, lanes, l);
                let a = 0.0 + 2.0 * f[0] + 2.0 * f[1] + 2.0 * f[2] + 2.0 * f[3];
                let want = [a, 0.0 + 1.0 * f[4], 0.0];
                assert_eq!(bits(&lane_of(&dxdt, lanes, l)), bits(&want), "width {lanes}, lane {l}");
            }
        }
    }

    /// Every slot's `∂flux_r/∂x_j` by a walk of the reactant lists:
    /// `k·a·x_j^(a−1)`, then the other reactants in list order.
    fn naive_derivatives(odes: &CompiledOdes, x: &[f64], k: &[f64]) -> Vec<f64> {
        let slot = |q: usize| (x[odes.reactant_species[q] as usize], odes.reactant_orders[q]);
        let mut d = Vec::with_capacity(odes.n_reactant_slots());
        for (r, span) in odes.reactant_offsets.windows(2).enumerate() {
            let list = span[0] as usize..span[1] as usize;
            for at in list.clone() {
                let (own, order) = slot(at);
                let head = k[r] * order as f64 * int_pow(own, order - 1);
                let others = list.clone().filter(|&q| q != at).map(slot);
                d.push(others.fold(head, |d, (x, order)| d * int_pow(x, order)));
            }
        }
        d
    }

    #[test]
    fn derivative_rows_are_the_scalar_derivative_of_every_op_in_every_lane() {
        let odes = every_shape();
        let slots = odes.n_reactant_slots();
        for lanes in WIDTHS {
            let x = mixed_block(2, lanes, 4.0);
            let k = mixed_block(odes.n_reactions(), lanes, 5.0);
            let mut d = vec![f64::NAN; slots * lanes];
            with_lane_width!(lanes, |w| odes.derivative_rows(w, &x, &k, &mut d));
            for l in 0..lanes {
                let (x, k) = (lane_of(&x, lanes, l), lane_of(&k, lanes, l));
                let want = naive_derivatives(&odes, &x, &k);
                assert_eq!(bits(&lane_of(&d, lanes, l)), bits(&want), "width {lanes}, lane {l}");
            }
        }
    }

    #[test]
    fn scatter_rows_are_the_scalar_entry_sums_in_every_lane() {
        let odes = every_shape();
        let (n, slots) = (odes.n_species(), odes.n_reactant_slots());
        for lanes in WIDTHS {
            let d = mixed_block(slots, lanes, 6.0);
            let (mut jac, mut diag) = (vec![f64::NAN; n * n * lanes], vec![f64::NAN; n * lanes]);
            with_lane_width!(lanes, |w| {
                odes.scatter_rows(w, &d, &mut jac);
                // The diagonal's share, as `jacobian_diag_rows` scatters it.
                diag.fill(0.0);
                for t in &odes.jac_diag_terms {
                    accumulate_term(w, *t, &d, &mut diag);
                }
            });
            for l in 0..lanes {
                let d = lane_of(&d, lanes, l);
                let mut want = vec![0.0; n * n];
                for (s, span) in odes.jac_row_offsets.windows(2).enumerate() {
                    for t in &odes.jac_terms[span[0] as usize..span[1] as usize] {
                        want[s * n + t.col as usize] += t.coeff * d[t.slot as usize];
                    }
                }
                assert_eq!(bits(&lane_of(&jac, lanes, l)), bits(&want), "width {lanes}, lane {l}");
                let want: Vec<f64> = want.iter().step_by(n + 1).copied().collect();
                assert_eq!(bits(&lane_of(&diag, lanes, l)), bits(&want), "width {lanes}, lane {l}");
            }
        }
    }

    #[test]
    fn rhs_batch_is_bitwise_equal_to_scalar_per_lane() {
        let (_, odes) = lotka_volterra();
        for lanes in [1, 2, 4, 8] {
            let x = soa_block(&[1.2, 0.7], lanes);
            let k = soa_block(&[2.0, 1.5, 0.8], lanes);
            let mut flux = vec![0.0; 3 * lanes];
            let mut dxdt = vec![0.0; 2 * lanes];
            odes.rhs_batch(lanes, &x, &k, &mut flux, &mut dxdt);
            for l in 0..lanes {
                let xl = lane_of(&x, lanes, l);
                let kl = lane_of(&k, lanes, l);
                let mut sflux = vec![0.0; 3];
                let mut sd = vec![0.0; 2];
                odes.rhs_with_buffer(&xl, &kl, &mut sflux, &mut sd);
                assert_eq!(lane_of(&flux, lanes, l), sflux, "lanes={lanes} lane={l}");
                assert_eq!(lane_of(&dxdt, lanes, l), sd, "lanes={lanes} lane={l}");
            }
        }
    }

    #[test]
    fn rhs_batch_covers_second_order_and_catalytic_reactions() {
        // 2A -> B plus A + E -> B + E: exercises the order-2 lane
        // specialization and a species with zero net coefficient.
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let e = m.add_species("E", 0.5);
        let b = m.add_species("B", 0.0);
        m.add_reaction(Reaction::mass_action(&[(a, 2)], &[(b, 1)], 3.0)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(a, 1), (e, 1)], &[(b, 1), (e, 1)], 2.0)).unwrap();
        let odes = m.compile().unwrap();
        let lanes = 4;
        let x = soa_block(&[0.7, 0.5, 0.1], lanes);
        let k = soa_block(&[3.0, 2.0], lanes);
        let mut flux = vec![0.0; 2 * lanes];
        let mut dxdt = vec![0.0; 3 * lanes];
        odes.rhs_batch(lanes, &x, &k, &mut flux, &mut dxdt);
        for l in 0..lanes {
            let xl = lane_of(&x, lanes, l);
            let kl = lane_of(&k, lanes, l);
            let mut sflux = vec![0.0; 2];
            let mut sd = vec![0.0; 3];
            odes.rhs_with_buffer(&xl, &kl, &mut sflux, &mut sd);
            assert_eq!(lane_of(&dxdt, lanes, l), sd, "lane={l}");
        }
    }

    /// The bits of every value, every NaN read as the one NaN (IEEE-754
    /// leaves a produced NaN's sign and payload to the hardware and the
    /// operand order of a `+` or `×` to the code generator).
    fn value_bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits()).collect()
    }

    /// [`mixed_block`] with `±0`, `±∞` and NaN entries spread over its rows
    /// and lanes as `variant` picks.
    fn special_block(rows: usize, lanes: usize, salt: f64, variant: usize) -> Vec<f64> {
        let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let mut block = mixed_block(rows, lanes, salt);
        for (i, v) in block.iter_mut().enumerate() {
            if (i + variant).is_multiple_of(variant + 2) {
                *v = specials[(i + variant) % specials.len()];
            }
        }
        block
    }

    /// Both twins of the lane-batched right-hand side leave the same bits
    /// in every block, at every width, on every reactant shape.
    #[test]
    fn rhs_twins_agree_bit_for_bit() {
        if !paraspace_linalg::avx2_detected() {
            println!("skipped: this CPU has no AVX2, so only the baseline twin runs");
            return;
        }
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let generated = crate::sbgen::SbGen::new(32, 48).generate(&mut rng).compile().unwrap();
        let mut nonfinite = 0;
        for (name, odes) in [("every shape", every_shape()), ("generated", generated)] {
            let (n, m) = (odes.n_species(), odes.n_reactions());
            for (lanes, variant) in WIDTHS.into_iter().flat_map(|w| (0..4).map(move |v| (w, v))) {
                let x = special_block(n, lanes, 1.0, variant);
                let k = special_block(m, lanes, 2.0, variant + 1);
                let case = format!("{name}, width {lanes}, variant {variant}");
                let (mut flux, mut dxdt) = (vec![f64::NAN; m * lanes], vec![f64::NAN; n * lanes]);
                let (mut base_flux, mut base_dxdt) = (flux.clone(), dxdt.clone());
                rhs_batch(&odes, lanes, &x, &k, &mut flux, &mut dxdt);
                rhs_batch::baseline(&odes, lanes, &x, &k, &mut base_flux, &mut base_dxdt);
                assert_eq!(value_bits(&flux), value_bits(&base_flux), "{case}: flux");
                assert_eq!(value_bits(&dxdt), value_bits(&base_dxdt), "{case}: dx/dt");
                nonfinite += dxdt.iter().filter(|v| !v.is_finite()).count();
            }
        }
        assert!(nonfinite > 100, "the specials must reach the outputs ({nonfinite})");
    }

    #[test]
    fn jacobian_diag_batch_matches_full_jacobian_diagonal() {
        let (_, odes) = lotka_volterra();
        let lanes = 3;
        let x = soa_block(&[1.3, 0.4], lanes);
        let k = soa_block(&[2.0, 1.5, 0.8], lanes);
        let mut diag = vec![0.0; 2 * lanes];
        let mut slots = vec![0.0; odes.n_reactant_slots() * lanes];
        odes.jacobian_diag_batch(lanes, &x, &k, &mut slots, &mut diag);
        for l in 0..lanes {
            let xl = lane_of(&x, lanes, l);
            let kl = lane_of(&k, lanes, l);
            let mut jac = Matrix::zeros(2, 2);
            odes.jacobian_with(&xl, &kl, &mut jac);
            for s in 0..2 {
                assert!(
                    (diag[s * lanes + l] - jac[(s, s)]).abs() < 1e-12,
                    "lane={l} s={s}: {} vs {}",
                    diag[s * lanes + l],
                    jac[(s, s)]
                );
            }
        }
    }

    #[test]
    fn jacobian_batch_is_bitwise_equal_to_scalar_per_lane() {
        // Lotka–Volterra plus a second-order dimerization so the derivative
        // path with aw > 1 and multi-reactant products is exercised.
        let mut m = ReactionBasedModel::new();
        let x = m.add_species("X", 1.0);
        let y = m.add_species("Y", 0.5);
        let z = m.add_species("Z", 0.2);
        m.add_reaction(Reaction::mass_action(&[(x, 1)], &[(x, 2)], 2.0)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(x, 1), (y, 1)], &[(y, 2)], 1.5)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(y, 2)], &[(z, 1)], 0.7)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(z, 1)], &[], 0.8)).unwrap();
        let odes = m.compile().unwrap();
        let n = 3;
        for lanes in [1, 2, 4, 8] {
            let x = soa_block(&[1.2, 0.7, 0.3], lanes);
            let k = soa_block(&[2.0, 1.5, 0.7, 0.8], lanes);
            let mut jb = vec![0.0; n * n * lanes];
            let mut slots = vec![0.0; odes.n_reactant_slots() * lanes];
            odes.jacobian_batch(lanes, &x, &k, &mut slots, &mut jb);
            for l in 0..lanes {
                let xl = lane_of(&x, lanes, l);
                let kl = lane_of(&k, lanes, l);
                let mut jac = Matrix::zeros(n, n);
                odes.jacobian_with(&xl, &kl, &mut jac);
                for s in 0..n {
                    for j in 0..n {
                        assert_eq!(
                            jb[(s * n + j) * lanes + l].to_bits(),
                            jac[(s, j)].to_bits(),
                            "lanes={lanes} lane={l} J[{s}][{j}]"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dfdk_matches_central_finite_difference() {
        let (_, odes) = lotka_volterra();
        let x = [1.3, 0.4];
        let which = [0usize, 1, 2];
        let mut dfdk = vec![0.0; which.len() * 2];
        odes.dfdk_with(&x, &which, &mut dfdk);
        let base_k = odes.rate_constants().to_vec();
        for (j, &r) in which.iter().enumerate() {
            let h = 1e-6 * base_k[r].abs().max(1.0);
            let mut kp = base_k.clone();
            let mut km = base_k.clone();
            kp[r] += h;
            km[r] -= h;
            let mut flux = vec![0.0; 3];
            let (mut dp, mut dm) = ([0.0; 2], [0.0; 2]);
            odes.rhs_with_buffer(&x, &kp, &mut flux, &mut dp);
            odes.rhs_with_buffer(&x, &km, &mut flux, &mut dm);
            for s in 0..2 {
                let fd = (dp[s] - dm[s]) / (2.0 * h);
                assert!(
                    (dfdk[j * 2 + s] - fd).abs() < 1e-8,
                    "∂f[{s}]/∂k[{r}]: {} vs {fd}",
                    dfdk[j * 2 + s]
                );
            }
        }
    }

    #[test]
    fn dfdk_column_is_scaled_flux_column() {
        // ∂f/∂k_r · k_r must reproduce the reaction's flux contribution.
        let (model, odes) = lotka_volterra();
        let net = model.net_stoichiometry();
        let x = [0.9, 1.4];
        let k = odes.rate_constants().to_vec();
        let mut dfdk = vec![0.0; 3 * 2];
        odes.dfdk_with(&x, &[0, 1, 2], &mut dfdk);
        let mut flux = vec![0.0; 3];
        odes.fluxes_with(&x, &k, &mut flux);
        for r in 0..3 {
            for s in 0..2 {
                let c = net[(s, r)];
                assert!(
                    (dfdk[r * 2 + s] * k[r] - c * flux[r]).abs() < 1e-12,
                    "reaction {r} species {s}"
                );
            }
        }
    }

    #[test]
    fn int_pow_matches_powi() {
        for n in 0..8u32 {
            assert_eq!(int_pow(3.0, n), 3.0f64.powi(n as i32));
        }
        assert_eq!(int_pow(0.0, 0), 1.0);
        assert_eq!(int_pow(0.0, 3), 0.0);
    }

    #[test]
    fn buffer_length_mismatch_panics() {
        let (_, odes) = lotka_volterra();
        let result = std::panic::catch_unwind(|| {
            let mut d = [0.0; 1];
            odes.rhs(0.0, &[1.0, 1.0], &mut d);
        });
        assert!(result.is_err());
    }
}
