//! The reaction-based model container: species, reactions, stoichiometry.

use crate::{CompiledOdes, RbmError};
use paraspace_linalg::Matrix;
use std::collections::HashMap;
use std::fmt;

/// Stable handle to a species within one [`ReactionBasedModel`].
///
/// Handles are plain indices wrapped in a newtype so reactions cannot be
/// built from raw integers by accident.
///
/// # Example
///
/// ```
/// use paraspace_rbm::ReactionBasedModel;
///
/// let mut m = ReactionBasedModel::new();
/// let a = m.add_species("A", 1.0);
/// assert_eq!(a.index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpeciesId(usize);

impl SpeciesId {
    /// Builds a handle from a raw index.
    ///
    /// Indices are validated when a reaction using the handle is added to a
    /// model, not here.
    pub fn from_index(index: usize) -> Self {
        SpeciesId(index)
    }

    /// The raw index of the species within its model.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for SpeciesId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// A molecular species: a name plus its initial concentration.
#[derive(Debug, Clone, PartialEq)]
pub struct Species {
    /// Species name (unique within a model).
    pub name: String,
    /// Initial concentration X_j(0) ≥ 0.
    pub initial_concentration: f64,
}

/// A biochemical reaction `Σ a_j S_j → Σ b_j S_j` with mass-action rate
/// constant `k`.
///
/// Each side is stored merged (one entry per species, sorted by index,
/// zero coefficients dropped) and inline when it has at most three
/// entries — the longest side of every bundled model — so building,
/// cloning and dropping a model makes no heap allocation per reaction.
/// Longer sides, which SBML imports may carry, spill to the heap; which
/// storage a side uses never shows in [`reactants`](Reaction::reactants),
/// [`products`](Reaction::products) or equality.
///
/// # Example
///
/// ```
/// use paraspace_rbm::{Reaction, ReactionBasedModel};
///
/// let mut m = ReactionBasedModel::new();
/// let e = m.add_species("E", 0.1);
/// let s = m.add_species("S", 1.0);
/// let es = m.add_species("ES", 0.0);
/// // E + S -> ES at rate 0.5
/// let r = Reaction::mass_action(&[(e, 1), (s, 1)], &[(es, 1)], 0.5);
/// assert_eq!(r.order(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Reaction {
    reactants: Side,
    products: Side,
    rate_constant: f64,
}

impl Reaction {
    /// Creates a mass-action reaction from `(species, stoichiometry)` pairs.
    ///
    /// Zero-stoichiometry entries are dropped; duplicate species are merged.
    pub fn mass_action(
        reactants: &[(SpeciesId, u32)],
        products: &[(SpeciesId, u32)],
        k: f64,
    ) -> Self {
        Reaction {
            reactants: merge_side(reactants),
            products: merge_side(products),
            rate_constant: k,
        }
    }

    /// The reactant side as `(species index, stoichiometric coefficient)`.
    pub fn reactants(&self) -> &[(usize, u32)] {
        self.reactants.entries()
    }

    /// The product side as `(species index, stoichiometric coefficient)`.
    pub fn products(&self) -> &[(usize, u32)] {
        self.products.entries()
    }

    /// The kinetic constant `k_i`.
    pub fn rate_constant(&self) -> f64 {
        self.rate_constant
    }

    /// Replaces the kinetic constant.
    pub fn set_rate_constant(&mut self, k: f64) {
        self.rate_constant = k;
    }

    /// The reaction order: total stoichiometry of the reactant side
    /// (0 = source, 1 = unimolecular, 2 = bimolecular, …).
    pub fn order(&self) -> u32 {
        self.reactants().iter().map(|&(_, a)| a).sum()
    }

    fn max_species_index(&self) -> Option<usize> {
        self.reactants().iter().chain(self.products()).map(|&(s, _)| s).max()
    }
}

/// Entries a reaction side holds without a heap allocation.
const INLINE_SIDE: usize = 3;

/// One merged reaction side: inline up to [`INLINE_SIDE`] entries, on the
/// heap beyond.
#[derive(Clone)]
enum Side {
    Inline { len: u8, entries: [(usize, u32); INLINE_SIDE] },
    Heap(Box<[(usize, u32)]>),
}

impl Side {
    fn inline(merged: &[(usize, u32)]) -> Self {
        let mut entries = [(0, 0); INLINE_SIDE];
        entries[..merged.len()].copy_from_slice(merged);
        Side::Inline { len: merged.len() as u8, entries }
    }

    fn entries(&self) -> &[(usize, u32)] {
        match self {
            Side::Inline { len, entries } => &entries[..usize::from(*len)],
            Side::Heap(entries) => entries,
        }
    }
}

impl PartialEq for Side {
    fn eq(&self, other: &Self) -> bool {
        self.entries() == other.entries()
    }
}

impl fmt::Debug for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.entries().fmt(f)
    }
}

/// Merges duplicate species, drops zero coefficients and sorts by species
/// index; the storage is chosen from the merged length.
fn merge_side(side: &[(SpeciesId, u32)]) -> Side {
    if side.len() <= INLINE_SIDE {
        let mut merged = [(0, 0); INLINE_SIDE];
        let len = merge_into(side, &mut merged);
        return Side::inline(&merged[..len]);
    }
    let mut merged = vec![(0, 0); side.len()];
    let len = merge_into(side, &mut merged);
    if len <= INLINE_SIDE {
        return Side::inline(&merged[..len]);
    }
    merged.truncate(len);
    Side::Heap(merged.into_boxed_slice())
}

/// Writes the merged, sorted entries of `side` to the front of `out`
/// (at least `side.len()` long) and returns how many there are.
fn merge_into(side: &[(SpeciesId, u32)], out: &mut [(usize, u32)]) -> usize {
    let mut len = 0;
    for &(id, coeff) in side {
        if coeff == 0 {
            continue;
        }
        match out[..len].iter_mut().find(|(s, _)| *s == id.index()) {
            Some((_, c)) => *c += coeff,
            None => {
                out[len] = (id.index(), coeff);
                len += 1;
            }
        }
    }
    out[..len].sort_unstable_by_key(|&(s, _)| s);
    len
}

/// A reaction-based model: the full network of species and reactions.
///
/// # Example
///
/// ```
/// use paraspace_rbm::{Reaction, ReactionBasedModel};
///
/// # fn main() -> Result<(), paraspace_rbm::RbmError> {
/// let mut m = ReactionBasedModel::new();
/// let a = m.add_species("A", 2.0);
/// let b = m.add_species("B", 0.0);
/// m.add_reaction(Reaction::mass_action(&[(a, 2)], &[(b, 1)], 0.1))?;
/// assert_eq!(m.n_species(), 2);
/// assert_eq!(m.n_reactions(), 1);
/// assert_eq!(m.stoichiometry_reactants()[(0, 0)], 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReactionBasedModel {
    species: Vec<Species>,
    reactions: Vec<Reaction>,
    name_index: HashMap<String, usize>,
}

impl ReactionBasedModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        ReactionBasedModel::default()
    }

    /// Creates an empty model with room for `species` species and
    /// `reactions` reactions, so a builder that knows its sizes never
    /// regrows the lists or the name index.
    pub fn with_capacity(species: usize, reactions: usize) -> Self {
        ReactionBasedModel {
            species: Vec::with_capacity(species),
            reactions: Vec::with_capacity(reactions),
            name_index: HashMap::with_capacity(species),
        }
    }

    /// Adds a species and returns its handle.
    ///
    /// Duplicate names are permitted here but rejected by [`validate`];
    /// use [`add_species_checked`] to fail fast.
    ///
    /// [`validate`]: ReactionBasedModel::validate
    /// [`add_species_checked`]: ReactionBasedModel::add_species_checked
    pub fn add_species(
        &mut self,
        name: impl Into<String>,
        initial_concentration: f64,
    ) -> SpeciesId {
        let name = name.into();
        let id = self.species.len();
        self.name_index.entry(name.clone()).or_insert(id);
        self.species.push(Species { name, initial_concentration });
        SpeciesId(id)
    }

    /// Adds a species, rejecting duplicate names and invalid concentrations.
    ///
    /// # Errors
    ///
    /// [`RbmError::DuplicateSpecies`] if the name exists;
    /// [`RbmError::InvalidParameter`] if the concentration is negative or
    /// non-finite.
    pub fn add_species_checked(
        &mut self,
        name: impl Into<String>,
        initial_concentration: f64,
    ) -> Result<SpeciesId, RbmError> {
        let name = name.into();
        if self.name_index.contains_key(&name) {
            return Err(RbmError::DuplicateSpecies { name });
        }
        if !initial_concentration.is_finite() || initial_concentration < 0.0 {
            return Err(RbmError::InvalidParameter {
                what: format!("initial concentration of {name:?}"),
                value: initial_concentration,
            });
        }
        Ok(self.add_species(name, initial_concentration))
    }

    /// Adds a reaction after validating its species references and rate.
    ///
    /// # Errors
    ///
    /// [`RbmError::UnknownSpecies`] if the reaction references a species not
    /// in the model; [`RbmError::InvalidParameter`] for a negative or
    /// non-finite rate constant.
    pub fn add_reaction(&mut self, reaction: Reaction) -> Result<usize, RbmError> {
        if let Some(max) = reaction.max_species_index() {
            if max >= self.species.len() {
                return Err(RbmError::UnknownSpecies { index: max, n_species: self.species.len() });
            }
        }
        let k = reaction.rate_constant();
        if !k.is_finite() || k < 0.0 {
            return Err(RbmError::InvalidParameter { what: "rate constant".to_string(), value: k });
        }
        self.reactions.push(reaction);
        Ok(self.reactions.len() - 1)
    }

    /// Number of species `N`.
    pub fn n_species(&self) -> usize {
        self.species.len()
    }

    /// Number of reactions `M`.
    pub fn n_reactions(&self) -> usize {
        self.reactions.len()
    }

    /// The species list.
    pub fn species(&self) -> &[Species] {
        &self.species
    }

    /// The reaction list.
    pub fn reactions(&self) -> &[Reaction] {
        &self.reactions
    }

    /// Mutable access to a reaction (e.g. for parameter sweeps).
    pub fn reaction_mut(&mut self, index: usize) -> &mut Reaction {
        &mut self.reactions[index]
    }

    /// Looks up a species by name.
    ///
    /// # Errors
    ///
    /// [`RbmError::NoSuchSpecies`] when absent.
    pub fn species_by_name(&self, name: &str) -> Result<SpeciesId, RbmError> {
        self.name_index
            .get(name)
            .map(|&i| SpeciesId(i))
            .ok_or_else(|| RbmError::NoSuchSpecies { name: name.to_string() })
    }

    /// Sets the initial concentration of a species.
    pub fn set_initial_concentration(&mut self, id: SpeciesId, value: f64) {
        self.species[id.index()].initial_concentration = value;
    }

    /// The initial state vector `X(0)`.
    pub fn initial_state(&self) -> Vec<f64> {
        self.species.iter().map(|s| s.initial_concentration).collect()
    }

    /// The vector of kinetic constants `K`.
    pub fn rate_constants(&self) -> Vec<f64> {
        self.reactions.iter().map(|r| r.rate_constant).collect()
    }

    /// The reactant stoichiometric matrix `A` (`M × N`).
    pub fn stoichiometry_reactants(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n_reactions(), self.n_species());
        for (i, r) in self.reactions.iter().enumerate() {
            for &(s, c) in r.reactants() {
                m[(i, s)] = c as f64;
            }
        }
        m
    }

    /// The net stoichiometric matrix `(B − A)ᵀ` (`N × M`), the operator that
    /// maps reaction fluxes to species derivatives.
    pub fn net_stoichiometry(&self) -> Matrix {
        let mut net = Matrix::zeros(self.n_species(), self.n_reactions());
        for (i, r) in self.reactions.iter().enumerate() {
            for &(s, a) in r.reactants() {
                net[(s, i)] -= a as f64;
            }
            for &(s, b) in r.products() {
                net[(s, i)] += b as f64;
            }
        }
        net
    }

    /// Validates the whole model: non-empty, unique names, finite
    /// non-negative concentrations and constants, species indices in range.
    ///
    /// # Errors
    ///
    /// The first violation found, as the corresponding [`RbmError`].
    pub fn validate(&self) -> Result<(), RbmError> {
        if self.species.is_empty() || self.reactions.is_empty() {
            return Err(RbmError::EmptyModel);
        }
        let mut seen = HashMap::new();
        for s in &self.species {
            if seen.insert(s.name.as_str(), ()).is_some() {
                return Err(RbmError::DuplicateSpecies { name: s.name.clone() });
            }
            if !s.initial_concentration.is_finite() || s.initial_concentration < 0.0 {
                return Err(RbmError::InvalidParameter {
                    what: format!("initial concentration of {:?}", s.name),
                    value: s.initial_concentration,
                });
            }
        }
        for r in &self.reactions {
            if let Some(max) = r.max_species_index() {
                if max >= self.species.len() {
                    return Err(RbmError::UnknownSpecies {
                        index: max,
                        n_species: self.species.len(),
                    });
                }
            }
            if !r.rate_constant.is_finite() || r.rate_constant < 0.0 {
                return Err(RbmError::InvalidParameter {
                    what: "rate constant".to_string(),
                    value: r.rate_constant,
                });
            }
        }
        Ok(())
    }

    /// Compiles the model into the flat ODE encoding used by the simulation
    /// engines (phase P1 of the pipeline).
    ///
    /// # Errors
    ///
    /// Any validation failure, as from [`validate`].
    ///
    /// [`validate`]: ReactionBasedModel::validate
    pub fn compile(&self) -> Result<CompiledOdes, RbmError> {
        self.validate()?;
        Ok(CompiledOdes::from_model(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_species_model() -> (ReactionBasedModel, SpeciesId, SpeciesId) {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let b = m.add_species("B", 0.5);
        (m, a, b)
    }

    #[test]
    fn species_handles_are_sequential() {
        let (m, a, b) = two_species_model();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(m.initial_state(), vec![1.0, 0.5]);
    }

    #[test]
    fn duplicate_species_rejected_by_checked_add() {
        let mut m = ReactionBasedModel::new();
        m.add_species_checked("A", 1.0).unwrap();
        assert!(matches!(m.add_species_checked("A", 2.0), Err(RbmError::DuplicateSpecies { .. })));
    }

    #[test]
    fn negative_concentration_rejected() {
        let mut m = ReactionBasedModel::new();
        assert!(m.add_species_checked("A", -1.0).is_err());
        assert!(m.add_species_checked("B", f64::NAN).is_err());
    }

    #[test]
    fn reaction_with_unknown_species_rejected() {
        let (mut m, _, _) = two_species_model();
        let r = Reaction::mass_action(&[(SpeciesId::from_index(5), 1)], &[], 1.0);
        assert!(matches!(
            m.add_reaction(r),
            Err(RbmError::UnknownSpecies { index: 5, n_species: 2 })
        ));
    }

    #[test]
    fn negative_rate_rejected() {
        let (mut m, a, b) = two_species_model();
        let r = Reaction::mass_action(&[(a, 1)], &[(b, 1)], -0.5);
        assert!(m.add_reaction(r).is_err());
    }

    #[test]
    fn stoichiometric_matrices_have_paper_shapes() {
        // A + B -> 2B ; B -> (degradation)
        let (mut m, a, b) = two_species_model();
        m.add_reaction(Reaction::mass_action(&[(a, 1), (b, 1)], &[(b, 2)], 1.0)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(b, 1)], &[], 0.1)).unwrap();
        let sa = m.stoichiometry_reactants();
        assert_eq!((sa.rows(), sa.cols()), (2, 2)); // M x N
        assert_eq!(sa[(0, 0)], 1.0);
        assert_eq!(sa[(0, 1)], 1.0);
        // Net (B-A)^T is N x M.
        let net = m.net_stoichiometry();
        assert_eq!((net.rows(), net.cols()), (2, 2));
        assert_eq!(net[(0, 0)], -1.0); // A consumed in R0
        assert_eq!(net[(1, 0)], 1.0); // B net +1 in R0
        assert_eq!(net[(1, 1)], -1.0); // B consumed in R1
    }

    #[test]
    fn merge_side_combines_duplicates() {
        let (mut m, a, _) = two_species_model();
        // A + A -> ∅ written as two entries merges to stoichiometry 2.
        let r = Reaction::mass_action(&[(a, 1), (a, 1)], &[], 1.0);
        assert_eq!(r.order(), 2);
        assert_eq!(r.reactants(), &[(0, 2)]);
        m.add_reaction(r).unwrap();
        assert_eq!(m.stoichiometry_reactants()[(0, 0)], 2.0);
    }

    #[test]
    fn zero_coefficient_entries_dropped() {
        let (_, a, b) = two_species_model();
        let r = Reaction::mass_action(&[(a, 0), (b, 1)], &[(a, 0)], 1.0);
        assert_eq!(r.reactants(), &[(1, 1)]);
        assert!(r.products().is_empty());
        assert_eq!(r.order(), 1);
    }

    #[test]
    fn validate_empty_model_fails() {
        let m = ReactionBasedModel::new();
        assert!(matches!(m.validate(), Err(RbmError::EmptyModel)));
        let (m2, _, _) = two_species_model();
        assert!(matches!(m2.validate(), Err(RbmError::EmptyModel)));
    }

    #[test]
    fn validate_accepts_well_formed_model() {
        let (mut m, a, b) = two_species_model();
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1.0)).unwrap();
        assert!(m.validate().is_ok());
    }

    #[test]
    fn species_lookup_by_name() {
        let (m, _, b) = two_species_model();
        assert_eq!(m.species_by_name("B").unwrap(), b);
        assert!(m.species_by_name("Z").is_err());
    }

    #[test]
    fn rate_constants_vector_order_matches_reactions() {
        let (mut m, a, b) = two_species_model();
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 2.5)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 0.5)).unwrap();
        assert_eq!(m.rate_constants(), vec![2.5, 0.5]);
    }

    #[test]
    fn set_initial_concentration_roundtrips() {
        let (mut m, a, _) = two_species_model();
        m.set_initial_concentration(a, 9.0);
        assert_eq!(m.initial_state()[0], 9.0);
    }
}
