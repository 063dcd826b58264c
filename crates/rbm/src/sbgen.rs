//! SBGen-style synthetic model generation.
//!
//! The benchmark model families (symmetric `N = M` and asymmetric `N > M`,
//! `M > N`) are produced by a generator that follows the published recipe:
//!
//! * initial concentrations sampled log-uniformly in `[10⁻⁴, 1)`,
//! * kinetic constants sampled log-uniformly in `[10⁻⁶, 10]`,
//! * only zero-, first-, and second-order reactions (at most two reactant
//!   molecules, of the same or different species),
//! * at most two product molecules per reaction,
//!
//! so the stoichiometric matrices are sparse and the dynamics resemble real
//! biochemical networks (concentrations and constants spanning several
//! orders of magnitude). A coverage pass guarantees every species
//! participates in at least one reaction, avoiding degenerate isolated
//! species that would trivialize the ODE system.

use crate::{Reaction, ReactionBasedModel, SpeciesId};
use rand::Rng;

/// The published initial-concentration sampling range.
const CONCENTRATION_RANGE: (f64, f64) = (1e-4, 1.0);
/// The published kinetic-constant sampling range.
const RATE_RANGE: (f64, f64) = (1e-6, 10.0);
/// Fraction of zero-order (source) reactions.
const ZERO_ORDER_FRACTION: f64 = 0.05;
/// Fraction of second-order (bimolecular) reactions; the rest are first
/// order.
const SECOND_ORDER_FRACTION: f64 = 0.35;

/// Samples from the log-uniform distribution on `[lo, hi)`: uniform in
/// `ln x`, capturing the multi-order-of-magnitude dispersion of biochemical
/// quantities.
///
/// # Panics
///
/// Panics unless `0 < lo < hi`.
fn log_uniform<R: Rng + ?Sized>(lo: f64, hi: f64, rng: &mut R) -> f64 {
    assert!(lo > 0.0 && hi > lo, "log-uniform bounds must satisfy 0 < lo < hi");
    let u: f64 = rng.gen();
    (lo.ln() + (hi.ln() - lo.ln()) * u).exp()
}

/// Configuration for the synthetic generator.
///
/// # Example
///
/// ```
/// use paraspace_rbm::sbgen::SbGen;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let model = SbGen::new(32, 32).generate(&mut rng);
/// assert_eq!(model.n_species(), 32);
/// assert_eq!(model.n_reactions(), 32);
/// assert!(model.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SbGen {
    n_species: usize,
    n_reactions: usize,
}

impl SbGen {
    /// A generator for `n_species × n_reactions` models with the published
    /// sampling ranges.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(n_species: usize, n_reactions: usize) -> Self {
        assert!(n_species > 0 && n_reactions > 0, "model dimensions must be positive");
        SbGen { n_species, n_reactions }
    }

    /// Generates a model.
    ///
    /// Reactions are built by sampling a reaction order (zero / first /
    /// second: 5 %, 60 % and 35 % of draws), drawing reactant species, and
    /// drawing one or two product species distinct from pure pass-through
    /// (a reaction never has identical reactant and product multisets, so no
    /// generated reaction is a dynamical no-op). A final coverage pass
    /// rewires products so every species is touched by at least one
    /// reaction.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> ReactionBasedModel {
        let mut model = ReactionBasedModel::with_capacity(self.n_species, self.n_reactions);
        let (conc_lo, conc_hi) = CONCENTRATION_RANGE;
        let (k_lo, k_hi) = RATE_RANGE;
        let ids: Vec<SpeciesId> = (0..self.n_species)
            .map(|j| model.add_species(format!("S{j}"), log_uniform(conc_lo, conc_hi, rng)))
            .collect();

        let mut touched = vec![false; self.n_species];
        for _ in 0..self.n_reactions {
            let (reactants, products) = self.sample_reaction_sides(&ids, rng);
            for &(s, _) in &reactants {
                touched[s.index()] = true;
            }
            for &(s, _) in &products {
                touched[s.index()] = true;
            }
            let k = log_uniform(k_lo, k_hi, rng);
            let reaction = Reaction::mass_action(&reactants, &products, k);
            model
                .add_reaction(reaction)
                .expect("generated reactions reference only generated species");
        }

        // Coverage pass: attach untouched species as products, keeping the
        // ≤2-product-molecule rule. A product entry may only be evicted when
        // its species is touched elsewhere (tracked by per-species touch
        // counts), so fixing one hole never opens another.
        let mut touch_count = vec![0usize; self.n_species];
        for r in model.reactions() {
            for &(s, _) in r.reactants() {
                touch_count[s] += 1;
            }
            for &(s, _) in r.products() {
                touch_count[s] += 1;
            }
        }
        let untouched: Vec<usize> = (0..self.n_species).filter(|&s| touch_count[s] == 0).collect();
        let mut next_reaction = rng.gen_range(0..self.n_reactions);
        'species: for s in untouched {
            for _ in 0..self.n_reactions {
                let r = next_reaction;
                next_reaction = (next_reaction + 1) % self.n_reactions;
                let existing = model.reactions()[r].clone();
                let mut products: Vec<(SpeciesId, u32)> = existing
                    .products()
                    .iter()
                    .map(|&(sp, c)| (SpeciesId::from_index(sp), c))
                    .collect();
                let mut reactants: Vec<(SpeciesId, u32)> = existing
                    .reactants()
                    .iter()
                    .map(|&(sp, c)| (SpeciesId::from_index(sp), c))
                    .collect();
                let total: u32 = products.iter().map(|&(_, c)| c).sum();
                let mut hosted = false;
                if total < 2 {
                    products.push((ids[s], 1));
                    hosted = true;
                } else {
                    // Evict one product molecule whose species stays covered.
                    let evict = products.iter().position(|&(sp, c)| {
                        touch_count[sp.index()] > 1 || (c > 1 && touch_count[sp.index()] > 0)
                    });
                    if let Some(idx) = evict {
                        let (sp, c) = products[idx];
                        if c > 1 {
                            products[idx] = (sp, c - 1);
                        } else {
                            products.remove(idx);
                            touch_count[sp.index()] -= 1;
                        }
                        products.push((ids[s], 1));
                        hosted = true;
                    } else if existing.order() < 2 {
                        // Products are saturated with sole-touch species; host
                        // on the reactant side instead (order stays ≤ 2).
                        reactants.push((ids[s], 1));
                        hosted = true;
                    }
                }
                if !hosted {
                    continue; // this reaction cannot host the species
                }
                touch_count[s] += 1;
                *model.reaction_mut(r) =
                    Reaction::mass_action(&reactants, &products, existing.rate_constant());
                continue 'species;
            }
            // No reaction can host this species without uncovering another:
            // the model is at touch capacity. Extremely species-heavy
            // configurations accept the residual isolated species.
        }
        model
    }

    fn sample_reaction_sides<R: Rng + ?Sized>(
        &self,
        ids: &[SpeciesId],
        rng: &mut R,
    ) -> (ReactionSide, ReactionSide) {
        let u: f64 = rng.gen();
        let order = if u < ZERO_ORDER_FRACTION {
            0
        } else if u < ZERO_ORDER_FRACTION + SECOND_ORDER_FRACTION {
            2
        } else {
            1
        };
        let reactants: Vec<(SpeciesId, u32)> = match order {
            0 => Vec::new(),
            1 => vec![(ids[rng.gen_range(0..ids.len())], 1)],
            _ => {
                let a = ids[rng.gen_range(0..ids.len())];
                let b = ids[rng.gen_range(0..ids.len())];
                if a == b {
                    vec![(a, 2)]
                } else {
                    vec![(a, 1), (b, 1)]
                }
            }
        };
        // 1 or 2 product molecules; resample while the reaction would be a
        // no-op (identical multisets on both sides).
        loop {
            let n_products = rng.gen_range(1..=2usize);
            let mut products: Vec<(SpeciesId, u32)> = Vec::with_capacity(2);
            for _ in 0..n_products {
                let p = ids[rng.gen_range(0..ids.len())];
                match products.iter_mut().find(|(s, _)| *s == p) {
                    Some((_, c)) => *c += 1,
                    None => products.push((p, 1)),
                }
            }
            let same = {
                let mut lhs: Vec<(usize, u32)> =
                    reactants.iter().map(|&(s, c)| (s.index(), c)).collect();
                let mut rhs: Vec<(usize, u32)> =
                    products.iter().map(|&(s, c)| (s.index(), c)).collect();
                lhs.sort_unstable();
                rhs.sort_unstable();
                lhs == rhs
            };
            if !same {
                return (reactants, products);
            }
        }
    }
}

/// One side of a reaction: `(species, stoichiometric coefficient)` pairs.
type ReactionSide = Vec<(SpeciesId, u32)>;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_model_has_requested_dimensions() {
        let mut rng = StdRng::seed_from_u64(1);
        for &(n, m) in &[(4usize, 9usize), (16, 4), (50, 50)] {
            let model = SbGen::new(n, m).generate(&mut rng);
            assert_eq!(model.n_species(), n);
            assert_eq!(model.n_reactions(), m);
            assert!(model.validate().is_ok());
        }
    }

    #[test]
    fn reaction_orders_bounded_by_two() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = SbGen::new(30, 200).generate(&mut rng);
        for r in model.reactions() {
            assert!(r.order() <= 2, "order {} exceeds 2", r.order());
            let products: u32 = r.products().iter().map(|&(_, c)| c).sum();
            assert!(products <= 2, "products {products} exceed 2");
        }
    }

    #[test]
    fn sampling_ranges_respected() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = SbGen::new(100, 100).generate(&mut rng);
        for s in model.species() {
            assert!(s.initial_concentration >= 1e-4 && s.initial_concentration < 1.0);
        }
        for r in model.reactions() {
            assert!(r.rate_constant() >= 1e-6 && r.rate_constant() <= 10.0);
        }
    }

    #[test]
    fn every_species_participates() {
        let mut rng = StdRng::seed_from_u64(4);
        // More species than reactions forces the coverage pass to work.
        let model = SbGen::new(64, 20).generate(&mut rng);
        let mut touched = vec![false; model.n_species()];
        for r in model.reactions() {
            for &(s, _) in r.reactants() {
                touched[s] = true;
            }
            for &(s, _) in r.products() {
                touched[s] = true;
            }
        }
        assert!(touched.iter().all(|&t| t), "coverage pass must touch all species");
    }

    #[test]
    fn no_reaction_is_a_pass_through_noop() {
        let mut rng = StdRng::seed_from_u64(5);
        let model = SbGen::new(10, 300).generate(&mut rng);
        // A no-op pass-through reaction (e.g. A -> A) contributes nothing to
        // every species derivative; the generator resamples those away. The
        // coverage pass may append products, so check via net effect.
        let net = model.net_stoichiometry();
        for i in 0..model.n_reactions() {
            let column_zero = (0..model.n_species()).all(|s| net[(s, i)] == 0.0);
            assert!(!column_zero, "reaction {i} is a dynamical no-op");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = SbGen::new(12, 12).generate(&mut StdRng::seed_from_u64(7));
        let b = SbGen::new(12, 12).generate(&mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn log_uniform_spans_orders_of_magnitude() {
        let mut rng = StdRng::seed_from_u64(8);
        let samples: Vec<f64> = (0..2000).map(|_| log_uniform(1e-6, 10.0, &mut rng)).collect();
        let below_milli = samples.iter().filter(|&&x| x < 1e-3).count();
        let above_one = samples.iter().filter(|&&x| x > 1.0).count();
        // Log-uniform: each decade gets ~ 1/7 of the mass; both tails must
        // be well represented (a plain uniform would put ~0 below 1e-3).
        assert!(below_milli > 500, "lower decades under-sampled: {below_milli}");
        assert!(above_one > 100, "upper decade under-sampled: {above_one}");
    }

    #[test]
    #[should_panic(expected = "log-uniform bounds")]
    fn log_uniform_rejects_bad_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = log_uniform(1.0, 0.5, &mut rng);
    }

    #[test]
    fn generated_rhs_is_finite_at_t0() {
        let mut rng = StdRng::seed_from_u64(9);
        let model = SbGen::new(40, 60).generate(&mut rng);
        let odes = model.compile().unwrap();
        let x0 = model.initial_state();
        let mut d = vec![0.0; model.n_species()];
        odes.rhs(0.0, &x0, &mut d);
        assert!(d.iter().all(|v| v.is_finite()));
        assert!(d.iter().any(|&v| v != 0.0), "dynamics must not be trivially frozen");
    }
}
