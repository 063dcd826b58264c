//! Batch parameterizations and the published perturbation rule.
//!
//! Parameter-space analyses run the *same* network under many distinct
//! parameterizations (initial concentrations and/or kinetic constants). A
//! [`Parameterization`] carries optional overrides for either vector; the
//! batch helpers implement the log-space ±25% perturbation used to generate
//! the synthetic benchmark batches:
//!
//! ```text
//! k' = exp( ln(0.75·k) + (ln(1.25·k) − ln(0.75·k)) · u ),  u ~ U[0,1)
//! ```

use crate::{RbmError, ReactionBasedModel};
use rand::Rng;

/// One simulation's parameter overrides.
///
/// `None` fields inherit the model's baked values. This is the unit of work
/// the coarse-grained engines distribute: one virtual thread per
/// parameterization.
///
/// # Example
///
/// ```
/// use paraspace_rbm::Parameterization;
///
/// let p = Parameterization::default()
///     .with_initial_state(vec![1.0, 0.0])
///     .with_rate_constants(vec![0.5]);
/// assert_eq!(p.initial_state.as_deref(), Some(&[1.0, 0.0][..]));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Parameterization {
    /// Replacement initial concentrations (length `N`), if any.
    pub initial_state: Option<Vec<f64>>,
    /// Replacement kinetic constants (length `M`), if any.
    pub rate_constants: Option<Vec<f64>>,
}

impl Parameterization {
    /// A parameterization inheriting everything from the model.
    pub fn new() -> Self {
        Parameterization::default()
    }

    /// Sets the initial-state override (builder style).
    pub fn with_initial_state(mut self, x0: Vec<f64>) -> Self {
        self.initial_state = Some(x0);
        self
    }

    /// Sets the rate-constant override (builder style).
    pub fn with_rate_constants(mut self, k: Vec<f64>) -> Self {
        self.rate_constants = Some(k);
        self
    }

    /// Resolves this parameterization against `model`, returning the
    /// concrete `(x0, k)` vectors a solver consumes.
    ///
    /// # Errors
    ///
    /// [`RbmError::ParameterizationMismatch`] when an override has the wrong
    /// length.
    pub fn resolve(&self, model: &ReactionBasedModel) -> Result<(Vec<f64>, Vec<f64>), RbmError> {
        self.clone().into_resolved(model)
    }

    /// [`resolve`](Parameterization::resolve) by value: the overrides move
    /// into the result instead of being copied.
    ///
    /// # Errors
    ///
    /// As [`resolve`](Parameterization::resolve).
    pub fn into_resolved(
        self,
        model: &ReactionBasedModel,
    ) -> Result<(Vec<f64>, Vec<f64>), RbmError> {
        // The initial state is checked first.
        let sized =
            [(&self.initial_state, model.n_species()), (&self.rate_constants, model.n_reactions())];
        for (v, expected) in sized {
            if let Some(v) = v.as_ref().filter(|v| v.len() != expected) {
                return Err(RbmError::ParameterizationMismatch { expected, actual: v.len() });
            }
        }
        Ok((
            self.initial_state.unwrap_or_else(|| model.initial_state()),
            self.rate_constants.unwrap_or_else(|| model.rate_constants()),
        ))
    }
}

/// Applies the log-space ±25% perturbation to each constant in `k`,
/// sampling `u ~ U[0,1)` from `rng`:
///
/// `k' = exp(ln(0.75 k) + (ln(1.25 k) − ln(0.75 k)) · u)`.
///
/// Constants that are zero remain zero (the perturbation is multiplicative).
///
/// # Example
///
/// ```
/// use paraspace_rbm::perturb_constants;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let k = perturb_constants(&[2.0], &mut rng);
/// assert!(k[0] >= 1.5 && k[0] < 2.5);
/// ```
pub fn perturb_constants<R: Rng + ?Sized>(k: &[f64], rng: &mut R) -> Vec<f64> {
    k.iter()
        .map(|&ki| {
            if ki == 0.0 {
                return 0.0;
            }
            let lo = (0.75 * ki).ln();
            let hi = (1.25 * ki).ln();
            let u: f64 = rng.gen();
            (lo + (hi - lo) * u).exp()
        })
        .collect()
}

/// Generates a batch of `n` parameterizations of `model`, each with
/// independently perturbed kinetic constants (the synthetic-benchmark batch
/// construction).
///
/// # Example
///
/// ```
/// use paraspace_rbm::{perturbed_batch, Reaction, ReactionBasedModel};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), paraspace_rbm::RbmError> {
/// let mut m = ReactionBasedModel::new();
/// let a = m.add_species("A", 1.0);
/// m.add_reaction(Reaction::mass_action(&[(a, 1)], &[], 1.0))?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let batch = perturbed_batch(&m, 16, &mut rng);
/// assert_eq!(batch.len(), 16);
/// # Ok(())
/// # }
/// ```
pub fn perturbed_batch<R: Rng + ?Sized>(
    model: &ReactionBasedModel,
    n: usize,
    rng: &mut R,
) -> Vec<Parameterization> {
    let base = model.rate_constants();
    (0..n)
        .map(|_| Parameterization::new().with_rate_constants(perturb_constants(&base, rng)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reaction;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_model() -> ReactionBasedModel {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let b = m.add_species("B", 2.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 3.0)).unwrap();
        m
    }

    #[test]
    fn resolve_inherits_model_defaults() {
        let m = toy_model();
        let (x0, k) = Parameterization::new().resolve(&m).unwrap();
        assert_eq!(x0, vec![1.0, 2.0]);
        assert_eq!(k, vec![3.0]);
    }

    #[test]
    fn resolve_applies_overrides() {
        let m = toy_model();
        let p = Parameterization::new()
            .with_initial_state(vec![9.0, 8.0])
            .with_rate_constants(vec![0.1]);
        let (x0, k) = p.resolve(&m).unwrap();
        assert_eq!(x0, vec![9.0, 8.0]);
        assert_eq!(k, vec![0.1]);
    }

    #[test]
    fn resolve_rejects_wrong_lengths() {
        let m = toy_model();
        let p = Parameterization::new().with_initial_state(vec![1.0]);
        assert!(matches!(
            p.resolve(&m),
            Err(RbmError::ParameterizationMismatch { expected: 2, actual: 1 })
        ));
        let p = Parameterization::new().with_rate_constants(vec![1.0, 2.0]);
        assert!(matches!(
            p.resolve(&m),
            Err(RbmError::ParameterizationMismatch { expected: 1, actual: 2 })
        ));
    }

    #[test]
    fn perturbation_stays_in_band() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let k = perturb_constants(&[10.0, 1e-6, 5e3], &mut rng);
            assert!(k[0] >= 7.5 && k[0] < 12.5);
            assert!(k[1] >= 0.75e-6 && k[1] < 1.25e-6);
            assert!(k[2] >= 3750.0 && k[2] < 6250.0);
        }
    }

    #[test]
    fn perturbation_preserves_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(perturb_constants(&[0.0], &mut rng), vec![0.0]);
    }

    #[test]
    fn perturbation_varies_between_draws() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = perturb_constants(&[1.0], &mut rng);
        let b = perturb_constants(&[1.0], &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn batch_members_are_independent() {
        let m = toy_model();
        let mut rng = StdRng::seed_from_u64(3);
        let batch = perturbed_batch(&m, 8, &mut rng);
        assert_eq!(batch.len(), 8);
        let distinct: std::collections::HashSet<String> =
            batch.iter().map(|p| format!("{:?}", p.rate_constants)).collect();
        assert!(distinct.len() > 1, "perturbed batch must differ across members");
        for p in &batch {
            assert!(p.initial_state.is_none());
            assert!(p.resolve(&m).is_ok());
        }
    }

    #[test]
    fn batch_is_reproducible_under_same_seed() {
        let m = toy_model();
        let b1 = perturbed_batch(&m, 4, &mut StdRng::seed_from_u64(99));
        let b2 = perturbed_batch(&m, 4, &mut StdRng::seed_from_u64(99));
        assert_eq!(b1, b2);
    }
}
