//! Models with arbitrary (expression-defined) rate laws.
//!
//! Where [`crate::ReactionBasedModel`] derives fluxes from stoichiometry
//! under a fixed kinetic law, a [`CustomModel`] attaches a free-form
//! [`RateExpr`] flux to each reaction — the "general-purpose version"
//! sketched as future work in the original paper, including the part it
//! flags as hard: **exact Jacobians**, obtained here by symbolic
//! differentiation at compile time.

use crate::expr::RateExpr;
use crate::RbmError;
use paraspace_linalg::Matrix;

/// One reaction of a custom-kinetics model: a flux expression plus the net
/// stoichiometric effect it has on each species.
#[derive(Debug, Clone, PartialEq)]
pub struct CustomReaction {
    /// The flux expression (over `X{i}` species and named parameters).
    pub flux: RateExpr,
    /// Net stoichiometry: `(species index, coefficient)`; the species'
    /// derivative gains `coefficient × flux`.
    pub net: Vec<(usize, f64)>,
}

/// A model whose reaction fluxes are arbitrary expressions.
///
/// # Example
///
/// ```
/// use paraspace_rbm::custom::CustomModel;
///
/// # fn main() -> Result<(), paraspace_rbm::RbmError> {
/// // The Brusselator written as free-form rate laws.
/// let mut m = CustomModel::new(&["a", "b"], &[1.0, 3.0]);
/// let x = m.add_species("X", 1.2);
/// let y = m.add_species("Y", 3.1);
/// m.add_reaction("a", &[(x, 1.0)])?;                   // ∅ → X
/// m.add_reaction("b * X0", &[(x, -1.0), (y, 1.0)])?;   // X → Y
/// m.add_reaction("X0^2 * X1", &[(x, 1.0), (y, -1.0)])?;// 2X + Y → 3X
/// m.add_reaction("X0", &[(x, -1.0)])?;                 // X → ∅
/// let odes = m.compile()?;
/// let mut d = [0.0; 2];
/// odes.rhs(&[1.0, 1.0], &mut d);
/// // dX/dt = a − bX + X²Y − X = 1 − 3 + 1 − 1 = −2.
/// assert!((d[0] + 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CustomModel {
    species: Vec<(String, f64)>,
    param_names: Vec<String>,
    param_values: Vec<f64>,
    reactions: Vec<CustomReaction>,
}

impl CustomModel {
    /// Creates an empty model with the given parameter table.
    ///
    /// # Panics
    ///
    /// Panics if names and values differ in length.
    pub fn new(param_names: &[&str], param_values: &[f64]) -> Self {
        assert_eq!(param_names.len(), param_values.len(), "one value per parameter");
        CustomModel {
            species: Vec::new(),
            param_names: param_names.iter().map(|s| s.to_string()).collect(),
            param_values: param_values.to_vec(),
            reactions: Vec::new(),
        }
    }

    /// Adds a species, returning its index (referenced as `X{index}` in
    /// flux expressions).
    pub fn add_species(&mut self, name: impl Into<String>, initial: f64) -> usize {
        self.species.push((name.into(), initial));
        self.species.len() - 1
    }

    /// Adds a reaction with flux `expression` and the given net
    /// stoichiometry.
    ///
    /// # Errors
    ///
    /// [`RbmError::Parse`] on a bad expression; [`RbmError::UnknownSpecies`]
    /// for out-of-range references.
    pub fn add_reaction(
        &mut self,
        expression: &str,
        net: &[(usize, f64)],
    ) -> Result<usize, RbmError> {
        let names: Vec<&str> = self.param_names.iter().map(String::as_str).collect();
        let flux = RateExpr::parse(expression, &names)?;
        flux.validate_indices(self.species.len(), self.param_values.len())?;
        for &(s, _) in net {
            if s >= self.species.len() {
                return Err(RbmError::UnknownSpecies { index: s, n_species: self.species.len() });
            }
        }
        self.reactions.push(CustomReaction { flux, net: net.to_vec() });
        Ok(self.reactions.len() - 1)
    }

    /// Number of species.
    pub fn n_species(&self) -> usize {
        self.species.len()
    }

    /// Number of reactions.
    pub fn n_reactions(&self) -> usize {
        self.reactions.len()
    }

    /// The initial state vector.
    pub fn initial_state(&self) -> Vec<f64> {
        self.species.iter().map(|&(_, x0)| x0).collect()
    }

    /// The parameter values (in table order).
    pub fn parameters(&self) -> &[f64] {
        &self.param_values
    }

    /// Compiles the model: symbolic flux derivatives are taken once, here,
    /// so the Jacobian at run time is pure evaluation.
    ///
    /// # Errors
    ///
    /// [`RbmError::EmptyModel`] when there is nothing to simulate.
    pub fn compile(&self) -> Result<CompiledCustomOdes, RbmError> {
        if self.species.is_empty() || self.reactions.is_empty() {
            return Err(RbmError::EmptyModel);
        }
        let n = self.species.len();
        let mut flux_derivs = Vec::with_capacity(self.reactions.len());
        for r in &self.reactions {
            // Only species that actually appear get derivative entries.
            let mut cols = Vec::new();
            for s in 0..n {
                let d = r.flux.derivative(s);
                if d != RateExpr::Const(0.0) {
                    cols.push((s, d));
                }
            }
            flux_derivs.push(cols);
        }
        Ok(CompiledCustomOdes {
            n_species: n,
            params: self.param_values.clone(),
            reactions: self.reactions.clone(),
            flux_derivs,
        })
    }
}

/// A compiled custom-kinetics ODE system: flux expressions plus their
/// pre-differentiated Jacobian entries.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledCustomOdes {
    n_species: usize,
    params: Vec<f64>,
    reactions: Vec<CustomReaction>,
    /// Per reaction: the nonzero `(species, ∂flux/∂X_species)` entries.
    flux_derivs: Vec<Vec<(usize, RateExpr)>>,
}

impl CompiledCustomOdes {
    /// The system dimension.
    pub fn n_species(&self) -> usize {
        self.n_species
    }

    /// The baked parameter values.
    pub fn parameters(&self) -> &[f64] {
        &self.params
    }

    /// Evaluates `dX/dt` at `x` into `dxdt`.
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths do not match the model.
    pub fn rhs(&self, x: &[f64], dxdt: &mut [f64]) {
        assert_eq!(x.len(), self.n_species);
        assert_eq!(dxdt.len(), self.n_species);
        dxdt.fill(0.0);
        for r in &self.reactions {
            let flux = r.flux.eval(x, &self.params);
            for &(s, c) in &r.net {
                dxdt[s] += c * flux;
            }
        }
    }

    /// Evaluates the exact Jacobian at `x` into `jac`.
    ///
    /// # Panics
    ///
    /// Panics if `jac` is not `n × n`.
    pub fn jacobian(&self, x: &[f64], jac: &mut Matrix) {
        assert_eq!(jac.rows(), self.n_species);
        assert_eq!(jac.cols(), self.n_species);
        jac.fill_zero();
        for (r, derivs) in self.reactions.iter().zip(&self.flux_derivs) {
            for (j, dflux) in derivs {
                let d = dflux.eval(x, &self.params);
                for &(s, c) in &r.net {
                    jac[(s, *j)] += c * d;
                }
            }
        }
    }

    /// Approximate flops of one RHS evaluation (device cost model input).
    pub fn rhs_flops(&self) -> u64 {
        self.reactions.iter().map(|r| r.flux.op_count() + 2 * r.net.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraspace_linalg::finite_difference_jacobian;

    fn brusselator() -> CustomModel {
        let mut m = CustomModel::new(&["a", "b"], &[1.0, 3.0]);
        let x = m.add_species("X", 1.2);
        let y = m.add_species("Y", 3.1);
        m.add_reaction("a", &[(x, 1.0)]).unwrap();
        m.add_reaction("b * X0", &[(x, -1.0), (y, 1.0)]).unwrap();
        m.add_reaction("X0^2 * X1", &[(x, 1.0), (y, -1.0)]).unwrap();
        m.add_reaction("X0", &[(x, -1.0)]).unwrap();
        m
    }

    #[test]
    fn rhs_matches_closed_form() {
        let odes = brusselator().compile().unwrap();
        let x = [0.8, 2.5];
        let mut d = [0.0; 2];
        odes.rhs(&x, &mut d);
        let expected_x = 1.0 - 3.0 * x[0] + x[0] * x[0] * x[1] - x[0];
        let expected_y = 3.0 * x[0] - x[0] * x[0] * x[1];
        assert!((d[0] - expected_x).abs() < 1e-13);
        assert!((d[1] - expected_y).abs() < 1e-13);
    }

    #[test]
    fn symbolic_jacobian_matches_finite_differences() {
        let odes = brusselator().compile().unwrap();
        let x = [0.9, 1.4];
        let mut jac = Matrix::zeros(2, 2);
        odes.jacobian(&x, &mut jac);
        let fd = finite_difference_jacobian(|_t, y, d| odes.rhs(y, d), 0.0, &x);
        for i in 0..2 {
            for j in 0..2 {
                assert!(
                    (jac[(i, j)] - fd[(i, j)]).abs() < 1e-5,
                    "J[{i}][{j}] {} vs {}",
                    jac[(i, j)],
                    fd[(i, j)]
                );
            }
        }
    }

    #[test]
    fn michaelis_menten_expression_model() {
        // S → P with flux vmax·S/(km+S): conservation and saturation.
        let mut m = CustomModel::new(&["vmax", "km"], &[2.0, 0.5]);
        let s = m.add_species("S", 4.0);
        let p = m.add_species("P", 0.0);
        m.add_reaction("vmax * X0 / (km + X0)", &[(s, -1.0), (p, 1.0)]).unwrap();
        let odes = m.compile().unwrap();
        let mut d = [0.0; 2];
        odes.rhs(&[4.0, 0.0], &mut d);
        assert!((d[0] + 2.0 * 4.0 / 4.5).abs() < 1e-12);
        assert_eq!(d[0], -d[1], "mass conserved between S and P");
    }

    #[test]
    fn bad_expressions_rejected_at_add() {
        let mut m = CustomModel::new(&[], &[]);
        let x = m.add_species("X", 1.0);
        assert!(m.add_reaction("X1 * 2", &[(x, 1.0)]).is_err(), "unknown species index");
        assert!(m.add_reaction("qq * 2", &[(x, 1.0)]).is_err(), "unknown parameter");
        assert!(m.add_reaction("X0 +", &[(x, 1.0)]).is_err(), "syntax error");
        assert!(m.add_reaction("X0", &[(5, 1.0)]).is_err(), "net stoich out of range");
    }

    #[test]
    fn empty_model_rejected_at_compile() {
        let m = CustomModel::new(&[], &[]);
        assert!(matches!(m.compile(), Err(RbmError::EmptyModel)));
    }

    #[test]
    fn derivative_sparsity_is_exploited() {
        // A flux touching only X0 must have exactly one derivative column.
        let mut m = CustomModel::new(&["k"], &[1.0]);
        let a = m.add_species("A", 1.0);
        let _b = m.add_species("B", 1.0);
        m.add_reaction("k * X0", &[(a, -1.0)]).unwrap();
        let odes = m.compile().unwrap();
        assert_eq!(odes.flux_derivs[0].len(), 1);
        assert_eq!(odes.flux_derivs[0][0].0, 0);
    }

    #[test]
    fn rhs_flops_positive() {
        assert!(brusselator().compile().unwrap().rhs_flops() > 0);
    }
}
