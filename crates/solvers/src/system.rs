//! The ODE-system abstraction all solvers consume, and the object-safe
//! solver interface the simulation engines dispatch over.

use crate::{Solution, SolveFailure, SolverError, SolverOptions, SolverScratch};
use paraspace_linalg::{finite_difference_jacobian_into, Matrix};

/// A first-order ODE system `dy/dt = f(t, y)` of fixed dimension.
///
/// Implementors must provide the right-hand side; the Jacobian defaults to
/// forward finite differences but should be overridden when an analytic form
/// exists (mass-action networks always have one).
///
/// # Example
///
/// ```
/// use paraspace_solvers::OdeSystem;
///
/// struct Decay;
/// impl OdeSystem for Decay {
///     fn dim(&self) -> usize { 1 }
///     fn rhs(&self, _t: f64, y: &[f64], dydt: &mut [f64]) { dydt[0] = -y[0]; }
/// }
/// let mut d = [0.0];
/// Decay.rhs(0.0, &[3.0], &mut d);
/// assert_eq!(d[0], -3.0);
/// ```
pub trait OdeSystem {
    /// The system dimension `n`.
    fn dim(&self) -> usize;

    /// Writes `f(t, y)` into `dydt` (length `n`).
    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]);

    /// Writes the Jacobian `∂f/∂y` into `jac` (`n × n`).
    ///
    /// The default uses forward finite differences (n extra RHS
    /// evaluations).
    fn jacobian(&self, t: f64, y: &[f64], jac: &mut Matrix) {
        finite_difference_jacobian_into(|tt, yy, dd| self.rhs(tt, yy, dd), t, y, jac);
    }

    /// Whether [`jacobian`](OdeSystem::jacobian) is analytic (used by cost
    /// accounting; finite differences charge `n` RHS evaluations).
    fn has_analytic_jacobian(&self) -> bool {
        false
    }
}

/// Blanket impl so `&S` works wherever `S: OdeSystem` does.
impl<S: OdeSystem + ?Sized> OdeSystem for &S {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        (**self).rhs(t, y, dydt)
    }
    fn jacobian(&self, t: f64, y: &[f64], jac: &mut Matrix) {
        (**self).jacobian(t, y, jac)
    }
    fn has_analytic_jacobian(&self) -> bool {
        (**self).has_analytic_jacobian()
    }
}

/// Adapts a closure into an [`OdeSystem`].
///
/// # Example
///
/// ```
/// use paraspace_solvers::{FnSystem, OdeSystem};
///
/// let harmonic = FnSystem::new(2, |_t, y, d| { d[0] = y[1]; d[1] = -y[0]; });
/// assert_eq!(harmonic.dim(), 2);
/// ```
pub struct FnSystem<F> {
    dim: usize,
    f: F,
}

impl<F: Fn(f64, &[f64], &mut [f64])> FnSystem<F> {
    /// Wraps `f(t, y, dydt)` as a system of dimension `dim`.
    pub fn new(dim: usize, f: F) -> Self {
        FnSystem { dim, f }
    }
}

impl<F: Fn(f64, &[f64], &mut [f64])> OdeSystem for FnSystem<F> {
    fn dim(&self) -> usize {
        self.dim
    }
    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        (self.f)(t, y, dydt)
    }
}

impl<F> std::fmt::Debug for FnSystem<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnSystem").field("dim", &self.dim).finish()
    }
}

/// The object-safe interface every solver in this crate implements: sample
/// the solution of `system` from `(t0, y0)` at the (strictly increasing)
/// `sample_times`.
///
/// Solvers integrate with internally chosen steps and evaluate their dense
/// output at each requested time, so output resolution never constrains the
/// step-size controller.
///
/// Solvers are `Send + Sync`: they carry only configuration (method order,
/// tolerance defaults), never integration state, so one solver
/// value can be shared by every worker of a host-parallel batch. Per-run
/// state lives on the stack or in a [`SolverScratch`].
pub trait OdeSolver: Send + Sync {
    /// Solver name for reports and comparison maps (e.g. `"dopri5"`).
    fn name(&self) -> &'static str;

    /// Integrates and samples.
    ///
    /// # Errors
    ///
    /// A [`SolveFailure`] carrying the [`SolverError`] (step-count
    /// exhaustion, step-size underflow, Newton failure, singular iteration
    /// matrix, stiffness diagnosis, or non-finite state) together with the
    /// work counters accumulated before the failure.
    fn solve(
        &self,
        system: &dyn OdeSystem,
        t0: f64,
        y0: &[f64],
        sample_times: &[f64],
        options: &SolverOptions,
    ) -> Result<Solution, SolveFailure>;

    /// Like [`solve`](OdeSolver::solve), but drawing working storage from a
    /// caller-owned [`SolverScratch`] pool instead of allocating it.
    ///
    /// Results are bitwise identical to `solve`. Solvers with pooled
    /// workspaces (DOPRI5, RADAU5, the multistep family) override this; the
    /// default simply delegates to `solve`, so pooling is always safe to
    /// request.
    ///
    /// # Errors
    ///
    /// Identical to [`solve`](OdeSolver::solve).
    fn solve_pooled(
        &self,
        system: &dyn OdeSystem,
        t0: f64,
        y0: &[f64],
        sample_times: &[f64],
        options: &SolverOptions,
        scratch: &mut SolverScratch,
    ) -> Result<Solution, SolveFailure> {
        let _ = scratch;
        self.solve(system, t0, y0, sample_times, options)
    }
}

/// Validates common `solve` preconditions shared by all solvers.
pub(crate) fn check_inputs(
    dim: usize,
    y0: &[f64],
    t0: f64,
    sample_times: &[f64],
    options: &SolverOptions,
) -> Result<(), SolverError> {
    if y0.len() != dim {
        return Err(SolverError::InvalidInput {
            message: format!("initial state has length {}, system dimension is {dim}", y0.len()),
        });
    }
    if !y0.iter().all(|v| v.is_finite()) || !t0.is_finite() {
        return Err(SolverError::InvalidInput {
            message: "initial condition must be finite".into(),
        });
    }
    // `!(x > 0)` rather than `x <= 0`: NaN fails every comparison, so only
    // the negated form refuses it.
    let positive = |x: f64| x > 0.0;
    let positive_finite = |x: f64| positive(x) && x.is_finite();
    if !(positive_finite(options.rel_tol) && positive_finite(options.abs_tol)) {
        return Err(SolverError::InvalidInput {
            message: "tolerances must be positive and finite".into(),
        });
    }
    if !positive(options.max_step) || !options.initial_step.is_none_or(positive_finite) {
        return Err(SolverError::InvalidInput {
            message: "max_step must be positive and initial_step positive and finite".into(),
        });
    }
    let mut prev = t0;
    for &t in sample_times {
        if !(t >= prev && t.is_finite()) {
            return Err(SolverError::InvalidInput {
                message: format!(
                    "sample times must be finite, non-decreasing and ≥ t0 (saw {t} after {prev})"
                ),
            });
        }
        prev = t;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_jacobian_is_finite_difference() {
        let sys = FnSystem::new(2, |_t, y, d| {
            d[0] = y[0] * y[1];
            d[1] = -y[1];
        });
        let mut jac = Matrix::zeros(2, 2);
        sys.jacobian(0.0, &[2.0, 3.0], &mut jac);
        assert!((jac[(0, 0)] - 3.0).abs() < 1e-5);
        assert!((jac[(0, 1)] - 2.0).abs() < 1e-5);
        assert!((jac[(1, 1)] + 1.0).abs() < 1e-5);
        assert!(!sys.has_analytic_jacobian());
    }

    #[test]
    fn reference_blanket_impl_works() {
        fn dim_of<S: OdeSystem>(s: S) -> usize {
            s.dim()
        }
        let sys = FnSystem::new(3, |_t, _y, d| d.fill(0.0));
        assert_eq!(dim_of(&sys), 3);
        let by_ref: &FnSystem<_> = &sys;
        assert_eq!(dim_of(by_ref), 3, "the &S blanket impl must apply");
    }

    #[test]
    fn input_validation_catches_misuse() {
        let opts = SolverOptions::default();
        assert!(check_inputs(2, &[1.0], 0.0, &[1.0], &opts).is_err());
        assert!(check_inputs(1, &[f64::NAN], 0.0, &[1.0], &opts).is_err());
        assert!(check_inputs(1, &[1.0], 0.0, &[2.0, 1.0], &opts).is_err());
        assert!(check_inputs(1, &[1.0], 5.0, &[4.0], &opts).is_err());
        assert!(check_inputs(1, &[1.0], 0.0, &[0.5, 1.5], &opts).is_ok());
        let bad = SolverOptions { rel_tol: -1.0, ..SolverOptions::default() };
        assert!(check_inputs(1, &[1.0], 0.0, &[1.0], &bad).is_err());
        // NaN and ∞ fail the comparisons above without being smaller.
        for t in [f64::NAN, f64::INFINITY] {
            assert!(check_inputs(1, &[1.0], 0.0, &[1.0, t], &opts).is_err(), "sample {t}");
            assert!(check_inputs(1, &[1.0], 0.0, &[t, 1.0], &opts).is_err(), "sample {t}");
        }
        let invalid = [
            SolverOptions { rel_tol: f64::NAN, ..opts.clone() },
            SolverOptions { rel_tol: f64::INFINITY, ..opts.clone() },
            SolverOptions { abs_tol: f64::NAN, ..opts.clone() },
            SolverOptions { abs_tol: f64::INFINITY, ..opts.clone() },
            SolverOptions { max_step: f64::NAN, ..opts.clone() },
            SolverOptions { initial_step: Some(f64::NAN), ..opts.clone() },
            SolverOptions { initial_step: Some(f64::INFINITY), ..opts.clone() },
        ];
        for bad in invalid {
            let error = check_inputs(1, &[1.0], 0.0, &[1.0], &bad).unwrap_err();
            assert!(matches!(error, SolverError::InvalidInput { .. }), "{bad:?}: {error}");
        }
        // The default `max_step` is +∞, and a fixed first step is allowed.
        assert_eq!(opts.max_step, f64::INFINITY);
        let fixed = SolverOptions { initial_step: Some(1e-3), ..opts.clone() };
        assert!(check_inputs(1, &[1.0], 0.0, &[1.0], &fixed).is_ok());
    }
}
