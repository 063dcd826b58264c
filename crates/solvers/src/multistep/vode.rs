//! The VODE-style solver: one-shot method selection.

use crate::multistep::adams::{drive, ADAMS_MAX_ORDER, BDF_MAX_ORDER};
use crate::multistep::core::NordsieckCore;
use crate::multistep::MethodFamily;
use crate::{OdeSolver, OdeSystem, Solution, SolveFailure, SolverOptions, SolverScratch};
use paraspace_linalg::{dominant_eigenvalue_estimate, Matrix};

/// Classify as stiff when `|λ|·(t_end − t0)` exceeds this: the fast mode's
/// transient occupies a vanishing fraction of the integration window, so an
/// explicit-corrector method would be stability-limited nearly everywhere.
const STIFFNESS_SPAN_THRESHOLD: f64 = 250.0;

/// The VODE baseline: like [`crate::Lsoda`] built on the same Adams/BDF
/// core, but the method is chosen **once, up front**, from a heuristic on
/// the initial Jacobian — the published behavioural difference between the
/// two CPU reference solvers.
///
/// # Example
///
/// ```
/// use paraspace_solvers::{FnSystem, OdeSolver, SolverOptions, Vode};
///
/// # fn main() -> Result<(), paraspace_solvers::SolveFailure> {
/// let sys = FnSystem::new(1, |_t, y, d| d[0] = -y[0]);
/// let sol = Vode::new().solve(&sys, 0.0, &[1.0], &[1.0], &SolverOptions::default())?;
/// assert!((sol.state_at(0)[0] - (-1.0f64).exp()).abs() < 1e-5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Vode {
    _private: (),
}

impl Vode {
    /// Creates the solver.
    pub fn new() -> Self {
        Vode { _private: () }
    }

    /// The up-front classification VODE applies before integrating: `true`
    /// means the BDF family will be used for the whole run.
    fn classify_stiff(system: &dyn OdeSystem, t0: f64, y0: &[f64], t_end: f64) -> bool {
        let mut jac = Matrix::zeros(system.dim(), system.dim());
        system.jacobian(t0, y0, &mut jac);
        let lambda = dominant_eigenvalue_estimate(&jac);
        lambda * (t_end - t0).abs() > STIFFNESS_SPAN_THRESHOLD
    }

    /// Classifies, then drives a core (fresh or pooled) and charges the
    /// classification Jacobian to the stats.
    fn run(
        core: &mut NordsieckCore,
        system: &dyn OdeSystem,
        t0: f64,
        y0: &[f64],
        sample_times: &[f64],
        options: &SolverOptions,
    ) -> Result<Solution, SolveFailure> {
        let mut sol = drive(core, system, t0, y0, sample_times, options, |_, _, _| {})?;
        // The classification itself costs one Jacobian.
        sol.stats.jacobian_evals += 1;
        if !system.has_analytic_jacobian() {
            sol.stats.rhs_evals += system.dim() + 1;
        }
        Ok(sol)
    }

    fn family_for(
        system: &dyn OdeSystem,
        t0: f64,
        y0: &[f64],
        sample_times: &[f64],
    ) -> (MethodFamily, usize) {
        let t_end = sample_times.last().copied().unwrap_or(t0);
        if Vode::classify_stiff(system, t0, y0, t_end) {
            (MethodFamily::Bdf, BDF_MAX_ORDER)
        } else {
            (MethodFamily::Adams, ADAMS_MAX_ORDER)
        }
    }
}

impl OdeSolver for Vode {
    fn name(&self) -> &'static str {
        "vode"
    }

    fn solve(
        &self,
        system: &dyn OdeSystem,
        t0: f64,
        y0: &[f64],
        sample_times: &[f64],
        options: &SolverOptions,
    ) -> Result<Solution, SolveFailure> {
        let (family, max_order) = Vode::family_for(system, t0, y0, sample_times);
        let mut core = NordsieckCore::new(family, system.dim(), max_order);
        Vode::run(&mut core, system, t0, y0, sample_times, options)
    }

    fn solve_pooled(
        &self,
        system: &dyn OdeSystem,
        t0: f64,
        y0: &[f64],
        sample_times: &[f64],
        options: &SolverOptions,
        scratch: &mut SolverScratch,
    ) -> Result<Solution, SolveFailure> {
        let (family, max_order) = Vode::family_for(system, t0, y0, sample_times);
        let core = scratch.nordsieck(family, system.dim(), max_order);
        Vode::run(core, system, t0, y0, sample_times, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnSystem;

    #[test]
    fn classifies_stiff_and_nonstiff_correctly() {
        let stiff = FnSystem::new(1, |_t, y, d| d[0] = -1e5 * y[0]);
        let gentle = FnSystem::new(1, |_t, y, d| d[0] = -0.5 * y[0]);
        assert!(Vode::classify_stiff(&stiff, 0.0, &[1.0], 10.0));
        assert!(!Vode::classify_stiff(&gentle, 0.0, &[1.0], 10.0));
    }

    #[test]
    fn short_window_makes_stiff_system_effectively_nonstiff() {
        // Over a window comparable to the transient, explicit is fine.
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -1e5 * y[0]);
        assert!(!Vode::classify_stiff(&sys, 0.0, &[1.0], 1e-4));
    }

    #[test]
    fn stiff_run_uses_bdf_machinery() {
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -1e5 * (y[0] - 1.0));
        let sol = Vode::new().solve(&sys, 0.0, &[0.0], &[1.0], &SolverOptions::default()).unwrap();
        assert!((sol.state_at(0)[0] - 1.0).abs() < 1e-5);
        assert!(sol.stats.lu_decompositions > 0);
    }

    #[test]
    fn nonstiff_run_avoids_linear_algebra() {
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -y[0]);
        let sol = Vode::new().solve(&sys, 0.0, &[1.0], &[1.0], &SolverOptions::default()).unwrap();
        assert_eq!(sol.stats.lu_decompositions, 0);
        assert!((sol.state_at(0)[0] - (-1.0f64).exp()).abs() < 1e-5);
    }

    #[test]
    fn misclassification_risk_documented_by_behaviour() {
        // A system that *becomes* stiff later: VODE's one-shot choice sticks
        // with Adams and pays for it (more steps than LSODA), which is the
        // published qualitative difference.
        let sys = FnSystem::new(1, |t, y, d| {
            let k = if t < 1.0 { 1.0 } else { 1e4 };
            d[0] = -k * (y[0] - 0.5);
        });
        let o = SolverOptions { max_steps: 500_000, ..SolverOptions::default() };
        let vode = Vode::new().solve(&sys, 0.0, &[1.0], &[3.0], &o);
        let lsoda = crate::Lsoda::new().solve(&sys, 0.0, &[1.0], &[3.0], &o);
        if let (Ok(v), Ok(l)) = (vode, lsoda) {
            assert!(
                v.stats.steps >= l.stats.steps,
                "vode {} vs lsoda {}",
                v.stats.steps,
                l.stats.steps
            );
        }
        // An Err from VODE (budget blown) also demonstrates the point.
    }
}
