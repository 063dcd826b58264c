//! The Adams–Moulton solver (non-stiff multistep) and the shared
//! sample-serving driver used by every multistep wrapper.

use crate::multistep::core::NordsieckCore;
use crate::multistep::MethodFamily;
use crate::step::{samples_at_start, step_limits};
use crate::system::check_inputs;
use crate::{
    initial_step_size, OdeSolver, OdeSystem, Solution, SolveFailure, SolverError, SolverOptions,
    SolverScratch,
};

/// Default maximum order for the Adams family (ODEPACK's 12).
pub(crate) const ADAMS_MAX_ORDER: usize = 12;
/// Default maximum order for the BDF family (ODEPACK's 5).
pub(crate) const BDF_MAX_ORDER: usize = 5;

/// Drives a configured [`NordsieckCore`] across the sample times, invoking
/// `after_step` after every accepted step (the hook the LSODA switching
/// logic uses; plain solvers pass a no-op).
pub(crate) fn drive<F>(
    core: &mut NordsieckCore,
    system: &dyn OdeSystem,
    t0: f64,
    y0: &[f64],
    sample_times: &[f64],
    options: &SolverOptions,
    mut after_step: F,
) -> Result<Solution, SolveFailure>
where
    F: FnMut(&mut NordsieckCore, &dyn OdeSystem, &mut Solution),
{
    let n = system.dim();
    check_inputs(n, y0, t0, sample_times, options)?;
    let mut sol = Solution::with_capacity(sample_times.len());
    if sample_times.is_empty() {
        return Ok(sol);
    }

    let mut f0 = vec![0.0; n];
    system.rhs(t0, y0, &mut f0);
    sol.stats.rhs_evals += 1;
    let h0 =
        options.initial_step.unwrap_or_else(|| initial_step_size(&system, t0, y0, &f0, 1, options));
    sol.stats.rhs_evals += usize::from(options.initial_step.is_none());
    core.initialize(system, t0, y0, h0, options, &mut sol.stats);

    let mut next_sample = samples_at_start(&mut sol, sample_times, t0, y0);

    let mut buf = vec![0.0; n];
    let mut steps_since_sample = 0usize;
    while next_sample < sample_times.len() {
        if let Some(error) = step_limits(sol.stats.steps, steps_since_sample, core.time(), options)
        {
            return Err(SolveFailure { error, stats: sol.stats });
        }
        if let Err(error) = core.step(system, options, &mut sol.stats) {
            return Err(SolveFailure { error, stats: sol.stats });
        }
        steps_since_sample += 1;
        if !core.state().iter().all(|v| v.is_finite()) {
            return Err(SolveFailure {
                error: SolverError::NonFiniteState { t: core.time() },
                stats: sol.stats,
            });
        }
        while next_sample < sample_times.len() && sample_times[next_sample] <= core.time() {
            core.interpolate(sample_times[next_sample], &mut buf);
            sol.times.push(sample_times[next_sample]);
            sol.states.push(buf.clone());
            next_sample += 1;
            steps_since_sample = 0;
        }
        after_step(core, system, &mut sol);
    }
    Ok(sol)
}

/// Variable-order (1–12) Adams–Moulton with functional iteration.
///
/// The classical non-stiff multistep method: cheap per step (no linear
/// algebra), high attainable order, but the corrector iteration only
/// converges when `h·L ≲ 1`, so stiff problems grind it to a halt — the
/// behaviour the LSODA switch exploits as its stiffness signal.
///
/// # Example
///
/// ```
/// use paraspace_solvers::{AdamsMoulton, FnSystem, OdeSolver, SolverOptions};
///
/// # fn main() -> Result<(), paraspace_solvers::SolveFailure> {
/// let sys = FnSystem::new(1, |_t, y, d| d[0] = -y[0]);
/// let sol = AdamsMoulton::new().solve(&sys, 0.0, &[1.0], &[1.0], &SolverOptions::default())?;
/// assert!((sol.state_at(0)[0] - (-1.0f64).exp()).abs() < 1e-5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdamsMoulton;

impl AdamsMoulton {
    /// Creates the solver (maximum order 12).
    pub fn new() -> Self {
        AdamsMoulton
    }
}

impl OdeSolver for AdamsMoulton {
    fn name(&self) -> &'static str {
        "adams"
    }

    fn solve(
        &self,
        system: &dyn OdeSystem,
        t0: f64,
        y0: &[f64],
        sample_times: &[f64],
        options: &SolverOptions,
    ) -> Result<Solution, SolveFailure> {
        let mut core = NordsieckCore::new(MethodFamily::Adams, system.dim(), ADAMS_MAX_ORDER);
        drive(&mut core, system, t0, y0, sample_times, options, |_, _, _| {})
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
        let core = scratch.nordsieck(MethodFamily::Adams, system.dim(), ADAMS_MAX_ORDER);
        drive(core, system, t0, y0, sample_times, options, |_, _, _| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnSystem;

    #[test]
    fn decay_matches_analytic() {
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -2.0 * y[0]);
        let times = [0.5, 1.0, 3.0];
        let sol = AdamsMoulton::new()
            .solve(&sys, 0.0, &[1.0], &times, &SolverOptions::default())
            .unwrap();
        for (i, &t) in times.iter().enumerate() {
            let exact = (-2.0 * t).exp();
            assert!(
                (sol.state_at(i)[0] - exact).abs() < 1e-5 * exact.max(1e-3),
                "t={t}: {} vs {exact}",
                sol.state_at(i)[0]
            );
        }
    }

    #[test]
    fn oscillator_long_run() {
        let sys = FnSystem::new(2, |_t, y, d| {
            d[0] = y[1];
            d[1] = -y[0];
        });
        let sol = AdamsMoulton::new()
            .solve(&sys, 0.0, &[1.0, 0.0], &[10.0], &SolverOptions::with_tolerances(1e-8, 1e-12))
            .unwrap();
        assert!((sol.state_at(0)[0] - 10.0f64.cos()).abs() < 1e-5);
        assert_eq!(sol.stats.lu_decompositions, 0, "adams must not factorize");
    }

    #[test]
    fn multistep_economy_beats_rk_on_smooth_problems() {
        // Per accepted step, Adams uses ≤ 4 RHS evaluations vs DOPRI5's 6 —
        // and reaches higher order.
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -0.1 * y[0]);
        let opts = SolverOptions::with_tolerances(1e-8, 1e-12);
        let sol = AdamsMoulton::new().solve(&sys, 0.0, &[1.0], &[100.0], &opts).unwrap();
        assert!(
            sol.stats.rhs_evals < 5 * sol.stats.accepted + 50,
            "evals {} for {} steps",
            sol.stats.rhs_evals,
            sol.stats.accepted
        );
    }

    #[test]
    fn stiff_problem_is_painful_for_adams() {
        // The functional corrector forces tiny steps: either the budget
        // blows or vastly more steps are needed than Radau would use.
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -1e5 * y[0] + 1e5);
        let opts = SolverOptions { max_steps: 2000, ..SolverOptions::default() };
        match AdamsMoulton::new().solve(&sys, 0.0, &[0.0], &[10.0], &opts) {
            Err(f) => {
                assert!(matches!(f.error, SolverError::MaxStepsExceeded { .. }), "{f}");
                assert!(f.stats.steps > 0);
            }
            Ok(sol) => {
                assert!(sol.stats.steps > 1000, "suspiciously cheap: {} steps", sol.stats.steps);
            }
        }
    }
}
