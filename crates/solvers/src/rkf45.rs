//! The Runge–Kutta–Fehlberg 4(5) method.
//!
//! This is the non-stiff method of the fine-grained baseline simulator
//! (which pairs it with a first-order BDF under stiffness). Classic
//! Fehlberg: six stages, advance with the 4th-order solution, control with
//! the embedded 5th-order estimate. No dense output — sample times are hit
//! by clamping the step, which is exactly the behavioural difference from
//! [`crate::Dopri5`] the comparison experiments expose.

use crate::step::{clamp_step, reject_nonfinite, step_limits, wrms, Column};
use crate::system::check_inputs;
use crate::{initial_step_size, OdeSolver, OdeSystem, Solution, SolveFailure, SolverOptions};

const C2: f64 = 1.0 / 4.0;
const C3: f64 = 3.0 / 8.0;
const C4: f64 = 12.0 / 13.0;
const C6: f64 = 1.0 / 2.0;

const A21: f64 = 1.0 / 4.0;
const A31: f64 = 3.0 / 32.0;
const A32: f64 = 9.0 / 32.0;
const A41: f64 = 1932.0 / 2197.0;
const A42: f64 = -7200.0 / 2197.0;
const A43: f64 = 7296.0 / 2197.0;
const A51: f64 = 439.0 / 216.0;
const A52: f64 = -8.0;
const A53: f64 = 3680.0 / 513.0;
const A54: f64 = -845.0 / 4104.0;
const A61: f64 = -8.0 / 27.0;
const A62: f64 = 2.0;
const A63: f64 = -3544.0 / 2565.0;
const A64: f64 = 1859.0 / 4104.0;
const A65: f64 = -11.0 / 40.0;

// 4th-order weights (used to advance).
const B1: f64 = 25.0 / 216.0;
const B3: f64 = 1408.0 / 2565.0;
const B4: f64 = 2197.0 / 4104.0;
const B5: f64 = -1.0 / 5.0;

// Error weights e = b(5th) − b(4th).
const E1: f64 = 1.0 / 360.0;
const E3: f64 = -128.0 / 4275.0;
const E4: f64 = -2197.0 / 75240.0;
const E5: f64 = 1.0 / 50.0;
const E6: f64 = 2.0 / 55.0;

const SAFETY: f64 = 0.9;

/// The RKF45 solver.
///
/// # Example
///
/// ```
/// use paraspace_solvers::{FnSystem, OdeSolver, Rkf45, SolverOptions};
///
/// # fn main() -> Result<(), paraspace_solvers::SolveFailure> {
/// let sys = FnSystem::new(1, |_t, y, d| d[0] = -y[0]);
/// let sol = Rkf45::new().solve(&sys, 0.0, &[1.0], &[1.0], &SolverOptions::default())?;
/// assert!((sol.state_at(0)[0] - (-1.0f64).exp()).abs() < 1e-5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rkf45 {
    _private: (),
}

impl Rkf45 {
    /// Creates the solver.
    pub fn new() -> Self {
        Rkf45 { _private: () }
    }
}

impl OdeSolver for Rkf45 {
    fn name(&self) -> &'static str {
        "rkf45"
    }

    fn solve(
        &self,
        system: &dyn OdeSystem,
        t0: f64,
        y0: &[f64],
        sample_times: &[f64],
        options: &SolverOptions,
    ) -> Result<Solution, SolveFailure> {
        let n = system.dim();
        check_inputs(n, y0, t0, sample_times, options)?;
        let mut sol = Solution::with_capacity(sample_times.len());
        let mut t = t0;
        let mut y = y0.to_vec();
        let mut k: Vec<Vec<f64>> = (0..6).map(|_| vec![0.0; n]).collect();
        let mut y_stage = vec![0.0; n];
        let mut y_new = vec![0.0; n];
        let mut err_vec = vec![0.0; n];
        let mut scale = vec![0.0; n];

        system.rhs(t, &y, &mut k[0]);
        sol.stats.rhs_evals += 1;
        let mut h = options
            .initial_step
            .unwrap_or_else(|| initial_step_size(&system, t, &y, &k[0], 4, options));
        sol.stats.rhs_evals += usize::from(options.initial_step.is_none());
        let mut nonfinite_strikes = 0usize;

        for &ts in sample_times {
            if ts <= t {
                sol.times.push(ts);
                sol.states.push(y.clone());
                continue;
            }
            let mut steps_this_interval = 0usize;
            while t < ts {
                if let Some(error) = step_limits(sol.stats.steps, steps_this_interval, t, options) {
                    return Err(SolveFailure { error, stats: sol.stats });
                }
                let h_try = clamp_step(h, t, ts, options)
                    .map_err(|error| SolveFailure { error, stats: sol.stats })?;

                system.rhs(t, &y, &mut k[0]);
                for i in 0..n {
                    y_stage[i] = y[i] + h_try * A21 * k[0][i];
                }
                system.rhs(t + C2 * h_try, &y_stage, &mut k[1]);
                for i in 0..n {
                    y_stage[i] = y[i] + h_try * (A31 * k[0][i] + A32 * k[1][i]);
                }
                system.rhs(t + C3 * h_try, &y_stage, &mut k[2]);
                for i in 0..n {
                    y_stage[i] = y[i] + h_try * (A41 * k[0][i] + A42 * k[1][i] + A43 * k[2][i]);
                }
                system.rhs(t + C4 * h_try, &y_stage, &mut k[3]);
                for i in 0..n {
                    y_stage[i] = y[i]
                        + h_try * (A51 * k[0][i] + A52 * k[1][i] + A53 * k[2][i] + A54 * k[3][i]);
                }
                system.rhs(t + h_try, &y_stage, &mut k[4]);
                for i in 0..n {
                    y_stage[i] = y[i]
                        + h_try
                            * (A61 * k[0][i]
                                + A62 * k[1][i]
                                + A63 * k[2][i]
                                + A64 * k[3][i]
                                + A65 * k[4][i]);
                }
                system.rhs(t + C6 * h_try, &y_stage, &mut k[5]);
                sol.stats.rhs_evals += 6;
                sol.stats.steps += 1;
                steps_this_interval += 1;

                for i in 0..n {
                    y_new[i] =
                        y[i] + h_try * (B1 * k[0][i] + B3 * k[2][i] + B4 * k[3][i] + B5 * k[4][i]);
                    err_vec[i] = h_try
                        * (E1 * k[0][i]
                            + E3 * k[2][i]
                            + E4 * k[3][i]
                            + E5 * k[4][i]
                            + E6 * k[5][i]);
                }
                options.error_scale_pair(&y, &y_new, &mut scale);
                let err = wrms(&err_vec, &scale, Column::whole(n));

                if !err.is_finite() || !y_new.iter().all(|v| v.is_finite()) {
                    h = reject_nonfinite(h_try, t, &mut nonfinite_strikes, &mut sol.stats)
                        .map_err(|error| SolveFailure { error, stats: sol.stats })?;
                    continue;
                }
                nonfinite_strikes = 0;

                if err <= 1.0 {
                    sol.stats.accepted += 1;
                    t += h_try;
                    std::mem::swap(&mut y, &mut y_new);
                    let grow = if err == 0.0 { 4.0 } else { (SAFETY * err.powf(-0.2)).min(4.0) };
                    h = h_try * grow.max(0.1);
                } else {
                    sol.stats.rejected += 1;
                    h = h_try * (SAFETY * err.powf(-0.2)).clamp(0.1, 1.0);
                }
            }
            sol.times.push(ts);
            sol.states.push(y.clone());
        }
        Ok(sol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FnSystem, SolverError};

    #[test]
    fn decay_accuracy_within_tolerance_band() {
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -3.0 * y[0]);
        let sol =
            Rkf45::new().solve(&sys, 0.0, &[2.0], &[1.0, 2.0], &SolverOptions::default()).unwrap();
        assert!((sol.state_at(0)[0] - 2.0 * (-3.0f64).exp()).abs() < 5e-6);
        assert!((sol.state_at(1)[0] - 2.0 * (-6.0f64).exp()).abs() < 5e-6);
    }

    #[test]
    fn oscillator_phase_is_tracked() {
        let sys = FnSystem::new(2, |_t, y, d| {
            d[0] = y[1];
            d[1] = -4.0 * y[0];
        });
        // y = cos(2t).
        let sol =
            Rkf45::new().solve(&sys, 0.0, &[1.0, 0.0], &[3.0], &SolverOptions::default()).unwrap();
        assert!((sol.state_at(0)[0] - 6.0f64.cos()).abs() < 1e-4);
    }

    #[test]
    fn step_clamps_to_sample_times() {
        // Samples closer together than the natural step still hit exactly.
        let sys = FnSystem::new(1, |_t, _y, d| d[0] = 1.0);
        let times: Vec<f64> = (1..50).map(|i| i as f64 * 0.01).collect();
        let sol = Rkf45::new().solve(&sys, 0.0, &[0.0], &times, &SolverOptions::default()).unwrap();
        for (i, &t) in times.iter().enumerate() {
            assert!((sol.state_at(i)[0] - t).abs() < 1e-12);
        }
    }

    #[test]
    fn takes_more_rhs_evals_than_dopri5_on_smooth_problem() {
        // No FSAL and no dense output: RKF45 pays for dense sampling where
        // DOPRI5 interpolates — the architectural difference the comparison
        // study leans on.
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -0.5 * y[0]);
        let times: Vec<f64> = (1..=100).map(|i| i as f64 * 0.1).collect();
        let opts = SolverOptions::default();
        let rkf = Rkf45::new().solve(&sys, 0.0, &[1.0], &times, &opts).unwrap();
        let dp = crate::Dopri5::new().solve(&sys, 0.0, &[1.0], &times, &opts).unwrap();
        assert!(
            rkf.stats.rhs_evals > dp.stats.rhs_evals,
            "rkf {} vs dopri {}",
            rkf.stats.rhs_evals,
            dp.stats.rhs_evals
        );
    }

    #[test]
    fn stiff_problem_exhausts_budget() {
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -1e7 * y[0]);
        let opts = SolverOptions { max_steps: 200, ..SolverOptions::default() };
        let result = Rkf45::new().solve(&sys, 0.0, &[1.0], &[1.0], &opts);
        assert!(matches!(result.unwrap_err().error, SolverError::MaxStepsExceeded { .. }));
    }
}
