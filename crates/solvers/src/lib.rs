// Index-based loops are used deliberately throughout the numerical
// kernels: they mirror the reference Fortran/C formulations and keep
// multi-array stride arithmetic explicit.
#![allow(clippy::needless_range_loop)]

//! Adaptive ODE solvers for biochemical-network simulation.
//!
//! This crate implements, from scratch, the numerical core of the
//! accelerated parameter-space-analysis engine and all of its published
//! comparison baselines:
//!
//! | solver | family | role |
//! |---|---|---|
//! | [`Dopri5`] | explicit Runge–Kutta 5(4), PI control, dense output, stiffness detection | the engine's non-stiff method |
//! | [`Radau5`] | implicit Radau IIA order 5, simplified Newton with one real and one complex LU per step | the engine's stiff method |
//! | [`Rkf45`] | explicit Runge–Kutta–Fehlberg 4(5) | the fine-grained baseline's non-stiff method |
//! | [`Bdf`] | variable-order (1–5) BDF in Nordsieck form with modified Newton | stiff multistep core |
//! | [`AdamsMoulton`] | variable-order (1–12) Adams–Moulton in Nordsieck form with functional iteration | non-stiff multistep core |
//! | [`Lsoda`] | dynamic Adams ↔ BDF switching | the CPU baseline "LSODA" |
//! | [`Vode`] | one-shot up-front method selection | the CPU baseline "VODE" |
//!
//! All solvers consume any [`OdeSystem`] and sample the solution at
//! caller-provided time points through each method's own dense output /
//! interpolant, so sampling never constrains step selection.
//!
//! # Example
//!
//! ```
//! use paraspace_solvers::{Dopri5, FnSystem, OdeSolver, SolverOptions};
//!
//! # fn main() -> Result<(), paraspace_solvers::SolveFailure> {
//! // dy/dt = -y, y(0) = 1  ⇒  y(t) = e^{-t}.
//! let sys = FnSystem::new(1, |_t, y, dydt| dydt[0] = -y[0]);
//! let sol = Dopri5::new().solve(&sys, 0.0, &[1.0], &[1.0], &SolverOptions::default())?;
//! assert!((sol.state_at(0)[0] - (-1.0f64).exp()).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

mod batch;
mod chaos;
mod dopri5;
mod dopri5_batch;
mod error;
mod multistep;
mod options;
mod radau5;
mod radau5_batch;
mod rkf45;
mod scratch;
mod sens;
mod solution;
mod step;
mod system;

pub use batch::{BatchOdeSystem, BatchState};
pub use chaos::{ChaosBatchSystem, ChaosSystem, FaultKind, FaultPlan, FaultSpec};
pub use dopri5::Dopri5;
pub use dopri5_batch::{Dopri5Batch, LaneReport};
pub use error::{SolveFailure, SolverError};
pub use multistep::{AdamsMoulton, Bdf, Lsoda, MethodFamily, Vode};
pub use options::SolverOptions;
pub use radau5::Radau5;
pub use radau5_batch::Radau5Batch;
pub use rkf45::Rkf45;
pub use scratch::SolverScratch;
pub use sens::{AugmentedSensSystem, Dopri5Sens, Radau5Sens, SensOdeSystem, SensSolution};
pub use solution::{Solution, StepStats};
pub use system::{FnSystem, OdeSolver, OdeSystem};

/// Suggests an initial step size for an adaptive solver whose error
/// estimator has the given order, following the classical
/// Hairer–Nørsett–Wanner `hinit` algorithm: [`step::hinit_probe`], one
/// right-hand side at the Euler point, [`step::hinit_finish`].
///
/// Both explicit and implicit solvers in this crate use this when the caller
/// does not fix `h0` via [`SolverOptions::initial_step`].
pub(crate) fn initial_step_size<S: OdeSystem + ?Sized>(
    system: &S,
    t0: f64,
    y0: &[f64],
    f0: &[f64],
    order: usize,
    opts: &SolverOptions,
) -> f64 {
    let n = y0.len();
    let (mut sc, mut y1, mut f1) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let h0 = step::hinit_probe(y0, f0, opts, &mut sc, &mut y1);
    system.rhs(t0 + h0, &y1, &mut f1);
    step::hinit_finish(y0, f0, &mut f1, &mut sc, h0, order, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_step_is_positive_and_bounded() {
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -1000.0 * y[0]);
        let opts = SolverOptions::default();
        let f0 = [-1000.0];
        let h = initial_step_size(&sys, 0.0, &[1.0], &f0, 5, &opts);
        assert!(h > 0.0);
        assert!(h < 1e-2, "stiff system must start with a small step, got {h}");
    }

    #[test]
    fn initial_step_respects_max_step() {
        let sys = FnSystem::new(1, |_t, _y, d| d[0] = 1e-9);
        let opts = SolverOptions { max_step: 0.5, ..SolverOptions::default() };
        let f0 = [1e-9];
        let h = initial_step_size(&sys, 0.0, &[1.0], &f0, 5, &opts);
        assert!(h <= 0.5);
    }
}
