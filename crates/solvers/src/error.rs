//! Solver error type.

use crate::StepStats;
use std::error::Error;
use std::fmt;

/// Failures an adaptive solver can report.
///
/// # Example
///
/// ```
/// use paraspace_solvers::{Dopri5, FnSystem, OdeSolver, SolverError, SolverOptions};
///
/// // Finite-time blow-up: dy/dt = y², y(0)=1 explodes at t=1.
/// let sys = FnSystem::new(1, |_t, y, d| d[0] = y[0] * y[0]);
/// let err = Dopri5::new()
///     .solve(&sys, 0.0, &[1.0], &[2.0], &SolverOptions::default())
///     .unwrap_err();
/// assert!(matches!(
///     err.error,
///     SolverError::MaxStepsExceeded { .. } | SolverError::StepSizeUnderflow { .. }
/// ));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolverError {
    /// The step budget was exhausted before reaching the next sample time.
    MaxStepsExceeded {
        /// Time reached when the budget ran out.
        t: f64,
        /// The step budget.
        max_steps: usize,
    },
    /// The controller drove the step below the representable minimum.
    StepSizeUnderflow {
        /// Time at which the underflow occurred.
        t: f64,
    },
    /// Newton (or functional) iteration failed repeatedly.
    NonlinearSolveFailed {
        /// Time of the failing step.
        t: f64,
        /// Consecutive failures observed.
        failures: usize,
    },
    /// The Newton iteration matrix was singular even after step reduction.
    SingularIterationMatrix {
        /// Time of the failing factorization.
        t: f64,
    },
    /// The state became NaN or infinite.
    NonFiniteState {
        /// Time at which the state left the finite range.
        t: f64,
    },
    /// An explicit solver's stiffness detector fired repeatedly; the problem
    /// should be handed to an implicit method (the engine re-routes these
    /// simulations to Radau IIA).
    StiffnessDetected {
        /// Time at which stiffness was diagnosed.
        t: f64,
    },
    /// The per-member total-step budget
    /// ([`SolverOptions::step_budget`](crate::SolverOptions::step_budget))
    /// was exhausted before the integration finished. Unlike
    /// [`MaxStepsExceeded`](SolverError::MaxStepsExceeded) (a per-interval
    /// cap that a stiffness reroute may cure), a spent budget is final: the
    /// recovery ladder never retries it with the same budget, so no single
    /// member can stall a batch.
    StepBudgetExhausted {
        /// Time reached when the budget ran out.
        t: f64,
        /// The total-step budget that was exhausted.
        budget: usize,
    },
    /// Caller-provided inputs were malformed.
    InvalidInput {
        /// Description of the problem.
        message: String,
    },
    /// An internal fault — typically a panic contained by the batch
    /// executor — surfaced as a per-member outcome instead of aborting the
    /// run.
    Internal {
        /// The contained panic payload or fault description.
        message: String,
    },
}

impl SolverError {
    /// The integration time associated with the failure, if meaningful.
    pub fn time(&self) -> Option<f64> {
        match *self {
            SolverError::MaxStepsExceeded { t, .. }
            | SolverError::StepSizeUnderflow { t }
            | SolverError::NonlinearSolveFailed { t, .. }
            | SolverError::SingularIterationMatrix { t }
            | SolverError::NonFiniteState { t }
            | SolverError::StiffnessDetected { t }
            | SolverError::StepBudgetExhausted { t, .. } => Some(t),
            SolverError::InvalidInput { .. } | SolverError::Internal { .. } => None,
        }
    }
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::MaxStepsExceeded { t, max_steps } => {
                write!(f, "exceeded {max_steps} steps at t = {t}")
            }
            SolverError::StepSizeUnderflow { t } => write!(f, "step size underflow at t = {t}"),
            SolverError::NonlinearSolveFailed { t, failures } => {
                write!(f, "nonlinear iteration failed {failures} times at t = {t}")
            }
            SolverError::SingularIterationMatrix { t } => {
                write!(f, "singular iteration matrix at t = {t}")
            }
            SolverError::NonFiniteState { t } => write!(f, "state became non-finite at t = {t}"),
            SolverError::StiffnessDetected { t } => {
                write!(f, "problem diagnosed as stiff at t = {t}; use an implicit solver")
            }
            SolverError::StepBudgetExhausted { t, budget } => {
                write!(f, "member step budget of {budget} exhausted at t = {t}")
            }
            SolverError::InvalidInput { message } => write!(f, "invalid input: {message}"),
            SolverError::Internal { message } => write!(f, "internal fault: {message}"),
        }
    }
}

impl Error for SolverError {}

/// A solver failure together with the work performed *before* failing.
///
/// The batch engines bill failed integrations for the steps they actually
/// consumed (a DOPRI5 run that diagnoses stiffness after a hundred steps
/// costs a hundred steps, not the whole step budget), so failures carry
/// their partial counters.
///
/// # Example
///
/// ```
/// use paraspace_solvers::{Dopri5, FnSystem, OdeSolver, SolverError, SolverOptions};
///
/// let sys = FnSystem::new(1, |_t, y, d| d[0] = -1e6 * (y[0] - 1.0));
/// let opts = SolverOptions::default();
/// let failure = Dopri5::new().solve(&sys, 0.0, &[0.0], &[10.0], &opts).unwrap_err();
/// assert!(matches!(failure.error, SolverError::StiffnessDetected { .. }));
/// assert!(failure.stats.steps > 0, "partial work is reported");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SolveFailure {
    /// What went wrong.
    pub error: SolverError,
    /// Work counters accumulated up to the failure.
    pub stats: StepStats,
}

impl fmt::Display for SolveFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (after {} steps)", self.error, self.stats.steps)
    }
}

impl Error for SolveFailure {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.error)
    }
}

impl From<SolverError> for SolveFailure {
    fn from(error: SolverError) -> Self {
        SolveFailure { error, stats: StepStats::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_accessor_reports_failure_location() {
        assert_eq!(SolverError::StepSizeUnderflow { t: 2.5 }.time(), Some(2.5));
        assert_eq!(SolverError::InvalidInput { message: "x".into() }.time(), None);
    }

    #[test]
    fn messages_mention_time() {
        let e = SolverError::NonFiniteState { t: 1.25 };
        assert!(e.to_string().contains("1.25"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: std::error::Error + Send + Sync + 'static>() {}
        check::<SolverError>();
    }
}
