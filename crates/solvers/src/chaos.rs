//! Deterministic fault injection for resilience testing.
//!
//! Batches at parameter-space scale meet hostile members — non-finite
//! states, panicking right-hand sides, members whose step size collapses —
//! and the engines' containment and recovery machinery must be exercised
//! under *reproducible* versions of those faults. [`ChaosSystem`] wraps any
//! [`OdeSystem`] and injects a configured fault ([`FaultKind`]) from a fixed
//! integration time on. No RNG is involved anywhere, so an injected fault
//! fires at the identical point of the identical trajectory at any thread
//! count or lane width, and a retried attempt deterministically re-faults.
//!
//! Time is the cross-path-safe trigger: the scalar DOPRI5 and the
//! lane-batched lockstep solver evaluate bitwise-identical `(t, y)`
//! sequences per member, so a `t`-triggered fault fires identically on
//! both paths.
//!
//! # Example
//!
//! ```
//! use paraspace_solvers::{ChaosSystem, Dopri5, FaultSpec, FnSystem, OdeSolver};
//! use paraspace_solvers::{SolverError, SolverOptions};
//!
//! let decay = FnSystem::new(1, |_t, y, d| d[0] = -y[0]);
//! let sys = ChaosSystem::new(decay, vec![FaultSpec::nan_at_time(0.5)]);
//! let err = Dopri5::new()
//!     .solve(&sys, 0.0, &[1.0], &[1.0], &SolverOptions::default())
//!     .unwrap_err();
//! assert!(matches!(err.error, SolverError::NonFiniteState { .. }));
//! ```

use crate::OdeSystem;
use paraspace_linalg::Matrix;
use std::cell::Cell;
use std::collections::BTreeMap;

/// Derivative magnitude of an injected stall: large enough that the error
/// controller must shrink the step far below the sampling scale.
const STALL_AMPLITUDE: f64 = 1e6;
/// Oscillation frequency of an injected stall: resolving it needs steps of
/// ~1e-8, so the member burns its whole step budget making no progress —
/// the deterministic stand-in for a slow-RHS hang.
const STALL_FREQUENCY: f64 = 1e8;

/// The kind of fault an injected [`FaultSpec`] produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The RHS writes NaN into every derivative component; the solver
    /// fails with `NonFiniteState` once step reduction gives up.
    Nan,
    /// The RHS panics; the executor's containment turns this into an
    /// `Internal` outcome instead of aborting the batch.
    Panic,
    /// The RHS becomes a huge fast oscillation the controller cannot step
    /// over: the member consumes steps without progress until its
    /// per-interval cap (`MaxStepsExceeded`) or total budget
    /// (`StepBudgetExhausted`) runs out.
    Stall,
}

/// One injected fault: what happens and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// The fault to inject.
    pub kind: FaultKind,
    /// The integration time it fires from: every RHS evaluation with
    /// `t >= at`. Once triggered it stays triggered for every later
    /// evaluation (and for retried attempts), so recovery retries of a
    /// chaos member deterministically re-fault.
    pub at: f64,
}

impl FaultSpec {
    /// NaN derivatives from integration time `t` onward.
    pub fn nan_at_time(t: f64) -> Self {
        FaultSpec { kind: FaultKind::Nan, at: t }
    }

    /// A panic on the first RHS evaluation with time `>= t`.
    pub fn panic_at_time(t: f64) -> Self {
        FaultSpec { kind: FaultKind::Panic, at: t }
    }

    /// A stalling RHS from integration time `t` onward.
    pub fn stall_at_time(t: f64) -> Self {
        FaultSpec { kind: FaultKind::Stall, at: t }
    }
}

/// Faults assigned to batch members: the job-level plan consumed by the
/// engines, which wrap each covered member's system in a [`ChaosSystem`]
/// (and evict covered members from lockstep lane groups so a planned panic
/// cannot take co-scheduled members down with it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    members: BTreeMap<usize, Vec<FaultSpec>>,
}

impl FaultPlan {
    /// An empty plan (no faults anywhere).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds `fault` for batch member `member` (builder style).
    pub fn with_fault(mut self, member: usize, fault: FaultSpec) -> Self {
        self.members.entry(member).or_default().push(fault);
        self
    }

    /// The faults planned for `member`, if any.
    pub fn faults_for(&self, member: usize) -> Option<&[FaultSpec]> {
        self.members.get(&member).map(|v| v.as_slice())
    }

    /// Whether the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of members with at least one planned fault.
    pub fn len(&self) -> usize {
        self.members.len()
    }
}

/// An [`OdeSystem`] wrapper that injects the configured faults into the
/// inner system's RHS.
///
/// The Jacobian passes through untouched (stiffness triage sees the clean
/// system; faults strike the integration itself). The per-fault latch lives
/// in a [`Cell`] because [`OdeSystem::rhs`] takes `&self`. Fired faults
/// latch: an adaptive solver rejects a faulted step and retries with
/// smaller `h`, whose stage times fall *before* the trigger — without the
/// latch the member would creep toward the trigger forever instead of
/// failing, and the failure taxonomy would depend on step-size history
/// rather than on the injected fault.
#[derive(Debug)]
pub struct ChaosSystem<S> {
    inner: S,
    faults: Vec<FaultSpec>,
    latched: Cell<u64>,
}

impl<S: OdeSystem> ChaosSystem<S> {
    /// Wraps `inner`, injecting `faults`.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 faults are given (the latch is a bitmask).
    pub fn new(inner: S, faults: Vec<FaultSpec>) -> Self {
        assert!(faults.len() <= 64, "at most 64 faults per member");
        ChaosSystem { inner, faults, latched: Cell::new(0) }
    }
}

impl<S: OdeSystem> OdeSystem for ChaosSystem<S> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        for (idx, fault) in self.faults.iter().enumerate() {
            let bit = 1u64 << idx;
            if self.latched.get() & bit == 0 && t < fault.at {
                continue;
            }
            self.latched.set(self.latched.get() | bit);
            match fault.kind {
                FaultKind::Panic => {
                    panic!("chaos: injected panic at t = {t}")
                }
                FaultKind::Nan => {
                    dydt.fill(f64::NAN);
                    return;
                }
                FaultKind::Stall => {
                    for (i, d) in dydt.iter_mut().enumerate() {
                        *d = STALL_AMPLITUDE * (STALL_FREQUENCY * (t + i as f64)).sin();
                    }
                    return;
                }
            }
        }
        self.inner.rhs(t, y, dydt);
    }

    fn jacobian(&self, t: f64, y: &[f64], jac: &mut Matrix) {
        self.inner.jacobian(t, y, jac);
    }

    fn has_analytic_jacobian(&self) -> bool {
        self.inner.has_analytic_jacobian()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dopri5, FnSystem, OdeSolver, SolverError, SolverOptions};

    fn decay() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0])
    }

    #[test]
    fn clean_wrapper_is_transparent() {
        let reference =
            Dopri5::new().solve(&decay(), 0.0, &[1.0], &[1.0], &SolverOptions::default()).unwrap();
        let sys = ChaosSystem::new(decay(), vec![]);
        let wrapped =
            Dopri5::new().solve(&sys, 0.0, &[1.0], &[1.0], &SolverOptions::default()).unwrap();
        assert_eq!(reference, wrapped, "no faults ⇒ bitwise identical");
    }

    #[test]
    fn nan_fault_fails_with_non_finite_state() {
        let sys = ChaosSystem::new(decay(), vec![FaultSpec::nan_at_time(0.5)]);
        let err =
            Dopri5::new().solve(&sys, 0.0, &[1.0], &[1.0], &SolverOptions::default()).unwrap_err();
        assert!(matches!(err.error, SolverError::NonFiniteState { .. }));
        assert!(err.error.time().unwrap() < 0.5 + 1e-9, "fault strikes near its trigger");
    }

    #[test]
    fn panic_fault_panics_deterministically() {
        for _ in 0..2 {
            let sys = ChaosSystem::new(decay(), vec![FaultSpec::panic_at_time(0.25)]);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = Dopri5::new().solve(&sys, 0.0, &[1.0], &[1.0], &SolverOptions::default());
            }));
            assert!(result.is_err(), "injected panic must fire on every attempt");
        }
    }

    #[test]
    fn stall_fault_exhausts_the_step_budget() {
        let sys = ChaosSystem::new(decay(), vec![FaultSpec::stall_at_time(0.5)]);
        let opts = SolverOptions { step_budget: Some(500), ..SolverOptions::default() };
        let err = Dopri5::new().solve(&sys, 0.0, &[1.0], &[1.0], &opts).unwrap_err();
        assert!(matches!(err.error, SolverError::StepBudgetExhausted { budget: 500, .. }));
        assert_eq!(err.stats.steps, 500, "the budget is a hard deadline");
    }

    #[test]
    fn fault_plan_is_per_member() {
        let plan = FaultPlan::new()
            .with_fault(3, FaultSpec::nan_at_time(0.5))
            .with_fault(3, FaultSpec::panic_at_time(0.9))
            .with_fault(7, FaultSpec::stall_at_time(0.1));
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.faults_for(3).unwrap().len(), 2);
        assert_eq!(plan.faults_for(7).unwrap().len(), 1);
        assert!(plan.faults_for(0).is_none());
        assert!(FaultPlan::new().is_empty());
    }
}
