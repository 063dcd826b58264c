//! Deterministic fault injection for resilience testing.
//!
//! Batches at parameter-space scale meet hostile members — non-finite
//! states, panicking right-hand sides, members whose step size collapses —
//! and the engines' containment and recovery machinery must be exercised
//! under *reproducible* versions of those faults. [`ChaosSystem`] wraps any
//! [`OdeSystem`], and [`ChaosBatchSystem`] any [`BatchOdeSystem`] lane by
//! lane, and both inject a member's configured faults ([`FaultKind`]) from a
//! fixed integration time on, through one function that acts on one
//! derivative column. No RNG is involved anywhere, so an injected fault
//! fires at the identical point of the identical trajectory at any thread
//! count or lane width, and a retried attempt deterministically re-faults.
//!
//! Time is the cross-path-safe trigger: the scalar solvers and their
//! lockstep lane twins evaluate bitwise-identical `(t, y)` sequences per
//! member, so a `t`-triggered fault fires identically on both paths. A
//! `Panic` fault inside a lane group takes the whole group down; the
//! executor's lockstep phase contains it and runs the group's members as
//! scalar attempts, where the panic becomes that member's own outcome.
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

use crate::{BatchOdeSystem, BatchState, OdeSystem};
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
/// and their lane groups in a [`ChaosBatchSystem`].
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

/// `faults`, checked to fit one latch (a `u64` bitmask).
///
/// # Panics
///
/// Panics if more than 64 faults are given.
fn latchable(faults: &[FaultSpec]) -> &[FaultSpec] {
    assert!(faults.len() <= 64, "at most 64 faults per member");
    faults
}

/// Applies one member's `faults` to one right-hand-side evaluation at time
/// `t`, whose derivative components `dydt` yields in order. Returns whether
/// a fault wrote them: the evaluation's value is then the fault's, not the
/// system's.
///
/// A fault fires at every evaluation with `t >= at` and then latches (bit
/// `idx` of `latched`): an adaptive solver rejects a faulted step and
/// retries with smaller `h`, whose stage times fall *before* the trigger —
/// without the latch the member would creep toward the trigger forever
/// instead of failing, and the failure taxonomy would depend on step-size
/// history rather than on the injected fault.
fn inject<'a>(
    faults: &[FaultSpec],
    latched: &Cell<u64>,
    t: f64,
    dydt: impl Iterator<Item = &'a mut f64>,
) -> bool {
    for (idx, fault) in faults.iter().enumerate() {
        let bit = 1u64 << idx;
        if latched.get() & bit == 0 && t < fault.at {
            continue;
        }
        latched.set(latched.get() | bit);
        match fault.kind {
            FaultKind::Panic => {
                panic!("chaos: injected panic at t = {t}")
            }
            FaultKind::Nan => dydt.for_each(|d| *d = f64::NAN),
            FaultKind::Stall => {
                for (i, d) in dydt.enumerate() {
                    *d = STALL_AMPLITUDE * (STALL_FREQUENCY * (t + i as f64)).sin();
                }
            }
        }
        return true;
    }
    false
}

/// An [`OdeSystem`] wrapper that injects the configured faults into the
/// inner system's RHS.
///
/// The Jacobian passes through untouched (stiffness triage sees the clean
/// system; faults strike the integration itself). The per-fault latch lives
/// in a [`Cell`] because [`OdeSystem::rhs`] takes `&self`.
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
        latchable(&faults);
        ChaosSystem { inner, faults, latched: Cell::new(0) }
    }
}

impl<S: OdeSystem> OdeSystem for ChaosSystem<S> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        if !inject(&self.faults, &self.latched, t, dydt.iter_mut()) {
            self.inner.rhs(t, y, dydt);
        }
    }

    fn jacobian(&self, t: f64, y: &[f64], jac: &mut Matrix) {
        self.inner.jacobian(t, y, jac);
    }

    fn has_analytic_jacobian(&self) -> bool {
        self.inner.has_analytic_jacobian()
    }
}

/// A [`BatchOdeSystem`] wrapper that injects `plan`'s faults into the lanes
/// whose member carries any: the lane-group twin of [`ChaosSystem`].
///
/// Each lane holds the latch of the member bound to it, cleared when a
/// member is bound, as a fresh [`ChaosSystem`] starts each scalar attempt.
/// After the inner sweep, the derivative column of each lane whose fault
/// fires is overwritten by [`ChaosSystem`]'s own rule, so a member's
/// evaluations are bitwise the scalar ones at any width. The Jacobian passes through
/// untouched.
#[derive(Debug)]
pub struct ChaosBatchSystem<'p, B> {
    inner: B,
    plan: &'p FaultPlan,
    /// The faults of the member bound to each lane (empty: none).
    bound: Vec<&'p [FaultSpec]>,
    latched: Vec<u64>,
}

impl<'p, B: BatchOdeSystem> ChaosBatchSystem<'p, B> {
    /// Wraps `inner`, injecting `plan`'s faults into the members bound to
    /// its lanes.
    pub fn new(inner: B, plan: &'p FaultPlan) -> Self {
        let lanes = inner.lanes();
        ChaosBatchSystem { inner, plan, bound: vec![&[]; lanes], latched: vec![0; lanes] }
    }
}

impl<B: BatchOdeSystem> BatchOdeSystem for ChaosBatchSystem<'_, B> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn members(&self) -> usize {
        self.inner.members()
    }

    fn initial_state(&self, member: usize, y0: &mut [f64]) {
        self.inner.initial_state(member, y0);
    }

    /// # Panics
    ///
    /// Panics if `member` carries more than 64 faults, as
    /// [`ChaosSystem::new`] does.
    fn bind_lane(&mut self, lane: usize, member: usize) {
        self.inner.bind_lane(lane, member);
        self.bound[lane] = latchable(self.plan.faults_for(member).unwrap_or_default());
        self.latched[lane] = 0;
    }

    fn rhs_batch(&mut self, t: &[f64], y: &BatchState, dydt: &mut BatchState) {
        self.inner.rhs_batch(t, y, dydt);
        let lanes = dydt.lanes();
        for (lane, faults) in self.bound.iter().enumerate().filter(|(_, f)| !f.is_empty()) {
            let column = dydt.as_mut_slice().iter_mut().skip(lane).step_by(lanes);
            inject(faults, Cell::from_mut(&mut self.latched[lane]), t[lane], column);
        }
    }

    fn supports_jacobian_batch(&self) -> bool {
        self.inner.supports_jacobian_batch()
    }

    fn jacobian_batch(&mut self, t: &[f64], y: &BatchState, jac: &mut [f64]) {
        self.inner.jacobian_batch(t, y, jac);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Dopri5, Dopri5Batch, FnSystem, OdeSolver, Radau5, Radau5Batch, Solution, SolveFailure,
        SolverError, SolverOptions, SolverScratch,
    };

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

    /// Van der Pol, `y0 = (2, 0)`, with the analytic Jacobian.
    struct Vdp {
        mu: f64,
    }

    impl Vdp {
        fn rhs(mu: f64, y: [f64; 2]) -> [f64; 2] {
            [y[1], mu * ((1.0 - y[0] * y[0]) * y[1]) - y[0]]
        }

        fn jacobian(mu: f64, y: [f64; 2]) -> [f64; 4] {
            [0.0, 1.0, mu * (-2.0 * y[0] * y[1]) - 1.0, mu * (1.0 - y[0] * y[0])]
        }
    }

    impl OdeSystem for Vdp {
        fn dim(&self) -> usize {
            2
        }
        fn rhs(&self, _t: f64, y: &[f64], d: &mut [f64]) {
            d.copy_from_slice(&Vdp::rhs(self.mu, [y[0], y[1]]));
        }
        fn jacobian(&self, _t: f64, y: &[f64], jac: &mut Matrix) {
            let j = Vdp::jacobian(self.mu, [y[0], y[1]]);
            for (k, v) in j.into_iter().enumerate() {
                jac[(k / 2, k % 2)] = v;
            }
        }
        fn has_analytic_jacobian(&self) -> bool {
            true
        }
    }

    /// Van der Pol members, one `mu` each, on `binds.len()` lanes; `binds`
    /// records the members each lane was bound to, in order.
    struct VdpLanes {
        mus: Vec<f64>,
        binds: Vec<Vec<usize>>,
    }

    impl VdpLanes {
        fn mu(&self, lane: usize) -> f64 {
            self.mus[*self.binds[lane].last().unwrap_or(&0)]
        }
    }

    impl BatchOdeSystem for VdpLanes {
        fn dim(&self) -> usize {
            2
        }
        fn lanes(&self) -> usize {
            self.binds.len()
        }
        fn members(&self) -> usize {
            self.mus.len()
        }
        fn initial_state(&self, _member: usize, y0: &mut [f64]) {
            y0.copy_from_slice(&[2.0, 0.0]);
        }
        fn bind_lane(&mut self, lane: usize, member: usize) {
            self.binds[lane].push(member);
        }
        fn rhs_batch(&mut self, _t: &[f64], y: &BatchState, dydt: &mut BatchState) {
            for lane in 0..self.lanes() {
                let d = Vdp::rhs(self.mu(lane), [y.at(0, lane), y.at(1, lane)]);
                (0..2).for_each(|s| dydt.set(s, lane, d[s]));
            }
        }
        fn supports_jacobian_batch(&self) -> bool {
            true
        }
        fn jacobian_batch(&mut self, _t: &[f64], y: &BatchState, jac: &mut [f64]) {
            let lanes = self.lanes();
            for lane in 0..lanes {
                let j = Vdp::jacobian(self.mu(lane), [y.at(0, lane), y.at(1, lane)]);
                (0..4).for_each(|k| jac[k * lanes + lane] = j[k]);
            }
        }
    }

    #[test]
    fn lane_faults_are_bitwise_the_scalar_ones() {
        // Members 0 and 1 fail fast and hand their lanes over: one to a
        // clean member (`width`), one to a faulted one (`width + 1`), whose
        // first fault must not inherit the latch of the lane's first
        // member. Under both lane kernels at every width each member ends
        // exactly as its scalar twin's `ChaosSystem` solve does.
        let mus: Vec<f64> = (0..12).map(|i| 0.5 + 0.25 * i as f64).collect();
        let plan = FaultPlan::new()
            .with_fault(0, FaultSpec::nan_at_time(0.1))
            .with_fault(1, FaultSpec::nan_at_time(0.05))
            .with_fault(3, FaultSpec::stall_at_time(0.6))
            .with_fault(5, FaultSpec::stall_at_time(1.3))
            .with_fault(5, FaultSpec::nan_at_time(0.2))
            .with_fault(9, FaultSpec::stall_at_time(0.4))
            .with_fault(11, FaultSpec::nan_at_time(1.7));
        let times = [0.25, 0.5, 1.0, 2.0];
        let options = SolverOptions { step_budget: Some(300), ..SolverOptions::default() };
        let mut scratch = SolverScratch::new();
        let (dopri5, radau5) = (Dopri5::new(), Radau5::new());
        for (name, twin) in [("dopri5", &dopri5 as &dyn OdeSolver), ("radau5", &radau5)] {
            let scalar: Vec<Result<Solution, SolveFailure>> = (0..mus.len())
                .map(|m| {
                    let sys = ChaosSystem::new(
                        Vdp { mu: mus[m] },
                        plan.faults_for(m).into_iter().flatten().copied().collect(),
                    );
                    twin.solve_pooled(&sys, 0.0, &[2.0, 0.0], &times, &options, &mut scratch)
                })
                .collect();
            let failed = scalar.iter().filter(|attempt| attempt.is_err()).count();
            assert_eq!(failed, plan.len(), "{name}: every planned fault fires");
            for width in [2, 4, 8] {
                let inner = VdpLanes { mus: mus.clone(), binds: vec![Vec::new(); width] };
                let mut lanes = ChaosBatchSystem::new(inner, &plan);
                let mut queue = 0..mus.len();
                let next = &mut || queue.next();
                let scratch = &mut SolverScratch::new();
                let (settled, _) = match name {
                    "dopri5" => Dopri5Batch::new()
                        .solve_queue(&mut lanes, next, 0.0, &times, &options, scratch),
                    _ => Radau5Batch::new()
                        .solve_queue(&mut lanes, next, 0.0, &times, &options, scratch),
                };
                assert_eq!(settled.len(), mus.len(), "{name} width {width}");
                for (m, attempt) in settled {
                    assert_eq!(attempt, scalar[m], "{name} width {width} member {m}");
                }
                let handed: BTreeMap<usize, usize> =
                    lanes.inner.binds[..2].iter().map(|binds| (binds[1], binds[0])).collect();
                assert_eq!(handed.keys().copied().collect::<Vec<_>>(), [width, width + 1]);
            }
        }
    }
}
