//! Property-based tests of the solver suite: accuracy against analytic
//! solutions and cross-solver agreement over randomized problems.

use paraspace_linalg::Matrix;
use paraspace_solvers::{
    AdamsMoulton, BatchOdeSystem, BatchState, Bdf, Dopri5, Dopri5Batch, FnSystem, Lsoda, OdeSolver,
    OdeSystem, Radau5, Radau5Batch, Rkf45, SolveFailure, SolverError, SolverOptions, SolverScratch,
    StepStats, Vode,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, .. ProptestConfig::default() })]

    /// Every solver integrates linear decay to within a tolerance band.
    #[test]
    fn all_solvers_handle_linear_decay(k in 0.05f64..20.0, t_end in 0.2f64..4.0) {
        let sys = FnSystem::new(1, move |_t, y: &[f64], d: &mut [f64]| d[0] = -k * y[0]);
        let exact = (-k * t_end).exp();
        let opts = SolverOptions { max_steps: 500_000, ..SolverOptions::default() };
        let solvers: Vec<Box<dyn OdeSolver>> = vec![
            Box::new(Dopri5::new()),
            Box::new(Rkf45::new()),
            Box::new(AdamsMoulton::new()),
            Box::new(Radau5::new()),
            Box::new(Bdf::new()),
            Box::new(Lsoda::new()),
            Box::new(Vode::new()),
        ];
        for s in &solvers {
            let sol = s.solve(&sys, 0.0, &[1.0], &[t_end], &opts)
                .unwrap_or_else(|e| panic!("{} failed: {e}", s.name()));
            let err = (sol.state_at(0)[0] - exact).abs();
            prop_assert!(err < 1e-4 * exact.max(1e-4), "{}: err {err} at k={k} T={t_end}", s.name());
        }
    }

    /// A two-species linear system with known eigen-decomposition: the
    /// explicit and implicit flagships agree with the analytic solution.
    #[test]
    fn coupled_linear_system_matches_matrix_exponential(
        a in 0.1f64..5.0, b in 0.1f64..5.0, t_end in 0.2f64..2.0
    ) {
        // y' = [[-a, b], [a, -b]] y has eigenvalues 0 and -(a+b):
        // y(t) = equilibrium + transient·e^{-(a+b)t}, equilibrium ∝ (b, a).
        let sys = FnSystem::new(2, move |_t, y: &[f64], d: &mut [f64]| {
            d[0] = -a * y[0] + b * y[1];
            d[1] = a * y[0] - b * y[1];
        });
        let y0 = [1.0, 0.0];
        let total = y0[0] + y0[1];
        let eq0 = total * b / (a + b);
        let lam = a + b;
        let exact0 = eq0 + (y0[0] - eq0) * (-lam * t_end).exp();
        let opts = SolverOptions::default();
        for s in [&Dopri5::new() as &dyn OdeSolver, &Radau5::new() as &dyn OdeSolver] {
            let sol = s.solve(&sys, 0.0, &y0, &[t_end], &opts).expect("linear system");
            prop_assert!(
                (sol.state_at(0)[0] - exact0).abs() < 1e-5,
                "{}: {} vs {exact0}", s.name(), sol.state_at(0)[0]
            );
            // Conservation: rows sum to zero ⇒ total is invariant.
            let sum: f64 = sol.state_at(0).iter().sum();
            prop_assert!((sum - total).abs() < 1e-7);
        }
    }

    /// Sampling at many interior points returns exactly the requested
    /// times, in order, for all solvers with dense output.
    #[test]
    fn sample_times_are_returned_verbatim(n_samples in 1usize..40) {
        let sys = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]);
        let times: Vec<f64> = (1..=n_samples).map(|i| i as f64 * 0.1).collect();
        let opts = SolverOptions::default();
        for s in [
            &Dopri5::new() as &dyn OdeSolver,
            &Radau5::new(),
            &Lsoda::new(),
            &AdamsMoulton::new(),
        ] {
            let sol = s.solve(&sys, 0.0, &[1.0], &times, &opts).expect("decay");
            prop_assert_eq!(&sol.times, &times, "{}", s.name());
            // Monotone decay must be preserved by interpolation.
            for w in sol.states.windows(2) {
                prop_assert!(w[1][0] <= w[0][0] + 1e-9, "{} not monotone", s.name());
            }
        }
    }

    /// Tightening the relative tolerance never increases the error of the
    /// adaptive flagships on a smooth problem.
    #[test]
    fn tolerance_monotonicity(k in 0.2f64..3.0) {
        let sys = FnSystem::new(1, move |_t, y: &[f64], d: &mut [f64]| d[0] = -k * y[0]);
        let exact = (-k * 2.0).exp();
        let mut last_err = f64::INFINITY;
        for rtol in [1e-3, 1e-6, 1e-9] {
            let opts = SolverOptions { max_steps: 500_000, ..SolverOptions::with_tolerances(rtol, rtol * 1e-6) };
            let sol = Dopri5::new().solve(&sys, 0.0, &[1.0], &[2.0], &opts).expect("decay");
            let err = (sol.state_at(0)[0] - exact).abs();
            // Allow a small grace factor: local-error control is not a
            // strict global-error guarantee.
            prop_assert!(err <= last_err * 10.0 + 1e-15, "err {err} vs prior {last_err} at rtol {rtol}");
            last_err = err.max(1e-16);
        }
    }
}

/// A decay chain `y0 → y1 → ∅` with rates `(a, b)`, an analytic Jacobian
/// for the implicit drivers.
struct Chain {
    a: f64,
    b: f64,
}

impl OdeSystem for Chain {
    fn dim(&self) -> usize {
        2
    }
    fn rhs(&self, _t: f64, y: &[f64], d: &mut [f64]) {
        d[0] = -self.a * y[0];
        d[1] = self.a * y[0] - self.b * y[1];
    }
    fn jacobian(&self, _t: f64, _y: &[f64], jac: &mut Matrix) {
        jac[(0, 0)] = -self.a;
        jac[(0, 1)] = 0.0;
        jac[(1, 0)] = self.a;
        jac[(1, 1)] = -self.b;
    }
    fn has_analytic_jacobian(&self) -> bool {
        true
    }
}

/// `y' = J·y` with a constant `2 × 2` matrix `J`: the members that drive a
/// step controller into each of its failure branches.
struct Linear([[f64; 2]; 2]);

impl OdeSystem for Linear {
    fn dim(&self) -> usize {
        2
    }
    fn rhs(&self, _t: f64, y: &[f64], d: &mut [f64]) {
        for (d, row) in d.iter_mut().zip(&self.0) {
            *d = row[0] * y[0] + row[1] * y[1];
        }
    }
    fn jacobian(&self, _t: f64, _y: &[f64], jac: &mut Matrix) {
        for (i, row) in self.0.iter().enumerate() {
            jac[(i, 0)] = row[0];
            jac[(i, 1)] = row[1];
        }
    }
    fn has_analytic_jacobian(&self) -> bool {
        true
    }
}

/// Two-species members, each with its initial state, as one lane group:
/// each lane runs its member's scalar arithmetic.
struct Lanes<S> {
    members: Vec<(S, [f64; 2])>,
    bound: Vec<usize>,
}

impl<S: OdeSystem> BatchOdeSystem for Lanes<S> {
    fn dim(&self) -> usize {
        2
    }
    fn lanes(&self) -> usize {
        self.bound.len()
    }
    fn members(&self) -> usize {
        self.members.len()
    }
    fn initial_state(&self, member: usize, y0: &mut [f64]) {
        y0.copy_from_slice(&self.members[member].1);
    }
    fn bind_lane(&mut self, lane: usize, member: usize) {
        self.bound[lane] = member;
    }
    fn rhs_batch(&mut self, t: &[f64], y: &BatchState, dydt: &mut BatchState) {
        for (l, &m) in self.bound.iter().enumerate() {
            let (mut yl, mut dl) = ([0.0; 2], [0.0; 2]);
            y.gather_lane(l, &mut yl);
            self.members[m].0.rhs(t[l], &yl, &mut dl);
            dydt.scatter_lane(l, &dl);
        }
    }
    fn supports_jacobian_batch(&self) -> bool {
        true
    }
    fn jacobian_batch(&mut self, t: &[f64], y: &BatchState, jac: &mut [f64]) {
        let lanes = self.bound.len();
        for (l, &m) in self.bound.iter().enumerate() {
            let (mut yl, mut jl) = ([0.0; 2], Matrix::zeros(2, 2));
            y.gather_lane(l, &mut yl);
            self.members[m].0.jacobian(t[l], &yl, &mut jl);
            for (i, &v) in jl.as_slice().iter().enumerate() {
                jac[i * lanes + l] = v;
            }
        }
    }
}

/// Member `m` of the chain family the step-limit test runs.
fn chain(m: usize) -> Chain {
    Chain { a: 0.5 + 0.25 * m as f64, b: 2.0 }
}

/// Every driver checks the same limits at each step start, in the same
/// order: the total `step_budget` first, then the per-interval
/// `max_steps`. Whichever binds first stops the solve — both at once is
/// the budget — and a lane of either lockstep kernel stops at the same
/// `t` with the same counters as its scalar twin, at any width.
#[test]
fn every_driver_stops_on_the_step_limit_that_binds_first() {
    let (y0, times) = ([1.0, 0.0], [40.0]);
    // (step_budget, max_steps, whether the budget is what stops).
    for (budget, max_steps, budget_binds) in [(4, 1000, true), (1000, 4, false), (4, 4, true)] {
        let opts =
            SolverOptions { step_budget: Some(budget), max_steps, ..SolverOptions::default() };
        let stopped = |failure: &SolveFailure| match failure.error {
            SolverError::StepBudgetExhausted { budget: b, .. } => budget_binds && b == budget,
            SolverError::MaxStepsExceeded { max_steps: m, .. } => !budget_binds && m == max_steps,
            _ => false,
        };
        let solvers: [&dyn OdeSolver; 7] = [
            &Dopri5::new(),
            &Rkf45::new(),
            &AdamsMoulton::new(),
            &Radau5::new(),
            &Bdf::new(),
            &Lsoda::new(),
            &Vode::new(),
        ];
        for s in solvers {
            let failure = s.solve(&chain(0), 0.0, &y0, &times, &opts).unwrap_err();
            assert!(stopped(&failure), "{} at {opts:?}: {failure}", s.name());
        }
        for width in [1, 4] {
            let group = || Lanes {
                members: (0..4).map(|m| (chain(m), y0)).collect(),
                bound: vec![0; width],
            };
            let scratch = &mut SolverScratch::new();
            let dopri = Dopri5Batch::new().solve_group(&mut group(), 0.0, &times, &opts, scratch);
            let radau = Radau5Batch::new().solve_group(&mut group(), 0.0, &times, &opts, scratch);
            let twins: [(&dyn OdeSolver, _); 2] =
                [(&Dopri5::new(), dopri.0), (&Radau5::new(), radau.0)];
            for (scalar, attempts) in twins {
                for (m, attempt) in attempts.into_iter().enumerate() {
                    let at =
                        format!("{} lanes, width {width}, member {m}, {opts:?}", scalar.name());
                    assert!(attempt.as_ref().is_err_and(stopped), "{at}: {attempt:?}");
                    assert_eq!(attempt, scalar.solve(&chain(m), 0.0, &y0, &times, &opts), "{at}");
                }
            }
        }
    }
}

/// The solvers' own input check refuses a NaN sample time before any work:
/// every scalar driver, and every member of either lockstep kernel at any
/// width, fails with `InvalidInput` and zero counters.
#[test]
fn a_nan_sample_time_is_invalid_input_for_every_driver() {
    let (y0, times, opts) = ([1.0, 0.0], [1.0, f64::NAN], SolverOptions::default());
    let invalid = |attempt: &Result<_, SolveFailure>| {
        matches!(attempt, Err(f) if matches!(f.error, SolverError::InvalidInput { .. })
            && f.stats == StepStats::default())
    };
    let solvers: [&dyn OdeSolver; 7] = [
        &Dopri5::new(),
        &Rkf45::new(),
        &AdamsMoulton::new(),
        &Radau5::new(),
        &Bdf::new(),
        &Lsoda::new(),
        &Vode::new(),
    ];
    for s in solvers {
        let attempt = s.solve(&chain(0), 0.0, &y0, &times, &opts);
        assert!(invalid(&attempt), "{}: {attempt:?}", s.name());
    }
    for width in [1, 4] {
        let group =
            || Lanes { members: (0..4).map(|m| (chain(m), y0)).collect(), bound: vec![0; width] };
        let scratch = &mut SolverScratch::new();
        let dopri = Dopri5Batch::new().solve_group(&mut group(), 0.0, &times, &opts, scratch);
        let radau = Radau5Batch::new().solve_group(&mut group(), 0.0, &times, &opts, scratch);
        for (m, attempt) in dopri.0.iter().chain(&radau.0).enumerate() {
            assert!(invalid(attempt), "width {width}, attempt {m}: {attempt:?}");
        }
    }
}

/// Every failure branch of both step controllers, reached by one member of
/// a lane group between two healthy ones: the lane fails with the error and
/// the counters of its scalar twin, at width 1 and 4.
///
/// * NaN derivatives — DOPRI5 rejects five steps in a row and gives up
///   (`NonFiniteState`); RADAU5's Newton iteration diverges 21 times in a
///   row (`NonlinearSolveFailed`).
/// * `J` with equal entries of `1e300` — `γ/h` vanishes beside them, so
///   `γ/h·I − J` is singular at every halved step (`SingularIterationMatrix`).
/// * growth from `f64::MAX` — RADAU5's Newton iteration converges at its
///   first iterate, whose new state overflows (`NonFiniteState`).
#[test]
fn every_controller_failure_branch_fails_a_lane_as_its_scalar_twin() {
    let nan = [[f64::NAN; 2]; 2];
    let stiff_singular = [[1e300; 2]; 2];
    let growth = [[1e-3, 0.0], [0.0, 1e-3]];
    let fixed_start = SolverOptions { initial_step: Some(1e-7), ..SolverOptions::default() };
    let nonfinite = |e: &SolverError| matches!(e, SolverError::NonFiniteState { .. });
    let newton = |e: &SolverError| matches!(e, SolverError::NonlinearSolveFailed { .. });
    let singular = |e: &SolverError| matches!(e, SolverError::SingularIterationMatrix { .. });
    type Branch = (bool, [[f64; 2]; 2], [f64; 2], SolverOptions, fn(&SolverError) -> bool);
    // (RADAU5?, the failing member's J and y0, options, the branch's error)
    let branches: [Branch; 4] = [
        (false, nan, [0.0, 0.0], SolverOptions::default(), nonfinite),
        (true, nan, [0.0, 0.0], SolverOptions::default(), newton),
        (true, stiff_singular, [0.0, 0.0], SolverOptions::default(), singular),
        (true, growth, [f64::MAX, 0.0], fixed_start, nonfinite),
    ];
    let times = [0.5, 1.0];
    for (radau, j, y0, opts, reached) in branches {
        let members = || {
            vec![
                (Linear([[-1.0, 0.0], [1.0, -2.0]]), [1.0, 0.0]),
                (Linear(j), y0),
                (Linear([[-3.0, 0.5], [0.5, -1.0]]), [0.5, 2.0]),
            ]
        };
        let scalar: &dyn OdeSolver = if radau { &Radau5::new() } else { &Dopri5::new() };
        let twins: Vec<_> =
            members().iter().map(|(s, y0)| scalar.solve(s, 0.0, y0, &times, &opts)).collect();
        let failure = twins[1].as_ref().expect_err("the branch fails its member");
        assert!(reached(&failure.error), "{}: {}", scalar.name(), failure.error);
        assert!(twins[0].is_ok() && twins[2].is_ok(), "{}: {twins:?}", scalar.name());
        for width in [1, 4] {
            let mut group = Lanes { members: members(), bound: vec![0; width] };
            let scratch = &mut SolverScratch::new();
            let (attempts, _) = if radau {
                Radau5Batch::new().solve_group(&mut group, 0.0, &times, &opts, scratch)
            } else {
                Dopri5Batch::new().solve_group(&mut group, 0.0, &times, &opts, scratch)
            };
            assert_eq!(attempts, twins, "{} lanes, width {width}", scalar.name());
        }
    }
}
