//! Forward sensitivity analysis: integrate `ṡⱼ = J·sⱼ + ∂f/∂kⱼ` alongside
//! the state.
//!
//! Two integration strategies, mirroring the AMICI design split:
//!
//! * **Explicit (non-stiff)** — [`Dopri5Sens`] wraps the system and its
//!   `p` sensitivity columns as one augmented [`OdeSystem`] of dimension
//!   `n·(1+p)` ([`AugmentedSensSystem`]) and hands it to the ordinary
//!   [`Dopri5`]: the sensitivity columns ride through the solver as extra
//!   state, with full error control over every augmented component. The
//!   same augmented right-hand side batches through the lockstep SoA lanes
//!   (see `paraspace_core`'s batch adapter), and because each lane's
//!   arithmetic is an unshared dependency chain, per-member sensitivities
//!   are bitwise independent of lane width and thread count.
//!
//! * **Implicit (stiff)** — [`Radau5Sens`] runs the unmodified RADAU5
//!   state step and then propagates sensitivities *staggered*, after each
//!   accepted step: differentiating the converged collocation equations
//!   with respect to `kⱼ` gives a **linear** stage system
//!   `Vᵢ = h Σₗ aᵢₗ [J(y+Zₗ)(s+Vₗ) + Fₗ]` whose iteration matrix is exactly
//!   the state Newton's — so each column is solved by back-substitutions
//!   against the **already-factored** real/complex LU pair (the AMICI
//!   trick: sensitivities cost triangular solves, never new
//!   factorizations). Because the sensitivity solves read the state but
//!   never feed back into it, the state trajectory, step sequence, and
//!   acceptance decisions are **bitwise identical** to plain
//!   [`Radau5`](crate::Radau5).
//!
//! Both paths return a [`SensSolution`]: the state samples plus, per
//! sample, the `p × n` sensitivity block `∂y(t)/∂kⱼ` (param-major).
//! Initial sensitivities are zero (the initial state does not depend on
//! the rate constants).

use crate::radau5::{
    ALPH, BETA, FACL, FACR, NIT, QUOT1, QUOT2, SAFE, SQ6, T11, T12, T13, T21, T22, T23, T31, THET,
    TI11, TI12, TI13, TI21, TI22, TI23, TI31, TI32, TI33, U1,
};
use crate::system::check_inputs;
use crate::{
    initial_step_size, Dopri5, OdeSolver, OdeSystem, Solution, SolveFailure, SolverError,
    SolverOptions,
};
use paraspace_linalg::{
    weighted_rms_norm, CMatrix, CluFactor, Complex64, LuFactor, Matrix, SparsityPattern,
};
use std::cell::RefCell;

/// Extra iterations granted to the (linear) sensitivity stage solves past
/// the state Newton's `NIT`: they cost back-substitutions only and never
/// influence step control, so letting a stiff column contract a little
/// further is cheap.
const SENS_NIT: usize = NIT + 3;

/// An [`OdeSystem`] that also exposes the analytic parameter Jacobian
/// `∂f/∂k` for a chosen set of `p` parameters.
///
/// For mass-action (and every bundled saturating) rate law the flux is
/// linear in its rate constant, so `∂f/∂kⱼ` is a single stoichiometry
/// column scaled by the unit flux — cheap and exact (see
/// `CompiledOdes::dfdk_with` in `paraspace_rbm`).
pub trait SensOdeSystem: OdeSystem {
    /// Number of parameters `p` sensitivities are carried for.
    fn n_params(&self) -> usize;

    /// Writes `∂f/∂k` into `out`, **param-major**: column `j` (length `n`)
    /// at `out[j·n .. (j+1)·n]`.
    fn dfdk(&self, t: f64, y: &[f64], out: &mut [f64]);

    /// The structural sparsity of the state Jacobian, when fixed for every
    /// state (true for reaction networks). Lets the `J·s` contractions
    /// stream `nnz` instead of `n²` entries per column; entries outside
    /// the pattern MUST be exact zeros.
    fn jacobian_sparsity(&self) -> Option<SparsityPattern> {
        None
    }
}

impl<S: SensOdeSystem + ?Sized> SensOdeSystem for &S {
    fn n_params(&self) -> usize {
        (**self).n_params()
    }
    fn dfdk(&self, t: f64, y: &[f64], out: &mut [f64]) {
        (**self).dfdk(t, y, out)
    }
    fn jacobian_sparsity(&self) -> Option<SparsityPattern> {
        (**self).jacobian_sparsity()
    }
}

/// A [`Solution`] plus per-sample forward sensitivities.
#[derive(Debug, Clone, Default)]
pub struct SensSolution {
    /// The state samples and work counters.
    pub solution: Solution,
    /// Per sample: the `p × n` sensitivity block, param-major
    /// (`sens[s][j·n + i] = ∂yᵢ(tₛ)/∂kⱼ`).
    pub sens: Vec<Vec<f64>>,
}

impl SensSolution {
    /// Sensitivity column `∂y(t_sample)/∂k_param` (length `n`).
    pub fn sens_column(&self, sample: usize, param: usize, n: usize) -> &[f64] {
        &self.sens[sample][param * n..(param + 1) * n]
    }

    /// Splits a solution of the augmented system `[y; s₀; …; s_{p−1}]`
    /// (dimension `n·(1+p)`) back into state samples + sensitivity blocks.
    /// This is how lane-batched augmented trajectories (the SoA DOPRI5
    /// path) are rehydrated per member.
    pub fn from_augmented(sol: Solution, n: usize, p: usize) -> Self {
        split_augmented(sol, n, p)
    }
}

/// The augmented system `[y; s₀; …; s_{p−1}]` of dimension `n·(1+p)`:
/// state block first, then each sensitivity column, with
/// `ṡⱼ = J·sⱼ + ∂f/∂kⱼ`.
///
/// Feeding this to any explicit solver integrates sensitivities with full
/// error control over the augmented vector. The `J·sⱼ` contraction walks
/// the Jacobian sparsity pattern row by row in index order when the inner
/// system exposes one — the same accumulation order the lane-batched
/// adapter uses, so scalar and batched augmented trajectories agree
/// bitwise per lane.
pub struct AugmentedSensSystem<'a, S: SensOdeSystem + ?Sized> {
    inner: &'a S,
    n: usize,
    p: usize,
    sparsity: Option<SparsityPattern>,
    jac: RefCell<Matrix>,
    dfdk: RefCell<Vec<f64>>,
}

impl<'a, S: SensOdeSystem + ?Sized> AugmentedSensSystem<'a, S> {
    /// Wraps `inner` (dimension `n`, `p` parameters).
    pub fn new(inner: &'a S) -> Self {
        let n = inner.dim();
        let p = inner.n_params();
        AugmentedSensSystem {
            inner,
            n,
            p,
            sparsity: inner.jacobian_sparsity(),
            jac: RefCell::new(Matrix::zeros(n, n)),
            dfdk: RefCell::new(vec![0.0; p * n]),
        }
    }

    /// Builds the augmented initial state `[y0; 0; …; 0]`.
    pub fn augmented_initial_state(&self, y0: &[f64]) -> Vec<f64> {
        assert_eq!(y0.len(), self.n, "initial state length");
        let mut aug = vec![0.0; self.n * (1 + self.p)];
        aug[..self.n].copy_from_slice(y0);
        aug
    }
}

impl<S: SensOdeSystem + ?Sized> OdeSystem for AugmentedSensSystem<'_, S> {
    fn dim(&self) -> usize {
        self.n * (1 + self.p)
    }

    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        let n = self.n;
        let (y_state, y_sens) = y.split_at(n);
        let (d_state, d_sens) = dydt.split_at_mut(n);
        self.inner.rhs(t, y_state, d_state);

        let mut jac = self.jac.borrow_mut();
        self.inner.jacobian(t, y_state, &mut jac);
        let mut fk = self.dfdk.borrow_mut();
        self.inner.dfdk(t, y_state, &mut fk);

        for j in 0..self.p {
            let s = &y_sens[j * n..(j + 1) * n];
            let out = &mut d_sens[j * n..(j + 1) * n];
            match &self.sparsity {
                Some(pat) => {
                    for i in 0..n {
                        let mut acc = fk[j * n + i];
                        for &m in pat.row(i) {
                            acc += jac[(i, m as usize)] * s[m as usize];
                        }
                        out[i] = acc;
                    }
                }
                None => {
                    for i in 0..n {
                        let mut acc = fk[j * n + i];
                        for m in 0..n {
                            acc += jac[(i, m)] * s[m];
                        }
                        out[i] = acc;
                    }
                }
            }
        }
    }
}

/// Splits an augmented-system solution back into state + sensitivities.
pub(crate) fn split_augmented(sol: Solution, n: usize, p: usize) -> SensSolution {
    let mut out = SensSolution {
        solution: Solution {
            times: sol.times,
            states: Vec::with_capacity(sol.states.len()),
            stats: sol.stats,
        },
        sens: Vec::with_capacity(sol.states.len()),
    };
    for mut aug in sol.states {
        debug_assert_eq!(aug.len(), n * (1 + p));
        let sens = aug.split_off(n);
        out.solution.states.push(aug);
        out.sens.push(sens);
    }
    out
}

/// Forward sensitivities through DOPRI5 on the augmented system.
///
/// # Example
///
/// ```
/// use paraspace_linalg::Matrix;
/// use paraspace_solvers::{Dopri5Sens, OdeSystem, SensOdeSystem, SolverOptions};
///
/// // y' = -k y with k = 2: ∂y/∂k = -t·e^{-kt}.
/// struct Decay;
/// impl OdeSystem for Decay {
///     fn dim(&self) -> usize { 1 }
///     fn rhs(&self, _t: f64, y: &[f64], d: &mut [f64]) { d[0] = -2.0 * y[0]; }
///     fn jacobian(&self, _t: f64, _y: &[f64], jac: &mut Matrix) { jac[(0, 0)] = -2.0; }
///     fn has_analytic_jacobian(&self) -> bool { true }
/// }
/// impl SensOdeSystem for Decay {
///     fn n_params(&self) -> usize { 1 }
///     fn dfdk(&self, _t: f64, y: &[f64], out: &mut [f64]) { out[0] = -y[0]; }
/// }
/// # fn main() -> Result<(), paraspace_solvers::SolveFailure> {
/// let sol = Dopri5Sens::new().solve(&Decay, 0.0, &[1.0], &[1.0], &SolverOptions::default())?;
/// let exact = -1.0 * (-2.0f64).exp();
/// assert!((sol.sens[0][0] - exact).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dopri5Sens {
    _private: (),
}

impl Dopri5Sens {
    /// Creates the solver.
    pub fn new() -> Self {
        Dopri5Sens { _private: () }
    }

    /// Integrates state + sensitivities, sampling at `sample_times`.
    ///
    /// # Errors
    ///
    /// Exactly [`Dopri5`]'s failure modes, on the augmented system.
    pub fn solve<S: SensOdeSystem + ?Sized>(
        &self,
        system: &S,
        t0: f64,
        y0: &[f64],
        sample_times: &[f64],
        options: &SolverOptions,
    ) -> Result<SensSolution, SolveFailure> {
        let aug = AugmentedSensSystem::new(system);
        let y0_aug = aug.augmented_initial_state(y0);
        let sol = Dopri5::new().solve(&aug, t0, &y0_aug, sample_times, options)?;
        Ok(split_augmented(sol, system.dim(), system.n_params()))
    }
}

/// Per-solve workspace for [`Radau5Sens`]: the plain RADAU5 buffers plus
/// the staggered-sensitivity storage.
struct SensWorkspace {
    n: usize,
    p: usize,
    jac: Matrix,
    lu_real: Option<LuFactor>,
    lu_complex: Option<CluFactor>,
    z1: Vec<f64>,
    z2: Vec<f64>,
    z3: Vec<f64>,
    w1: Vec<f64>,
    w2: Vec<f64>,
    w3: Vec<f64>,
    f1: Vec<f64>,
    f2: Vec<f64>,
    f3: Vec<f64>,
    stage: Vec<f64>,
    rhs_real: Vec<f64>,
    rhs_cplx: Vec<Complex64>,
    scale: Vec<f64>,
    cont: [Vec<f64>; 4],
    cont_h: f64,
    have_cont: bool,
    y: Vec<f64>,
    f0: Vec<f64>,
    extrap: Vec<f64>,
    tmp: Vec<f64>,
    err_v: Vec<f64>,
    f_ref: Vec<f64>,
    sample_buf: Vec<f64>,
    // --- sensitivity state ---
    /// Current sensitivities, param-major (`sens[j·n + i] = ∂yᵢ/∂kⱼ`).
    sens: Vec<f64>,
    /// Stage Jacobians `J(y + Zᵢ)` at the converged collocation states.
    jac1: Matrix,
    jac2: Matrix,
    jac3: Matrix,
    /// Parameter forcings `∂f/∂k` at the converged stage states (`p×n`).
    fk1: Vec<f64>,
    fk2: Vec<f64>,
    fk3: Vec<f64>,
    /// Stage sensitivity increments `Vᵢ`, param-major (`p×n`).
    v1: Vec<f64>,
    v2: Vec<f64>,
    v3: Vec<f64>,
    /// Per-column transformed iterates / scratch (length `n`).
    sw1: Vec<f64>,
    sw2: Vec<f64>,
    sw3: Vec<f64>,
    g1: Vec<f64>,
    g2: Vec<f64>,
    g3: Vec<f64>,
    scale_s: Vec<f64>,
    /// Sensitivity dense-output coefficients (`p×n` each).
    cont_s: [Vec<f64>; 4],
    sens_sample_buf: Vec<f64>,
}

impl SensWorkspace {
    fn new(n: usize, p: usize) -> Self {
        let zn = || vec![0.0; n];
        let zpn = || vec![0.0; p * n];
        SensWorkspace {
            n,
            p,
            jac: Matrix::zeros(n, n),
            lu_real: None,
            lu_complex: None,
            z1: zn(),
            z2: zn(),
            z3: zn(),
            w1: zn(),
            w2: zn(),
            w3: zn(),
            f1: zn(),
            f2: zn(),
            f3: zn(),
            stage: zn(),
            rhs_real: zn(),
            rhs_cplx: vec![Complex64::ZERO; n],
            scale: zn(),
            cont: [zn(), zn(), zn(), zn()],
            cont_h: 0.0,
            have_cont: false,
            y: zn(),
            f0: zn(),
            extrap: zn(),
            tmp: zn(),
            err_v: zn(),
            f_ref: zn(),
            sample_buf: zn(),
            sens: zpn(),
            jac1: Matrix::zeros(n, n),
            jac2: Matrix::zeros(n, n),
            jac3: Matrix::zeros(n, n),
            fk1: zpn(),
            fk2: zpn(),
            fk3: zpn(),
            v1: zpn(),
            v2: zpn(),
            v3: zpn(),
            sw1: zn(),
            sw2: zn(),
            sw3: zn(),
            g1: zn(),
            g2: zn(),
            g3: zn(),
            scale_s: zn(),
            cont_s: [zpn(), zpn(), zpn(), zpn()],
            sens_sample_buf: zpn(),
        }
    }

    /// Evaluates the state collocation polynomial at
    /// `s = (t − t_accepted)/h` into `out` — identical to RADAU5's.
    fn eval_cont(&self, s: f64, out: &mut [f64]) {
        let c1 = (4.0 - SQ6) / 10.0;
        let c2 = (4.0 + SQ6) / 10.0;
        let c1m1 = c1 - 1.0;
        let c2m1 = c2 - 1.0;
        for i in 0..self.n {
            out[i] = self.cont[0][i]
                + s * (self.cont[1][i]
                    + (s - c2m1) * (self.cont[2][i] + (s - c1m1) * self.cont[3][i]));
        }
    }

    /// Evaluates every sensitivity column's collocation polynomial at `s`
    /// into `out` (`p×n`, param-major).
    fn eval_cont_sens(&self, s: f64, out: &mut [f64]) {
        let c1 = (4.0 - SQ6) / 10.0;
        let c2 = (4.0 + SQ6) / 10.0;
        let c1m1 = c1 - 1.0;
        let c2m1 = c2 - 1.0;
        for idx in 0..self.p * self.n {
            out[idx] = self.cont_s[0][idx]
                + s * (self.cont_s[1][idx]
                    + (s - c2m1) * (self.cont_s[2][idx] + (s - c1m1) * self.cont_s[3][idx]));
        }
    }
}

/// RADAU5 with staggered forward sensitivities.
///
/// The state integration is the unmodified [`Radau5`](crate::Radau5) step
/// loop — same Newton iteration, error estimate, controller, and
/// Jacobian-reuse policy — so the state trajectory and step statistics
/// counted by the state machinery are bitwise identical to the plain
/// solver. After each *accepted* step the `p` sensitivity columns are
/// advanced by solving the differentiated (linear) collocation equations
/// with the step's cached LU pair: per column, a short fixed-point
/// iteration of back-substitutions converging at the state Newton's rate.
/// Extra work surfaces in the returned stats as 3 Jacobian evaluations
/// per accepted step plus the sensitivity triangular solves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Radau5Sens {
    _private: (),
}

impl Radau5Sens {
    /// Creates the solver.
    pub fn new() -> Self {
        Radau5Sens { _private: () }
    }

    /// Integrates state + sensitivities, sampling at `sample_times`.
    ///
    /// # Errors
    ///
    /// Exactly [`Radau5`](crate::Radau5)'s failure modes.
    #[allow(clippy::too_many_lines)]
    pub fn solve<S: SensOdeSystem + ?Sized>(
        &self,
        system: &S,
        t0: f64,
        y0: &[f64],
        sample_times: &[f64],
        options: &SolverOptions,
    ) -> Result<SensSolution, SolveFailure> {
        let n = system.dim();
        let p = system.n_params();
        check_inputs(n, y0, t0, sample_times, options)?;
        let sparsity = system.jacobian_sparsity();
        let mut ws = SensWorkspace::new(n, p);
        let mut sol = SensSolution {
            solution: Solution::with_capacity(sample_times.len()),
            ..SensSolution::default()
        };
        let t_end = match sample_times.last() {
            Some(&t) => t,
            None => return Ok(sol),
        };

        let c1 = (4.0 - SQ6) / 10.0;
        let c2 = (4.0 + SQ6) / 10.0;
        let c1mc2 = c1 - c2;
        let dd1 = -(13.0 + 7.0 * SQ6) / 3.0;
        let dd2 = (-13.0 + 7.0 * SQ6) / 3.0;
        let dd3 = -1.0 / 3.0;
        let (u1, alph, beta) = (U1, ALPH, BETA);

        let mut t = t0;
        ws.y.copy_from_slice(y0);
        system.rhs(t, &ws.y, &mut ws.f0);
        sol.solution.stats.rhs_evals += 1;

        let mut next_sample = 0;
        while next_sample < sample_times.len() && sample_times[next_sample] <= t {
            sol.solution.times.push(sample_times[next_sample]);
            sol.solution.states.push(ws.y.clone());
            sol.sens.push(ws.sens.clone());
            next_sample += 1;
        }
        if next_sample == sample_times.len() {
            return Ok(sol);
        }

        let uround = f64::EPSILON;
        let fnewt = (10.0 * uround / options.rel_tol).max(0.03f64.min(options.rel_tol.sqrt()));

        let mut h = options
            .initial_step
            .unwrap_or_else(|| initial_step_size(&system, t, &ws.y, &ws.f0, 1.0, 3, options));
        sol.solution.stats.rhs_evals += usize::from(options.initial_step.is_none());
        h = h.min(options.max_step).min(t_end - t);

        let mut need_jacobian = true;
        let mut need_factor = true;
        let mut first = true;
        let mut last_rejected = false;
        let mut theta: f64;
        let mut faccon = 1.0f64;
        let mut hacc = h;
        let mut erracc = 1e-2f64;
        let mut steps_since_sample = 0usize;
        let mut singular_retries = 0usize;
        let mut newton_failures = 0usize;

        options.error_scale(&ws.y, &mut ws.scale);

        'steps: loop {
            if let Some(budget) = options.step_budget {
                if sol.solution.stats.steps >= budget {
                    return Err(SolveFailure {
                        error: SolverError::StepBudgetExhausted { t, budget },
                        stats: sol.solution.stats,
                    });
                }
            }
            if steps_since_sample >= options.max_steps {
                return Err(SolveFailure {
                    error: SolverError::MaxStepsExceeded { t, max_steps: options.max_steps },
                    stats: sol.solution.stats,
                });
            }
            h = h.min(options.max_step).min(t_end - t);
            if h <= uround * t.abs().max(1.0) {
                return Err(SolveFailure {
                    error: SolverError::StepSizeUnderflow { t },
                    stats: sol.solution.stats,
                });
            }

            if need_jacobian {
                system.jacobian(t, &ws.y, &mut ws.jac);
                sol.solution.stats.jacobian_evals += 1;
                if !system.has_analytic_jacobian() {
                    sol.solution.stats.rhs_evals += n + 1;
                }
                need_jacobian = false;
                need_factor = true;
            }
            if need_factor {
                let fac1 = u1 / h;
                let mut e1 = ws
                    .lu_real
                    .take()
                    .map(LuFactor::into_matrix)
                    .filter(|m| m.rows() == n && m.cols() == n)
                    .unwrap_or_else(|| Matrix::zeros(n, n));
                for (dst, &src) in e1.as_mut_slice().iter_mut().zip(ws.jac.as_slice()) {
                    *dst = -src;
                }
                for i in 0..n {
                    e1[(i, i)] += fac1;
                }
                let alphn = alph / h;
                let betan = beta / h;
                let mut e2 = ws
                    .lu_complex
                    .take()
                    .map(CluFactor::into_matrix)
                    .filter(|m| m.rows() == n && m.cols() == n)
                    .unwrap_or_else(|| CMatrix::zeros(n, n));
                for i in 0..n {
                    for j in 0..n {
                        e2[(i, j)] = Complex64::new(-ws.jac[(i, j)], 0.0);
                    }
                    e2[(i, i)] += Complex64::new(alphn, betan);
                }
                match (LuFactor::new(e1), CluFactor::new(e2)) {
                    (Ok(l1), Ok(l2)) => {
                        ws.lu_real = Some(l1);
                        ws.lu_complex = Some(l2);
                        sol.solution.stats.lu_decompositions += 2;
                        singular_retries = 0;
                    }
                    _ => {
                        singular_retries += 1;
                        if singular_retries > 8 {
                            return Err(SolveFailure {
                                error: SolverError::SingularIterationMatrix { t },
                                stats: sol.solution.stats,
                            });
                        }
                        h *= 0.5;
                        continue 'steps;
                    }
                }
                need_factor = false;
            }
            let fac1 = u1 / h;
            let alphn = alph / h;
            let betan = beta / h;

            // Newton starting values.
            if first || !ws.have_cont {
                ws.z1.fill(0.0);
                ws.z2.fill(0.0);
                ws.z3.fill(0.0);
                ws.w1.fill(0.0);
                ws.w2.fill(0.0);
                ws.w3.fill(0.0);
            } else {
                let ratio = h / ws.cont_h;
                let mut q = std::mem::take(&mut ws.extrap);
                for (ci, zi) in [(c1, 0usize), (c2, 1), (1.0, 2)] {
                    ws.eval_cont(ci * ratio, &mut q);
                    let z = match zi {
                        0 => &mut ws.z1,
                        1 => &mut ws.z2,
                        _ => &mut ws.z3,
                    };
                    for i in 0..n {
                        z[i] = q[i] - ws.cont[0][i];
                    }
                }
                ws.extrap = q;
                for i in 0..n {
                    ws.w1[i] = TI11 * ws.z1[i] + TI12 * ws.z2[i] + TI13 * ws.z3[i];
                    ws.w2[i] = TI21 * ws.z1[i] + TI22 * ws.z2[i] + TI23 * ws.z3[i];
                    ws.w3[i] = TI31 * ws.z1[i] + TI32 * ws.z2[i] + TI33 * ws.z3[i];
                }
            }

            // Simplified Newton iteration (identical to Radau5).
            faccon = faccon.max(uround).powf(0.8);
            theta = 2.0 * THET;
            let mut dyno_old = 0.0f64;
            let mut thq_old = 0.0f64;
            let mut converged = false;
            let mut newton_iters = 0usize;

            for newt in 0..NIT {
                newton_iters = newt + 1;
                for i in 0..n {
                    ws.stage[i] = ws.y[i] + ws.z1[i];
                }
                system.rhs(t + c1 * h, &ws.stage, &mut ws.f1);
                for i in 0..n {
                    ws.stage[i] = ws.y[i] + ws.z2[i];
                }
                system.rhs(t + c2 * h, &ws.stage, &mut ws.f2);
                for i in 0..n {
                    ws.stage[i] = ws.y[i] + ws.z3[i];
                }
                system.rhs(t + h, &ws.stage, &mut ws.f3);
                sol.solution.stats.rhs_evals += 3;
                sol.solution.stats.nonlinear_iters += 1;

                for i in 0..n {
                    let fw1 = TI11 * ws.f1[i] + TI12 * ws.f2[i] + TI13 * ws.f3[i];
                    let fw2 = TI21 * ws.f1[i] + TI22 * ws.f2[i] + TI23 * ws.f3[i];
                    let fw3 = TI31 * ws.f1[i] + TI32 * ws.f2[i] + TI33 * ws.f3[i];
                    ws.rhs_real[i] = fw1 - fac1 * ws.w1[i];
                    ws.rhs_cplx[i] = Complex64::new(
                        fw2 - (alphn * ws.w2[i] - betan * ws.w3[i]),
                        fw3 - (alphn * ws.w3[i] + betan * ws.w2[i]),
                    );
                }
                let lu_real = ws.lu_real.as_ref().expect("factorization exists");
                let lu_cplx = ws.lu_complex.as_ref().expect("factorization exists");
                lu_real.solve_in_place(&mut ws.rhs_real);
                lu_cplx.solve_in_place(&mut ws.rhs_cplx);
                sol.solution.stats.linear_solves += 2;

                let mut dyno = 0.0f64;
                for i in 0..n {
                    let d1 = ws.rhs_real[i];
                    let d2 = ws.rhs_cplx[i].re;
                    let d3 = ws.rhs_cplx[i].im;
                    ws.w1[i] += d1;
                    ws.w2[i] += d2;
                    ws.w3[i] += d3;
                    let s = ws.scale[i];
                    dyno += (d1 / s).powi(2) + (d2 / s).powi(2) + (d3 / s).powi(2);
                }
                let dyno = (dyno / (3 * n) as f64).sqrt();

                for i in 0..n {
                    ws.z1[i] = T11 * ws.w1[i] + T12 * ws.w2[i] + T13 * ws.w3[i];
                    ws.z2[i] = T21 * ws.w1[i] + T22 * ws.w2[i] + T23 * ws.w3[i];
                    ws.z3[i] = T31 * ws.w1[i] + ws.w2[i];
                }

                if !dyno.is_finite() {
                    break;
                }

                if newt > 0 {
                    let thq = dyno / dyno_old.max(f64::MIN_POSITIVE);
                    theta = if newt == 1 { thq } else { (thq * thq_old).sqrt() };
                    thq_old = thq;
                    if theta < 0.99 {
                        faccon = theta / (1.0 - theta);
                        let remaining = (NIT - 1 - newt) as i32;
                        let dyth = faccon * dyno * theta.powi(remaining) / fnewt;
                        if dyth >= 1.0 {
                            break;
                        }
                    } else {
                        break;
                    }
                }
                dyno_old = dyno.max(uround);

                if faccon * dyno <= fnewt && newt > 0 {
                    converged = true;
                    break;
                }
                if newt == 0 && dyno <= 1e-1 * fnewt {
                    converged = true;
                    break;
                }
            }

            if !converged {
                newton_failures += 1;
                if newton_failures > 20 {
                    return Err(SolveFailure {
                        error: SolverError::NonlinearSolveFailed { t, failures: newton_failures },
                        stats: sol.solution.stats,
                    });
                }
                sol.solution.stats.rejected += 1;
                sol.solution.stats.steps += 1;
                steps_since_sample += 1;
                need_jacobian = true;
                need_factor = true;
                h *= 0.5;
                ws.have_cont = false;
                continue 'steps;
            }
            newton_failures = 0;

            // Error estimate (identical to Radau5).
            let lu_real = ws.lu_real.as_ref().expect("factorization exists");
            let hee1 = dd1 / h;
            let hee2 = dd2 / h;
            let hee3 = dd3 / h;
            for i in 0..n {
                ws.tmp[i] = hee1 * ws.z1[i] + hee2 * ws.z2[i] + hee3 * ws.z3[i];
                ws.err_v[i] = ws.tmp[i] + ws.f0[i];
            }
            lu_real.solve_in_place(&mut ws.err_v);
            sol.solution.stats.linear_solves += 1;
            let mut err = weighted_rms_norm(&ws.err_v, &ws.scale).max(1e-10);

            if err >= 1.0 && (first || last_rejected) {
                for i in 0..n {
                    ws.stage[i] = ws.y[i] + ws.err_v[i];
                }
                system.rhs(t, &ws.stage, &mut ws.f_ref);
                sol.solution.stats.rhs_evals += 1;
                for i in 0..n {
                    ws.err_v[i] = ws.f_ref[i] + ws.tmp[i];
                }
                lu_real.solve_in_place(&mut ws.err_v);
                sol.solution.stats.linear_solves += 1;
                err = weighted_rms_norm(&ws.err_v, &ws.scale).max(1e-10);
            }

            sol.solution.stats.steps += 1;
            steps_since_sample += 1;

            let fac = SAFE
                .min(SAFE * (1.0 + 2.0 * NIT as f64) / (newton_iters as f64 + 2.0 * NIT as f64));
            let mut quot = (err.powf(0.25) / fac).clamp(FACR, FACL);
            let mut h_new = h / quot;

            if err < 1.0 {
                // Accept.
                sol.solution.stats.accepted += 1;
                if !first {
                    let facgus =
                        ((hacc / h) * (err * err / erracc).powf(0.25) / SAFE).clamp(FACR, FACL);
                    quot = quot.max(facgus);
                    h_new = h / quot;
                }
                hacc = h;
                erracc = err.max(1e-2);

                // --- Staggered sensitivity solves (the AMICI trick) ----
                // Differentiating the converged collocation equations
                // w.r.t. kⱼ gives the linear stage system
                //   Vᵢ = h Σₗ aᵢₗ [ Jₗ·(s + Vₗ) + Fₗⱼ ],  Jₗ = J(y + Zₗ),
                // whose transformed fixed-point iteration uses the exact
                // residual with the step's cached LU pair — only
                // back-substitutions, no new factorizations. The state
                // trajectory is untouched: nothing below writes y, z, h,
                // or the controller state.
                for i in 0..n {
                    ws.stage[i] = ws.y[i] + ws.z1[i];
                }
                system.jacobian(t + c1 * h, &ws.stage, &mut ws.jac1);
                system.dfdk(t + c1 * h, &ws.stage, &mut ws.fk1);
                for i in 0..n {
                    ws.stage[i] = ws.y[i] + ws.z2[i];
                }
                system.jacobian(t + c2 * h, &ws.stage, &mut ws.jac2);
                system.dfdk(t + c2 * h, &ws.stage, &mut ws.fk2);
                for i in 0..n {
                    ws.stage[i] = ws.y[i] + ws.z3[i];
                }
                system.jacobian(t + h, &ws.stage, &mut ws.jac3);
                system.dfdk(t + h, &ws.stage, &mut ws.fk3);
                sol.solution.stats.jacobian_evals += 3;
                if !system.has_analytic_jacobian() {
                    sol.solution.stats.rhs_evals += 3 * (n + 1);
                }

                let c2m1 = c2 - 1.0;
                let c1m1 = c1 - 1.0;
                for j in 0..p {
                    let col = j * n..(j + 1) * n;
                    // Convergence scale from the column's own magnitude
                    // (updated against the running iterate below).
                    options.error_scale(&ws.sens[col.clone()], &mut ws.scale_s);
                    ws.v1[col.clone()].fill(0.0);
                    ws.v2[col.clone()].fill(0.0);
                    ws.v3[col.clone()].fill(0.0);
                    ws.sw1.fill(0.0);
                    ws.sw2.fill(0.0);
                    ws.sw3.fill(0.0);
                    for _ in 0..SENS_NIT {
                        // Gₗ = Jₗ·(s + Vₗ) + Fₗⱼ, streamed over the
                        // Jacobian sparsity when the system exposes one.
                        for (jacm, v, g, fk) in [
                            (&ws.jac1, &ws.v1, &mut ws.g1, &ws.fk1),
                            (&ws.jac2, &ws.v2, &mut ws.g2, &ws.fk2),
                            (&ws.jac3, &ws.v3, &mut ws.g3, &ws.fk3),
                        ] {
                            for i in 0..n {
                                ws.tmp[i] = ws.sens[j * n + i] + v[j * n + i];
                            }
                            match &sparsity {
                                Some(pat) => {
                                    for i in 0..n {
                                        let mut acc = fk[j * n + i];
                                        for &m in pat.row(i) {
                                            acc += jacm[(i, m as usize)] * ws.tmp[m as usize];
                                        }
                                        g[i] = acc;
                                    }
                                }
                                None => {
                                    for i in 0..n {
                                        let mut acc = fk[j * n + i];
                                        for m in 0..n {
                                            acc += jacm[(i, m)] * ws.tmp[m];
                                        }
                                        g[i] = acc;
                                    }
                                }
                            }
                        }
                        for i in 0..n {
                            let gw1 = TI11 * ws.g1[i] + TI12 * ws.g2[i] + TI13 * ws.g3[i];
                            let gw2 = TI21 * ws.g1[i] + TI22 * ws.g2[i] + TI23 * ws.g3[i];
                            let gw3 = TI31 * ws.g1[i] + TI32 * ws.g2[i] + TI33 * ws.g3[i];
                            ws.rhs_real[i] = gw1 - fac1 * ws.sw1[i];
                            ws.rhs_cplx[i] = Complex64::new(
                                gw2 - (alphn * ws.sw2[i] - betan * ws.sw3[i]),
                                gw3 - (alphn * ws.sw3[i] + betan * ws.sw2[i]),
                            );
                        }
                        let lu_real = ws.lu_real.as_ref().expect("factorization exists");
                        let lu_cplx = ws.lu_complex.as_ref().expect("factorization exists");
                        lu_real.solve_in_place(&mut ws.rhs_real);
                        lu_cplx.solve_in_place(&mut ws.rhs_cplx);
                        sol.solution.stats.linear_solves += 2;

                        let mut dyno = 0.0f64;
                        for i in 0..n {
                            let d1 = ws.rhs_real[i];
                            let d2 = ws.rhs_cplx[i].re;
                            let d3 = ws.rhs_cplx[i].im;
                            ws.sw1[i] += d1;
                            ws.sw2[i] += d2;
                            ws.sw3[i] += d3;
                            // Track the growing column so early steps (where
                            // s starts at 0 but V is O(h·F)) are judged
                            // relative to the incoming magnitude.
                            let sc = ws.scale_s[i]
                                .max(options.abs_tol + options.rel_tol * ws.v3[j * n + i].abs());
                            dyno += (d1 / sc).powi(2) + (d2 / sc).powi(2) + (d3 / sc).powi(2);
                        }
                        let dyno = (dyno / (3 * n) as f64).sqrt();

                        for i in 0..n {
                            ws.v1[j * n + i] = T11 * ws.sw1[i] + T12 * ws.sw2[i] + T13 * ws.sw3[i];
                            ws.v2[j * n + i] = T21 * ws.sw1[i] + T22 * ws.sw2[i] + T23 * ws.sw3[i];
                            ws.v3[j * n + i] = T31 * ws.sw1[i] + ws.sw2[i];
                        }
                        if !dyno.is_finite() || dyno <= fnewt {
                            break;
                        }
                    }
                    // Sensitivity dense-output coefficients (same
                    // collocation construction as the state, z → V).
                    for i in 0..n {
                        let v1i = ws.v1[j * n + i];
                        let v2i = ws.v2[j * n + i];
                        let v3i = ws.v3[j * n + i];
                        ws.cont_s[0][j * n + i] = ws.sens[j * n + i] + v3i;
                        let c1_term = (v2i - v3i) / c2m1;
                        let ak = (v1i - v2i) / c1mc2;
                        let mut acont3 = v1i / c1;
                        acont3 = (ak - acont3) / c2;
                        let c2_term = (ak - c1_term) / c1m1;
                        ws.cont_s[1][j * n + i] = c1_term;
                        ws.cont_s[2][j * n + i] = c2_term;
                        ws.cont_s[3][j * n + i] = c2_term - acont3;
                    }
                }
                // --- end staggered sensitivity solves ------------------

                // State dense-output coefficients.
                for i in 0..n {
                    let y_new = ws.y[i] + ws.z3[i];
                    ws.cont[0][i] = y_new;
                    let c1_term = (ws.z2[i] - ws.z3[i]) / c2m1;
                    let ak = (ws.z1[i] - ws.z2[i]) / c1mc2;
                    let mut acont3 = ws.z1[i] / c1;
                    acont3 = (ak - acont3) / c2;
                    let c2_term = (ak - c1_term) / c1m1;
                    ws.cont[1][i] = c1_term;
                    ws.cont[2][i] = c2_term;
                    ws.cont[3][i] = c2_term - acont3;
                }
                ws.cont_h = h;
                ws.have_cont = true;

                let t_new = t + h;
                let mut sample_buf = std::mem::take(&mut ws.sample_buf);
                let mut sens_buf = std::mem::take(&mut ws.sens_sample_buf);
                while next_sample < sample_times.len() && sample_times[next_sample] <= t_new {
                    let ts = sample_times[next_sample];
                    let s = ((ts - t_new) / h).clamp(-1.0, 0.0);
                    ws.eval_cont(s, &mut sample_buf);
                    ws.eval_cont_sens(s, &mut sens_buf);
                    sol.solution.times.push(ts);
                    sol.solution.states.push(sample_buf.clone());
                    sol.sens.push(sens_buf.clone());
                    next_sample += 1;
                    steps_since_sample = 0;
                }
                ws.sample_buf = sample_buf;
                ws.sens_sample_buf = sens_buf;

                // Advance state and sensitivities (stiffly accurate).
                for i in 0..n {
                    ws.y[i] += ws.z3[i];
                }
                for idx in 0..p * n {
                    ws.sens[idx] += ws.v3[idx];
                }
                if !ws.y.iter().all(|v| v.is_finite()) || !ws.sens.iter().all(|v| v.is_finite()) {
                    return Err(SolveFailure {
                        error: SolverError::NonFiniteState { t: t_new },
                        stats: sol.solution.stats,
                    });
                }
                t = t_new;
                if next_sample == sample_times.len() {
                    return Ok(sol);
                }

                system.rhs(t, &ws.y, &mut ws.f0);
                sol.solution.stats.rhs_evals += 1;
                options.error_scale(&ws.y, &mut ws.scale);

                need_jacobian = theta > THET;
                let quot_ratio = h_new / h;
                if !need_jacobian && (QUOT1..=QUOT2).contains(&quot_ratio) {
                    h_new = h;
                } else {
                    need_factor = true;
                }
                if h_new > options.max_step {
                    need_factor = true;
                }
                h = h_new;
                first = false;
                last_rejected = false;
            } else {
                sol.solution.stats.rejected += 1;
                last_rejected = true;
                h = if first { 0.1 * h } else { h_new };
                need_factor = true;
                if theta > THET {
                    need_jacobian = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Radau5, SolverOptions};

    /// y' = -k·y (k = 2): y = e^{-kt}, ∂y/∂k = -t·e^{-kt}.
    struct Decay {
        k: f64,
    }
    impl OdeSystem for Decay {
        fn dim(&self) -> usize {
            1
        }
        fn rhs(&self, _t: f64, y: &[f64], d: &mut [f64]) {
            d[0] = -self.k * y[0];
        }
        fn jacobian(&self, _t: f64, _y: &[f64], jac: &mut Matrix) {
            jac[(0, 0)] = -self.k;
        }
        fn has_analytic_jacobian(&self) -> bool {
            true
        }
    }
    impl SensOdeSystem for Decay {
        fn n_params(&self) -> usize {
            1
        }
        fn dfdk(&self, _t: f64, y: &[f64], out: &mut [f64]) {
            out[0] = -y[0];
        }
    }

    /// Robertson with all three rate constants as sensitivity parameters.
    struct Robertson {
        k: [f64; 3],
    }
    impl OdeSystem for Robertson {
        fn dim(&self) -> usize {
            3
        }
        fn rhs(&self, _t: f64, y: &[f64], d: &mut [f64]) {
            let [k1, k2, k3] = self.k;
            d[0] = -k1 * y[0] + k2 * y[1] * y[2];
            d[1] = k1 * y[0] - k2 * y[1] * y[2] - k3 * y[1] * y[1];
            d[2] = k3 * y[1] * y[1];
        }
        fn jacobian(&self, _t: f64, y: &[f64], jac: &mut Matrix) {
            let [k1, k2, k3] = self.k;
            jac[(0, 0)] = -k1;
            jac[(0, 1)] = k2 * y[2];
            jac[(0, 2)] = k2 * y[1];
            jac[(1, 0)] = k1;
            jac[(1, 1)] = -k2 * y[2] - 2.0 * k3 * y[1];
            jac[(1, 2)] = -k2 * y[1];
            jac[(2, 0)] = 0.0;
            jac[(2, 1)] = 2.0 * k3 * y[1];
            jac[(2, 2)] = 0.0;
        }
        fn has_analytic_jacobian(&self) -> bool {
            true
        }
    }
    impl SensOdeSystem for Robertson {
        fn n_params(&self) -> usize {
            3
        }
        fn dfdk(&self, _t: f64, y: &[f64], out: &mut [f64]) {
            // Column 0: ∂f/∂k1; column 1: ∂f/∂k2; column 2: ∂f/∂k3.
            out[0] = -y[0];
            out[1] = y[0];
            out[2] = 0.0;
            out[3] = y[1] * y[2];
            out[4] = -y[1] * y[2];
            out[5] = 0.0;
            out[6] = 0.0;
            out[7] = -y[1] * y[1];
            out[8] = y[1] * y[1];
        }
    }

    fn robertson_k() -> [f64; 3] {
        [0.04, 1e4, 3e7]
    }

    #[test]
    fn dopri5_sens_matches_analytic_decay() {
        let sys = Decay { k: 2.0 };
        let times = [0.5, 1.0, 2.0];
        let sol =
            Dopri5Sens::new().solve(&sys, 0.0, &[1.0], &times, &SolverOptions::default()).unwrap();
        for (i, &t) in times.iter().enumerate() {
            let exact_y = (-2.0 * t).exp();
            let exact_s = -t * exact_y;
            assert!((sol.solution.state_at(i)[0] - exact_y).abs() < 1e-6);
            assert!(
                (sol.sens[i][0] - exact_s).abs() < 1e-6,
                "t={t}: sens {} vs exact {exact_s}",
                sol.sens[i][0]
            );
        }
    }

    #[test]
    fn radau5_sens_matches_analytic_decay() {
        let sys = Decay { k: 2.0 };
        let times = [0.5, 1.0, 2.0];
        let opts = SolverOptions::with_tolerances(1e-8, 1e-12);
        let sol = Radau5Sens::new().solve(&sys, 0.0, &[1.0], &times, &opts).unwrap();
        for (i, &t) in times.iter().enumerate() {
            let exact_s = -t * (-2.0 * t).exp();
            assert!(
                (sol.sens[i][0] - exact_s).abs() < 1e-6,
                "t={t}: sens {} vs exact {exact_s}",
                sol.sens[i][0]
            );
        }
    }

    #[test]
    fn radau5_sens_state_trajectory_is_bitwise_plain_radau5() {
        // The staggered solves must not perturb the state path: states,
        // step counts, and acceptance decisions all identical.
        let sys = Robertson { k: robertson_k() };
        let times = [0.4, 4.0, 40.0, 400.0];
        let opts = SolverOptions::default();
        let plain = Radau5::new().solve(&sys, 0.0, &[1.0, 0.0, 0.0], &times, &opts).unwrap();
        let sens = Radau5Sens::new().solve(&sys, 0.0, &[1.0, 0.0, 0.0], &times, &opts).unwrap();
        assert_eq!(plain.states, sens.solution.states, "state samples must be bitwise equal");
        assert_eq!(plain.stats.steps, sens.solution.stats.steps);
        assert_eq!(plain.stats.accepted, sens.solution.stats.accepted);
        assert_eq!(plain.stats.rejected, sens.solution.stats.rejected);
        assert_eq!(plain.stats.rhs_evals, sens.solution.stats.rhs_evals);
    }

    /// Central finite-difference sensitivities from two full solves.
    fn fd_sens_radau(
        k: [f64; 3],
        which: usize,
        times: &[f64],
        opts: &SolverOptions,
    ) -> Vec<Vec<f64>> {
        let h = 1e-6 * k[which].abs().max(1e-12);
        let mut kp = k;
        kp[which] += h;
        let mut km = k;
        km[which] -= h;
        let up =
            Radau5::new().solve(&Robertson { k: kp }, 0.0, &[1.0, 0.0, 0.0], times, opts).unwrap();
        let um =
            Radau5::new().solve(&Robertson { k: km }, 0.0, &[1.0, 0.0, 0.0], times, opts).unwrap();
        up.states
            .iter()
            .zip(&um.states)
            .map(|(a, b)| a.iter().zip(b).map(|(x, y)| (x - y) / (2.0 * h)).collect())
            .collect()
    }

    #[test]
    fn radau5_sens_matches_finite_differences_on_robertson() {
        let k = robertson_k();
        let sys = Robertson { k };
        let times = [0.4, 4.0, 40.0];
        let opts = SolverOptions::with_tolerances(1e-10, 1e-14);
        let sol = Radau5Sens::new().solve(&sys, 0.0, &[1.0, 0.0, 0.0], &times, &opts).unwrap();
        for which in 0..3 {
            let fd = fd_sens_radau(k, which, &times, &opts);
            for (s_idx, fd_row) in fd.iter().enumerate() {
                for i in 0..3 {
                    let a = sol.sens[s_idx][which * 3 + i];
                    let f = fd_row[i];
                    let scale = a.abs().max(f.abs()).max(1e-12 / k[which]);
                    assert!(
                        (a - f).abs() <= 1e-4 * scale,
                        "k{which}, sample {s_idx}, species {i}: analytic {a} vs FD {f}"
                    );
                }
            }
        }
    }

    #[test]
    fn dopri5_and_radau_sens_agree_on_nonstiff_problem() {
        let sys = Decay { k: 0.7 };
        let times = [1.0, 3.0];
        let opts = SolverOptions::with_tolerances(1e-9, 1e-13);
        let a = Dopri5Sens::new().solve(&sys, 0.0, &[2.0], &times, &opts).unwrap();
        let b = Radau5Sens::new().solve(&sys, 0.0, &[2.0], &times, &opts).unwrap();
        for i in 0..times.len() {
            assert!((a.sens[i][0] - b.sens[i][0]).abs() < 1e-6);
        }
    }

    #[test]
    fn samples_at_t0_carry_zero_sensitivity() {
        let sys = Decay { k: 1.0 };
        let sol = Radau5Sens::new()
            .solve(&sys, 0.0, &[1.0], &[0.0, 1.0], &SolverOptions::default())
            .unwrap();
        assert_eq!(sol.sens[0], vec![0.0]);
        assert!(sol.sens[1][0] != 0.0);
        let empty =
            Radau5Sens::new().solve(&sys, 0.0, &[1.0], &[], &SolverOptions::default()).unwrap();
        assert!(empty.solution.is_empty() && empty.sens.is_empty());
    }
}
