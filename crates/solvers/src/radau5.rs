//! The Radau IIA method of order 5 (RADAU5).
//!
//! A faithful reimplementation of the Hairer–Wanner design for stiff
//! systems: the 3-stage Radau IIA collocation method, solved per step by a
//! simplified Newton iteration on transformed variables `w = (T⁻¹ ⊗ I) z`,
//! which block-diagonalizes the iteration matrix into **one real system**
//! `(γ/h·I − J)` and **one complex system** `((α+iβ)/h·I − J)` — the two LU
//! factorizations the GPU engine hands to its batched-LU substrate. The
//! method is strongly A-stable and S-stable (stiffly accurate), which is why
//! the engine routes every stiff or DOPRI5-defeated simulation here.
//!
//! Features carried over from the reference design: Jacobian reuse governed
//! by the Newton convergence rate `θ` (refresh only when `θ > 0.001`),
//! factorization reuse when the step barely changes, Gustafsson predictive
//! step control, embedded 3rd-order error estimate with the refined
//! re-evaluation on first/rejected steps, collocation-polynomial dense
//! output, and Newton extrapolation from the previous collocation
//! polynomial.

use crate::step::{clamp_step, samples_at_start, step_limits};
use crate::system::check_inputs;
use crate::{
    initial_step_size, OdeSolver, OdeSystem, Solution, SolveFailure, SolverError, SolverOptions,
    SolverScratch, StepStats,
};
use paraspace_linalg::{weighted_rms_norm, CluFactor, Complex64, LuFactor, Matrix};

// Collocation-node radical √6 and the inverse eigenvalues of the Radau IIA
// coefficient matrix A, hoisted to compile-time constants shared with the
// lane-batched kernel ([`crate::Radau5Batch`]). The literals are the exact
// shortest-round-trip decimal forms of the values the old per-call helpers
// (`6.0f64.sqrt()` and the cube-root eigenvalue derivation) produced, so
// hoisting changes no result bit anywhere; `constant_bit_patterns_are_pinned`
// below proves it.
pub(crate) const SQ6: f64 = 2.449489742783178;
/// γ = U1: the real inverse eigenvalue (E1 carries γ/h on its diagonal).
pub(crate) const U1: f64 = 3.6378342527444962;
/// α of the complex inverse-eigenvalue pair α ± iβ, already divided by |λ|².
pub(crate) const ALPH: f64 = 2.6810828736277523;
/// β of the complex inverse-eigenvalue pair α ± iβ, already divided by |λ|².
pub(crate) const BETA: f64 = 3.0504301992474105;

// Transformation matrices T, T⁻¹ (Hairer & Wanner, radau5.f); shared with
// the lane-batched kernel.
pub(crate) const T11: f64 = 0.09123239487089295;
pub(crate) const T12: f64 = -0.1412552950209542;
pub(crate) const T13: f64 = -0.030029194105147424;
pub(crate) const T21: f64 = 0.241717932707107;
pub(crate) const T22: f64 = 0.204_129_352_293_799_93;
pub(crate) const T23: f64 = 0.3829421127572619;
pub(crate) const T31: f64 = 0.966048182615093;
// T32 = 1, T33 = 0.
pub(crate) const TI11: f64 = 4.325579890063155;
pub(crate) const TI12: f64 = 0.3391992518158099;
pub(crate) const TI13: f64 = 0.541_770_539_935_874_9;
pub(crate) const TI21: f64 = -4.178718591551905;
pub(crate) const TI22: f64 = -0.327_682_820_761_062_4;
pub(crate) const TI23: f64 = 0.476_623_554_500_550_44;
pub(crate) const TI31: f64 = -0.502_872_634_945_786_9;
pub(crate) const TI32: f64 = 2.571926949855605;
pub(crate) const TI33: f64 = -0.596_039_204_828_224_9;

// Controller constants (radau5.f defaults); shared with the lane-batched
// kernel.
pub(crate) const NIT: usize = 7;
pub(crate) const SAFE: f64 = 0.9;
pub(crate) const THET: f64 = 0.001;
pub(crate) const FACL: f64 = 5.0; // max shrink: h/5
pub(crate) const FACR: f64 = 0.125; // max growth: h/0.125 = 8h
pub(crate) const QUOT1: f64 = 1.0;
pub(crate) const QUOT2: f64 = 1.2;

/// The RADAU5 solver.
///
/// # Example
///
/// ```
/// use paraspace_solvers::{FnSystem, OdeSolver, Radau5, SolverOptions};
///
/// # fn main() -> Result<(), paraspace_solvers::SolveFailure> {
/// // Severely stiff: y' = -10⁵(y - sin t) + cos t, exact y = sin t for y(0)=0.
/// let sys = FnSystem::new(1, |t, y, d| d[0] = -1e5 * (y[0] - t.sin()) + t.cos());
/// let sol = Radau5::new().solve(&sys, 0.0, &[0.0], &[1.0], &SolverOptions::default())?;
/// assert!((sol.state_at(0)[0] - 1.0f64.sin()).abs() < 1e-5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Radau5 {
    _private: (),
}

impl Radau5 {
    /// Creates the solver.
    pub fn new() -> Self {
        Radau5 { _private: () }
    }
}

/// Per-integration mutable state, kept in one struct so the step routine
/// stays readable — and poolable across solves via
/// [`SolverScratch`](crate::SolverScratch).
pub(crate) struct RadauWorkspace {
    n: usize,
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
    // Dense output / extrapolation polynomial of the last accepted step.
    cont: [Vec<f64>; 4],
    cont_h: f64,
    have_cont: bool,
    // Pooled state / per-step buffers (all fully written before read).
    y: Vec<f64>,
    f0: Vec<f64>,
    extrap: Vec<f64>,
    tmp: Vec<f64>,
    err_v: Vec<f64>,
    f_ref: Vec<f64>,
    sample_buf: Vec<f64>,
    // Retired iteration-matrix storage, reclaimed so a re-factorization
    // reuses the allocation instead of making a new one.
    e1_store: Option<Matrix>,
    e2_store: Option<Vec<f64>>,
}

impl RadauWorkspace {
    pub(crate) fn new(n: usize) -> Self {
        let zeros = || vec![0.0; n];
        RadauWorkspace {
            n,
            jac: Matrix::zeros(n, n),
            lu_real: None,
            lu_complex: None,
            z1: zeros(),
            z2: zeros(),
            z3: zeros(),
            w1: zeros(),
            w2: zeros(),
            w3: zeros(),
            f1: zeros(),
            f2: zeros(),
            f3: zeros(),
            stage: zeros(),
            rhs_real: zeros(),
            rhs_cplx: vec![Complex64::ZERO; n],
            scale: zeros(),
            cont: [zeros(), zeros(), zeros(), zeros()],
            cont_h: 0.0,
            have_cont: false,
            y: zeros(),
            f0: zeros(),
            extrap: zeros(),
            tmp: zeros(),
            err_v: zeros(),
            f_ref: zeros(),
            sample_buf: zeros(),
            e1_store: None,
            e2_store: None,
        }
    }

    /// The system dimension this workspace is sized for.
    pub(crate) fn dim(&self) -> usize {
        self.n
    }

    /// Resets per-integration flags for a fresh solve, keeping every buffer
    /// (and reclaiming the previous solve's LU storage for reuse).
    pub(crate) fn reset(&mut self) {
        self.cont_h = 0.0;
        self.have_cont = false;
        if let Some(lu) = self.lu_real.take() {
            self.e1_store = Some(lu.into_matrix());
        }
        if let Some(lu) = self.lu_complex.take() {
            self.e2_store = Some(lu.into_planes());
        }
    }
}

/// Dense-output coefficients of an accepted step from its collocation
/// increments: `cont[0] = y + z3` (the new value) and the three divided
/// differences of `(z1, z2, z3)` over the nodes `c1, c2, 1`. Elementwise, so
/// the sensitivity corrector builds its polynomial from `(s, V1, V2, V3)`
/// with the same call.
pub(crate) fn set_cont(cont: &mut [Vec<f64>; 4], y: &[f64], z1: &[f64], z2: &[f64], z3: &[f64]) {
    let c1 = (4.0 - SQ6) / 10.0;
    let c2 = (4.0 + SQ6) / 10.0;
    let c1mc2 = c1 - c2;
    let c1m1 = c1 - 1.0;
    let c2m1 = c2 - 1.0;
    for i in 0..y.len() {
        cont[0][i] = y[i] + z3[i];
        let c1_term = (z2[i] - z3[i]) / c2m1;
        let ak = (z1[i] - z2[i]) / c1mc2;
        let mut acont3 = z1[i] / c1;
        acont3 = (ak - acont3) / c2;
        let c2_term = (ak - c1_term) / c1m1;
        cont[1][i] = c1_term;
        cont[2][i] = c2_term;
        cont[3][i] = c2_term - acont3;
    }
}

/// Evaluates the collocation polynomial [`set_cont`] stored at
/// `s = (t − t_accepted)/h_used` (`s ∈ [−1, 0]` interpolates, `s > 0`
/// extrapolates) into `out`.
pub(crate) fn eval_cont(cont: &[Vec<f64>; 4], s: f64, out: &mut [f64]) {
    let c1 = (4.0 - SQ6) / 10.0;
    let c2 = (4.0 + SQ6) / 10.0;
    let c1m1 = c1 - 1.0;
    let c2m1 = c2 - 1.0;
    for i in 0..out.len() {
        out[i] =
            cont[0][i] + s * (cont[1][i] + (s - c2m1) * (cont[2][i] + (s - c1m1) * cont[3][i]));
    }
}

/// A converged, accepted step as a [`StepHook`] sees it, before the state
/// advances: `y` is still the value at `t`, `z1..z3` the collocation
/// increments at `t + c1·h`, `t + c2·h`, `t + h`, and the LU pair factors
/// the step's iteration matrices `γ/h·I − J` and `(α+iβ)/h·I − J`.
pub(crate) struct AcceptedStep<'a> {
    pub(crate) t: f64,
    pub(crate) h: f64,
    pub(crate) y: &'a [f64],
    pub(crate) z1: &'a [f64],
    pub(crate) z2: &'a [f64],
    pub(crate) z3: &'a [f64],
    pub(crate) lu_real: &'a LuFactor,
    pub(crate) lu_cplx: &'a CluFactor,
    /// The Newton stopping tolerance of this solve.
    pub(crate) fnewt: f64,
}

/// Extra per-step state carried through the RADAU5 step loop without
/// touching it: the loop calls the hook at the four points where carried
/// state must move with the trajectory, and the hook can read the step but
/// never write it, so the state path is the plain solver's by construction.
/// `()` is the plain solver (every call compiles away);
/// [`Radau5Sens`](crate::Radau5Sens) hangs its sensitivity columns here.
pub(crate) trait StepHook {
    /// A sample at or before `t0` was delivered from the initial state.
    fn initial_sample(&mut self) {}
    /// A step was accepted; `stats` takes whatever work the hook spends.
    fn accepted(&mut self, _step: &AcceptedStep<'_>, _stats: &mut StepStats) {}
    /// A sample inside the accepted step was delivered at `s ∈ [−1, 0]`.
    fn sample(&mut self, _s: f64) {}
    /// The state advanced to the end of the accepted step. Returning
    /// `false` fails the solve as a non-finite state.
    fn advance(&mut self) -> bool {
        true
    }
}

impl StepHook for () {}

impl OdeSolver for Radau5 {
    fn name(&self) -> &'static str {
        "radau5"
    }

    fn solve(
        &self,
        system: &dyn OdeSystem,
        t0: f64,
        y0: &[f64],
        sample_times: &[f64],
        options: &SolverOptions,
    ) -> Result<Solution, SolveFailure> {
        self.solve_impl(
            system,
            t0,
            y0,
            sample_times,
            options,
            &mut RadauWorkspace::new(system.dim()),
            &mut (),
        )
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
        self.solve_impl(system, t0, y0, sample_times, options, scratch.radau(system.dim()), &mut ())
    }
}

impl Radau5 {
    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    pub(crate) fn solve_impl<H: StepHook>(
        &self,
        system: &dyn OdeSystem,
        t0: f64,
        y0: &[f64],
        sample_times: &[f64],
        options: &SolverOptions,
        ws: &mut RadauWorkspace,
        hook: &mut H,
    ) -> Result<Solution, SolveFailure> {
        let n = system.dim();
        check_inputs(n, y0, t0, sample_times, options)?;
        let mut sol = Solution::with_capacity(sample_times.len());
        let t_end = match sample_times.last() {
            Some(&t) => t,
            None => return Ok(sol),
        };

        let c1 = (4.0 - SQ6) / 10.0;
        let c2 = (4.0 + SQ6) / 10.0;
        let dd1 = -(13.0 + 7.0 * SQ6) / 3.0;
        let dd2 = (-13.0 + 7.0 * SQ6) / 3.0;
        let dd3 = -1.0 / 3.0;
        let (u1, alph, beta) = (U1, ALPH, BETA);

        let mut t = t0;
        ws.y.copy_from_slice(y0);
        system.rhs(t, &ws.y, &mut ws.f0);
        sol.stats.rhs_evals += 1;

        let mut next_sample = samples_at_start(&mut sol, sample_times, t, y0);
        for _ in 0..next_sample {
            hook.initial_sample();
        }
        if next_sample == sample_times.len() {
            return Ok(sol);
        }

        // Newton stopping tolerance (radau5's FNEWT).
        let uround = f64::EPSILON;
        let fnewt = (10.0 * uround / options.rel_tol).max(0.03f64.min(options.rel_tol.sqrt()));

        let mut h = options
            .initial_step
            .unwrap_or_else(|| initial_step_size(&system, t, &ws.y, &ws.f0, 3, options));
        sol.stats.rhs_evals += usize::from(options.initial_step.is_none());
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
            if let Some(error) = step_limits(sol.stats.steps, steps_since_sample, t, options) {
                return Err(SolveFailure { error, stats: sol.stats });
            }
            h = clamp_step(h, t, t_end, options)
                .map_err(|error| SolveFailure { error, stats: sol.stats })?;

            if need_jacobian {
                system.jacobian(t, &ws.y, &mut ws.jac);
                sol.stats.jacobian_evals += 1;
                if !system.has_analytic_jacobian() {
                    sol.stats.rhs_evals += n + 1;
                }
                need_jacobian = false;
                need_factor = true;
            }
            if need_factor {
                let fac1 = u1 / h;
                // Build E1 = γ/h·I − J into reclaimed storage: the retired
                // factorization (or the reclaim slot) donates its matrix.
                let mut e1 = ws
                    .lu_real
                    .take()
                    .map(LuFactor::into_matrix)
                    .or_else(|| ws.e1_store.take())
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
                // E2 = (α + iβ)/h·I − J as its real and imaginary planes.
                let mut e2 = ws
                    .lu_complex
                    .take()
                    .map(CluFactor::into_planes)
                    .or_else(|| ws.e2_store.take())
                    .filter(|planes| planes.len() == 2 * n * n)
                    .unwrap_or_else(|| vec![0.0; 2 * n * n]);
                let (e2_re, e2_im) = e2.split_at_mut(n * n);
                for (dst, &src) in e2_re.iter_mut().zip(ws.jac.as_slice()) {
                    *dst = -src;
                }
                e2_im.fill(0.0);
                for (re, im) in e2_re.iter_mut().zip(e2_im).step_by(n + 1) {
                    *re += alphn;
                    *im += betan;
                }
                match (LuFactor::new(e1), CluFactor::from_planes(n, e2)) {
                    (Ok(l1), Ok(l2)) => {
                        ws.lu_real = Some(l1);
                        ws.lu_complex = Some(l2);
                        sol.stats.lu_decompositions += 2;
                        singular_retries = 0;
                    }
                    _ => {
                        singular_retries += 1;
                        if singular_retries > 8 {
                            return Err(SolveFailure {
                                error: SolverError::SingularIterationMatrix { t },
                                stats: sol.stats,
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
                // Extrapolate the previous collocation polynomial.
                let ratio = h / ws.cont_h;
                let mut q = std::mem::take(&mut ws.extrap);
                for (ci, zi) in [(c1, 0usize), (c2, 1), (1.0, 2)] {
                    eval_cont(&ws.cont, ci * ratio, &mut q);
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

            // Simplified Newton iteration.
            faccon = faccon.max(uround).powf(0.8);
            theta = 2.0 * THET; // pessimistic until measured
            let mut dyno_old = 0.0f64;
            let mut thq_old = 0.0f64;
            let mut converged = false;
            let mut newton_iters = 0usize;

            for newt in 0..NIT {
                newton_iters = newt + 1;
                // Stage right-hand sides.
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
                sol.stats.rhs_evals += 3;
                sol.stats.nonlinear_iters += 1;

                // Transformed residuals.
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
                sol.stats.linear_solves += 2;

                // Update w and compute the iteration displacement norm.
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

                // Back-transform to z.
                for i in 0..n {
                    ws.z1[i] = T11 * ws.w1[i] + T12 * ws.w2[i] + T13 * ws.w3[i];
                    ws.z2[i] = T21 * ws.w1[i] + T22 * ws.w2[i] + T23 * ws.w3[i];
                    ws.z3[i] = T31 * ws.w1[i] + ws.w2[i];
                }

                if !dyno.is_finite() {
                    break; // divergence handled below
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
                            break; // predicted to miss the tolerance
                        }
                    } else {
                        break; // diverging
                    }
                }
                dyno_old = dyno.max(uround);

                if faccon * dyno <= fnewt && newt > 0 {
                    converged = true;
                    break;
                }
                // First iteration can also converge immediately.
                if newt == 0 && dyno <= 1e-1 * fnewt {
                    converged = true;
                    break;
                }
            }

            if !converged {
                // Newton failed: fresh Jacobian if stale, halve the step.
                newton_failures += 1;
                if newton_failures > 20 {
                    return Err(SolveFailure {
                        error: SolverError::NonlinearSolveFailed { t, failures: newton_failures },
                        stats: sol.stats,
                    });
                }
                sol.stats.rejected += 1;
                sol.stats.steps += 1;
                steps_since_sample += 1;
                need_jacobian = true; // conservative: rebuild at current y
                need_factor = true;
                h *= 0.5;
                ws.have_cont = false;
                continue 'steps;
            }
            newton_failures = 0;

            // Error estimate: err = || (γ/h I − J)⁻¹ (f0 + Σ ddᵢ zᵢ / h) ||.
            let lu_real = ws.lu_real.as_ref().expect("factorization exists");
            let hee1 = dd1 / h;
            let hee2 = dd2 / h;
            let hee3 = dd3 / h;
            for i in 0..n {
                ws.tmp[i] = hee1 * ws.z1[i] + hee2 * ws.z2[i] + hee3 * ws.z3[i];
                ws.err_v[i] = ws.tmp[i] + ws.f0[i];
            }
            lu_real.solve_in_place(&mut ws.err_v);
            sol.stats.linear_solves += 1;
            let mut err = weighted_rms_norm(&ws.err_v, &ws.scale).max(1e-10);

            if err >= 1.0 && (first || last_rejected) {
                // Refined estimate: evaluate f at the corrected point.
                for i in 0..n {
                    ws.stage[i] = ws.y[i] + ws.err_v[i];
                }
                system.rhs(t, &ws.stage, &mut ws.f_ref);
                sol.stats.rhs_evals += 1;
                for i in 0..n {
                    ws.err_v[i] = ws.f_ref[i] + ws.tmp[i];
                }
                lu_real.solve_in_place(&mut ws.err_v);
                sol.stats.linear_solves += 1;
                err = weighted_rms_norm(&ws.err_v, &ws.scale).max(1e-10);
            }

            sol.stats.steps += 1;
            steps_since_sample += 1;

            // Step-size proposal (radau5's controller).
            let fac = SAFE
                .min(SAFE * (1.0 + 2.0 * NIT as f64) / (newton_iters as f64 + 2.0 * NIT as f64));
            let mut quot = (err.powf(0.25) / fac).clamp(FACR, FACL);
            let mut h_new = h / quot;

            if err < 1.0 {
                // Accept.
                sol.stats.accepted += 1;
                if !first {
                    // Gustafsson predictive controller.
                    let facgus =
                        ((hacc / h) * (err * err / erracc).powf(0.25) / SAFE).clamp(FACR, FACL);
                    quot = quot.max(facgus);
                    h_new = h / quot;
                }
                hacc = h;
                erracc = err.max(1e-2);

                let step = AcceptedStep {
                    t,
                    h,
                    y: &ws.y,
                    z1: &ws.z1,
                    z2: &ws.z2,
                    z3: &ws.z3,
                    lu_real,
                    lu_cplx: ws.lu_complex.as_ref().expect("factorization exists"),
                    fnewt,
                };
                hook.accepted(&step, &mut sol.stats);

                // Dense-output coefficients from the collocation polynomial.
                set_cont(&mut ws.cont, &ws.y, &ws.z1, &ws.z2, &ws.z3);
                ws.cont_h = h;
                ws.have_cont = true;

                let t_new = t + h;
                // Serve samples inside (t, t_new].
                let mut sample_buf = std::mem::take(&mut ws.sample_buf);
                while next_sample < sample_times.len() && sample_times[next_sample] <= t_new {
                    let ts = sample_times[next_sample];
                    let s = ((ts - t_new) / h).clamp(-1.0, 0.0);
                    eval_cont(&ws.cont, s, &mut sample_buf);
                    sol.times.push(ts);
                    sol.states.push(sample_buf.clone());
                    hook.sample(s);
                    next_sample += 1;
                    steps_since_sample = 0;
                }
                ws.sample_buf = sample_buf;

                // Advance the state (stiffly accurate: y_new = y + z3).
                for i in 0..n {
                    ws.y[i] += ws.z3[i];
                }
                if !ws.y.iter().all(|v| v.is_finite()) || !hook.advance() {
                    return Err(SolveFailure {
                        error: SolverError::NonFiniteState { t: t_new },
                        stats: sol.stats,
                    });
                }
                t = t_new;
                if next_sample == sample_times.len() {
                    return Ok(sol);
                }

                system.rhs(t, &ws.y, &mut ws.f0);
                sol.stats.rhs_evals += 1;
                options.error_scale(&ws.y, &mut ws.scale);

                // Jacobian / factorization reuse policy.
                need_jacobian = theta > THET;
                let quot_ratio = h_new / h;
                if !need_jacobian && (QUOT1..=QUOT2).contains(&quot_ratio) {
                    h_new = h; // keep the factorization
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
                // Reject.
                sol.stats.rejected += 1;
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
    use crate::{Dopri5, FnSystem};

    fn opts() -> SolverOptions {
        SolverOptions::default()
    }

    #[test]
    fn constant_bit_patterns_are_pinned() {
        // The hoisted constants must carry the exact bit patterns the old
        // per-call helpers computed, or hoisting would perturb every Radau
        // trajectory. Recompute the originals here and compare bits.
        let sq6 = 6.0f64.sqrt();
        assert_eq!(SQ6.to_bits(), sq6.to_bits(), "SQ6 drifted: {SQ6:?} vs {sq6:?}");

        let c81 = 81.0f64.powf(1.0 / 3.0);
        let c9 = 9.0f64.powf(1.0 / 3.0);
        let u1 = 30.0 / (6.0 + c81 - c9);
        let alph = (12.0 - c81 + c9) / 60.0;
        let beta = (c81 + c9) * 3.0f64.sqrt() / 60.0;
        let cno = alph * alph + beta * beta;
        assert_eq!(U1.to_bits(), u1.to_bits(), "U1 drifted: {U1:?} vs {u1:?}");
        assert_eq!(ALPH.to_bits(), (alph / cno).to_bits(), "ALPH drifted");
        assert_eq!(BETA.to_bits(), (beta / cno).to_bits(), "BETA drifted");

        // Absolute anchors so a change to both sides of the recomputation
        // (e.g. a libm sqrt change) cannot silently re-pin the constants.
        assert_eq!(SQ6.to_bits(), 0x4003988e1409212e);
        assert_eq!(U1.to_bits(), 0x400d1a48d83e731e);
        assert_eq!(ALPH.to_bits(), 0x400572db93e0c672);
        assert_eq!(BETA.to_bits(), 0x40086747f2c3fcb5);
    }

    #[test]
    fn step_budget_is_a_hard_deadline() {
        let o = SolverOptions { step_budget: Some(5), ..opts() };
        let err =
            Radau5::new().solve(&robertson(), 0.0, &[1.0, 0.0, 0.0], &[40.0], &o).unwrap_err();
        assert!(
            matches!(err.error, SolverError::StepBudgetExhausted { budget: 5, .. }),
            "{}",
            err.error
        );
    }

    /// Robertson's problem: the canonical stiff benchmark.
    fn robertson() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(3, |_t, y, d| {
            d[0] = -0.04 * y[0] + 1e4 * y[1] * y[2];
            d[1] = 0.04 * y[0] - 1e4 * y[1] * y[2] - 3e7 * y[1] * y[1];
            d[2] = 3e7 * y[1] * y[1];
        })
    }

    #[test]
    fn stiff_linear_problem_matches_analytic() {
        // y' = -1e6 (y - sin t) + cos t ⇒ y = sin t + (y0) e^{-1e6 t}.
        let sys = FnSystem::new(1, |t, y, d| d[0] = -1e6 * (y[0] - t.sin()) + t.cos());
        let times = [0.5, 1.0, 2.0];
        let sol = Radau5::new().solve(&sys, 0.0, &[0.5], &times, &opts()).unwrap();
        // Interior samples go through the order-3 dense output, whose
        // interpolation error over the huge steps this problem permits can
        // exceed the step-local error estimate (a property shared with the
        // reference implementation); the final sample lands on a step
        // endpoint and must be sharp.
        for (i, &t) in times.iter().enumerate() {
            assert!(
                (sol.state_at(i)[0] - t.sin()).abs() < 1e-2,
                "t={t}: {} vs {}",
                sol.state_at(i)[0],
                t.sin()
            );
        }
        assert!(
            (sol.last_state().unwrap()[0] - 2.0f64.sin()).abs() < 1e-6,
            "endpoint must be sharp: {}",
            sol.last_state().unwrap()[0]
        );
        // Stiffness must not force millions of steps.
        assert!(sol.stats.steps < 500, "took {} steps", sol.stats.steps);
    }

    #[test]
    fn robertson_conserves_mass_and_reaches_equilibrium_shape() {
        let sys = robertson();
        let times = [0.4, 4.0, 40.0, 400.0, 4000.0];
        let sol = Radau5::new().solve(&sys, 0.0, &[1.0, 0.0, 0.0], &times, &opts()).unwrap();
        for s in &sol.states {
            let total = s[0] + s[1] + s[2];
            assert!((total - 1.0).abs() < 1e-6, "mass drift: {total}");
            assert!(s[1] < 1e-3, "intermediate species must stay tiny: {}", s[1]);
        }
        // Monotone conversion of y0 into y2.
        for w in sol.states.windows(2) {
            assert!(w[1][0] < w[0][0]);
            assert!(w[1][2] > w[0][2]);
        }
        // Known reference magnitude at t = 0.4 (Hairer & Wanner).
        let s0 = sol.state_at(0);
        assert!((s0[0] - 0.9851721).abs() < 1e-4, "y1(0.4) = {}", s0[0]);
    }

    #[test]
    fn van_der_pol_mu_1000_completes_quickly() {
        let mu = 1000.0;
        let sys = FnSystem::new(2, move |_t, y, d| {
            d[0] = y[1];
            d[1] = mu * ((1.0 - y[0] * y[0]) * y[1]) - y[0];
        });
        let sol = Radau5::new().solve(&sys, 0.0, &[2.0, 0.0], &[1.0, 500.0], &opts()).unwrap();
        // The limit cycle keeps |x| ≲ 2.1.
        for s in &sol.states {
            assert!(s[0].abs() < 2.2, "x left the limit cycle: {}", s[0]);
        }
        assert!(sol.stats.steps < 5000, "van der Pol took {} steps", sol.stats.steps);
        assert!(sol.stats.lu_decompositions > 0);
        assert!(sol.stats.jacobian_evals > 0);
    }

    #[test]
    fn agrees_with_dopri5_on_nonstiff_problem() {
        let sys = FnSystem::new(2, |_t, y, d| {
            d[0] = y[1];
            d[1] = -y[0];
        });
        let times = [1.0, 2.0, 5.0];
        let a = Radau5::new().solve(&sys, 0.0, &[1.0, 0.0], &times, &opts()).unwrap();
        let b = Dopri5::new().solve(&sys, 0.0, &[1.0, 0.0], &times, &opts()).unwrap();
        for i in 0..times.len() {
            assert!((a.state_at(i)[0] - b.state_at(i)[0]).abs() < 1e-5);
        }
    }

    #[test]
    fn dense_output_interpolates_inside_steps() {
        let sys = FnSystem::new(1, |t, y, d| d[0] = -1e4 * (y[0] - t.cos()));
        let times: Vec<f64> = (1..100).map(|i| i as f64 * 0.01).collect();
        let sol = Radau5::new().solve(&sys, 0.0, &[1.0], &times, &opts()).unwrap();
        // After the initial transient the solution locks onto cos t.
        for (i, &t) in times.iter().enumerate() {
            if t > 0.01 {
                assert!(
                    (sol.state_at(i)[0] - t.cos()).abs() < 1e-3,
                    "t={t}: {} vs {}",
                    sol.state_at(i)[0],
                    t.cos()
                );
            }
        }
        assert!(
            sol.stats.accepted < times.len(),
            "dense output must decouple sampling from stepping ({} steps)",
            sol.stats.accepted
        );
    }

    #[test]
    fn jacobian_reuse_keeps_evaluations_low() {
        // Linear constant-Jacobian problem: after the transient, θ stays
        // tiny and the Jacobian should be reused across most steps.
        let sys = FnSystem::new(2, |_t, y, d| {
            d[0] = -500.0 * y[0] + 499.0 * y[1];
            d[1] = 499.0 * y[0] - 500.0 * y[1];
        });
        let sol = Radau5::new().solve(&sys, 0.0, &[2.0, 0.0], &[10.0], &opts()).unwrap();
        assert!(
            sol.stats.jacobian_evals * 2 < sol.stats.accepted.max(4),
            "jacobians {} vs accepted {}",
            sol.stats.jacobian_evals,
            sol.stats.accepted
        );
    }

    #[test]
    fn tighter_tolerance_means_smaller_error() {
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -2.0 * y[0]);
        let exact = (-2.0f64).exp();
        let loose = Radau5::new()
            .solve(&sys, 0.0, &[1.0], &[1.0], &SolverOptions::with_tolerances(1e-4, 1e-8))
            .unwrap();
        let tight = Radau5::new()
            .solve(&sys, 0.0, &[1.0], &[1.0], &SolverOptions::with_tolerances(1e-10, 1e-14))
            .unwrap();
        let e_loose = (loose.state_at(0)[0] - exact).abs();
        let e_tight = (tight.state_at(0)[0] - exact).abs();
        assert!(e_tight < e_loose);
        assert!(e_tight < 1e-9);
    }

    #[test]
    fn sample_at_t0_and_empty_times() {
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -y[0]);
        let sol = Radau5::new().solve(&sys, 0.0, &[5.0], &[0.0, 0.5], &opts()).unwrap();
        assert_eq!(sol.state_at(0)[0], 5.0);
        let empty = Radau5::new().solve(&sys, 0.0, &[5.0], &[], &opts()).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn flame_propagation_problem() {
        // y' = y² − y³, y(0) = δ: stiff once y ≈ 1 (the "flame" ignites).
        let delta = 1e-4;
        let sys = FnSystem::new(1, |_t, y, d| d[0] = y[0] * y[0] - y[0] * y[0] * y[0]);
        let t_end = 2.0 / delta;
        let sol = Radau5::new().solve(&sys, 0.0, &[delta], &[t_end], &opts()).unwrap();
        assert!((sol.state_at(0)[0] - 1.0).abs() < 1e-4, "flame must saturate at 1");
        assert!(sol.stats.steps < 1000);
    }
}
