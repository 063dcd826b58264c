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
//!
//! That control is written once, here, on a member's [`RadauLane`] state:
//! the scalar loop calls it on its vectors, and each lane of
//! [`Radau5Batch`](crate::Radau5Batch) on its column of the lane-major
//! blocks; only the Newton iteration's arithmetic and the factorizations
//! are per path.

use crate::step::{clamp_step, samples_at_start, wrms, Column, Run};
use crate::system::check_inputs;
use crate::{
    initial_step_size, OdeSolver, OdeSystem, Solution, SolveFailure, SolverError, SolverOptions,
    SolverScratch, StepStats,
};
use paraspace_linalg::{CluFactor, Complex64, LuFactor, Matrix};

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

/// The collocation nodes `c1`, `c2` (the third is 1).
pub(crate) const C1: f64 = (4.0 - SQ6) / 10.0;
pub(crate) const C2: f64 = (4.0 + SQ6) / 10.0;
const C1M1: f64 = C1 - 1.0;
const C2M1: f64 = C2 - 1.0;
const C1MC2: f64 = C1 - C2;
// The embedded error estimator's weights.
const DD1: f64 = -(13.0 + 7.0 * SQ6) / 3.0;
const DD2: f64 = (-13.0 + 7.0 * SQ6) / 3.0;
const DD3: f64 = -1.0 / 3.0;

// Controller constants (radau5.f defaults).
pub(crate) const NIT: usize = 7;
const SAFE: f64 = 0.9;
const THET: f64 = 0.001;
const FACL: f64 = 5.0; // max shrink: h/5
const FACR: f64 = 0.125; // max growth: h/0.125 = 8h
const QUOT1: f64 = 1.0;
const QUOT2: f64 = 1.2;

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
    // Pooled state / per-step buffers (all fully written before read).
    y: Vec<f64>,
    f0: Vec<f64>,
    extrap: Vec<f64>,
    tmp: Vec<f64>,
    err_v: Vec<f64>,
    f_ref: Vec<f64>,
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
            y: zeros(),
            f0: zeros(),
            extrap: zeros(),
            tmp: zeros(),
            err_v: zeros(),
            f_ref: zeros(),
            e1_store: None,
            e2_store: None,
        }
    }

    /// The system dimension this workspace is sized for.
    pub(crate) fn dim(&self) -> usize {
        self.n
    }

    /// Readies the workspace for a fresh solve, keeping every buffer (and
    /// reclaiming the previous solve's LU storage for reuse).
    pub(crate) fn reset(&mut self) {
        if let Some(lu) = self.lu_real.take() {
            self.e1_store = Some(lu.into_matrix());
        }
        if let Some(lu) = self.lu_complex.take() {
            self.e2_store = Some(lu.into_planes());
        }
    }
}

/// Dense-output coefficients of an accepted step from its collocation
/// increments over `col`: `cont[0] = y + z3` (the new value) and the three
/// divided differences of `(z1, z2, z3)` over the nodes `c1, c2, 1`, each
/// in the same column of `cont` as of `y`. Elementwise, so the sensitivity
/// corrector builds its polynomial from `(s, V1, V2, V3)` with the same
/// call.
#[inline]
pub(crate) fn set_cont(
    cont: &mut [Vec<f64>; 4],
    col: Column,
    y: &[f64],
    [z1, z2, z3]: [&[f64]; 3],
) {
    for i in col.indices() {
        cont[0][i] = y[i] + z3[i];
        let c1_term = (z2[i] - z3[i]) / C2M1;
        let ak = (z1[i] - z2[i]) / C1MC2;
        let mut acont3 = z1[i] / C1;
        acont3 = (ak - acont3) / C2;
        let c2_term = (ak - c1_term) / C1M1;
        cont[1][i] = c1_term;
        cont[2][i] = c2_term;
        cont[3][i] = c2_term - acont3;
    }
}

/// Evaluates the collocation polynomial [`set_cont`] stored over `col` at
/// `s = (t − t_accepted)/h_used` (`s ∈ [−1, 0]` interpolates, `s > 0`
/// extrapolates) into `out`, one entry per component.
#[inline]
pub(crate) fn eval_cont(cont: &[Vec<f64>; 4], col: Column, s: f64, out: &mut [f64]) {
    for (out, i) in out.iter_mut().zip(col.indices()) {
        *out = cont[0][i] + s * (cont[1][i] + (s - C2M1) * (cont[2][i] + (s - C1M1) * cont[3][i]));
    }
}

/// The Newton stopping tolerance of a solve (radau5's FNEWT).
pub(crate) fn newton_tolerance(options: &SolverOptions) -> f64 {
    (10.0 * f64::EPSILON / options.rel_tol).max(0.03f64.min(options.rel_tol.sqrt()))
}

/// `tmp ← Σ ddᵢ/h·zᵢ` and `err_v ← tmp + f0` over `col`: the right-hand
/// side of the error estimate `‖(γ/h·I − J)⁻¹ (f0 + Σ ddᵢ zᵢ / h)‖`.
#[inline]
pub(crate) fn error_rhs(
    col: Column,
    h: f64,
    [z1, z2, z3]: [&[f64]; 3],
    f0: &[f64],
    tmp: &mut [f64],
    err_v: &mut [f64],
) {
    let (hee1, hee2, hee3) = (DD1 / h, DD2 / h, DD3 / h);
    for i in col.indices() {
        tmp[i] = hee1 * z1[i] + hee2 * z2[i] + hee3 * z3[i];
        err_v[i] = tmp[i] + f0[i];
    }
}

/// One member's step-control state: what the controller carries from one
/// step to the next, for a scalar solve and for a lane alike — including
/// where the member stands in the step (at its start, or mid-Newton, the
/// state a lane holds between two ticks).
#[derive(Clone, Copy)]
pub(crate) struct RadauLane {
    pub(crate) need_jacobian: bool,
    pub(crate) need_factor: bool,
    pub(crate) in_newton: bool,
    first: bool,
    last_rejected: bool,
    faccon: f64,
    hacc: f64,
    erracc: f64,
    singular_retries: usize,
    newton_failures: usize,
    /// Whether `cont` holds the last accepted step's polynomial, of step
    /// `cont_h`.
    have_cont: bool,
    cont_h: f64,
    /// The Newton iterate, from 0, and the convergence-rate bookkeeping.
    newt: usize,
    theta: f64,
    dyno_old: f64,
    thq_old: f64,
}

/// A Newton iteration's verdict.
pub(crate) enum Newton {
    Continue,
    Converged,
    Failed,
}

/// What the controller made of a converged step.
pub(crate) enum Control {
    /// Accepted: the proposed next step.
    Accept(f64),
    /// Rejected: retry from the same `t` with this step.
    Reject(f64),
}

impl RadauLane {
    /// The state a solve starts from.
    pub(crate) const START: RadauLane = RadauLane {
        need_jacobian: true,
        need_factor: true,
        in_newton: false,
        first: true,
        last_rejected: false,
        faccon: 1.0,
        hacc: 0.0,
        erracc: 1e-2,
        singular_retries: 0,
        newton_failures: 0,
        have_cont: false,
        cont_h: 0.0,
        newt: 0,
        theta: 2.0 * THET,
        dyno_old: 0.0,
        thq_old: 0.0,
    };

    /// The first step from `t` towards `t_end`: the start-up step `h`
    /// within `max_step` and the span, which also seeds the Gustafsson
    /// controller's memory.
    #[inline]
    pub(crate) fn start(&mut self, h: f64, t: f64, t_end: f64, options: &SolverOptions) -> f64 {
        self.hacc = h.min(options.max_step).min(t_end - t);
        self.hacc
    }

    /// Newton's start on a step of size `h`: the starting increments `z`
    /// and their transforms `w` over `col` — zero, or the last accepted
    /// step's collocation polynomial `cont` extrapolated to the new nodes
    /// (`q` is scratch, one entry per component) — and a fresh iteration
    /// count, pessimistic `θ = 2·THET` until measured.
    #[inline]
    pub(crate) fn start_newton(
        &mut self,
        h: f64,
        col: Column,
        cont: &[Vec<f64>; 4],
        q: &mut [f64],
        [z1, z2, z3]: [&mut [f64]; 3],
        [w1, w2, w3]: [&mut [f64]; 3],
    ) {
        if self.first || !self.have_cont {
            for i in col.indices() {
                z1[i] = 0.0;
                z2[i] = 0.0;
                z3[i] = 0.0;
                w1[i] = 0.0;
                w2[i] = 0.0;
                w3[i] = 0.0;
            }
        } else {
            let ratio = h / self.cont_h;
            for (node, z) in [(C1, &mut *z1), (C2, &mut *z2), (1.0, &mut *z3)] {
                eval_cont(cont, col, node * ratio, q);
                for (&q, i) in q.iter().zip(col.indices()) {
                    z[i] = q - cont[0][i];
                }
            }
            for i in col.indices() {
                w1[i] = TI11 * z1[i] + TI12 * z2[i] + TI13 * z3[i];
                w2[i] = TI21 * z1[i] + TI22 * z2[i] + TI23 * z3[i];
                w3[i] = TI31 * z1[i] + TI32 * z2[i] + TI33 * z3[i];
            }
        }
        self.faccon = self.faccon.max(f64::EPSILON).powf(0.8);
        self.theta = 2.0 * THET;
        self.dyno_old = 0.0;
        self.thq_old = 0.0;
        self.newt = 0;
        self.in_newton = true;
    }

    /// Whether a rejected error estimate `err` is re-estimated at the
    /// corrected point first: on the first step and after a rejection.
    #[inline]
    pub(crate) fn refines(&self, err: f64) -> bool {
        err >= 1.0 && (self.first || self.last_rejected)
    }

    /// The Jacobian / factorization reuse policy after an accepted step of
    /// size `h` that goes on with the proposed step `h_new`: a fresh
    /// Jacobian only when Newton converged slowly (`θ > THET`), and the
    /// factorization kept — with `h` kept too — when the step barely
    /// changes. Returns the next step.
    #[inline]
    pub(crate) fn reuse(&mut self, h_new: f64, h: f64, max_step: f64) -> f64 {
        self.need_jacobian = self.theta > THET;
        let h_new = if !self.need_jacobian && (QUOT1..=QUOT2).contains(&(h_new / h)) {
            h
        } else {
            self.need_factor = true;
            h_new
        };
        if h_new > max_step {
            self.need_factor = true;
        }
        self.first = false;
        self.last_rejected = false;
        h_new
    }
}

impl Run<RadauLane> {
    /// A fresh Jacobian is in hand: the factorization must follow.
    #[inline]
    pub(crate) fn jacobian_refreshed(&mut self) {
        self.sol.stats.jacobian_evals += 1;
        self.need_jacobian = false;
        self.need_factor = true;
    }

    /// The iteration matrices were factored at step `h` from `t`, or found
    /// `singular`: then `h` halves for a retry from step start, and the
    /// ninth singular pair in a row ends the solve.
    #[inline]
    pub(crate) fn factored(
        &mut self,
        singular: bool,
        h: &mut f64,
        t: f64,
    ) -> Result<(), SolverError> {
        let c = &mut self.state;
        if singular {
            c.singular_retries += 1;
            if c.singular_retries > 8 {
                return Err(SolverError::SingularIterationMatrix { t });
            }
            *h *= 0.5;
            return Ok(());
        }
        self.sol.stats.lu_decompositions += 2;
        c.singular_retries = 0;
        c.need_factor = false;
        Ok(())
    }

    /// Bills one simplified-Newton iteration — three stage right-hand
    /// sides, the real and the complex solve — and judges it from `dyno`,
    /// the sum `Σ (Δw/sc)²` over its `3·n` transformed increments: the
    /// convergence rate `θ`, the contraction estimate `faccon`, and whether
    /// the remaining iterations can still reach `fnewt`.
    #[inline]
    pub(crate) fn newton_verdict(&mut self, dyno: f64, n: usize, fnewt: f64) -> Newton {
        let stats = &mut self.sol.stats;
        stats.rhs_evals += 3;
        stats.nonlinear_iters += 1;
        stats.linear_solves += 2;
        let c = &mut self.state;
        let dyno = (dyno / (3 * n) as f64).sqrt();
        if !dyno.is_finite() {
            return Newton::Failed;
        }
        if c.newt > 0 {
            let thq = dyno / c.dyno_old.max(f64::MIN_POSITIVE);
            c.theta = if c.newt == 1 { thq } else { (thq * c.thq_old).sqrt() };
            c.thq_old = thq;
            if c.theta < 0.99 {
                c.faccon = c.theta / (1.0 - c.theta);
                let remaining = (NIT - 1 - c.newt) as i32;
                if c.faccon * dyno * c.theta.powi(remaining) / fnewt >= 1.0 {
                    return Newton::Failed; // predicted to miss the tolerance
                }
            } else {
                return Newton::Failed; // diverging
            }
        }
        c.dyno_old = dyno.max(f64::EPSILON);
        // The first iterate can also converge outright.
        if (c.newt > 0 && c.faccon * dyno <= fnewt) || (c.newt == 0 && dyno <= 1e-1 * fnewt) {
            c.newton_failures = 0;
            c.in_newton = false;
            return Newton::Converged;
        }
        if c.newt + 1 >= NIT {
            return Newton::Failed; // iteration budget spent
        }
        c.newt += 1;
        Newton::Continue
    }

    /// A failed Newton iteration on the step `h` from `t`: the step counts
    /// as rejected and is retried at `h/2` on a fresh Jacobian and
    /// factorization, from zero — unless it is the 21st failure in a row.
    #[inline]
    pub(crate) fn newton_failed(&mut self, h: &mut f64, t: f64) -> Result<(), SolverError> {
        self.newton_failures += 1;
        if self.newton_failures > 20 {
            let failures = self.newton_failures;
            return Err(SolverError::NonlinearSolveFailed { t, failures });
        }
        self.sol.stats.rejected += 1;
        self.count_step();
        let c = &mut self.state;
        c.need_jacobian = true; // conservative: rebuild at the current y
        c.need_factor = true;
        c.have_cont = false;
        c.in_newton = false;
        *h *= 0.5;
        Ok(())
    }

    /// The error norm of the solved estimate `err_v` against `scale` over
    /// `col`, billing the solve; floored at `1e-10`.
    #[inline]
    pub(crate) fn estimate(&mut self, err_v: &[f64], scale: &[f64], col: Column) -> f64 {
        self.sol.stats.linear_solves += 1;
        wrms(err_v, scale, col).max(1e-10)
    }

    /// radau5's controller on a converged step of size `h` with error
    /// `err`: the step proposal from `err` and the Newton iterations it
    /// took, the Gustafsson predictive branch once a step has been accepted
    /// before, and accept or reject. An accepted step's collocation
    /// polynomial becomes the dense output the caller builds next.
    #[inline]
    pub(crate) fn control(&mut self, err: f64, h: f64) -> Control {
        self.count_step();
        let (stats, c) = (&mut self.sol.stats, &mut self.state);
        let iterations = (c.newt + 1) as f64;
        let fac = SAFE.min(SAFE * (1.0 + 2.0 * NIT as f64) / (iterations + 2.0 * NIT as f64));
        let mut quot = (err.powf(0.25) / fac).clamp(FACR, FACL);
        if err < 1.0 {
            stats.accepted += 1;
            if !c.first {
                let facgus = (c.hacc / h) * (err * err / c.erracc).powf(0.25) / SAFE;
                quot = quot.max(facgus.clamp(FACR, FACL));
            }
            c.hacc = h;
            c.erracc = err.max(1e-2);
            c.cont_h = h;
            c.have_cont = true;
            return Control::Accept(h / quot);
        }
        stats.rejected += 1;
        c.last_rejected = true;
        c.need_factor = true;
        if c.theta > THET {
            c.need_jacobian = true;
        }
        Control::Reject(if c.first { 0.1 * h } else { h / quot })
    }
}

/// An accepted step of size `h` from `t` over `col`: the collocation
/// polynomial into `cont`, the samples in `(t, t + h]` from it, and the
/// stiffly accurate `y ← y + z3` — or `NonFiniteState` at `t + h` when the
/// new state is not finite or `hook` refuses it.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn advance_accepted<H: StepHook>(
    run: &mut Run<RadauLane>,
    sample_times: &[f64],
    t: f64,
    h: f64,
    col: Column,
    y: &mut [f64],
    z: [&[f64]; 3],
    cont: &mut [Vec<f64>; 4],
    hook: &mut H,
) -> Result<(), SolverError> {
    set_cont(cont, col, y, z);
    let t_new = t + h;
    while run.sample_due(sample_times, t_new) {
        let ts = sample_times[run.next_sample];
        let s = ((ts - t_new) / h).clamp(-1.0, 0.0);
        let mut state = vec![0.0; col.n];
        eval_cont(cont, col, s, &mut state);
        run.push_sample(ts, state);
        hook.sample(s);
    }
    for i in col.indices() {
        y[i] += z[2][i];
    }
    if !col.indices().all(|i| y[i].is_finite()) || !hook.advance() {
        return Err(SolverError::NonFiniteState { t: t_new });
    }
    Ok(())
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

        let mut t = t0;
        ws.y.copy_from_slice(y0);
        system.rhs(t, &ws.y, &mut ws.f0);
        sol.stats.rhs_evals += 1;

        let next_sample = samples_at_start(&mut sol, sample_times, t, y0);
        for _ in 0..next_sample {
            hook.initial_sample();
        }
        if next_sample == sample_times.len() {
            return Ok(sol);
        }

        let fnewt = newton_tolerance(options);
        let h = options
            .initial_step
            .unwrap_or_else(|| initial_step_size(&system, t, &ws.y, &ws.f0, 3, options));
        sol.stats.rhs_evals += usize::from(options.initial_step.is_none());
        let mut run = Run::new(sol, next_sample, RadauLane::START);
        let mut h = run.start(h, t, t_end, options);
        let whole = Column::whole(n);
        options.error_scale(&ws.y, &mut ws.scale);

        'steps: loop {
            if let Some(error) = run.limit(t, options) {
                return run.end(Err(error));
            }
            h = match clamp_step(h, t, t_end, options) {
                Ok(h) => h,
                Err(error) => return run.end(Err(error)),
            };

            if run.need_jacobian {
                system.jacobian(t, &ws.y, &mut ws.jac);
                if !system.has_analytic_jacobian() {
                    run.sol.stats.rhs_evals += n + 1;
                }
                run.jacobian_refreshed();
            }
            if run.need_factor {
                let fac1 = U1 / h;
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
                let alphn = ALPH / h;
                let betan = BETA / h;
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
                let singular = match (LuFactor::new(e1), CluFactor::from_planes(n, e2)) {
                    (Ok(l1), Ok(l2)) => {
                        ws.lu_real = Some(l1);
                        ws.lu_complex = Some(l2);
                        false
                    }
                    _ => true,
                };
                if let Err(error) = run.factored(singular, &mut h, t) {
                    return run.end(Err(error));
                }
                if singular {
                    continue 'steps;
                }
            }
            let fac1 = U1 / h;
            let alphn = ALPH / h;
            let betan = BETA / h;

            let z = [&mut ws.z1[..], &mut ws.z2, &mut ws.z3];
            let w = [&mut ws.w1[..], &mut ws.w2, &mut ws.w3];
            run.start_newton(h, whole, &ws.cont, &mut ws.extrap, z, w);

            // Simplified Newton iteration.
            loop {
                // Stage right-hand sides.
                for i in 0..n {
                    ws.stage[i] = ws.y[i] + ws.z1[i];
                }
                system.rhs(t + C1 * h, &ws.stage, &mut ws.f1);
                for i in 0..n {
                    ws.stage[i] = ws.y[i] + ws.z2[i];
                }
                system.rhs(t + C2 * h, &ws.stage, &mut ws.f2);
                for i in 0..n {
                    ws.stage[i] = ws.y[i] + ws.z3[i];
                }
                system.rhs(t + h, &ws.stage, &mut ws.f3);

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

                // Update w and sum the iteration displacement.
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

                // Back-transform to z.
                for i in 0..n {
                    ws.z1[i] = T11 * ws.w1[i] + T12 * ws.w2[i] + T13 * ws.w3[i];
                    ws.z2[i] = T21 * ws.w1[i] + T22 * ws.w2[i] + T23 * ws.w3[i];
                    ws.z3[i] = T31 * ws.w1[i] + ws.w2[i];
                }

                match run.newton_verdict(dyno, n, fnewt) {
                    Newton::Continue => {}
                    Newton::Converged => break,
                    Newton::Failed => {
                        if let Err(error) = run.newton_failed(&mut h, t) {
                            return run.end(Err(error));
                        }
                        continue 'steps;
                    }
                }
            }

            // Error estimate: err = || (γ/h I − J)⁻¹ (f0 + Σ ddᵢ zᵢ / h) ||.
            let lu_real = ws.lu_real.as_ref().expect("factorization exists");
            let z = [&ws.z1[..], &ws.z2, &ws.z3];
            error_rhs(whole, h, z, &ws.f0, &mut ws.tmp, &mut ws.err_v);
            lu_real.solve_in_place(&mut ws.err_v);
            let mut err = run.estimate(&ws.err_v, &ws.scale, whole);
            if run.refines(err) {
                // Refined estimate: evaluate f at the corrected point.
                for i in 0..n {
                    ws.stage[i] = ws.y[i] + ws.err_v[i];
                }
                system.rhs(t, &ws.stage, &mut ws.f_ref);
                run.sol.stats.rhs_evals += 1;
                for i in 0..n {
                    ws.err_v[i] = ws.f_ref[i] + ws.tmp[i];
                }
                lu_real.solve_in_place(&mut ws.err_v);
                err = run.estimate(&ws.err_v, &ws.scale, whole);
            }

            match run.control(err, h) {
                Control::Reject(h_new) => h = h_new,
                Control::Accept(h_new) => {
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
                    hook.accepted(&step, &mut run.sol.stats);
                    let (y, cont) = (&mut ws.y, &mut ws.cont);
                    let z = [&ws.z1[..], &ws.z2, &ws.z3];
                    if let Err(error) =
                        advance_accepted(&mut run, sample_times, t, h, whole, y, z, cont, hook)
                    {
                        return run.end(Err(error));
                    }
                    t += h;
                    if run.done(sample_times) {
                        return run.end(Ok(()));
                    }
                    system.rhs(t, &ws.y, &mut ws.f0);
                    run.sol.stats.rhs_evals += 1;
                    options.error_scale(&ws.y, &mut ws.scale);
                    h = run.reuse(h_new, h, options.max_step);
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
