//! Forward sensitivity analysis: integrate `ṡⱼ = J·sⱼ + ∂f/∂kⱼ` alongside
//! the state.
//!
//! Two integration strategies, mirroring the AMICI design split:
//!
//! * **Explicit (non-stiff)** — [`Dopri5Sens`] wraps the system and its
//!   `p` sensitivity columns as one augmented [`OdeSystem`] of dimension
//!   `n·(1+p)` ([`AugmentedSensSystem`]) and hands it to the ordinary
//!   [`Dopri5`]: the sensitivity columns ride through the solver as extra
//!   state, with full error control over every augmented component. One
//!   member per solve: there is no lane-batched sensitivity path.
//!
//! * **Implicit (stiff)** — [`Radau5Sens`] is not a second RADAU5: it is a
//!   step hook on [`Radau5`]'s one step loop (`radau5::StepHook`, whose
//!   `()` instance is the plain solver). The loop calls the hook where
//!   carried state has to move with the trajectory — a sample delivered
//!   from the initial state, a step accepted, a sample interpolated inside
//!   it, the state advanced — and the hook owns the sensitivity buffers and
//!   the *staggered* corrector that runs on acceptance: differentiating the
//!   converged collocation equations with respect to `kⱼ` gives a **linear**
//!   stage system `Vᵢ = h Σₗ aᵢₗ [J(y+Zₗ)(s+Vₗ) + Fₗ]` whose iteration
//!   matrix is exactly the state Newton's — so each column is solved by
//!   back-substitutions against the **already-factored** real/complex LU
//!   pair (the AMICI trick: sensitivities cost triangular solves, never new
//!   factorizations). The hook sees the accepted step read-only, so the
//!   state trajectory, step sequence, acceptance decisions and failures are
//!   **bitwise identical** to plain [`Radau5`] by construction.
//!
//! Both paths return a [`SensSolution`]: the state samples plus, per
//! sample, the `p × n` sensitivity block `∂y(t)/∂kⱼ` (param-major).
//! Initial sensitivities are zero (the initial state does not depend on
//! the rate constants).

use crate::radau5::{
    eval_cont, set_cont, AcceptedStep, RadauWorkspace, StepHook, ALPH, BETA, C1, C2, NIT, T11, T12,
    T13, T21, T22, T23, T31, TI11, TI12, TI13, TI21, TI22, TI23, TI31, TI32, TI33, U1,
};
use crate::step::Column;
use crate::{
    Dopri5, OdeSolver, OdeSystem, Radau5, Solution, SolveFailure, SolverOptions, StepStats,
};
use paraspace_linalg::{Complex64, Matrix, SparsityPattern};
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
    fn jacobian_sparsity(&self) -> Option<&SparsityPattern> {
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
    fn jacobian_sparsity(&self) -> Option<&SparsityPattern> {
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
}

/// The augmented system `[y; s₀; …; s_{p−1}]` of dimension `n·(1+p)`:
/// state block first, then each sensitivity column, with
/// `ṡⱼ = J·sⱼ + ∂f/∂kⱼ`.
///
/// Feeding this to any explicit solver integrates sensitivities with full
/// error control over the augmented vector. The `J·sⱼ` contraction walks
/// the Jacobian sparsity pattern row by row in index order when the inner
/// system exposes one, skipping only entries that are exact zeros.
pub struct AugmentedSensSystem<'a, S: SensOdeSystem + ?Sized> {
    inner: &'a S,
    n: usize,
    p: usize,
    sparsity: Option<&'a SparsityPattern>,
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
    fn augmented_initial_state(&self, y0: &[f64]) -> Vec<f64> {
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
            let col = j * n..(j + 1) * n;
            let (s, out) = (&y_sens[col.clone()], &mut d_sens[col.clone()]);
            jac_times_plus(self.sparsity, &jac, s, &fk[col], out);
        }
    }
}

/// `out = J·s + f`, each row accumulated from `f[i]` in column order — over
/// `pattern`'s entries when the system publishes one (everything off it is
/// an exact zero), over the whole row otherwise.
fn jac_times_plus(
    pattern: Option<&SparsityPattern>,
    jac: &Matrix,
    s: &[f64],
    f: &[f64],
    out: &mut [f64],
) {
    for i in 0..out.len() {
        let mut acc = f[i];
        match pattern {
            Some(pat) => {
                for &m in pat.row(i) {
                    acc += jac[(i, m as usize)] * s[m as usize];
                }
            }
            None => {
                for (m, &sm) in s.iter().enumerate() {
                    acc += jac[(i, m)] * sm;
                }
            }
        }
        out[i] = acc;
    }
}

/// Splits an augmented-system solution back into state + sensitivities.
fn split_augmented(sol: Solution, n: usize, p: usize) -> SensSolution {
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

/// The staggered sensitivity corrector: everything [`Radau5Sens`] carries
/// beyond the plain RADAU5 state, advanced through the solver's
/// [`StepHook`] call sites.
struct StaggeredSens<'a, S: SensOdeSystem + ?Sized> {
    system: &'a S,
    options: &'a SolverOptions,
    sparsity: Option<&'a SparsityPattern>,
    n: usize,
    p: usize,
    /// Current sensitivities, param-major (`sens[j·n + i] = ∂yᵢ/∂kⱼ`).
    sens: Vec<f64>,
    /// Stage Jacobians `J(y + Zₗ)` at the converged collocation states.
    jac: [Matrix; 3],
    /// Parameter forcings `∂f/∂k` at the converged stage states (`p×n`).
    fk: [Vec<f64>; 3],
    /// Stage sensitivity increments `Vₗ`, param-major (`p×n`).
    v: [Vec<f64>; 3],
    /// Per-column transformed iterates and stage residuals (length `n`).
    sw: [Vec<f64>; 3],
    g: [Vec<f64>; 3],
    stage: Vec<f64>,
    rhs_real: Vec<f64>,
    rhs_cplx: Vec<Complex64>,
    scale: Vec<f64>,
    /// Sensitivity dense-output coefficients (`p×n` each).
    cont_s: [Vec<f64>; 4],
    /// One `p×n` block per delivered sample.
    samples: Vec<Vec<f64>>,
}

impl<'a, S: SensOdeSystem + ?Sized> StaggeredSens<'a, S> {
    fn new(system: &'a S, options: &'a SolverOptions) -> Self {
        let n = system.dim();
        let p = system.n_params();
        let zn = || vec![0.0; n];
        let zpn = || vec![0.0; p * n];
        StaggeredSens {
            system,
            options,
            sparsity: system.jacobian_sparsity(),
            n,
            p,
            sens: zpn(),
            jac: std::array::from_fn(|_| Matrix::zeros(n, n)),
            fk: [zpn(), zpn(), zpn()],
            v: [zpn(), zpn(), zpn()],
            sw: [zn(), zn(), zn()],
            g: [zn(), zn(), zn()],
            stage: zn(),
            rhs_real: zn(),
            rhs_cplx: vec![Complex64::ZERO; n],
            scale: zn(),
            cont_s: [zpn(), zpn(), zpn(), zpn()],
            samples: Vec::new(),
        }
    }
}

impl<S: SensOdeSystem + ?Sized> StepHook for StaggeredSens<'_, S> {
    fn initial_sample(&mut self) {
        self.samples.push(self.sens.clone());
    }

    /// Differentiating the converged collocation equations w.r.t. `kⱼ`
    /// gives the linear stage system
    ///   `Vᵢ = h Σₗ aᵢₗ [ Jₗ·(s + Vₗ) + Fₗⱼ ]`,  `Jₗ = J(y + Zₗ)`,
    /// whose transformed fixed-point iteration uses the exact residual with
    /// the step's cached LU pair — only back-substitutions, no new
    /// factorizations.
    fn accepted(&mut self, step: &AcceptedStep<'_>, stats: &mut StepStats) {
        let (n, p) = (self.n, self.p);
        let &AcceptedStep { t, h, y, z1, z2, z3, lu_real, lu_cplx, fnewt } = step;
        let fac1 = U1 / h;
        let alphn = ALPH / h;
        let betan = BETA / h;

        for (l, (ts, z)) in
            [(t + C1 * h, z1), (t + C2 * h, z2), (t + h, z3)].into_iter().enumerate()
        {
            for i in 0..n {
                self.stage[i] = y[i] + z[i];
            }
            self.system.jacobian(ts, &self.stage, &mut self.jac[l]);
            self.system.dfdk(ts, &self.stage, &mut self.fk[l]);
        }
        stats.jacobian_evals += 3;
        if !self.system.has_analytic_jacobian() {
            stats.rhs_evals += 3 * (n + 1);
        }

        let [sw1, sw2, sw3] = &mut self.sw;
        for j in 0..p {
            let col = j * n..(j + 1) * n;
            // Convergence scale from the column's own magnitude (updated
            // against the running iterate below).
            self.options.error_scale(&self.sens[col.clone()], &mut self.scale);
            for v in &mut self.v {
                v[col.clone()].fill(0.0);
            }
            sw1.fill(0.0);
            sw2.fill(0.0);
            sw3.fill(0.0);
            for _ in 0..SENS_NIT {
                // Gₗ = Jₗ·(s + Vₗ) + Fₗⱼ, streamed over the Jacobian
                // sparsity when the system exposes one.
                for l in 0..3 {
                    for i in 0..n {
                        self.stage[i] = self.sens[j * n + i] + self.v[l][j * n + i];
                    }
                    jac_times_plus(
                        self.sparsity,
                        &self.jac[l],
                        &self.stage,
                        &self.fk[l][col.clone()],
                        &mut self.g[l],
                    );
                }
                let [g1, g2, g3] = &self.g;
                for i in 0..n {
                    let gw1 = TI11 * g1[i] + TI12 * g2[i] + TI13 * g3[i];
                    let gw2 = TI21 * g1[i] + TI22 * g2[i] + TI23 * g3[i];
                    let gw3 = TI31 * g1[i] + TI32 * g2[i] + TI33 * g3[i];
                    self.rhs_real[i] = gw1 - fac1 * sw1[i];
                    self.rhs_cplx[i] = Complex64::new(
                        gw2 - (alphn * sw2[i] - betan * sw3[i]),
                        gw3 - (alphn * sw3[i] + betan * sw2[i]),
                    );
                }
                lu_real.solve_in_place(&mut self.rhs_real);
                lu_cplx.solve_in_place(&mut self.rhs_cplx);
                stats.linear_solves += 2;

                let mut dyno = 0.0f64;
                for i in 0..n {
                    let d1 = self.rhs_real[i];
                    let d2 = self.rhs_cplx[i].re;
                    let d3 = self.rhs_cplx[i].im;
                    sw1[i] += d1;
                    sw2[i] += d2;
                    sw3[i] += d3;
                    // Track the growing column so early steps (where s
                    // starts at 0 but V is O(h·F)) are judged relative to
                    // the incoming magnitude.
                    let sc = self.scale[i].max(
                        self.options.abs_tol + self.options.rel_tol * self.v[2][j * n + i].abs(),
                    );
                    dyno += (d1 / sc).powi(2) + (d2 / sc).powi(2) + (d3 / sc).powi(2);
                }
                let dyno = (dyno / (3 * n) as f64).sqrt();

                let [v1, v2, v3] = &mut self.v;
                for i in 0..n {
                    v1[j * n + i] = T11 * sw1[i] + T12 * sw2[i] + T13 * sw3[i];
                    v2[j * n + i] = T21 * sw1[i] + T22 * sw2[i] + T23 * sw3[i];
                    v3[j * n + i] = T31 * sw1[i] + sw2[i];
                }
                if !dyno.is_finite() || dyno <= fnewt {
                    break;
                }
            }
        }
        let [v1, v2, v3] = &self.v;
        set_cont(&mut self.cont_s, Column::whole(p * n), &self.sens, [v1, v2, v3]);
    }

    fn sample(&mut self, s: f64) {
        let mut block = vec![0.0; self.p * self.n];
        eval_cont(&self.cont_s, Column::whole(block.len()), s, &mut block);
        self.samples.push(block);
    }

    /// Stiffly accurate, like the state: `s_new = s + V₃`.
    fn advance(&mut self) -> bool {
        for (s, v3) in self.sens.iter_mut().zip(&self.v[2]) {
            *s += v3;
        }
        self.sens.iter().all(|v| v.is_finite())
    }
}

/// RADAU5 with staggered forward sensitivities.
///
/// The state integration *is* [`Radau5`]'s step loop — this type only hangs
/// a corrector on its step hook — so the state trajectory and every counter
/// of the state machinery are bitwise identical to the plain solver, on
/// success and on failure. After each *accepted* step the `p` sensitivity
/// columns are advanced by solving the differentiated (linear) collocation
/// equations with the step's cached LU pair: per column, a short
/// fixed-point iteration of back-substitutions converging at the state
/// Newton's rate. Extra work surfaces in the returned stats as 3 Jacobian
/// evaluations per accepted step plus the sensitivity triangular solves.
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
    /// Exactly [`Radau5`]'s failure modes, plus
    /// [`SolverError::NonFiniteState`](crate::SolverError::NonFiniteState)
    /// when a sensitivity column overflows.
    pub fn solve<S: SensOdeSystem + ?Sized>(
        &self,
        system: &S,
        t0: f64,
        y0: &[f64],
        sample_times: &[f64],
        options: &SolverOptions,
    ) -> Result<SensSolution, SolveFailure> {
        let mut corrector = StaggeredSens::new(system, options);
        let solution = Radau5::new().solve_impl(
            &system,
            t0,
            y0,
            sample_times,
            options,
            &mut RadauWorkspace::new(system.dim()),
            &mut corrector,
        )?;
        Ok(SensSolution { solution, sens: corrector.samples })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolverError;

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
        // The corrector hangs off the plain step loop and can only read it:
        // states and every counter of the state machinery are identical;
        // its own work shows as 3 stage Jacobians per accepted step (and
        // the triangular solves).
        let sys = Robertson { k: robertson_k() };
        let times = [0.4, 4.0, 40.0, 400.0];
        let y0 = [1.0, 0.0, 0.0];
        let opts = SolverOptions::default();
        let plain = Radau5::new().solve(&sys, 0.0, &y0, &times, &opts).unwrap();
        let sens = Radau5Sens::new().solve(&sys, 0.0, &y0, &times, &opts).unwrap();
        assert_eq!(plain.states, sens.solution.states, "state samples must be bitwise equal");
        let (a, b) = (plain.stats, sens.solution.stats);
        assert_eq!(
            (a.steps, a.accepted, a.rejected, a.rhs_evals, a.lu_decompositions, a.nonlinear_iters),
            (b.steps, b.accepted, b.rejected, b.rhs_evals, b.lu_decompositions, b.nonlinear_iters),
        );
        assert_eq!(b.jacobian_evals, a.jacobian_evals + 3 * a.accepted);
        assert!(b.linear_solves > a.linear_solves);

        // A failing solve fails the same way at the same step.
        let short = SolverOptions { max_steps: 5, ..opts };
        let plain = Radau5::new().solve(&sys, 0.0, &y0, &times, &short).unwrap_err();
        let sens = Radau5Sens::new().solve(&sys, 0.0, &y0, &times, &short).unwrap_err();
        assert!(matches!(plain.error, SolverError::MaxStepsExceeded { max_steps: 5, .. }));
        assert_eq!(plain.error, sens.error);
        assert_eq!(plain.stats.steps, sens.stats.steps);
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
