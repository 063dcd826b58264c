//! The Dormand–Prince 5(4) explicit Runge–Kutta method (DOPRI5).
//!
//! Implements the classical Hairer–Nørsett–Wanner design: the 7-stage FSAL
//! tableau, embedded 4th-order error estimate, PI step-size controller
//! (β = 0.04), 4th-order dense output, and the two-stage stiffness detector
//! (`h·λ > 3.25` observed 15 times ⇒ stiff), run on every accepted step
//! with a cost-aware hand-over (see `HANDOVER_STEPS`). This is the engine's
//! non-stiff workhorse; stiff simulations are re-routed to
//! [`crate::Radau5`].
//!
//! The step controller — [`settle`](Run::settle) on a member's
//! [`DopriLane`] state — and the [`dense_output`] are written once, here:
//! the scalar loop calls them on its vectors, and each lane of
//! [`Dopri5Batch`](crate::Dopri5Batch) on its column of the lane-major
//! blocks.

use crate::step::{clamp_step, reject_nonfinite, samples_at_start, wrms, Column, Run};
use crate::system::check_inputs;
use crate::{
    initial_step_size, OdeSolver, OdeSystem, Solution, SolveFailure, SolverError, SolverOptions,
    SolverScratch,
};

// Nodes.
pub(crate) const C2: f64 = 1.0 / 5.0;
pub(crate) const C3: f64 = 3.0 / 10.0;
pub(crate) const C4: f64 = 4.0 / 5.0;
pub(crate) const C5: f64 = 8.0 / 9.0;

// Runge–Kutta matrix.
pub(crate) const A21: f64 = 1.0 / 5.0;
pub(crate) const A31: f64 = 3.0 / 40.0;
pub(crate) const A32: f64 = 9.0 / 40.0;
pub(crate) const A41: f64 = 44.0 / 45.0;
pub(crate) const A42: f64 = -56.0 / 15.0;
pub(crate) const A43: f64 = 32.0 / 9.0;
pub(crate) const A51: f64 = 19372.0 / 6561.0;
pub(crate) const A52: f64 = -25360.0 / 2187.0;
pub(crate) const A53: f64 = 64448.0 / 6561.0;
pub(crate) const A54: f64 = -212.0 / 729.0;
pub(crate) const A61: f64 = 9017.0 / 3168.0;
pub(crate) const A62: f64 = -355.0 / 33.0;
pub(crate) const A63: f64 = 46732.0 / 5247.0;
pub(crate) const A64: f64 = 49.0 / 176.0;
pub(crate) const A65: f64 = -5103.0 / 18656.0;
// 5th-order weights (also the 7th stage: FSAL).
pub(crate) const A71: f64 = 35.0 / 384.0;
pub(crate) const A73: f64 = 500.0 / 1113.0;
pub(crate) const A74: f64 = 125.0 / 192.0;
pub(crate) const A75: f64 = -2187.0 / 6784.0;
pub(crate) const A76: f64 = 11.0 / 84.0;

// Error coefficients e = b5 − b4.
pub(crate) const E1: f64 = 71.0 / 57600.0;
pub(crate) const E3: f64 = -71.0 / 16695.0;
pub(crate) const E4: f64 = 71.0 / 1920.0;
pub(crate) const E5: f64 = -17253.0 / 339200.0;
pub(crate) const E6: f64 = 22.0 / 525.0;
pub(crate) const E7: f64 = -1.0 / 40.0;

// Dense-output coefficients.
const D1: f64 = -12715105075.0 / 11282082432.0;
const D3: f64 = 87487479700.0 / 32700410799.0;
const D4: f64 = -10690763975.0 / 1880347072.0;
const D5: f64 = 701980252875.0 / 199316789632.0;
const D6: f64 = -1453857185.0 / 822651844.0;
const D7: f64 = 69997945.0 / 29380423.0;

// Controller constants (dopri5.f defaults).
const SAFETY: f64 = 0.9;
const BETA: f64 = 0.04;
const EXPO1: f64 = 0.2 - BETA * 0.75;
const FAC_MIN_INV: f64 = 5.0; // 1/0.2: max shrink factor denominator
const FAC_MAX_INV: f64 = 0.1; // 1/10: max growth factor denominator
const STIFF_THRESHOLD: f64 = 3.25;
const STIFF_STRIKES: usize = 15;
/// Hand-over threshold of the stiffness detector. Once it has struck
/// `STIFF_STRIKES` times (6 clear steps reset the count), the solve aborts
/// with [`SolverError::StiffnessDetected`] only while the *projected
/// remaining* explicit steps `(t_end − t)/h` exceed this — "I would still
/// spend N steps", not "I have already spent N". A member diagnosed with
/// less than that left finishes explicitly: restarting it on an implicit
/// solver from `t₀` would cost more than it saves.
const HANDOVER_STEPS: usize = 1000;

/// One member's step-control state: what the controller carries from one
/// step to the next, for a scalar solve and for a lane alike.
#[derive(Clone, Copy)]
pub(crate) struct DopriLane {
    fac_old: f64,
    last_rejected: bool,
    stiff_strikes: usize,
    nonstiff_strikes: usize,
    nonfinite_strikes: usize,
}

impl DopriLane {
    /// The state a solve starts from.
    pub(crate) const START: DopriLane = DopriLane {
        fac_old: 1e-4,
        last_rejected: false,
        stiff_strikes: 0,
        nonstiff_strikes: 0,
        nonfinite_strikes: 0,
    };
}

/// What the controller made of a step.
pub(crate) enum Settled {
    /// Rejected: retry from the same `t` with this step.
    Reject(f64),
    /// The solve ends with this error.
    Fail(SolverError),
    /// Accepted: the step to try next, unless the solve is done.
    Accept(f64),
}

impl Run<DopriLane> {
    /// The controller on a step from `t` of size `h` towards `t_end`, from
    /// its error norm `err`, whether the new state is `finite`, and the
    /// stiffness detector's sums `‖k7 − k6‖²` and `‖y_new − y_sti‖²`: the
    /// non-finite rejection, the PI controller, and on every accepted step
    /// the detector's cost-aware hand-over — a diagnosed member aborts only
    /// while finishing explicitly would still cost more than
    /// `HANDOVER_STEPS` steps at the stability-bound step size.
    #[inline]
    pub(crate) fn settle(
        &mut self,
        err: f64,
        finite: bool,
        [st_num, st_den]: [f64; 2],
        t: f64,
        h: f64,
        t_end: f64,
    ) -> Settled {
        let Run { sol, state: c, .. } = self;
        let stats = &mut sol.stats;
        if !err.is_finite() || !finite {
            c.last_rejected = true;
            return match reject_nonfinite(h, t, &mut c.nonfinite_strikes, stats) {
                Ok(h) => Settled::Reject(h),
                Err(error) => Settled::Fail(error),
            };
        }
        c.nonfinite_strikes = 0;

        let fac11 = err.powf(EXPO1);
        if err > 1.0 {
            stats.rejected += 1;
            c.last_rejected = true;
            return Settled::Reject(h / (fac11 / SAFETY).min(FAC_MIN_INV));
        }
        let fac = (fac11 / c.fac_old.powf(BETA) / SAFETY).clamp(FAC_MAX_INV, FAC_MIN_INV);
        let mut h_new = h / fac;
        c.fac_old = err.max(1e-4);
        stats.accepted += 1;

        if st_den > 0.0 {
            let h_lambda = h * (st_num / st_den).sqrt();
            if h_lambda > STIFF_THRESHOLD {
                c.nonstiff_strikes = 0;
                c.stiff_strikes += 1;
                if c.stiff_strikes >= STIFF_STRIKES && (t_end - (t + h)) / h > HANDOVER_STEPS as f64
                {
                    stats.stiffness_detected = true;
                    return Settled::Fail(SolverError::StiffnessDetected { t });
                }
            } else {
                c.nonstiff_strikes += 1;
                if c.nonstiff_strikes >= 6 {
                    c.stiff_strikes = 0;
                }
            }
        }
        if c.last_rejected {
            h_new = h_new.min(h);
            c.last_rejected = false;
        }
        Settled::Accept(h_new)
    }

    /// Records a detector that struck without handing over: what a solve
    /// reports when it finishes or a step limit stops it.
    #[inline]
    pub(crate) fn flag_stiffness(&mut self) {
        self.sol.stats.stiffness_detected |= self.stiff_strikes > 0;
    }
}

/// Serves the samples in `(t, t + h]` of an accepted step through the
/// 4th-order dense output, whose coefficients `r0..r4` it builds into `r`
/// from the step's `y`, `y_new` and stages over `col` — only when a sample
/// is due.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn dense_output<S>(
    run: &mut Run<S>,
    sample_times: &[f64],
    t: f64,
    h: f64,
    col: Column,
    [y, y_new]: [&[f64]; 2],
    [k1, k3, k4, k5, k6, k7]: [&[f64]; 6],
    r: &mut [Vec<f64>; 5],
) {
    let t_new = t + h;
    if !run.sample_due(sample_times, t_new) {
        return;
    }
    let [r0, r1, r2, r3, r4] = r;
    for (s, i) in col.indices().enumerate() {
        let ydiff = y_new[i] - y[i];
        let bspl = h * k1[i] - ydiff;
        r0[s] = y[i];
        r1[s] = ydiff;
        r2[s] = bspl;
        r3[s] = ydiff - h * k7[i] - bspl;
        r4[s] = h * (D1 * k1[i] + D3 * k3[i] + D4 * k4[i] + D5 * k5[i] + D6 * k6[i] + D7 * k7[i]);
    }
    while run.sample_due(sample_times, t_new) {
        let ts = sample_times[run.next_sample];
        let theta = ((ts - t) / h).clamp(0.0, 1.0);
        let om_theta = 1.0 - theta;
        let state = (0..col.n)
            .map(|s| {
                r0[s] + theta * (r1[s] + om_theta * (r2[s] + theta * (r3[s] + om_theta * r4[s])))
            })
            .collect();
        run.push_sample(ts, state);
    }
}

/// The DOPRI5 solver.
///
/// # Example
///
/// ```
/// use paraspace_solvers::{Dopri5, FnSystem, OdeSolver, SolverOptions};
///
/// # fn main() -> Result<(), paraspace_solvers::SolveFailure> {
/// // Harmonic oscillator: period 2π.
/// let sys = FnSystem::new(2, |_t, y, d| { d[0] = y[1]; d[1] = -y[0]; });
/// let two_pi = std::f64::consts::TAU;
/// let sol = Dopri5::new().solve(&sys, 0.0, &[1.0, 0.0], &[two_pi], &SolverOptions::default())?;
/// assert!((sol.state_at(0)[0] - 1.0).abs() < 1e-5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dopri5 {
    _private: (),
}

impl Dopri5 {
    /// Creates the solver.
    pub fn new() -> Self {
        Dopri5 { _private: () }
    }
}

/// Pooled working storage for one DOPRI5 integration: the 7 stage
/// derivative vectors, state/stage/error buffers, and the 5 dense-output
/// coefficient vectors. Reused across solves of the same dimension with no
/// reallocation.
#[derive(Debug, Default)]
pub(crate) struct DopriScratch {
    k: [Vec<f64>; 7],
    y: Vec<f64>,
    y_stage: Vec<f64>,
    y_new: Vec<f64>,
    y_sti: Vec<f64>,
    err_vec: Vec<f64>,
    scale: Vec<f64>,
    r: [Vec<f64>; 5],
}

impl DopriScratch {
    /// Sizes every buffer for dimension `n` (stale contents are harmless:
    /// each buffer is fully written before it is read).
    fn ensure(&mut self, n: usize) {
        let singles = [
            &mut self.y,
            &mut self.y_stage,
            &mut self.y_new,
            &mut self.y_sti,
            &mut self.err_vec,
            &mut self.scale,
        ];
        for v in self.k.iter_mut().chain(self.r.iter_mut()).chain(singles) {
            v.resize(n, 0.0);
        }
    }
}

impl OdeSolver for Dopri5 {
    fn name(&self) -> &'static str {
        "dopri5"
    }

    fn solve(
        &self,
        system: &dyn OdeSystem,
        t0: f64,
        y0: &[f64],
        sample_times: &[f64],
        options: &SolverOptions,
    ) -> Result<Solution, SolveFailure> {
        self.solve_impl(system, t0, y0, sample_times, options, &mut DopriScratch::default())
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
        self.solve_impl(system, t0, y0, sample_times, options, &mut scratch.dopri)
    }
}

impl Dopri5 {
    fn solve_impl(
        &self,
        system: &dyn OdeSystem,
        t0: f64,
        y0: &[f64],
        sample_times: &[f64],
        options: &SolverOptions,
        ws: &mut DopriScratch,
    ) -> Result<Solution, SolveFailure> {
        let n = system.dim();
        check_inputs(n, y0, t0, sample_times, options)?;
        let mut sol = Solution::with_capacity(sample_times.len());
        let t_end = match sample_times.last() {
            Some(&t) => t,
            None => return Ok(sol),
        };

        let mut t = t0;
        ws.ensure(n);
        ws.y.copy_from_slice(y0);

        system.rhs(t, &ws.y, &mut ws.k[0]);
        sol.stats.rhs_evals += 1;

        let next_sample = samples_at_start(&mut sol, sample_times, t, y0);
        if next_sample == sample_times.len() {
            return Ok(sol);
        }

        let mut h = options
            .initial_step
            .unwrap_or_else(|| initial_step_size(&system, t, &ws.y, &ws.k[0], 5, options));
        sol.stats.rhs_evals += usize::from(options.initial_step.is_none());
        let mut run = Run::new(sol, next_sample, DopriLane::START);
        let whole = Column::whole(n);

        loop {
            if let Some(error) = run.limit(t, options) {
                run.flag_stiffness();
                return run.end(Err(error));
            }
            h = match clamp_step(h, t, t_end, options) {
                Ok(h) => h,
                Err(error) => return run.end(Err(error)),
            };

            // Every vector of the step as a slice of length `n`, cut once:
            // the loops below then index without per-element checks.
            let DopriScratch { k, y, y_stage, y_new, y_sti, err_vec, scale, r } = &mut *ws;
            let [k1, k2, k3, k4, k5, k6, k7] = k;
            let (k1, k2, k3, k4) = (&k1[..n], &mut k2[..n], &mut k3[..n], &mut k4[..n]);
            let (k5, k6, k7) = (&mut k5[..n], &mut k6[..n], &mut k7[..n]);
            let (y, y_stage, y_new) = (&y[..n], &mut y_stage[..n], &mut y_new[..n]);
            let (y_sti, err_vec, scale) = (&mut y_sti[..n], &mut err_vec[..n], &mut scale[..n]);

            // Stages 2..6.
            for i in 0..n {
                y_stage[i] = y[i] + h * A21 * k1[i];
            }
            system.rhs(t + C2 * h, y_stage, k2);
            for i in 0..n {
                y_stage[i] = y[i] + h * (A31 * k1[i] + A32 * k2[i]);
            }
            system.rhs(t + C3 * h, y_stage, k3);
            for i in 0..n {
                y_stage[i] = y[i] + h * (A41 * k1[i] + A42 * k2[i] + A43 * k3[i]);
            }
            system.rhs(t + C4 * h, y_stage, k4);
            for i in 0..n {
                y_stage[i] = y[i] + h * (A51 * k1[i] + A52 * k2[i] + A53 * k3[i] + A54 * k4[i]);
            }
            system.rhs(t + C5 * h, y_stage, k5);
            for i in 0..n {
                y_sti[i] = y[i]
                    + h * (A61 * k1[i] + A62 * k2[i] + A63 * k3[i] + A64 * k4[i] + A65 * k5[i]);
            }
            system.rhs(t + h, y_sti, k6);
            // 5th-order solution (stage 7 argument) and FSAL derivative.
            for i in 0..n {
                y_new[i] = y[i]
                    + h * (A71 * k1[i] + A73 * k3[i] + A74 * k4[i] + A75 * k5[i] + A76 * k6[i]);
            }
            system.rhs(t + h, y_new, k7);
            run.sol.stats.rhs_evals += 6;
            run.count_step();

            // Embedded error estimate, and the stiffness detector's sums:
            // f at the two distinct t+h arguments.
            for i in 0..n {
                err_vec[i] = h
                    * (E1 * k1[i] + E3 * k3[i] + E4 * k4[i] + E5 * k5[i] + E6 * k6[i] + E7 * k7[i]);
            }
            options.error_scale_pair(y, y_new, scale);
            let err = wrms(err_vec, scale, whole);
            let finite = y_new.iter().all(|v| v.is_finite());
            let mut stiffness = [0.0; 2];
            for i in 0..n {
                let dk = k7[i] - k6[i];
                let dy = y_new[i] - y_sti[i];
                stiffness[0] += dk * dk;
                stiffness[1] += dy * dy;
            }

            match run.settle(err, finite, stiffness, t, h, t_end) {
                Settled::Reject(h_new) => h = h_new,
                Settled::Fail(error) => return run.end(Err(error)),
                Settled::Accept(h_new) => {
                    let k = [k1, &*k3, &*k4, &*k5, &*k6, &*k7];
                    dense_output(&mut run, sample_times, t, h, whole, [y, y_new], k, r);
                    t += h;
                    if run.done(sample_times) {
                        run.flag_stiffness();
                        return run.end(Ok(()));
                    }
                    std::mem::swap(&mut ws.y, &mut ws.y_new);
                    ws.k.swap(0, 6); // FSAL: k7 becomes k1 of the next step.
                    h = h_new;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnSystem;

    fn opts() -> SolverOptions {
        SolverOptions::default()
    }

    #[test]
    fn exponential_decay_matches_analytic() {
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -2.0 * y[0]);
        let times = [0.25, 0.5, 1.0, 2.0];
        let sol = Dopri5::new().solve(&sys, 0.0, &[1.0], &times, &opts()).unwrap();
        for (i, &t) in times.iter().enumerate() {
            let exact = (-2.0 * t).exp();
            assert!(
                (sol.state_at(i)[0] - exact).abs() < 1e-7,
                "t={t}: {} vs {exact}",
                sol.state_at(i)[0]
            );
        }
    }

    #[test]
    fn harmonic_oscillator_conserves_energy() {
        let sys = FnSystem::new(2, |_t, y, d| {
            d[0] = y[1];
            d[1] = -y[0];
        });
        let times: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let sol = Dopri5::new().solve(&sys, 0.0, &[1.0, 0.0], &times, &opts()).unwrap();
        for s in &sol.states {
            let energy = s[0] * s[0] + s[1] * s[1];
            assert!((energy - 1.0).abs() < 1e-4, "energy drift: {energy}");
        }
        // Exact solution check.
        let last = sol.last_state().unwrap();
        assert!((last[0] - 20.0f64.cos()).abs() < 1e-5);
        assert!((last[1] + 20.0f64.sin()).abs() < 1e-5);
    }

    #[test]
    fn dense_output_is_accurate_between_steps() {
        // Many closely spaced samples must all hit the analytic curve even
        // though the solver takes large steps.
        let sys = FnSystem::new(1, |t, _y, d| d[0] = t.cos());
        let times: Vec<f64> = (1..200).map(|i| i as f64 * 0.05).collect();
        let sol = Dopri5::new().solve(&sys, 0.0, &[0.0], &times, &opts()).unwrap();
        for (i, &t) in times.iter().enumerate() {
            assert!((sol.state_at(i)[0] - t.sin()).abs() < 2e-5, "t={t}");
        }
        // Large steps: far fewer steps than samples.
        assert!(
            sol.stats.accepted < times.len(),
            "dense output must decouple sampling from stepping"
        );
    }

    #[test]
    fn tolerance_controls_error() {
        let sys = FnSystem::new(1, |_t, y, d| d[0] = y[0]);
        let loose = Dopri5::new()
            .solve(&sys, 0.0, &[1.0], &[1.0], &SolverOptions::with_tolerances(1e-3, 1e-6))
            .unwrap();
        let tight = Dopri5::new()
            .solve(&sys, 0.0, &[1.0], &[1.0], &SolverOptions::with_tolerances(1e-10, 1e-12))
            .unwrap();
        let exact = 1.0f64.exp();
        let err_loose = (loose.state_at(0)[0] - exact).abs();
        let err_tight = (tight.state_at(0)[0] - exact).abs();
        assert!(err_tight < err_loose);
        assert!(err_tight < 1e-9);
        assert!(tight.stats.accepted > loose.stats.accepted);
    }

    #[test]
    fn stiffness_detector_hands_over_early_at_default_options() {
        // Very stiff linear problem; DOPRI5 must report stiffness (the
        // engine then re-routes to Radau) as soon as the 15 strikes are in,
        // not after burning `HANDOVER_STEPS` steps first.
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -1e6 * (y[0] - 1.0));
        let f = Dopri5::new().solve(&sys, 0.0, &[0.0], &[10.0], &opts()).unwrap_err();
        assert!(matches!(f.error, SolverError::StiffnessDetected { .. }), "{:?}", f.error);
        assert!(f.stats.stiffness_detected);
        assert!(
            (1..200).contains(&f.stats.steps),
            "failure cost must be the actual work, and small: {} steps",
            f.stats.steps
        );
    }

    #[test]
    fn hand_over_weighs_the_projected_remaining_steps() {
        // y' = −50·y sinks under `abs_tol` near t ≈ 0.55, after which the
        // step sits on the stability bound and the detector strikes on
        // every step. To t = 5 that leaves ~70 explicit steps: finishing is
        // cheaper than any restart, so the solve must succeed (an always-on
        // detector is a false positive here)...
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -50.0 * y[0]);
        let sol = Dopri5::new().solve(&sys, 0.0, &[1.0], &[0.25, 5.0], &opts()).unwrap();
        assert!((sol.state_at(0)[0] - (-12.5f64).exp()).abs() < 1e-9);
        assert!(sol.state_at(1)[0].abs() < 1e-11);
        assert!(sol.stats.stiffness_detected, "the detector did strike; it just did not abort");
        assert!(sol.stats.steps < 400, "{} steps", sol.stats.steps);
        // ...while to t = 500 the same diagnosis projects ~7000 more
        // steps, and the member is handed over within the first 200.
        let f = Dopri5::new().solve(&sys, 0.0, &[1.0], &[500.0], &opts()).unwrap_err();
        assert!(matches!(f.error, SolverError::StiffnessDetected { .. }), "{:?}", f.error);
        assert!(f.stats.steps < 200, "{} steps", f.stats.steps);
    }

    /// Relaxation towards 1 whose rate jumps from 1 to 2000 at t = 9:
    /// stiffness appears with ~600 stability-bound steps left to t = 10.
    fn late_stiff() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(1, |t, y: &[f64], d: &mut [f64]| {
            let rate = if t < 9.0 { 1.0 } else { 2000.0 };
            d[0] = -rate * (y[0] - 1.0);
        })
    }

    #[test]
    fn late_stiffness_below_the_threshold_finishes_explicit() {
        let sol = Dopri5::new().solve(&late_stiff(), 0.0, &[0.0], &[10.0], &opts()).unwrap();
        assert!((sol.state_at(0)[0] - 1.0).abs() < 1e-3);
        assert!(sol.stats.stiffness_detected);
    }

    #[test]
    fn scratch_last_used_at_a_larger_dimension_changes_nothing() {
        // The step's slices are cut to this solve's `n`, not to whatever
        // the pooled vectors held before.
        let big = FnSystem::new(9, |_t, y, d| {
            for i in 0..9 {
                d[i] = -(1.0 + i as f64) * y[i];
            }
        });
        let small = FnSystem::new(2, |t, y, d| {
            d[0] = y[1];
            d[1] = -y[0] * (1.0 + 0.5 * t.sin());
        });
        let mut scratch = SolverScratch::new();
        Dopri5::new().solve_pooled(&big, 0.0, &[1.0; 9], &[2.0], &opts(), &mut scratch).unwrap();
        let times = [0.1, 1.0, 7.5];
        let fresh = Dopri5::new().solve(&small, 0.0, &[1.0, 0.0], &times, &opts()).unwrap();
        let pooled = Dopri5::new()
            .solve_pooled(&small, 0.0, &[1.0, 0.0], &times, &opts(), &mut scratch)
            .unwrap();
        assert_eq!(pooled.stats, fresh.stats);
        for (p, f) in pooled.states.iter().zip(&fresh.states) {
            let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(p), bits(f));
        }
    }

    #[test]
    fn sample_at_t0_returns_initial_state() {
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -y[0]);
        let sol = Dopri5::new().solve(&sys, 0.0, &[7.0], &[0.0, 1.0], &opts()).unwrap();
        assert_eq!(sol.state_at(0)[0], 7.0);
    }

    #[test]
    fn empty_sample_times_is_empty_solution() {
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -y[0]);
        let sol = Dopri5::new().solve(&sys, 0.0, &[1.0], &[], &opts()).unwrap();
        assert!(sol.is_empty());
    }

    #[test]
    fn nonautonomous_system_integrates() {
        // dy/dt = t ⇒ y = t²/2.
        let sys = FnSystem::new(1, |t, _y, d| d[0] = t);
        let sol = Dopri5::new().solve(&sys, 0.0, &[0.0], &[3.0], &opts()).unwrap();
        assert!((sol.state_at(0)[0] - 4.5).abs() < 1e-8);
    }

    #[test]
    fn fsal_economy_is_visible_in_stats() {
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -y[0]);
        let sol = Dopri5::new().solve(&sys, 0.0, &[1.0], &[1.0], &opts()).unwrap();
        // 6 evaluations per step (FSAL) + initialization overhead.
        assert!(sol.stats.rhs_evals <= 6 * sol.stats.steps + 3);
    }

    #[test]
    fn stats_track_rejections_under_tight_tolerance() {
        let sys = FnSystem::new(2, |t, y, d| {
            d[0] = y[1];
            d[1] = -y[0] * (1.0 + 5.0 * (10.0 * t).sin());
        });
        let sol = Dopri5::new()
            .solve(&sys, 0.0, &[1.0, 0.0], &[10.0], &SolverOptions::with_tolerances(1e-10, 1e-12))
            .unwrap();
        assert_eq!(sol.stats.steps, sol.stats.accepted + sol.stats.rejected);
        assert!(sol.stats.accepted > 0);
    }
}
