//! Lockstep DOPRI5 over a lane-group with masked per-lane step control.
//!
//! [`Dopri5Batch`] advances all `L` lanes of a [`BatchOdeSystem`] through
//! the same 7-stage tableau simultaneously — one lane-wide
//! [`rhs_batch`](BatchOdeSystem::rhs_batch) sweep per stage — while every
//! piece of *control* state stays per-lane: step size, PI controller
//! memory, error acceptance, sample delivery, and the stiffness detector
//! each evolve independently per lane, exactly as in the scalar
//! [`Dopri5`](crate::Dopri5). Lanes whose step was rejected simply retry at
//! their own smaller `h` in the next lockstep iteration; lanes that finish
//! (or fail) park — their mask slot empties — and a lane-compaction pass
//! rebinds the freed lane to the next pending member of the group's queue,
//! so a long-running member never serializes the group behind it.
//!
//! # Numerical contract
//!
//! Per-member results are **bitwise identical** to the scalar `Dopri5`
//! solve of the same member, at any lane width. This falls out of two
//! invariants: every per-lane arithmetic expression in this file mirrors
//! the scalar implementation operation-for-operation, and no expression
//! mixes values from two lanes, so a member's dependency chain is the same
//! IEEE-754 sequence whether it runs in lane 3 of 8 or alone. The
//! determinism suite asserts `==` across lane widths and against the
//! scalar path.
//!
//! Masked (parked or never-bound) lanes still flow through the stage
//! arithmetic — with `h = 0` and whatever state they last held — because
//! skipping them would require cross-lane branches in the hot loops. Their
//! results are discarded; non-finite values they may produce cannot leak
//! into live lanes (no cross-lane operations exist).

use crate::batch::{BatchOdeSystem, BatchState};
use crate::dopri5::{
    A21, A31, A32, A41, A42, A43, A51, A52, A53, A54, A61, A62, A63, A64, A65, A71, A73, A74, A75,
    A76, BETA, C2, C3, C4, C5, D1, D3, D4, D5, D6, D7, E1, E3, E4, E5, E6, E7, EXPO1, FAC_MAX_INV,
    FAC_MIN_INV, NONFINITE_STRIKES, SAFETY, STIFF_STRIKES, STIFF_THRESHOLD,
};
use crate::system::check_inputs;
use crate::{Solution, SolveFailure, SolverError, SolverOptions, SolverScratch, StepStats};
use paraspace_linalg::weighted_rms_norm;

/// Work accounting for one lane-group integration, consumed by the vgpu
/// device model's occupancy/divergence bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneReport {
    /// Lane width `L` the group ran at.
    pub width: usize,
    /// Lockstep iterations: lane-wide stage sweeps executed (each costs one
    /// full 6-evaluation DOPRI5 step across all `L` lanes, live or masked).
    pub lockstep_iters: u64,
    /// Productive lane-steps: `Σ` over iterations of the number of live
    /// lanes. `lane_steps / (width · lockstep_iters)` is the group's lane
    /// occupancy; the shortfall is divergence waste.
    pub lane_steps: u64,
    /// Lane-wide RHS sweeps spent binding/initializing lanes (initial fill
    /// and compaction refills; 2 per refill round with automatic `hinit`).
    pub refill_sweeps: u64,
}

impl LaneReport {
    /// Fraction of lane slots that did productive work, in `(0, 1]`; `1.0`
    /// for an empty report.
    pub fn occupancy(&self) -> f64 {
        let capacity = self.width as u64 * self.lockstep_iters;
        if capacity == 0 {
            1.0
        } else {
            self.lane_steps as f64 / capacity as f64
        }
    }
}

/// Pooled working storage for one lockstep lane-group integration: the 7
/// stage blocks, state/error blocks, probe buffers for lane (re)binding,
/// per-lane control vectors, and scalar gather buffers for the
/// lane-initialization arithmetic.
#[derive(Debug, Default)]
pub(crate) struct DopriBatchScratch {
    k: Vec<BatchState>,
    y: BatchState,
    y_stage: BatchState,
    y_new: BatchState,
    y_sti: BatchState,
    err_vec: BatchState,
    scale: BatchState,
    probe_y: BatchState,
    probe_f: BatchState,
    member_buf: Vec<f64>,
    aux_y: Vec<f64>,
    aux_f: Vec<f64>,
    aux_sc: Vec<f64>,
    aux_d: Vec<f64>,
    r: Vec<Vec<f64>>,
    t: Vec<f64>,
    h: Vec<f64>,
    t_stage: Vec<f64>,
}

impl DopriBatchScratch {
    /// Sizes every buffer for dimension `n` × `lanes` lanes (stale contents
    /// are harmless: live lanes fully rewrite their columns before reads).
    fn ensure(&mut self, n: usize, lanes: usize) {
        if self.k.len() != 7 {
            self.k = (0..7).map(|_| BatchState::zeros(n, lanes)).collect();
        }
        if self.r.len() != 5 {
            self.r = (0..5).map(|_| vec![0.0; n]).collect();
        }
        for b in self.k.iter_mut() {
            if b.dim() != n || b.lanes() != lanes {
                b.resize(n, lanes);
            }
        }
        for b in [
            &mut self.y,
            &mut self.y_stage,
            &mut self.y_new,
            &mut self.y_sti,
            &mut self.err_vec,
            &mut self.scale,
            &mut self.probe_y,
            &mut self.probe_f,
        ] {
            if b.dim() != n || b.lanes() != lanes {
                b.resize(n, lanes);
            }
        }
        for v in self.r.iter_mut() {
            v.resize(n, 0.0);
        }
        for v in [
            &mut self.member_buf,
            &mut self.aux_y,
            &mut self.aux_f,
            &mut self.aux_sc,
            &mut self.aux_d,
        ] {
            v.resize(n, 0.0);
        }
        for v in [&mut self.t, &mut self.h, &mut self.t_stage] {
            v.resize(lanes, 0.0);
        }
    }
}

/// Per-lane control state: everything the scalar DOPRI5 keeps in local
/// variables for its single trajectory.
struct LaneCtl {
    member: usize,
    sol: Solution,
    next_sample: usize,
    steps_since_sample: usize,
    fac_old: f64,
    last_rejected: bool,
    stiff_strikes: usize,
    nonstiff_strikes: usize,
    nonfinite_strikes: usize,
}

/// The lockstep lane-batched DOPRI5 solver.
///
/// # Example
///
/// Integrating several decay rates of the same one-species network in
/// lockstep (see [`BatchOdeSystem`] for the system contract):
///
/// ```
/// use paraspace_solvers::{
///     BatchOdeSystem, BatchState, Dopri5Batch, SolverOptions, SolverScratch,
/// };
///
/// struct Decays {
///     rates: Vec<f64>,
///     bound: Vec<f64>,
/// }
///
/// impl BatchOdeSystem for Decays {
///     fn dim(&self) -> usize { 1 }
///     fn lanes(&self) -> usize { self.bound.len() }
///     fn members(&self) -> usize { self.rates.len() }
///     fn initial_state(&self, _member: usize, y0: &mut [f64]) { y0[0] = 1.0; }
///     fn bind_lane(&mut self, lane: usize, member: usize) {
///         self.bound[lane] = self.rates[member];
///     }
///     fn rhs_batch(&mut self, _t: &[f64], y: &BatchState, dydt: &mut BatchState) {
///         for l in 0..self.bound.len() {
///             dydt.set(0, l, -self.bound[l] * y.at(0, l));
///         }
///     }
/// }
///
/// let mut sys = Decays { rates: vec![0.5, 1.0, 2.0], bound: vec![0.0; 2] };
/// let (results, report) = Dopri5Batch::new().solve_group(
///     &mut sys, 0.0, &[1.0], &SolverOptions::default(), &mut SolverScratch::new(),
/// );
/// for (m, r) in results.iter().enumerate() {
///     let sol = r.as_ref().unwrap();
///     let exact = (-sys.rates[m]).exp();
///     assert!((sol.state_at(0)[0] - exact).abs() < 1e-6);
/// }
/// assert_eq!(report.width, 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dopri5Batch {
    _private: (),
}

impl Dopri5Batch {
    /// Creates the solver.
    pub fn new() -> Self {
        Dopri5Batch { _private: () }
    }

    /// The solver's name for engine reporting.
    pub fn name(&self) -> &'static str {
        "dopri5-lanes"
    }

    /// Integrates every member of `system`'s queue, `system.lanes()` at a
    /// time, sampling each at `sample_times`.
    ///
    /// Returns one result per member (index-aligned with the member queue)
    /// plus the group's lane-occupancy accounting. Member failures are
    /// per-lane: one diverging member parks with its error while the rest
    /// of the group continues.
    pub fn solve_group(
        &self,
        system: &mut dyn BatchOdeSystem,
        t0: f64,
        sample_times: &[f64],
        options: &SolverOptions,
        scratch: &mut SolverScratch,
    ) -> (Vec<Result<Solution, SolveFailure>>, LaneReport) {
        solve_group_impl(system, t0, sample_times, options, &mut scratch.dopri_batch)
    }
}

fn solve_group_impl(
    system: &mut dyn BatchOdeSystem,
    t0: f64,
    sample_times: &[f64],
    options: &SolverOptions,
    ws: &mut DopriBatchScratch,
) -> (Vec<Result<Solution, SolveFailure>>, LaneReport) {
    let n = system.dim();
    let lanes = system.lanes();
    let members = system.members();
    assert!(lanes >= 1, "lane width must be at least 1");
    let mut report = LaneReport { width: lanes, ..LaneReport::default() };
    let mut results: Vec<Option<Result<Solution, SolveFailure>>> =
        (0..members).map(|_| None).collect();

    ws.ensure(n, lanes);
    let DopriBatchScratch {
        k,
        y,
        y_stage,
        y_new,
        y_sti,
        err_vec,
        scale,
        probe_y,
        probe_f,
        member_buf,
        aux_y,
        aux_f,
        aux_sc,
        aux_d,
        r,
        t,
        h,
        t_stage,
    } = ws;

    // Up-front validation, one member at a time (mirrors the scalar
    // preamble; invalid members never occupy a lane).
    for (m, slot) in results.iter_mut().enumerate() {
        system.initial_state(m, member_buf);
        if let Err(error) = check_inputs(n, member_buf, t0, sample_times, options) {
            *slot = Some(Err(SolveFailure { error, stats: StepStats::default() }));
        }
    }

    let t_end = match sample_times.last() {
        Some(&te) => te,
        None => {
            // No samples requested: every valid member is an empty success.
            let out = results
                .into_iter()
                .map(|r| r.unwrap_or_else(|| Ok(Solution::with_capacity(0))))
                .collect();
            return (out, report);
        }
    };

    let mut ctl: Vec<Option<LaneCtl>> = (0..lanes).map(|_| None).collect();
    let mut next_member = 0usize;

    loop {
        // --- Lane compaction: bind pending members into free lanes. ---
        let mut fresh: Vec<usize> = Vec::new();
        for lane in 0..lanes {
            if ctl[lane].is_some() {
                continue;
            }
            while next_member < members {
                let m = next_member;
                next_member += 1;
                if results[m].is_some() {
                    continue; // failed validation
                }
                system.initial_state(m, member_buf);
                let mut sol = Solution::with_capacity(sample_times.len());
                sol.stats.rhs_evals += 1; // f(t0, y0), evaluated lane-wide below
                let mut next_sample = 0;
                while next_sample < sample_times.len() && sample_times[next_sample] <= t0 {
                    sol.times.push(sample_times[next_sample]);
                    sol.states.push(member_buf.clone());
                    next_sample += 1;
                }
                if next_sample == sample_times.len() {
                    results[m] = Some(Ok(sol)); // every sample was at/before t0
                    continue;
                }
                system.bind_lane(lane, m);
                y.scatter_lane(lane, member_buf);
                t[lane] = t0;
                h[lane] = 0.0;
                ctl[lane] = Some(LaneCtl {
                    member: m,
                    sol,
                    next_sample,
                    steps_since_sample: 0,
                    fac_old: 1e-4,
                    last_rejected: false,
                    stiff_strikes: 0,
                    nonstiff_strikes: 0,
                    nonfinite_strikes: 0,
                });
                fresh.push(lane);
                break;
            }
        }

        // --- Initialize fresh lanes: FSAL seed + Hairer hinit, lane-wide. ---
        if !fresh.is_empty() {
            // One sweep computes f(t0, y0) for every fresh lane; live lanes'
            // FSAL derivatives stay untouched in k[0] (the sweep output goes
            // to a temporary block).
            system.rhs_batch(t, y, probe_f);
            report.refill_sweeps += 1;
            for &lane in &fresh {
                k[0].copy_lane_from(probe_f, lane);
            }
            if let Some(h0) = options.initial_step {
                for &lane in &fresh {
                    h[lane] = h0;
                }
            } else {
                // Lane-wise `initial_step_size`: same arithmetic, with the
                // Euler probe batched into a single sweep for all fresh
                // lanes (live lanes pass through with their current state).
                probe_y.as_mut_slice().copy_from_slice(y.as_slice());
                t_stage.copy_from_slice(t);
                for &lane in &fresh {
                    y.gather_lane(lane, aux_y);
                    k[0].gather_lane(lane, aux_f);
                    for i in 0..n {
                        aux_sc[i] = options.abs_tol + options.rel_tol * aux_y[i].abs();
                    }
                    let d0 = weighted_rms_norm(aux_y, aux_sc);
                    let d1 = weighted_rms_norm(aux_f, aux_sc);
                    let h0 = if d0 < 1e-5 || d1 < 1e-5 { 1e-6 } else { 0.01 * (d0 / d1) };
                    let h0 = h0.min(options.max_step);
                    for i in 0..n {
                        aux_d[i] = aux_y[i] + h0 * aux_f[i];
                    }
                    probe_y.scatter_lane(lane, aux_d);
                    t_stage[lane] = t[lane] + h0;
                    h[lane] = h0; // provisional; finalized after the probe
                }
                system.rhs_batch(t_stage, probe_y, probe_f);
                report.refill_sweeps += 1;
                for &lane in &fresh {
                    let h0 = h[lane];
                    y.gather_lane(lane, aux_y);
                    k[0].gather_lane(lane, aux_f);
                    for i in 0..n {
                        aux_sc[i] = options.abs_tol + options.rel_tol * aux_y[i].abs();
                    }
                    probe_f.gather_lane(lane, aux_d);
                    for i in 0..n {
                        aux_d[i] -= aux_f[i];
                    }
                    let d1 = weighted_rms_norm(aux_f, aux_sc);
                    let d2 = weighted_rms_norm(aux_d, aux_sc) / h0;
                    let dmax = d1.max(d2);
                    let h1 = if dmax <= 1e-15 {
                        (h0 * 1e-3).max(1e-6)
                    } else {
                        (0.01 / dmax).powf(1.0 / 6.0)
                    };
                    h[lane] = (100.0 * h0).min(h1).min(options.max_step);
                    let c = ctl[lane].as_mut().expect("fresh lane is bound");
                    c.sol.stats.rhs_evals += 1;
                }
            }
        }

        if ctl.iter().all(|c| c.is_none()) {
            break; // no live lanes and no pending members
        }

        // --- Per-lane pre-step control (mirrors the scalar loop head). ---
        for lane in 0..lanes {
            let mut park: Option<SolverError> = None;
            if let Some(c) = ctl[lane].as_mut() {
                if options.step_budget.is_some_and(|budget| c.sol.stats.steps >= budget) {
                    let budget = options.step_budget.expect("checked above");
                    c.sol.stats.stiffness_detected |= c.stiff_strikes > 0;
                    park = Some(SolverError::StepBudgetExhausted { t: t[lane], budget });
                } else if c.steps_since_sample >= options.max_steps {
                    c.sol.stats.stiffness_detected |= c.stiff_strikes > 0;
                    park = Some(SolverError::MaxStepsExceeded {
                        t: t[lane],
                        max_steps: options.max_steps,
                    });
                } else {
                    h[lane] = h[lane].min(options.max_step).min(t_end - t[lane]);
                    if h[lane] <= f64::EPSILON * t[lane].abs().max(1.0) {
                        park = Some(SolverError::StepSizeUnderflow { t: t[lane] });
                    }
                }
            }
            if let Some(error) = park {
                let c = ctl[lane].take().expect("parked lane was live");
                results[c.member] = Some(Err(SolveFailure { error, stats: c.sol.stats }));
                h[lane] = 0.0;
            }
        }
        let live = ctl.iter().filter(|c| c.is_some()).count();
        if live == 0 {
            continue; // refill (or terminate) at the loop head
        }
        report.lockstep_iters += 1;
        report.lane_steps += live as u64;

        // --- Lockstep stages 2..7: lane-wide sweeps, per-lane h. ---
        {
            let (yv, k0) = (y.as_slice(), k[0].as_slice());
            let ys = y_stage.as_mut_slice();
            for s in 0..n {
                let b = s * lanes;
                for l in 0..lanes {
                    ys[b + l] = yv[b + l] + h[l] * A21 * k0[b + l];
                }
            }
            for l in 0..lanes {
                t_stage[l] = t[l] + C2 * h[l];
            }
        }
        system.rhs_batch(t_stage, y_stage, &mut k[1]);
        {
            let (yv, k0, k1) = (y.as_slice(), k[0].as_slice(), k[1].as_slice());
            let ys = y_stage.as_mut_slice();
            for s in 0..n {
                let b = s * lanes;
                for l in 0..lanes {
                    ys[b + l] = yv[b + l] + h[l] * (A31 * k0[b + l] + A32 * k1[b + l]);
                }
            }
            for l in 0..lanes {
                t_stage[l] = t[l] + C3 * h[l];
            }
        }
        system.rhs_batch(t_stage, y_stage, &mut k[2]);
        {
            let (yv, k0, k1, k2) =
                (y.as_slice(), k[0].as_slice(), k[1].as_slice(), k[2].as_slice());
            let ys = y_stage.as_mut_slice();
            for s in 0..n {
                let b = s * lanes;
                for l in 0..lanes {
                    ys[b + l] =
                        yv[b + l] + h[l] * (A41 * k0[b + l] + A42 * k1[b + l] + A43 * k2[b + l]);
                }
            }
            for l in 0..lanes {
                t_stage[l] = t[l] + C4 * h[l];
            }
        }
        system.rhs_batch(t_stage, y_stage, &mut k[3]);
        {
            let (yv, k0, k1, k2, k3) =
                (y.as_slice(), k[0].as_slice(), k[1].as_slice(), k[2].as_slice(), k[3].as_slice());
            let ys = y_stage.as_mut_slice();
            for s in 0..n {
                let b = s * lanes;
                for l in 0..lanes {
                    ys[b + l] = yv[b + l]
                        + h[l]
                            * (A51 * k0[b + l]
                                + A52 * k1[b + l]
                                + A53 * k2[b + l]
                                + A54 * k3[b + l]);
                }
            }
            for l in 0..lanes {
                t_stage[l] = t[l] + C5 * h[l];
            }
        }
        system.rhs_batch(t_stage, y_stage, &mut k[4]);
        {
            let (yv, k0, k1, k2, k3, k4) = (
                y.as_slice(),
                k[0].as_slice(),
                k[1].as_slice(),
                k[2].as_slice(),
                k[3].as_slice(),
                k[4].as_slice(),
            );
            let ys = y_sti.as_mut_slice();
            for s in 0..n {
                let b = s * lanes;
                for l in 0..lanes {
                    ys[b + l] = yv[b + l]
                        + h[l]
                            * (A61 * k0[b + l]
                                + A62 * k1[b + l]
                                + A63 * k2[b + l]
                                + A64 * k3[b + l]
                                + A65 * k4[b + l]);
                }
            }
            for l in 0..lanes {
                t_stage[l] = t[l] + h[l];
            }
        }
        system.rhs_batch(t_stage, y_sti, &mut k[5]);
        {
            let (yv, k0, k2, k3, k4, k5) = (
                y.as_slice(),
                k[0].as_slice(),
                k[2].as_slice(),
                k[3].as_slice(),
                k[4].as_slice(),
                k[5].as_slice(),
            );
            let ys = y_new.as_mut_slice();
            for s in 0..n {
                let b = s * lanes;
                for l in 0..lanes {
                    ys[b + l] = yv[b + l]
                        + h[l]
                            * (A71 * k0[b + l]
                                + A73 * k2[b + l]
                                + A74 * k3[b + l]
                                + A75 * k4[b + l]
                                + A76 * k5[b + l]);
                }
            }
        }
        system.rhs_batch(t_stage, y_new, &mut k[6]);

        // --- Embedded error estimate and scale, lane-wide. ---
        {
            let (k0, k2, k3, k4, k5, k6) = (
                k[0].as_slice(),
                k[2].as_slice(),
                k[3].as_slice(),
                k[4].as_slice(),
                k[5].as_slice(),
                k[6].as_slice(),
            );
            let ev = err_vec.as_mut_slice();
            for s in 0..n {
                let b = s * lanes;
                for l in 0..lanes {
                    ev[b + l] = h[l]
                        * (E1 * k0[b + l]
                            + E3 * k2[b + l]
                            + E4 * k3[b + l]
                            + E5 * k4[b + l]
                            + E6 * k5[b + l]
                            + E7 * k6[b + l]);
                }
            }
            let (yv, ynv) = (y.as_slice(), y_new.as_slice());
            let sc = scale.as_mut_slice();
            for s in 0..n {
                let b = s * lanes;
                for l in 0..lanes {
                    sc[b + l] =
                        options.abs_tol + options.rel_tol * yv[b + l].abs().max(ynv[b + l].abs());
                }
            }
        }

        // --- Per-lane acceptance, controller, sampling, FSAL. ---
        let (k_head, k_tail) = k.split_at_mut(1);
        let k0m = k_head[0].as_mut_slice();
        let (k2s, k3s, k4s, k5s, k6s) = (
            k_tail[1].as_slice(),
            k_tail[2].as_slice(),
            k_tail[3].as_slice(),
            k_tail[4].as_slice(),
            k_tail[5].as_slice(),
        );
        let ys = y.as_mut_slice();
        let yns = y_new.as_slice();
        let ystis = y_sti.as_slice();
        let evs = err_vec.as_slice();
        let scs = scale.as_slice();
        for lane in 0..lanes {
            enum Park {
                Done,
                Fail(SolverError),
            }
            let mut park: Option<Park> = None;
            if let Some(c) = ctl[lane].as_mut() {
                c.sol.stats.rhs_evals += 6;
                c.sol.stats.steps += 1;
                c.steps_since_sample += 1;

                let err = lane_wrms(evs, scs, n, lanes, lane);
                let finite = err.is_finite() && (0..n).all(|s| yns[s * lanes + lane].is_finite());
                if !finite {
                    // Hard rejection with aggressive shrink.
                    c.sol.stats.rejected += 1;
                    h[lane] *= 0.1;
                    c.last_rejected = true;
                    c.nonfinite_strikes += 1;
                    if c.nonfinite_strikes >= NONFINITE_STRIKES
                        || h[lane] <= f64::MIN_POSITIVE * 1e4
                    {
                        park = Some(Park::Fail(SolverError::NonFiniteState { t: t[lane] }));
                    }
                } else {
                    c.nonfinite_strikes = 0;
                    // PI controller.
                    let fac11 = err.powf(EXPO1);
                    let fac =
                        (fac11 / c.fac_old.powf(BETA) / SAFETY).clamp(FAC_MAX_INV, FAC_MIN_INV);
                    let mut h_new = h[lane] / fac;

                    if err <= 1.0 {
                        // Accepted.
                        c.fac_old = err.max(1e-4);
                        c.sol.stats.accepted += 1;

                        // Every accepted step, cost-aware hand-over: the
                        // scalar detector's rule, per lane.
                        if options.stiffness_check_interval > 0 {
                            let mut st_num = 0.0;
                            let mut st_den = 0.0;
                            for s in 0..n {
                                let i = s * lanes + lane;
                                let dk = k6s[i] - k5s[i];
                                let dy = yns[i] - ystis[i];
                                st_num += dk * dk;
                                st_den += dy * dy;
                            }
                            if st_den > 0.0 {
                                let h_lambda = h[lane] * (st_num / st_den).sqrt();
                                if h_lambda > STIFF_THRESHOLD {
                                    c.nonstiff_strikes = 0;
                                    c.stiff_strikes += 1;
                                    if c.stiff_strikes >= STIFF_STRIKES
                                        && (t_end - (t[lane] + h[lane])) / h[lane]
                                            > options.stiffness_check_interval as f64
                                    {
                                        c.sol.stats.stiffness_detected = true;
                                        park = Some(Park::Fail(SolverError::StiffnessDetected {
                                            t: t[lane],
                                        }));
                                    }
                                } else {
                                    c.nonstiff_strikes += 1;
                                    if c.nonstiff_strikes >= 6 {
                                        c.stiff_strikes = 0;
                                    }
                                }
                            }
                        }

                        if park.is_none() {
                            let t_new = t[lane] + h[lane];
                            if c.next_sample < sample_times.len()
                                && sample_times[c.next_sample] <= t_new
                            {
                                // Dense-output coefficients for this lane.
                                for s in 0..n {
                                    let i = s * lanes + lane;
                                    let ydiff = yns[i] - ys[i];
                                    let bspl = h[lane] * k0m[i] - ydiff;
                                    r[0][s] = ys[i];
                                    r[1][s] = ydiff;
                                    r[2][s] = bspl;
                                    r[3][s] = ydiff - h[lane] * k6s[i] - bspl;
                                    r[4][s] = h[lane]
                                        * (D1 * k0m[i]
                                            + D3 * k2s[i]
                                            + D4 * k3s[i]
                                            + D5 * k4s[i]
                                            + D6 * k5s[i]
                                            + D7 * k6s[i]);
                                }
                                while c.next_sample < sample_times.len()
                                    && sample_times[c.next_sample] <= t_new
                                {
                                    let ts = sample_times[c.next_sample];
                                    let theta = ((ts - t[lane]) / h[lane]).clamp(0.0, 1.0);
                                    let om_theta = 1.0 - theta;
                                    let state: Vec<f64> = (0..n)
                                        .map(|s| {
                                            r[0][s]
                                                + theta
                                                    * (r[1][s]
                                                        + om_theta
                                                            * (r[2][s]
                                                                + theta
                                                                    * (r[3][s]
                                                                        + om_theta * r[4][s])))
                                        })
                                        .collect();
                                    c.sol.times.push(ts);
                                    c.sol.states.push(state);
                                    c.next_sample += 1;
                                    c.steps_since_sample = 0;
                                }
                            }

                            t[lane] = t_new;
                            for s in 0..n {
                                let i = s * lanes + lane;
                                ys[i] = yns[i]; // y ← y_new
                                k0m[i] = k6s[i]; // FSAL: k7 becomes k1
                            }

                            if c.next_sample == sample_times.len() {
                                c.sol.stats.stiffness_detected |= c.stiff_strikes > 0;
                                park = Some(Park::Done);
                            } else {
                                if c.last_rejected {
                                    h_new = h_new.min(h[lane]);
                                    c.last_rejected = false;
                                }
                                h[lane] = h_new;
                            }
                        }
                    } else {
                        // Rejected: retry this lane at smaller h next sweep.
                        c.sol.stats.rejected += 1;
                        h_new = h[lane] / (fac11 / SAFETY).min(FAC_MIN_INV);
                        c.last_rejected = true;
                        h[lane] = h_new;
                    }
                }
            }
            if let Some(p) = park {
                let c = ctl[lane].take().expect("parked lane was live");
                results[c.member] = Some(match p {
                    Park::Done => Ok(c.sol),
                    Park::Fail(error) => Err(SolveFailure { error, stats: c.sol.stats }),
                });
                h[lane] = 0.0;
            }
        }
    }

    let out = results
        .into_iter()
        .enumerate()
        .map(|(m, r)| r.unwrap_or_else(|| panic!("member {m} never scheduled")))
        .collect();
    (out, report)
}

/// The per-lane strided equivalent of
/// [`weighted_rms_norm`]: identical summation order over components.
/// Shared with the lockstep Radau kernel.
#[inline]
pub(crate) fn lane_wrms(x: &[f64], w: &[f64], n: usize, lanes: usize, lane: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let mut sum = 0.0;
    for s in 0..n {
        let rr = x[s * lanes + lane] / w[s * lanes + lane];
        sum += rr * rr;
    }
    (sum / n as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dopri5, FnSystem, OdeSolver};

    /// A family of damped oscillators sharing one structure: member `m` has
    /// its own stiffness-free rate `k_m`.
    ///
    ///   dy0/dt = y1
    ///   dy1/dt = -k·y0 - 0.1·y1
    struct OscFamily {
        rates: Vec<f64>,
        y0s: Vec<[f64; 2]>,
        bound: Vec<f64>,
    }

    impl OscFamily {
        fn new(rates: Vec<f64>, lanes: usize) -> Self {
            let y0s =
                rates.iter().enumerate().map(|(i, _)| [1.0 + i as f64 * 0.125, 0.0]).collect();
            OscFamily { rates, y0s, bound: vec![0.0; lanes] }
        }

        /// The scalar twin of member `m`, with identical arithmetic.
        #[allow(clippy::type_complexity)]
        fn scalar(&self, m: usize) -> (FnSystem<impl Fn(f64, &[f64], &mut [f64])>, [f64; 2]) {
            let k = self.rates[m];
            let sys = FnSystem::new(2, move |_t, y: &[f64], d: &mut [f64]| {
                d[0] = y[1];
                d[1] = -k * y[0] - 0.1 * y[1];
            });
            (sys, self.y0s[m])
        }
    }

    impl BatchOdeSystem for OscFamily {
        fn dim(&self) -> usize {
            2
        }
        fn lanes(&self) -> usize {
            self.bound.len()
        }
        fn members(&self) -> usize {
            self.rates.len()
        }
        fn initial_state(&self, member: usize, y0: &mut [f64]) {
            y0.copy_from_slice(&self.y0s[member]);
        }
        fn bind_lane(&mut self, lane: usize, member: usize) {
            self.bound[lane] = self.rates[member];
        }
        fn rhs_batch(&mut self, _t: &[f64], y: &BatchState, dydt: &mut BatchState) {
            let lanes = self.bound.len();
            let (yv, dv) = (y.as_slice(), dydt.as_mut_slice());
            for l in 0..lanes {
                let kv = self.bound[l];
                dv[l] = yv[lanes + l];
                dv[lanes + l] = -kv * yv[l] - 0.1 * yv[lanes + l];
            }
        }
    }

    fn opts() -> SolverOptions {
        SolverOptions::default()
    }

    fn sample_grid() -> Vec<f64> {
        (1..=8).map(|i| i as f64 * 0.5).collect()
    }

    #[test]
    fn lockstep_is_bitwise_identical_to_scalar_at_any_width() {
        let rates: Vec<f64> = (0..10).map(|i| 0.5 + 0.37 * i as f64).collect();
        let times = sample_grid();
        // Scalar references.
        let proto = OscFamily::new(rates.clone(), 1);
        let reference: Vec<Solution> = (0..rates.len())
            .map(|m| {
                let (sys, y0) = proto.scalar(m);
                Dopri5::new().solve(&sys, 0.0, &y0, &times, &opts()).unwrap()
            })
            .collect();
        for width in [1, 2, 4, 8] {
            let mut family = OscFamily::new(rates.clone(), width);
            let (results, report) = Dopri5Batch::new().solve_group(
                &mut family,
                0.0,
                &times,
                &opts(),
                &mut SolverScratch::new(),
            );
            assert_eq!(report.width, width);
            for (m, r) in results.iter().enumerate() {
                let sol = r.as_ref().expect("member must succeed");
                assert_eq!(sol.times, reference[m].times, "width={width} member={m}");
                assert_eq!(sol.states, reference[m].states, "width={width} member={m}");
                assert_eq!(sol.stats, reference[m].stats, "width={width} member={m}");
            }
        }
    }

    #[test]
    fn lane_compaction_keeps_group_busy() {
        // 13 members through 4 lanes: compaction must schedule all of them.
        let rates: Vec<f64> = (0..13).map(|i| 0.25 + 0.2 * i as f64).collect();
        let mut family = OscFamily::new(rates, 4);
        let times = sample_grid();
        let (results, report) = Dopri5Batch::new().solve_group(
            &mut family,
            0.0,
            &times,
            &opts(),
            &mut SolverScratch::new(),
        );
        assert!(results.iter().all(|r| r.is_ok()));
        assert!(report.lockstep_iters > 0);
        // Occupancy accounting is consistent.
        assert!(report.lane_steps <= report.width as u64 * report.lockstep_iters);
        assert!(report.occupancy() > 0.0 && report.occupancy() <= 1.0);
        // Refill sweeps happened (initial fill plus at least one refill
        // round), each costing 2 sweeps under automatic hinit.
        assert!(report.refill_sweeps >= 4);
    }

    #[test]
    fn failing_member_parks_without_poisoning_the_group() {
        // Member 2's rate makes the oscillator violently stiff: the scalar
        // DOPRI5 fails on it; the lockstep group must report the identical
        // failure for it and bitwise-identical successes for the rest.
        let rates = vec![1.0, 2.0, 5.0e7, 3.0, 4.0];
        let times = sample_grid();
        let proto = OscFamily::new(rates.clone(), 1);
        let reference: Vec<Result<Solution, SolveFailure>> = (0..rates.len())
            .map(|m| {
                let (sys, y0) = proto.scalar(m);
                Dopri5::new().solve(&sys, 0.0, &y0, &times, &opts())
            })
            .collect();
        assert!(reference[2].is_err(), "member 2 must fail under scalar DOPRI5");
        let mut family = OscFamily::new(rates.clone(), 2);
        let (results, _) = Dopri5Batch::new().solve_group(
            &mut family,
            0.0,
            &times,
            &opts(),
            &mut SolverScratch::new(),
        );
        for (m, (got, want)) in results.iter().zip(reference.iter()).enumerate() {
            match (got, want) {
                (Ok(g), Ok(w)) => {
                    assert_eq!(g.states, w.states, "member={m}");
                    assert_eq!(g.stats, w.stats, "member={m}");
                }
                (Err(g), Err(w)) => assert_eq!(g, w, "member={m}"),
                _ => panic!("member {m}: outcome kind differs from scalar"),
            }
        }
    }

    /// Relaxations `y' = −rate·(y − 1)` from `y(0) = 0`, one rate per
    /// member: the stiffness spread the hand-over rule has to sort.
    struct DecayFamily {
        rates: Vec<f64>,
        bound: Vec<f64>,
    }

    impl BatchOdeSystem for DecayFamily {
        fn dim(&self) -> usize {
            1
        }
        fn lanes(&self) -> usize {
            self.bound.len()
        }
        fn members(&self) -> usize {
            self.rates.len()
        }
        fn initial_state(&self, _member: usize, y0: &mut [f64]) {
            y0[0] = 0.0;
        }
        fn bind_lane(&mut self, lane: usize, member: usize) {
            self.bound[lane] = self.rates[member];
        }
        fn rhs_batch(&mut self, _t: &[f64], y: &BatchState, dydt: &mut BatchState) {
            for l in 0..self.bound.len() {
                dydt.set(0, l, -self.bound[l] * (y.at(0, l) - 1.0));
            }
        }
    }

    #[test]
    fn cost_aware_hand_over_matches_scalar_per_lane() {
        // At default options, to t = 5: rate 1 never strikes; rate 50 sits
        // on the stability bound with ~70 steps left and finishes explicit;
        // rates 2000 and 1e6 project thousands of steps and are handed
        // over early. Every lane must reproduce its scalar twin exactly —
        // trajectory, failure time and `StepStats`.
        let rates = vec![1.0, 1e6, 50.0, 2000.0, 3.0];
        let times = [1.0, 5.0];
        let reference: Vec<Result<Solution, SolveFailure>> = rates
            .iter()
            .map(|&rate| {
                let sys = FnSystem::new(1, move |_t, y: &[f64], d: &mut [f64]| {
                    d[0] = -rate * (y[0] - 1.0);
                });
                Dopri5::new().solve(&sys, 0.0, &[0.0], &times, &opts())
            })
            .collect();
        assert!(reference[0].is_ok() && reference[4].is_ok());
        assert!(reference[2].as_ref().is_ok_and(|s| s.stats.stiffness_detected));
        for m in [1, 3] {
            let f = reference[m].as_ref().unwrap_err();
            assert!(matches!(f.error, SolverError::StiffnessDetected { .. }), "{:?}", f.error);
            assert!(f.stats.steps < 200, "member {m}: {} steps", f.stats.steps);
        }
        for width in [1, 2, 4] {
            let mut family = DecayFamily { rates: rates.clone(), bound: vec![0.0; width] };
            let (results, _) = Dopri5Batch::new().solve_group(
                &mut family,
                0.0,
                &times,
                &opts(),
                &mut SolverScratch::new(),
            );
            assert_eq!(results, reference, "width={width}");
        }
    }

    #[test]
    fn empty_sample_times_yield_empty_solutions() {
        let mut family = OscFamily::new(vec![1.0, 2.0, 3.0], 2);
        let (results, report) = Dopri5Batch::new().solve_group(
            &mut family,
            0.0,
            &[],
            &opts(),
            &mut SolverScratch::new(),
        );
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|r| r.as_ref().is_ok_and(|s| s.is_empty())));
        assert_eq!(report.lockstep_iters, 0);
    }

    #[test]
    fn samples_at_t0_deliver_initial_state() {
        let mut family = OscFamily::new(vec![1.0, 2.0], 2);
        let (results, _) = Dopri5Batch::new().solve_group(
            &mut family,
            0.0,
            &[0.0, 1.0],
            &opts(),
            &mut SolverScratch::new(),
        );
        for (m, r) in results.iter().enumerate() {
            let sol = r.as_ref().unwrap();
            assert_eq!(sol.state_at(0)[0], 1.0 + m as f64 * 0.125);
        }
    }

    #[test]
    fn invalid_member_fails_alone() {
        let mut family = OscFamily::new(vec![1.0, 2.0, 3.0], 2);
        family.y0s[1] = [f64::NAN, 0.0];
        let times = sample_grid();
        let (results, _) = Dopri5Batch::new().solve_group(
            &mut family,
            0.0,
            &times,
            &opts(),
            &mut SolverScratch::new(),
        );
        assert!(results[0].is_ok());
        assert!(matches!(results[1].as_ref().unwrap_err().error, SolverError::InvalidInput { .. }));
        assert!(results[2].is_ok());
    }

    #[test]
    fn scratch_reuse_is_bitwise_stable() {
        // Two back-to-back groups through the same scratch must match two
        // fresh-scratch runs exactly.
        let times = sample_grid();
        let mut scratch = SolverScratch::new();
        let run = |scratch: &mut SolverScratch, rates: Vec<f64>| {
            let mut family = OscFamily::new(rates, 4);
            Dopri5Batch::new().solve_group(&mut family, 0.0, &times, &opts(), scratch).0
        };
        let a1 = run(&mut scratch, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let a2 = run(&mut scratch, vec![0.3, 0.7]);
        let b1 = run(&mut SolverScratch::new(), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let b2 = run(&mut SolverScratch::new(), vec![0.3, 0.7]);
        let unwrap_all = |v: Vec<Result<Solution, SolveFailure>>| -> Vec<Solution> {
            v.into_iter().map(|r| r.unwrap()).collect()
        };
        assert_eq!(unwrap_all(a1), unwrap_all(b1));
        assert_eq!(unwrap_all(a2), unwrap_all(b2));
    }

    #[test]
    fn fixed_initial_step_is_honored() {
        let o = SolverOptions { initial_step: Some(1e-3), ..opts() };
        let times = sample_grid();
        let proto = OscFamily::new(vec![1.0, 4.0], 1);
        let reference: Vec<Solution> = (0..2)
            .map(|m| {
                let (sys, y0) = proto.scalar(m);
                Dopri5::new().solve(&sys, 0.0, &y0, &times, &o).unwrap()
            })
            .collect();
        let mut family = OscFamily::new(vec![1.0, 4.0], 2);
        let (results, report) =
            Dopri5Batch::new().solve_group(&mut family, 0.0, &times, &o, &mut SolverScratch::new());
        for (m, r) in results.iter().enumerate() {
            let sol = r.as_ref().unwrap();
            assert_eq!(sol.states, reference[m].states, "member={m}");
            assert_eq!(sol.stats, reference[m].stats, "member={m}");
        }
        // Fixed h0 skips the hinit probe: exactly one sweep per fill round.
        assert_eq!(report.refill_sweeps, 1);
    }
}
