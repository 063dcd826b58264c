//! Lockstep Radau IIA (order 5) over a lane-group with batched
//! simplified-Newton and per-lane LU reuse.
//!
//! [`Radau5Batch`] advances all `L` lanes of a [`BatchOdeSystem`] through
//! the same 3-stage Radau IIA step machinery simultaneously. One *lockstep
//! tick* executes one simplified-Newton iteration for every lane currently
//! inside a Newton solve — three lane-wide
//! [`rhs_batch`](BatchOdeSystem::rhs_batch) stage sweeps plus one masked
//! real and one masked complex batched-LU substitution
//! ([`BatchLuFactor`] / [`BatchCluFactor`], the getrs-style substrate the
//! scalar [`Radau5`](crate::Radau5) docs promise, whose sweeps run every
//! lane at once over the lane-minor residual blocks; the complex block is
//! held as split rows, each species' real parts then its imaginary parts,
//! so the residual pass writes and the update pass reads exactly what the
//! solve sweeps) — while every piece of
//! *control* state stays per-lane: step size, Newton convergence rate `θ`,
//! Jacobian / factorization reuse decisions, the Gustafsson controller
//! memory, error acceptance, and sample delivery each evolve independently
//! per lane. Lanes at different Newton iteration counts share the same
//! sweeps; a lane whose iteration converged runs its error estimate and
//! accept/reject logic in the same tick, then re-enters step start, where
//! masked lane-wide sweeps rebuild only the Jacobians
//! ([`jacobian_batch`](BatchOdeSystem::jacobian_batch)) and LU
//! factorizations of the lanes whose `θ` or step ratio demands it — every
//! other lane keeps its factorization, exactly like the scalar reuse
//! policy.
//!
//! # Numerical contract
//!
//! Per-member results are **bitwise identical** to the scalar
//! [`Radau5`](crate::Radau5) solve of the same member, at any lane width —
//! the same contract [`Dopri5Batch`](crate::Dopri5Batch) upholds, and by
//! the same two invariants: every per-lane arithmetic expression here
//! mirrors the scalar implementation operation-for-operation (including the
//! elimination branch guards inside the batched LU kernels), and no
//! expression mixes values from two lanes. One caveat follows from the
//! batched Jacobian: this kernel requires
//! [`supports_jacobian_batch`](BatchOdeSystem::supports_jacobian_batch)
//! and charges it as *analytic* (no finite-difference RHS surcharge), so
//! the scalar twin of a member must also have an analytic Jacobian for
//! work counters to agree — true for every mass-action network the engines
//! route here.
//!
//! The lane bookkeeping — refill, `hinit`, the pre-step limits and the park
//! — is the one `step.rs` holds for both kernels (see
//! [`Dopri5Batch`](crate::Dopri5Batch)), at error-estimator order 3; the
//! pre-step pass skips lanes that are mid-Newton, which are not at a step
//! start. The step controller is the scalar solver's, written once in
//! `radau5.rs` on a lane's `RadauLane` state and called on its column of
//! the blocks: the singular-matrix retry, the Newton start, verdict and
//! failure rule, the refined-estimate test, the Gustafsson controller, the
//! Jacobian/LU reuse policy, and the collocation polynomial for the Newton
//! extrapolation, the dense output and the samples. This file keeps the
//! Newton iteration's row passes and the batched Jacobian and LU calls.
//!
//! Masked (parked or never-bound) lanes still flow through the stage
//! arithmetic with whatever state they last held; their results are
//! discarded. The masked factorization skips them outright, so a retired
//! lane's garbage can never raise a spurious singularity, and the masked
//! solves leave their entries bit for bit as they were.
//!
//! # Occupancy
//!
//! As for [`Dopri5Batch`](crate::Dopri5Batch), the engines bill the vgpu's
//! `LaneGroupStats::packed` over per-member tick counts — here each member's
//! Newton iterations — rather than the report a host group returns, whose
//! packing depends on timing. The two agree except where a live lane
//! iterates beside one that holds no Newton iteration for a tick: a
//! member parked by pre-step control (step budget, `max_steps`, step-size
//! underflow), whose lane is refilled only at the next loop head, and the
//! rare lane waiting out a singular iteration matrix. The tests pin the
//! agreement and the pre-step tick.

use crate::batch::{BatchOdeSystem, BatchState};
use crate::dopri5_batch::{group_from_queue, Attempt, LaneReport};
use crate::radau5::{
    advance_accepted, error_rhs, newton_tolerance, Control, Newton, RadauLane, ALPH, BETA, C1, C2,
    T11, T12, T13, T21, T22, T23, T31, TI11, TI12, TI13, TI21, TI22, TI23, TI31, TI32, TI33, U1,
};
use crate::step::{Column, LaneGroup, LaneScratch};
use crate::{SolverOptions, SolverScratch};
use paraspace_linalg::{with_lane_width, BatchCluFactor, BatchLuFactor, LaneWidth};

/// Pooled working storage for one lockstep Radau lane-group integration:
/// SoA blocks for the state, stage values, transformed Newton variables and
/// residuals, the dense-output polynomial, per-lane Jacobian storage, the
/// two batched LU factorizations, the lane clocks and start-up buffers, and
/// per-lane control vectors.
#[derive(Debug, Default)]
pub(crate) struct RadauBatchScratch {
    y: BatchState,
    f0: BatchState,
    z1: BatchState,
    z2: BatchState,
    z3: BatchState,
    w1: BatchState,
    w2: BatchState,
    w3: BatchState,
    f1: BatchState,
    f2: BatchState,
    f3: BatchState,
    stage: BatchState,
    tmp: BatchState,
    err_v: BatchState,
    f_ref: BatchState,
    scale: BatchState,
    probe_y: BatchState,
    probe_f: BatchState,
    rhs_real: BatchState,
    /// The complex Newton residuals as split rows: species `s`'s real parts
    /// at row `2s`, its imaginary parts at row `2s + 1` (the block
    /// [`BatchCluFactor::solve_lanes`] solves).
    rhs_cplx: Vec<f64>,
    /// The collocation polynomials, lane-major like the blocks.
    cont: [Vec<f64>; 4],
    /// Per-lane Jacobians, lane `l`'s row-major `n × n` block at `l·n²`
    /// (the layout of its factors); refreshed lanes copy theirs out of the
    /// lane-minor sweep output `jac_probe`, untouched lanes keep their `J`.
    jac_lanes: Vec<f64>,
    jac_probe: Vec<f64>,
    lu_real: BatchLuFactor,
    lu_cplx: BatchCluFactor,
    lane: LaneScratch,
    extrap: Vec<f64>,
    fac1v: Vec<f64>,
    alphnv: Vec<f64>,
    betanv: Vec<f64>,
    dyno_acc: Vec<f64>,
    err_norm: Vec<f64>,
    jac_mask: Vec<bool>,
    factor_mask: Vec<bool>,
    newton_mask: Vec<bool>,
    conv_mask: Vec<bool>,
    refine_mask: Vec<bool>,
    refresh_mask: Vec<bool>,
}

impl RadauBatchScratch {
    /// Sizes every buffer for dimension `n` × `lanes` lanes (stale contents
    /// are harmless: live lanes fully rewrite their columns before reads).
    fn ensure(&mut self, n: usize, lanes: usize) {
        for b in [
            &mut self.y,
            &mut self.f0,
            &mut self.z1,
            &mut self.z2,
            &mut self.z3,
            &mut self.w1,
            &mut self.w2,
            &mut self.w3,
            &mut self.f1,
            &mut self.f2,
            &mut self.f3,
            &mut self.stage,
            &mut self.tmp,
            &mut self.err_v,
            &mut self.f_ref,
            &mut self.scale,
            &mut self.probe_y,
            &mut self.probe_f,
            &mut self.rhs_real,
        ] {
            if b.dim() != n || b.lanes() != lanes {
                b.resize(n, lanes);
            }
        }
        self.rhs_cplx.resize(2 * n * lanes, 0.0);
        for v in &mut self.cont {
            v.resize(n * lanes, 0.0);
        }
        self.jac_lanes.resize(n * n * lanes, 0.0);
        self.jac_probe.resize(n * n * lanes, 0.0);
        self.lu_real.ensure(n, lanes);
        self.lu_cplx.ensure(n, lanes);
        self.lane.ensure(n, lanes);
        self.extrap.resize(n, 0.0);
        for v in [
            &mut self.fac1v,
            &mut self.alphnv,
            &mut self.betanv,
            &mut self.dyno_acc,
            &mut self.err_norm,
        ] {
            v.resize(lanes, 0.0);
        }
        for v in [
            &mut self.jac_mask,
            &mut self.factor_mask,
            &mut self.newton_mask,
            &mut self.conv_mask,
            &mut self.refine_mask,
            &mut self.refresh_mask,
        ] {
            v.clear();
            v.resize(lanes, false);
        }
    }
}

/// Builds both Radau iteration matrices — `E1 = U1/h·I − J` (real) and
/// `E2 = (α + iβ)/h·I − J` (complex, as its two planes) — for the masked
/// lanes from their lane-major Jacobian blocks, then factors them batched.
/// Each masked lane's matrices are written straight into that lane's
/// contiguous factor storage.
fn build_and_factor(
    real: &mut BatchLuFactor,
    cplx: &mut BatchCluFactor,
    n: usize,
    jac_lanes: &[f64],
    h: &[f64],
    mask: &[bool],
) {
    for lane in (0..mask.len()).filter(|&lane| mask[lane]) {
        let jac = &jac_lanes[lane * n * n..][..n * n];
        let m1 = real.lane_mut(lane);
        let (m2_re, m2_im) = cplx.lane_planes_mut(lane);
        for ((e1, e2), &j) in m1.iter_mut().zip(m2_re.iter_mut()).zip(jac) {
            *e1 = -j;
            *e2 = -j;
        }
        m2_im.fill(0.0);
        let fac1 = U1 / h[lane];
        let (alphn, betan) = (ALPH / h[lane], BETA / h[lane]);
        for ((d1, re), im) in m1.iter_mut().zip(m2_re).zip(m2_im).step_by(n + 1) {
            *d1 += fac1;
            *re += alphn;
            *im += betan;
        }
    }
    real.factor(mask);
    cplx.factor(mask);
}

/// The lockstep lane-batched RADAU5 solver.
///
/// # Example
///
/// Integrating several decay rates of the same stiff one-species network in
/// lockstep (see [`BatchOdeSystem`] for the system contract; the implicit
/// kernel additionally requires
/// [`jacobian_batch`](BatchOdeSystem::jacobian_batch)):
///
/// ```
/// use paraspace_solvers::{
///     BatchOdeSystem, BatchState, Radau5Batch, SolverOptions, SolverScratch,
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
///     fn supports_jacobian_batch(&self) -> bool { true }
///     fn jacobian_batch(&mut self, _t: &[f64], _y: &BatchState, jac: &mut [f64]) {
///         for l in 0..self.bound.len() {
///             jac[l] = -self.bound[l];
///         }
///     }
/// }
///
/// let mut sys = Decays { rates: vec![0.5, 1.0, 2.0], bound: vec![0.0; 2] };
/// let (results, report) = Radau5Batch::new().solve_group(
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
pub struct Radau5Batch {
    _private: (),
}

impl Radau5Batch {
    /// Creates the solver.
    pub fn new() -> Self {
        Radau5Batch { _private: () }
    }

    /// The solver's name for engine reporting.
    pub fn name(&self) -> &'static str {
        "radau5-lanes"
    }

    /// Integrates every member of `system`'s queue, `system.lanes()` at a
    /// time, sampling each at `sample_times`.
    ///
    /// Returns one result per member (index-aligned with the member queue)
    /// plus the group's lane-occupancy accounting
    /// ([`LaneReport::lockstep_iters`] counts Newton-iteration ticks here).
    /// Member failures are per-lane: one diverging member parks with its
    /// error while the rest of the group continues.
    ///
    /// # Panics
    ///
    /// Panics if `system` does not advertise
    /// [`supports_jacobian_batch`](BatchOdeSystem::supports_jacobian_batch).
    pub fn solve_group(
        &self,
        system: &mut dyn BatchOdeSystem,
        t0: f64,
        sample_times: &[f64],
        options: &SolverOptions,
        scratch: &mut SolverScratch,
    ) -> (Vec<Attempt>, LaneReport) {
        group_from_queue(system.members(), |pending| {
            self.solve_queue(system, pending, t0, sample_times, options, scratch)
        })
    }

    /// Like [`solve_group`](Self::solve_group), but the members come from
    /// `next_member` instead of `0..system.members()` — the contract of
    /// [`Dopri5Batch::solve_queue`](crate::Dopri5Batch::solve_queue):
    /// a free lane asks for the next member index (any index `system`
    /// knows), the group stops asking at the first `None` and drains its
    /// lanes in flight, so several groups, each with its own `system` and
    /// scratch, can serve one shared queue.
    ///
    /// Returns `(member, result)` pairs in the order the members settled.
    /// A member's result does not depend on which group integrated it, nor
    /// beside which other members.
    ///
    /// # Panics
    ///
    /// Panics if `system` does not advertise
    /// [`supports_jacobian_batch`](BatchOdeSystem::supports_jacobian_batch).
    pub fn solve_queue(
        &self,
        system: &mut dyn BatchOdeSystem,
        next_member: &mut dyn FnMut() -> Option<usize>,
        t0: f64,
        sample_times: &[f64],
        options: &SolverOptions,
        scratch: &mut SolverScratch,
    ) -> (Vec<(usize, Attempt)>, LaneReport) {
        assert!(
            system.supports_jacobian_batch(),
            "Radau5Batch requires a BatchOdeSystem with an analytic jacobian_batch"
        );
        solve_queue_impl(system, next_member, t0, sample_times, options, &mut scratch.radau_batch)
    }
}

#[allow(clippy::too_many_lines)]
fn solve_queue_impl(
    system: &mut dyn BatchOdeSystem,
    next_member: &mut dyn FnMut() -> Option<usize>,
    t0: f64,
    sample_times: &[f64],
    options: &SolverOptions,
    ws: &mut RadauBatchScratch,
) -> (Vec<(usize, Attempt)>, LaneReport) {
    let (n, lanes) = (system.dim(), system.lanes());
    let mut group = LaneGroup::new(lanes, t0, sample_times, options, RadauLane::START);
    ws.ensure(n, lanes);

    let RadauBatchScratch {
        y,
        f0,
        z1,
        z2,
        z3,
        w1,
        w2,
        w3,
        f1,
        f2,
        f3,
        stage,
        tmp,
        err_v,
        f_ref,
        scale,
        probe_y,
        probe_f,
        rhs_real,
        rhs_cplx,
        cont,
        jac_lanes,
        jac_probe,
        lu_real,
        lu_cplx,
        lane: ls,
        extrap,
        fac1v,
        alphnv,
        betanv,
        dyno_acc,
        err_norm,
        jac_mask,
        factor_mask,
        newton_mask,
        conv_mask,
        refine_mask,
        refresh_mask,
    } = ws;
    let fnewt = newton_tolerance(options);
    let column = |lane| Column::lane(n, lanes, lane);

    loop {
        // --- Lane compaction: bind pending members into free lanes, then
        // seed them: `f0`, and `hinit` at error-estimator order 3, clamped
        // as the scalar preamble's tail does, and the error scale. ---
        group.refill(system, next_member, y, ls);
        group.start_fresh(system, ls, y, f0, [&mut *probe_y, &mut *probe_f], 3);
        for &lane in &group.fresh {
            let c = group.lanes[lane].as_mut().expect("fresh lane is bound");
            ls.h[lane] = c.start(ls.h[lane], ls.t[lane], group.t_end, options);
            options.error_scale_at(column(lane), y.as_slice(), scale.as_mut_slice());
        }
        if group.live() == 0 {
            break; // no live lanes and no pending members
        }

        // --- Per-lane pre-step control for lanes at step start (the scalar
        // loop head; mid-Newton lanes skip it). ---
        group.pre_step(ls, |c| !c.in_newton, |_| {});
        if group.live() == 0 {
            continue; // refill (or terminate) at the loop head
        }
        let LaneScratch { t, h, t_stage, .. } = &mut *ls;

        // --- Masked Jacobian refresh: one lane-wide sweep, copied out into
        // the lane-major blocks of the lanes that asked. ---
        let mut any_jac = false;
        for lane in 0..lanes {
            jac_mask[lane] =
                group.lanes[lane].as_ref().is_some_and(|c| !c.in_newton && c.need_jacobian);
            any_jac |= jac_mask[lane];
        }
        if any_jac {
            system.jacobian_batch(t, y, jac_probe);
            for lane in 0..lanes {
                if !jac_mask[lane] {
                    continue;
                }
                let block = &mut jac_lanes[lane * n * n..][..n * n];
                for (dst, &src) in block.iter_mut().zip(jac_probe.iter().skip(lane).step_by(lanes))
                {
                    *dst = src;
                }
                group.lanes[lane].as_mut().expect("jacobian lane is live").jacobian_refreshed();
            }
        }

        // --- Masked factorization: build E1 = γ/h·I − J and
        // E2 = (α+iβ)/h·I − J in the requesting lanes' columns only, then
        // factor them batched; a singular pair halves the lane's step for a
        // retry from step start next tick. ---
        let mut any_factor = false;
        for lane in 0..lanes {
            factor_mask[lane] =
                group.lanes[lane].as_ref().is_some_and(|c| !c.in_newton && c.need_factor);
            any_factor |= factor_mask[lane];
        }
        if any_factor {
            build_and_factor(lu_real, lu_cplx, n, jac_lanes, h, factor_mask);
            for lane in 0..lanes {
                if !factor_mask[lane] {
                    continue;
                }
                let singular = lu_real.is_singular(lane) || lu_cplx.is_singular(lane);
                let c = group.lanes[lane].as_mut().expect("factor lane is live");
                if let Err(error) = c.factored(singular, &mut h[lane], t[lane]) {
                    group.park(lane, Err(error), h);
                }
            }
        }

        // --- Newton start: lanes at step start with a valid factorization
        // initialize z, w and the iteration bookkeeping. ---
        for lane in 0..lanes {
            let Some(c) = group.lanes[lane].as_mut() else { continue };
            if c.in_newton || c.need_factor {
                continue; // mid-Newton, or waiting out a singular retry
            }
            let z = [&mut *z1, &mut *z2, &mut *z3].map(BatchState::as_mut_slice);
            let w = [&mut *w1, &mut *w2, &mut *w3].map(BatchState::as_mut_slice);
            c.start_newton(h[lane], column(lane), cont, extrap, z, w);
        }

        // --- The lockstep Newton iteration: three lane-wide stage sweeps,
        // two masked batched solves, per-lane convergence control. Lanes may
        // sit at different iteration counts; the arithmetic is identical. ---
        let mut n_newton = 0u64;
        for lane in 0..lanes {
            newton_mask[lane] = group.lanes[lane].as_ref().is_some_and(|c| c.in_newton);
            n_newton += u64::from(newton_mask[lane]);
        }
        if n_newton == 0 {
            continue; // every live lane is waiting out a singular retry
        }
        group.report.lockstep_iters += 1;
        group.report.lane_steps += n_newton;

        // Stage right-hand sides (the last node is t + h: 1·h is exact).
        for (c, z, f) in [(C1, &*z1, &mut *f1), (C2, &*z2, &mut *f2), (1.0, &*z3, &mut *f3)] {
            let (y, z, out) = (y.as_slice(), z.as_slice(), stage.as_mut_slice());
            with_lane_width!(lanes, |w| stage_argument_rows(w, n, y, z, out));
            for l in 0..lanes {
                t_stage[l] = t[l] + c * h[l];
            }
            system.rhs_batch(t_stage, stage, f);
        }

        // Transformed residuals, lane-wide.
        for l in 0..lanes {
            fac1v[l] = U1 / h[l];
            alphnv[l] = ALPH / h[l];
            betanv[l] = BETA / h[l];
        }
        with_lane_width!(lanes, |w| residual_rows(
            w,
            n,
            [w.row(fac1v, 0), w.row(alphnv, 0), w.row(betanv, 0)],
            [f1.as_slice(), f2.as_slice(), f3.as_slice()],
            [w1.as_slice(), w2.as_slice(), w3.as_slice()],
            rhs_real.as_mut_slice(),
            rhs_cplx,
        ));
        lu_real.solve_lanes(rhs_real.as_mut_slice(), newton_mask);
        lu_cplx.solve_lanes(rhs_cplx, newton_mask);

        // Update w with the displacement norm's sums, back-transform to z.
        with_lane_width!(lanes, |w| {
            update_rows(
                w,
                n,
                rhs_real.as_slice(),
                rhs_cplx,
                scale.as_slice(),
                [w1.as_mut_slice(), w2.as_mut_slice(), w3.as_mut_slice()],
                w.row_mut(dyno_acc, 0),
            );
            back_transform_rows(
                w,
                n,
                [w1.as_slice(), w2.as_slice(), w3.as_slice()],
                [z1.as_mut_slice(), z2.as_mut_slice(), z3.as_mut_slice()],
            );
        });

        // Per-lane convergence control (the scalar iteration's tail).
        for lane in 0..lanes {
            conv_mask[lane] = false;
            if !newton_mask[lane] {
                continue;
            }
            let c = group.lanes[lane].as_mut().expect("newton lane is live");
            let failed = match c.newton_verdict(dyno_acc[lane], n, fnewt) {
                Newton::Continue => continue,
                Newton::Converged => {
                    conv_mask[lane] = true;
                    continue;
                }
                Newton::Failed => c.newton_failed(&mut h[lane], t[lane]),
            };
            if let Err(error) = failed {
                group.park(lane, Err(error), h);
            }
        }

        // --- Error estimate for the lanes that converged this tick:
        // err = || E1⁻¹ (f0 + Σ ddᵢ zᵢ / h) ||, masked batched solve. ---
        if conv_mask.iter().any(|&m| m) {
            let z = [z1.as_slice(), z2.as_slice(), z3.as_slice()];
            let (tv, ev) = (tmp.as_mut_slice(), err_v.as_mut_slice());
            for lane in (0..lanes).filter(|&lane| conv_mask[lane]) {
                error_rhs(column(lane), h[lane], z, f0.as_slice(), tv, ev);
            }
            lu_real.solve_lanes(err_v.as_mut_slice(), conv_mask);
            let mut any_refine = false;
            for lane in 0..lanes {
                refine_mask[lane] = false;
                if !conv_mask[lane] {
                    continue;
                }
                let c = group.lanes[lane].as_mut().expect("converged lane is live");
                err_norm[lane] = c.estimate(err_v.as_slice(), scale.as_slice(), column(lane));
                refine_mask[lane] = c.refines(err_norm[lane]);
                any_refine |= refine_mask[lane];
            }
            if any_refine {
                // Refined estimate: evaluate f at the corrected point.
                {
                    let (yv, ev) = (y.as_slice(), err_v.as_slice());
                    let st = stage.as_mut_slice();
                    for lane in 0..lanes {
                        if !refine_mask[lane] {
                            continue;
                        }
                        for i in column(lane).indices() {
                            st[i] = yv[i] + ev[i];
                        }
                    }
                    t_stage.copy_from_slice(t);
                }
                system.rhs_batch(t_stage, stage, f_ref);
                {
                    let (fv, tv) = (f_ref.as_slice(), tmp.as_slice());
                    let ev = err_v.as_mut_slice();
                    for lane in 0..lanes {
                        if !refine_mask[lane] {
                            continue;
                        }
                        for i in column(lane).indices() {
                            ev[i] = fv[i] + tv[i];
                        }
                    }
                }
                lu_real.solve_lanes(err_v.as_mut_slice(), refine_mask);
                for lane in 0..lanes {
                    if !refine_mask[lane] {
                        continue;
                    }
                    let c = group.lanes[lane].as_mut().expect("refining lane is live");
                    c.sol.stats.rhs_evals += 1;
                    err_norm[lane] = c.estimate(err_v.as_slice(), scale.as_slice(), column(lane));
                }
            }
        }

        // --- Per-lane controller; an accepted step's dense output, samples
        // and advance, and the Jacobian/LU reuse policy. ---
        for lane in 0..lanes {
            refresh_mask[lane] = false;
            if !conv_mask[lane] {
                continue;
            }
            let c = group.lanes[lane].as_mut().expect("converged lane is live");
            let h_new = match c.control(err_norm[lane], h[lane]) {
                Control::Reject(h_new) => {
                    h[lane] = h_new;
                    continue;
                }
                Control::Accept(h_new) => h_new,
            };
            let z = [z1.as_slice(), z2.as_slice(), z3.as_slice()];
            let (t_l, h_l) = (t[lane], h[lane]);
            let y = y.as_mut_slice();
            let outcome =
                advance_accepted(c, sample_times, t_l, h_l, column(lane), y, z, cont, &mut ());
            if outcome.is_ok() {
                t[lane] = t_l + h_l;
                if !c.done(sample_times) {
                    // f0 refresh is deferred to one lane-wide sweep below;
                    // the reuse policy is pure control state.
                    refresh_mask[lane] = true;
                    h[lane] = c.reuse(h_new, h_l, options.max_step);
                    continue;
                }
            }
            group.park(lane, outcome, h);
        }

        // --- Deferred f0 refresh for accepted, still-running lanes: one
        // lane-wide sweep at the new (t, y), then per-lane error scale. ---
        if refresh_mask.iter().any(|&m| m) {
            system.rhs_batch(t, y, probe_f);
            for lane in 0..lanes {
                if !refresh_mask[lane] {
                    continue;
                }
                f0.copy_lane_from(probe_f, lane);
                let c = group.lanes[lane].as_mut().expect("refreshed lane is live");
                c.sol.stats.rhs_evals += 1;
                options.error_scale_at(column(lane), y.as_slice(), scale.as_mut_slice());
            }
        }
    }

    group.finish()
}

// The Newton iteration's row passes: every formula is the scalar solver's,
// term for term, and lanes outside the Newton mask flow through with
// whatever they hold. Plain `#[inline]`, not `inline(always)`, for the
// reason given at `dopri5_batch::stage_rows`.

/// A stage argument for all lanes: `out ← y + z`.
#[inline]
fn stage_argument_rows<W: LaneWidth>(w: W, n: usize, y: &[f64], z: &[f64], out: &mut [f64]) {
    for s in 0..n {
        let (y, z, out) = (w.row(y, s), w.row(z, s), w.row_mut(out, s));
        for l in 0..w.lanes() {
            out[l] = y[l] + z[l];
        }
    }
}

/// The Newton residuals in the transformed variables: `T⁻¹·f − Λ/h·w`, the
/// real component into `rhs_real`, the complex pair into `rhs_cplx`'s split
/// rows (real part at row `2s`, imaginary part at row `2s + 1`).
/// `[fac1, alphn, betan]` are the per-lane `U1/h`, `α/h`, `β/h` rows.
#[inline]
fn residual_rows<W: LaneWidth>(
    w: W,
    n: usize,
    [fac1, alphn, betan]: [&W::Row<f64>; 3],
    [f1, f2, f3]: [&[f64]; 3],
    [w1, w2, w3]: [&[f64]; 3],
    rhs_real: &mut [f64],
    rhs_cplx: &mut [f64],
) {
    let pairs = rhs_cplx.chunks_exact_mut(2 * w.lanes());
    for (s, pair) in (0..n).zip(pairs) {
        let (f1, f2, f3) = (w.row(f1, s), w.row(f2, s), w.row(f3, s));
        let (w1, w2, w3) = (w.row(w1, s), w.row(w2, s), w.row(w3, s));
        let (re, im) = pair.split_at_mut(w.lanes());
        let (rhs_real, re, im) = (w.row_mut(rhs_real, s), w.row_mut(re, 0), w.row_mut(im, 0));
        for l in 0..w.lanes() {
            let fw1 = TI11 * f1[l] + TI12 * f2[l] + TI13 * f3[l];
            let fw2 = TI21 * f1[l] + TI22 * f2[l] + TI23 * f3[l];
            let fw3 = TI31 * f1[l] + TI32 * f2[l] + TI33 * f3[l];
            rhs_real[l] = fw1 - fac1[l] * w1[l];
            re[l] = fw2 - (alphn[l] * w2[l] - betan[l] * w3[l]);
            im[l] = fw3 - (alphn[l] * w3[l] + betan[l] * w2[l]);
        }
    }
}

/// `w ← w + Δw` from the solved right-hand sides, and `dyno[l] ←
/// Σ_s (Δw₁/sc)² + (Δw₂/sc)² + (Δw₃/sc)²` in species order — the sum under
/// the scalar solver's displacement norm.
#[inline]
fn update_rows<W: LaneWidth>(
    w: W,
    n: usize,
    rhs_real: &[f64],
    rhs_cplx: &[f64],
    scale: &[f64],
    [w1, w2, w3]: [&mut [f64]; 3],
    dyno: &mut W::Row<f64>,
) {
    w.reduce(0.0, dyno, |dyno| {
        for s in 0..n {
            let (rr, sc) = (w.row(rhs_real, s), w.row(scale, s));
            let (re, im) = (w.row(rhs_cplx, 2 * s), w.row(rhs_cplx, 2 * s + 1));
            let (w1, w2, w3) = (w.row_mut(w1, s), w.row_mut(w2, s), w.row_mut(w3, s));
            for l in 0..w.lanes() {
                let (d1, d2, d3) = (rr[l], re[l], im[l]);
                w1[l] += d1;
                w2[l] += d2;
                w3[l] += d3;
                let sv = sc[l];
                dyno[l] += (d1 / sv).powi(2) + (d2 / sv).powi(2) + (d3 / sv).powi(2);
            }
        }
    });
}

/// `z ← T·w`: back from the transformed variables to the stage increments.
#[inline]
fn back_transform_rows<W: LaneWidth>(
    w: W,
    n: usize,
    [w1, w2, w3]: [&[f64]; 3],
    [z1, z2, z3]: [&mut [f64]; 3],
) {
    for s in 0..n {
        let (w1, w2, w3) = (w.row(w1, s), w.row(w2, s), w.row(w3, s));
        let (z1, z2, z3) = (w.row_mut(z1, s), w.row_mut(z2, s), w.row_mut(z3, s));
        for l in 0..w.lanes() {
            z1[l] = T11 * w1[l] + T12 * w2[l] + T13 * w3[l];
            z2[l] = T21 * w1[l] + T22 * w2[l] + T23 * w3[l];
            z3[l] = T31 * w1[l] + w2[l];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OdeSolver, OdeSystem, Radau5, Solution, SolveFailure, SolverError};
    use paraspace_linalg::Matrix;
    use paraspace_vgpu::LaneGroupStats;

    /// A family of van der Pol oscillators: member `m` has its own
    /// stiffness parameter `μ_m`, so lanes genuinely diverge in step size,
    /// Newton iteration count, and Jacobian-refresh cadence.
    ///
    ///   dy0/dt = y1
    ///   dy1/dt = μ·((1 − y0²)·y1) − y0
    struct VdpFamily {
        mus: Vec<f64>,
        y0s: Vec<[f64; 2]>,
        bound: Vec<f64>,
    }

    impl VdpFamily {
        fn new(mus: Vec<f64>, lanes: usize) -> Self {
            let y0s = mus.iter().enumerate().map(|(i, _)| [2.0 + i as f64 * 0.0625, 0.0]).collect();
            VdpFamily { mus, y0s, bound: vec![0.0; lanes] }
        }

        /// The scalar twin of member `m`, with identical arithmetic and an
        /// analytic Jacobian (as the batch kernel requires).
        fn scalar(&self, m: usize) -> (VdpScalar, [f64; 2]) {
            (VdpScalar { mu: self.mus[m] }, self.y0s[m])
        }
    }

    struct VdpScalar {
        mu: f64,
    }

    impl OdeSystem for VdpScalar {
        fn dim(&self) -> usize {
            2
        }
        fn rhs(&self, _t: f64, y: &[f64], d: &mut [f64]) {
            d[0] = y[1];
            d[1] = self.mu * ((1.0 - y[0] * y[0]) * y[1]) - y[0];
        }
        fn jacobian(&self, _t: f64, y: &[f64], jac: &mut Matrix) {
            jac[(0, 0)] = 0.0;
            jac[(0, 1)] = 1.0;
            jac[(1, 0)] = self.mu * (-2.0 * y[0] * y[1]) - 1.0;
            jac[(1, 1)] = self.mu * (1.0 - y[0] * y[0]);
        }
        fn has_analytic_jacobian(&self) -> bool {
            true
        }
    }

    impl BatchOdeSystem for VdpFamily {
        fn dim(&self) -> usize {
            2
        }
        fn lanes(&self) -> usize {
            self.bound.len()
        }
        fn members(&self) -> usize {
            self.mus.len()
        }
        fn initial_state(&self, member: usize, y0: &mut [f64]) {
            y0.copy_from_slice(&self.y0s[member]);
        }
        fn bind_lane(&mut self, lane: usize, member: usize) {
            self.bound[lane] = self.mus[member];
        }
        fn rhs_batch(&mut self, _t: &[f64], y: &BatchState, dydt: &mut BatchState) {
            let lanes = self.bound.len();
            let (yv, dv) = (y.as_slice(), dydt.as_mut_slice());
            for l in 0..lanes {
                let mu = self.bound[l];
                dv[l] = yv[lanes + l];
                dv[lanes + l] = mu * ((1.0 - yv[l] * yv[l]) * yv[lanes + l]) - yv[l];
            }
        }
        fn supports_jacobian_batch(&self) -> bool {
            true
        }
        fn jacobian_batch(&mut self, _t: &[f64], y: &BatchState, jac: &mut [f64]) {
            let lanes = self.bound.len();
            let yv = y.as_slice();
            for l in 0..lanes {
                let mu = self.bound[l];
                jac[l] = 0.0;
                jac[lanes + l] = 1.0;
                jac[2 * lanes + l] = mu * (-2.0 * yv[l] * yv[lanes + l]) - 1.0;
                jac[3 * lanes + l] = mu * (1.0 - yv[l] * yv[l]);
            }
        }
    }

    fn opts() -> SolverOptions {
        SolverOptions::default()
    }

    fn sample_grid() -> Vec<f64> {
        vec![0.25, 0.5, 1.0, 2.0]
    }

    /// Stiffness spread: mildly to severely stiff members in one group.
    fn mu_spread(count: usize) -> Vec<f64> {
        (0..count).map(|i| 5.0 + 23.0 * i as f64).collect()
    }

    #[test]
    fn lockstep_is_bitwise_identical_to_scalar_at_any_width() {
        let mus = mu_spread(10);
        let times = sample_grid();
        let proto = VdpFamily::new(mus.clone(), 1);
        let reference: Vec<Solution> = (0..mus.len())
            .map(|m| {
                let (sys, y0) = proto.scalar(m);
                Radau5::new().solve(&sys, 0.0, &y0, &times, &opts()).unwrap()
            })
            .collect();
        // The reference solves must themselves exercise the reuse policy,
        // or this test would not cover the masked refresh machinery.
        assert!(reference.iter().any(|s| s.stats.jacobian_evals < s.stats.steps));
        assert!(reference
            .iter()
            .any(|s| s.stats.lu_decompositions < 2 * (s.stats.accepted + s.stats.rejected)));
        // 3 and 5 run the Newton row passes on slice rows.
        for width in [1, 2, 3, 4, 5, 8] {
            let mut family = VdpFamily::new(mus.clone(), width);
            let (results, report) = Radau5Batch::new().solve_group(
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
        let mut family = VdpFamily::new(mu_spread(13), 4);
        let times = sample_grid();
        let (results, report) = Radau5Batch::new().solve_group(
            &mut family,
            0.0,
            &times,
            &opts(),
            &mut SolverScratch::new(),
        );
        assert!(results.iter().all(|r| r.is_ok()));
        assert!(report.lockstep_iters > 0);
        assert!(report.lane_steps <= report.width as u64 * report.lockstep_iters);
        assert!(report.lane_steps > 0);
        // Refill sweeps happened (initial fill plus at least one refill
        // round), each costing 2 sweeps under automatic hinit.
        assert!(report.refill_sweeps >= 4);
    }

    #[test]
    fn packed_report_is_the_report_a_divergent_group_returns() {
        // What the engines bill a modelled lane group from: the members'
        // Newton-iteration counts, list-scheduled in member order, give the
        // ticks and lane-steps the kernel itself counts for that group —
        // with members several-fold apart, so lanes really are refilled at
        // different ticks, and with a member that never enters a tick.
        // Over 40 time units the mild members oscillate several times while
        // the severe ones are still on their first slow branch.
        let times = [5.0, 10.0, 20.0, 40.0];
        for (count, width) in [(13, 4), (10, 2), (9, 8), (5, 1)] {
            let mut family = VdpFamily::new(mu_spread(count), width);
            family.y0s[2] = [f64::NAN, 0.0];
            let (results, report) = Radau5Batch::new().solve_group(
                &mut family,
                0.0,
                &times,
                &opts(),
                &mut SolverScratch::new(),
            );
            let ticks: Vec<u64> = results
                .iter()
                .map(|r| match r {
                    Ok(sol) => sol.stats.nonlinear_iters as u64,
                    Err(failure) => failure.stats.nonlinear_iters as u64,
                })
                .collect();
            assert_eq!(ticks[2], 0, "the invalid member never occupies a lane");
            let busiest = *ticks.iter().max().unwrap();
            let idlest = *ticks.iter().filter(|&&t| t > 0).min().unwrap();
            assert!(busiest >= 3 * idlest, "members must diverge: {idlest}..{busiest}");
            let packed = LaneGroupStats::packed(width, ticks);
            assert_eq!(
                (packed.width, packed.lockstep_iters, packed.lane_steps),
                (report.width, report.lockstep_iters, report.lane_steps),
                "{count} members at width {width}"
            );
        }
    }

    #[test]
    fn a_pre_step_park_idles_its_lane_for_one_tick_the_packing_does_not() {
        // The one way the host report and the packing part, as in the DOPRI5
        // kernel: a member parked by pre-step control (the step budget) at
        // the head of a tick in which another lane iterates leaves its lane
        // idle for that tick, where a modelled group hands the lane to the
        // next member at once. Two lanes: member 0 starts at rest and is
        // short, so member 2 takes its lane and is still iterating when
        // member 1 exhausts the budget; member 3 then waits one tick for
        // lane 1.
        let o = SolverOptions { step_budget: Some(40), ..opts() };
        let mut family = VdpFamily::new(vec![400.0; 4], 2);
        family.y0s[0] = [0.0, 0.0]; // at rest: a few growing steps
        let (results, report) = Radau5Batch::new().solve_group(
            &mut family,
            0.0,
            &sample_grid(),
            &o,
            &mut SolverScratch::new(),
        );
        let stats = |r: &Attempt| match r {
            Ok(sol) => sol.stats,
            Err(failure) => failure.stats,
        };
        let ticks: Vec<u64> = results.iter().map(|r| stats(r).nonlinear_iters as u64).collect();
        assert!(results[0].is_ok() && ticks[0] < ticks[1], "{ticks:?}");
        for r in &results[1..] {
            let error = &r.as_ref().unwrap_err().error;
            assert!(matches!(error, SolverError::StepBudgetExhausted { .. }), "{error:?}");
        }
        let packed = LaneGroupStats::packed(2, ticks);
        assert_eq!(report.lockstep_iters, packed.lockstep_iters + 1);
        assert_eq!(report.lane_steps, packed.lane_steps);
    }

    #[test]
    fn failing_member_parks_without_poisoning_the_group() {
        // A brutal step budget makes the stiffer members fail while the
        // mildest finishes; outcomes must match the scalar path member for
        // member, stats included.
        let mus = vec![1.0, 400.0, 900.0, 2.0];
        let o = SolverOptions { step_budget: Some(45), ..opts() };
        let times = sample_grid();
        let proto = VdpFamily::new(mus.clone(), 1);
        let reference: Vec<Result<Solution, SolveFailure>> = (0..mus.len())
            .map(|m| {
                let (sys, y0) = proto.scalar(m);
                Radau5::new().solve(&sys, 0.0, &y0, &times, &o)
            })
            .collect();
        assert!(reference.iter().any(|r| r.is_err()), "budget must bite some member");
        assert!(reference.iter().any(|r| r.is_ok()), "some member must finish");
        let mut family = VdpFamily::new(mus.clone(), 2);
        let (results, _) =
            Radau5Batch::new().solve_group(&mut family, 0.0, &times, &o, &mut SolverScratch::new());
        for (m, (got, want)) in results.iter().zip(reference.iter()).enumerate() {
            match (got, want) {
                (Ok(g), Ok(w)) => {
                    assert_eq!(g.states, w.states, "member={m}");
                    assert_eq!(g.stats, w.stats, "member={m}");
                }
                (Err(g), Err(w)) => {
                    assert_eq!(
                        std::mem::discriminant(&g.error),
                        std::mem::discriminant(&w.error),
                        "member={m}: {:?} vs {:?}",
                        g.error,
                        w.error
                    );
                    assert_eq!(g.stats, w.stats, "member={m}");
                }
                _ => panic!("member {m}: outcome kind differs from scalar"),
            }
        }
    }

    #[test]
    fn empty_sample_times_yield_empty_solutions() {
        let mut family = VdpFamily::new(vec![5.0, 10.0, 20.0], 2);
        let (results, report) = Radau5Batch::new().solve_group(
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
        let mut family = VdpFamily::new(vec![5.0, 10.0], 2);
        let (results, _) = Radau5Batch::new().solve_group(
            &mut family,
            0.0,
            &[0.0, 0.5],
            &opts(),
            &mut SolverScratch::new(),
        );
        for (m, r) in results.iter().enumerate() {
            let sol = r.as_ref().unwrap();
            assert_eq!(sol.state_at(0)[0], 2.0 + m as f64 * 0.0625);
        }
    }

    #[test]
    fn invalid_member_fails_alone() {
        let mut family = VdpFamily::new(vec![5.0, 10.0, 20.0], 2);
        family.y0s[1] = [f64::NAN, 0.0];
        let times = sample_grid();
        let (results, _) = Radau5Batch::new().solve_group(
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
        // fresh-scratch runs exactly — including the reused BatchLu storage.
        let times = sample_grid();
        let mut scratch = SolverScratch::new();
        let run = |scratch: &mut SolverScratch, mus: Vec<f64>| {
            let mut family = VdpFamily::new(mus, 4);
            Radau5Batch::new().solve_group(&mut family, 0.0, &times, &opts(), scratch).0
        };
        let a1 = run(&mut scratch, mu_spread(5));
        let a2 = run(&mut scratch, vec![3.0, 70.0]);
        let b1 = run(&mut SolverScratch::new(), mu_spread(5));
        let b2 = run(&mut SolverScratch::new(), vec![3.0, 70.0]);
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
        let proto = VdpFamily::new(vec![5.0, 40.0], 1);
        let reference: Vec<Solution> = (0..2)
            .map(|m| {
                let (sys, y0) = proto.scalar(m);
                Radau5::new().solve(&sys, 0.0, &y0, &times, &o).unwrap()
            })
            .collect();
        let mut family = VdpFamily::new(vec![5.0, 40.0], 2);
        let (results, report) =
            Radau5Batch::new().solve_group(&mut family, 0.0, &times, &o, &mut SolverScratch::new());
        for (m, r) in results.iter().enumerate() {
            let sol = r.as_ref().unwrap();
            assert_eq!(sol.states, reference[m].states, "member={m}");
            assert_eq!(sol.stats, reference[m].stats, "member={m}");
        }
        // Fixed h0 skips the hinit probe: exactly one sweep per fill round.
        assert_eq!(report.refill_sweeps, 1);
    }

    #[test]
    fn systems_without_jacobian_batch_are_rejected() {
        struct NoJac;
        impl BatchOdeSystem for NoJac {
            fn dim(&self) -> usize {
                1
            }
            fn lanes(&self) -> usize {
                1
            }
            fn members(&self) -> usize {
                1
            }
            fn initial_state(&self, _member: usize, y0: &mut [f64]) {
                y0[0] = 1.0;
            }
            fn bind_lane(&mut self, _lane: usize, _member: usize) {}
            fn rhs_batch(&mut self, _t: &[f64], y: &BatchState, dydt: &mut BatchState) {
                dydt.set(0, 0, -y.at(0, 0));
            }
        }
        let result = std::panic::catch_unwind(|| {
            Radau5Batch::new().solve_group(
                &mut NoJac,
                0.0,
                &[1.0],
                &opts(),
                &mut SolverScratch::new(),
            )
        });
        assert!(result.is_err(), "missing jacobian_batch must be rejected loudly");
    }

    const CHAIN_N: usize = 28;
    const CHAIN_BLOCK: usize = 4;

    /// Seven independent 4-species decay chains:
    ///
    ///   dy_s/dt = −c_s·k·y_s + c_{s−1}·k·y_{s−1}   (within each block)
    ///
    /// with per-species coefficients `c_s = n − s` (decreasing, so the
    /// subdiagonal entry of the iteration matrix can win partial pivoting at
    /// large `h` and the lanes' row exchanges — different per lane, since
    /// member `m` scales the rate `k` — are actually exercised).
    struct ChainFamily {
        ks: Vec<f64>,
        bound: Vec<f64>,
    }

    impl ChainFamily {
        fn new(ks: Vec<f64>, lanes: usize) -> Self {
            ChainFamily { ks, bound: vec![0.0; lanes] }
        }

        fn y0() -> Vec<f64> {
            let mut y0 = vec![0.0; CHAIN_N];
            y0[0] = 1.0;
            y0[1] = 0.5;
            y0
        }
    }

    struct ChainScalar {
        k: f64,
    }

    impl OdeSystem for ChainScalar {
        fn dim(&self) -> usize {
            CHAIN_N
        }
        fn rhs(&self, _t: f64, y: &[f64], d: &mut [f64]) {
            for s in 0..CHAIN_N {
                let c = (CHAIN_N - s) as f64;
                d[s] = -c * self.k * y[s];
                if s % CHAIN_BLOCK != 0 {
                    let cp = (CHAIN_N - (s - 1)) as f64;
                    d[s] += cp * self.k * y[s - 1];
                }
            }
        }
        fn jacobian(&self, _t: f64, _y: &[f64], jac: &mut Matrix) {
            for i in 0..CHAIN_N {
                for j in 0..CHAIN_N {
                    jac[(i, j)] = 0.0;
                }
            }
            for s in 0..CHAIN_N {
                let c = (CHAIN_N - s) as f64;
                jac[(s, s)] = -c * self.k;
                if s % CHAIN_BLOCK != 0 {
                    let cp = (CHAIN_N - (s - 1)) as f64;
                    jac[(s, s - 1)] = cp * self.k;
                }
            }
        }
        fn has_analytic_jacobian(&self) -> bool {
            true
        }
    }

    impl BatchOdeSystem for ChainFamily {
        fn dim(&self) -> usize {
            CHAIN_N
        }
        fn lanes(&self) -> usize {
            self.bound.len()
        }
        fn members(&self) -> usize {
            self.ks.len()
        }
        fn initial_state(&self, _member: usize, y0: &mut [f64]) {
            y0.copy_from_slice(&ChainFamily::y0());
        }
        fn bind_lane(&mut self, lane: usize, member: usize) {
            self.bound[lane] = self.ks[member];
        }
        fn rhs_batch(&mut self, _t: &[f64], y: &BatchState, dydt: &mut BatchState) {
            let lanes = self.bound.len();
            let (yv, dv) = (y.as_slice(), dydt.as_mut_slice());
            for s in 0..CHAIN_N {
                let c = (CHAIN_N - s) as f64;
                for l in 0..lanes {
                    let k = self.bound[l];
                    dv[s * lanes + l] = -c * k * yv[s * lanes + l];
                    if s % CHAIN_BLOCK != 0 {
                        let cp = (CHAIN_N - (s - 1)) as f64;
                        dv[s * lanes + l] += cp * k * yv[(s - 1) * lanes + l];
                    }
                }
            }
        }
        fn supports_jacobian_batch(&self) -> bool {
            true
        }
        fn jacobian_batch(&mut self, _t: &[f64], _y: &BatchState, jac: &mut [f64]) {
            let lanes = self.bound.len();
            jac.fill(0.0);
            for s in 0..CHAIN_N {
                let c = (CHAIN_N - s) as f64;
                for l in 0..lanes {
                    let k = self.bound[l];
                    jac[(s * CHAIN_N + s) * lanes + l] = -c * k;
                    if s % CHAIN_BLOCK != 0 {
                        let cp = (CHAIN_N - (s - 1)) as f64;
                        jac[(s * CHAIN_N + (s - 1)) * lanes + l] = cp * k;
                    }
                }
            }
        }
    }

    #[test]
    fn pivoting_lanes_are_bitwise_identical_to_scalar() {
        let ks = vec![0.5, 2.0, 8.0, 32.0, 128.0];
        let times = sample_grid();
        let y0 = ChainFamily::y0();
        let reference: Vec<Solution> = ks
            .iter()
            .map(|&k| Radau5::new().solve(&ChainScalar { k }, 0.0, &y0, &times, &opts()).unwrap())
            .collect();
        for width in [1, 2, 4, 8] {
            let mut family = ChainFamily::new(ks.clone(), width);
            let (results, report) = Radau5Batch::new().solve_group(
                &mut family,
                0.0,
                &times,
                &opts(),
                &mut SolverScratch::new(),
            );
            assert_eq!(report.width, width);
            for (m, r) in results.iter().enumerate() {
                let sol = r.as_ref().expect("member must succeed");
                assert_eq!(sol.times, reference[m].times, "w={width} m={m}");
                assert_eq!(sol.states, reference[m].states, "w={width} m={m}");
                assert_eq!(sol.stats, reference[m].stats, "w={width} m={m}");
            }
        }
    }
}
