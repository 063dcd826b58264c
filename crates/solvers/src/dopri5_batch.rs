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
//! so a long-running member never serializes the group behind it. The
//! queue is the system's own `0..members()` ([`Dopri5Batch::solve_group`])
//! or a caller-supplied source ([`Dopri5Batch::solve_queue`]) that several
//! groups on several threads can share.
//!
//! # One tick
//!
//! A lockstep tick is a handful of passes over species-major/lane-minor
//! rows (`lockstep_stages`): one per stage argument (the scalar solver's
//! expression, per lane), then one that forms the embedded error, its
//! scale, `Σ(e/w)²` and "`y_new` is finite" for every lane at once, and one
//! for the stiffness detector's two sums. Each lane's controller — the
//! scalar solver's own `settle` and dense output, on the lane's column —
//! then reads those reductions, and the tick ends by applying `y ← y_new`,
//! `k1 ← k7` to the lanes whose step was accepted (a per-lane select over
//! whole rows; a swap of the blocks when that is every lane). Every pass is
//! one body over [`LaneWidth`] rows — `[f64; L]` at widths 1, 2, 4 and 8,
//! slices at any other — and the width is chosen once per tick
//! ([`with_lane_width!`]), the same construction as the `rbm` flux and
//! Jacobian kernels. Measured on the release CLI (x86-64 baseline, two
//! lanes per SSE2 instruction): this kernel's arithmetic is 1 297 packed
//! against 349 scalar instructions (140 / 1 485 while rows were slices of a
//! run-time length), and a member-step of the 128-species sweep costs
//! 2.5 µs at width 8 where it cost 3.3; `scripts/lane-asm-check.sh` keeps
//! the first number honest in CI. The passes stay on that instruction set
//! on every CPU: AVX2 copies of them gained nothing end to end, and at
//! width 8 the stage pass ran slower (DESIGN.md "Two instruction sets"),
//! whereas the RHS a tick calls runs its AVX2 twin on a CPU with AVX2.
//!
//! # Lane bookkeeping
//!
//! What a lane holds — its member's `Run`: solution, sample cursor, step
//! counters and the controller's `DopriLane` state — and the rules around
//! each step are the scalar drivers' own, written once in `step.rs` and
//! shared with [`Radau5Batch`](crate::Radau5Batch). A refill validates a
//! member with the scalar preamble's `check_inputs` and delivers its
//! samples at `t0` with `samples_at_start`; a fresh lane's `hinit` is
//! `hinit_probe` and `hinit_finish`, the two halves of the scalar
//! `initial_step_size`, around one batched sweep of all fresh lanes' Euler
//! probes; the pre-step pass asks `step_limits` and `clamp_step`, as the
//! scalar loop head does; and one park settles a lane. The step controller
//! — non-finite rejection, PI control, the stiffness hand-over — and the
//! dense output are `dopri5.rs`'s, called on the lane's column of the
//! blocks. This file keeps the tableau's row passes.
//!
//! # Numerical contract
//!
//! Per-member results are **bitwise identical** to the scalar `Dopri5`
//! solve of the same member, at any lane width. This falls out of two
//! invariants: every per-lane arithmetic expression in this file mirrors
//! the scalar implementation operation-for-operation (sums over species
//! run in species order per lane, as the scalar norms do), and no
//! expression mixes values from two lanes, so a member's dependency chain
//! is the same IEEE-754 sequence whether it runs in lane 3 of 8 or alone,
//! in this group or another. The
//! determinism suite asserts `==` across lane widths and against the
//! scalar path.
//!
//! Masked (parked or never-bound) lanes still flow through the stage
//! arithmetic — with `h = 0` and whatever state they last held — because
//! skipping them would require cross-lane branches in the hot loops. Their
//! results are discarded; non-finite values they may produce cannot leak
//! into live lanes (no cross-lane operations exist).
//!
//! # Occupancy
//!
//! A group's [`LaneReport`] counts the ticks it ran and the live lanes in
//! each. The engines do not bill the modelled device from it: which host
//! group integrates a member, and beside which others, depends on timing
//! (several groups share one member queue), and the bill must be a
//! function of the job alone. They bill the vgpu's
//! `LaneGroupStats::packed` over the members' step counts — the schedule of
//! a group serving those members in member order — which is the report this
//! kernel returns for such a group, with one exception: a member parked by *pre-step* control (step
//! budget, `max_steps`, step-size underflow) at the head of a tick in
//! which another lane is live leaves its lane idle for that tick, because
//! refills wait for the next loop head, where the packing hands the lane
//! over at once. The tests pin the agreement and that one tick.

use crate::batch::{BatchOdeSystem, BatchState};
use crate::dopri5::{
    dense_output, DopriLane, Settled, A21, A31, A32, A41, A42, A43, A51, A52, A53, A54, A61, A62,
    A63, A64, A65, A71, A73, A74, A75, A76, C2, C3, C4, C5, E1, E3, E4, E5, E6, E7,
};
use crate::step::{root_mean, Column, LaneGroup, LaneScratch};
use crate::{Solution, SolveFailure, SolverOptions, SolverScratch};
use paraspace_linalg::{with_lane_width, LaneWidth};

/// Work accounting for one host lane-group integration (the engines bill
/// modelled groups instead; see the module docs).
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

/// Pooled working storage for one lockstep lane-group integration: the 7
/// stage blocks, the state, stage-argument and new-state blocks, the lane
/// clocks and start-up buffers, and per-lane reduction vectors. Between two
/// ticks only `y` and `k[0]` hold anything: lane (re)binding probes through
/// `y_stage` and `k[1]`, and a tick that advances every lane swaps
/// `y`/`y_new` and `k[0]`/`k[6]`.
#[derive(Debug, Default)]
pub(crate) struct DopriBatchScratch {
    k: [BatchState; 7],
    y: BatchState,
    y_stage: BatchState,
    y_new: BatchState,
    lane: LaneScratch,
    r: [Vec<f64>; 5],
    // One tick's per-lane reductions: Σ(e/w)² over species, the stiffness
    // detector's two sums, "y_new is finite", and "advance this lane".
    err_sq: Vec<f64>,
    st_num: Vec<f64>,
    st_den: Vec<f64>,
    finite: Vec<bool>,
    advance: Vec<bool>,
}

impl DopriBatchScratch {
    /// Sizes every buffer for dimension `n` × `lanes` lanes (stale contents
    /// are harmless: live lanes fully rewrite their columns before reads).
    fn ensure(&mut self, n: usize, lanes: usize) {
        let blocks = [&mut self.y, &mut self.y_stage, &mut self.y_new];
        for b in self.k.iter_mut().chain(blocks) {
            if b.dim() != n || b.lanes() != lanes {
                b.resize(n, lanes);
            }
        }
        self.lane.ensure(n, lanes);
        for v in &mut self.r {
            v.resize(n, 0.0);
        }
        for v in [&mut self.err_sq, &mut self.st_num, &mut self.st_den] {
            v.resize(lanes, 0.0);
        }
        self.finite.resize(lanes, true);
        self.advance.resize(lanes, false);
    }
}

/// How one member's integration ended.
pub(crate) type Attempt = Result<Solution, SolveFailure>;

/// `solve_group` over a lockstep kernel's `solve_queue`: feeds it the
/// members `0..members` in order and returns the attempts index-aligned
/// with them.
pub(crate) fn group_from_queue(
    members: usize,
    solve_queue: impl FnOnce(&mut dyn FnMut() -> Option<usize>) -> (Vec<(usize, Attempt)>, LaneReport),
) -> (Vec<Attempt>, LaneReport) {
    let mut pending = 0..members;
    let (settled, report) = solve_queue(&mut || pending.next());
    let mut results: Vec<Option<Attempt>> = (0..members).map(|_| None).collect();
    for (m, result) in settled {
        results[m] = Some(result);
    }
    let results = results
        .into_iter()
        .enumerate()
        .map(|(m, r)| r.unwrap_or_else(|| panic!("member {m} never scheduled")))
        .collect();
    (results, report)
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
    ) -> (Vec<Attempt>, LaneReport) {
        group_from_queue(system.members(), |pending| {
            self.solve_queue(system, pending, t0, sample_times, options, scratch)
        })
    }

    /// Like [`solve_group`](Self::solve_group), but the members come from
    /// `next_member` instead of `0..system.members()`: whenever a lane is
    /// free the group asks it for the next member index (any index
    /// `system` knows), and stops asking at the first `None` — the live
    /// lanes then drain and the call returns. Several groups, each with its
    /// own `system` and scratch, can therefore serve one shared queue, and
    /// a source that starts answering `None` early (a cancellation) ends
    /// the group at its members in flight.
    ///
    /// Returns `(member, result)` pairs in the order the members settled.
    /// A member's result does not depend on which group integrated it, nor
    /// beside which other members.
    pub fn solve_queue(
        &self,
        system: &mut dyn BatchOdeSystem,
        next_member: &mut dyn FnMut() -> Option<usize>,
        t0: f64,
        sample_times: &[f64],
        options: &SolverOptions,
        scratch: &mut SolverScratch,
    ) -> (Vec<(usize, Attempt)>, LaneReport) {
        solve_queue_impl(system, next_member, t0, sample_times, options, &mut scratch.dopri_batch)
    }
}

fn solve_queue_impl(
    system: &mut dyn BatchOdeSystem,
    next_member: &mut dyn FnMut() -> Option<usize>,
    t0: f64,
    sample_times: &[f64],
    options: &SolverOptions,
    ws: &mut DopriBatchScratch,
) -> (Vec<(usize, Attempt)>, LaneReport) {
    let (n, lanes) = (system.dim(), system.lanes());
    let mut group = LaneGroup::new(lanes, t0, sample_times, options, DopriLane::START);
    ws.ensure(n, lanes);

    loop {
        // --- Lane compaction: bind pending members into free lanes, then
        // seed them: the FSAL derivative in `k1`, and `hinit`. ---
        group.refill(system, next_member, &mut ws.y, &mut ws.lane);
        let [k1, probe_f, ..] = &mut ws.k;
        group.start_fresh(system, &mut ws.lane, &ws.y, k1, [&mut ws.y_stage, probe_f], 5);
        if group.live() == 0 {
            break; // no live lanes and no pending members
        }

        // --- Per-lane pre-step control (the scalar loop head). ---
        group.pre_step(&mut ws.lane, |_| true, |c| c.flag_stiffness());
        let live = group.live();
        if live == 0 {
            continue; // refill (or terminate) at the loop head
        }
        group.report.lockstep_iters += 1;
        group.report.lane_steps += live as u64;

        // --- One tick at the group's width: stages 2..7 with the per-lane
        // reductions, the per-lane controller, the accepted lanes' advance. ---
        with_lane_width!(lanes, |w| {
            lockstep_stages(w, system, ws, options);
            settle_lanes(&mut group, ws, sample_times);
            advance_accepted(w, ws);
        });
    }

    group.finish()
}

/// The per-lane half of a tick: each live lane's controller
/// ([`settle`](crate::step::Run::settle), the scalar solver's) on the
/// tick's reductions, then its dense output. Marks in `advance` the lanes
/// whose step was accepted and who go on; settles those that finished or
/// failed.
// One copy whatever the width: nothing in here is a row pass.
#[inline(never)]
fn settle_lanes(
    group: &mut LaneGroup<'_, DopriLane>,
    ws: &mut DopriBatchScratch,
    sample_times: &[f64],
) {
    let DopriBatchScratch {
        k,
        y,
        y_new,
        r,
        lane: LaneScratch { t, h, .. },
        err_sq,
        st_num,
        st_den,
        finite,
        advance,
        ..
    } = ws;
    let (n, lanes) = (y.dim(), y.lanes());
    let [k1, _, k3, k4, k5, k6, k7] = &*k;
    let k = [k1, k3, k4, k5, k6, k7].map(BatchState::as_slice);
    let y = [y.as_slice(), y_new.as_slice()];
    let t_end = group.t_end;
    for lane in 0..lanes {
        advance[lane] = false;
        let Some(c) = group.lanes[lane].as_mut() else { continue };
        c.sol.stats.rhs_evals += 6;
        c.count_step();

        let err = root_mean(err_sq[lane], n);
        let stiffness = [st_num[lane], st_den[lane]];
        let (t_l, h_l) = (t[lane], h[lane]);
        let outcome = match c.settle(err, finite[lane], stiffness, t_l, h_l, t_end) {
            Settled::Reject(h_new) => {
                h[lane] = h_new;
                continue;
            }
            Settled::Fail(error) => Err(error),
            Settled::Accept(h_new) => {
                dense_output(c, sample_times, t_l, h_l, Column::lane(n, lanes, lane), y, k, r);
                t[lane] = t_l + h_l;
                if !c.done(sample_times) {
                    // y ← y_new and the FSAL k1 ← k7 happen for all
                    // advancing lanes at once, after this pass.
                    advance[lane] = true;
                    h[lane] = h_new;
                    continue;
                }
                c.flag_stiffness();
                Ok(())
            }
        };
        group.park(lane, outcome, h);
    }
}

/// One lockstep tick up to the controller: stages 2..7 — a lane-wide
/// [`rhs_batch`](BatchOdeSystem::rhs_batch) sweep each, per-lane `h` — then
/// the per-lane reductions the controller reads (`err_sq`, `finite`,
/// `st_num`, `st_den`). Every formula is the scalar solver's, term for
/// term.
///
/// Always inlined into [`with_lane_width!`]'s arm for `w`, so each width the
/// engines schedule gets its own copy of the row passes below over
/// `[f64; L]` rows, and any other width the same body over slices.
#[inline(always)]
fn lockstep_stages<W: LaneWidth>(
    w: W,
    system: &mut dyn BatchOdeSystem,
    ws: &mut DopriBatchScratch,
    options: &SolverOptions,
) {
    let DopriBatchScratch {
        k,
        y,
        y_stage,
        y_new,
        lane: LaneScratch { t, h, t_stage, .. },
        err_sq,
        st_num,
        st_den,
        finite,
        ..
    } = ws;
    let [k1, k2, k3, k4, k5, k6, k7] = k;
    let n = y.dim();
    let (t, hs, h, y) = (&t[..], &h[..], w.row(h, 0), y.as_slice());

    let k1 = k1.as_slice();
    stage_rows(w, n, h, y, [k1], y_stage.as_mut_slice(), |h, [k1]| h * A21 * k1);
    stage_times(C2, t, hs, t_stage);
    system.rhs_batch(t_stage, y_stage, k2);
    let k2 = k2.as_slice();
    stage_rows(w, n, h, y, [k1, k2], y_stage.as_mut_slice(), |h, [k1, k2]| {
        h * (A31 * k1 + A32 * k2)
    });
    stage_times(C3, t, hs, t_stage);
    system.rhs_batch(t_stage, y_stage, k3);
    let k3 = k3.as_slice();
    stage_rows(w, n, h, y, [k1, k2, k3], y_stage.as_mut_slice(), |h, [k1, k2, k3]| {
        h * (A41 * k1 + A42 * k2 + A43 * k3)
    });
    stage_times(C4, t, hs, t_stage);
    system.rhs_batch(t_stage, y_stage, k4);
    let k4 = k4.as_slice();
    stage_rows(w, n, h, y, [k1, k2, k3, k4], y_stage.as_mut_slice(), |h, [k1, k2, k3, k4]| {
        h * (A51 * k1 + A52 * k2 + A53 * k3 + A54 * k4)
    });
    stage_times(C5, t, hs, t_stage);
    system.rhs_batch(t_stage, y_stage, k5);
    let k5 = k5.as_slice();
    stage_rows(
        w,
        n,
        h,
        y,
        [k1, k2, k3, k4, k5],
        y_stage.as_mut_slice(),
        |h, [k1, k2, k3, k4, k5]| h * (A61 * k1 + A62 * k2 + A63 * k3 + A64 * k4 + A65 * k5),
    );
    stage_times(1.0, t, hs, t_stage); // t + h: 1·h is exact
    system.rhs_batch(t_stage, y_stage, k6);
    let k6 = k6.as_slice();
    // 5th-order solution (stage 7 argument) and FSAL derivative.
    stage_rows(
        w,
        n,
        h,
        y,
        [k1, k3, k4, k5, k6],
        y_new.as_mut_slice(),
        |h, [k1, k3, k4, k5, k6]| h * (A71 * k1 + A73 * k3 + A74 * k4 + A75 * k5 + A76 * k6),
    );
    system.rhs_batch(t_stage, y_new, k7);
    let (k7, y_new) = (k7.as_slice(), y_new.as_slice());

    let k = [k1, k3, k4, k5, k6, k7];
    error_rows(w, n, h, y, y_new, k, options, w.row_mut(err_sq, 0), w.row_mut(finite, 0));
    // `y_stage` still holds stage 6's argument, the detector's `y_sti`.
    let (st_num, st_den) = (w.row_mut(st_num, 0), w.row_mut(st_den, 0));
    stiffness_rows(w, n, k6, k7, y_new, y_stage.as_slice(), st_num, st_den);
}

/// The end of a tick: `y ← y_new`, `k1 ← k7` in the lanes the controller
/// marked. When that is every lane — each tick of a group whose members
/// accept their steps — the blocks trade places instead, as the scalar
/// loop's vectors do: `y_new` and `k7` hold nothing between two ticks.
#[inline(always)]
fn advance_accepted<W: LaneWidth>(w: W, ws: &mut DopriBatchScratch) {
    let DopriBatchScratch { k, y, y_new, advance, .. } = ws;
    if advance.iter().all(|&lane| lane) {
        std::mem::swap(y, y_new);
        k.swap(0, 6);
        return;
    }
    let [k1, .., k7] = k;
    let (n, advance) = (y.dim(), w.row(advance, 0));
    advance_rows(
        w,
        n,
        advance,
        y_new.as_slice(),
        k7.as_slice(),
        y.as_mut_slice(),
        k1.as_mut_slice(),
    );
}

/// `out_l ← t_l + c·h_l`: each lane's time at the stage with node `c`.
#[inline(always)]
fn stage_times(c: f64, t: &[f64], h: &[f64], out: &mut [f64]) {
    for ((out, &t), &h) in out.iter_mut().zip(t).zip(h) {
        *out = t + c * h;
    }
}

/// Row `s` of `N` lane-minor blocks.
#[inline(always)]
fn rows_at<W: LaneWidth, const N: usize>(w: W, blocks: [&[f64]; N], s: usize) -> [&W::Row<f64>; N] {
    // A plain loop: `array::map` is not reliably inlined into a body this
    // size, and a call per row would undo the pass.
    let mut rows = [w.row(blocks[0], s); N];
    for (row, block) in rows.iter_mut().zip(blocks) {
        *row = w.row(block, s);
    }
    rows
}

/// One stage argument for all lanes: `out ← y + step(h_l, [k_1, …, k_N])`
/// row by row, `step` being the scalar solver's expression for the stage
/// increment.
// This and the passes below are plain `#[inline]`, not `inline(always)`, on
// purpose. An `inline(always)` body is spliced in before code generation and
// loses what its signature says — that `out` overlaps none of the slices
// read — and a row's loads can then not move past its stores: the lanes
// stayed scalar. The code generator inlines these (one caller per
// instantiation) and keeps it; `scripts/lane-asm-check.sh` holds it to that.
#[inline]
fn stage_rows<W: LaneWidth, const N: usize>(
    w: W,
    n: usize,
    h: &W::Row<f64>,
    y: &[f64],
    k: [&[f64]; N],
    out: &mut [f64],
    step: impl Fn(f64, [f64; N]) -> f64,
) {
    for s in 0..n {
        let (y, k, out) = (w.row(y, s), rows_at(w, k, s), w.row_mut(out, s));
        for l in 0..w.lanes() {
            let mut kl = [0.0; N];
            for (kl, row) in kl.iter_mut().zip(k) {
                *kl = row[l];
            }
            out[l] = y[l] + step(h[l], kl);
        }
    }
}

/// The embedded error estimate, its scale and both acceptance reductions
/// in one pass: `err_sq[l] ← Σ_s (e/w)²` in species order — what
/// [`wrms`](crate::step::wrms) sums for lane `l` alone — and `finite[l]` ← every
/// component of lane `l`'s `y_new` is finite.
#[allow(clippy::too_many_arguments)]
#[inline]
fn error_rows<W: LaneWidth>(
    w: W,
    n: usize,
    h: &W::Row<f64>,
    y: &[f64],
    y_new: &[f64],
    k: [&[f64]; 6],
    options: &SolverOptions,
    err_sq: &mut W::Row<f64>,
    finite: &mut W::Row<bool>,
) {
    let (abs_tol, rel_tol) = (options.abs_tol, options.rel_tol);
    w.reduce(0.0, err_sq, |err_sq| {
        w.reduce(true, finite, |finite| {
            for s in 0..n {
                let (y, y_new) = (w.row(y, s), w.row(y_new, s));
                let [k1, k3, k4, k5, k6, k7] = rows_at(w, k, s);
                for l in 0..w.lanes() {
                    let e = h[l]
                        * (E1 * k1[l]
                            + E3 * k3[l]
                            + E4 * k4[l]
                            + E5 * k5[l]
                            + E6 * k6[l]
                            + E7 * k7[l]);
                    let scale = abs_tol + rel_tol * y[l].abs().max(y_new[l].abs());
                    let r = e / scale;
                    err_sq[l] += r * r;
                    finite[l] &= y_new[l].is_finite();
                }
            }
        });
    });
}

/// The stiffness detector's two sums for every lane: `‖k7 − k6‖²` and
/// `‖y_new − y_sti‖²`, each in species order.
#[allow(clippy::too_many_arguments)]
#[inline]
fn stiffness_rows<W: LaneWidth>(
    w: W,
    n: usize,
    k6: &[f64],
    k7: &[f64],
    y_new: &[f64],
    y_sti: &[f64],
    st_num: &mut W::Row<f64>,
    st_den: &mut W::Row<f64>,
) {
    w.reduce(0.0, st_num, |st_num| {
        w.reduce(0.0, st_den, |st_den| {
            for s in 0..n {
                let [k6, k7, y_new, y_sti] = rows_at(w, [k6, k7, y_new, y_sti], s);
                for l in 0..w.lanes() {
                    let dk = k7[l] - k6[l];
                    let dy = y_new[l] - y_sti[l];
                    st_num[l] += dk * dk;
                    st_den[l] += dy * dy;
                }
            }
        });
    });
}

/// `y ← y_new` and the FSAL `k1 ← k7` in the lanes `advance` marks; the
/// others (rejected, parked, never bound) keep their columns. A per-lane
/// select, so every row is loaded, blended and stored whole.
#[inline]
fn advance_rows<W: LaneWidth>(
    w: W,
    n: usize,
    advance: &W::Row<bool>,
    y_new: &[f64],
    k7: &[f64],
    y: &mut [f64],
    k1: &mut [f64],
) {
    for s in 0..n {
        let [y_new, k7] = rows_at(w, [y_new, k7], s);
        let (y, k1) = (w.row_mut(y, s), w.row_mut(k1, s));
        for l in 0..w.lanes() {
            y[l] = if advance[l] { y_new[l] } else { y[l] };
            k1[l] = if advance[l] { k7[l] } else { k1[l] };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dopri5, FnSystem, OdeSolver, SolverError};
    use paraspace_vgpu::LaneGroupStats;

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
        // 3 and 5 run the row passes on slice rows.
        for width in [1, 2, 3, 4, 5, 8] {
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

    /// Whether each step of a scalar solve was accepted, in step order:
    /// the `accepted` counter of reruns cut short by a step budget, which
    /// ends a solve early and changes nothing before that.
    fn step_outcomes(family: &OscFamily, m: usize, times: &[f64], steps: usize) -> Vec<bool> {
        let (sys, y0) = family.scalar(m);
        let accepted_after = |budget: usize| {
            let o = SolverOptions { step_budget: Some(budget), ..opts() };
            match Dopri5::new().solve(&sys, 0.0, &y0, times, &o) {
                Ok(sol) => sol.stats.accepted,
                Err(f) => f.stats.accepted,
            }
        };
        (1..=steps).map(|k| accepted_after(k) > accepted_after(k - 1)).collect()
    }

    #[test]
    fn one_tick_can_reject_accept_and_park_lanes_side_by_side() {
        // One member per lane, so tick k is every live lane's k-th step and
        // the scalar step histories say what each lane did in it. The tick
        // the masked advance has to get right: a lane parks (its last
        // step), a lane is rejected, and a lane is accepted and goes on.
        // Member 0 is the early finisher; its rate is searched for one that
        // ends on a tick where the slower lanes disagree.
        let times = sample_grid();
        let scalar = |proto: &OscFamily| -> Vec<Result<Solution, SolveFailure>> {
            (0..proto.rates.len())
                .map(|m| {
                    let (sys, y0) = proto.scalar(m);
                    Dopri5::new().solve(&sys, 0.0, &y0, &times, &opts())
                })
                .collect()
        };
        let mixed_tick = |proto: &OscFamily| {
            let steps: Vec<usize> =
                scalar(proto).iter().map(|r| r.as_ref().unwrap().stats.steps).collect();
            let history: Vec<Vec<bool>> =
                (0..steps.len()).map(|m| step_outcomes(proto, m, &times, steps[m])).collect();
            (1..=steps[0]).find(|&k| {
                let going_on = |accepted: bool| {
                    (0..steps.len()).any(|m| steps[m] > k && history[m][k - 1] == accepted)
                };
                steps.contains(&k) && going_on(false) && going_on(true)
            })
        };
        let rates = (2..=20)
            .map(|i| vec![0.05 * i as f64, 2.0, 9.0, 40.0])
            .find(|rates| mixed_tick(&OscFamily::new(rates.clone(), 1)).is_some())
            .expect("some early finisher parks while one lane rejects and one accepts");

        let reference = scalar(&OscFamily::new(rates.clone(), 1));
        // Width 4 is that tick; narrower groups refill, which moves the
        // ticks apart — nothing a member computes may notice either.
        for width in [4, 3, 1] {
            let mut family = OscFamily::new(rates.clone(), width);
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

    /// The widths every row pass is pinned at: 1, 2, 4, 8 run on `[f64; L]`
    /// rows, 3 and 5 on slices — one body, so the same bits.
    const WIDTHS: [usize; 6] = [1, 2, 3, 4, 5, 8];

    /// An `n × lanes` block of sign-mixed values, no two alike, with a
    /// `-0.0` in every lane.
    fn block(n: usize, lanes: usize, salt: f64) -> Vec<f64> {
        (0..n * lanes)
            .map(|i| if i / lanes == 1 { -0.0 } else { ((i as f64 + salt) * 0.7311).sin() * 3.5 })
            .collect()
    }

    fn lane_of(block: &[f64], lanes: usize, l: usize) -> Vec<f64> {
        block.iter().skip(l).step_by(lanes).copied().collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn stage_rows_are_the_scalar_stage_in_every_lane() {
        let n = 7;
        for lanes in WIDTHS {
            let h: Vec<f64> = (0..lanes).map(|l| 0.01 * (l + 1) as f64).collect();
            let y = block(n, lanes, 0.0);
            let k: Vec<Vec<f64>> = (1..=5).map(|j| block(n, lanes, 10.0 * j as f64)).collect();
            let (mut first, mut sixth) = (vec![f64::NAN; n * lanes], vec![f64::NAN; n * lanes]);
            with_lane_width!(lanes, |w| {
                let h = w.row(&h, 0);
                stage_rows(w, n, h, &y, [&k[0]], &mut first, |h, [k1]| h * A21 * k1);
                let blocks = [&k[0][..], &k[1], &k[2], &k[3], &k[4]];
                stage_rows(w, n, h, &y, blocks, &mut sixth, |h, [k1, k2, k3, k4, k5]| {
                    h * (A61 * k1 + A62 * k2 + A63 * k3 + A64 * k4 + A65 * k5)
                });
            });
            for l in 0..lanes {
                let (y, h) = (lane_of(&y, lanes, l), h[l]);
                let k: Vec<Vec<f64>> = k.iter().map(|k| lane_of(k, lanes, l)).collect();
                let want_first: Vec<f64> = (0..n).map(|s| y[s] + h * A21 * k[0][s]).collect();
                let want_sixth: Vec<f64> = (0..n)
                    .map(|s| {
                        y[s] + h
                            * (A61 * k[0][s]
                                + A62 * k[1][s]
                                + A63 * k[2][s]
                                + A64 * k[3][s]
                                + A65 * k[4][s])
                    })
                    .collect();
                let got = (bits(&lane_of(&first, lanes, l)), bits(&lane_of(&sixth, lanes, l)));
                assert_eq!(got, (bits(&want_first), bits(&want_sixth)), "width {lanes}, lane {l}");
            }
        }
    }

    #[test]
    fn error_rows_are_the_scalar_norm_and_finiteness_in_every_lane() {
        let n = 6;
        let options = opts();
        for lanes in WIDTHS {
            let h: Vec<f64> = (0..lanes).map(|l| 0.02 * (l + 1) as f64).collect();
            let y = block(n, lanes, 1.0);
            let mut y_new = block(n, lanes, 2.0);
            // One lane steps to NaN, one to infinity; the rest stay finite.
            y_new[3 * lanes + lanes / 2] = f64::NAN;
            y_new[4 * lanes + lanes - 1] = f64::NEG_INFINITY;
            let k: Vec<Vec<f64>> = (1..=6).map(|j| block(n, lanes, 7.0 * j as f64)).collect();
            // Stale reductions must not survive the pass.
            let (mut err_sq, mut finite) = (vec![f64::NAN; lanes], vec![false; lanes]);
            with_lane_width!(lanes, |w| {
                let blocks = [&k[0][..], &k[1], &k[2], &k[3], &k[4], &k[5]];
                let (err_sq, finite) = (w.row_mut(&mut err_sq, 0), w.row_mut(&mut finite, 0));
                error_rows(w, n, w.row(&h, 0), &y, &y_new, blocks, &options, err_sq, finite);
            });
            for l in 0..lanes {
                let (y, y_new) = (lane_of(&y, lanes, l), lane_of(&y_new, lanes, l));
                let k: Vec<Vec<f64>> = k.iter().map(|k| lane_of(k, lanes, l)).collect();
                let mut want = 0.0;
                for s in 0..n {
                    let e = h[l]
                        * (E1 * k[0][s]
                            + E3 * k[1][s]
                            + E4 * k[2][s]
                            + E5 * k[3][s]
                            + E6 * k[4][s]
                            + E7 * k[5][s]);
                    let scale = options.abs_tol + options.rel_tol * y[s].abs().max(y_new[s].abs());
                    want += (e / scale) * (e / scale);
                }
                assert_eq!(err_sq[l].to_bits(), want.to_bits(), "width {lanes}, lane {l}");
                let all_finite = y_new.iter().all(|v| v.is_finite());
                assert_eq!(finite[l], all_finite, "width {lanes}, lane {l}");
                assert_eq!(all_finite, l != lanes / 2 && l != lanes - 1);
            }
        }
    }

    #[test]
    fn stiffness_rows_are_the_detector_sums_in_every_lane() {
        let n = 5;
        for lanes in WIDTHS {
            let [k6, k7, y_new, y_sti] = [3.0, 4.0, 5.0, 6.0].map(|salt| block(n, lanes, salt));
            let (mut st_num, mut st_den) = (vec![f64::NAN; lanes], vec![f64::NAN; lanes]);
            with_lane_width!(lanes, |w| {
                let (num, den) = (w.row_mut(&mut st_num, 0), w.row_mut(&mut st_den, 0));
                stiffness_rows(w, n, &k6, &k7, &y_new, &y_sti, num, den);
            });
            for l in 0..lanes {
                let [k6, k7, y_new, y_sti] =
                    [&k6, &k7, &y_new, &y_sti].map(|b| lane_of(b, lanes, l));
                let (mut num, mut den) = (0.0, 0.0);
                for s in 0..n {
                    num += (k7[s] - k6[s]) * (k7[s] - k6[s]);
                    den += (y_new[s] - y_sti[s]) * (y_new[s] - y_sti[s]);
                }
                let got = (st_num[l].to_bits(), st_den[l].to_bits());
                assert_eq!(got, (num.to_bits(), den.to_bits()), "width {lanes}, lane {l}");
            }
        }
    }

    #[test]
    fn advance_moves_only_the_marked_lanes() {
        let n = 3;
        for lanes in WIDTHS {
            let (y_new, k7) = (block(n, lanes, 100.0), block(n, lanes, 200.0));
            let (y_old, k1_old) = (block(n, lanes, 0.0), block(n, lanes, 50.0));
            // All-false, all-true and mixed masks.
            let masks: [fn(usize) -> bool; 4] =
                [|_| false, |_| true, |l| l % 3 == 0, |l| l % 2 == 1];
            for mask in masks {
                let advance: Vec<bool> = (0..lanes).map(mask).collect();
                let (mut y, mut k1) = (y_old.clone(), k1_old.clone());
                with_lane_width!(lanes, |w| {
                    advance_rows(w, n, w.row(&advance, 0), &y_new, &k7, &mut y, &mut k1);
                });
                for i in 0..n * lanes {
                    let (want_y, want_k1) =
                        if advance[i % lanes] { (y_new[i], k7[i]) } else { (y_old[i], k1_old[i]) };
                    let got = (y[i].to_bits(), k1[i].to_bits());
                    assert_eq!(got, (want_y.to_bits(), want_k1.to_bits()), "width {lanes}, {i}");
                }
            }
        }
    }

    #[test]
    fn two_groups_drain_one_shared_queue() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        let rates: Vec<f64> = (0..23).map(|i| 0.3 + 0.41 * i as f64).collect();
        let times = sample_grid();
        let proto = OscFamily::new(rates.clone(), 1);
        let reference: Vec<Solution> = (0..rates.len())
            .map(|m| {
                let (sys, y0) = proto.scalar(m);
                Dopri5::new().solve(&sys, 0.0, &y0, &times, &opts()).unwrap()
            })
            .collect();
        let cursor = AtomicUsize::new(0);
        // A group holds on to its first member until the other group has
        // one too, so neither can empty the queue before both integrate.
        let both_pulling = Barrier::new(2);
        let group = || {
            let mut family = OscFamily::new(rates.clone(), 4);
            let mut first = true;
            let mut next_member = || {
                let m = cursor.fetch_add(1, Ordering::Relaxed);
                if std::mem::take(&mut first) {
                    both_pulling.wait();
                }
                (m < rates.len()).then_some(m)
            };
            let (settled, _) = Dopri5Batch::new().solve_queue(
                &mut family,
                &mut next_member,
                0.0,
                &times,
                &opts(),
                &mut SolverScratch::new(),
            );
            settled
        };
        let (a, b) = std::thread::scope(|scope| {
            let other = scope.spawn(group);
            (group(), other.join().expect("group thread panicked"))
        });
        assert!(!a.is_empty() && !b.is_empty(), "both groups must integrate members");
        let mut seen = vec![0usize; rates.len()];
        for (m, result) in a.into_iter().chain(b) {
            seen[m] += 1;
            assert_eq!(result.as_ref().unwrap(), &reference[m], "member {m}");
        }
        assert!(seen.iter().all(|&count| count == 1), "{seen:?}");
    }

    #[test]
    fn a_dry_source_is_not_asked_again_and_lanes_in_flight_drain() {
        // The cancellation shape: the source hands out one fill of the
        // lanes, then refuses. The group must finish exactly those members
        // and never come back for more.
        let rates: Vec<f64> = (0..9).map(|i| 0.5 + 0.5 * i as f64).collect();
        let times = sample_grid();
        let mut family = OscFamily::new(rates, 4);
        let mut asked = 0;
        let mut next_member = || {
            asked += 1;
            (asked <= 4).then(|| asked - 1)
        };
        let (settled, _) = Dopri5Batch::new().solve_queue(
            &mut family,
            &mut next_member,
            0.0,
            &times,
            &opts(),
            &mut SolverScratch::new(),
        );
        assert_eq!(asked, 5, "four members, one refusal, no further pull");
        let mut members: Vec<usize> = settled.iter().map(|(m, _)| *m).collect();
        members.sort_unstable();
        assert_eq!(members, [0, 1, 2, 3]);
        assert!(settled.iter().all(|(_, r)| r.is_ok()));
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
        assert!(report.lane_steps > 0);
        // Refill sweeps happened (initial fill plus at least one refill
        // round), each costing 2 sweeps under automatic hinit.
        assert!(report.refill_sweeps >= 4);
    }

    /// Each member's lockstep ticks in a DOPRI5 group: its attempted steps.
    fn steps_of(results: &[Attempt]) -> Vec<u64> {
        let stats = |r: &Attempt| match r {
            Ok(sol) => sol.stats,
            Err(failure) => failure.stats,
        };
        results.iter().map(|r| stats(r).steps as u64).collect()
    }

    #[test]
    fn packed_report_is_the_report_a_divergent_group_returns() {
        // What the engines bill a modelled lane group from: the members'
        // step counts, list-scheduled in member order, give the ticks and
        // lane-steps the kernel itself counts for that group — with members
        // ten-fold apart, so lanes really are refilled at different ticks,
        // and with a member that never enters a tick.
        let times = [1.0, 4.0];
        for width in [1, 2, 3, 4, 8] {
            let rates: Vec<f64> = (0..11).map(|i| 0.05 * 2.5f64.powi(i)).collect();
            let mut family = OscFamily::new(rates, width);
            family.y0s[2] = [f64::NAN, 0.0];
            let (results, report) = Dopri5Batch::new().solve_group(
                &mut family,
                0.0,
                &times,
                &opts(),
                &mut SolverScratch::new(),
            );
            let ticks = steps_of(&results);
            assert_eq!(ticks[2], 0, "the invalid member never occupies a lane");
            let busiest = *ticks.iter().max().unwrap();
            let idlest = *ticks.iter().filter(|&&t| t > 0).min().unwrap();
            assert!(busiest >= 10 * idlest, "members must diverge: {idlest}..{busiest}");
            let packed = LaneGroupStats::packed(width, ticks);
            assert_eq!(
                (packed.width, packed.lockstep_iters, packed.lane_steps),
                (report.width, report.lockstep_iters, report.lane_steps),
                "width {width}"
            );
        }
        // Members whose every sample is at t0 never enter a tick either.
        let mut family = OscFamily::new(vec![1.0, 2.0, 3.0], 2);
        let (results, report) = Dopri5Batch::new().solve_group(
            &mut family,
            0.0,
            &[0.0],
            &opts(),
            &mut SolverScratch::new(),
        );
        assert!(results.iter().all(|r| r.as_ref().is_ok_and(|s| s.len() == 1)));
        let packed = LaneGroupStats::packed(2, steps_of(&results));
        assert_eq!((packed.lockstep_iters, packed.lane_steps), (0, 0));
        assert_eq!((report.lockstep_iters, report.lane_steps), (0, 0));
    }

    #[test]
    fn a_pre_step_park_idles_its_lane_for_one_tick_the_packing_does_not() {
        // The one way the host report and the packing part: a member parked
        // by pre-step control (here the step budget) at the head of a tick
        // in which another lane is live leaves its lane idle for that tick —
        // the refill waits for the next loop head — where a modelled group
        // hands the lane to the next member at once. Two lanes: member 0 is
        // short, so member 2 takes its lane and is still live when member 1
        // exhausts the budget; member 3 then waits one tick for lane 1.
        let budget = 60;
        let o = SolverOptions { step_budget: Some(budget), ..opts() };
        let mut family = OscFamily::new(vec![0.5, 400.0, 400.0, 400.0], 2);
        let (results, report) =
            Dopri5Batch::new().solve_group(&mut family, 0.0, &[4.0], &o, &mut SolverScratch::new());
        let ticks = steps_of(&results);
        assert!(results[0].is_ok() && ticks[0] < budget as u64, "{ticks:?}");
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
        for width in [1, 2, 3, 4, 5] {
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
