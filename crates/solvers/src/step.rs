//! The step bookkeeping every driver shares, written once — the
//! solver-independent layer MPGOS keeps per system (Hegedűs et al.). The
//! stage arithmetic and the Newton iteration stay per path; each method's
//! step controller and dense output are written once in its own file
//! (`dopri5.rs`, `radau5.rs`), where a scalar solve and a lane call them
//! alike. This module decides which limit stops a solve, and in which
//! order, for all of them, so a lane and a scalar solve stop at the same
//! `t` with the same counters:
//!
//! * **one member's solve** — a [`Run`]: the solution so far, the sample
//!   cursor and the method's control state, whether the member runs alone
//!   or in a lane; a [`Column`] says where its vectors lie in a block, and
//!   [`wrms`] is the one weighted RMS norm over them;
//! * **step start** — [`step_limits`] then [`clamp_step`], at the head of
//!   every step of DOPRI5, RADAU5, RKF45, the multistep driver (limits
//!   only) and both lockstep kernels;
//! * **a non-finite step** — [`reject_nonfinite`], the explicit methods'
//!   hard rejection;
//! * **start-up** — [`samples_at_start`], and Hairer's `hinit` as
//!   [`hinit_probe`] and [`hinit_finish`] around the one right-hand side
//!   between them: once per scalar solve, one sweep per lane refill;
//! * **lane lifecycle** — a [`LaneGroup`] of [`Run`]s: one refill, one
//!   start-up, one pre-step pass, one park.

use crate::batch::{BatchOdeSystem, BatchState};
use crate::dopri5_batch::{Attempt, LaneReport};
use crate::system::check_inputs;
use crate::{Solution, SolveFailure, SolverError, SolverOptions, StepStats};

/// Consecutive non-finite rejections before a step is declared
/// unsalvageable. Each rejection shrinks `h` tenfold; a state that is still
/// non-finite after this many shrinks is NaN/Inf whatever `h`, which step
/// reduction can never fix — fail fast as `NonFiniteState` instead of
/// grinding `h` down to the underflow threshold.
const NONFINITE_STRIKES: usize = 5;

/// Where one member's vector lies in a block: component `s` at index
/// `s·stride + at`. A scalar driver's vectors are [`Column::whole`]; lane
/// `l` of a lane-major block of `L` lanes is [`Column::lane`]`(n, L, l)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Column {
    pub(crate) n: usize,
    stride: usize,
    at: usize,
}

impl Column {
    /// All of a vector of length `n`.
    pub(crate) fn whole(n: usize) -> Self {
        Column { n, stride: 1, at: 0 }
    }

    /// Lane `lane`'s `n` components in a block of `lanes` lanes.
    pub(crate) fn lane(n: usize, lanes: usize, lane: usize) -> Self {
        Column { n, stride: lanes, at: lane }
    }

    /// The block indices of the components, in component order.
    #[inline]
    pub(crate) fn indices(self) -> impl Iterator<Item = usize> {
        (0..self.n).map(move |s| s * self.stride + self.at)
    }
}

/// The weighted RMS norm `√(Σ (xᵢ/wᵢ)² / n)` over `col`, summed in
/// component order — a lane's reduction pass sums its squares in the same
/// order — and `0` without components.
#[inline]
pub(crate) fn wrms(x: &[f64], w: &[f64], col: Column) -> f64 {
    let mut sum = 0.0;
    for i in col.indices() {
        let r = x[i] / w[i];
        sum += r * r;
    }
    root_mean(sum, col.n)
}

/// `√(sum/n)`, and `0` without components: the tail of [`wrms`], for a
/// sum of squares a lane's reduction pass formed.
#[inline]
pub(crate) fn root_mean(sum: f64, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    (sum / n as f64).sqrt()
}

/// The explicit methods' hard rejection of a step from `t` of size `h`
/// whose error or new state is not finite: it counts as rejected, and the
/// step to retry is `h/10` — unless this is the `NONFINITE_STRIKES`-th
/// such step in a row (`strikes` counts them) or the retry would be
/// vanishingly small, which ends the solve as `NonFiniteState`.
#[inline]
pub(crate) fn reject_nonfinite(
    h: f64,
    t: f64,
    strikes: &mut usize,
    stats: &mut StepStats,
) -> Result<f64, SolverError> {
    stats.rejected += 1;
    *strikes += 1;
    let h = h * 0.1;
    if *strikes >= NONFINITE_STRIKES || h <= f64::MIN_POSITIVE * 1e4 {
        return Err(SolverError::NonFiniteState { t });
    }
    Ok(h)
}

/// The limits checked before every step, in the order every driver checks
/// them: the solve's `step_budget` over its `steps` so far, then
/// `max_steps` over the `steps_since_sample`. `t` is where the solve
/// stands.
#[inline]
pub(crate) fn step_limits(
    steps: usize,
    steps_since_sample: usize,
    t: f64,
    options: &SolverOptions,
) -> Option<SolverError> {
    if let Some(budget) = options.step_budget.filter(|&budget| steps >= budget) {
        return Some(SolverError::StepBudgetExhausted { t, budget });
    }
    (steps_since_sample >= options.max_steps)
        .then_some(SolverError::MaxStepsExceeded { t, max_steps: options.max_steps })
}

/// The step to attempt from `t`: `h` clamped to `max_step` and to the stop
/// time `t_stop` (the last sample, or the next one for a solver that steps
/// onto its samples) — or `StepSizeUnderflow` when that leaves a step `t`
/// cannot resolve.
#[inline]
pub(crate) fn clamp_step(
    h: f64,
    t: f64,
    t_stop: f64,
    options: &SolverOptions,
) -> Result<f64, SolverError> {
    let h = h.min(options.max_step).min(t_stop - t);
    if h <= f64::EPSILON * t.abs().max(1.0) {
        return Err(SolverError::StepSizeUnderflow { t });
    }
    Ok(h)
}

/// Delivers every sample at `t0` (validated inputs put none before it)
/// from the initial state `y0`, and returns how many there were: the index
/// of the first sample the integration has to reach.
pub(crate) fn samples_at_start(
    sol: &mut Solution,
    sample_times: &[f64],
    t0: f64,
    y0: &[f64],
) -> usize {
    let at_start = sample_times.iter().take_while(|&&ts| ts <= t0).count();
    for &ts in &sample_times[..at_start] {
        sol.times.push(ts);
        sol.states.push(y0.to_vec());
    }
    at_start
}

/// The first half of Hairer–Nørsett–Wanner's `hinit`: from the norms of
/// `y0` and `f0 = f(t0, y0)` the trial step `h0`, returned, and the
/// explicit Euler point `y0 + h0·f0`, written to `y1`. `sc` is scratch for
/// the weights, `y0`'s error scale.
/// The caller evaluates `f(t0 + h0, y1)` and hands it to [`hinit_finish`].
pub(crate) fn hinit_probe(
    y0: &[f64],
    f0: &[f64],
    options: &SolverOptions,
    sc: &mut [f64],
    y1: &mut [f64],
) -> f64 {
    options.error_scale(y0, sc);
    let whole = Column::whole(y0.len());
    let d0 = wrms(y0, sc, whole);
    let d1 = wrms(f0, sc, whole);
    let h0 = if d0 < 1e-5 || d1 < 1e-5 { 1e-6 } else { 0.01 * (d0 / d1) };
    let h0 = h0.min(options.max_step);
    for ((y1, &y), &f) in y1.iter_mut().zip(y0).zip(f0) {
        *y1 = y + h0 * f;
    }
    h0
}

/// The second half of `hinit`: from the probe `f1 = f(t0 + h0, y0 + h0·f0)`
/// (overwritten with `f1 − f0`), the second-derivative estimate and the
/// initial step for a method whose error estimator has order `order`.
/// `sc` is scratch.
pub(crate) fn hinit_finish(
    y0: &[f64],
    f0: &[f64],
    f1: &mut [f64],
    sc: &mut [f64],
    h0: f64,
    order: usize,
    options: &SolverOptions,
) -> f64 {
    options.error_scale(y0, sc);
    for (f1, &f) in f1.iter_mut().zip(f0) {
        *f1 -= f;
    }
    let whole = Column::whole(y0.len());
    let d1 = wrms(f0, sc, whole);
    let d2 = wrms(f1, sc, whole) / h0;
    let dmax = d1.max(d2);
    let h1 = if dmax <= 1e-15 {
        (h0 * 1e-3).max(1e-6)
    } else {
        (0.01 / dmax).powf(1.0 / (order as f64 + 1.0))
    };
    (100.0 * h0).min(h1).min(options.max_step)
}

/// A lockstep kernel's per-lane clocks and the vectors of one member
/// gathered out of its blocks for the start-up arithmetic. Only `t` and `h`
/// hold anything between two ticks.
#[derive(Debug, Default)]
pub(crate) struct LaneScratch {
    /// Each lane's time.
    pub(crate) t: Vec<f64>,
    /// Each lane's next step size (`0` in a free lane).
    pub(crate) h: Vec<f64>,
    /// Each lane's time at the stage being evaluated.
    pub(crate) t_stage: Vec<f64>,
    y0: Vec<f64>,
    f0: Vec<f64>,
    sc: Vec<f64>,
    probe: Vec<f64>,
}

impl LaneScratch {
    /// Sizes the buffers for dimension `n` × `lanes` lanes.
    pub(crate) fn ensure(&mut self, n: usize, lanes: usize) {
        for v in [&mut self.t, &mut self.h, &mut self.t_stage] {
            v.resize(lanes, 0.0);
        }
        for v in [&mut self.y0, &mut self.f0, &mut self.sc, &mut self.probe] {
            v.resize(n, 0.0);
        }
    }
}

/// One member's solve in progress, alone or in a lane: the solution so
/// far, the sample cursor, the steps since the last sample, and the
/// method's own control state `S`, which the run dereferences to. Each
/// method's controller is written on its `Run<S>`.
pub(crate) struct Run<S> {
    pub(crate) sol: Solution,
    pub(crate) next_sample: usize,
    pub(crate) steps_since_sample: usize,
    pub(crate) state: S,
}

impl<S> Run<S> {
    /// A run whose samples before `next_sample` are delivered.
    pub(crate) fn new(sol: Solution, next_sample: usize, state: S) -> Self {
        Run { sol, next_sample, steps_since_sample: 0, state }
    }

    /// [`step_limits`] for this run standing at `t`.
    #[inline]
    pub(crate) fn limit(&self, t: f64, options: &SolverOptions) -> Option<SolverError> {
        step_limits(self.sol.stats.steps, self.steps_since_sample, t, options)
    }

    /// Counts one attempted step.
    #[inline]
    pub(crate) fn count_step(&mut self) {
        self.sol.stats.steps += 1;
        self.steps_since_sample += 1;
    }

    /// Whether the next sample lies at or before `t`.
    #[inline]
    pub(crate) fn sample_due(&self, sample_times: &[f64], t: f64) -> bool {
        sample_times.get(self.next_sample).is_some_and(|&ts| ts <= t)
    }

    /// Delivers the next sample, at time `ts`, with the member's `state`
    /// there.
    #[inline]
    pub(crate) fn push_sample(&mut self, ts: f64, state: Vec<f64>) {
        self.sol.times.push(ts);
        self.sol.states.push(state);
        self.next_sample += 1;
        self.steps_since_sample = 0;
    }

    /// Whether every sample is delivered.
    #[inline]
    pub(crate) fn done(&self, sample_times: &[f64]) -> bool {
        self.next_sample == sample_times.len()
    }

    /// The member's solution on `Ok`, its failure with its counters on
    /// `Err`.
    pub(crate) fn end(self, outcome: Result<(), SolverError>) -> Attempt {
        match outcome {
            Ok(()) => Ok(self.sol),
            Err(error) => Err(SolveFailure { error, stats: self.sol.stats }),
        }
    }
}

impl<S> std::ops::Deref for Run<S> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.state
    }
}

impl<S> std::ops::DerefMut for Run<S> {
    fn deref_mut(&mut self) -> &mut S {
        &mut self.state
    }
}

/// The lanes of one lockstep group over a member queue: which member each
/// lane holds and its run, the members settled so far, and the group's
/// report. `S` is
/// the method's per-lane state, `start` its value in a freshly bound lane.
pub(crate) struct LaneGroup<'a, S> {
    t0: f64,
    /// The last sample time (`t0` without samples: every valid member then
    /// settles before it is bound, and `t_end` is not read).
    pub(crate) t_end: f64,
    sample_times: &'a [f64],
    options: &'a SolverOptions,
    start: S,
    /// Each lane's run, `None` where free.
    pub(crate) lanes: Vec<Option<Run<S>>>,
    /// Each lane's member, while bound.
    members: Vec<usize>,
    /// The lanes the last [`refill`](Self::refill) bound.
    pub(crate) fresh: Vec<usize>,
    exhausted: bool,
    results: Vec<(usize, Attempt)>,
    pub(crate) report: LaneReport,
}

impl<'a, S: Copy> LaneGroup<'a, S> {
    pub(crate) fn new(
        width: usize,
        t0: f64,
        sample_times: &'a [f64],
        options: &'a SolverOptions,
        start: S,
    ) -> Self {
        assert!(width >= 1, "lane width must be at least 1");
        LaneGroup {
            t0,
            t_end: sample_times.last().copied().unwrap_or(t0),
            sample_times,
            options,
            start,
            lanes: (0..width).map(|_| None).collect(),
            members: vec![0; width],
            fresh: Vec::with_capacity(width),
            exhausted: false,
            results: Vec::new(),
            report: LaneReport { width, ..LaneReport::default() },
        }
    }

    /// The lanes bound to a member.
    #[inline]
    pub(crate) fn live(&self) -> usize {
        self.lanes.iter().filter(|lane| lane.is_some()).count()
    }

    /// Binds pending members into the free lanes, asking `next_member` until
    /// each free lane holds one or the queue answers `None` (then never
    /// again). A member settles without a lane when the scalar preamble
    /// would end its solve: invalid inputs, or every sample at `t0`. A bound
    /// member's `y0` goes into its column of `y`, its clock to `t0`; the
    /// lanes bound are left in [`fresh`](Self::fresh) for
    /// [`start_fresh`](Self::start_fresh).
    #[inline]
    pub(crate) fn refill(
        &mut self,
        system: &mut dyn BatchOdeSystem,
        next_member: &mut dyn FnMut() -> Option<usize>,
        y: &mut BatchState,
        ls: &mut LaneScratch,
    ) {
        self.fresh.clear();
        let n = y.dim();
        for lane in 0..self.lanes.len() {
            if self.lanes[lane].is_some() {
                continue;
            }
            while !self.exhausted {
                let Some(member) = next_member() else {
                    self.exhausted = true;
                    break;
                };
                system.initial_state(member, &mut ls.y0);
                if let Err(error) =
                    check_inputs(n, &ls.y0, self.t0, self.sample_times, self.options)
                {
                    let failure = SolveFailure { error, stats: StepStats::default() };
                    self.results.push((member, Err(failure)));
                    continue;
                }
                let mut sol = Solution::with_capacity(self.sample_times.len());
                // f(t0, y0), evaluated lane-wide by `start_fresh` (the
                // scalar solvers return before it when no sample is asked).
                sol.stats.rhs_evals += usize::from(!self.sample_times.is_empty());
                let next_sample = samples_at_start(&mut sol, self.sample_times, self.t0, &ls.y0);
                if next_sample == self.sample_times.len() {
                    self.results.push((member, Ok(sol)));
                    continue;
                }
                system.bind_lane(lane, member);
                y.scatter_lane(lane, &ls.y0);
                ls.t[lane] = self.t0;
                ls.h[lane] = 0.0;
                self.members[lane] = member;
                self.lanes[lane] = Some(Run::new(sol, next_sample, self.start));
                self.fresh.push(lane);
                break;
            }
        }
    }

    /// Starts the lanes the last refill bound: `f(t0, y0)` into their
    /// columns of `f0` and, unless `options.initial_step` fixes it, `hinit`'s
    /// step for an error estimator of order `order` into `h` — each half on
    /// each fresh lane around one sweep of all their Euler probes. Both
    /// sweeps run on every lane and write only `probe_f`, so the other
    /// lanes' `f0` stays.
    #[inline]
    pub(crate) fn start_fresh(
        &mut self,
        system: &mut dyn BatchOdeSystem,
        ls: &mut LaneScratch,
        y: &BatchState,
        f0: &mut BatchState,
        [probe_y, probe_f]: [&mut BatchState; 2],
        order: usize,
    ) {
        if self.fresh.is_empty() {
            return;
        }
        system.rhs_batch(&ls.t, y, probe_f);
        self.report.refill_sweeps += 1;
        for &lane in &self.fresh {
            f0.copy_lane_from(probe_f, lane);
        }
        if let Some(h0) = self.options.initial_step {
            for &lane in &self.fresh {
                ls.h[lane] = h0;
            }
            return;
        }
        let LaneScratch { t, h, t_stage, y0, f0: f0_lane, sc, probe } = ls;
        probe_y.as_mut_slice().copy_from_slice(y.as_slice());
        t_stage.copy_from_slice(t);
        for &lane in &self.fresh {
            y.gather_lane(lane, y0);
            f0.gather_lane(lane, f0_lane);
            h[lane] = hinit_probe(y0, f0_lane, self.options, sc, probe);
            probe_y.scatter_lane(lane, probe);
            t_stage[lane] = t[lane] + h[lane];
        }
        system.rhs_batch(t_stage, probe_y, probe_f);
        self.report.refill_sweeps += 1;
        for &lane in &self.fresh {
            y.gather_lane(lane, y0);
            f0.gather_lane(lane, f0_lane);
            probe_f.gather_lane(lane, probe);
            h[lane] = hinit_finish(y0, f0_lane, probe, sc, h[lane], order, self.options);
            self.lanes[lane].as_mut().expect("fresh lane is bound").sol.stats.rhs_evals += 1;
        }
    }

    /// The head of the scalar step loop, per lane: every live lane for which
    /// `at_step_start` holds checks [`step_limits`] and clamps its `h` to
    /// `t_end` ([`clamp_step`]); a lane that fails either parks.
    /// `on_limit` sees a lane a limit stops before it parks.
    #[inline]
    pub(crate) fn pre_step(
        &mut self,
        ls: &mut LaneScratch,
        at_step_start: impl Fn(&S) -> bool,
        on_limit: impl Fn(&mut Run<S>),
    ) {
        for lane in 0..self.lanes.len() {
            let Some(c) = self.lanes[lane].as_mut().filter(|c| at_step_start(c)) else {
                continue;
            };
            let (t, h) = (ls.t[lane], ls.h[lane]);
            let error = match c.limit(t, self.options) {
                Some(error) => {
                    on_limit(c);
                    error
                }
                None => match clamp_step(h, t, self.t_end, self.options) {
                    Ok(h) => {
                        ls.h[lane] = h;
                        continue;
                    }
                    Err(error) => error,
                },
            };
            self.park(lane, Err(error), &mut ls.h);
        }
    }

    /// Settles the member in `lane` — its solution on `Ok`, a failure with
    /// its counters on `Err` — and frees the lane, whose `h` drops to `0`.
    #[inline]
    pub(crate) fn park(&mut self, lane: usize, outcome: Result<(), SolverError>, h: &mut [f64]) {
        let run = self.lanes[lane].take().expect("parked lane was live");
        self.results.push((self.members[lane], run.end(outcome)));
        h[lane] = 0.0;
    }

    /// The members in the order they settled, and the group's report.
    pub(crate) fn finish(self) -> (Vec<(usize, Attempt)>, LaneReport) {
        (self.results, self.report)
    }
}
