//! Member-level fault containment and the deterministic retry ladder.
//!
//! Parameter-space batches meet hostile members: panicking right-hand
//! sides, states that leave the finite range, parameterizations that a
//! solver's default tolerances cannot handle. This module keeps those
//! members from sinking the batch:
//!
//! * every solve attempt runs under `catch_unwind`, so a panic becomes a
//!   per-member [`SolverError::Internal`] outcome instead of an abort;
//! * failed members climb a configurable [`RecoveryPolicy`] ladder —
//!   explicit→implicit reroute, then tolerance-relaxation retries with
//!   step-budget escalation — one ladder under all five engines; an engine
//!   that runs the first rungs itself, as lockstep lanes or as the
//!   fine+coarse P3 → P4 hand-over, bills them and hands the ladder that
//!   billed history to continue from;
//! * every attempt's work counters are absorbed into the member's stats,
//!   so retries are billed on the engines' modeled timelines.
//!
//! The ladder is fully deterministic: the attempt sequence depends only on
//! the member's inputs and the policy, never on thread scheduling, so a
//! batch containing retried members stays bitwise identical at any worker
//! count.

use crate::engines::{attempt_stats, outcome_and_stats, solve_member_pooled_opts, Host};
use crate::SimulationJob;
use paraspace_exec::{payload_message, Cancelled};
use paraspace_solvers::{
    OdeSolver, Solution, SolveFailure, SolverError, SolverOptions, SolverScratch, StepStats,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Factor both tolerances are multiplied by per relaxation retry.
const RELAX_FACTOR: f64 = 10.0;
/// Relative tolerance is never relaxed beyond this.
const REL_TOL_CAP: f64 = 1e-2;
/// Absolute tolerance is never relaxed beyond this.
const ABS_TOL_CAP: f64 = 1e-6;
/// Factor the step budget grows by per relaxation retry, so a relaxed
/// attempt is not starved by the budget that killed the original.
const BUDGET_ESCALATION: usize = 2;

/// How engines respond to failed batch members.
///
/// The default reproduces the engines' historical behavior exactly — one
/// stiffness-shaped reroute to the implicit fallback, nothing else — so
/// existing results stay bitwise identical unless a caller opts into more.
///
/// # Example
///
/// ```
/// use paraspace_core::RecoveryPolicy;
///
/// let policy = RecoveryPolicy { max_relaxations: 2, ..RecoveryPolicy::default() };
/// assert!(policy.reroute);
/// assert_eq!(policy.step_budget, None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Retry a stiffness-shaped explicit-solver failure on the engine's
    /// implicit fallback (the published P3 → P4 reroute).
    pub reroute: bool,
    /// Maximum tolerance-relaxation retries after the reroute (0 disables
    /// the relaxation rungs of the ladder). Each multiplies both
    /// tolerances by 10, capped at `rel_tol` 1e-2 and `abs_tol` 1e-6, and
    /// doubles the step budget (when one is set).
    pub max_relaxations: usize,
    /// Per-member total-step budget applied when the job itself sets none
    /// (see [`SolverOptions::step_budget`]); `None` leaves members
    /// unbounded. A deterministic stand-in for a wall-clock deadline: no
    /// member can consume more than this many attempted steps per attempt.
    pub step_budget: Option<usize>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { reroute: true, max_relaxations: 0, step_budget: None }
    }
}

impl RecoveryPolicy {
    /// The solver options a member's first attempt runs under: the job's
    /// own options, with the policy's step budget filled in when the job
    /// does not set one.
    pub(crate) fn base_options(&self, job: &SimulationJob) -> SolverOptions {
        let mut opts = job.options().clone();
        if opts.step_budget.is_none() {
            opts.step_budget = self.step_budget;
        }
        opts
    }

    /// Whether a failed explicit attempt re-routes to the implicit
    /// fallback: the policy reroutes and the failure is stiffness-shaped —
    /// the detector fired, the step cap ran out or the step size
    /// underflowed. The fine+coarse P3 → P4 hand-over and rung 1 of the
    /// ladder both ask this.
    pub(crate) fn reroutes(&self, e: &SolverError) -> bool {
        self.reroute
            && matches!(
                e,
                SolverError::StiffnessDetected { .. }
                    | SolverError::MaxStepsExceeded { .. }
                    | SolverError::StepSizeUnderflow { .. }
            )
    }
}

/// What the recovery ladder did for one member.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryLog {
    /// Solve attempts performed (1 = the primary attempt only).
    pub attempts: usize,
    /// Tolerance-relaxation retries performed.
    pub relaxations: usize,
    /// Whether the member was rerouted to the implicit fallback.
    pub rerouted: bool,
    /// Whether a retry (reroute or relaxation) produced the final success.
    pub recovered: bool,
    /// Whether any attempt panicked and was contained.
    pub panicked: bool,
    /// Solver steps spent by attempts whose result was then discarded by a
    /// reroute or a relaxation retry — work the member paid for twice.
    pub discarded_steps: usize,
}

impl RecoveryLog {
    /// The log of a member's first attempt, before any rung.
    const FIRST: RecoveryLog = RecoveryLog {
        attempts: 1,
        relaxations: 0,
        rerouted: false,
        recovered: false,
        panicked: false,
        discarded_steps: 0,
    };
}

/// A member's final result after containment and recovery.
#[derive(Debug)]
pub struct RecoveredSolve {
    /// The final solution or error.
    pub solution: Result<Solution, SolverError>,
    /// Work counters absorbed across **all** attempts the ladder made (a
    /// [`Billed`] history is the caller's), so engines bill retries on
    /// their modeled timelines.
    pub stats: StepStats,
    /// Name of the solver that produced the final result.
    pub solver: &'static str,
    /// What the ladder did.
    pub log: RecoveryLog,
}

/// Errors the relaxation rungs may retry: everything except a contained
/// panic (deterministic — it would just panic again) and malformed inputs
/// (tolerances are not the problem).
fn relax_eligible(e: &SolverError) -> bool {
    !matches!(e, SolverError::Internal { .. } | SolverError::InvalidInput { .. })
}

/// One solve attempt under panic containment: a panicking RHS (or solver
/// bug) becomes a [`SolverError::Internal`] failure for this member only.
///
/// The worker's [`SolverScratch`] is safe to reuse after a contained panic:
/// every solver rewrites its buffers through `ensure()` before reading
/// them, so no attempt observes a previous attempt's torn state.
pub(crate) fn contained_attempt(
    job: &SimulationJob,
    i: usize,
    solver: &dyn OdeSolver,
    options: &SolverOptions,
    scratch: &mut SolverScratch,
) -> Result<Solution, SolveFailure> {
    catch_unwind(AssertUnwindSafe(|| solve_member_pooled_opts(job, i, solver, options, scratch)))
        .unwrap_or_else(|payload| {
            Err(SolveFailure {
                error: SolverError::Internal { message: payload_message(payload.as_ref()) },
                stats: StepStats::default(),
            })
        })
}

/// The solvers one member's ladder climbs: `retry` makes the first attempt
/// when the caller brings none and runs the relaxation rungs of a member
/// that was not rerouted; `fallback` takes over a failure the policy
/// [`reroutes`](RecoveryPolicy::reroutes) (rung 1), and then the rungs
/// after it.
#[derive(Clone, Copy)]
pub(crate) struct Ladder<'s> {
    pub(crate) retry: (&'s dyn OdeSolver, &'static str),
    pub(crate) fallback: Option<(&'s dyn OdeSolver, &'static str)>,
}

/// The latest attempt of a member whose first rungs the caller already ran
/// — and billed, in a lane kernel or a phase launch — with the name of the
/// solver that ran it and the log of those rungs.
pub(crate) struct Billed {
    attempt: Result<Solution, SolveFailure>,
    solver: &'static str,
    log: RecoveryLog,
}

impl Billed {
    /// A member's first attempt, run by `solver`.
    pub(crate) fn first(attempt: Result<Solution, SolveFailure>, solver: &'static str) -> Self {
        Billed { attempt, solver, log: RecoveryLog::FIRST }
    }

    /// Rung 1, run by the caller: this attempt failed in a way the policy
    /// [`reroutes`](RecoveryPolicy::reroutes) — never a contained panic —
    /// and `attempt` is the member's re-routed one, on `solver`. This
    /// attempt's steps are discarded.
    pub(crate) fn rerouted_to(
        self,
        attempt: Result<Solution, SolveFailure>,
        solver: &'static str,
    ) -> Self {
        let discarded = attempt_stats(&self.attempt).steps;
        let log = RecoveryLog {
            attempts: self.log.attempts + 1,
            rerouted: true,
            discarded_steps: self.log.discarded_steps + discarded,
            ..self.log
        };
        Billed { attempt, solver, log }
    }
}

/// Runs the recovery ladder for `members` on the host's worker pool, under
/// its policy, returning results **in `members` order**, or
/// `Err(Cancelled)` if its token tripped before every member completed
/// (in-flight members drain; partial results are discarded).
///
/// A member paired with a [`Billed`] attempt continues the ladder from it;
/// the others first make a contained attempt on their ladder's `retry`
/// solver. Member-level containment normally keeps panics from reaching
/// the executor; `try_map_with_cancel` backstops the remainder (a panic in
/// the ladder itself), converting an executor-level
/// [`paraspace_exec::ItemPanic`] into an `Internal` outcome for that member
/// — its billed log kept — instead of resuming the unwind.
pub(crate) fn solve_members_recovered<'s>(
    host: &Host,
    job: &SimulationJob,
    members: Vec<(usize, Option<Billed>)>,
    ladder: impl Fn(usize) -> Ladder<'s> + Sync,
) -> Result<Vec<RecoveredSolve>, Cancelled> {
    // Each index is claimed by one worker, which takes its billed attempt
    // out of the slot exactly once; the billed log stays behind.
    let members: Vec<(usize, RecoveryLog, Mutex<Option<Billed>>)> = members
        .into_iter()
        .map(|(i, billed)| {
            let log = billed.as_ref().map_or(RecoveryLog::FIRST, |b| b.log);
            (i, log, Mutex::new(billed))
        })
        .collect();
    let solve = |scratch: &mut SolverScratch, idx: usize| {
        let (i, _, billed) = &members[idx];
        let billed = billed.lock().expect("no lock holder panics").take();
        continue_ladder(job, *i, billed, ladder(*i), &host.recovery, scratch)
    };
    let results = host.executor.try_map_with_cancel(
        members.len(),
        &host.cancel,
        SolverScratch::new,
        solve,
    )?;
    Ok(results
        .into_iter()
        .zip(&members)
        .map(|(r, (i, log, _))| {
            r.unwrap_or_else(|fault| RecoveredSolve {
                solution: Err(SolverError::Internal { message: fault.message }),
                stats: StepStats::default(),
                solver: ladder(*i).retry.1,
                log: RecoveryLog { panicked: true, ..*log },
            })
        })
        .collect())
}

/// The ladder of member `i` from its latest attempt — `billed`, whose
/// stats and rungs the caller billed and which are therefore left out of
/// the returned [`RecoveredSolve::stats`], or a contained first attempt on
/// `ladder.retry` made here, under `policy.base_options(job)` — then (per
/// `policy`, unless the member was already rerouted) one reroute to
/// `ladder.fallback`, then tolerance-relaxation retries with step-budget
/// escalation.
fn continue_ladder(
    job: &SimulationJob,
    i: usize,
    billed: Option<Billed>,
    ladder: Ladder,
    policy: &RecoveryPolicy,
    scratch: &mut SolverScratch,
) -> RecoveredSolve {
    let mut opts = policy.base_options(job);
    let mut stats = StepStats::default();
    let (latest, mut log, mut solver_name) = match billed {
        Some(Billed { attempt, solver, log }) => (attempt, log, solver),
        None => {
            let attempt = contained_attempt(job, i, ladder.retry.0, &opts, scratch);
            stats.absorb(attempt_stats(&attempt));
            (attempt, RecoveryLog::FIRST, ladder.retry.1)
        }
    };

    let (mut current, latest_stats) = outcome_and_stats(latest);
    log.panicked |= matches!(current, Err(SolverError::Internal { .. }));
    // Steps of the attempt `current` came from: discarded if it is retried.
    let mut current_steps = latest_stats.steps;

    // Rung 1: the explicit → implicit reroute.
    if let (Err(e), Some((fb, fb_name)), false) = (&current, ladder.fallback, log.rerouted) {
        if policy.reroutes(e) {
            log.attempts += 1;
            log.rerouted = true;
            log.discarded_steps += current_steps;
            solver_name = fb_name;
            let (r, s) = outcome_and_stats(contained_attempt(job, i, fb, &opts, scratch));
            stats.absorb(&s);
            log.panicked |= matches!(r, Err(SolverError::Internal { .. }));
            current = r;
            current_steps = s.steps;
        }
    }

    // Rungs 2..: relax tolerances ×factor (capped) and escalate the step
    // budget, retrying the solver the member last ran on.
    while log.relaxations < policy.max_relaxations {
        let Err(e) = &current else { break };
        if !relax_eligible(e) {
            break;
        }
        let rel = (opts.rel_tol * RELAX_FACTOR).min(REL_TOL_CAP).max(opts.rel_tol);
        let abs = (opts.abs_tol * RELAX_FACTOR).min(ABS_TOL_CAP).max(opts.abs_tol);
        let budget = opts.step_budget.map(|b| b.saturating_mul(BUDGET_ESCALATION));
        if rel == opts.rel_tol && abs == opts.abs_tol && budget == opts.step_budget {
            break; // caps reached — a retry would repeat the same failure
        }
        opts.rel_tol = rel;
        opts.abs_tol = abs;
        opts.step_budget = budget;
        log.relaxations += 1;
        log.attempts += 1;
        log.discarded_steps += current_steps;
        let (solver, name) = if log.rerouted {
            ladder.fallback.expect("rerouted implies fallback")
        } else {
            ladder.retry
        };
        solver_name = name;
        let (r, s) = outcome_and_stats(contained_attempt(job, i, solver, &opts, scratch));
        stats.absorb(&s);
        log.panicked |= matches!(r, Err(SolverError::Internal { .. }));
        current = r;
        current_steps = s.steps;
    }

    log.recovered = current.is_ok() && log.attempts > 1;
    RecoveredSolve { solution: current, stats, solver: solver_name, log }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraspace_exec::{CancelToken, Executor};
    use paraspace_rbm::{Reaction, ReactionBasedModel};
    use paraspace_solvers::{FaultPlan, FaultSpec, Lsoda, OdeSystem, Rkf45};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn model() -> ReactionBasedModel {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let b = m.add_species("B", 0.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1.0)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 0.4)).unwrap();
        m
    }

    /// Every member of `job` through the ladder on `solver` alone, under
    /// `policy`, on one worker.
    fn recover(
        job: &SimulationJob,
        solver: (&dyn OdeSolver, &'static str),
        policy: RecoveryPolicy,
    ) -> Vec<RecoveredSolve> {
        let host = Host { recovery: policy, ..Host::default() };
        let members = (0..job.batch_size()).map(|i| (i, None)).collect();
        let ladder = Ladder { retry: solver, fallback: None };
        solve_members_recovered(&host, job, members, |_| ladder).unwrap()
    }

    #[test]
    fn default_policy_is_the_historical_single_reroute() {
        let p = RecoveryPolicy::default();
        assert!(p.reroute);
        assert_eq!(p.max_relaxations, 0);
        assert_eq!(p.step_budget, None);
    }

    #[test]
    fn clean_member_solves_in_one_attempt() {
        let m = model();
        let job = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(1).build().unwrap();
        let rs = recover(&job, (&Rkf45::new(), "rkf45"), RecoveryPolicy::default()).remove(0);
        assert!(rs.solution.is_ok());
        assert_eq!(rs.solver, "rkf45");
        assert_eq!(rs.log, RecoveryLog { attempts: 1, ..RecoveryLog::default() });
    }

    #[test]
    fn injected_panic_is_contained_as_internal() {
        let m = model();
        let job = SimulationJob::builder(&m)
            .time_points(vec![1.0])
            .replicate(2)
            .fault_plan(FaultPlan::new().with_fault(0, FaultSpec::panic_at_time(0.5)))
            .build()
            .unwrap();
        let mut rs = recover(&job, (&Lsoda::new(), "lsoda"), RecoveryPolicy::default());
        let err = rs[0].solution.as_ref().unwrap_err();
        assert!(matches!(err, SolverError::Internal { message } if message.contains("chaos")));
        assert!(rs[0].log.panicked);
        // The worker's scratch pool survives the contained panic and solves
        // the clean member after it.
        assert!(rs.remove(1).solution.is_ok());
    }

    #[test]
    fn relaxation_recovers_a_member_that_fails_default_tolerances() {
        let m = model();
        // LSODA needs ~56 steps to t = 4 at the default tolerances and ~35
        // once they are relaxed 100×; a 40-step cap separates the two.
        let opts = SolverOptions { max_steps: 40, ..SolverOptions::default() };
        let job = SimulationJob::builder(&m)
            .time_points(vec![4.0])
            .replicate(1)
            .options(opts)
            .build()
            .unwrap();
        let lsoda = (&Lsoda::new() as &dyn OdeSolver, "lsoda");

        let strict = recover(&job, lsoda, RecoveryPolicy::default()).remove(0);
        assert!(strict.solution.is_err(), "member must fail at default tolerances");

        let policy = RecoveryPolicy { max_relaxations: 3, ..RecoveryPolicy::default() };
        let relaxed = recover(&job, lsoda, policy).remove(0);
        assert!(
            relaxed.solution.is_ok(),
            "relaxed tolerances must recover: {:?}",
            relaxed.solution
        );
        assert!(relaxed.log.recovered);
        assert!(relaxed.log.relaxations >= 1);
        assert!(
            relaxed.stats.steps > strict.stats.steps,
            "retries must be billed on top of the failed attempt"
        );
    }

    #[test]
    fn relaxation_never_retries_a_contained_panic() {
        let m = model();
        let job = SimulationJob::builder(&m)
            .time_points(vec![1.0])
            .replicate(1)
            .fault_plan(FaultPlan::new().with_fault(0, FaultSpec::panic_at_time(0.1)))
            .build()
            .unwrap();
        let policy = RecoveryPolicy { max_relaxations: 5, ..RecoveryPolicy::default() };
        let rs = recover(&job, (&Lsoda::new(), "lsoda"), policy).remove(0);
        assert!(matches!(rs.solution, Err(SolverError::Internal { .. })));
        assert_eq!(rs.log.attempts, 1, "a deterministic panic must not be retried");
        assert_eq!(rs.log.relaxations, 0);
    }

    #[test]
    fn ladder_is_deterministic_across_repeats() {
        let m = model();
        let opts = SolverOptions { max_steps: 40, ..SolverOptions::default() };
        let job = SimulationJob::builder(&m)
            .time_points(vec![4.0])
            .replicate(1)
            .options(opts)
            .build()
            .unwrap();
        let lsoda = (&Lsoda::new() as &dyn OdeSolver, "lsoda");
        let policy = RecoveryPolicy { max_relaxations: 2, ..RecoveryPolicy::default() };
        let a = recover(&job, lsoda, policy).remove(0);
        let b = recover(&job, lsoda, policy).remove(0);
        assert_eq!(a.log, b.log);
        assert_eq!(a.solution.as_ref().unwrap().states, b.solution.as_ref().unwrap().states);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn billed_first_attempts_continue_without_being_billed_again() {
        // A successful billed attempt comes back as it went in; a failed
        // one climbs the rungs on `retry`, which bill only themselves.
        let m = model();
        let job = SimulationJob::builder(&m).time_points(vec![4.0]).replicate(2).build().unwrap();
        let lsoda = Lsoda::new();
        let mut scratch = SolverScratch::new();
        let ok = contained_attempt(&job, 0, &lsoda, job.options(), &mut scratch);
        let steps = attempt_stats(&ok).steps;
        let failed = SolveFailure {
            error: SolverError::MaxStepsExceeded { t: 1.0, max_steps: 9 },
            stats: StepStats { steps: 9, ..StepStats::default() },
        };
        let host = Host {
            recovery: RecoveryPolicy { max_relaxations: 1, ..RecoveryPolicy::default() },
            ..Host::default()
        };
        let members = vec![
            (0, Some(Billed::first(ok, "lanes"))),
            (1, Some(Billed::first(Err(failed), "lanes"))),
        ];
        let ladder = Ladder { retry: (&lsoda, "lsoda"), fallback: None };
        let rs = solve_members_recovered(&host, &job, members, |_| ladder).unwrap();
        assert_eq!((rs[0].solver, rs[0].stats), ("lanes", StepStats::default()));
        assert_eq!(rs[0].solution.as_ref().unwrap().stats.steps, steps);
        assert_eq!(rs[0].log, RecoveryLog { attempts: 1, ..RecoveryLog::default() });
        assert_eq!(rs[1].solver, "lsoda");
        assert!(rs[1].solution.is_ok() && rs[1].log.recovered);
        assert_eq!((rs[1].log.attempts, rs[1].log.discarded_steps), (2, 9));
        assert_eq!(rs[1].stats, rs[1].solution.as_ref().unwrap().stats);
    }

    #[test]
    fn a_billed_reroute_skips_rung_one_and_relaxes_on_the_fallback() {
        // The caller billed an explicit attempt, re-routed it, and billed
        // the implicit attempt, which failed too: the ladder keeps that
        // history, does not reroute again, and relaxes on the fallback.
        let m = model();
        let opts = SolverOptions { max_steps: 40, ..SolverOptions::default() };
        let job = SimulationJob::builder(&m)
            .time_points(vec![4.0])
            .replicate(1)
            .options(opts)
            .build()
            .unwrap();
        let failed = |t, steps| SolveFailure {
            error: SolverError::MaxStepsExceeded { t, max_steps: steps },
            stats: StepStats { steps, ..StepStats::default() },
        };
        let billed =
            Billed::first(Err(failed(0.5, 9)), "rkf45").rerouted_to(Err(failed(2.0, 40)), "lsoda");
        let (rkf45, lsoda) = (Rkf45::new(), Lsoda::new());
        let ladder = Ladder { retry: (&rkf45, "rkf45"), fallback: Some((&lsoda, "lsoda")) };
        let host = Host {
            recovery: RecoveryPolicy { max_relaxations: 3, ..RecoveryPolicy::default() },
            ..Host::default()
        };
        let rs = solve_members_recovered(&host, &job, vec![(0, Some(billed))], |_| ladder)
            .unwrap()
            .remove(0);
        let solution = rs.solution.as_ref().expect("relaxed LSODA recovers the member");
        assert_eq!(rs.solver, "lsoda");
        assert!(rs.log.rerouted && rs.log.recovered && rs.log.relaxations >= 1);
        assert_eq!(rs.log.attempts, 2 + rs.log.relaxations, "rung 1 ran again");
        // The billed 9 + 40 steps are discarded, not billed again.
        assert_eq!(rs.stats.steps + 49, rs.log.discarded_steps + solution.stats.steps);
    }

    /// An [`OdeSolver`] that trips `cancel` on its first call and counts
    /// every call, delegating the solve to LSODA.
    struct Tripwire<'a> {
        cancel: &'a CancelToken,
        calls: AtomicUsize,
    }

    impl OdeSolver for Tripwire<'_> {
        fn name(&self) -> &'static str {
            "tripwire"
        }

        fn solve(
            &self,
            system: &dyn OdeSystem,
            t0: f64,
            y0: &[f64],
            sample_times: &[f64],
            options: &SolverOptions,
        ) -> Result<Solution, SolveFailure> {
            if self.calls.fetch_add(1, Ordering::SeqCst) == 0 {
                self.cancel.cancel();
            }
            Lsoda::new().solve(system, t0, y0, sample_times, options)
        }
    }

    #[test]
    fn a_token_tripped_during_the_rungs_cancels_the_pass() {
        // Six members whose billed first attempts failed climb one
        // relaxation rung each; the first rung trips the token. On one
        // worker no other member's rung starts after it; on two the pass
        // still ends Cancelled.
        let m = model();
        let job = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(6).build().unwrap();
        for workers in [1, 2] {
            let cancel = CancelToken::new();
            let retry = Tripwire { cancel: &cancel, calls: AtomicUsize::new(0) };
            let host = Host {
                executor: Executor::new(workers),
                recovery: RecoveryPolicy { max_relaxations: 1, ..RecoveryPolicy::default() },
                cancel: cancel.clone(),
            };
            let failed = || SolveFailure {
                error: SolverError::MaxStepsExceeded { t: 0.5, max_steps: 3 },
                stats: StepStats::default(),
            };
            let members =
                (0..6).map(|i| (i, Some(Billed::first(Err(failed()), "lanes")))).collect();
            let ladder = Ladder { retry: (&retry, "tripwire"), fallback: None };
            let outcome = solve_members_recovered(&host, &job, members, |_| ladder);
            assert!(matches!(outcome, Err(Cancelled)), "{workers} workers");
            if workers == 1 {
                assert_eq!(retry.calls.load(Ordering::SeqCst), 1, "a rung started after the trip");
            }
        }
    }
}
