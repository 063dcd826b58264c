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
//!   step-budget escalation — generalizing the engines' historical
//!   single stiffness reroute;
//! * every attempt's work counters are absorbed into the member's stats,
//!   so retries are billed on the engines' modeled timelines.
//!
//! The ladder is fully deterministic: the attempt sequence depends only on
//! the member's inputs and the policy, never on thread scheduling, so a
//! batch containing retried members stays bitwise identical at any worker
//! count.

use crate::engines::{outcome_and_stats, solve_member_pooled_opts, Host};
use crate::SimulationJob;
use paraspace_exec::{payload_message, Cancelled};
use paraspace_solvers::{
    OdeSolver, Solution, SolveFailure, SolverError, SolverOptions, SolverScratch, StepStats,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

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
/// assert_eq!(policy.relax_factor, 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Retry a stiffness-shaped explicit-solver failure on the engine's
    /// implicit fallback (the published P3 → P4 reroute).
    pub reroute: bool,
    /// Maximum tolerance-relaxation retries after the reroute (0 disables
    /// the relaxation rungs of the ladder).
    pub max_relaxations: usize,
    /// Factor both tolerances are multiplied by per relaxation.
    pub relax_factor: f64,
    /// Relative tolerance is never relaxed beyond this.
    pub rel_tol_cap: f64,
    /// Absolute tolerance is never relaxed beyond this.
    pub abs_tol_cap: f64,
    /// Per-member total-step budget applied when the job itself sets none
    /// (see [`SolverOptions::step_budget`]); `None` leaves members
    /// unbounded. A deterministic stand-in for a wall-clock deadline: no
    /// member can consume more than this many attempted steps per attempt.
    pub step_budget: Option<usize>,
    /// Factor the step budget grows by per relaxation retry, so a relaxed
    /// attempt is not starved by the budget that killed the original.
    pub budget_escalation: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            reroute: true,
            max_relaxations: 0,
            relax_factor: 10.0,
            rel_tol_cap: 1e-2,
            abs_tol_cap: 1e-6,
            step_budget: None,
            budget_escalation: 2,
        }
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

/// A member's final result after containment and recovery.
#[derive(Debug)]
pub struct RecoveredSolve {
    /// The final solution or error.
    pub solution: Result<Solution, SolverError>,
    /// Work counters absorbed across **all** attempts, so engines bill
    /// retries on their modeled timelines.
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

/// Runs the full recovery ladder for member `i`: primary attempt, then
/// (per `policy`) one reroute to `fallback`, then tolerance-relaxation
/// retries with step-budget escalation.
pub(crate) fn solve_member_recovered(
    job: &SimulationJob,
    i: usize,
    primary: (&dyn OdeSolver, &'static str),
    fallback: Option<(&dyn OdeSolver, &'static str)>,
    reroutable: fn(&SolverError) -> bool,
    policy: &RecoveryPolicy,
    scratch: &mut SolverScratch,
) -> RecoveredSolve {
    let opts = policy.base_options(job);
    let first = contained_attempt(job, i, primary.0, &opts, scratch);
    continue_ladder(
        job, i, first, false, primary.1, primary, fallback, reroutable, policy, opts, scratch,
    )
}

/// Continues the ladder after an already-performed first attempt.
///
/// Engines whose first attempt ran elsewhere (the lane-batched lockstep
/// solver) enter here with that attempt's outcome; `retry` is the solver
/// relaxation retries use when the member was not rerouted. `first_billed`
/// says the caller already billed the first attempt's work (in a
/// group-wide lane kernel, or in its phase launch): its stats are then
/// left out of the returned [`RecoveredSolve::stats`], which carries only
/// the genuine retries.
#[allow(clippy::too_many_arguments)]
pub(crate) fn continue_ladder(
    job: &SimulationJob,
    i: usize,
    first: Result<Solution, SolveFailure>,
    first_billed: bool,
    first_name: &'static str,
    retry: (&dyn OdeSolver, &'static str),
    fallback: Option<(&dyn OdeSolver, &'static str)>,
    reroutable: fn(&SolverError) -> bool,
    policy: &RecoveryPolicy,
    mut opts: SolverOptions,
    scratch: &mut SolverScratch,
) -> RecoveredSolve {
    let mut log = RecoveryLog { attempts: 1, ..RecoveryLog::default() };
    let mut stats = StepStats::default();
    let mut solver_name = first_name;

    let (mut current, first_stats) = outcome_and_stats(first);
    if !first_billed {
        stats.absorb(&first_stats);
    }
    log.panicked |= matches!(current, Err(SolverError::Internal { .. }));
    // Steps of the attempt `current` came from: discarded if it is retried.
    let mut current_steps = first_stats.steps;

    // Rung 1: the historical explicit → implicit reroute.
    if policy.reroute {
        if let (Err(e), Some((fb, fb_name))) = (&current, fallback) {
            if reroutable(e) {
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
    }

    // Rungs 2..: relax tolerances ×factor (capped) and escalate the step
    // budget, retrying the solver the member last ran on.
    while log.relaxations < policy.max_relaxations {
        let Err(e) = &current else { break };
        if !relax_eligible(e) {
            break;
        }
        let rel = (opts.rel_tol * policy.relax_factor).min(policy.rel_tol_cap).max(opts.rel_tol);
        let abs = (opts.abs_tol * policy.relax_factor).min(policy.abs_tol_cap).max(opts.abs_tol);
        let budget = opts.step_budget.map(|b| b.saturating_mul(policy.budget_escalation.max(1)));
        if rel == opts.rel_tol && abs == opts.abs_tol && budget == opts.step_budget {
            break; // caps reached — a retry would repeat the same failure
        }
        opts.rel_tol = rel;
        opts.abs_tol = abs;
        opts.step_budget = budget;
        log.relaxations += 1;
        log.attempts += 1;
        log.discarded_steps += current_steps;
        let (solver, name) =
            if log.rerouted { fallback.expect("rerouted implies fallback") } else { retry };
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

/// Runs the recovery ladder for `members` on the host's worker pool, under
/// its policy, returning results **in `members` order**, or
/// `Err(Cancelled)` if its token tripped before every member completed
/// (in-flight members drain; partial results are discarded).
///
/// Member-level containment inside [`solve_member_recovered`] normally
/// keeps panics from reaching the executor; `try_map_with_cancel`
/// backstops the remainder (a panic in the ladder itself), converting an
/// executor-level [`paraspace_exec::ItemPanic`] into an `Internal` outcome
/// for that member instead of resuming the unwind.
pub(crate) fn solve_members_recovered(
    host: &Host,
    job: &SimulationJob,
    members: &[usize],
    primary: (&dyn OdeSolver, &'static str),
    fallback: Option<(&dyn OdeSolver, &'static str)>,
    reroutable: fn(&SolverError) -> bool,
) -> Result<Vec<RecoveredSolve>, Cancelled> {
    let solve = |scratch: &mut SolverScratch, idx: usize| {
        let policy = &host.recovery;
        solve_member_recovered(job, members[idx], primary, fallback, reroutable, policy, scratch)
    };
    Ok(host
        .executor
        .try_map_with_cancel(members.len(), &host.cancel, SolverScratch::new, solve)?
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|fault| RecoveredSolve {
                solution: Err(SolverError::Internal { message: fault.message }),
                stats: StepStats::default(),
                solver: primary.1,
                log: RecoveryLog { attempts: 1, panicked: true, ..RecoveryLog::default() },
            })
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraspace_rbm::{Reaction, ReactionBasedModel};
    use paraspace_solvers::{FaultPlan, FaultSpec, Lsoda, Rkf45};

    fn model() -> ReactionBasedModel {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let b = m.add_species("B", 0.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1.0)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 0.4)).unwrap();
        m
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
        let rkf = Rkf45::new();
        let mut scratch = SolverScratch::new();
        let rs = solve_member_recovered(
            &job,
            0,
            (&rkf, "rkf45"),
            None,
            |_| false,
            &RecoveryPolicy::default(),
            &mut scratch,
        );
        assert!(rs.solution.is_ok());
        assert_eq!(rs.solver, "rkf45");
        assert_eq!(rs.log, RecoveryLog { attempts: 1, ..RecoveryLog::default() });
    }

    #[test]
    fn injected_panic_is_contained_as_internal() {
        let m = model();
        let job = SimulationJob::builder(&m)
            .time_points(vec![1.0])
            .replicate(1)
            .fault_plan(FaultPlan::new().with_fault(0, FaultSpec::panic_at_time(0.5)))
            .build()
            .unwrap();
        let lsoda = Lsoda::new();
        let mut scratch = SolverScratch::new();
        let rs = solve_member_recovered(
            &job,
            0,
            (&lsoda, "lsoda"),
            None,
            |_| false,
            &RecoveryPolicy::default(),
            &mut scratch,
        );
        let err = rs.solution.unwrap_err();
        assert!(matches!(&err, SolverError::Internal { message } if message.contains("chaos")));
        assert!(rs.log.panicked);
        // The scratch pool survives the contained panic and solves a clean
        // member afterwards.
        let clean = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(1).build().unwrap();
        let rs2 = solve_member_recovered(
            &clean,
            0,
            (&lsoda, "lsoda"),
            None,
            |_| false,
            &RecoveryPolicy::default(),
            &mut scratch,
        );
        assert!(rs2.solution.is_ok());
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
        let lsoda = Lsoda::new();
        let mut scratch = SolverScratch::new();

        let strict = solve_member_recovered(
            &job,
            0,
            (&lsoda, "lsoda"),
            None,
            |_| false,
            &RecoveryPolicy::default(),
            &mut scratch,
        );
        assert!(strict.solution.is_err(), "member must fail at default tolerances");

        let policy = RecoveryPolicy { max_relaxations: 3, ..RecoveryPolicy::default() };
        let relaxed = solve_member_recovered(
            &job,
            0,
            (&lsoda, "lsoda"),
            None,
            |_| false,
            &policy,
            &mut scratch,
        );
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
        let lsoda = Lsoda::new();
        let mut scratch = SolverScratch::new();
        let policy = RecoveryPolicy { max_relaxations: 5, ..RecoveryPolicy::default() };
        let rs = solve_member_recovered(
            &job,
            0,
            (&lsoda, "lsoda"),
            None,
            |_| false,
            &policy,
            &mut scratch,
        );
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
        let lsoda = Lsoda::new();
        let policy = RecoveryPolicy { max_relaxations: 2, ..RecoveryPolicy::default() };
        let mut s1 = SolverScratch::new();
        let mut s2 = SolverScratch::new();
        let a =
            solve_member_recovered(&job, 0, (&lsoda, "lsoda"), None, |_| false, &policy, &mut s1);
        let b =
            solve_member_recovered(&job, 0, (&lsoda, "lsoda"), None, |_| false, &policy, &mut s2);
        assert_eq!(a.log, b.log);
        assert_eq!(a.solution.as_ref().unwrap().states, b.solution.as_ref().unwrap().states);
        assert_eq!(a.stats, b.stats);
    }
}
