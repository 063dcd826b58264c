//! The simulation engines — one host pipeline ([`Host`], [`Engine`]) under
//! five cost models — and their shared result types.

mod auto;
mod coarse;
mod cpu;
mod fine;
mod fine_coarse;
mod host;

pub use auto::AutoEngine;
pub use coarse::CoarseEngine;
pub use cpu::{CpuEngine, CpuSolverKind};
pub use fine::FineEngine;
pub use fine_coarse::FineCoarseEngine;
pub use host::{Engine, Host};

use crate::recovery::RecoveryLog;
use crate::{SimError, SimulationJob};
use paraspace_solvers::{
    ChaosSystem, Solution, SolveFailure, SolverError, SolverOptions, SolverScratch, StepStats,
};
use paraspace_vgpu::LaneAccounting;
use std::fmt;
use std::time::Duration;

/// Host-side I/O throughput used to price output serialization (bytes/ns);
/// ~500 MB/s, a mid-range value for the formatted-text dynamics files the
/// original tool writes.
pub(crate) const IO_BYTES_PER_NS: f64 = 0.5;

/// A batch simulation engine.
///
/// All engines produce bit-identical trajectories for the same job (they
/// share the solver implementations); they differ in *how the work is
/// scheduled on their modeled hardware*, which is what the timing fields
/// of [`BatchResult`] expose.
pub trait Simulator {
    /// Engine name as used in the published comparison maps.
    fn name(&self) -> &'static str;

    /// Runs the whole batch.
    ///
    /// # Errors
    ///
    /// Job-level failures only ([`SimError`]); per-simulation solver
    /// failures are recorded in the corresponding [`SimOutcome`].
    fn run(&self, job: &SimulationJob) -> Result<BatchResult, SimError>;

    /// [`run`](Self::run), with every member also handed to `sink` (see
    /// [`MemberSink`] for the contract). The five engines feed the sink
    /// from their shared P5 tail, on their workers, and their `run` is
    /// this with a sink that ignores what it is given. The provided body
    /// serves a simulator that wraps another and implements only `run`: it
    /// delivers after the fact, on the calling thread.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run); the sink is not called when the run fails.
    fn run_into(
        &self,
        job: &SimulationJob,
        sink: &dyn MemberSink,
    ) -> Result<BatchResult, SimError> {
        let result = self.run(job)?;
        host::deliver(&paraspace_exec::Executor::sequential(), &result.outcomes, sink);
        Ok(result)
    }
}

/// Where a finished batch's members go (phase P5).
///
/// [`Simulator::run_into`] calls [`member`](Self::member) exactly once per
/// batch member — in no particular order, concurrently from the engine's
/// workers — and only for a batch that completes: a run that returns an
/// error (a cancelled one included) has called it for nobody.
///
/// Any `Fn(usize, &SimOutcome, Option<&str>) + Sync` is a sink.
///
/// # Example
///
/// ```
/// use paraspace_core::{CpuEngine, CpuSolverKind, SimOutcome, SimulationJob, Simulator};
/// use paraspace_rbm::{Reaction, ReactionBasedModel};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = ReactionBasedModel::new();
/// let a = m.add_species("A", 1.0);
/// m.add_reaction(Reaction::mass_action(&[(a, 1)], &[], 1.0))?;
/// let job = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(4).build()?;
/// let bytes = AtomicUsize::new(0);
/// let count = |_: usize, _: &SimOutcome, text: Option<&str>| {
///     bytes.fetch_add(text.map_or(0, str::len), Ordering::Relaxed);
/// };
/// let result = CpuEngine::new(CpuSolverKind::Lsoda).run_into(&job, &count)?;
/// let written: usize = result.solutions().map(|s| job.serialize_dynamics(s).len()).sum();
/// assert_eq!(bytes.into_inner(), written);
/// # Ok(())
/// # }
/// ```
pub trait MemberSink: Sync {
    /// Member `index` ended as `outcome`. `dynamics` is its trajectory in
    /// the dynamics text format — exactly
    /// [`SimulationJob::serialize_dynamics`]' text, formatted once into a
    /// buffer the worker reuses, so it is borrowed for this call only —
    /// and `None` for a failed member. The sum of the texts' lengths is
    /// what the engine prices P5 on.
    fn member(&self, index: usize, outcome: &SimOutcome, dynamics: Option<&str>);
}

impl<F: Fn(usize, &SimOutcome, Option<&str>) + Sync> MemberSink for F {
    fn member(&self, index: usize, outcome: &SimOutcome, dynamics: Option<&str>) {
        self(index, outcome, dynamics)
    }
}

/// The sink under every engine's [`Simulator::run`].
pub(crate) fn discard(_: usize, _: &SimOutcome, _: Option<&str>) {}

/// Outcome of one batch member.
#[derive(Debug)]
pub struct SimOutcome {
    /// The sampled trajectory, or the solver failure.
    pub solution: Result<Solution, SolverError>,
    /// Phase-P2 classification (where the engine performs one).
    pub stiff: bool,
    /// Whether the member failed on the explicit path and was re-routed to
    /// the implicit solver (phase P3 → P4).
    pub rerouted: bool,
    /// Name of the solver that produced the final result.
    pub solver: &'static str,
    /// What the recovery ladder did for this member (attempt count,
    /// reroutes, tolerance relaxations, contained panics) — the per-member
    /// record post-mortems need without a rerun.
    pub log: RecoveryLog,
}

/// The two clocks and their integration/I-O split.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchTiming {
    /// Real wall time spent by this process executing the batch.
    pub host_wall: Duration,
    /// Modeled time on the engine's hardware: everything (the published
    /// "simulation time").
    pub simulated_total_ns: f64,
    /// Modeled time of the numerical integration only (the published
    /// "integration time").
    pub simulated_integration_ns: f64,
    /// Modeled time of input staging and output writing.
    pub simulated_io_ns: f64,
}

/// Failed members counted by [`SolverError`] variant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureCounts {
    /// [`SolverError::MaxStepsExceeded`] failures.
    pub max_steps_exceeded: usize,
    /// [`SolverError::StepSizeUnderflow`] failures.
    pub step_size_underflow: usize,
    /// [`SolverError::NonlinearSolveFailed`] failures.
    pub nonlinear_solve_failed: usize,
    /// [`SolverError::SingularIterationMatrix`] failures.
    pub singular_iteration_matrix: usize,
    /// [`SolverError::NonFiniteState`] failures.
    pub non_finite_state: usize,
    /// [`SolverError::StiffnessDetected`] failures (terminal, i.e. not
    /// cured by a reroute).
    pub stiffness_detected: usize,
    /// [`SolverError::StepBudgetExhausted`] failures.
    pub step_budget_exhausted: usize,
    /// [`SolverError::InvalidInput`] failures.
    pub invalid_input: usize,
    /// [`SolverError::Internal`] failures (contained panics).
    pub internal: usize,
    /// Failures of variants this build does not know by name.
    pub other: usize,
}

/// The failure taxonomy's labels, in [`FailureCounts`] field order and
/// indexed by [`taxonomy_index`].
const TAXONOMY: [&str; 10] = [
    "max-steps",
    "underflow",
    "nonlinear",
    "singular",
    "non-finite",
    "stiff",
    "budget",
    "invalid",
    "internal",
    "other",
];

/// Where a [`SolverError`] sits in [`TAXONOMY`].
fn taxonomy_index(e: &SolverError) -> usize {
    match e {
        SolverError::MaxStepsExceeded { .. } => 0,
        SolverError::StepSizeUnderflow { .. } => 1,
        SolverError::NonlinearSolveFailed { .. } => 2,
        SolverError::SingularIterationMatrix { .. } => 3,
        SolverError::NonFiniteState { .. } => 4,
        SolverError::StiffnessDetected { .. } => 5,
        SolverError::StepBudgetExhausted { .. } => 6,
        SolverError::InvalidInput { .. } => 7,
        SolverError::Internal { .. } => 8,
        _ => 9,
    }
}

/// The short taxonomy label used for a [`SolverError`] in health lines,
/// failure tallies, and CLI `.err` post-mortems — the same vocabulary
/// [`BatchHealth`]'s `Display` prints, so logs and aggregates correlate.
#[must_use]
pub fn taxonomy(e: &SolverError) -> &'static str {
    TAXONOMY[taxonomy_index(e)]
}

impl FailureCounts {
    /// The counters, in [`TAXONOMY`] order.
    fn counters(&mut self) -> [&mut usize; 10] {
        [
            &mut self.max_steps_exceeded,
            &mut self.step_size_underflow,
            &mut self.nonlinear_solve_failed,
            &mut self.singular_iteration_matrix,
            &mut self.non_finite_state,
            &mut self.stiffness_detected,
            &mut self.step_budget_exhausted,
            &mut self.invalid_input,
            &mut self.internal,
            &mut self.other,
        ]
    }

    fn record(&mut self, e: &SolverError) {
        *self.counters()[taxonomy_index(e)] += 1;
    }

    /// Total failed members.
    pub fn total(&self) -> usize {
        let mut counts = *self;
        counts.counters().into_iter().map(|count| *count).sum()
    }
}

/// Aggregate fault/recovery accounting for one batch run.
///
/// Built on the calling thread in member-index order from per-member
/// recovery logs, so it is bitwise identical at any worker-thread count
/// and lane width — chaos tests assert equality on the whole struct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchHealth {
    /// Batch members observed.
    pub members: usize,
    /// Members whose final outcome is a trajectory.
    pub succeeded: usize,
    /// Terminal failures by taxonomy.
    pub failed: FailureCounts,
    /// Total retry attempts beyond each member's first (reroutes and
    /// relaxations both count).
    pub retries_attempted: usize,
    /// Members whose final success came from a retry.
    pub retries_succeeded: usize,
    /// Members rerouted from the explicit to the implicit solver.
    pub reroutes: usize,
    /// Tolerance-relaxation retries performed across the batch.
    pub relaxations: usize,
    /// Always 0: no engine evicts a member from its lane groups (every
    /// member takes the lane route, and a panic inside a group is contained
    /// by the scalar one). Kept because the benchmark's traces still read
    /// it; it goes with their next change.
    pub evicted_lanes: usize,
    /// Panics contained to a single member's outcome.
    pub panics_contained: usize,
    /// Solver steps spent by attempts whose result was discarded by a
    /// reroute or a relaxation retry: the host (and the modeled device)
    /// paid for them, no trajectory came of them.
    pub discarded_steps: usize,
}

impl BatchHealth {
    /// Folds one member's final solution and recovery log into the tally.
    pub(crate) fn observe(&mut self, solution: &Result<Solution, SolverError>, log: &RecoveryLog) {
        self.members += 1;
        match solution {
            Ok(_) => self.succeeded += 1,
            Err(e) => self.failed.record(e),
        }
        self.retries_attempted += log.attempts.saturating_sub(1);
        if log.recovered {
            self.retries_succeeded += 1;
        }
        if log.rerouted {
            self.reroutes += 1;
        }
        self.relaxations += log.relaxations;
        if log.panicked {
            self.panics_contained += 1;
        }
        self.discarded_steps += log.discarded_steps;
    }
}

impl fmt::Display for BatchHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} ok", self.succeeded, self.members)?;
        let failed = self.failed.total();
        if failed > 0 {
            let mut counts = self.failed;
            let parts: Vec<String> = (counts.counters().into_iter().zip(TAXONOMY))
                .filter(|(count, _)| **count > 0)
                .map(|(count, label)| format!("{count} {label}"))
                .collect();
            write!(f, ", {failed} failed ({})", parts.join(", "))?;
        }
        if self.retries_attempted > 0 {
            write!(f, "; retries {}/{} recovered", self.retries_succeeded, self.retries_attempted)?;
        }
        if self.reroutes > 0 {
            write!(f, "; {} rerouted", self.reroutes)?;
        }
        if self.relaxations > 0 {
            write!(f, "; {} relaxations", self.relaxations)?;
        }
        if self.panics_contained > 0 {
            write!(f, "; {} panics contained", self.panics_contained)?;
        }
        if self.discarded_steps > 0 {
            write!(f, "; {} steps discarded", self.discarded_steps)?;
        }
        Ok(())
    }
}

/// The result of running a batch.
#[derive(Debug)]
pub struct BatchResult {
    /// Engine that produced this result.
    pub engine: &'static str,
    /// One outcome per batch member, in order.
    pub outcomes: Vec<SimOutcome>,
    /// Timing on both clocks.
    pub timing: BatchTiming,
    /// Lane occupancy/divergence accounting, for engines that ran the
    /// lane-batched lockstep path (`None` for scalar execution).
    pub lanes: Option<LaneAccounting>,
    /// Fault and recovery accounting for the whole batch.
    pub health: BatchHealth,
}

impl BatchResult {
    /// Number of members that produced a trajectory.
    pub fn success_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.solution.is_ok()).count()
    }

    /// Iterates over the successful trajectories.
    pub fn solutions(&self) -> impl Iterator<Item = &Solution> {
        self.outcomes.iter().filter_map(|o| o.solution.as_ref().ok())
    }

    /// Aggregated solver counters across the batch.
    pub fn aggregate_stats(&self) -> StepStats {
        let mut total = StepStats::default();
        for o in &self.outcomes {
            if let Ok(s) = &o.solution {
                total.absorb(&s.stats);
            }
        }
        total
    }
}

/// Runs `solver` on member `i` of `job` under the given solver options,
/// drawing working storage from a worker-owned scratch pool (shared by all
/// engines). Explicit options let retry ladders relax tolerances or
/// escalate step budgets per attempt.
///
/// If the job's fault plan targets member `i`, its RHS is wrapped in a
/// [`ChaosSystem`] — each attempt gets a fresh wrapper, so a retried member
/// deterministically re-experiences its injected faults.
pub(crate) fn solve_member_pooled_opts(
    job: &SimulationJob,
    i: usize,
    solver: &dyn paraspace_solvers::OdeSolver,
    options: &SolverOptions,
    scratch: &mut SolverScratch,
) -> Result<Solution, SolveFailure> {
    let (x0, k) = job.member(i);
    let sys = crate::RbmOdeSystem::new(job.odes(), k.to_vec());
    match job.fault_plan().faults_for(i) {
        Some(faults) => {
            let sys = ChaosSystem::new(sys, faults.to_vec());
            solver.solve_pooled(&sys, 0.0, x0, job.time_points(), options, scratch)
        }
        None => solver.solve_pooled(&sys, 0.0, x0, job.time_points(), options, scratch),
    }
}

/// The work counters of one solve attempt, whichever way it ended.
pub(crate) fn attempt_stats(result: &Result<Solution, SolveFailure>) -> &StepStats {
    match result {
        Ok(sol) => &sol.stats,
        Err(failure) => &failure.stats,
    }
}

/// The work counters of a lane group's attempts, summed in member order:
/// what its one group-wide kernel is billed for.
pub(crate) fn group_stats<'a>(attempts: impl IntoIterator<Item = &'a StepStats>) -> StepStats {
    let mut total = StepStats::default();
    for stats in attempts {
        total.absorb(stats);
    }
    total
}

/// Splits a member result into the caller-facing outcome and the work the
/// run consumed on the engine's hardware — failed members are billed for
/// the steps they actually burned before giving up.
pub(crate) fn outcome_and_stats(
    result: Result<Solution, SolveFailure>,
) -> (Result<Solution, SolverError>, StepStats) {
    match result {
        Ok(sol) => {
            let stats = sol.stats;
            (Ok(sol), stats)
        }
        Err(failure) => (Err(failure.error), failure.stats),
    }
}
