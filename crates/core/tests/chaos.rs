//! End-to-end fault-containment suite: deterministic chaos injection
//! against whole batches.
//!
//! A 256-member batch carries eight hostile members — panicking RHS,
//! NaN-producing RHS, and high-frequency "stall" dynamics that chew
//! through the step budget. The contract under test:
//!
//! * the batch **never aborts**: every run returns a full `BatchResult`
//!   with one outcome per member;
//! * exactly the faulted members fail, each under the right
//!   [`SolverError`] taxonomy, itemized in [`BatchHealth`];
//! * the whole result — trajectories, outcomes, modeled timeline, health —
//!   is bitwise identical across worker-thread counts, and trajectories/
//!   health across lane widths;
//! * faulted members are evicted from the fine-coarse engine's lockstep
//!   lane groups, and every member matches a direct scalar solve of the
//!   same member.

use paraspace_core::{
    BatchResult, CpuEngine, CpuSolverKind, FaultPlan, FaultSpec, FineCoarseEngine, FineEngine,
    RbmOdeSystem, RecoveryPolicy, SimulationJob, Simulator,
};
use paraspace_rbm::{perturbed_batch, Parameterization, Reaction, ReactionBasedModel};
use paraspace_solvers::{ChaosSystem, Dopri5, OdeSolver, Radau5, SolverError, SolverOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

const BATCH: usize = 256;
const PANICKERS: [usize; 3] = [10, 97, 201];
const NANNERS: [usize; 3] = [33, 128, 255];
const STALLERS: [usize; 2] = [64, 180];

fn model() -> ReactionBasedModel {
    let mut m = ReactionBasedModel::new();
    let a = m.add_species("A", 1.0);
    let b = m.add_species("B", 0.0);
    m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1.2)).unwrap();
    m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 0.4)).unwrap();
    m
}

/// The 256-member batch with 8 deterministically faulted members.
fn chaos_job(m: &ReactionBasedModel) -> SimulationJob<'_> {
    let mut rng = StdRng::seed_from_u64(2024);
    let mut plan = FaultPlan::new();
    for &i in &PANICKERS {
        plan = plan.with_fault(i, FaultSpec::panic_at_time(0.3));
    }
    for &i in &NANNERS {
        plan = plan.with_fault(i, FaultSpec::nan_at_time(0.2));
    }
    for &i in &STALLERS {
        plan = plan.with_fault(i, FaultSpec::stall_at_time(0.1));
    }
    SimulationJob::builder(m)
        .time_points(vec![0.5, 1.0])
        .parameterizations(perturbed_batch(m, BATCH, &mut rng))
        .fault_plan(plan)
        .build()
        .unwrap()
}

/// Stall faults produce bounded-but-wild dynamics that would otherwise
/// grind through `max_steps` slowly; a modest per-member step budget is
/// the deterministic stand-in for a wall-clock deadline.
fn policy() -> RecoveryPolicy {
    RecoveryPolicy { step_budget: Some(4000), ..RecoveryPolicy::default() }
}

fn assert_chaos_health(r: &BatchResult, evicted: usize, label: &str) {
    assert_eq!(r.outcomes.len(), BATCH, "{label}: no aborted members");
    assert_eq!(r.success_count(), BATCH - 8, "{label}: exactly the faulted members fail");
    let h = &r.health;
    assert_eq!(h.members, BATCH, "{label}: members observed");
    assert_eq!(h.succeeded, BATCH - 8, "{label}: successes");
    assert_eq!(h.failed.total(), 8, "{label}: failures itemized");
    assert_eq!(h.failed.internal, PANICKERS.len(), "{label}: contained panics");
    assert_eq!(h.failed.non_finite_state, NANNERS.len(), "{label}: NaN members");
    assert_eq!(h.failed.step_budget_exhausted, STALLERS.len(), "{label}: stalled members");
    assert_eq!(h.panics_contained, PANICKERS.len(), "{label}: panic containment count");
    assert_eq!(h.evicted_lanes, evicted, "{label}: lane evictions");
    for (i, o) in r.outcomes.iter().enumerate() {
        let expect_fault = PANICKERS.contains(&i) || NANNERS.contains(&i) || STALLERS.contains(&i);
        assert_eq!(o.solution.is_err(), expect_fault, "{label}: member {i} outcome class");
        if PANICKERS.contains(&i) {
            assert!(
                matches!(&o.solution, Err(SolverError::Internal { message }) if message.contains("chaos")),
                "{label}: member {i} must report the contained panic"
            );
        }
        if NANNERS.contains(&i) {
            assert!(
                matches!(&o.solution, Err(SolverError::NonFiniteState { .. })),
                "{label}: member {i} must report the non-finite state"
            );
        }
        if STALLERS.contains(&i) {
            assert!(
                matches!(&o.solution, Err(SolverError::StepBudgetExhausted { .. })),
                "{label}: member {i} must exhaust its step budget"
            );
        }
    }
}

/// Full bitwise equality, timeline included (valid when only the worker
/// thread count differs).
fn assert_bitwise(a: &BatchResult, b: &BatchResult, label: &str) {
    assert_eq!(a.health, b.health, "{label}: health");
    assert_eq!(a.timing.simulated_total_ns, b.timing.simulated_total_ns, "{label}: total");
    assert_eq!(
        a.timing.simulated_integration_ns, b.timing.simulated_integration_ns,
        "{label}: integration"
    );
    assert_eq!(a.timing.simulated_io_ns, b.timing.simulated_io_ns, "{label}: io");
    assert_outcomes_bitwise(a, b, label);
}

/// Per-member bitwise equality of trajectories and failures (valid across
/// lane widths too, where group packing legitimately shifts the timeline).
fn assert_outcomes_bitwise(a: &BatchResult, b: &BatchResult, label: &str) {
    assert_eq!(a.outcomes.len(), b.outcomes.len(), "{label}: batch size");
    for (i, (x, y)) in a.outcomes.iter().zip(&b.outcomes).enumerate() {
        assert_eq!(x.solver, y.solver, "{label}: member {i} solver");
        match (&x.solution, &y.solution) {
            (Ok(p), Ok(q)) => {
                assert_eq!(p.states, q.states, "{label}: member {i} trajectory");
                assert_eq!(p.stats, q.stats, "{label}: member {i} stats");
            }
            (Err(p), Err(q)) => {
                assert_eq!(p.to_string(), q.to_string(), "{label}: member {i} failure")
            }
            _ => panic!("{label}: member {i} outcome class changed"),
        }
    }
}

#[test]
fn lane_path_outcomes_and_health_are_identical_across_lane_widths() {
    let m = model();
    let job = chaos_job(&m);
    let engine = |width| FineCoarseEngine::new().with_lane_width(width).with_recovery(policy());
    let reference = engine(8).run(&job).unwrap();
    for width in [2, 4] {
        let r = engine(width).run(&job).unwrap();
        assert_chaos_health(&r, 8, &format!("lanes w{width}"));
        assert_outcomes_bitwise(&reference, &r, &format!("lanes w{width} vs w8"));
    }
}

#[test]
fn scalar_path_reports_the_same_fault_taxonomy() {
    // The fine engine is the scalar RKF45 baseline — a different method, so
    // trajectories legitimately differ bitwise; the fault taxonomy, the
    // success count, and full thread-count determinism must not.
    let m = model();
    let job = chaos_job(&m);
    let reference = FineEngine::new().with_recovery(policy()).run(&job).unwrap();
    assert_chaos_health(&reference, 0, "scalar");
    for threads in [1, 2, 4, 8] {
        let r = FineEngine::new().with_recovery(policy()).with_threads(threads).run(&job).unwrap();
        assert_bitwise(&reference, &r, &format!("scalar, {threads} threads"));
    }
}

#[test]
fn evicted_members_match_direct_scalar_solves() {
    // A faulted member evicted from its P3 lane group is solved by scalar
    // DOPRI5; an un-faulted lane member must match a direct scalar DOPRI5
    // solve of the same member (the lockstep guarantee, preserved under
    // eviction-induced repacking).
    let m = model();
    let job = chaos_job(&m);
    let r = FineCoarseEngine::new().with_lane_width(8).with_recovery(policy()).run(&job).unwrap();
    let opts = SolverOptions { step_budget: Some(4000), ..job.options().clone() };
    for i in [0, 11, 34, 63, 65, 179, 202, 254] {
        let (x0, k) = job.member(i);
        let sys = RbmOdeSystem::new(job.odes(), k.to_vec());
        let direct = Dopri5::new().solve(&sys, 0.0, x0, job.time_points(), &opts).unwrap();
        let lane = r.outcomes[i].solution.as_ref().unwrap();
        assert_eq!(lane.states, direct.states, "member {i}: lane vs direct scalar");
    }
}

/// A 16-member all-stiff batch whose three faulted members fire *inside*
/// RADAU5's simplified-Newton iterations (the fault triggers hit the
/// Newton stage sweeps' RHS evaluations, not explicit RK stages).
fn stiff_chaos_job(m: &ReactionBasedModel) -> SimulationJob<'_> {
    let mut b = SimulationJob::builder(m).time_points(vec![0.5, 1.0]);
    for i in 0..16 {
        b = b.parameterization(
            Parameterization::new()
                .with_rate_constants(vec![1e5 + 3e3 * i as f64, 2e5 + 2e3 * i as f64]),
        );
    }
    b.fault_plan(
        FaultPlan::new()
            .with_fault(3, FaultSpec::nan_at_time(0.2))
            .with_fault(7, FaultSpec::panic_at_time(0.3))
            .with_fault(12, FaultSpec::stall_at_time(0.1)),
    )
    .build()
    .unwrap()
}

#[test]
fn stiff_faults_fire_inside_radau_newton_and_are_evicted() {
    // Faulted stiff members are evicted from their P4 RADAU5 lane groups
    // and re-experience their faults under scalar RADAU5; every member —
    // faulted or clean — must bitwise-match a direct scalar RADAU5 solve
    // of the same member, and the whole run must be thread-deterministic.
    let m = model();
    let job = stiff_chaos_job(&m);
    let engine = || FineCoarseEngine::new().with_lane_width(8).with_recovery(policy());
    let r = engine().run(&job).unwrap();
    assert_eq!(r.outcomes.len(), 16);
    assert_eq!(r.health.evicted_lanes, 3, "all fault-planned stiff members are evicted");
    assert!(
        matches!(&r.outcomes[7].solution, Err(SolverError::Internal { message }) if message.contains("chaos")),
        "panic member must be contained: {:?}",
        r.outcomes[7].solution
    );
    assert!(
        matches!(&r.outcomes[12].solution, Err(SolverError::StepBudgetExhausted { .. })),
        "stall member must exhaust its budget: {:?}",
        r.outcomes[12].solution
    );
    let opts = SolverOptions { step_budget: Some(4000), ..job.options().clone() };
    for i in 0..16 {
        assert!(r.outcomes[i].stiff, "member {i} must classify stiff");
        let (x0, k) = job.member(i);
        let sys = RbmOdeSystem::new(job.odes(), k.to_vec());
        let direct = match job.fault_plan().faults_for(i) {
            Some(faults) if i != 7 => Radau5::new().solve(
                &ChaosSystem::new(sys, faults.to_vec()),
                0.0,
                x0,
                job.time_points(),
                &opts,
            ),
            Some(_) => continue, // the panic member has no direct solve to compare
            None => Radau5::new().solve(&sys, 0.0, x0, job.time_points(), &opts),
        };
        match (&r.outcomes[i].solution, direct) {
            (Ok(lane), Ok(scalar)) => {
                assert_eq!(lane.states, scalar.states, "member {i}: lane vs direct scalar");
                assert_eq!(lane.stats, scalar.stats, "member {i}: stats");
            }
            (Err(lane), Err(scalar)) => {
                assert_eq!(lane.to_string(), scalar.error.to_string(), "member {i}: failure");
            }
            (lane, direct) => {
                panic!("member {i}: outcome class differs: {lane:?} vs {direct:?}")
            }
        }
    }
    for threads in [2, 8] {
        let rt = engine().with_threads(threads).run(&job).unwrap();
        assert_bitwise(&r, &rt, &format!("stiff chaos, {threads} threads"));
    }
}

#[test]
fn stiff_chaos_retries_refault_identically() {
    // Recovery retries of a faulted stiff member get a fresh ChaosSystem
    // wrapper per attempt, so the re-fault is deterministic: two full runs
    // (and two different lane widths) produce identical failures and
    // identical trajectories everywhere.
    let m = model();
    let job = stiff_chaos_job(&m);
    let policy = RecoveryPolicy { max_relaxations: 2, ..policy() };
    let engine = |width| FineCoarseEngine::new().with_lane_width(width).with_recovery(policy);
    let a = engine(8).run(&job).unwrap();
    let b = engine(8).run(&job).unwrap();
    assert_bitwise(&a, &b, "stiff chaos retries, repeated runs");
    let c = engine(4).run(&job).unwrap();
    assert_outcomes_bitwise(&a, &c, "stiff chaos retries, w8 vs w4");
    assert!(
        a.health.retries_attempted > 0,
        "the relaxation rungs must engage on the faulted members: {:?}",
        a.health
    );
}

#[test]
fn fine_coarse_engine_contains_the_same_faults() {
    let m = model();
    let job = chaos_job(&m);
    let reference = FineCoarseEngine::new().with_recovery(policy()).run(&job).unwrap();
    assert_chaos_health(&reference, 8, "fine-coarse");
    for threads in [1, 2, 4, 8] {
        let r = FineCoarseEngine::new()
            .with_recovery(policy())
            .with_threads(threads)
            .run(&job)
            .unwrap();
        assert_bitwise(&reference, &r, &format!("fine-coarse, {threads} threads"));
    }
}

#[test]
fn relaxation_ladder_recovers_members_and_bills_the_retries() {
    // Members that fail at the default tolerances (40-step cap, LSODA
    // needs ~56 steps to t = 4) recover once the ladder relaxes them; the
    // retries show up in the health report and cost modeled time.
    let m = model();
    let job = SimulationJob::builder(&m)
        .time_points(vec![4.0])
        .replicate(4)
        .options(SolverOptions { max_steps: 40, ..SolverOptions::default() })
        .build()
        .unwrap();
    let strict = CpuEngine::new(CpuSolverKind::Lsoda).run(&job).unwrap();
    assert_eq!(strict.success_count(), 0, "members must fail at default tolerances");
    assert_eq!(strict.health.failed.max_steps_exceeded, 4);
    assert_eq!(strict.health.discarded_steps, 0, "a terminal failure is not a discarded retry");
    assert!(!strict.health.to_string().contains("discarded"), "{}", strict.health);

    let relaxed_policy = RecoveryPolicy { max_relaxations: 3, ..RecoveryPolicy::default() };
    let relaxed =
        CpuEngine::new(CpuSolverKind::Lsoda).with_recovery(relaxed_policy).run(&job).unwrap();
    assert_eq!(relaxed.success_count(), 4, "relaxed tolerances must recover every member");
    assert_eq!(relaxed.health.retries_succeeded, 4);
    assert!(relaxed.health.retries_attempted >= 4);
    assert!(relaxed.health.relaxations >= 4);
    assert!(
        relaxed.health.discarded_steps >= 4 * 40,
        "every member's capped first attempt was thrown away: {}",
        relaxed.health
    );
    assert!(
        relaxed.timing.simulated_integration_ns > strict.timing.simulated_integration_ns,
        "retries must be billed on the modeled timeline: {} vs {}",
        relaxed.timing.simulated_integration_ns,
        strict.timing.simulated_integration_ns
    );
}
