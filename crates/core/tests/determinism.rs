//! Bitwise-determinism guarantees of the host-parallel executor path.
//!
//! Every engine must produce the **identical** batch result at any worker
//! count: exact f64 trajectories, exact step statistics, exact simulated
//! timelines. The reference is the default (sequential) engine; 2- and
//! 4-worker runs are compared field by field with `==`, never with
//! tolerances — a single reordered f64 accumulation or a worker-order leak
//! into the timeline fails these tests.

use paraspace_core::{
    AutoEngine, BatchResult, CoarseEngine, CpuEngine, CpuSolverKind, FaultPlan, FaultSpec,
    FineCoarseEngine, FineEngine, RbmOdeSystem, RecoveryPolicy, SimulationJob, Simulator,
};
use paraspace_rbm::{perturbed_batch, Parameterization, Reaction, ReactionBasedModel};
use paraspace_solvers::{
    Dopri5, OdeSolver, Radau5, Solution, SolverError, SolverOptions, SolverScratch,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn reversible_model() -> ReactionBasedModel {
    let mut m = ReactionBasedModel::new();
    let a = m.add_species("A", 1.0);
    let b = m.add_species("B", 0.0);
    m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1.5)).unwrap();
    m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 0.5)).unwrap();
    m
}

/// A batch that exercises every path: perturbed non-stiff members, one
/// strongly stiff member (P2 → RADAU5 in fine-coarse, lockstep RADAU5 in
/// fine), and enough members that 4 workers all get work.
fn mixed_job(m: &ReactionBasedModel) -> SimulationJob<'_> {
    let mut rng = StdRng::seed_from_u64(42);
    let mut params = perturbed_batch(m, 11, &mut rng);
    params.push(Parameterization::new().with_rate_constants(vec![2e5, 2e5]));
    SimulationJob::builder(m)
        .time_points(vec![0.25, 0.5, 1.0, 2.0])
        .parameterizations(params)
        .build()
        .unwrap()
}

/// A stiff-dominated batch: every member crosses the stiffness threshold,
/// with enough parameter spread that lanes genuinely diverge in step size
/// and Jacobian-refresh cadence.
fn stiff_job(m: &ReactionBasedModel) -> SimulationJob<'_> {
    let mut b = SimulationJob::builder(m).time_points(vec![0.25, 0.5, 1.0, 2.0]);
    for i in 0..10 {
        b = b.parameterization(
            Parameterization::new()
                .with_rate_constants(vec![1e5 + 2.5e4 * i as f64, 2e5 + 1.5e4 * i as f64]),
        );
    }
    b.build().unwrap()
}

/// Every member's direct scalar RADAU5 solve: what lockstep Radau lanes
/// must reproduce bitwise.
fn scalar_radau_reference(job: &SimulationJob) -> Vec<Solution> {
    let mut scratch = SolverScratch::new();
    (0..job.batch_size())
        .map(|i| {
            let (x0, k) = job.member(i);
            let sys = RbmOdeSystem::new(job.odes(), k.to_vec());
            Radau5::new()
                .solve_pooled(&sys, 0.0, x0, job.time_points(), job.options(), &mut scratch)
                .unwrap()
        })
        .collect()
}

/// Asserts two batch results are identical in every observable except host
/// wall time (which measures this process, not the modeled run).
fn assert_identical(reference: &BatchResult, parallel: &BatchResult, label: &str) {
    assert_eq!(reference.engine, parallel.engine, "{label}: engine name");
    assert_eq!(reference.outcomes.len(), parallel.outcomes.len(), "{label}: batch size");
    for (i, (r, p)) in reference.outcomes.iter().zip(&parallel.outcomes).enumerate() {
        assert_eq!(r.stiff, p.stiff, "{label}: member {i} stiffness class");
        assert_eq!(r.rerouted, p.rerouted, "{label}: member {i} reroute flag");
        assert_eq!(r.solver, p.solver, "{label}: member {i} solver");
        assert_eq!(r.log, p.log, "{label}: member {i} recovery log");
        match (&r.solution, &p.solution) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.times, b.times, "{label}: member {i} sample times");
                assert_eq!(
                    a.states, b.states,
                    "{label}: member {i} trajectory must be bitwise identical"
                );
                assert_eq!(a.stats, b.stats, "{label}: member {i} step statistics");
            }
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "{label}: member {i} failure");
            }
            _ => panic!("{label}: member {i} succeeded in one run and failed in the other"),
        }
    }
    assert_eq!(
        reference.timing.simulated_total_ns, parallel.timing.simulated_total_ns,
        "{label}: simulated total"
    );
    assert_eq!(
        reference.timing.simulated_integration_ns, parallel.timing.simulated_integration_ns,
        "{label}: simulated integration time"
    );
    assert_eq!(
        reference.timing.simulated_io_ns, parallel.timing.simulated_io_ns,
        "{label}: simulated I/O time"
    );
    assert_eq!(reference.health, parallel.health, "{label}: batch health");
}

#[test]
fn fine_coarse_engine_is_bitwise_deterministic_across_thread_counts() {
    let m = reversible_model();
    let job = mixed_job(&m);
    let reference = FineCoarseEngine::new().run(&job).unwrap();
    assert!(reference.outcomes.iter().any(|o| o.stiff), "batch must exercise the stiff path");
    for threads in [1, 2, 4] {
        let parallel = FineCoarseEngine::new().with_threads(threads).run(&job).unwrap();
        assert_identical(&reference, &parallel, &format!("fine-coarse, {threads} threads"));
    }
}

#[test]
fn coarse_engine_is_bitwise_deterministic_across_thread_counts() {
    let m = reversible_model();
    let job = mixed_job(&m);
    let reference = CoarseEngine::new().run(&job).unwrap();
    for threads in [1, 2, 4] {
        let parallel = CoarseEngine::new().with_threads(threads).run(&job).unwrap();
        assert_identical(&reference, &parallel, &format!("coarse, {threads} threads"));
    }
}

#[test]
fn fine_engine_is_bitwise_deterministic_across_thread_counts() {
    let m = reversible_model();
    let job = mixed_job(&m);
    let reference = FineEngine::new().run(&job).unwrap();
    assert!(
        reference.outcomes.iter().any(|o| o.solver == "radau5-lanes"),
        "batch must exercise the stiff lockstep path"
    );
    for threads in [1, 2, 4] {
        let parallel = FineEngine::new().with_threads(threads).run(&job).unwrap();
        assert_identical(&reference, &parallel, &format!("fine, {threads} threads"));
    }
}

#[test]
fn fine_engine_lane_trajectories_are_bitwise_identical_across_lane_widths() {
    // The lockstep lane path must give every member the exact trajectory it
    // would get alone: lane width (and therefore group packing) must never
    // leak into the numerics. Width 1 is excluded — it selects the scalar
    // RKF45 baseline path, a different method by design.
    let m = reversible_model();
    let job = mixed_job(&m);
    let reference = FineEngine::new().with_lane_width(2).run(&job).unwrap();
    assert!(
        reference.outcomes.iter().any(|o| o.solver == "dopri5-lanes"),
        "batch must exercise the lockstep path"
    );
    assert!(
        reference.outcomes.iter().any(|o| o.solver == "radau5-lanes"),
        "mixed batch must also exercise the stiff lockstep path"
    );
    for width in [3, 4, 8] {
        let other = FineEngine::new().with_lane_width(width).run(&job).unwrap();
        for (i, (r, p)) in reference.outcomes.iter().zip(&other.outcomes).enumerate() {
            assert_eq!(r.solver, p.solver, "width {width}: member {i} solver");
            match (&r.solution, &p.solution) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.states, b.states, "width {width}: member {i} trajectory");
                    assert_eq!(a.stats, b.stats, "width {width}: member {i} stats");
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a.to_string(), b.to_string(), "width {width}: member {i}")
                }
                _ => panic!("width {width}: member {i} outcome class changed"),
            }
        }
    }
}

#[test]
fn stiff_batch_lockstep_radau_is_bitwise_identical_to_scalar_at_any_width() {
    // Every lane width × thread count must reproduce the direct scalar
    // RADAU5 solve of each member exactly — trajectories, sample times,
    // and every work counter. This is the stiff twin of the DOPRI5 lane
    // guarantee: lane packing, compaction order, and host parallelism must
    // never leak into the numerics.
    let m = reversible_model();
    let job = stiff_job(&m);
    let reference = scalar_radau_reference(&job);

    for width in [2, 4, 8] {
        for threads in [1, 8] {
            let r =
                FineEngine::new().with_lane_width(width).with_threads(threads).run(&job).unwrap();
            for (i, expected) in reference.iter().enumerate() {
                let label = format!("width {width}, {threads} threads, member {i}");
                assert!(r.outcomes[i].stiff, "{label}: must classify stiff");
                assert_eq!(r.outcomes[i].solver, "radau5-lanes", "{label}");
                let sol = r.outcomes[i].solution.as_ref().unwrap();
                assert_eq!(sol.times, expected.times, "{label}: sample times");
                assert_eq!(sol.states, expected.states, "{label}: trajectory");
                assert_eq!(sol.stats, expected.stats, "{label}: step statistics");
            }
        }
    }
}

#[test]
fn fine_coarse_p4_lane_groups_are_independent_of_threads() {
    // A stiff crowd large enough that P4 splits into at least three lane
    // groups at every width (72 members; a group queues at most 4·L ≤ 32),
    // so the groups really are concurrent executor items. Whatever the
    // worker count, the fold must come out the same: outcomes, `StepStats`,
    // `BatchHealth` and the modeled timeline compare `==` against the
    // one-thread run at that width, and every lane member equals its
    // direct scalar RADAU5 solve bitwise.
    let m = reversible_model();
    let mut b = SimulationJob::builder(&m).time_points(vec![0.25, 0.5, 1.0, 2.0]);
    for i in 0..72 {
        b = b.parameterization(
            Parameterization::new()
                .with_rate_constants(vec![1e5 + 7.5e3 * i as f64, 2e5 + 4.5e3 * i as f64]),
        );
    }
    let job = b.build().unwrap();
    let scalar = scalar_radau_reference(&job);

    for width in [2, 4, 8] {
        let reference = FineCoarseEngine::new().with_lane_width(width).run(&job).unwrap();
        for (i, expected) in scalar.iter().enumerate() {
            let label = format!("width {width}, member {i}");
            assert!(reference.outcomes[i].stiff, "{label}: must classify stiff");
            assert_eq!(reference.outcomes[i].solver, "radau5-lanes", "{label}");
            assert_eq!(reference.outcomes[i].solution.as_ref().unwrap(), expected, "{label}");
        }
        for threads in [1, 2, 8] {
            let parallel = FineCoarseEngine::new()
                .with_lane_width(width)
                .with_threads(threads)
                .run(&job)
                .unwrap();
            assert_identical(
                &reference,
                &parallel,
                &format!("fine-coarse P4 lanes, width {width}, {threads} threads"),
            );
        }
    }
}

#[test]
fn fine_coarse_p3_lanes_match_the_scalar_route_at_any_width_and_thread_count() {
    // P3 on lockstep lanes off one shared queue: which group integrates a
    // member, beside whom, depends on the width and on thread timing; the
    // batch result must not. The crowd: 18 gentle members; two that DOPRI5
    // hands over mid-run (|λ| = 400 is under P2's threshold, and 50 time
    // units at the stability bound are thousands of steps) — one of them
    // fault-planned with a fault that never fires, so it keeps the scalar
    // P3 path and P4 sees a single clean member, i.e. runs scalar RADAU5
    // at every width; and one whose 600-odd stability-bound steps outlast
    // the step budget, a terminal P3 failure.
    let m = reversible_model();
    let mut rng = StdRng::seed_from_u64(20);
    let mut params = perturbed_batch(&m, 18, &mut rng);
    let (handed_over, planned, out_of_budget) = (4, 11, 15);
    params.insert(handed_over, Parameterization::new().with_rate_constants(vec![300.0, 100.0]));
    params.insert(planned, Parameterization::new().with_rate_constants(vec![250.0, 150.0]));
    params.insert(out_of_budget, Parameterization::new().with_rate_constants(vec![30.0, 10.0]));
    let options = SolverOptions { step_budget: Some(400), ..SolverOptions::default() };
    let job = SimulationJob::builder(&m)
        .time_points(vec![1.0, 10.0, 50.0])
        .parameterizations(params)
        .options(options)
        .fault_plan(FaultPlan::new().with_fault(planned, FaultSpec::nan_at_time(1e9)))
        .build()
        .unwrap();

    let reference = FineCoarseEngine::new().with_lane_width(1).run(&job).unwrap();
    let mut scratch = SolverScratch::new();
    for (i, outcome) in reference.outcomes.iter().enumerate() {
        assert!(!outcome.stiff, "member {i}: P2 must leave the whole crowd to P3");
        let (x0, k) = job.member(i);
        let sys = RbmOdeSystem::new(job.odes(), k.to_vec());
        let scalar = Dopri5::new().solve_pooled(
            &sys,
            0.0,
            x0,
            job.time_points(),
            job.options(),
            &mut scratch,
        );
        if i == handed_over || i == planned {
            let error = scalar.unwrap_err().error;
            assert!(matches!(error, SolverError::StiffnessDetected { .. }), "member {i}: {error}");
            assert!(outcome.rerouted && outcome.solver == "radau5", "member {i}");
            assert!(outcome.solution.is_ok(), "member {i}");
        } else if i == out_of_budget {
            let error = scalar.unwrap_err().error;
            assert!(matches!(error, SolverError::StepBudgetExhausted { .. }), "member {i}");
            assert_eq!(outcome.solution.as_ref().unwrap_err(), &error, "member {i}");
            assert!(!outcome.rerouted && outcome.solver == "dopri5", "member {i}");
        } else {
            assert_eq!(outcome.solution.as_ref().unwrap(), &scalar.unwrap(), "member {i}");
            assert_eq!(outcome.solver, "dopri5", "member {i}");
        }
    }

    for threads in [1, 2, 4] {
        for width in [Some(1), Some(2), Some(4), Some(8), None] {
            let mut engine = FineCoarseEngine::new().with_threads(threads);
            if let Some(width) = width {
                engine = engine.with_lane_width(width);
            }
            let run = engine.run(&job).unwrap();
            assert_identical(&reference, &run, &format!("width {width:?}, {threads} threads"));
        }
    }
}

#[test]
fn autotuned_lane_width_leaves_stiff_rows_unchanged() {
    // With no pinned width, both lockstep engines resolve the lane width
    // through the per-model autotuner. Whatever it picks, the stiff rows
    // must stay exactly what the direct scalar RADAU5 solve produces —
    // the autotuner is a throughput decision, never a numerics change.
    let m = reversible_model();
    let job = stiff_job(&m);
    let reference = scalar_radau_reference(&job);

    for threads in [1, 8] {
        let fine = FineEngine::new().with_threads(threads).run(&job).unwrap();
        let fine_coarse = FineCoarseEngine::new().with_threads(threads).run(&job).unwrap();
        for (i, expected) in reference.iter().enumerate() {
            for (engine, r) in [("fine", &fine), ("fine-coarse", &fine_coarse)] {
                let label = format!("{engine} autotuned, {threads} threads, member {i}");
                assert!(r.outcomes[i].stiff, "{label}: must classify stiff");
                let sol = r.outcomes[i].solution.as_ref().unwrap();
                assert_eq!(sol.times, expected.times, "{label}: sample times");
                assert_eq!(sol.states, expected.states, "{label}: trajectory");
                assert_eq!(sol.stats, expected.stats, "{label}: step statistics");
            }
        }
    }
}

#[test]
fn cpu_engines_are_bitwise_deterministic_across_thread_counts() {
    let m = reversible_model();
    let job = mixed_job(&m);
    for kind in [CpuSolverKind::Lsoda, CpuSolverKind::Vode] {
        let reference = CpuEngine::new(kind).run(&job).unwrap();
        for threads in [1, 2, 4] {
            let parallel = CpuEngine::new(kind).with_threads(threads).run(&job).unwrap();
            assert_identical(&reference, &parallel, &format!("cpu {kind:?}, {threads} threads"));
        }
    }
}

#[test]
fn auto_engine_forwards_threads_deterministically() {
    let m = reversible_model();
    // Large enough to dispatch to a GPU engine.
    let mut rng = StdRng::seed_from_u64(7);
    let job = SimulationJob::builder(&m)
        .time_points(vec![0.5, 1.0])
        .parameterizations(perturbed_batch(&m, 300, &mut rng))
        .build()
        .unwrap();
    let reference = AutoEngine::new().run(&job).unwrap();
    let parallel = AutoEngine::new().with_threads(4).run(&job).unwrap();
    assert_identical(&reference, &parallel, "auto, 4 threads");
}

#[test]
fn batches_with_failed_and_retried_members_stay_deterministic() {
    // A step cap tight enough that members fail at the default tolerances
    // and climb the relaxation ladder. The retry sequence is part of the
    // batch result, so it must also be bitwise identical at any thread
    // count (and, for the fine engine, any lane width).
    let m = reversible_model();
    let mut rng = StdRng::seed_from_u64(11);
    let job = SimulationJob::builder(&m)
        .time_points(vec![4.0])
        .parameterizations(perturbed_batch(&m, 10, &mut rng))
        .options(SolverOptions { max_steps: 40, ..SolverOptions::default() })
        .build()
        .unwrap();
    let policy = RecoveryPolicy { max_relaxations: 3, ..RecoveryPolicy::default() };

    let reference = CpuEngine::new(CpuSolverKind::Lsoda).with_recovery(policy).run(&job).unwrap();
    assert!(
        reference.health.retries_attempted > 0,
        "the step cap must force at least one retry: {:?}",
        reference.health
    );
    for threads in [1, 2, 4, 8] {
        let parallel = CpuEngine::new(CpuSolverKind::Lsoda)
            .with_recovery(policy)
            .with_threads(threads)
            .run(&job)
            .unwrap();
        assert_identical(&reference, &parallel, &format!("cpu retries, {threads} threads"));
    }

    // The scalar fine path exercises the reroute + relaxation rungs: RKF45
    // needs ~33 steps to t = 4 at the default tolerances, so a 25-step cap
    // forces the ladder (the lockstep DOPRI5 finishes under 40, hence the
    // tighter cap and the pinned width).
    let mut rng = StdRng::seed_from_u64(12);
    let fine_job = SimulationJob::builder(&m)
        .time_points(vec![4.0])
        .parameterizations(perturbed_batch(&m, 10, &mut rng))
        .options(SolverOptions { max_steps: 25, ..SolverOptions::default() })
        .build()
        .unwrap();
    let fine_ref =
        FineEngine::new().with_lane_width(1).with_recovery(policy).run(&fine_job).unwrap();
    assert!(fine_ref.health.retries_attempted > 0, "fine engine must also retry");
    for threads in [1, 2, 4, 8] {
        let parallel = FineEngine::new()
            .with_lane_width(1)
            .with_recovery(policy)
            .with_threads(threads)
            .run(&fine_job)
            .unwrap();
        assert_identical(&fine_ref, &parallel, &format!("fine retries, {threads} threads"));
    }
}

#[test]
fn repeated_parallel_runs_are_self_consistent() {
    // Dynamic self-scheduling means different claim orders run to run; the
    // observable result must still never vary.
    let m = reversible_model();
    let job = mixed_job(&m);
    let engine = FineCoarseEngine::new().with_threads(4);
    let first = engine.run(&job).unwrap();
    for _ in 0..3 {
        let again = engine.run(&job).unwrap();
        assert_identical(&first, &again, "fine-coarse, repeated 4-thread runs");
    }
}
