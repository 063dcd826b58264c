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
/// strongly stiff member (P2 → RADAU5 in fine-coarse, RKF45 → BDF1 in
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
    // The published baseline at any batch size: RKF45, BDF1 once it fails.
    let reference = FineEngine::new().run(&job).unwrap();
    assert!(
        reference.outcomes.iter().all(|o| o.solver == "rkf45" || o.solver == "bdf1"),
        "{:?}",
        reference.outcomes.iter().map(|o| o.solver).collect::<Vec<_>>()
    );
    assert!(reference.outcomes.iter().any(|o| o.solver == "bdf1"), "the stiff member switches");
    for threads in [1, 2, 4] {
        let parallel = FineEngine::new().with_threads(threads).run(&job).unwrap();
        assert_identical(&reference, &parallel, &format!("fine, {threads} threads"));
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
            let r = FineCoarseEngine::new()
                .with_lane_width(width)
                .with_threads(threads)
                .run(&job)
                .unwrap();
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

/// A Brusselator (`∅ → X`, `X → Y`, `2X + Y → 3X`, `X → ∅`) beside a fast
/// reversible pair that makes every member triage-stiff: members below the
/// Hopf point `b = 2` settle in a few dozen Radau steps, members above it
/// oscillate and need several times as many.
fn stiff_brusselator() -> ReactionBasedModel {
    let mut m = ReactionBasedModel::new();
    let x = m.add_species("X", 1.0);
    let y = m.add_species("Y", 1.0);
    let f = m.add_species("F", 1.0);
    let g = m.add_species("G", 0.0);
    m.add_reaction(Reaction::mass_action(&[], &[(x, 1)], 1.0)).unwrap();
    m.add_reaction(Reaction::mass_action(&[(x, 1)], &[(y, 1)], 1.0)).unwrap();
    m.add_reaction(Reaction::mass_action(&[(x, 2), (y, 1)], &[(x, 3)], 1.0)).unwrap();
    m.add_reaction(Reaction::mass_action(&[(x, 1)], &[], 1.0)).unwrap();
    m.add_reaction(Reaction::mass_action(&[(f, 1)], &[(g, 1)], 1e4)).unwrap();
    m.add_reaction(Reaction::mass_action(&[(g, 1)], &[(f, 1)], 2e4)).unwrap();
    m
}

#[test]
fn fine_coarse_p4_lane_groups_are_independent_of_threads() {
    // A stiff crowd on the shared P4 queue whose members differ several-fold
    // in step count, so which group integrates whom — and when a lane is
    // refilled — really varies with the width, the worker count and
    // timing. Whatever they are, the fold must come out the same:
    // outcomes, `StepStats`, `BatchHealth` and the modeled timeline compare
    // `==` against the one-thread run at that width, and every lane member
    // equals its direct scalar RADAU5 solve bitwise.
    let m = stiff_brusselator();
    let mut b = SimulationJob::builder(&m).time_points(vec![5.0, 10.0, 20.0, 40.0]);
    for i in 0..40 {
        // b from 0.4 to 4.3, interleaved so the expensive members are
        // scattered through the member order.
        let hopf = 0.4 + 0.1 * ((i * 17) % 40) as f64;
        b = b.parameterization(
            Parameterization::new().with_rate_constants(vec![1.0, hopf, 1.0, 1.0, 1e4, 2e4]),
        );
    }
    let job = b.build().unwrap();
    let scalar = scalar_radau_reference(&job);
    let steps = || scalar.iter().map(|s| s.stats.steps);
    let (least, most) = (steps().min().unwrap(), steps().max().unwrap());
    assert!(most >= 4 * least, "step counts must diverge: {least}..{most}");

    for width in [2, 4, 8] {
        let reference = FineCoarseEngine::new().with_lane_width(width).run(&job).unwrap();
        for (i, expected) in scalar.iter().enumerate() {
            let label = format!("width {width}, member {i}");
            assert!(reference.outcomes[i].stiff, "{label}: must classify stiff");
            assert_eq!(reference.outcomes[i].solver, "radau5-lanes", "{label}");
            assert_eq!(reference.outcomes[i].solution.as_ref().unwrap(), expected, "{label}");
        }
        for threads in [1, 2, 4, 8] {
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
            let mut run = engine.run(&job).unwrap();
            // The planned member counts as a lane eviction wherever P3 runs
            // lanes; nothing else may differ from the scalar route.
            let at = format!("width {width:?}, {threads} threads");
            assert_eq!(run.health.evicted_lanes, usize::from(width != Some(1)), "{at}");
            run.health.evicted_lanes = 0;
            assert_identical(&reference, &run, &at);
        }
    }
}

#[test]
fn autotuned_lane_width_leaves_stiff_rows_unchanged() {
    // With no pinned width, the fine-coarse engine resolves P4's lane
    // width through the per-model autotuner. Whatever it picks, the stiff
    // rows must stay exactly what the direct scalar RADAU5 solve produces —
    // the autotuner is a throughput decision, never a numerics change.
    let m = reversible_model();
    let job = stiff_job(&m);
    let reference = scalar_radau_reference(&job);

    for threads in [1, 8] {
        let r = FineCoarseEngine::new().with_threads(threads).run(&job).unwrap();
        for (i, expected) in reference.iter().enumerate() {
            let label = format!("autotuned, {threads} threads, member {i}");
            assert!(r.outcomes[i].stiff, "{label}: must classify stiff");
            let sol = r.outcomes[i].solution.as_ref().unwrap();
            assert_eq!(sol.times, expected.times, "{label}: sample times");
            assert_eq!(sol.states, expected.states, "{label}: trajectory");
            assert_eq!(sol.stats, expected.stats, "{label}: step statistics");
        }
    }
}

#[test]
fn policy_step_budget_binds_lockstep_lanes_at_every_width() {
    // `RecoveryPolicy::step_budget` is filled into the options of every
    // first attempt, lockstep or scalar: three attempted steps are far too
    // few for any member of the stiff crowd, so all of them must end in
    // `StepBudgetExhausted` whatever the width — a lane that integrated
    // under the job's bare options would sail through instead.
    let m = reversible_model();
    let job = stiff_job(&m);
    let policy = RecoveryPolicy { step_budget: Some(3), ..RecoveryPolicy::default() };
    let exhausted = |r: &BatchResult, label: &str| {
        for (i, o) in r.outcomes.iter().enumerate() {
            assert!(
                matches!(o.solution, Err(SolverError::StepBudgetExhausted { .. })),
                "{label}, member {i}: {:?} via {}",
                o.solution.as_ref().map(|s| s.stats.steps),
                o.solver
            );
        }
        assert_eq!(r.health.failed.step_budget_exhausted, job.batch_size(), "{label}");
    };

    let narrow = FineCoarseEngine::new().with_lane_width(1).with_recovery(policy);
    let health = narrow.run(&job).unwrap().health;
    for width in [1, 2, 4, 8] {
        let engine = FineCoarseEngine::new().with_lane_width(width).with_recovery(policy);
        let reference = engine.clone().run(&job).unwrap();
        exhausted(&reference, &format!("fine-coarse, width {width}"));
        assert_eq!(reference.health, health, "fine-coarse, width {width}: health across widths");
        let parallel = engine.with_threads(4).run(&job).unwrap();
        assert_identical(&reference, &parallel, &format!("fine-coarse, width {width}, 4 threads"));
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
    // count.
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

    // The fine engine exercises the reroute + relaxation rungs: RKF45
    // needs ~33 steps to t = 4 at the default tolerances, so a 25-step cap
    // forces the ladder.
    let mut rng = StdRng::seed_from_u64(12);
    let fine_job = SimulationJob::builder(&m)
        .time_points(vec![4.0])
        .parameterizations(perturbed_batch(&m, 10, &mut rng))
        .options(SolverOptions { max_steps: 25, ..SolverOptions::default() })
        .build()
        .unwrap();
    let fine_ref = FineEngine::new().with_recovery(policy).run(&fine_job).unwrap();
    assert!(fine_ref.health.retries_attempted > 0, "fine engine must also retry");
    for threads in [1, 2, 4, 8] {
        let parallel =
            FineEngine::new().with_recovery(policy).with_threads(threads).run(&fine_job).unwrap();
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

/// One run's modelled clocks and routing, pinned to the bit: what a
/// refactor of the host pipeline (or of a billing fold) must reproduce.
#[derive(Debug, PartialEq)]
struct Pinned {
    run: &'static str,
    engine: &'static str,
    /// `simulated_total_ns`, `_integration_ns`, `_io_ns` as `to_bits()`.
    clocks: [u64; 3],
    /// `BatchHealth`'s `Display`.
    health: String,
    /// `groups`, `slot_steps`, `lane_steps`, `max_width`.
    lanes: Option<[u64; 4]>,
    /// Run-length list of each member's solver, `S`tiff / `r`erouted flags
    /// and recovery log (`a`ttempts, rela`x`ations, `d`iscarded steps,
    /// `R`ecovered, `P`anicked).
    members: String,
}

fn pin(run: &'static str, r: &BatchResult) -> Pinned {
    let mut runs: Vec<(usize, String)> = Vec::new();
    for o in &r.outcomes {
        let flag = |on: bool, c: &'static str| if on { c } else { "" };
        let signature = format!(
            "{}{}{} a{} x{} d{}{}{}{}",
            o.solver,
            flag(o.stiff, " S"),
            flag(o.rerouted, " r"),
            o.log.attempts,
            o.log.relaxations,
            o.log.discarded_steps,
            flag(o.log.rerouted, " lr"),
            flag(o.log.recovered, " R"),
            flag(o.log.panicked, " P"),
        );
        match runs.last_mut() {
            Some((count, last)) if *last == signature => *count += 1,
            _ => runs.push((1, signature)),
        }
    }
    let members: Vec<String> = runs.iter().map(|(count, s)| format!("{count}x {s}")).collect();
    Pinned {
        run,
        engine: r.engine,
        clocks: [
            r.timing.simulated_total_ns.to_bits(),
            r.timing.simulated_integration_ns.to_bits(),
            r.timing.simulated_io_ns.to_bits(),
        ],
        health: r.health.to_string(),
        lanes: r.lanes.map(|l| [l.groups, l.slot_steps, l.lane_steps, l.max_width as u64]),
        members: members.join(", "),
    }
}

/// The jobs × engines the pinned table covers: `mixed_job` and `stiff_job`
/// through all five engines, a faulted and retried crowd through the fine
/// and fine-coarse engines (evictions, reroutes, relaxation rungs), and
/// [`AutoEngine`] at a size that picks each `EngineKind`.
fn pinned_runs() -> Vec<Pinned> {
    let m = reversible_model();
    let (mixed, stiff) = (mixed_job(&m), stiff_job(&m));
    let mut rows = Vec::new();
    let mut row = |run: &'static str, engine: &dyn Simulator, job: &SimulationJob| {
        rows.push(pin(run, &engine.run(job).unwrap()));
    };

    row("mixed, fine w1", &FineEngine::new(), &mixed);
    row("mixed, fine-coarse auto", &FineCoarseEngine::new(), &mixed);
    row("mixed, fine-coarse w1", &FineCoarseEngine::new().with_lane_width(1), &mixed);
    row("mixed, coarse", &CoarseEngine::new(), &mixed);
    row("mixed, lsoda", &CpuEngine::new(CpuSolverKind::Lsoda), &mixed);
    row("mixed, vode", &CpuEngine::new(CpuSolverKind::Vode), &mixed);
    row("stiff, fine w1", &FineEngine::new(), &stiff);
    row("stiff, fine-coarse auto", &FineCoarseEngine::new(), &stiff);
    row("stiff, fine-coarse w1", &FineCoarseEngine::new().with_lane_width(1), &stiff);
    row("stiff, coarse", &CoarseEngine::new(), &stiff);
    row("stiff, lsoda", &CpuEngine::new(CpuSolverKind::Lsoda), &stiff);
    row("stiff, vode", &CpuEngine::new(CpuSolverKind::Vode), &stiff);

    // The mixed crowd again, hostile: a step cap every explicit attempt
    // hits, a NaN in a non-stiff member, a panic in the stiff one, and two
    // relaxation rungs on the ladder.
    let mut rng = StdRng::seed_from_u64(42);
    let mut params = perturbed_batch(&m, 11, &mut rng);
    params.push(Parameterization::new().with_rate_constants(vec![2e5, 2e5]));
    let faulted = SimulationJob::builder(&m)
        .time_points(vec![1.0, 4.0])
        .parameterizations(params)
        .options(SolverOptions { max_steps: 14, ..SolverOptions::default() })
        .fault_plan(
            FaultPlan::new()
                .with_fault(2, FaultSpec::nan_at_time(0.1))
                .with_fault(5, FaultSpec::panic_at_time(0.1))
                .with_fault(11, FaultSpec::nan_at_time(1e9)),
        )
        .build()
        .unwrap();
    let policy = RecoveryPolicy { max_relaxations: 2, ..RecoveryPolicy::default() };
    row("faulted, fine w1", &FineEngine::new().with_recovery(policy), &faulted);
    row("faulted, fine-coarse auto", &FineCoarseEngine::new().with_recovery(policy), &faulted);
    row(
        "faulted, fine-coarse w1",
        &FineCoarseEngine::new().with_lane_width(1).with_recovery(policy),
        &faulted,
    );
    // The same crowd on two workers; and with the reroute off, so a P3
    // failure relaxes on DOPRI5 where it would have been handed over.
    row(
        "faulted, fine-coarse auto, 2 threads",
        &FineCoarseEngine::new().with_recovery(policy).with_threads(2),
        &faulted,
    );
    let no_reroute = RecoveryPolicy { reroute: false, ..policy };
    row(
        "faulted, fine-coarse auto, no reroute",
        &FineCoarseEngine::new().with_recovery(no_reroute),
        &faulted,
    );
    row(
        "faulted, fine-coarse w1, no reroute",
        &FineCoarseEngine::new().with_lane_width(1).with_recovery(no_reroute),
        &faulted,
    );

    // One job per `EngineKind` the selector can answer.
    let single = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(1).build().unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let crowd = SimulationJob::builder(&m)
        .time_points(vec![0.5, 1.0])
        .parameterizations(perturbed_batch(&m, 300, &mut rng))
        .build()
        .unwrap();
    let mut chain = ReactionBasedModel::new();
    let ids: Vec<_> = (0..512).map(|i| chain.add_species(format!("S{i}"), 1.0)).collect();
    for pair in ids.windows(2) {
        chain.add_reaction(Reaction::mass_action(&[(pair[0], 1)], &[(pair[1], 1)], 1.0)).unwrap();
    }
    let wide = SimulationJob::builder(&chain).time_points(vec![1.0]).replicate(1).build().unwrap();
    row("auto → cpu", &AutoEngine::new(), &single);
    row("auto → coarse", &AutoEngine::new(), &mixed);
    row("auto → fine-coarse", &AutoEngine::new(), &crowd);
    row("auto → fine", &AutoEngine::new(), &wide);
    rows
}

#[test]
fn modelled_clocks_and_routing_are_pinned() {
    // Recorded at the commit before the engines were folded onto one host
    // pipeline; the faulted fine-coarse rows at two threads and without the
    // reroute, before fine-coarse continued its P3/P4 attempts through the
    // shared recovery ladder; the fine-coarse health and lanes columns, when
    // it began reporting its lane evictions and P4 lane groups. A row that moves means a timeline event changed value or
    // order, or a member changed route: re-record only for a change that
    // means to move the model (the failure prints the row as source).
    let row = |run, engine, clocks, health: &str, lanes, members: &str| Pinned {
        run,
        engine,
        clocks,
        health: health.into(),
        lanes,
        members: members.into(),
    };
    #[rustfmt::skip]
    let expected: Vec<Pinned> = vec![
        row("mixed, fine w1", "fine", [0x41c52a9978c2fa0c, 0x41c52a8fbe82fa0c, 0x40b3748000000000], "12/12 ok; retries 1/1 recovered; 1 rerouted; 10000 steps discarded", None, "11x rkf45 a1 x0 d0, 1x bdf1 r a2 x0 d10000 lr R"),
        row("mixed, fine-coarse auto", "fine-coarse", [0x414af5f23711dc47, 0x414adb6400000000, 0x40b30b8000000000], "12/12 ok", None, "11x dopri5 a1 x0 d0, 1x radau5 S a1 x0 d0"),
        row("mixed, fine-coarse w1", "fine-coarse", [0x414af5f23711dc47, 0x414adb6400000000, 0x40b30b8000000000], "12/12 ok", None, "11x dopri5 a1 x0 d0, 1x radau5 S a1 x0 d0"),
        row("mixed, coarse", "coarse", [0x41117f195c47711e, 0x411132d1dc47711e, 0x40b311e000000000], "12/12 ok", None, "12x lsoda a1 x0 d0"),
        row("mixed, lsoda", "lsoda-cpu", [0x411e2f4dd5d5d5d6, 0x411de855d5d5d5d6, 0x40b1be0000000000], "12/12 ok", None, "12x lsoda a1 x0 d0"),
        row("mixed, vode", "vode-cpu", [0x411e31bd8b8b8b8c, 0x411decc58b8b8b8c, 0x40b13e0000000000], "12/12 ok", None, "12x vode a1 x0 d0"),
        row("stiff, fine w1", "fine", [0x41f9ccc57334e23c, 0x41f9ccc4708ee23c, 0x40b02a6000000000], "10/10 ok; retries 10/10 recovered; 10 rerouted; 100000 steps discarded", None, "10x bdf1 r a2 x0 d10000 lr R"),
        row("stiff, fine-coarse auto", "fine-coarse", [0x413795257e82fa0b, 0x4137632bd05f417c, 0x40afd18000000000], "10/10 ok", Some([1, 1848, 1157, 8]), "10x radau5-lanes S a1 x0 d0"),
        row("stiff, fine-coarse w1", "fine-coarse", [0x4145e2dce2fa0be7, 0x4145c9e00be82fa0, 0x40afd18000000000], "10/10 ok", None, "10x radau5 S a1 x0 d0"),
        row("stiff, coarse", "coarse", [0x4123945194d65359, 0x4123745594d65359, 0x40affc0000000000], "10/10 ok", None, "10x lsoda a1 x0 d0"),
        row("stiff, lsoda", "lsoda-cpu", [0x411a6f0971717171, 0x411a338971717171, 0x40adc00000000000], "10/10 ok", None, "10x lsoda a1 x0 d0"),
        row("stiff, vode", "vode-cpu", [0x411a16d6a6a6a6a7, 0x4119dbe6a6a6a6a7, 0x40ad780000000000], "10/10 ok", None, "10x vode a1 x0 d0"),
        row("faulted, fine w1", "fine", [0x4178aa51afa0be83, 0x4178aa48afa0be83, 0x4062000000000000], "0/12 ok, 12 failed (10 max-steps, 1 non-finite, 1 internal); retries 0/32 recovered; 10 rerouted; 22 relaxations; 1 panics contained; 448 steps discarded", None, "2x bdf1 r a4 x2 d42 lr, 1x rkf45 a3 x2 d28, 2x bdf1 r a4 x2 d42 lr, 1x rkf45 a1 x0 d0 P, 6x bdf1 r a4 x2 d42 lr"),
        row("faulted, fine-coarse auto", "fine-coarse", [0x41781f268453594e, 0x41781c9f47711dc4, 0x40998b8000000000], "8/12 ok, 4 failed (2 max-steps, 1 non-finite, 1 internal); retries 8/31 recovered; 9 rerouted; 22 relaxations; 3 lane evictions; 1 panics contained; 429 steps discarded", Some([1, 400, 225, 8]), "1x radau5 r a4 x2 d42 lr R, 1x radau5 r a4 x2 d42 lr, 1x dopri5 a3 x2 d23, 2x radau5 r a4 x2 d42 lr R, 1x dopri5 a1 x0 d0 P, 5x radau5 r a4 x2 d42 lr R, 1x radau5 S a3 x2 d28"),
        row("faulted, fine-coarse w1", "fine-coarse", [0x4177cacce988ee24, 0x4177c845aca6b29b, 0x40998b8000000000], "8/12 ok, 4 failed (2 max-steps, 1 non-finite, 1 internal); retries 8/31 recovered; 9 rerouted; 22 relaxations; 1 panics contained; 429 steps discarded", None, "1x radau5 r a4 x2 d42 lr R, 1x radau5 r a4 x2 d42 lr, 1x dopri5 a3 x2 d23, 2x radau5 r a4 x2 d42 lr R, 1x dopri5 a1 x0 d0 P, 5x radau5 r a4 x2 d42 lr R, 1x radau5 S a3 x2 d28"),
        row("faulted, fine-coarse auto, 2 threads", "fine-coarse", [0x41781f268453594e, 0x41781c9f47711dc4, 0x40998b8000000000], "8/12 ok, 4 failed (2 max-steps, 1 non-finite, 1 internal); retries 8/31 recovered; 9 rerouted; 22 relaxations; 3 lane evictions; 1 panics contained; 429 steps discarded", Some([1, 400, 225, 8]), "1x radau5 r a4 x2 d42 lr R, 1x radau5 r a4 x2 d42 lr, 1x dopri5 a3 x2 d23, 2x radau5 r a4 x2 d42 lr R, 1x dopri5 a1 x0 d0 P, 5x radau5 r a4 x2 d42 lr R, 1x radau5 S a3 x2 d28"),
        row("faulted, fine-coarse auto, no reroute", "fine-coarse", [0x4164f8d622ca6b2a, 0x4164f3af7d05f418, 0x409c910000000000], "9/12 ok, 3 failed (1 max-steps, 1 non-finite, 1 internal); retries 9/13 recovered; 13 relaxations; 2 lane evictions; 1 panics contained; 177 steps discarded", None, "2x dopri5 a2 x1 d14 R, 1x dopri5 a3 x2 d23, 2x dopri5 a2 x1 d14 R, 1x dopri5 a1 x0 d0 P, 5x dopri5 a2 x1 d14 R, 1x radau5 S a3 x2 d28"),
        row("faulted, fine-coarse w1, no reroute", "fine-coarse", [0x4164f8d622ca6b2a, 0x4164f3af7d05f418, 0x409c910000000000], "9/12 ok, 3 failed (1 max-steps, 1 non-finite, 1 internal); retries 9/13 recovered; 13 relaxations; 1 panics contained; 177 steps discarded", None, "2x dopri5 a2 x1 d14 R, 1x dopri5 a3 x2 d23, 2x dopri5 a2 x1 d14 R, 1x dopri5 a1 x0 d0 P, 5x dopri5 a2 x1 d14 R, 1x radau5 S a3 x2 d28"),
        row("auto → cpu", "lsoda-cpu", [0x40e3d64444444444, 0x40e3cac444444444, 0x4057000000000000], "1/1 ok", None, "1x lsoda a1 x0 d0"),
        row("auto → coarse", "coarse", [0x41117f195c47711e, 0x411132d1dc47711e, 0x40b311e000000000], "12/12 ok", None, "12x lsoda a1 x0 d0"),
        row("auto → fine-coarse", "fine-coarse", [0x413980581c47711e, 0x413870b8ee23b88f, 0x40edb1c800000000], "300/300 ok", None, "300x dopri5 a1 x0 d0"),
        row("auto → fine", "fine", [0x411290e0594d6536, 0x41121353594d6536, 0x40bf634000000000], "1/1 ok", None, "1x rkf45 a1 x0 d0"),
    ];
    let actual = pinned_runs();
    assert_eq!(actual.len(), expected.len(), "a run was added or dropped");
    for (a, e) in actual.iter().zip(&expected) {
        assert_eq!(
            a, e,
            "as source: row({:?}, {:?}, [{:#x}, {:#x}, {:#x}], {:?}, {:?}, {:?}),",
            a.run, a.engine, a.clocks[0], a.clocks[1], a.clocks[2], a.health, a.lanes, a.members
        );
    }
}
