//! Crash-resume exactness for durable campaigns: a campaign interrupted at
//! an arbitrary point (shard boundary or mid-shard) and resumed must
//! reproduce the uninterrupted run's grid, counts, and billed simulated
//! time byte for byte — across worker-thread counts and lane widths — and
//! a torn journal tail must be detected, truncated, and re-executed.

use paraspace_analysis::campaign::{evaluate_points, CampaignError, Checkpoint, MetricShard};
use paraspace_analysis::fitness::FailedMemberPolicy;
use paraspace_analysis::pe::{estimate_with, EstimationProblem, Optimizer};
use paraspace_analysis::psa::{Axis, Psa2d, Psa2dResult};
use paraspace_analysis::pso::PsoConfig;
use paraspace_core::{
    CancelToken, CpuEngine, CpuSolverKind, FineCoarseEngine, FineEngine, SimulationJob, Simulator,
};
use paraspace_rbm::{Parameterization, Reaction, ReactionBasedModel};
use paraspace_solvers::SolverOptions;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paraspace_durab_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn model() -> ReactionBasedModel {
    let mut m = ReactionBasedModel::new();
    let a = m.add_species("A", 1.0);
    let b = m.add_species("B", 0.2);
    m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 0.8)).unwrap();
    m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 0.3)).unwrap();
    m
}

fn sweep() -> Psa2d {
    Psa2d::new(Axis::linear("u", 0.5, 2.0, 4), Axis::linear("v", 0.5, 1.5, 4)).batch_size(3)
}

fn run_sweep_durable(
    engine: &dyn Simulator,
    checkpoint: &Checkpoint,
) -> Result<Psa2dResult, CampaignError> {
    let m = model();
    sweep().checkpoint(checkpoint.clone()).run(
        &m,
        |u, v| Parameterization::new().with_rate_constants(vec![u * v, 0.3]),
        vec![0.5, 1.0],
        engine,
        |sol| sol.state_at(1)[0],
    )
}

fn assert_bitwise_equal(a: &Psa2dResult, b: &Psa2dResult, tag: &str) {
    assert_eq!(a.simulations, b.simulations, "{tag}: simulation counts");
    assert_eq!(
        a.simulated_ns.to_bits(),
        b.simulated_ns.to_bits(),
        "{tag}: billed simulated time must be bit-identical"
    );
    for (ra, rb) in a.values.iter().zip(&b.values) {
        for (x, y) in ra.iter().zip(rb) {
            assert_eq!(x.to_bits(), y.to_bits(), "{tag}: grid value must be bit-identical");
        }
    }
}

/// Where the interruption lands relative to a shard.
#[derive(Clone, Copy)]
enum Trip {
    /// Token trips after a shard's engine run, inside the metric closure:
    /// the shard still commits and the next boundary check interrupts.
    ShardBoundary,
    /// Token trips while the shard's batch is being assembled, before its
    /// engine run: the engine (sharing the token) returns
    /// `SimError::Cancelled` mid-shard and the partial shard is discarded.
    MidShard,
}

/// Interrupt a durable sweep, resume it, and compare with the
/// uninterrupted run — for one engine configuration and trip point.
fn kill_resume_case(
    engine_factory: &dyn Fn(CancelToken) -> Box<dyn Simulator>,
    trip: Trip,
    tag: &str,
) {
    // Uninterrupted baseline (its own checkpoint dir).
    let base_dir = temp_dir(&format!("{tag}_base"));
    let baseline =
        run_sweep_durable(engine_factory(CancelToken::new()).as_ref(), &Checkpoint::new(&base_dir))
            .unwrap();

    let dir = temp_dir(tag);
    let cancel = CancelToken::new();
    let cp = Checkpoint::new(&dir).with_cancel(cancel.clone());
    let m = model();
    let built = AtomicUsize::new(0);
    let measured = AtomicUsize::new(0);
    let err = sweep()
        .checkpoint(cp)
        .run(
            &m,
            |u, v| {
                if matches!(trip, Trip::MidShard) && built.fetch_add(1, Ordering::Relaxed) == 4 {
                    cancel.cancel();
                }
                Parameterization::new().with_rate_constants(vec![u * v, 0.3])
            },
            vec![0.5, 1.0],
            engine_factory(cancel.clone()).as_ref(),
            |sol| {
                if matches!(trip, Trip::ShardBoundary)
                    && measured.fetch_add(1, Ordering::Relaxed) == 4
                {
                    cancel.cancel();
                }
                sol.state_at(1)[0]
            },
        )
        .unwrap_err();
    match err {
        CampaignError::Interrupted { completed, shards, .. } => {
            assert!(completed >= 1 && completed < shards, "{tag}: partial progress expected");
        }
        other => panic!("{tag}: expected interruption, got {other}"),
    }

    // Resume with a fresh token in the same directory.
    let resumed =
        run_sweep_durable(engine_factory(CancelToken::new()).as_ref(), &Checkpoint::new(&dir))
            .unwrap();
    assert_bitwise_equal(&baseline, &resumed, tag);

    std::fs::remove_dir_all(&base_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_and_resume_is_exact_across_threads_and_widths() {
    for &threads in &[1usize, 8] {
        for (trip, trip_tag) in [(Trip::ShardBoundary, "edge"), (Trip::MidShard, "mid")] {
            let tag = format!("cpu_t{threads}_{trip_tag}");
            kill_resume_case(
                &move |c| {
                    Box::new(
                        CpuEngine::new(CpuSolverKind::Lsoda).with_threads(threads).with_cancel(c),
                    )
                },
                trip,
                &tag,
            );
        }
    }
    for &width in &[2usize, 8] {
        for (trip, trip_tag) in [(Trip::ShardBoundary, "edge"), (Trip::MidShard, "mid")] {
            let tag = format!("fine_coarse_w{width}_{trip_tag}");
            kill_resume_case(
                &move |c| Box::new(FineCoarseEngine::new().with_lane_width(width).with_cancel(c)),
                trip,
                &tag,
            );
        }
    }
}

#[test]
fn results_agree_across_host_thread_counts() {
    // The same campaign executed at different host thread counts produces
    // bit-identical grids — host parallelism is untracked in the manifest
    // world precisely because it cannot affect the output bytes.
    let dir1 = temp_dir("agree_t1");
    let dir8 = temp_dir("agree_t8");
    let r1 = run_sweep_durable(
        &FineCoarseEngine::new().with_lane_width(4).with_threads(1),
        &Checkpoint::new(&dir1),
    )
    .unwrap();
    let r8 = run_sweep_durable(
        &FineCoarseEngine::new().with_lane_width(4).with_threads(8),
        &Checkpoint::new(&dir8),
    )
    .unwrap();
    assert_bitwise_equal(&r1, &r8, "threads 1 vs 8");
    std::fs::remove_dir_all(&dir1).ok();
    std::fs::remove_dir_all(&dir8).ok();
}

#[test]
fn torn_journal_tail_is_truncated_and_reexecuted() {
    let dir = temp_dir("torn");
    let engine = CpuEngine::new(CpuSolverKind::Lsoda);
    let baseline = run_sweep_durable(&engine, &Checkpoint::new(&dir)).unwrap();

    // Tear the last record: chop 7 bytes off the log, as a crash mid-write
    // would.
    let log = dir.join("shards.log");
    let len = std::fs::metadata(&log).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&log).unwrap();
    f.set_len(len - 7).unwrap();
    drop(f);

    let resumed = run_sweep_durable(&engine, &Checkpoint::new(&dir)).unwrap();
    assert_bitwise_equal(&baseline, &resumed, "torn tail");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn world_change_refuses_checkpoint() {
    let dir = temp_dir("refuse");
    let engine = CpuEngine::new(CpuSolverKind::Lsoda);
    run_sweep_durable(&engine, &Checkpoint::new(&dir).with_world("engine", "lsoda-cpu")).unwrap();
    let err = run_sweep_durable(&engine, &Checkpoint::new(&dir).with_world("engine", "fine"))
        .unwrap_err();
    assert!(
        matches!(err, CampaignError::Journal(_)),
        "mismatched world must refuse resume, got {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_shard_is_journaled_not_fatal() {
    // Poison one grid point with a NaN rate constant: its whole shard is
    // journaled as an invalid outcome, the campaign completes, and the
    // affected cells take the failed-member value.
    let dir = temp_dir("invalid");
    let m = model();
    let sweep = Psa2d::new(Axis::linear("u", 0.5, 2.0, 2), Axis::linear("v", 0.5, 1.5, 2))
        .batch_size(2)
        .failed_members(FailedMemberPolicy::Penalize(-7.0));
    let poisoned = |u: f64, v: f64| {
        let k = if u > 1.9 && v > 1.4 { f64::NAN } else { u * v };
        Parameterization::new().with_rate_constants(vec![k, 0.3])
    };
    let engine = CpuEngine::new(CpuSolverKind::Lsoda);
    let result = sweep
        .clone()
        .checkpoint(Checkpoint::new(&dir))
        .run(&m, poisoned, vec![1.0], &engine, |sol| sol.state_at(0)[0])
        .unwrap();
    assert_eq!(result.report.executed, 2);

    // The contract does not depend on the journal: the plain sweep gives
    // the same grid, and so does a durable one interrupted after its first
    // (valid) shard and resumed into the poisoned one.
    let plain = sweep.run(&m, poisoned, vec![1.0], &engine, |sol| sol.state_at(0)[0]).unwrap();
    assert_bitwise_equal(&result, &plain, "invalid shard, plain vs durable");
    let kill_dir = temp_dir("invalid_kill");
    let cancel = CancelToken::new();
    let err = sweep
        .clone()
        .checkpoint(Checkpoint::new(&kill_dir).with_cancel(cancel.clone()))
        .run(&m, poisoned, vec![1.0], &engine, |sol| {
            cancel.cancel(); // shard 0 still commits; the next boundary interrupts
            sol.state_at(0)[0]
        })
        .unwrap_err();
    assert!(matches!(err, CampaignError::Interrupted { completed: 1, shards: 2, .. }), "{err}");
    let resumed = sweep
        .clone()
        .checkpoint(Checkpoint::new(&kill_dir))
        .run(&m, poisoned, vec![1.0], &engine, |sol| sol.state_at(0)[0])
        .unwrap();
    assert_eq!((resumed.report.recovered, resumed.report.executed), (1, 1));
    assert_bitwise_equal(&result, &resumed, "invalid shard, resumed vs uninterrupted");
    std::fs::remove_dir_all(&kill_dir).ok();
    // Shard 1 = grid points (1,0), (1,1) — the poisoned shard.
    assert_eq!(result.value(1, 0), -7.0);
    assert_eq!(result.value(1, 1), -7.0);
    assert!(result.value(0, 0).is_finite() && result.value(0, 0) != -7.0);

    // The journal preserves the validation message for post-mortems: scan
    // the raw log records (shard u64, len u32, payload, checksum u64) and
    // decode each payload as a MetricShard.
    let bytes = std::fs::read(dir.join("shards.log")).unwrap();
    let mut invalid_seen = false;
    let mut pos = 0usize;
    while pos + 12 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().unwrap()) as usize;
        let payload = &bytes[pos + 12..pos + 12 + len];
        if let Ok(shard) = MetricShard::decode(payload) {
            invalid_seen |= shard.invalid.is_some();
        }
        pos += 12 + len + 8;
    }
    assert!(invalid_seen, "validation error must be preserved in the journal");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sobol_evaluation_resumes_exactly() {
    let m = model();
    let points: Vec<Vec<f64>> = (0..10).map(|i| vec![0.5 + 0.1 * i as f64]).collect();
    let opts = SolverOptions::default();
    // The second member of every batch fails, so "successful member" and
    // "member" are different sets below.
    struct FailSecond(CpuEngine);
    impl Simulator for FailSecond {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn run(
            &self,
            job: &SimulationJob,
        ) -> Result<paraspace_core::BatchResult, paraspace_core::SimError> {
            let mut r = self.0.run(job)?;
            r.outcomes[1].solution =
                Err(paraspace_solvers::SolverError::StepSizeUnderflow { t: 0.0 });
            Ok(r)
        }
    }
    let engine = FailSecond(CpuEngine::new(CpuSolverKind::Lsoda));
    // Every run records the points `to_param` saw and the values `metric`
    // returned, in call order.
    let parameterized = std::cell::RefCell::new(Vec::new());
    let measured = std::cell::RefCell::new(Vec::new());
    let to_param = |p: &[f64]| {
        parameterized.borrow_mut().push(p[0]);
        Parameterization::new().with_rate_constants(vec![p[0], 0.3])
    };
    let metric = |sol: &paraspace_solvers::Solution| {
        measured.borrow_mut().push(sol.state_at(0)[0]);
        sol.state_at(0)[0]
    };
    let calls = || (parameterized.take(), measured.take());
    let eval = |cp: Option<&Checkpoint>| {
        evaluate_points(&m, &points, to_param, &[1.0], &opts, &engine, metric, 4, cp)
    };
    let base_dir = temp_dir("sobol_base");
    let baseline = eval(Some(&Checkpoint::new(&base_dir))).unwrap();
    assert_eq!(baseline.outputs.len(), 10);
    assert_eq!(baseline.simulations, 10);
    // Executing path: `to_param` once per point in point order, `metric`
    // once per successful member in member order.
    let all_points: Vec<f64> = points.iter().map(|p| p[0]).collect();
    let successes =
        |outputs: &[f64]| outputs.iter().copied().filter(|v| !v.is_nan()).collect::<Vec<_>>();
    assert_eq!(successes(&baseline.outputs).len(), 7, "members 1, 5 and 9 fail");
    assert_eq!(calls(), (all_points.clone(), successes(&baseline.outputs)));

    // The plain evaluation is the same campaign with no journal.
    let plain = eval(None).unwrap();
    assert_eq!(calls(), (all_points.clone(), successes(&plain.outputs)));
    assert_eq!(plain.simulations, baseline.simulations);
    assert_eq!(plain.simulated_ns.to_bits(), baseline.simulated_ns.to_bits());
    for (a, b) in baseline.outputs.iter().zip(&plain.outputs) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    // Interrupt after the first shard commits.
    let dir = temp_dir("sobol_kill");
    let cancel = CancelToken::new();
    let counted = AtomicUsize::new(0);
    let err = evaluate_points(
        &m,
        &points,
        |p| {
            if counted.fetch_add(1, Ordering::Relaxed) == 5 {
                cancel.cancel();
            }
            Parameterization::new().with_rate_constants(vec![p[0], 0.3])
        },
        &[1.0],
        &opts,
        &engine,
        |sol| sol.state_at(0)[0],
        4,
        Some(&Checkpoint::new(&dir).with_cancel(cancel.clone())),
    )
    .unwrap_err();
    assert!(matches!(err, CampaignError::Interrupted { .. }));

    let resumed = eval(Some(&Checkpoint::new(&dir))).unwrap();
    assert!(resumed.report.resumed);
    assert!(resumed.report.recovered >= 1);
    // A replayed shard calls neither closure: only the points past the
    // recovered shards were parameterized and measured.
    let replayed = resumed.report.recovered as usize * 4;
    assert_eq!(calls(), (all_points[replayed..].to_vec(), successes(&resumed.outputs[replayed..])));
    for (a, b) in baseline.outputs.iter().zip(&resumed.outputs) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(baseline.simulated_ns.to_bits(), resumed.simulated_ns.to_bits());
    std::fs::remove_dir_all(&base_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn estimation_resumes_mid_swarm_exactly() {
    let truth = {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[], 1.7)).unwrap();
        m
    };
    let times = vec![0.5, 1.0, 2.0];
    let engine = CpuEngine::new(CpuSolverKind::Lsoda);
    let target = {
        let job =
            SimulationJob::builder(&truth).time_points(times.clone()).replicate(1).build().unwrap();
        engine.run(&job).unwrap().outcomes.remove(0).solution.unwrap()
    };
    let problem = EstimationProblem {
        model: &truth,
        unknown: vec![0],
        log_bounds: vec![(-1.0, 1.0)],
        observed: vec![0],
        target,
        time_points: times,
        options: SolverOptions::default(),
        failed_members: FailedMemberPolicy::default(),
    };
    let cfg = Optimizer::Pso(PsoConfig { iterations: 10, swarm_size: Some(8), seed: 9 });

    // Reference: the same estimator without a checkpoint.
    let plain = estimate_with(&problem, &engine, &cfg, None).unwrap();

    // Uninterrupted durable run matches the plain run bitwise.
    let base_dir = temp_dir("pe_base");
    let durable =
        estimate_with(&problem, &engine, &cfg, Some(&Checkpoint::new(&base_dir))).unwrap();
    assert!(!durable.report.resumed);
    assert_eq!(durable.report.executed, 10);
    assert_eq!(plain.optimization, durable.optimization, "identical swarm trajectory");
    assert_eq!(plain.simulated_ns.to_bits(), durable.simulated_ns.to_bits());
    assert_eq!(plain.rate_constants, durable.rate_constants);

    // Interrupt mid-swarm (after generation 3 commits), then resume. The
    // tripping wrapper counts engine runs — one per PSO generation — and
    // trips the checkpoint token after the fourth.
    struct TripAfter<'e> {
        inner: &'e dyn Simulator,
        cancel: CancelToken,
        runs: AtomicUsize,
        after: usize,
    }
    impl Simulator for TripAfter<'_> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn run(
            &self,
            job: &SimulationJob,
        ) -> Result<paraspace_core::BatchResult, paraspace_core::SimError> {
            let r = self.inner.run(job)?;
            if self.runs.fetch_add(1, Ordering::Relaxed) + 1 == self.after {
                self.cancel.cancel();
            }
            Ok(r)
        }
    }
    let dir = temp_dir("pe_kill");
    let cancel = CancelToken::new();
    let tripping =
        TripAfter { inner: &engine, cancel: cancel.clone(), runs: AtomicUsize::new(0), after: 4 };
    let err = estimate_with(
        &problem,
        &tripping,
        &cfg,
        Some(&Checkpoint::new(&dir).with_cancel(cancel.clone())),
    )
    .unwrap_err();
    match err {
        CampaignError::Interrupted { completed, shards, .. } => {
            assert_eq!(completed, 4);
            assert_eq!(shards, 10);
        }
        other => panic!("expected Interrupted, got {other}"),
    }

    let resumed = estimate_with(&problem, &engine, &cfg, Some(&Checkpoint::new(&dir))).unwrap();
    assert!(resumed.report.resumed);
    assert_eq!(resumed.report.recovered, 4);
    assert_eq!(resumed.report.executed, 6);
    assert_eq!(plain.optimization, resumed.optimization, "resume must replay exactly");
    assert_eq!(plain.simulated_ns.to_bits(), resumed.simulated_ns.to_bits());
    assert_eq!(plain.rate_constants, resumed.rate_constants);

    std::fs::remove_dir_all(&base_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: a cancellation landing while shard members are climbing the
/// recovery retry ladder drains as `SimError::Cancelled` — the in-flight
/// shard journals nothing, partial ladder work is discarded — and the
/// resumed campaign is byte-identical to an uninterrupted ladder-heavy
/// baseline.
#[test]
fn cancel_mid_retry_ladder_drains_without_journaling() {
    use paraspace_core::RecoveryPolicy;

    // A step budget far below what the default tolerances need, so every
    // member fails its first attempt and climbs the relaxation rungs.
    let ladder = RecoveryPolicy { reroute: false, max_relaxations: 6, step_budget: Some(4) };

    // Positive control: with the rungs disabled the starved budget is
    // terminal, proving the ladder is genuinely engaged below.
    let starved = FineEngine::new().with_recovery(RecoveryPolicy { max_relaxations: 0, ..ladder });
    let control_dir = temp_dir("ladder_control");
    let starved_result = run_sweep_durable(&starved, &Checkpoint::new(&control_dir)).unwrap();
    assert!(
        starved_result.values.iter().flatten().all(|v| v.is_nan()),
        "a 4-step budget with no relaxation rungs must fail every member"
    );

    // Ladder-heavy uninterrupted baseline: every member needs the rungs
    // (see control above) and every member is rescued by them.
    let base_dir = temp_dir("ladder_base");
    let baseline =
        run_sweep_durable(&FineEngine::new().with_recovery(ladder), &Checkpoint::new(&base_dir))
            .unwrap();
    assert!(
        baseline.values.iter().flatten().all(|v| v.is_finite()),
        "the relaxation rungs must rescue every starved member"
    );

    // Interrupted run: the token trips while the second shard's batch is
    // being assembled, so its engine run — whose members would all retry —
    // drains as `SimError::Cancelled` before committing anything.
    let dir = temp_dir("ladder_kill");
    let cancel = CancelToken::new();
    let cp = Checkpoint::new(&dir).with_cancel(cancel.clone());
    let m = model();
    let built = AtomicUsize::new(0);
    let engine = FineEngine::new().with_recovery(ladder).with_cancel(cancel.clone());
    let err = sweep()
        .checkpoint(cp)
        .run(
            &m,
            |u, v| {
                if built.fetch_add(1, Ordering::Relaxed) == 4 {
                    cancel.cancel();
                }
                Parameterization::new().with_rate_constants(vec![u * v, 0.3])
            },
            vec![0.5, 1.0],
            &engine,
            |sol| sol.state_at(1)[0],
        )
        .unwrap_err();
    let (completed, shards) = match err {
        CampaignError::Interrupted { completed, shards, .. } => {
            assert!(completed >= 1 && completed < shards, "partial progress expected");
            (completed, shards)
        }
        other => panic!("expected Interrupted, got {other}"),
    };

    // Resume with a counting engine: exactly `shards - completed` shards
    // re-execute, so the cancelled mid-ladder shard journaled nothing.
    struct CountRuns<'e> {
        inner: &'e dyn Simulator,
        runs: AtomicUsize,
    }
    impl Simulator for CountRuns<'_> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn run(
            &self,
            job: &SimulationJob,
        ) -> Result<paraspace_core::BatchResult, paraspace_core::SimError> {
            self.runs.fetch_add(1, Ordering::Relaxed);
            self.inner.run(job)
        }
    }
    let fresh = FineEngine::new().with_recovery(ladder);
    let counting = CountRuns { inner: &fresh, runs: AtomicUsize::new(0) };
    let resumed = run_sweep_durable(&counting, &Checkpoint::new(&dir)).unwrap();
    assert_eq!(
        counting.runs.load(Ordering::Relaxed) as u64,
        shards - completed,
        "the interrupted run must not have journaled the drained shard"
    );
    assert_bitwise_equal(&baseline, &resumed, "ladder_kill");

    std::fs::remove_dir_all(&control_dir).ok();
    std::fs::remove_dir_all(&base_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}
