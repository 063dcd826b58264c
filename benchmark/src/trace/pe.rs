//! Traced run of `pe_hybrid_metabolic`: the CLI's `pe` replayed through
//! the public functions it calls — read the model, simulate the target,
//! `pe::estimate` for the swarm stage (through an engine that records each
//! generation's batch), `gradient::polish_gradient` for the descent — at
//! `threads = 1`.

use super::probes::{self, time_ns, KernelSample};
use super::sweep::cli_spawn_s;
use super::Tracer;
use crate::sys::run_campaign;
use crate::workloads::pe::{PeHybridMetabolic, SEARCH_SEED, SWARM, UNKNOWN};
use crate::workloads::{clear_dir, cli_options, CAMPAIGN_DEADLINE, THREADS};
use paraspace_analysis::fitness::FailedMemberPolicy;
use paraspace_analysis::gradient::{polish_gradient, GradientConfig};
use paraspace_analysis::pe::{estimate, EstimationProblem};
use paraspace_analysis::pso::PsoConfig;
use paraspace_core::{
    auto_lane_width, BatchResult, CpuEngine, CpuSolverKind, RbmSensSystem, SimError, SimulationJob,
    Simulator,
};
use paraspace_rbm::{biosimware, perturbed_batch};
use paraspace_solvers::{Radau5Sens, StepStats};
use rand::SeedableRng;
use std::cell::RefCell;
use std::time::Instant;

/// The CLI's `--log-radius` default.
const LOG_RADIUS: f64 = 1.5;

/// The swarm stage's engine, with a span's worth of bookkeeping around
/// every batch it is handed — the layer boundary, seen from outside.
struct RecordingEngine {
    inner: CpuEngine,
    batches: RefCell<Vec<(f64, usize, StepStats)>>,
}

impl Simulator for RecordingEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, job: &SimulationJob) -> Result<BatchResult, SimError> {
        let start = Instant::now();
        let result = self.inner.run(job)?;
        self.batches.borrow_mut().push((
            start.elapsed().as_secs_f64(),
            job.batch_size(),
            result.aggregate_stats(),
        ));
        Ok(result)
    }
}

pub fn trace(w: &mut PeHybridMetabolic, t: &mut Tracer) -> Result<(), String> {
    // The plain campaign on one thread: what the replay must add up to.
    clear_dir(&w.out_dir)?;
    let mut cmd = w.command(1);
    let plain_1t = run_campaign(&mut cmd, CAMPAIGN_DEADLINE).map_err(|e| e.to_string())?;
    if !plain_1t.success {
        return Err("traced single-thread pe failed".into());
    }
    t.set("cli.files_out", 1.0);
    t.set(
        "cli.bytes_out",
        std::fs::metadata(w.out_dir.join("estimate.tsv")).map_or(0.0, |m| m.len() as f64),
    );

    // --- Staged replay, threads = 1 -----------------------------------
    let engine = RecordingEngine {
        inner: CpuEngine::new(CpuSolverKind::Lsoda).with_threads(1),
        batches: RefCell::new(Vec::new()),
    };
    let replay_start = Instant::now();
    let (model, times) = t.span("cli.read_model", |_| -> Result<_, String> {
        let model = biosimware::read_dir(&w.model_dir).map_err(|e| e.to_string())?;
        let times = biosimware::read_time_points(&w.model_dir).map_err(|e| e.to_string())?;
        Ok((model, times))
    })?;
    let truth = model.rate_constants();
    let target = t.span("analysis.target", |_| -> Result<_, String> {
        let job = SimulationJob::builder(&model)
            .time_points(times.clone())
            .replicate(1)
            .options(cli_options())
            .build()
            .map_err(|e| e.to_string())?;
        engine
            .inner
            .run(&job)
            .map_err(|e| e.to_string())?
            .outcomes
            .remove(0)
            .solution
            .map_err(|e| e.to_string())
    })?;
    let problem = EstimationProblem {
        model: &model,
        unknown: UNKNOWN.to_vec(),
        log_bounds: UNKNOWN
            .iter()
            .map(|&i| (truth[i].log10() - LOG_RADIUS, truth[i].log10() + LOG_RADIUS))
            .collect(),
        observed: w.observed_indices()?,
        target,
        time_points: times.clone(),
        options: cli_options(),
        failed_members: FailedMemberPolicy::default(),
    };
    let pso = PsoConfig {
        iterations: w.iterations,
        swarm_size: Some(SWARM),
        seed: SEARCH_SEED,
        ..PsoConfig::default()
    };
    // The CLI's `--starts` default; the hybrid's polish starts from the
    // swarm's best and ignores it.
    let gradient = GradientConfig {
        iterations: w.grad_iterations,
        starts: 3,
        seed: SEARCH_SEED,
        ..GradientConfig::default()
    };
    let global = t.span("analysis.pso", |_| estimate(&problem, &engine, &pso));
    let polish = t.span("analysis.gradient", |_| {
        polish_gradient(&problem, &gradient, &global.optimization.best_position)
    });
    t.span("cli.write_artifacts", |_| {
        let body: String = polish
            .rate_constants
            .iter()
            .enumerate()
            .map(|(i, v)| format!("{i}\t{v:e}\n"))
            .collect();
        std::fs::write(w.out_dir.join("estimate.replay.tsv"), body)
    })
    .map_err(|e| e.to_string())?;
    let replay_wall = replay_start.elapsed().as_secs_f64();

    // --- Counts from the public result structs ------------------------
    t.set("analysis.pso_solves", global.simulations as f64);
    t.set("analysis.grad_evals", polish.simulations as f64);
    let batches = engine.batches.into_inner();
    let mut swarm_stats = StepStats::default();
    let mut swarm_engine_s = 0.0;
    for (seconds, _, stats) in &batches {
        swarm_engine_s += seconds;
        swarm_stats.absorb(stats);
    }
    // The descent's integrations happen inside `polish_gradient`; the
    // counters below are the swarm stage's.
    probes::solver_counts(t, &swarm_stats);
    let odes = model.compile().map_err(|e| e.to_string())?;
    t.set("core.lane_width", auto_lane_width(&odes) as f64);
    t.set("core.engine_run_s", swarm_engine_s);
    t.set("cli.read_model_s", t.span_s("cli.read_model"));
    t.set("cli.write_artifacts_s", t.span_s("cli.write_artifacts"));

    // --- One forward-sensitivity solve, as the descent performs it ----
    let x0 = model.initial_state();
    let sens_system = RbmSensSystem::new(&odes, polish.rate_constants.clone(), UNKNOWN.to_vec());
    let start = Instant::now();
    let sens = Radau5Sens::new()
        .solve(&sens_system, 0.0, &x0, &times, &cli_options())
        .map_err(|f| format!("sensitivity probe failed: {}", f.error))?;
    let sens_eval_s = start.elapsed().as_secs_f64();
    t.set("solvers.sens_ns_per_step", sens_eval_s * 1e9 / sens.solution.stats.steps.max(1) as f64);

    // --- Kernel and fixed-cost probes ---------------------------------
    let samples: Vec<KernelSample> = sens
        .solution
        .states
        .iter()
        .map(|state| KernelSample { x: state.clone(), k: polish.rate_constants.clone() })
        .collect();
    probes::compile_s(t, &model);
    probes::rbm_kernels(t, &odes, &samples, auto_lane_width(&odes), Some(&UNKNOWN));
    probes::linalg_kernels(t, &odes, &samples[samples.len() / 2]);
    probes::vgpu_cost_launch(t, SWARM);
    probes::exec_dispatch(t, THREADS, SWARM);
    cli_spawn_s(t, w.ctx.cli)?;
    // One job per generation: a swarm-sized batch around the truth.
    let mut rng = rand::rngs::StdRng::seed_from_u64(w.ctx.seed);
    let swarm_batch = perturbed_batch(&model, SWARM, &mut rng);
    let build_swarm_job = || {
        SimulationJob::builder(&model)
            .time_points(times.clone())
            .parameterizations(swarm_batch.clone())
            .options(cli_options())
            .build()
            .expect("a swarm-sized job of the workload's model builds")
    };
    let job_build_s = time_ns(t.probe_budget, || {
        std::hint::black_box(build_swarm_job().batch_size());
    }) * 1e-9;
    t.set("core.job_build_s", job_build_s * batches.len() as f64);
    // The swarm evaluates the RHS through scalar LSODA.
    probes::kernel_estimates(t, &swarm_stats, &StepStats::default(), swarm_engine_s, false);

    // The optimizers' own time: each stage's span minus the integrations
    // (and job builds) it paid for.
    let sens_s_est = polish.simulations as f64 * sens_eval_s;
    let pso_self = t.span_s("analysis.pso") - swarm_engine_s - t.get("core.job_build_s");
    let gradient_self = t.span_s("analysis.gradient") - sens_s_est;
    t.set("analysis.optimizer_self_s", pso_self + gradient_self);

    // --- Scaling of one generation's batch ----------------------------
    if t.can_measure_scaling() {
        let job = build_swarm_job();
        let wall = |threads: usize| -> Result<f64, String> {
            let engine = CpuEngine::new(CpuSolverKind::Lsoda).with_threads(threads);
            let start = Instant::now();
            engine.run(&job).map_err(|e| e.to_string())?;
            Ok(start.elapsed().as_secs_f64())
        };
        let (one, two) = (wall(1)?, wall(2)?);
        t.set("exec.par_eff_2t", one / (2.0 * two));
    }

    // --- Attribution --------------------------------------------------
    t.attribute_metric("cli.spawn_s", "measured");
    t.attribute_metric("cli.read_model_s", "measured");
    t.attribute("analysis target simulation", t.span_s("analysis.target"), "measured");
    t.attribute("core.job_build_s (one per generation)", t.get("core.job_build_s"), "computed");
    t.attribute("swarm: rbm.rhs_s_est", t.get("rbm.rhs_s_est"), "computed");
    t.attribute("swarm: rbm.jac_s_est", t.get("rbm.jac_s_est"), "computed");
    t.attribute("swarm: linalg.lu_s_est", t.get("linalg.lu_s_est"), "computed");
    t.attribute("swarm: solvers.self_s_est", t.get("solvers.self_s_est"), "computed");
    t.attribute("descent: sensitivity solves (grad_evals × one solve)", sens_s_est, "computed");
    t.attribute_metric("analysis.optimizer_self_s", "measured");
    t.attribute_metric("cli.write_artifacts_s", "measured");
    t.close_attribution(plain_1t.wall_s, replay_wall);
    t.note(format!(
        "replay reached loss {:e} after {} + {} solves over {} swarm batches",
        polish.optimization.best_fitness,
        global.simulations,
        polish.simulations,
        batches.len()
    ));
    Ok(())
}
