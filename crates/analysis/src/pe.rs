//! Parameter estimation: calibrating unknown kinetic constants against
//! target dynamics, one swarm generation per simulation batch.
//!
//! This is the published PE pipeline: FST-PSO proposes parameterizations
//! (one per particle), the batch engine simulates the whole generation at
//! once, and the relative-distance fitness scores each member against the
//! target time series. The experiment compares the same estimation run
//! priced on different engines.
//!
//! [`estimate_with`] is the one entry: it dispatches on the chosen
//! [`Optimizer`] (swarm, L-BFGS on exact gradients, or the hybrid of the
//! two) and takes an optional [`Checkpoint`] that journals every stage, so
//! a killed estimation resumes bitwise. [`estimate`] remains only as the
//! swarm-only call the `benchmark/` harness makes.

use crate::campaign::{f64s_digest, CampaignError, Checkpoint, ShardLog, ShardRecord, ShardReport};
use crate::fitness::{relative_distance, FailedMemberPolicy};
use crate::gradient::{fill_constants, pe_manifest_base, search, start_points, GradientConfig};
use crate::pso::{fst_pso, heuristic_swarm_size, Objective, PsoConfig, PsoResult};
use paraspace_core::{SimulationJob, Simulator};
use paraspace_journal::codec::{Dec, Enc};
use paraspace_journal::{fnv64, JournalError};
use paraspace_rbm::{Parameterization, ReactionBasedModel};
use paraspace_solvers::{Solution, SolverOptions};
use std::borrow::Cow;

/// A parameter-estimation problem: which rate constants are unknown, their
/// search bounds (log₁₀-space), and the target dynamics to match.
#[derive(Debug)]
pub struct EstimationProblem<'a> {
    /// The model with placeholder values at the unknown positions.
    pub model: &'a ReactionBasedModel,
    /// Indices of the unknown rate constants.
    pub unknown: Vec<usize>,
    /// log₁₀ search bounds per unknown.
    pub log_bounds: Vec<(f64, f64)>,
    /// Observed species (columns of the fitness comparison).
    pub observed: Vec<usize>,
    /// Target trajectory sampled at `time_points`.
    pub target: Solution,
    /// Sampling times.
    pub time_points: Vec<f64>,
    /// Solver options for candidate evaluation.
    pub options: SolverOptions,
    /// How failed candidate simulations are scored. [`FailedMemberPolicy::Skip`]
    /// (the default) assigns [`crate::fitness::FAILURE_FITNESS`].
    pub failed_members: FailedMemberPolicy,
}

/// Outcome of a calibration run.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimationResult {
    /// The optimizer's trace.
    pub optimization: PsoResult,
    /// The estimated rate constants (full vector with unknowns filled in).
    pub rate_constants: Vec<f64>,
    /// Total simulated engine time across all generations (ns).
    pub simulated_ns: f64,
    /// Total simulations executed.
    pub simulations: usize,
    /// What the journal recovered and executed (without a checkpoint,
    /// only `executed` counts; the hybrid sums its two stages).
    pub report: ShardReport,
}

/// One swarm generation's fitness and engine accounting — the swarm
/// campaign's shard. The accounting is captured per generation, never
/// differenced from running totals (a difference of accumulated sums would
/// not round-trip through the journal).
struct GenerationEval {
    fitness: Vec<f64>,
    simulated_ns: f64,
    simulations: usize,
}

impl ShardRecord for GenerationEval {
    fn to_payload(&self) -> Result<Cow<'_, [u8]>, JournalError> {
        let mut enc = Enc::new();
        enc.put_f64_slice(&self.fitness)
            .put_f64(self.simulated_ns)
            .put_u64(self.simulations as u64);
        Ok(Cow::Owned(enc.finish()))
    }

    fn from_payload(bytes: &[u8]) -> Result<Self, JournalError> {
        let mut dec = Dec::new(bytes);
        let fitness = dec.f64_vec()?;
        let simulated_ns = dec.f64()?;
        let simulations = dec.u64()? as usize;
        dec.expect_exhausted()?;
        Ok(GenerationEval { fitness, simulated_ns, simulations })
    }
}

/// The swarm's objective: each generation is one engine batch and one
/// [`ShardLog`] step, so a committed generation replays its journaled
/// fitness bits without touching the engine (PSO is deterministic given
/// the seed and the fitness history, so the swarm trajectory reproduces
/// exactly). [`Objective`] cannot fail, so the first error — interruption
/// included — parks in `stop`: the remaining generations score zeros
/// without running anything and the discarded search is replaced by that
/// error.
struct SwarmObjective<'p, 'a> {
    problem: &'p EstimationProblem<'a>,
    engine: &'p dyn Simulator,
    log: ShardLog,
    generation: u64,
    simulated_ns: f64,
    simulations: usize,
    stop: Option<CampaignError>,
}

/// Scores one generation: one engine batch, one member per particle.
fn run_generation(
    problem: &EstimationProblem<'_>,
    engine: &dyn Simulator,
    xs: &[Vec<f64>],
) -> Result<GenerationEval, CampaignError> {
    let batch: Vec<Parameterization> = xs
        .iter()
        .map(|x| Parameterization::new().with_rate_constants(fill_constants(problem, x)))
        .collect();
    let job = SimulationJob::builder(problem.model)
        .time_points(problem.time_points.clone())
        .parameterizations(batch)
        .options(problem.options.clone())
        .build()?;
    let result = engine.run(&job)?;
    Ok(GenerationEval {
        fitness: result
            .outcomes
            .iter()
            .map(|o| match &o.solution {
                Ok(sol) => relative_distance(sol, &problem.target, &problem.observed),
                Err(_) => problem.failed_members.fitness(),
            })
            .collect(),
        simulated_ns: result.timing.simulated_total_ns,
        simulations: job.batch_size(),
    })
}

impl Objective for SwarmObjective<'_, '_> {
    fn evaluate_batch(&mut self, xs: &[Vec<f64>]) -> Vec<f64> {
        let generation = self.generation;
        self.generation += 1;
        if self.stop.is_some() {
            return vec![0.0; xs.len()];
        }
        match self.log.step(generation, || run_generation(self.problem, self.engine, xs)) {
            Ok(eval) => {
                self.simulated_ns += eval.simulated_ns;
                self.simulations += eval.simulations;
                eval.fitness
            }
            Err(e) => {
                self.stop = Some(e);
                vec![0.0; xs.len()]
            }
        }
    }
}

/// Calibrates the unknown constants with FST-PSO on the given engine,
/// without a checkpoint: [`estimate_with`] with [`Optimizer::Pso`].
///
/// # Panics
///
/// Exists only for the `benchmark/` harness's traced PE replay; everything
/// else calls [`estimate_with`], which returns what this panics on — a
/// fatal engine failure, cancellation included — as a [`CampaignError`].
pub fn estimate(
    problem: &EstimationProblem<'_>,
    engine: &dyn Simulator,
    config: &PsoConfig,
) -> EstimationResult {
    estimate_with(problem, engine, &Optimizer::Pso(config.clone()), None).expect("engine failure")
}

/// The one FST-PSO calibration under every swarm stage: one shard per
/// generation (the per-member fitness bits plus the generation's billed
/// time), journaled when there is a checkpoint.
fn swarm(
    problem: &EstimationProblem<'_>,
    engine: &dyn Simulator,
    config: &PsoConfig,
    checkpoint: Option<&Checkpoint>,
) -> Result<EstimationResult, CampaignError> {
    assert_eq!(
        problem.unknown.len(),
        problem.log_bounds.len(),
        "one bound pair per unknown constant"
    );
    let log = ShardLog::open(checkpoint, || {
        let swarm =
            config.swarm_size.unwrap_or_else(|| heuristic_swarm_size(problem.log_bounds.len()));
        pe_manifest_base(problem, config.iterations as u64)
            .with_field("optimizer", "pso")
            .with_digest("optimizer_config", pso_config_digest(config))
            .with_field("seed", config.seed.to_string())
            .with_field("swarm", swarm.to_string())
    })?;
    let mut objective = SwarmObjective {
        problem,
        engine,
        log,
        generation: 0,
        simulated_ns: 0.0,
        simulations: 0,
        stop: None,
    };
    let optimization = fst_pso(&problem.log_bounds, config, &mut objective);
    if let Some(e) = objective.stop {
        return Err(e);
    }
    Ok(EstimationResult {
        rate_constants: fill_constants(problem, &optimization.best_position),
        simulated_ns: objective.simulated_ns,
        simulations: objective.simulations,
        optimization,
        report: objective.log.finish()?,
    })
}

/// A digest of a [`PsoConfig`] for campaign manifests: any change to the
/// swarm hyperparameters changes the shard bytes, so resume must refuse
/// it.
fn pso_config_digest(config: &PsoConfig) -> u64 {
    let mut enc = Enc::new();
    enc.put_u64(config.swarm_size.map_or(0, |s| s as u64 + 1))
        .put_u64(config.iterations as u64)
        .put_u64(config.seed)
        // The digest once hashed the three fixed coefficients of a classical
        // PSO that FST-PSO never read. It still hashes their values, so pe
        // checkpoints written before they were removed still resume.
        .put_f64(0.729)
        .put_f64(1.494_45)
        .put_f64(1.494_45);
    fnv64(&enc.finish())
}

/// Which search calibrates the unknowns — the dispatch behind the CLI's
/// `pe --optimizer pso|lbfgs|hybrid`.
#[derive(Debug, Clone, PartialEq)]
pub enum Optimizer {
    /// Derivative-free FST-PSO through a batch engine (the published
    /// pipeline): robust, expensive — one ODE solve per particle per
    /// generation.
    Pso(PsoConfig),
    /// Multi-start projected L-BFGS on exact forward-sensitivity
    /// gradients: one augmented solve per evaluation, converging in tens
    /// of solves on smooth basins.
    Lbfgs(GradientConfig),
    /// A short swarm to find the basin, then an L-BFGS polish from the
    /// swarm's best — global robustness at gradient cost.
    Hybrid {
        /// The (short) global stage.
        pso: PsoConfig,
        /// The polish stage, started from the swarm's best position.
        gradient: GradientConfig,
    },
}

impl Optimizer {
    /// Stable name for manifests, CLI flags, and result files.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Optimizer::Pso(_) => "pso",
            Optimizer::Lbfgs(_) => "lbfgs",
            Optimizer::Hybrid { .. } => "hybrid",
        }
    }
}

/// Calibrates the unknown constants with the chosen [`Optimizer`]. The
/// swarm stages run through `engine` (one simulation batch per
/// generation); gradient stages run the host sensitivity integrators
/// directly and count augmented solves in
/// [`EstimationResult::simulations`].
///
/// With a checkpoint every swarm generation and every gradient evaluation
/// is one journaled shard, so a killed estimation resumes mid-search and
/// reproduces the uninterrupted trajectory, estimate and billed time
/// bitwise. The manifest pins the model, bounds, target, seed, and the
/// optimizer with its full configuration, so `resume` refuses a
/// checkpoint taken under a different optimizer (same contract as the
/// executor's lane width and thread count); the hybrid journals its two
/// stages into `pso/` and `gradient/` subdirectories of the checkpoint,
/// each with its own manifest.
///
/// # Example
///
/// ```
/// use paraspace_analysis::fitness::FailedMemberPolicy;
/// use paraspace_analysis::pe::{estimate_with, EstimationProblem, Optimizer};
/// use paraspace_analysis::pso::PsoConfig;
/// use paraspace_core::{CpuEngine, CpuSolverKind, SimulationJob, Simulator};
/// use paraspace_rbm::{Reaction, ReactionBasedModel};
/// use paraspace_solvers::SolverOptions;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Ground truth: decay at rate 2. Start the search from a placeholder.
/// let mut truth = ReactionBasedModel::new();
/// let a = truth.add_species("A", 1.0);
/// truth.add_reaction(Reaction::mass_action(&[(a, 1)], &[], 2.0))?;
/// let times = vec![0.5, 1.0, 2.0];
/// let engine = CpuEngine::new(CpuSolverKind::Lsoda);
/// let target_job = SimulationJob::builder(&truth).time_points(times.clone()).replicate(1).build()?;
/// let target = engine.run(&target_job)?.outcomes.remove(0).solution?;
///
/// let problem = EstimationProblem {
///     model: &truth,
///     unknown: vec![0],
///     log_bounds: vec![(-2.0, 2.0)],
///     observed: vec![0],
///     target,
///     time_points: times,
///     options: SolverOptions::default(),
///     failed_members: FailedMemberPolicy::Skip,
/// };
/// let swarm = Optimizer::Pso(PsoConfig { iterations: 25, ..Default::default() });
/// let r = estimate_with(&problem, &engine, &swarm, None)?;
/// assert!((r.rate_constants[0] - 2.0).abs() < 0.2);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// [`CampaignError::Sim`] for a fatal engine or job failure (an
/// estimation's jobs come from its own bounds, so a validation failure is
/// a configuration error, not a shard outcome); without a checkpoint,
/// cancellation included. With one, [`CampaignError::Journal`] on
/// checkpoint I/O or world mismatch, and [`CampaignError::Interrupted`]
/// when the checkpoint's token trips at a generation or evaluation
/// boundary.
///
/// # Panics
///
/// Panics if `problem.unknown` and `problem.log_bounds` disagree in
/// length.
pub fn estimate_with(
    problem: &EstimationProblem<'_>,
    engine: &dyn Simulator,
    optimizer: &Optimizer,
    checkpoint: Option<&Checkpoint>,
) -> Result<EstimationResult, CampaignError> {
    match optimizer {
        Optimizer::Pso(config) => swarm(problem, engine, config, checkpoint),
        Optimizer::Lbfgs(config) => {
            search(problem, config, &start_points(&problem.log_bounds, config), checkpoint)
        }
        Optimizer::Hybrid { pso, gradient } => {
            let sub = |stage: &str| {
                checkpoint.map(|cp| {
                    Checkpoint::new(cp.dir().join(stage)).with_cancel(cp.cancel_token().clone())
                })
            };
            let global = swarm(problem, engine, pso, sub("pso").as_ref())?;
            // The polish starts from the swarm's best, so its checkpoint
            // is only valid against that exact stage-1 outcome — pin it.
            let start = global.optimization.best_position.clone();
            let polish_cp = sub("gradient")
                .map(|cp| cp.with_world("hybrid_start", format!("{:016x}", f64s_digest(&start))));
            let polish =
                search(problem, gradient, std::slice::from_ref(&start), polish_cp.as_ref())?;
            Ok(merge_stages(global, polish))
        }
    }
}

/// Folds a swarm stage and a gradient stage into one result. The stages
/// score with different metrics (relative L1 for the swarm, relative SSQ
/// for the gradient), so they are not compared directly: the polish
/// *starts from* the swarm's best and can only hold or improve it in its
/// own metric, so its optimum wins whenever it produced one (a
/// non-finite polish — every start failed to integrate — falls back to
/// the swarm's answer). Histories concatenate (mixed-metric, in stage
/// order) and the solve and journal accounting sums.
fn merge_stages(global: EstimationResult, polish: EstimationResult) -> EstimationResult {
    let (best_position, best_fitness, rate_constants) =
        if polish.optimization.best_fitness.is_finite() {
            (
                polish.optimization.best_position.clone(),
                polish.optimization.best_fitness,
                polish.rate_constants.clone(),
            )
        } else {
            (
                global.optimization.best_position.clone(),
                global.optimization.best_fitness,
                global.rate_constants.clone(),
            )
        };
    let mut history = global.optimization.history;
    history.extend(polish.optimization.history);
    EstimationResult {
        optimization: PsoResult {
            best_position,
            best_fitness,
            history,
            evaluations: global.optimization.evaluations + polish.optimization.evaluations,
        },
        rate_constants,
        simulated_ns: global.simulated_ns + polish.simulated_ns,
        simulations: global.simulations + polish.simulations,
        report: ShardReport {
            resumed: global.report.resumed || polish.report.resumed,
            recovered: global.report.recovered + polish.report.recovered,
            executed: global.report.executed + polish.report.executed,
            truncated_bytes: global.report.truncated_bytes + polish.report.truncated_bytes,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraspace_core::{CancelToken, CpuEngine, CpuSolverKind, FineCoarseEngine, SimError};
    use paraspace_rbm::Reaction;

    #[test]
    fn default_pso_config_digest_is_pinned() {
        // Stored in every durable swarm checkpoint's manifest: a change here
        // makes each of them refuse to resume.
        assert_eq!(
            format!("{:016x}", pso_config_digest(&PsoConfig::default())),
            "5068806f80ecaa3f"
        );
    }

    fn two_step_model(k1: f64, k2: f64) -> ReactionBasedModel {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let b = m.add_species("B", 0.0);
        let c = m.add_species("C", 0.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], k1)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(c, 1)], k2)).unwrap();
        m
    }

    fn target_for(model: &ReactionBasedModel, times: &[f64]) -> Solution {
        let engine = CpuEngine::new(CpuSolverKind::Lsoda);
        let job =
            SimulationJob::builder(model).time_points(times.to_vec()).replicate(1).build().unwrap();
        engine.run(&job).unwrap().outcomes.remove(0).solution.unwrap()
    }

    #[test]
    fn recovers_two_constants_from_dynamics() {
        let truth = two_step_model(1.5, 0.4);
        let times: Vec<f64> = (1..=8).map(|i| i as f64 * 0.5).collect();
        let target = target_for(&truth, &times);
        let problem = EstimationProblem {
            model: &truth,
            unknown: vec![0, 1],
            log_bounds: vec![(-2.0, 1.0), (-2.0, 1.0)],
            observed: vec![0, 1, 2],
            target,
            time_points: times,
            options: SolverOptions::default(),
            failed_members: FailedMemberPolicy::default(),
        };
        let engine = CpuEngine::new(CpuSolverKind::Lsoda);
        let cfg = PsoConfig { iterations: 40, seed: 3, ..Default::default() };
        let r = estimate_with(&problem, &engine, &Optimizer::Pso(cfg), None).unwrap();
        assert!(r.optimization.best_fitness < 0.02, "fitness {}", r.optimization.best_fitness);
        assert!((r.rate_constants[0] - 1.5).abs() < 0.15, "k1 = {}", r.rate_constants[0]);
        assert!((r.rate_constants[1] - 0.4).abs() < 0.08, "k2 = {}", r.rate_constants[1]);
        assert!(r.simulations > 0);
        assert!(r.simulated_ns > 0.0);
    }

    #[test]
    fn hybrid_reaches_gradient_accuracy_from_a_short_swarm() {
        let truth = two_step_model(1.5, 0.4);
        let times: Vec<f64> = (1..=8).map(|i| i as f64 * 0.5).collect();
        let target = target_for(&truth, &times);
        let problem = EstimationProblem {
            model: &truth,
            unknown: vec![0, 1],
            log_bounds: vec![(-2.0, 1.0), (-2.0, 1.0)],
            observed: vec![0, 1, 2],
            target,
            time_points: times,
            options: SolverOptions::default(),
            failed_members: FailedMemberPolicy::default(),
        };
        let engine = CpuEngine::new(CpuSolverKind::Lsoda);
        let optimizer = Optimizer::Hybrid {
            pso: PsoConfig { iterations: 5, swarm_size: Some(10), seed: 3 },
            gradient: crate::gradient::GradientConfig { starts: 1, ..Default::default() },
        };
        let r = estimate_with(&problem, &engine, &optimizer, None).unwrap();
        // The 5-generation swarm alone lands nowhere near 1e-3; the polish
        // must close the gap.
        assert!((r.rate_constants[0] - 1.5).abs() < 1e-3, "k1 = {}", r.rate_constants[0]);
        assert!((r.rate_constants[1] - 0.4).abs() < 1e-3, "k2 = {}", r.rate_constants[1]);
        assert_eq!(optimizer.name(), "hybrid");
    }

    #[test]
    fn durable_resume_refuses_a_different_optimizer() {
        let truth = two_step_model(1.0, 0.5);
        let times = vec![0.5, 1.0];
        let target = target_for(&truth, &times);
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
        let engine = CpuEngine::new(CpuSolverKind::Lsoda);
        let dir = std::env::temp_dir()
            .join(format!("paraspace_pe_optimizer_mismatch_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let pso_cfg = PsoConfig { iterations: 3, swarm_size: Some(6), ..Default::default() };
        let cp = Checkpoint::new(&dir);
        estimate_with(&problem, &engine, &Optimizer::Pso(pso_cfg), Some(&cp)).unwrap();

        // Same checkpoint, different optimizer: the manifest must refuse.
        let lbfgs = Optimizer::Lbfgs(crate::gradient::GradientConfig::default());
        let err = estimate_with(&problem, &engine, &lbfgs, Some(&cp)).unwrap_err();
        match err {
            CampaignError::Journal(paraspace_journal::JournalError::ManifestMismatch {
                field,
                ..
            }) => {
                assert!(
                    field == "optimizer" || field == "shards" || field == "optimizer_config",
                    "mismatch must be attributed to the optimizer pin, got {field}"
                );
            }
            other => panic!("expected ManifestMismatch, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gpu_engine_spends_less_simulated_time_per_generation() {
        let truth = two_step_model(1.0, 0.5);
        let times = vec![1.0, 2.0];
        let target = target_for(&truth, &times);
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
        let cfg = PsoConfig { iterations: 8, swarm_size: Some(32), seed: 1 };
        let swarm = Optimizer::Pso(cfg);
        let cpu =
            estimate_with(&problem, &CpuEngine::new(CpuSolverKind::Lsoda), &swarm, None).unwrap();
        let gpu = estimate_with(&problem, &FineCoarseEngine::new(), &swarm, None).unwrap();
        assert!(
            gpu.simulated_ns < cpu.simulated_ns,
            "batched swarm must be cheaper on the GPU engine: {} vs {}",
            gpu.simulated_ns,
            cpu.simulated_ns
        );
        // Same optimizer seed ⇒ same search trajectory quality ballpark.
        assert!(gpu.optimization.best_fitness < 0.1);
    }

    /// An engine that trips its own cancellation token as its third batch
    /// starts, so that batch drains as `SimError::Cancelled`.
    struct TripOnThirdRun {
        inner: CpuEngine,
        cancel: CancelToken,
        runs: std::sync::atomic::AtomicUsize,
    }

    impl Simulator for TripOnThirdRun {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn run(&self, job: &SimulationJob) -> Result<paraspace_core::BatchResult, SimError> {
            if self.runs.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 2 {
                self.cancel.cancel();
            }
            self.inner.run(job)
        }
    }

    #[test]
    fn a_cancelled_engine_is_an_error_not_a_panic_without_a_checkpoint() {
        let truth = two_step_model(1.0, 0.5);
        let times = vec![0.5, 1.0];
        let target = target_for(&truth, &times);
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
        let pso = PsoConfig { iterations: 5, swarm_size: Some(6), seed: 2 };
        let optimizers = [
            Optimizer::Pso(pso.clone()),
            Optimizer::Hybrid { pso, gradient: crate::gradient::GradientConfig::default() },
        ];
        for optimizer in &optimizers {
            let cancel = CancelToken::new();
            let engine = TripOnThirdRun {
                inner: CpuEngine::new(CpuSolverKind::Lsoda).with_cancel(cancel.clone()),
                cancel,
                runs: std::sync::atomic::AtomicUsize::new(0),
            };
            let err = estimate_with(&problem, &engine, optimizer, None).unwrap_err();
            assert!(
                matches!(err, CampaignError::Sim(SimError::Cancelled)),
                "{}: expected a cancelled engine, got {err}",
                optimizer.name()
            );
        }
    }
}
