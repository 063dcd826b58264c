//! Gradient-based parameter estimation on exact forward sensitivities.
//!
//! The swarm pipeline in [`crate::pe`] treats the simulator as a black
//! box: every fitness query costs one ODE solve and carries no slope
//! information, so a calibration campaign spends thousands of solves
//! groping toward the optimum. The forward sensitivity machinery
//! ([`Dopri5Sens`]/[`Radau5Sens`] over [`RbmSensSystem`]) changes the
//! economics: **one augmented solve yields the loss *and* its exact
//! gradient** with respect to every unknown constant, so a quasi-Newton
//! iteration converges in tens of solves where the swarm needs thousands.
//!
//! The objective is the smooth relative sum-of-squares
//!
//! ```text
//! F(k) = (1/N) Σ_t Σ_{s ∈ observed} ((x_s(t; k) − target_s(t)) / (|target_s(t)| + ε))²
//! ```
//!
//! (the L2 companion of [`crate::fitness::relative_distance`] — same
//! normalization, differentiable at the optimum), and the search runs in
//! the same log₁₀ parameterization as the swarm, with the chain rule
//! `∂F/∂(log₁₀ k) = ln 10 · k · ∂F/∂k` applied to the exact gradient.
//!
//! Two entry points:
//!
//! * [`estimate_gradient`] — multi-start projected L-BFGS, the pure
//!   gradient path. Given a checkpoint, every (loss, gradient) evaluation
//!   is one committed shard of the campaign write-ahead journal, so a
//!   killed run replays them without touching a solver and reproduces the
//!   uninterrupted trajectory bitwise;
//! * [`polish_gradient`] — one descent from a given start, without a
//!   checkpoint (the hybrid optimizer's second stage runs the same search
//!   through [`crate::pe::estimate_with`]).

use crate::campaign::{
    f64s_digest, model_digest, options_digest, CampaignError, Checkpoint, ShardLog, ShardRecord,
};
use crate::pe::{EstimationProblem, EstimationResult};
use crate::pso::PsoResult;
use paraspace_core::{RbmSensSystem, STIFFNESS_THRESHOLD};
use paraspace_journal::codec::{Dec, Enc};
use paraspace_journal::{fnv64, CampaignManifest, JournalError};
use paraspace_linalg::{dominant_eigenvalue_estimate_on, Matrix};
use paraspace_rbm::CompiledOdes;
use paraspace_solvers::{Dopri5Sens, Radau5Sens, SensSolution};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;

const LN_10: f64 = std::f64::consts::LN_10;

/// L-BFGS memory (curvature pairs kept).
const MEMORY: usize = 10;
/// Armijo sufficient-decrease constant.
const C1: f64 = 1e-4;
/// Backtracking halvings before a line search gives up.
const MAX_BACKTRACKS: usize = 25;

/// Configuration of the projected L-BFGS search: the budget, the stopping
/// tolerance and the starts. The search's own constants — 10 curvature
/// pairs of memory, Armijo constant 1e-4, 25 backtracking halvings — are
/// fixed.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientConfig {
    /// Maximum quasi-Newton iterations per start.
    pub iterations: usize,
    /// Convergence: infinity-norm of the *projected* gradient (components
    /// pushing into an active bound are zeroed) below this stops a start.
    pub grad_tol: f64,
    /// Independent starts: the first is the box midpoint, the rest are
    /// seeded uniform samples — cheap insurance against local minima.
    pub starts: usize,
    /// RNG seed for the sampled starts.
    pub seed: u64,
}

impl Default for GradientConfig {
    fn default() -> Self {
        GradientConfig { iterations: 60, grad_tol: 1e-6, starts: 3, seed: 42 }
    }
}

/// A digest of a [`GradientConfig`] for campaign manifests: any change to
/// the search hyperparameters changes the evaluation sequence, so resume
/// must refuse it.
fn gradient_config_digest(config: &GradientConfig) -> u64 {
    let mut enc = Enc::new();
    // The memory, Armijo constant and backtrack cap were settings once and
    // keep their places, so pe checkpoints written before they became
    // constants still resume.
    enc.put_u64(config.iterations as u64)
        .put_u64(MEMORY as u64)
        .put_f64(config.grad_tol)
        .put_f64(C1)
        .put_u64(MAX_BACKTRACKS as u64)
        .put_u64(config.starts as u64)
        .put_u64(config.seed)
        // The digest once hashed the name of a sensitivity-integrator
        // setting that every caller left at "auto". It still does, so pe
        // checkpoints written before the setting was removed still resume.
        .put_str("auto");
    fnv64(&enc.finish())
}

/// The loss and exact log-space gradient of one candidate, plus how the
/// evaluation was routed.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientEval {
    /// Relative-SSQ loss.
    pub loss: f64,
    /// `∂F/∂(log₁₀ k_j)` per unknown, via the chain rule on the exact
    /// forward sensitivities.
    pub gradient: Vec<f64>,
    /// Whether the candidate was integrated by the stiff path.
    pub stiff: bool,
}

/// The exact-gradient objective: owns the compiled ODEs and prices every
/// evaluation as **one** augmented sensitivity solve.
pub struct GradientObjective<'p, 'a> {
    problem: &'p EstimationProblem<'a>,
    odes: CompiledOdes,
    x0: Vec<f64>,
    jac: Matrix,
    /// Augmented ODE solves performed (one per [`evaluate`] call that
    /// reached an integrator).
    ///
    /// [`evaluate`]: GradientObjective::evaluate
    pub ode_solves: usize,
}

impl<'p, 'a> GradientObjective<'p, 'a> {
    /// Compiles the problem's model for sensitivity evaluation.
    ///
    /// # Panics
    ///
    /// Panics if the model fails to compile or the problem's `unknown` and
    /// `log_bounds` disagree in length (a configuration bug, matching
    /// [`crate::pe::estimate_with`]).
    pub fn new(problem: &'p EstimationProblem<'a>) -> Self {
        assert_eq!(
            problem.unknown.len(),
            problem.log_bounds.len(),
            "one bound pair per unknown constant"
        );
        let odes = problem.model.compile().expect("model must compile");
        let n = odes.n_species();
        GradientObjective {
            x0: problem.model.initial_state(),
            jac: Matrix::zeros(n, n),
            problem,
            odes,
            ode_solves: 0,
        }
    }

    /// Whether the candidate `k` goes to the stiff path: the engine
    /// pipeline's P2 triage, the dominant Jacobian eigenvalue at the initial
    /// state against [`STIFFNESS_THRESHOLD`].
    fn route(&mut self, k: &[f64]) -> bool {
        self.odes.jacobian_with(&self.x0, k, &mut self.jac);
        dominant_eigenvalue_estimate_on(&self.jac, self.odes.jacobian_sparsity())
            >= STIFFNESS_THRESHOLD
    }

    /// Evaluates the loss and its exact log-space gradient at `log_values`
    /// with one augmented solve. `None` means the candidate's integration
    /// failed (diverged, budget exhausted) — the line search treats it as
    /// an infinite loss and backtracks.
    pub fn evaluate(&mut self, log_values: &[f64]) -> Option<GradientEval> {
        let k = fill_constants(self.problem, log_values);
        let stiff = self.route(&k);
        let sys = RbmSensSystem::new(&self.odes, k.clone(), self.problem.unknown.clone());
        let times = &self.problem.time_points;
        let opts = &self.problem.options;
        self.ode_solves += 1;
        let sol: SensSolution = if stiff {
            Radau5Sens::new().solve(&sys, 0.0, &self.x0, times, opts).ok()?
        } else {
            Dopri5Sens::new().solve(&sys, 0.0, &self.x0, times, opts).ok()?
        };

        let n = self.odes.n_species();
        let p = self.problem.unknown.len();
        let eps = 1e-12;
        let mut loss = 0.0;
        let mut grad_k = vec![0.0; p];
        let mut count = 0usize;
        for (t_idx, state) in sol.solution.states.iter().enumerate() {
            let target = &self.problem.target.states[t_idx];
            for &s in &self.problem.observed {
                let den = target[s].abs() + eps;
                let r = (state[s] - target[s]) / den;
                loss += r * r;
                count += 1;
                for j in 0..p {
                    grad_k[j] += 2.0 * r * sol.sens_column(t_idx, j, n)[s] / den;
                }
            }
        }
        if count == 0 || !loss.is_finite() {
            return None;
        }
        let scale = 1.0 / count as f64;
        loss *= scale;
        let gradient: Vec<f64> = self
            .problem
            .unknown
            .iter()
            .zip(&grad_k)
            .map(|(&idx, &g)| LN_10 * k[idx] * g * scale)
            .collect();
        Some(GradientEval { loss, gradient, stiff })
    }
}

/// Trace of one multi-start gradient search.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientTrace {
    /// Best position found (log₁₀ space).
    pub best_position: Vec<f64>,
    /// Its loss.
    pub best_fitness: f64,
    /// Loss after each accepted quasi-Newton iteration, across starts.
    pub history: Vec<f64>,
    /// Objective evaluations (= augmented ODE solves requested).
    pub evaluations: usize,
    /// Whether any start met the projected-gradient tolerance.
    pub converged: bool,
}

fn clamp_to(bounds: &[(f64, f64)], x: &mut [f64]) {
    for (v, &(lo, hi)) in x.iter_mut().zip(bounds) {
        *v = v.clamp(lo, hi);
    }
}

/// Zeroes gradient components that push into an active bound face; the
/// remainder is the first-order optimality measure on the box.
fn projected_gradient(bounds: &[(f64, f64)], x: &[f64], g: &[f64]) -> Vec<f64> {
    x.iter()
        .zip(g)
        .zip(bounds)
        .map(
            |((&xi, &gi), &(lo, hi))| {
                if (xi <= lo && gi > 0.0) || (xi >= hi && gi < 0.0) {
                    0.0
                } else {
                    gi
                }
            },
        )
        .collect()
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
}

/// The L-BFGS two-loop recursion: `d = −H·g` from the stored curvature
/// pairs, falling back to `−g` with an initial scaling from the newest
/// pair.
fn two_loop(pairs: &[(Vec<f64>, Vec<f64>)], g: &[f64]) -> Vec<f64> {
    let mut q = g.to_vec();
    let mut alphas = Vec::with_capacity(pairs.len());
    for (s, y) in pairs.iter().rev() {
        let rho = 1.0 / dot(y, s);
        let alpha = rho * dot(s, &q);
        for (qi, yi) in q.iter_mut().zip(y) {
            *qi -= alpha * yi;
        }
        alphas.push((alpha, rho));
    }
    if let Some((s, y)) = pairs.last() {
        let gamma = dot(s, y) / dot(y, y);
        for qi in &mut q {
            *qi *= gamma;
        }
    }
    for ((s, y), &(alpha, rho)) in pairs.iter().zip(alphas.iter().rev()) {
        let beta = rho * dot(y, &q);
        for (qi, si) in q.iter_mut().zip(s) {
            *qi += (alpha - beta) * si;
        }
    }
    for qi in &mut q {
        *qi = -*qi;
    }
    q
}

/// Projected L-BFGS with Armijo backtracking from one start, driven by any
/// evaluation closure (`None` = failed integration = infinite loss). The
/// trajectory is a pure function of the evaluation results, which is what
/// makes a checkpointed search's journal replay exact.
pub fn lbfgs<F>(
    bounds: &[(f64, f64)],
    config: &GradientConfig,
    start: &[f64],
    mut eval: F,
) -> GradientTrace
where
    F: FnMut(&[f64]) -> Option<GradientEval>,
{
    let mut x = start.to_vec();
    clamp_to(bounds, &mut x);
    let mut evaluations = 0usize;
    let mut history = Vec::new();
    let mut converged = false;

    let first = {
        evaluations += 1;
        eval(&x)
    };
    let Some(first) = first else {
        return GradientTrace {
            best_position: x,
            best_fitness: f64::INFINITY,
            history,
            evaluations,
            converged: false,
        };
    };
    let (mut f, mut g) = (first.loss, first.gradient);
    history.push(f);
    let mut best = (f, x.clone());
    let mut pairs: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();

    for _ in 0..config.iterations {
        let pg = projected_gradient(bounds, &x, &g);
        if inf_norm(&pg) <= config.grad_tol {
            converged = true;
            break;
        }
        let mut d = two_loop(&pairs, &g);
        // Pin directions at active faces and guarantee descent.
        for (di, (pgi, _)) in d.iter_mut().zip(pg.iter().zip(bounds)) {
            if *pgi == 0.0 {
                *di = 0.0;
            }
        }
        if dot(&d, &g) >= 0.0 {
            d = pg.iter().map(|&v| -v).collect();
        }

        let mut accepted = None;
        let mut alpha = 1.0;
        for _ in 0..=MAX_BACKTRACKS {
            let mut xn: Vec<f64> = x.iter().zip(&d).map(|(xi, di)| xi + alpha * di).collect();
            clamp_to(bounds, &mut xn);
            let step: Vec<f64> = xn.iter().zip(&x).map(|(a, b)| a - b).collect();
            let dd = dot(&g, &step);
            if step.iter().all(|&s| s == 0.0) {
                break;
            }
            if dd < 0.0 {
                evaluations += 1;
                if let Some(e) = eval(&xn) {
                    if e.loss <= f + C1 * dd {
                        accepted = Some((xn, step, e));
                        break;
                    }
                }
            }
            alpha *= 0.5;
        }
        let Some((xn, step, e)) = accepted else {
            break; // line search dry: x is (locally) as good as it gets
        };
        let yv: Vec<f64> = e.gradient.iter().zip(&g).map(|(a, b)| a - b).collect();
        let sy = dot(&step, &yv);
        if sy > 1e-12 * dot(&step, &step).sqrt() * dot(&yv, &yv).sqrt() {
            if pairs.len() == MEMORY {
                pairs.remove(0);
            }
            pairs.push((step, yv));
        }
        x = xn;
        f = e.loss;
        g = e.gradient;
        history.push(f);
        if f < best.0 {
            best = (f, x.clone());
        }
    }

    GradientTrace { best_position: best.1, best_fitness: best.0, history, evaluations, converged }
}

/// The deterministic start points of a multi-start search: the box
/// midpoint first, then seeded uniform samples.
pub(crate) fn start_points(bounds: &[(f64, f64)], config: &GradientConfig) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    (0..config.starts.max(1))
        .map(|s| {
            if s == 0 {
                bounds.iter().map(|&(lo, hi)| 0.5 * (lo + hi)).collect()
            } else {
                bounds.iter().map(|&(lo, hi)| rng.gen_range(lo..=hi)).collect()
            }
        })
        .collect()
}

/// The model's full rate-constant vector with the unknowns filled in from
/// their log₁₀ values.
pub(crate) fn fill_constants(problem: &EstimationProblem<'_>, log_values: &[f64]) -> Vec<f64> {
    let mut k = problem.model.rate_constants();
    for (&idx, &lv) in problem.unknown.iter().zip(log_values) {
        k[idx] = 10f64.powf(lv);
    }
    k
}

/// Folds the per-start traces in start order; a later start takes over
/// only by strictly improving, so one start merges to itself.
fn merge_traces(traces: Vec<GradientTrace>) -> GradientTrace {
    let mut traces = traces.into_iter();
    let mut merged = traces.next().expect("a search has at least one start");
    for t in traces {
        if t.best_fitness < merged.best_fitness {
            merged.best_fitness = t.best_fitness;
            merged.best_position = t.best_position;
        }
        merged.history.extend(t.history);
        merged.evaluations += t.evaluations;
        merged.converged |= t.converged;
    }
    merged
}

/// Calibrates the unknown constants by multi-start projected L-BFGS on the
/// exact sensitivity gradient. The returned
/// [`EstimationResult::simulations`] counts *augmented ODE solves* — the
/// number E7b's swarm comparison (`paraspace_bench::studies::pe_gradient`)
/// is made against.
///
/// With a checkpoint every (loss, gradient) evaluation is one journaled
/// shard keyed by its position in the deterministic evaluation sequence.
/// Because the L-BFGS trajectory is a pure function of the evaluation
/// results, a killed run replays the committed evaluations without
/// touching a solver and continues exactly where it stopped; the finished
/// estimate is bitwise identical to an uninterrupted run and to a run
/// without a checkpoint. The manifest pins the model, bounds, target,
/// solver options, **and the optimizer with its full configuration** —
/// resume refuses any mismatch.
///
/// # Example
///
/// ```
/// use paraspace_analysis::fitness::FailedMemberPolicy;
/// use paraspace_analysis::gradient::{estimate_gradient, GradientConfig};
/// use paraspace_analysis::pe::EstimationProblem;
/// use paraspace_core::{CpuEngine, CpuSolverKind, SimulationJob, Simulator};
/// use paraspace_rbm::{Reaction, ReactionBasedModel};
/// use paraspace_solvers::SolverOptions;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
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
/// let r = estimate_gradient(&problem, &GradientConfig::default(), None)?;
/// assert!((r.rate_constants[0] - 2.0).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Only with a checkpoint: [`CampaignError::Journal`] on checkpoint I/O or
/// world mismatch, or [`CampaignError::Interrupted`] when the checkpoint's
/// token trips between evaluations.
///
/// # Panics
///
/// Panics if `problem.unknown` and `problem.log_bounds` disagree in
/// length.
pub fn estimate_gradient(
    problem: &EstimationProblem<'_>,
    config: &GradientConfig,
    checkpoint: Option<&Checkpoint>,
) -> Result<EstimationResult, CampaignError> {
    search(problem, config, &start_points(&problem.log_bounds, config), checkpoint)
}

/// Polishes a given start (e.g. a swarm's best) with one L-BFGS descent,
/// without a checkpoint.
///
/// # Panics
///
/// Exists only for the `benchmark/` harness's traced PE replay; everything
/// else calls [`estimate_gradient`] or [`crate::pe::estimate_with`]. Panics
/// where [`estimate_gradient`] does, and never on an evaluation: without a
/// checkpoint the search has nothing else that can fail.
pub fn polish_gradient(
    problem: &EstimationProblem<'_>,
    config: &GradientConfig,
    start: &[f64],
) -> EstimationResult {
    search(problem, config, &[start.to_vec()], None)
        .expect("a search without a checkpoint cannot fail")
}

/// One journaled evaluation: the candidate's loss/gradient, or a tagged
/// integration failure so a deterministic failure replays as a failure.
impl ShardRecord for Option<GradientEval> {
    fn to_payload(&self) -> Result<Cow<'_, [u8]>, JournalError> {
        let mut enc = Enc::new();
        match self {
            None => {
                enc.put_u32(0);
            }
            Some(e) => {
                enc.put_u32(1)
                    .put_f64(e.loss)
                    .put_f64_slice(&e.gradient)
                    .put_u32(u32::from(e.stiff));
            }
        }
        Ok(Cow::Owned(enc.finish()))
    }

    fn from_payload(bytes: &[u8]) -> Result<Self, JournalError> {
        let mut dec = Dec::new(bytes);
        let eval = match dec.u32()? {
            0 => None,
            _ => {
                let loss = dec.f64()?;
                let gradient = dec.f64_vec()?;
                let stiff = dec.u32()? != 0;
                Some(GradientEval { loss, gradient, stiff })
            }
        };
        dec.expect_exhausted()?;
        Ok(eval)
    }
}

/// The one L-BFGS search under every gradient entry point: a descent from
/// each of `starts`, each evaluation one [`ShardLog`] step keyed by its
/// position in the deterministic evaluation sequence. The evaluation
/// closure cannot fail, so the first error — interruption included — parks
/// in `stop` and the remaining evaluations read as failed integrations
/// without touching a solver.
pub(crate) fn search(
    problem: &EstimationProblem<'_>,
    config: &GradientConfig,
    starts: &[Vec<f64>],
    checkpoint: Option<&Checkpoint>,
) -> Result<EstimationResult, CampaignError> {
    let mut log = ShardLog::open(checkpoint, || {
        // Upper bound on the evaluation sequence: per start, one seed
        // evaluation plus one full line search per iteration.
        let cap = starts.len() * (1 + config.iterations * (MAX_BACKTRACKS + 1));
        pe_manifest_base(problem, cap as u64)
            .with_field("optimizer", "lbfgs")
            .with_digest("optimizer_config", gradient_config_digest(config))
    })?;
    let mut objective = GradientObjective::new(problem);
    let mut next = 0u64;
    let mut stop: Option<CampaignError> = None;
    let traces: Vec<GradientTrace> = starts
        .iter()
        .map(|start| {
            lbfgs(&problem.log_bounds, config, start, |x| {
                let idx = next;
                next += 1;
                if stop.is_some() {
                    return None;
                }
                log.step(idx, || Ok(objective.evaluate(x))).unwrap_or_else(|e| {
                    stop = Some(e);
                    None
                })
            })
        })
        .collect();
    if let Some(e) = stop {
        return Err(e);
    }
    let report = log.finish()?;
    let trace = merge_traces(traces);
    Ok(EstimationResult {
        rate_constants: fill_constants(problem, &trace.best_position),
        optimization: PsoResult {
            best_position: trace.best_position,
            best_fitness: trace.best_fitness,
            history: trace.history,
            evaluations: trace.evaluations,
        },
        simulated_ns: 0.0,
        simulations: objective.ode_solves,
        report,
    })
}

/// The problem-identity manifest shared by every durable PE optimizer:
/// model, bounds, unknowns, observables, target bits, times, options.
pub(crate) fn pe_manifest_base(problem: &EstimationProblem<'_>, shards: u64) -> CampaignManifest {
    let mut bounds_enc = Enc::new();
    for &(lo, hi) in &problem.log_bounds {
        bounds_enc.put_f64(lo).put_f64(hi);
    }
    let mut unknown_enc = Enc::new();
    for &u in &problem.unknown {
        unknown_enc.put_u64(u as u64);
    }
    let mut observed_enc = Enc::new();
    for &o in &problem.observed {
        observed_enc.put_u64(o as u64);
    }
    let mut target_enc = Enc::new();
    for t in 0..problem.time_points.len() {
        target_enc.put_f64_slice(problem.target.state_at(t));
    }
    CampaignManifest::new("pe", shards)
        .with_digest("model", model_digest(problem.model))
        .with_digest("bounds", fnv64(&bounds_enc.finish()))
        .with_digest("unknown", fnv64(&unknown_enc.finish()))
        .with_digest("observed", fnv64(&observed_enc.finish()))
        .with_digest("target", fnv64(&target_enc.finish()))
        .with_digest("times", f64s_digest(&problem.time_points))
        .with_digest("options", options_digest(&problem.options))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::FailedMemberPolicy;
    use paraspace_core::{CpuEngine, CpuSolverKind, SimulationJob, Simulator};
    use paraspace_rbm::{Reaction, ReactionBasedModel};
    use paraspace_solvers::{Solution, SolverOptions};
    use std::path::PathBuf;

    #[test]
    fn default_gradient_config_digest_is_pinned() {
        // Stored in every durable L-BFGS checkpoint's manifest: a change here
        // makes each of them refuse to resume.
        assert_eq!(
            format!("{:016x}", gradient_config_digest(&GradientConfig::default())),
            "03c69d9efc4a766e"
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

    fn two_step_problem<'a>(
        model: &'a ReactionBasedModel,
        target: Solution,
        times: Vec<f64>,
    ) -> EstimationProblem<'a> {
        EstimationProblem {
            model,
            unknown: vec![0, 1],
            log_bounds: vec![(-2.0, 1.0), (-2.0, 1.0)],
            observed: vec![0, 1, 2],
            target,
            time_points: times,
            options: SolverOptions::default(),
            failed_members: FailedMemberPolicy::default(),
        }
    }

    #[test]
    fn exact_gradient_matches_finite_differences() {
        let truth = two_step_model(1.5, 0.4);
        let times: Vec<f64> = (1..=6).map(|i| i as f64 * 0.5).collect();
        let target = target_for(&truth, &times);
        let problem = two_step_problem(&truth, target, times);
        let mut obj = GradientObjective::new(&problem);

        let lv = [0.05, -0.55];
        let e = obj.evaluate(&lv).unwrap();
        let h = 1e-6;
        for j in 0..2 {
            let mut up = lv;
            up[j] += h;
            let mut dn = lv;
            dn[j] -= h;
            let fd =
                (obj.evaluate(&up).unwrap().loss - obj.evaluate(&dn).unwrap().loss) / (2.0 * h);
            assert!(
                (e.gradient[j] - fd).abs() <= 1e-5 * fd.abs().max(1.0),
                "grad[{j}] exact {} vs FD {fd}",
                e.gradient[j]
            );
        }
    }

    #[test]
    fn lbfgs_recovers_two_constants_with_few_solves() {
        let truth = two_step_model(1.5, 0.4);
        let times: Vec<f64> = (1..=8).map(|i| i as f64 * 0.5).collect();
        let target = target_for(&truth, &times);
        let problem = two_step_problem(&truth, target, times);
        let r = estimate_gradient(&problem, &GradientConfig::default(), None).unwrap();
        assert!((r.rate_constants[0] - 1.5).abs() < 1e-3, "k1 = {}", r.rate_constants[0]);
        assert!((r.rate_constants[1] - 0.4).abs() < 1e-3, "k2 = {}", r.rate_constants[1]);
        // The whole multi-start search must undercut a single swarm
        // generation budget by a wide margin.
        assert!(r.simulations < 300, "{} solves", r.simulations);
    }

    #[test]
    fn lbfgs_respects_bounds() {
        let truth = two_step_model(1.5, 0.4);
        let times = vec![0.5, 1.0];
        let target = target_for(&truth, &times);
        let mut problem = two_step_problem(&truth, target, times);
        // Bounds that exclude the truth: the estimate must sit inside.
        problem.log_bounds = vec![(-1.0, 0.0), (-1.0, 0.0)];
        let r = estimate_gradient(&problem, &GradientConfig::default(), None).unwrap();
        for (lv, &(lo, hi)) in r.optimization.best_position.iter().zip(&problem.log_bounds) {
            assert!(*lv >= lo - 1e-12 && *lv <= hi + 1e-12, "position {lv} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn durable_gradient_resumes_bitwise() {
        let truth = two_step_model(1.5, 0.4);
        let times: Vec<f64> = (1..=6).map(|i| i as f64 * 0.5).collect();
        let target = target_for(&truth, &times);
        let problem = two_step_problem(&truth, target, times);
        let config = GradientConfig { starts: 2, ..Default::default() };

        let dir =
            std::env::temp_dir().join(format!("paraspace_grad_durable_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        // Uninterrupted reference, without a checkpoint.
        let reference = estimate_gradient(&problem, &config, None).unwrap();

        // A pre-tripped token checkpoints nothing and reports Interrupted.
        let cancel = paraspace_core::CancelToken::new();
        let cp = Checkpoint::new(&dir).with_cancel(cancel.clone());
        cancel.cancel();
        let err = estimate_gradient(&problem, &config, Some(&cp)).unwrap_err();
        assert!(matches!(err, CampaignError::Interrupted { completed: 0, .. }));

        let cp = Checkpoint::new(&dir);
        let first = estimate_gradient(&problem, &config, Some(&cp)).unwrap();
        assert!(first.report.executed > 0);
        assert_eq!(first.rate_constants, reference.rate_constants);
        assert_eq!(first.optimization.history, reference.optimization.history);

        // A third run replays every evaluation from the journal: zero new
        // solves, bitwise-identical result.
        let second = estimate_gradient(&problem, &config, Some(&cp)).unwrap();
        assert_eq!(second.report.executed, 0, "all evaluations must replay from the journal");
        assert!(second.report.resumed);
        assert_eq!(second.rate_constants, first.rate_constants);
        assert_eq!(second.optimization.history, first.optimization.history);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_gradient_refuses_optimizer_config_mismatch() {
        let truth = two_step_model(1.5, 0.4);
        let times = vec![0.5, 1.0];
        let target = target_for(&truth, &times);
        let problem = two_step_problem(&truth, target, times);
        let dir: PathBuf =
            std::env::temp_dir().join(format!("paraspace_grad_mismatch_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let config = GradientConfig { starts: 1, iterations: 5, ..Default::default() };
        let cp = Checkpoint::new(&dir);
        estimate_gradient(&problem, &config, Some(&cp)).unwrap();

        let changed = GradientConfig { seed: 7, ..config };
        let err = estimate_gradient(&problem, &changed, Some(&cp)).unwrap_err();
        match err {
            CampaignError::Journal(paraspace_journal::JournalError::ManifestMismatch {
                field,
                ..
            }) => {
                assert_eq!(field, "optimizer_config");
            }
            other => panic!("expected ManifestMismatch, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
