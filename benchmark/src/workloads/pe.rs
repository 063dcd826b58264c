//! `pe_hybrid_metabolic`: hybrid parameter estimation through the CLI —
//! a short swarm, then L-BFGS on forward-sensitivity gradients. The same
//! solver layer as the PSA used differently: narrow sequential batches (a
//! job build per generation) and the sensitivity integrators; the
//! gradient stage is serial, so an `exec` gain must not show here while a
//! per-batch fixed-cost gain must.

use super::{
    clear_dir, cli_options, parse_after, Check, Ctx, Rep, Workload, CAMPAIGN_DEADLINE, THREADS,
};
use crate::sys::run_campaign;
use crate::trace::Tracer;
use paraspace_analysis::fitness::relative_distance;
use paraspace_core::{RbmOdeSystem, SimulationJob};
use paraspace_models::metabolic;
use paraspace_rbm::{biosimware, ReactionBasedModel};
use paraspace_solvers::{Lsoda, OdeSolver, Solution, SolverOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

/// Reaction indices of the constants the search must recover (every 28th
/// of the 226).
pub const UNKNOWN: [usize; 8] = [0, 28, 56, 84, 112, 140, 168, 196];
pub const OBSERVED: [&str; 4] = ["R5P", "G6P", "PYR", "MgATP"];
pub const SWARM: usize = 16;
pub const ITERATIONS: usize = 6;
pub const GRAD_ITERATIONS: usize = 8;
const SAMPLE_TIMES: usize = 10;
/// End of the fitted window, in the model's hours.
const HORIZON: f64 = 5.0;
/// The search's own pseudo-random stream is part of the workload's
/// definition: its cost depends on where the swarm lands, by more than the
/// end-to-end bounds. The run's seed moves the truth instead.
pub const SEARCH_SEED: u64 = 1;
/// Relative half-width of the seed-drawn factor on every true constant.
const TRUTH_JITTER: f64 = 1e-4;
const REF_LIMIT: f64 = 1e-2;
/// An eighth of the search does not converge; a smoke run only checks that
/// the estimate scores as a fit at all (a random start scores above 1).
const SMOKE_REF_LIMIT: f64 = 0.5;

pub struct PeHybridMetabolic<'a> {
    pub ctx: &'a Ctx<'a>,
    pub iterations: usize,
    pub grad_iterations: usize,
    pub model_dir: PathBuf,
    pub out_dir: PathBuf,
    pub model: ReactionBasedModel,
    pub times: Vec<f64>,
    /// ODE solves the last repetition reported.
    solves: usize,
}

impl<'a> PeHybridMetabolic<'a> {
    pub fn new(ctx: &'a Ctx<'a>) -> Result<Self, String> {
        let mut model = metabolic::model();
        let mut rng = StdRng::seed_from_u64(ctx.seed);
        for r in 0..model.n_reactions() {
            let k = model.reactions()[r].rate_constant();
            let factor = 1.0 + TRUTH_JITTER * (2.0 * rng.gen::<f64>() - 1.0);
            model.reaction_mut(r).set_rate_constant(k * factor);
        }
        let times: Vec<f64> =
            (1..=SAMPLE_TIMES).map(|i| i as f64 * HORIZON / SAMPLE_TIMES as f64).collect();
        let model_dir = ctx.work.path().join("model");
        biosimware::write_dir(&model, &model_dir).map_err(|e| e.to_string())?;
        biosimware::write_time_points(&times, &model_dir).map_err(|e| e.to_string())?;
        // The directory is the program's input; the round trip through the
        // text format decides the constants the search is scored against.
        let model = biosimware::read_dir(&model_dir).map_err(|e| e.to_string())?;
        Ok(PeHybridMetabolic {
            ctx,
            iterations: ctx.sized(ITERATIONS, 1),
            grad_iterations: ctx.sized(GRAD_ITERATIONS, 1),
            out_dir: ctx.work.path().join("out"),
            model_dir,
            model,
            times,
            solves: 0,
        })
    }

    /// The `pe` command line on `threads` host threads.
    pub fn command(&self, threads: usize) -> std::process::Command {
        let mut cmd = self.ctx.cli_command();
        cmd.arg("pe")
            .arg(&self.model_dir)
            .args(["--optimizer", "hybrid"])
            .args(["--unknown", &UNKNOWN.map(|i| i.to_string()).join(",")])
            .args(["--observed", &OBSERVED.join(",")])
            .args(["--iterations", &self.iterations.to_string()])
            .args(["--swarm", &SWARM.to_string()])
            .args(["--grad-iterations", &self.grad_iterations.to_string()])
            .args(["--threads", &threads.to_string()])
            .args(["--seed", &SEARCH_SEED.to_string()])
            .arg("--out")
            .arg(&self.out_dir);
        cmd
    }

    pub fn observed_indices(&self) -> Result<Vec<usize>, String> {
        OBSERVED
            .iter()
            .map(|n| self.model.species_by_name(n).map(|id| id.index()).map_err(|e| e.to_string()))
            .collect()
    }

    /// Scalar LSODA trajectory of the model under constants `k`, at a
    /// tolerance three decades under the campaign's.
    fn lsoda_trajectory(&self, k: Vec<f64>) -> Result<Solution, String> {
        let odes = self.model.compile().map_err(|e| e.to_string())?;
        let options = SolverOptions {
            rel_tol: 1e-9,
            abs_tol: 1e-14,
            max_steps: 1_000_000,
            ..SolverOptions::default()
        };
        Lsoda::new()
            .solve(
                &RbmOdeSystem::new(&odes, k),
                0.0,
                &self.model.initial_state(),
                &self.times,
                &options,
            )
            .map_err(|f| format!("re-scoring solve failed: {}", f.error))
    }
}

impl Workload for PeHybridMetabolic<'_> {
    fn members(&self) -> usize {
        // Swarm solves are fixed by the configuration; the gradient stage
        // adds its evaluations, known only once a campaign has run.
        if self.solves > 0 {
            self.solves
        } else {
            SWARM * self.iterations
        }
    }

    fn describe(&self) -> String {
        format!(
            "paraspace-cli pe --optimizer hybrid --unknown {} --observed {} --iterations {} --swarm {SWARM} --grad-iterations {} --threads {THREADS}: metabolic {}x{}, {SAMPLE_TIMES} sample times to t = {HORIZON} h, self-calibration against constants drawn within {TRUTH_JITTER} of the model's",
            UNKNOWN.map(|i| i.to_string()).join(","),
            OBSERVED.join(","),
            self.iterations,
            self.grad_iterations,
            self.model.n_species(),
            self.model.n_reactions(),
        )
    }

    fn setup_batch(&self) -> usize {
        256
    }

    fn prepare_once(&self) -> Result<(), String> {
        let model = biosimware::read_dir(&self.model_dir).map_err(|e| e.to_string())?;
        let times = biosimware::read_time_points(&self.model_dir).map_err(|e| e.to_string())?;
        let job = SimulationJob::builder(&model)
            .time_points(times)
            .replicate(1)
            .options(cli_options())
            .build()
            .map_err(|e| e.to_string())?;
        std::hint::black_box(job.batch_size());
        Ok(())
    }

    fn repetition(&mut self) -> Result<Rep, String> {
        clear_dir(&self.out_dir)?;
        let mut cmd = self.command(THREADS);
        let run = run_campaign(&mut cmd, CAMPAIGN_DEADLINE).map_err(|e| e.to_string())?;
        // The campaign reports its solve count; all of them count as
        // attempted and — on a clean exit — as succeeded.
        let solves: Option<usize> = parse_after(&run.stdout, "after ");
        if let Some(n) = solves.filter(|_| run.success) {
            self.solves = n;
        }
        Ok(Rep::from_child(run, self.members(), solves))
    }

    fn check(&mut self) -> Result<Check, String> {
        let path = self.out_dir.join("estimate.tsv");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let estimate: Vec<f64> = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| {
                l.split('\t')
                    .nth(1)
                    .and_then(|v| v.parse::<f64>().ok())
                    .ok_or_else(|| format!("malformed estimate line {l:?}"))
            })
            .collect::<Result<_, _>>()?;
        let complete = estimate.len() == self.model.n_reactions();
        let ref_err = if complete {
            let truth = self.lsoda_trajectory(self.model.rate_constants())?;
            let fitted = self.lsoda_trajectory(estimate)?;
            relative_distance(&fitted, &truth, &self.observed_indices()?)
        } else {
            f64::INFINITY
        };
        Ok(Check {
            ref_err,
            ref_limit: if self.ctx.smoke { SMOKE_REF_LIMIT } else { REF_LIMIT },
            conditions: vec![("estimate.tsv holds one constant per reaction".into(), complete)],
        })
    }

    fn trace(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        crate::trace::pe::trace(self, tracer)
    }
}
