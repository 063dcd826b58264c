//! The five campaigns. Each workload generates its inputs from the run's
//! seed, prepares them through the program's public functions (`setup_s`),
//! runs one campaign per repetition, checks the artifacts against a
//! reference it computes itself, and — in a traced run — replays the
//! campaign stage by stage to attribute the time to layers.

pub mod ensemble;
pub mod pe;
pub mod psa2d;
pub mod sweep;

use crate::sys::{ChildRun, WorkDir};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Host threads (and worker processes) every campaign is pinned to.
pub const THREADS: usize = 2;
/// Hard per-campaign deadline; see `sys::run_campaign`. Twenty times the
/// slowest campaign, and short enough that a run with one hung campaign
/// still ends inside the harness's 180 s.
pub const CAMPAIGN_DEADLINE: Duration = Duration::from_secs(60);

pub use crate::spec::WORKLOADS as NAMES;

/// What a run hands every workload.
pub struct Ctx<'a> {
    pub cli: &'a Path,
    pub work: &'a WorkDir,
    pub seed: u64,
    /// `--smoke`: every size cut to at most an eighth.
    pub smoke: bool,
}

impl Ctx<'_> {
    /// `full` at benchmark size, `full / 8` (at least `floor`) under
    /// `--smoke`.
    pub fn sized(&self, full: usize, floor: usize) -> usize {
        if self.smoke {
            (full / 8).max(floor)
        } else {
            full
        }
    }

    /// The CLI, ready for arguments.
    pub fn cli_command(&self) -> std::process::Command {
        std::process::Command::new(self.cli)
    }
}

/// One timed repetition.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Members (replicates, ODE solves) that produced a result.
    pub succeeded: usize,
    /// Members attempted minus `succeeded`; every member when the campaign
    /// itself failed or timed out.
    pub failed: usize,
    /// The campaign's standard output (empty for in-process workloads).
    pub stdout: String,
}

impl Rep {
    /// A spawned campaign's repetition: `parsed_ok` is the success count
    /// the campaign printed, trusted only when it exited cleanly.
    pub fn from_child(run: ChildRun, members: usize, parsed_ok: Option<usize>) -> Rep {
        if run.timed_out {
            eprintln!("campaign exceeded its {CAMPAIGN_DEADLINE:?} deadline and was killed");
        }
        let succeeded = if run.success { parsed_ok.unwrap_or(0).min(members) } else { 0 };
        Rep {
            wall_s: run.wall_s,
            cpu_s: run.cpu_s,
            peak_rss_mb: run.peak_rss_mb,
            succeeded,
            failed: members - succeeded,
            stdout: run.stdout,
        }
    }
}

/// The untimed correctness verdict of a run.
#[derive(Debug, Clone)]
pub struct Check {
    /// Error against the benchmark's own reference (see each workload).
    pub ref_err: f64,
    /// The limit `ref_err` must stay under.
    pub ref_limit: f64,
    /// Further pass/fail conditions, each with a description.
    pub conditions: Vec<(String, bool)>,
}

impl Check {
    pub fn passed(&self) -> bool {
        self.ref_err.is_finite()
            && self.ref_err <= self.ref_limit
            && self.conditions.iter().all(|(_, ok)| *ok)
    }
}

pub trait Workload {
    /// Members attempted per repetition (the numerator of `sims_per_s`).
    fn members(&self) -> usize;
    /// One line for the provenance header: what runs and at what size.
    fn describe(&self) -> String;
    /// Preparations per `setup_s` batch (K).
    fn setup_batch(&self) -> usize;
    /// One preparation of the campaign's inputs through the program's
    /// public functions, up to but excluding the first integration step.
    fn prepare_once(&self) -> Result<(), String>;
    /// One campaign, timed from entry to artifacts.
    fn repetition(&mut self) -> Result<Rep, String>;
    /// Checks the artifacts of the last repetition.
    fn check(&mut self) -> Result<Check, String>;
    /// The staged replay and layer probes of a traced run.
    fn trace(&mut self, tracer: &mut Tracer) -> Result<(), String>;
}

/// Builds the named workload, generating its inputs under `ctx.work`.
pub fn build<'a>(name: &str, ctx: &'a Ctx<'a>) -> Result<Box<dyn Workload + 'a>, String> {
    Ok(match name {
        "psa2d_autophagy" => Box::new(psa2d::Psa2dAutophagy::new(ctx)?),
        "pe_hybrid_metabolic" => Box::new(pe::PeHybridMetabolic::new(ctx)?),
        "sweep_cli" => Box::new(sweep::Sweep::new(ctx, sweep::Mode::Plain)?),
        "sweep_net" => Box::new(sweep::Sweep::new(ctx, sweep::Mode::Networked)?),
        "ensemble_tau" => Box::new(ensemble::EnsembleTau::new(ctx)?),
        other => return Err(format!("unknown workload {other:?} (expected one of {NAMES:?})")),
    })
}

/// The CLI's fixed solver settings for `simulate` and `pe`
/// (`crates/cli/src/lib.rs`): default tolerances, 100 000 steps.
pub fn cli_options() -> paraspace_solvers::SolverOptions {
    paraspace_solvers::SolverOptions {
        rel_tol: 1e-6,
        abs_tol: 1e-12,
        max_steps: 100_000,
        ..Default::default()
    }
}

/// Removes `dir` and everything under it, if it exists — the artifacts of
/// the previous campaign, always outside a timed region.
pub fn clear_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    Ok(())
}

/// The `ok` of the first `"<ok>/<n> <what>"` token pair in a campaign's
/// output (`"1536/1536 simulations ok"`).
pub fn parse_ok_count(stdout: &str, what: &str) -> Option<usize> {
    let at = stdout.find(&format!(" {what}"))?;
    let token = stdout[..at].rsplit(|c: char| c.is_whitespace()).next()?;
    token.split_once('/')?.0.parse().ok()
}

/// The number following `marker` in `stdout`.
pub fn parse_after<T: std::str::FromStr>(stdout: &str, marker: &str) -> Option<T> {
    let rest = &stdout[stdout.find(marker)? + marker.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The last row of a tab-separated dynamics file, without its time column.
pub fn final_state(path: &Path) -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let line = text.lines().rev().find(|l| !l.trim().is_empty()).ok_or("empty dynamics file")?;
    line.split('\t')
        .skip(1)
        .map(|v| v.parse::<f64>().map_err(|_| format!("bad number {v:?} in {}", path.display())))
        .collect()
}

/// Largest componentwise deviation of `got` from `want`, relative to the
/// component or — for components near zero — a thousandth of the largest.
pub fn max_rel_deviation(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    let floor = want.iter().fold(0.0f64, |m, v| m.max(v.abs())) * 1e-3;
    got.iter()
        .zip(want)
        .map(|(g, w)| (g - w).abs() / w.abs().max(floor).max(f64::MIN_POSITIVE))
        .fold(0.0, f64::max)
}

/// The final state of one member by scalar Radau5 at `rtol 1e-10` — the
/// truth the sweeps and the PSA are held to.
pub fn radau_reference(
    odes: &paraspace_rbm::CompiledOdes,
    x0: &[f64],
    k: &[f64],
    times: &[f64],
) -> Result<Vec<f64>, String> {
    use paraspace_solvers::{OdeSolver, Radau5, SolverOptions};
    let options = SolverOptions {
        rel_tol: 1e-10,
        abs_tol: 1e-14,
        max_steps: 1_000_000,
        ..SolverOptions::default()
    };
    let system = paraspace_core::RbmOdeSystem::new(odes, k.to_vec());
    let solution = Radau5::new()
        .solve(&system, 0.0, x0, times, &options)
        .map_err(|f| format!("reference solve failed: {}", f.error))?;
    Ok(solution.last_state().ok_or("reference solve returned no samples")?.to_vec())
}

/// `count` distinct member indices below `n`, chosen by `seed`.
pub fn choose_members(n: usize, count: usize, seed: u64) -> Vec<usize> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5EED_C0DE);
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < count.min(n) {
        let i = rng.gen_range(0..n);
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked.sort_unstable();
    picked
}

/// Every regular file under `dir` (one level), sorted by name, with its
/// size.
pub fn list_files(dir: &Path) -> Result<Vec<(PathBuf, u64)>, String> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        if meta.is_file() {
            files.push((entry.path(), meta.len()));
        }
    }
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_campaign_summaries() {
        let out = "fine-coarse: 1530/1536 simulations ok; simulated 1.2 ms\nhealth: ok\n";
        assert_eq!(parse_ok_count(out, "simulations ok"), Some(1530));
        assert_eq!(parse_ok_count(out, "replicates ok"), None);
        let pe = "pe (hybrid, 8 unknowns): best loss 1.5e-9 after 105 solves\n";
        assert_eq!(parse_after::<usize>(pe, "after "), Some(105));
        assert_eq!(parse_after::<f64>(pe, "best loss "), Some(1.5e-9));
    }

    #[test]
    fn deviation_is_relative_with_a_floor() {
        assert_eq!(max_rel_deviation(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((max_rel_deviation(&[1.1, 0.0], &[1.0, 0.0]) - 0.1).abs() < 1e-12);
        // A tiny component is judged against the floor, not itself.
        assert!(max_rel_deviation(&[100.0, 2e-9], &[100.0, 1e-9]) < 1e-6);
        assert!(max_rel_deviation(&[1.0], &[1.0, 2.0]).is_infinite());
    }

    #[test]
    fn member_choice_is_seeded_and_distinct() {
        let a = choose_members(64, 8, 3);
        assert_eq!(a, choose_members(64, 8, 3));
        assert_ne!(a, choose_members(64, 8, 4));
        assert_eq!(a.len(), 8);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(choose_members(3, 8, 1), vec![0, 1, 2]);
    }
}
