//! The black-box command-line interface, as a library so the argument
//! parsing and command execution are unit-testable.
//!
//! Subcommands mirror the original tool's workflow:
//!
//! * `simulate <model_dir>` — read a BioSimWare model directory (with
//!   optional `t_vector`, `c_matrix`, `MX_0` batch files), run it on a
//!   chosen engine, write one dynamics file per simulation plus a timing
//!   summary — one campaign whatever the flags: a plain run is its
//!   one-shard case with no journal;
//! * `ensemble <model_dir>` — a stochastic replicate ensemble (tau-leaping
//!   or SSA) with its mean and variance;
//! * `pe <model_dir>` — calibrate unknown rate constants against target
//!   dynamics (swarm, gradient or hybrid search);
//! * `resume <checkpoint_dir>` — finish an interrupted `simulate`,
//!   `ensemble` or `pe` run from its checkpoint;
//! * `worker` / `coordinate` — run a `simulate` checkpoint as a
//!   multi-process (or networked) campaign;
//! * `convert` — BioSimWare directory ↔ SBML document;
//! * `generate` — emit an SBGen-style synthetic model;
//! * `recommend` — print the published engine recommendation for a
//!   (species, reactions, simulations) triple.
//!
//! [`parse`] and the checkpoint manifests read one table of flags per
//! subcommand (`args`); each campaign subcommand runs in its own module.

mod args;
mod dispatch;
mod ensemble;
#[cfg(test)]
mod flag_pins;
mod pe;
mod simulate;

pub use args::parse;
use args::{command_from_manifest, read_manifest};
pub use dispatch::kill_registered_children;
use dispatch::{coordinate_processes, run_coordinator, run_worker};
use ensemble::run_ensemble;
use paraspace_analysis::campaign::{CampaignError, Checkpoint, ShardReport};
use paraspace_analysis::dispatch::WorkerChaos;
pub use paraspace_core::CancelToken;
use paraspace_core::{
    recommend_engine, CoarseEngine, CpuEngine, CpuSolverKind, Executor, FineCoarseEngine,
    FineEngine, Host, RecoveryPolicy, Simulator,
};
use paraspace_journal::JournalError;
use paraspace_rbm::{biosimware, sbgen::SbGen, sbml};
use paraspace_stochastic::{DirectMethod, StochasticError, TauLeaping};
use pe::run_pe;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simulate::{simulate, SimulateWorld};
use std::fmt;
use std::path::{Path, PathBuf};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run a model directory on an engine.
    Simulate {
        /// BioSimWare model directory.
        model_dir: PathBuf,
        /// Engine name (`fine-coarse`, `coarse`, `fine`, `lsoda`, `vode`).
        engine: String,
        /// Output directory for dynamics files (default: `<model_dir>/out`).
        out_dir: Option<PathBuf>,
        /// Batch replication when no `c_matrix`/`MX_0` is present.
        batch: usize,
        /// Relative tolerance.
        rtol: f64,
        /// Absolute tolerance.
        atol: f64,
        /// Host worker threads (1 = sequential, 0 = all cores).
        threads: usize,
        /// Lockstep lane width: `None` takes each phase's rule (P3 full
        /// width, P4 autotuned per model), `Some(n)` pins it (`1` forces
        /// the scalar path). Results are bitwise identical at any setting.
        lane_width: Option<usize>,
        /// Tolerance-relaxation retries for members that fail (0 = off).
        max_retries: usize,
        /// Per-member attempted-step budget (deterministic deadline).
        member_budget: Option<usize>,
        /// Checkpoint directory for durable (killable/resumable) execution.
        checkpoint_dir: Option<PathBuf>,
        /// Members per journaled shard on the durable path.
        shard_size: usize,
        /// Worker processes on the durable path (0 = run shards in this
        /// process; N spawns N `worker` child processes and coordinates
        /// them — requires `--checkpoint-dir`).
        workers: usize,
        /// Cost-model shard packing (stiff members into small shards,
        /// non-stiff into full shards). `None` = auto: packed when
        /// `workers > 1`, uniform otherwise. Pinned in the manifest as
        /// `shard_plan` — the plan defines which member lands in which
        /// shard, so it is world-defining.
        pack: Option<bool>,
        /// Lease heartbeat TTL in milliseconds (journaled in the
        /// manifest; `resume` refuses a mismatch).
        lease_ttl: u64,
        /// Reassignment retry-backoff base in milliseconds (journaled in
        /// the manifest; `resume` refuses a mismatch).
        retry_base: u64,
        /// Serve the lease lifecycle to networked workers on this address
        /// (e.g. `127.0.0.1:0`); spawned children connect over TCP
        /// instead of sharing the checkpoint directory.
        listen: Option<String>,
    },
    /// Run a stochastic replicate ensemble of a model directory.
    Ensemble {
        /// BioSimWare model directory.
        model_dir: PathBuf,
        /// Simulator name (`tau-leaping`, `ssa`).
        simulator: String,
        /// Output directory (default: `<model_dir>/ensemble`).
        out_dir: Option<PathBuf>,
        /// Replicate count.
        replicates: usize,
        /// Campaign seed keying the counter-based replicate streams.
        seed: u64,
        /// Campaign member index keying the replicate streams.
        member: u64,
        /// Host worker threads (1 = sequential, 0 = all cores).
        threads: usize,
        /// Lockstep lane width for tau-leaping: `None` runs the full width
        /// (8, narrowed only to the number of lane replicates), `Some(n)`
        /// pins it (`1` forces the scalar path). Replicate trajectories and
        /// the modelled clock are bitwise identical at any setting.
        lane_width: Option<usize>,
        /// Checkpoint directory for durable (killable/resumable) runs.
        checkpoint_dir: Option<PathBuf>,
        /// Replicates per journaled shard on the durable path.
        shard_size: usize,
    },
    /// Resume an interrupted durable `simulate`, `ensemble` or `pe` from
    /// its checkpoint.
    Resume {
        /// The `--checkpoint-dir` of the interrupted run.
        checkpoint_dir: PathBuf,
        /// Worker processes for the resumed run (simulate campaigns only;
        /// 0 = single-process). Worker count is not world-defining, so a
        /// run may be resumed with any value.
        workers: usize,
    },
    /// Attach to a shared checkpoint directory as one worker of a
    /// multi-process `simulate` campaign: claim shard leases, execute them
    /// through the engine pinned in the manifest, and append results to a
    /// private journal segment for the coordinator to merge.
    Worker {
        /// The shared checkpoint directory of the campaign (filesystem
        /// transport; omitted when `--connect` attaches over TCP).
        checkpoint_dir: Option<PathBuf>,
        /// Coordinator address to attach to over TCP (`HOST:PORT`). The
        /// model directory named in the campaign manifest must be
        /// readable at the same path on this machine.
        connect: Option<String>,
        /// Worker id (unique per incarnation; default embeds the pid).
        worker_id: Option<String>,
        /// Chaos: die (no cleanup, lease left behind) while holding the
        /// Nth claimed shard.
        chaos_kill_at: Option<u64>,
        /// Chaos: when the kill fires, first write a torn record to the
        /// segment (crash mid-append).
        chaos_torn_write: bool,
        /// Chaos: stop heartbeating from the Nth claimed shard onward.
        chaos_suppress_at: Option<u64>,
    },
    /// Run the coordinator for a `simulate` campaign checkpoint: merge
    /// worker segments into the shard journal, expire dead workers'
    /// leases, quarantine poisoned shards, and materialize the output
    /// artifacts once every shard commits. Workers attach separately with
    /// `worker`, or are spawned here with `--workers`.
    Coordinate {
        /// The shared checkpoint directory of the campaign.
        checkpoint_dir: PathBuf,
        /// Worker child processes to spawn (0 = attach-only).
        workers: usize,
        /// Serve the lease lifecycle to networked workers on this address
        /// (e.g. `0.0.0.0:7700`); remote machines attach with
        /// `worker --connect HOST:PORT`.
        listen: Option<String>,
    },
    /// Calibrate unknown rate constants against target dynamics.
    Pe {
        /// BioSimWare model directory.
        model_dir: PathBuf,
        /// Search strategy (`pso`, `lbfgs`, `hybrid`).
        optimizer: String,
        /// Engine for swarm stages (`fine-coarse`, `coarse`, `fine`,
        /// `lsoda`, `vode`). Gradient stages run the host sensitivity
        /// integrators directly and ignore this.
        engine: String,
        /// Reaction indices of the unknown constants (`None` = all).
        unknown: Option<Vec<usize>>,
        /// log₁₀ search half-width around each unknown's current value.
        log_radius: f64,
        /// Species names scored against the target (`None` = all).
        observed: Option<Vec<String>>,
        /// Target dynamics file (tab-separated `t  x0  x1 ...`, one row per
        /// sample — the `simulate` output format). `None` simulates the
        /// model's current constants as a self-calibration benchmark.
        target: Option<PathBuf>,
        /// Relative tolerance for candidate evaluation.
        rtol: f64,
        /// Absolute tolerance for candidate evaluation.
        atol: f64,
        /// Host worker threads for swarm stages (1 = sequential, 0 = all
        /// cores). Results are bitwise identical at any thread count.
        threads: usize,
        /// Swarm generations (pso and the hybrid's global stage).
        iterations: usize,
        /// Swarm size (`None` = the published heuristic).
        swarm: Option<usize>,
        /// L-BFGS iterations per start (lbfgs and the hybrid's polish).
        grad_iterations: usize,
        /// Independent L-BFGS starts (ignored by the hybrid's polish,
        /// which starts from the swarm's best).
        starts: usize,
        /// Search seed (swarm RNG and sampled gradient starts).
        seed: u64,
        /// Output directory for the estimate (default: `<model_dir>/pe`).
        out_dir: Option<PathBuf>,
        /// Checkpoint directory for durable (killable/resumable) runs.
        checkpoint_dir: Option<PathBuf>,
    },
    /// Convert between formats.
    Convert {
        /// Source (directory or `.xml` file — detected by suffix).
        from: PathBuf,
        /// Destination (the other format).
        to: PathBuf,
    },
    /// Generate a synthetic model directory.
    Generate {
        /// Species count.
        species: usize,
        /// Reaction count.
        reactions: usize,
        /// RNG seed.
        seed: u64,
        /// Output model directory.
        out_dir: PathBuf,
    },
    /// Print the recommended engine for a workload.
    Recommend {
        /// Species count.
        species: usize,
        /// Reaction count.
        reactions: usize,
        /// Parallel simulations.
        sims: usize,
    },
    /// Print usage.
    Help,
}

/// A CLI-level error with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<paraspace_rbm::RbmError> for CliError {
    fn from(e: paraspace_rbm::RbmError) -> Self {
        CliError(e.to_string())
    }
}

impl From<paraspace_core::SimError> for CliError {
    fn from(e: paraspace_core::SimError) -> Self {
        CliError(e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(e.to_string())
    }
}

impl From<JournalError> for CliError {
    fn from(e: JournalError) -> Self {
        CliError(e.to_string())
    }
}

impl From<StochasticError> for CliError {
    fn from(e: StochasticError) -> Self {
        CliError(e.to_string())
    }
}

impl From<CampaignError> for CliError {
    fn from(e: CampaignError) -> Self {
        CliError(e.to_string())
    }
}

/// The usage text.
pub const USAGE: &str = "\
paraspace-cli — accelerated analysis of biological parameter spaces

USAGE:
  paraspace-cli simulate <model_dir> [--engine NAME] [--out DIR] [--batch N]
                           [--rtol X] [--atol X] [--threads N]
                           [--lane-width auto|N]
                           [--max-retries N] [--member-budget STEPS]
                           [--checkpoint-dir DIR] [--shard-size N]
                           [--workers N] [--listen ADDR]
                           [--pack-shards|--no-pack-shards]
                           [--lease-ttl MS] [--retry-base MS]
  paraspace-cli ensemble <model_dir> [--simulator NAME] [--replicates N]
                           [--seed S] [--member M] [--threads N]
                           [--lane-width auto|N] [--out DIR]
                           [--checkpoint-dir DIR] [--shard-size N]
  paraspace-cli pe <model_dir> [--optimizer pso|lbfgs|hybrid] [--engine NAME]
                           [--unknown I,J,...] [--log-radius R]
                           [--observed NAME,NAME,...] [--target FILE]
                           [--rtol X] [--atol X] [--threads N]
                           [--iterations N] [--swarm N]
                           [--grad-iterations N] [--starts N] [--seed S]
                           [--out DIR] [--checkpoint-dir DIR]
  paraspace-cli resume <checkpoint_dir> [--workers N]
  paraspace-cli worker <checkpoint_dir> [--worker-id ID]
  paraspace-cli worker --connect HOST:PORT [--worker-id ID]
  paraspace-cli coordinate <checkpoint_dir> [--workers N] [--listen ADDR]
  paraspace-cli convert <from> <to>          (BioSimWare dir ↔ .xml)
  paraspace-cli generate --species N --reactions M [--seed S] <out_dir>
  paraspace-cli recommend --species N --reactions M --sims S
  paraspace-cli help

ENGINES: fine-coarse (default) | coarse | fine | lsoda | vode

--threads runs the batch numerics on N host workers (default 1; 0 = one per
core). Results are bitwise identical at any thread count.

--lane-width controls the lockstep lane grouping of the fine-coarse engine:
`auto` (default) runs the explicit DOPRI5 lanes at width 8 and prices each
model's flux-vs-LU cost ratio and factor working set to pick the stiff
lanes' width, while an explicit N pins both (1 forces the all-scalar path).
Other engines ignore the flag; `fine` is the published one-simulation-at-a-
time RKF45 -> BDF1 baseline at any width. Results are bitwise identical at
any width.

Failed members never abort a batch: each failure is contained, itemized in
the health summary, and written as a .err file (with the member's full
recovery log and failure taxonomy). --max-retries N re-runs a failed member
up to N times with 10x-relaxed tolerances (default 0 = off);
--member-budget caps the attempted integration steps any one member may
spend across all retries, so a pathological member cannot stall the batch.

`ensemble` runs --replicates stochastic realizations (default 100) of the
model. SIMULATORS: tau-leaping (default, lockstep lane groups on
mass-action models) | ssa (exact direct method, scalar). Every replicate
draws from a counter-based RNG stream keyed by (--seed, --member,
replicate index), so trajectories are bitwise identical at any lane width,
thread count, or shard decomposition; per-replicate trajectories, failed
replicates (.err), and ensemble mean/variance are written to --out.
--lane-width auto (default) runs the tau-leaping lanes at the full width 8;
an explicit N pins it (1 forces the scalar path).
NOTE: seeds that predate the counter-based streams reproduce different
ensembles (the old layout seeded replicate i with seed+i).

--checkpoint-dir makes the run durable: the batch decomposes into numbered
shards (--shard-size members each, default 64), every completed shard is
committed to a write-ahead journal in DIR, Ctrl-C drains in-flight work and
checkpoints, and `paraspace-cli resume DIR` continues from the last
committed shard. Output files are written only once all shards commit and
are byte-identical to an uninterrupted run. Resume refuses a checkpoint
whose model, tolerances, engine, thread, or lane-width configuration
changed.

--workers N turns a durable `simulate` into a fault-tolerant multi-process
run: the parent becomes the coordinator and spawns N `worker` processes
that claim shard leases against the shared checkpoint directory. A worker
that is SIGKILLed, hangs, or stalls misses its heartbeat deadline; its
shard is reassigned after a capped exponential backoff, and a shard that
kills several distinct workers is quarantined (journaled as a poisoned
outcome with its failure taxonomy; the campaign completes degraded).
Workers may also be attached by hand (`paraspace-cli worker DIR`, e.g.
from other terminals) against a `coordinate DIR` process. Artifacts are
byte-identical to a single-process run at any worker count, crash
pattern, or reassignment order. Worker count is not world-defining:
resume with any --workers value.

--listen ADDR serves the same lease lifecycle over TCP: spawned children
connect to the bound port instead of sharing the checkpoint directory,
and remote machines attach with `paraspace-cli worker --connect
HOST:PORT` (the model directory named in the manifest must be readable
at the same path there). Transport is at-least-once with
timeout/retry/backoff on every RPC; the merge stays exactly-once by
determinism, so artifacts remain byte-identical under drops, duplicates,
reconnects, and partitions. A partitioned worker keeps computing its
claimed shard and replays unacknowledged records on reconnect; a worker
silent past the TTL is presumed dead and its shard reassigned.

`pe` calibrates unknown rate constants (--unknown reaction indices,
default all; searched within --log-radius decades of their current
values, default 1.5) against target dynamics: --target FILE in the
`simulate` output format, or — with no --target — a self-calibration
benchmark against the model's own constants. OPTIMIZERS: pso (the
published derivative-free FST-PSO, one ODE solve per particle per
generation) | lbfgs (multi-start projected L-BFGS on exact
forward-sensitivity gradients — typically orders of magnitude fewer
solves) | hybrid (default: a short swarm finds the basin, L-BFGS
polishes). With --checkpoint-dir the search is durable: every swarm
generation / gradient evaluation is journaled, `resume DIR` continues
mid-search bitwise, and resuming under a different optimizer or search
configuration is refused (same contract as --lane-width).

--pack-shards packs stiff members into small shards and non-stiff
members into full --shard-size shards (cost-model load balancing);
--no-pack-shards forces uniform ascending chunks. Default: packed when
--workers > 1, uniform otherwise. The plan is pinned in the manifest, so
a resume keeps the original packing whatever its own flags.

--lease-ttl MS (default 2000) and --retry-base MS (default 100) set the
heartbeat deadline and the reassignment backoff base. Both are journaled
in the manifest: a resume with different timing is refused, because a
shorter TTL would turn the previous incarnation's live workers into
false expiries.";

/// Members per journaled shard unless `--shard-size` overrides it.
pub const DEFAULT_SHARD_SIZE: usize = 64;

/// Lease heartbeat TTL unless `--lease-ttl` overrides it.
pub const DEFAULT_LEASE_TTL_MS: u64 = 2000;

/// Reassignment retry-backoff base unless `--retry-base` overrides it.
pub const DEFAULT_RETRY_BASE_MS: u64 = 100;

fn engine_by_name(
    name: &str,
    threads: usize,
    lane_width: Option<usize>,
    recovery: RecoveryPolicy,
    cancel: &CancelToken,
) -> Result<Box<dyn Simulator>, CliError> {
    let host = Host { executor: Executor::new(threads), recovery, cancel: cancel.clone() };
    // `--lane-width` only reaches the lockstep engine; the fine, coarse and
    // CPU engines have no lane schedule to pin.
    Ok(match (name, lane_width) {
        ("fine-coarse", None) => Box::new(FineCoarseEngine::new().with_host(host)),
        ("fine-coarse", Some(w)) => {
            Box::new(FineCoarseEngine::new().with_host(host).with_lane_width(w))
        }
        ("fine", _) => Box::new(FineEngine::new().with_host(host)),
        ("coarse", _) => Box::new(CoarseEngine::new().with_host(host)),
        ("lsoda", _) => Box::new(CpuEngine::new(CpuSolverKind::Lsoda).with_host(host)),
        ("vode", _) => Box::new(CpuEngine::new(CpuSolverKind::Vode).with_host(host)),
        (other, _) => return Err(CliError(format!("unknown engine {other:?}"))),
    })
}

/// Creates the directory `flag` names, parents included, before anything
/// is computed for it.
/// The sample times of a model directory that has no `t_vector`.
const DEFAULT_TIME_POINTS: [f64; 4] = [1.0, 2.0, 5.0, 10.0];

/// The model directory's `t_vector`, or [`DEFAULT_TIME_POINTS`] when there
/// is none. A `t_vector` that is there but cannot be read or parsed is an
/// error naming it, as for `c_matrix` and `MX_0`: the campaign must not run
/// at times nobody asked for.
fn read_time_points(model_dir: &Path) -> Result<Vec<f64>, CliError> {
    let path = model_dir.join("t_vector");
    match std::fs::metadata(&path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(DEFAULT_TIME_POINTS.to_vec()),
        _ => biosimware::read_time_points(model_dir)
            .map_err(|e| CliError(format!("{}: {e}", path.display()))),
    }
}

fn create_dir_for(flag: &str, path: &Path) -> Result<(), CliError> {
    std::fs::create_dir_all(path)
        .map_err(|e| CliError(format!("cannot create {flag} directory {}: {e}", path.display())))
}

/// Executes a parsed command, writing human-readable progress to `out`.
///
/// Equivalent to [`execute_with_cancel`] with a fresh (never-tripped)
/// cancellation token.
///
/// # Errors
///
/// Any I/O, parse, or engine failure, with a user-facing message.
pub fn execute(cmd: &Command, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    execute_with_cancel(cmd, out, &CancelToken::new())
}

/// Executes a parsed command under a cancellation token (the binary wires
/// SIGINT to it). On the durable path a tripped token drains in-flight
/// work, checkpoints, and returns an "interrupted" error naming the resume
/// command.
///
/// # Errors
///
/// Any I/O, parse, or engine failure, with a user-facing message.
pub fn execute_with_cancel(
    cmd: &Command,
    out: &mut dyn std::io::Write,
    cancel: &CancelToken,
) -> Result<(), CliError> {
    match cmd {
        Command::Help => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        Command::Recommend { species, reactions, sims } => {
            let pick = recommend_engine(*species, *reactions, *sims);
            writeln!(
                out,
                "recommended engine for {species}x{reactions} model, {sims} simulations: {pick}"
            )?;
            Ok(())
        }
        Command::Generate { species, reactions, seed, out_dir } => {
            let mut rng = StdRng::seed_from_u64(*seed);
            let model = SbGen::new(*species, *reactions).generate(&mut rng);
            biosimware::write_dir(&model, out_dir)?;
            biosimware::write_time_points(&DEFAULT_TIME_POINTS, out_dir)?;
            writeln!(
                out,
                "wrote {}x{} model (seed {seed}) to {}",
                model.n_species(),
                model.n_reactions(),
                out_dir.display()
            )?;
            Ok(())
        }
        Command::Convert { from, to } => {
            let from_is_xml = from.extension().is_some_and(|e| e == "xml");
            let to_is_xml = to.extension().is_some_and(|e| e == "xml");
            match (from_is_xml, to_is_xml) {
                (true, false) => {
                    let doc = std::fs::read_to_string(from)?;
                    let model = sbml::from_str(&doc)?;
                    biosimware::write_dir(&model, to)?;
                    writeln!(
                        out,
                        "SBML → BioSimWare: {} species, {} reactions",
                        model.n_species(),
                        model.n_reactions()
                    )?;
                }
                (false, true) => {
                    let model = biosimware::read_dir(from)?;
                    std::fs::write(to, sbml::to_string(&model))?;
                    writeln!(
                        out,
                        "BioSimWare → SBML: {} species, {} reactions",
                        model.n_species(),
                        model.n_reactions()
                    )?;
                }
                _ => return Err(CliError("exactly one side must be an .xml file".into())),
            }
            Ok(())
        }
        Command::Simulate { checkpoint_dir, workers, listen, .. } => {
            if let Some(dir) = checkpoint_dir {
                create_dir_for("--checkpoint-dir", dir)?;
            }
            let world = SimulateWorld::load(cmd)?;
            let checkpoint =
                checkpoint_dir.as_ref().map(|dir| Checkpoint::new(dir).with_cancel(cancel.clone()));
            match &checkpoint {
                Some(checkpoint) if *workers > 0 || listen.is_some() => {
                    coordinate_processes(&world, checkpoint, *workers, listen.as_deref(), out)
                }
                _ => simulate(world, checkpoint.as_ref(), out, cancel),
            }
        }
        Command::Worker {
            checkpoint_dir,
            connect,
            worker_id,
            chaos_kill_at,
            chaos_torn_write,
            chaos_suppress_at,
        } => {
            let chaos = WorkerChaos {
                kill_at_ordinal: *chaos_kill_at,
                torn_write_on_kill: *chaos_torn_write,
                suppress_heartbeat_at: *chaos_suppress_at,
                ..WorkerChaos::default()
            };
            let id = worker_id.as_deref();
            run_worker(checkpoint_dir.as_deref(), connect.as_deref(), id, &chaos, out, cancel)
        }
        Command::Coordinate { checkpoint_dir, workers, listen } => {
            run_coordinator(checkpoint_dir, *workers, listen.as_deref(), out, cancel)
        }
        Command::Ensemble { simulator, .. } => match simulator.as_str() {
            "tau-leaping" => run_ensemble(TauLeaping::new(), cmd, out, cancel),
            "ssa" => run_ensemble(DirectMethod::new(), cmd, out, cancel),
            other => Err(CliError(format!(
                "unknown simulator {other:?} (expected `tau-leaping` or `ssa`)"
            ))),
        },
        Command::Pe { .. } => run_pe(cmd, out, cancel),
        Command::Resume { checkpoint_dir, workers } => {
            let manifest = read_manifest(checkpoint_dir)?;
            let cmd = command_from_manifest(&manifest, checkpoint_dir, *workers)?;
            execute_with_cancel(&cmd, out, cancel)
        }
    }
}

/// Prints what an interrupted campaign committed and turns the error into
/// the resume hint; every other campaign error passes through.
fn campaign_error(e: CampaignError, dir: Option<&Path>, out: &mut dyn std::io::Write) -> CliError {
    match (&e, dir) {
        (CampaignError::Interrupted { completed, shards, .. }, Some(dir)) => {
            let dir = dir.display();
            match writeln!(out, "interrupted: {completed}/{shards} shards committed to {dir}") {
                Ok(()) => {
                    CliError(format!("interrupted — resume with `paraspace-cli resume {dir}`"))
                }
                Err(io) => io.into(),
            }
        }
        _ => e.into(),
    }
}

/// Prints what a finished campaign's journal replayed and executed.
fn report_checkpoint(out: &mut dyn std::io::Write, report: &ShardReport) -> std::io::Result<()> {
    writeln!(
        out,
        "checkpoint: {} shards ({} replayed, {} executed{})",
        report.recovered + report.executed,
        report.recovered,
        report.executed,
        if report.truncated_bytes > 0 {
            format!(", {} torn bytes truncated", report.truncated_bytes)
        } else {
            String::new()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraspace_journal::CampaignManifest;

    pub(crate) fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn end_to_end_convert_roundtrip() {
        let dir = std::env::temp_dir().join(format!("paraspace_cli_conv_{}", std::process::id()));
        let xml = dir.with_extension("xml");
        std::fs::remove_dir_all(&dir).ok();
        let mut log = Vec::new();
        execute(
            &Command::Generate { species: 5, reactions: 6, seed: 1, out_dir: dir.clone() },
            &mut log,
        )
        .unwrap();
        execute(&Command::Convert { from: dir.clone(), to: xml.clone() }, &mut log).unwrap();
        let dir2 =
            dir.with_file_name(format!("{}_back", dir.file_name().unwrap().to_string_lossy()));
        execute(&Command::Convert { from: xml.clone(), to: dir2.clone() }, &mut log).unwrap();
        let a = paraspace_rbm::biosimware::read_dir(&dir).unwrap();
        let b = paraspace_rbm::biosimware::read_dir(&dir2).unwrap();
        assert_eq!(a.n_species(), b.n_species());
        assert_eq!(a.n_reactions(), b.n_reactions());
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
        std::fs::remove_file(&xml).ok();
    }

    #[test]
    fn unknown_engine_is_reported() {
        let err = match engine_by_name(
            "quantum",
            1,
            None,
            RecoveryPolicy::default(),
            &CancelToken::new(),
        ) {
            Err(e) => e,
            Ok(_) => panic!("unknown engine must be rejected"),
        };
        assert!(err.to_string().contains("quantum"));
    }

    pub(crate) fn read_outputs(out_dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(out_dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap())
            })
            .collect()
    }

    /// What `resume` must rebuild from a checkpoint of `cmd`: the command
    /// itself, attached to the checkpoint directory it is resumed from.
    pub(crate) fn resumed(cmd: &Command, dir: &Path, resumed_workers: usize) -> Command {
        let mut cmd = cmd.clone();
        match &mut cmd {
            Command::Simulate { checkpoint_dir, workers, listen, .. } => {
                *checkpoint_dir = Some(dir.to_path_buf());
                *workers = resumed_workers;
                *listen = None;
            }
            Command::Ensemble { checkpoint_dir, .. } | Command::Pe { checkpoint_dir, .. } => {
                *checkpoint_dir = Some(dir.to_path_buf());
            }
            other => panic!("not a campaign command: {other:?}"),
        }
        cmd
    }

    /// A manifest with some `field.<key>` lines rewritten (`None` drops the
    /// line), via its text form.
    pub(crate) fn edit_manifest(
        manifest: &CampaignManifest,
        edits: &[(&str, Option<&str>)],
    ) -> CampaignManifest {
        let mut text = String::new();
        for line in manifest.to_text().lines() {
            let edit = edits.iter().find(|(key, _)| line.starts_with(&format!("field.{key}=")));
            match edit {
                None => text.push_str(&format!("{line}\n")),
                Some((key, Some(value))) => text.push_str(&format!("field.{key}={value}\n")),
                Some((_, None)) => {}
            }
        }
        CampaignManifest::from_text(&text).unwrap()
    }

    #[test]
    fn a_directory_without_a_manifest_is_not_a_checkpoint() {
        let dir = std::env::temp_dir().join(format!("paraspace_cli_nockpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let d = dir.display();
        for args in [format!("resume {d}"), format!("coordinate {d}"), format!("worker {d}")] {
            let err = execute(&parse(&argv(&args)).unwrap(), &mut Vec::new()).unwrap_err();
            let manifest = dir.join(paraspace_journal::MANIFEST_FILE);
            assert!(err.0.contains(&format!("{d} is not a campaign checkpoint")), "{args}: {err}");
            assert!(err.0.contains(&manifest.display().to_string()), "{args}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recommend_prints_engine() {
        let mut log = Vec::new();
        execute(&Command::Recommend { species: 64, reactions: 64, sims: 512 }, &mut log).unwrap();
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("fine-coarse"));
    }
}
