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
//! * `convert` — BioSimWare directory ↔ SBML document;
//! * `generate` — emit an SBGen-style synthetic model;
//! * `recommend` — print the published engine recommendation for a
//!   (species, reactions, simulations) triple.

use paraspace_analysis::campaign::{
    f64s_digest, model_digest, options_digest, CampaignError, Checkpoint, ShardLog, ShardRecord,
    ShardReport,
};
use paraspace_analysis::dispatch::{
    coordinate, pack_shards, uniform_shards, worker_loop, DispatchConfig, TickDirective,
    WorkerChaos,
};
use paraspace_analysis::ensemble;
use paraspace_analysis::fitness::FailedMemberPolicy;
use paraspace_analysis::gradient::GradientConfig;
use paraspace_analysis::pe::{estimate_with, EstimationProblem, Optimizer};
use paraspace_analysis::pso::PsoConfig;
pub use paraspace_core::CancelToken;
use paraspace_core::{
    recommend_engine, taxonomy, BatchHealth, BatchTiming, CoarseEngine, CpuEngine, CpuSolverKind,
    Executor, FineCoarseEngine, FineEngine, Host, RecoveryLog, RecoveryPolicy, SimOutcome,
    SimulationJob, Simulator,
};
use paraspace_journal::codec::{Dec, Enc};
use paraspace_journal::lease::{FileStore, LeaseConfig, LeaseStore, RetryState};
use paraspace_journal::{CampaignManifest, Journal, JournalError, MANIFEST_FILE};
use paraspace_rbm::ReactionBasedModel;
use paraspace_rbm::{biosimware, sbgen::SbGen, sbml, Parameterization};
use paraspace_solvers::{Solution, SolverOptions};
use paraspace_stochastic::{
    DirectMethod, EnsembleStats, StochasticBatch, StochasticError, StochasticSimulator,
    StochasticTrajectory, TauLeaping,
};
use paraspace_transport::client::{ClientOptions, WorkerClient};
use paraspace_transport::server::{CoordinatorServer, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

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
        /// Lockstep lane width: `None` autotunes per model, `Some(n)` pins
        /// it (`1` forces the scalar path). Results are bitwise identical
        /// at any setting.
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
        /// Lockstep lane width for tau-leaping: `None` autotunes per
        /// model, `Some(n)` pins it (`1` forces the scalar path).
        /// Replicate trajectories are bitwise identical at any setting.
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

--lane-width controls the lockstep lane grouping of the fine and fine-coarse
engines: `auto` (default) runs the explicit DOPRI5 lanes at width 8 and
prices each model's flux-vs-LU cost ratio and factor working set to pick
the stiff lanes' width, while an explicit N pins both (1 forces the
all-scalar path). Other engines ignore the flag. Results are bitwise
identical at any width.

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

fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    i: &mut usize,
    name: &str,
) -> Result<T, CliError> {
    *i += 1;
    let v = args.get(*i).ok_or_else(|| CliError(format!("{name} needs a value")))?;
    v.parse().map_err(|_| CliError(format!("invalid value for {name}: {v:?}")))
}

/// Parses `--lane-width auto|N`: `None` autotunes, `Some(n >= 1)` pins.
fn parse_lane_width(args: &[String], i: &mut usize) -> Result<Option<usize>, CliError> {
    match parse_flag::<String>(args, i, "--lane-width")?.as_str() {
        "auto" => Ok(None),
        v => v.parse().ok().filter(|w| *w >= 1).map(Some).ok_or_else(|| {
            CliError(format!(
                "invalid value for --lane-width: {v:?} (expected `auto` or a width >= 1)"
            ))
        }),
    }
}

/// Parses a comma-separated index list (`0,3,5`) for flags that select
/// reactions by position.
fn parse_index_list(v: &str, name: &str) -> Result<Vec<usize>, CliError> {
    v.split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .map_err(|_| CliError(format!("invalid value for {name}: {v:?}")))
        })
        .collect()
}

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns a user-facing message for unknown commands, missing operands, or
/// malformed flag values.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let cmd = match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => return Ok(Command::Help),
        Some(c) => c,
    };
    match cmd {
        "simulate" => {
            let mut model_dir = None;
            let mut engine = "fine-coarse".to_string();
            let mut out_dir = None;
            let mut batch = 1usize;
            let mut rtol = 1e-6;
            let mut atol = 1e-12;
            let mut threads = 1usize;
            let mut lane_width = None;
            let mut max_retries = 0usize;
            let mut member_budget = None;
            let mut checkpoint_dir = None;
            let mut shard_size = DEFAULT_SHARD_SIZE;
            let mut workers = 0usize;
            let mut pack = None;
            let mut lease_ttl = DEFAULT_LEASE_TTL_MS;
            let mut retry_base = DEFAULT_RETRY_BASE_MS;
            let mut listen = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--engine" => engine = parse_flag(args, &mut i, "--engine")?,
                    "--out" => out_dir = Some(parse_flag(args, &mut i, "--out")?),
                    "--batch" => batch = parse_flag(args, &mut i, "--batch")?,
                    "--rtol" => rtol = parse_flag(args, &mut i, "--rtol")?,
                    "--atol" => atol = parse_flag(args, &mut i, "--atol")?,
                    "--threads" => threads = parse_flag(args, &mut i, "--threads")?,
                    "--lane-width" => lane_width = parse_lane_width(args, &mut i)?,
                    "--max-retries" => max_retries = parse_flag(args, &mut i, "--max-retries")?,
                    "--member-budget" => {
                        member_budget = Some(parse_flag(args, &mut i, "--member-budget")?)
                    }
                    "--checkpoint-dir" => {
                        checkpoint_dir = Some(parse_flag(args, &mut i, "--checkpoint-dir")?)
                    }
                    "--shard-size" => shard_size = parse_flag(args, &mut i, "--shard-size")?,
                    "--workers" => workers = parse_flag(args, &mut i, "--workers")?,
                    "--pack-shards" => pack = Some(true),
                    "--no-pack-shards" => pack = Some(false),
                    "--lease-ttl" => lease_ttl = parse_flag(args, &mut i, "--lease-ttl")?,
                    "--retry-base" => retry_base = parse_flag(args, &mut i, "--retry-base")?,
                    "--listen" => listen = Some(parse_flag(args, &mut i, "--listen")?),
                    other if !other.starts_with("--") && model_dir.is_none() => {
                        model_dir = Some(PathBuf::from(other));
                    }
                    other => return Err(CliError(format!("unexpected argument {other:?}"))),
                }
                i += 1;
            }
            if workers > 0 && checkpoint_dir.is_none() {
                return Err(CliError("--workers needs --checkpoint-dir".into()));
            }
            if listen.is_some() && checkpoint_dir.is_none() {
                return Err(CliError("--listen needs --checkpoint-dir".into()));
            }
            if lease_ttl == 0 || retry_base == 0 {
                return Err(CliError("--lease-ttl and --retry-base must be positive".into()));
            }
            Ok(Command::Simulate {
                model_dir: model_dir
                    .ok_or_else(|| CliError("simulate needs a model directory".into()))?,
                engine,
                out_dir,
                batch,
                rtol,
                atol,
                threads,
                lane_width,
                max_retries,
                member_budget,
                checkpoint_dir,
                shard_size,
                workers,
                pack,
                lease_ttl,
                retry_base,
                listen,
            })
        }
        "ensemble" => {
            let mut model_dir = None;
            let mut simulator = "tau-leaping".to_string();
            let mut out_dir = None;
            let mut replicates = 100usize;
            let mut seed = 0u64;
            let mut member = 0u64;
            let mut threads = 1usize;
            let mut lane_width = None;
            let mut checkpoint_dir = None;
            let mut shard_size = DEFAULT_SHARD_SIZE;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--simulator" => simulator = parse_flag(args, &mut i, "--simulator")?,
                    "--out" => out_dir = Some(parse_flag(args, &mut i, "--out")?),
                    "--replicates" => replicates = parse_flag(args, &mut i, "--replicates")?,
                    "--seed" => seed = parse_flag(args, &mut i, "--seed")?,
                    "--member" => member = parse_flag(args, &mut i, "--member")?,
                    "--threads" => threads = parse_flag(args, &mut i, "--threads")?,
                    "--lane-width" => lane_width = parse_lane_width(args, &mut i)?,
                    "--checkpoint-dir" => {
                        checkpoint_dir = Some(parse_flag(args, &mut i, "--checkpoint-dir")?)
                    }
                    "--shard-size" => shard_size = parse_flag(args, &mut i, "--shard-size")?,
                    other if !other.starts_with("--") && model_dir.is_none() => {
                        model_dir = Some(PathBuf::from(other));
                    }
                    other => return Err(CliError(format!("unexpected argument {other:?}"))),
                }
                i += 1;
            }
            Ok(Command::Ensemble {
                model_dir: model_dir
                    .ok_or_else(|| CliError("ensemble needs a model directory".into()))?,
                simulator,
                out_dir,
                replicates,
                seed,
                member,
                threads,
                lane_width,
                checkpoint_dir,
                shard_size,
            })
        }
        "pe" => {
            let mut model_dir = None;
            let mut optimizer = "hybrid".to_string();
            let mut engine = "lsoda".to_string();
            let mut unknown = None;
            let mut log_radius = 1.5f64;
            let mut observed = None;
            let mut target = None;
            let mut rtol = 1e-6;
            let mut atol = 1e-12;
            let mut threads = 1usize;
            let mut iterations = 40usize;
            let mut swarm = None;
            let mut grad_iterations = 60usize;
            let mut starts = 3usize;
            let mut seed = 42u64;
            let mut out_dir = None;
            let mut checkpoint_dir = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--optimizer" => optimizer = parse_flag(args, &mut i, "--optimizer")?,
                    "--engine" => engine = parse_flag(args, &mut i, "--engine")?,
                    "--unknown" => {
                        let v: String = parse_flag(args, &mut i, "--unknown")?;
                        unknown = Some(parse_index_list(&v, "--unknown")?);
                    }
                    "--log-radius" => log_radius = parse_flag(args, &mut i, "--log-radius")?,
                    "--observed" => {
                        let v: String = parse_flag(args, &mut i, "--observed")?;
                        observed = Some(v.split(',').map(|s| s.trim().to_string()).collect());
                    }
                    "--target" => target = Some(parse_flag(args, &mut i, "--target")?),
                    "--rtol" => rtol = parse_flag(args, &mut i, "--rtol")?,
                    "--atol" => atol = parse_flag(args, &mut i, "--atol")?,
                    "--threads" => threads = parse_flag(args, &mut i, "--threads")?,
                    "--iterations" => iterations = parse_flag(args, &mut i, "--iterations")?,
                    "--swarm" => swarm = Some(parse_flag(args, &mut i, "--swarm")?),
                    "--grad-iterations" => {
                        grad_iterations = parse_flag(args, &mut i, "--grad-iterations")?
                    }
                    "--starts" => starts = parse_flag(args, &mut i, "--starts")?,
                    "--seed" => seed = parse_flag(args, &mut i, "--seed")?,
                    "--out" => out_dir = Some(parse_flag(args, &mut i, "--out")?),
                    "--checkpoint-dir" => {
                        checkpoint_dir = Some(parse_flag(args, &mut i, "--checkpoint-dir")?)
                    }
                    other if !other.starts_with("--") && model_dir.is_none() => {
                        model_dir = Some(PathBuf::from(other));
                    }
                    other => return Err(CliError(format!("unexpected argument {other:?}"))),
                }
                i += 1;
            }
            if !matches!(optimizer.as_str(), "pso" | "lbfgs" | "hybrid") {
                return Err(CliError(format!(
                    "unknown optimizer {optimizer:?} (expected `pso`, `lbfgs`, or `hybrid`)"
                )));
            }
            if !(log_radius.is_finite() && log_radius > 0.0) {
                return Err(CliError("--log-radius must be a positive number".into()));
            }
            if starts == 0 {
                return Err(CliError("--starts must be at least 1".into()));
            }
            Ok(Command::Pe {
                model_dir: model_dir
                    .ok_or_else(|| CliError("pe needs a model directory".into()))?,
                optimizer,
                engine,
                unknown,
                log_radius,
                observed,
                target,
                rtol,
                atol,
                threads,
                iterations,
                swarm,
                grad_iterations,
                starts,
                seed,
                out_dir,
                checkpoint_dir,
            })
        }
        "resume" => {
            let mut checkpoint_dir = None;
            let mut workers = 0usize;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--workers" => workers = parse_flag(args, &mut i, "--workers")?,
                    other if !other.starts_with("--") && checkpoint_dir.is_none() => {
                        checkpoint_dir = Some(PathBuf::from(other));
                    }
                    other => return Err(CliError(format!("unexpected argument {other:?}"))),
                }
                i += 1;
            }
            Ok(Command::Resume {
                checkpoint_dir: checkpoint_dir
                    .ok_or_else(|| CliError("resume needs a checkpoint directory".into()))?,
                workers,
            })
        }
        "worker" => {
            let mut checkpoint_dir = None;
            let mut connect = None;
            let mut worker_id = None;
            let mut chaos_kill_at = None;
            let mut chaos_torn_write = false;
            let mut chaos_suppress_at = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--connect" => connect = Some(parse_flag(args, &mut i, "--connect")?),
                    "--worker-id" => worker_id = Some(parse_flag(args, &mut i, "--worker-id")?),
                    "--chaos-kill-at" => {
                        chaos_kill_at = Some(parse_flag(args, &mut i, "--chaos-kill-at")?)
                    }
                    "--chaos-torn-write" => chaos_torn_write = true,
                    "--chaos-suppress-at" => {
                        chaos_suppress_at = Some(parse_flag(args, &mut i, "--chaos-suppress-at")?)
                    }
                    other if !other.starts_with("--") && checkpoint_dir.is_none() => {
                        checkpoint_dir = Some(PathBuf::from(other));
                    }
                    other => return Err(CliError(format!("unexpected argument {other:?}"))),
                }
                i += 1;
            }
            if checkpoint_dir.is_none() && connect.is_none() {
                return Err(CliError(
                    "worker needs a checkpoint directory or --connect HOST:PORT".into(),
                ));
            }
            if checkpoint_dir.is_some() && connect.is_some() {
                return Err(CliError(
                    "worker takes either a checkpoint directory or --connect, not both".into(),
                ));
            }
            Ok(Command::Worker {
                checkpoint_dir,
                connect,
                worker_id,
                chaos_kill_at,
                chaos_torn_write,
                chaos_suppress_at,
            })
        }
        "coordinate" => {
            let mut checkpoint_dir = None;
            let mut workers = 0usize;
            let mut listen = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--workers" => workers = parse_flag(args, &mut i, "--workers")?,
                    "--listen" => listen = Some(parse_flag(args, &mut i, "--listen")?),
                    other if !other.starts_with("--") && checkpoint_dir.is_none() => {
                        checkpoint_dir = Some(PathBuf::from(other));
                    }
                    other => return Err(CliError(format!("unexpected argument {other:?}"))),
                }
                i += 1;
            }
            Ok(Command::Coordinate {
                checkpoint_dir: checkpoint_dir
                    .ok_or_else(|| CliError("coordinate needs a checkpoint directory".into()))?,
                workers,
                listen,
            })
        }
        "convert" => {
            if args.len() != 3 {
                return Err(CliError("convert needs exactly <from> and <to>".into()));
            }
            Ok(Command::Convert { from: PathBuf::from(&args[1]), to: PathBuf::from(&args[2]) })
        }
        "generate" => {
            let mut species = None;
            let mut reactions = None;
            let mut seed = 42u64;
            let mut out_dir = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--species" => species = Some(parse_flag(args, &mut i, "--species")?),
                    "--reactions" => reactions = Some(parse_flag(args, &mut i, "--reactions")?),
                    "--seed" => seed = parse_flag(args, &mut i, "--seed")?,
                    other if !other.starts_with("--") && out_dir.is_none() => {
                        out_dir = Some(PathBuf::from(other));
                    }
                    other => return Err(CliError(format!("unexpected argument {other:?}"))),
                }
                i += 1;
            }
            Ok(Command::Generate {
                species: species.ok_or_else(|| CliError("generate needs --species".into()))?,
                reactions: reactions
                    .ok_or_else(|| CliError("generate needs --reactions".into()))?,
                seed,
                out_dir: out_dir
                    .ok_or_else(|| CliError("generate needs an output directory".into()))?,
            })
        }
        "recommend" => {
            let mut species = None;
            let mut reactions = None;
            let mut sims = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--species" => species = Some(parse_flag(args, &mut i, "--species")?),
                    "--reactions" => reactions = Some(parse_flag(args, &mut i, "--reactions")?),
                    "--sims" => sims = Some(parse_flag(args, &mut i, "--sims")?),
                    other => return Err(CliError(format!("unexpected argument {other:?}"))),
                }
                i += 1;
            }
            Ok(Command::Recommend {
                species: species.ok_or_else(|| CliError("recommend needs --species".into()))?,
                reactions: reactions
                    .ok_or_else(|| CliError("recommend needs --reactions".into()))?,
                sims: sims.ok_or_else(|| CliError("recommend needs --sims".into()))?,
            })
        }
        other => Err(CliError(format!("unknown command {other:?} (try `paraspace help`)"))),
    }
}

/// Members per journaled shard unless `--shard-size` overrides it.
pub const DEFAULT_SHARD_SIZE: usize = 64;

/// Lease heartbeat TTL unless `--lease-ttl` overrides it.
pub const DEFAULT_LEASE_TTL_MS: u64 = 2000;

/// Reassignment retry-backoff base unless `--retry-base` overrides it.
pub const DEFAULT_RETRY_BASE_MS: u64 = 100;

/// The most worker children one coordinator process tracks for SIGINT
/// reaping. Spawns beyond this still run; they just rely on lease TTL
/// expiry if the coordinator dies (the pre-registry behaviour).
const MAX_REGISTERED_CHILDREN: usize = 64;

/// Pids of live spawned worker children, published for the binary's
/// SIGINT handler: a handler cannot touch `Child` handles, locks, or the
/// allocator, but it can read this array and issue `kill(2)`. Slot value
/// 0 means empty.
static CHILD_PIDS: [std::sync::atomic::AtomicU32; MAX_REGISTERED_CHILDREN] =
    [const { std::sync::atomic::AtomicU32::new(0) }; MAX_REGISTERED_CHILDREN];

fn register_child(pid: u32) {
    use std::sync::atomic::Ordering;
    for slot in &CHILD_PIDS {
        if slot.compare_exchange(0, pid, Ordering::Relaxed, Ordering::Relaxed).is_ok() {
            return;
        }
    }
}

fn unregister_child(pid: u32) {
    use std::sync::atomic::Ordering;
    for slot in &CHILD_PIDS {
        let _ = slot.compare_exchange(pid, 0, Ordering::Relaxed, Ordering::Relaxed);
    }
}

/// SIGKILLs every registered worker child. Async-signal-safe (atomic
/// loads plus the `kill` syscall, no allocation, no locks), so the
/// binary's SIGINT handler calls it directly: a coordinator dying to
/// Ctrl-C or a panic must not leave orphan workers holding leases until
/// the TTL expires them one by one.
pub fn kill_registered_children() {
    #[cfg(unix)]
    {
        use std::sync::atomic::Ordering;
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGKILL: i32 = 9;
        for slot in &CHILD_PIDS {
            let pid = slot.load(Ordering::Relaxed);
            if pid != 0 {
                unsafe {
                    kill(pid as i32, SIGKILL);
                }
            }
        }
    }
}

/// Spawned worker children, registered for SIGINT reaping on push and
/// killed + reaped on drop — so a coordinator that panics (or returns
/// any error path) never leaves orphans. The success path waits for the
/// children first, making the drop's kill a no-op.
struct Children {
    inner: RefCell<Vec<std::process::Child>>,
}

impl Children {
    fn new() -> Self {
        Children { inner: RefCell::new(Vec::new()) }
    }

    fn push(&self, child: std::process::Child) {
        register_child(child.id());
        self.inner.borrow_mut().push(child);
    }

    /// Drops children that already exited from the registry and the list.
    fn reap_exited(&self) {
        self.inner.borrow_mut().retain_mut(|c| {
            if matches!(c.try_wait(), Ok(Some(_))) {
                unregister_child(c.id());
                false
            } else {
                true
            }
        });
    }

    fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }

    /// Waits for every child to exit on its own (the success path:
    /// children observe campaign completion through the shard log).
    fn wait_all(&self) {
        for c in self.inner.borrow_mut().iter_mut() {
            let _ = c.wait();
            unregister_child(c.id());
        }
        self.inner.borrow_mut().clear();
    }
}

impl Drop for Children {
    fn drop(&mut self) {
        for c in self.inner.get_mut() {
            unregister_child(c.id());
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

fn engine_by_name(
    name: &str,
    threads: usize,
    lane_width: Option<usize>,
    recovery: RecoveryPolicy,
    cancel: &CancelToken,
) -> Result<Box<dyn Simulator>, CliError> {
    let host = Host { executor: Executor::new(threads), recovery, cancel: cancel.clone() };
    // `--lane-width` only reaches the lockstep engines; the coarse and CPU
    // engines have no lane schedule to pin.
    Ok(match (name, lane_width) {
        ("fine-coarse", None) => Box::new(FineCoarseEngine::new().with_host(host)),
        ("fine-coarse", Some(w)) => {
            Box::new(FineCoarseEngine::new().with_host(host).with_lane_width(w))
        }
        ("fine", None) => Box::new(FineEngine::new().with_host(host)),
        ("fine", Some(w)) => Box::new(FineEngine::new().with_host(host).with_lane_width(w)),
        ("coarse", _) => Box::new(CoarseEngine::new().with_host(host)),
        ("lsoda", _) => Box::new(CpuEngine::new(CpuSolverKind::Lsoda).with_host(host)),
        ("vode", _) => Box::new(CpuEngine::new(CpuSolverKind::Vode).with_host(host)),
        (other, _) => return Err(CliError(format!("unknown engine {other:?}"))),
    })
}

/// The `.err` layout: `error`, its taxonomy `label`, the `solver` that
/// produced it and the member's recovery `log`.
fn err_body(error: &dyn fmt::Display, label: &str, solver: &str, log: &RecoveryLog) -> String {
    format!(
        "error: {error}\ntaxonomy: {label}\nsolver: {solver}\nattempts: {}\nrelaxations: {}\nrerouted: {}\nrecovered: {}\npanicked: {}\n",
        log.attempts, log.relaxations, log.rerouted, log.recovered, log.panicked,
    )
}

/// One member's artifact as a journaled shard holds it: the exact bytes
/// its output file will hold (`body`), plus the taxonomy label for failed
/// members (empty for successes) so a resumed run reprints the same
/// failure summary.
struct MemberRecord {
    ok: bool,
    label: String,
    body: String,
}

/// The file of batch member `index`: `dynamics_NNNNN.tsv` for a trajectory,
/// `.err` for a failure report.
fn artifact_path(out_path: &Path, index: usize, ok: bool) -> PathBuf {
    let ext = if ok { "tsv" } else { "err" };
    out_path.join(format!("dynamics_{index:05}.{ext}"))
}

/// Whether a file name is a per-member artifact under `prefix` — one
/// [`artifact_path`] (`dynamics_`) or an ensemble (`replicate_`) produces,
/// for any member.
fn is_member_artifact(name: &std::ffi::OsStr, prefix: &str) -> bool {
    name.to_str()
        .and_then(|name| name.strip_prefix(prefix))
        .and_then(|rest| rest.strip_suffix(".tsv").or_else(|| rest.strip_suffix(".err")))
        .is_some_and(|index| !index.is_empty() && index.bytes().all(|b| b.is_ascii_digit()))
}

/// Removes the `prefix` member artifacts an earlier campaign left in
/// `out_path`, so what the directory holds afterwards is this campaign's
/// batch and nothing else (a smaller batch, or a member that now fails,
/// would otherwise sit beside the old run's files). Other files are not
/// touched.
fn remove_stale_artifacts(out_path: &Path, prefix: &str) -> std::io::Result<()> {
    for entry in std::fs::read_dir(out_path)? {
        let entry = entry?;
        if is_member_artifact(&entry.file_name(), prefix) {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// Creates the directory `flag` names, parents included, before anything
/// is computed for it.
fn create_dir_for(flag: &str, path: &Path) -> Result<(), CliError> {
    std::fs::create_dir_all(path)
        .map_err(|e| CliError(format!("cannot create {flag} directory {}: {e}", path.display())))
}

/// Writes `simulate`'s member artifacts into `--out`, each as it arrives —
/// from the engine's workers on a run with no journal, from the committed
/// records on a journaled one — and tallies them for the summary.
#[derive(Default)]
struct ArtifactFiles {
    out_path: PathBuf,
    /// Clears the previous campaign's artifacts before the first write (a
    /// run that fails or is cancelled writes nobody and leaves them).
    cleared: OnceLock<()>,
    /// Members written per taxonomy label (`""` for successes), and the
    /// first I/O failure, reported after the run.
    tally: Mutex<(std::collections::BTreeMap<String, usize>, Option<std::io::Error>)>,
}

impl ArtifactFiles {
    /// Writes the file of batch member `index`.
    fn put(&self, index: usize, ok: bool, label: &str, body: &str) {
        let written = self
            .clear_stale()
            .and_then(|()| std::fs::write(artifact_path(&self.out_path, index, ok), body));
        let mut tally = self.tally.lock().expect("no writer panics holding the lock");
        *tally.0.entry(label.to_string()).or_default() += 1;
        if let Err(e) = written {
            tally.1.get_or_insert(e);
        }
    }

    fn clear_stale(&self) -> std::io::Result<()> {
        let mut cleared = Ok(());
        self.cleared.get_or_init(|| cleared = remove_stale_artifacts(&self.out_path, "dynamics_"));
        cleared
    }

    /// Prints the summary every `simulate` mode ends with: the billed
    /// clocks summed in shard order and the tally, under `label`. A run
    /// with no journal is one shard the engine reported on itself, so its
    /// name, host wall and `health:` line stand in for `label` and the
    /// failure tally.
    fn summarize(
        self,
        label: &str,
        shards: &[ShardOutcome],
        out: &mut dyn std::io::Write,
    ) -> Result<(), CliError> {
        // An empty batch writes nobody, and still replaces the last campaign.
        let cleared = self.clear_stale();
        let (mut labels, error) =
            self.tally.into_inner().expect("no writer panics holding the lock");
        if let Some(e) = error.or(cleared.err()) {
            let out_path = self.out_path.display();
            return Err(CliError(format!("cannot write artifacts to {out_path}: {e}")));
        }
        let ms = |ns: fn(&BatchTiming) -> f64| {
            shards.iter().fold(0.0, |sum, shard| sum + ns(&shard.timing)) / 1e6
        };
        let run = shards.iter().find_map(|shard| Some((shard.run?, shard.timing.host_wall)));
        let ok = labels.remove("").unwrap_or(0);
        write!(
            out,
            "{}: {}/{} simulations ok; simulated {:.3} ms (integration {:.3} ms, i/o {:.3} ms)",
            run.map_or(label, |((engine, _), _)| engine),
            ok,
            ok + labels.values().sum::<usize>(),
            ms(|t| t.simulated_total_ns),
            ms(|t| t.simulated_integration_ns),
            ms(|t| t.simulated_io_ns),
        )?;
        if let Some(((_, health), host_wall)) = run {
            writeln!(out, "; host wall {host_wall:.1?}\nhealth: {health}")?;
        } else {
            writeln!(out)?;
            let failures: Vec<String> = labels.iter().map(|(l, n)| format!("{l} x{n}")).collect();
            if !failures.is_empty() {
                writeln!(out, "failures: {}", failures.join(", "))?;
            }
        }
        Ok(())
    }
}

/// A shard's outcome: its members' records and its billed simulated-time
/// split — the journal payload, so replayed shards bill identically.
struct ShardOutcome {
    /// One record per member in shard order; none once the members are in
    /// their files (a run with no journal writes each as it arrives).
    members: Vec<MemberRecord>,
    timing: BatchTiming,
    /// The engine's name and its health report of the whole batch, kept
    /// only when the members went straight to their files (not journaled).
    run: Option<(&'static str, BatchHealth)>,
}

impl ShardOutcome {
    fn encode(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.put_u32(self.members.len() as u32);
        for m in &self.members {
            enc.put_u32(u32::from(m.ok)).put_str(&m.label).put_str(&m.body);
        }
        let t = &self.timing;
        enc.put_f64(t.simulated_total_ns).put_f64(t.simulated_integration_ns);
        enc.put_f64(t.simulated_io_ns);
        enc.finish()
    }
}

impl ShardRecord for ShardOutcome {
    fn to_payload(&self) -> Result<Cow<'_, [u8]>, JournalError> {
        Ok(Cow::Owned(self.encode()))
    }

    fn from_payload(bytes: &[u8]) -> Result<Self, JournalError> {
        let mut dec = Dec::new(bytes);
        let n = dec.u32()?;
        let mut members = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let ok = dec.u32()? != 0;
            let label = dec.str()?.to_string();
            let body = dec.str()?.to_string();
            members.push(MemberRecord { ok, label, body });
        }
        let timing = BatchTiming {
            simulated_total_ns: dec.f64()?,
            simulated_integration_ns: dec.f64()?,
            simulated_io_ns: dec.f64()?,
            ..BatchTiming::default()
        };
        dec.expect_exhausted()?;
        Ok(ShardOutcome { members, timing, run: None })
    }
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
            biosimware::write_time_points(&[1.0, 2.0, 5.0, 10.0], out_dir)?;
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
            let manifest = CampaignManifest::read(&checkpoint_dir.join(MANIFEST_FILE))?;
            let cmd = command_from_manifest(&manifest, checkpoint_dir, *workers)?;
            execute_with_cancel(&cmd, out, cancel)
        }
    }
}

/// How one manifest field becomes arguments of `parse`, and back.
#[derive(Clone, Copy)]
enum ArgForm {
    /// The positional operand.
    Positional,
    /// `FLAG VALUE`, always given.
    Value,
    /// `FLAG VALUE`, left out when the field holds this spelling of "flag
    /// not given".
    Unless(&'static str),
    /// `FLAG VALUE`, left out when the checkpoint predates the field (so
    /// `parse` supplies the default the old run had).
    IfPresent,
    /// A valueless switch: the row's flag when the field holds `on`, else
    /// `off_flag` (which pins `off`).
    Switch { on: &'static str, off: &'static str, off_flag: &'static str },
}

/// One table per campaign subcommand: `(manifest key, flag, form)`. The
/// table writes a command's flags into its manifest ([`pin_flags`]) and
/// turns a manifest back into the argv `parse` reads
/// ([`command_from_manifest`]) — `parse` stays the one place that knows
/// defaults and value syntax.
type ArgTable = &'static [(&'static str, &'static str, ArgForm)];

const SIMULATE_ARGS: ArgTable = &[
    ("model_dir", "", ArgForm::Positional),
    ("world.engine", "--engine", ArgForm::Value),
    ("out_dir", "--out", ArgForm::Unless("")),
    ("batch", "--batch", ArgForm::Value),
    ("rtol", "--rtol", ArgForm::Value),
    ("atol", "--atol", ArgForm::Value),
    ("world.threads", "--threads", ArgForm::Value),
    ("world.lane_width", "--lane-width", ArgForm::Value),
    ("max_retries", "--max-retries", ArgForm::Value),
    ("member_budget", "--member-budget", ArgForm::Unless("none")),
    ("shard_size", "--shard-size", ArgForm::Value),
    // The plan is pinned resolved, so a resume keeps the original packing
    // whatever worker count it runs with.
    (
        "shard_plan",
        "--pack-shards",
        ArgForm::Switch { on: "packed", off: "uniform", off_flag: "--no-pack-shards" },
    ),
    ("lease_ttl", "--lease-ttl", ArgForm::IfPresent),
    ("retry_base", "--retry-base", ArgForm::IfPresent),
];

/// `ensemble::run_ensemble` pins the ensemble's own fields; the CLI adds the
/// `world.*` ones.
const ENSEMBLE_ARGS: ArgTable = &[
    ("world.model_dir", "", ArgForm::Positional),
    ("simulator", "--simulator", ArgForm::Value),
    ("world.out_dir", "--out", ArgForm::Unless("")),
    ("replicates", "--replicates", ArgForm::Value),
    ("seed", "--seed", ArgForm::Value),
    ("member", "--member", ArgForm::Value),
    ("world.threads", "--threads", ArgForm::Value),
    ("lane_width", "--lane-width", ArgForm::Value),
    ("shard_size", "--shard-size", ArgForm::Value),
];

const PE_ARGS: ArgTable = &[
    ("model_dir", "", ArgForm::Positional),
    ("optimizer", "--optimizer", ArgForm::Value),
    ("engine", "--engine", ArgForm::Value),
    ("unknown", "--unknown", ArgForm::Unless("all")),
    ("log_radius", "--log-radius", ArgForm::Value),
    ("observed", "--observed", ArgForm::Unless("all")),
    ("target", "--target", ArgForm::Unless("self")),
    ("rtol", "--rtol", ArgForm::Value),
    ("atol", "--atol", ArgForm::Value),
    ("threads", "--threads", ArgForm::Value),
    ("iterations", "--iterations", ArgForm::Value),
    ("swarm", "--swarm", ArgForm::Unless("auto")),
    ("grad_iterations", "--grad-iterations", ArgForm::Value),
    ("starts", "--starts", ArgForm::Value),
    ("seed", "--seed", ArgForm::Value),
    ("out_dir", "--out", ArgForm::Unless("")),
];

/// The flags of a `simulate` or `pe` command as `parse` reads them —
/// `(flag, value)`, `None` for a flag not given, `""` naming the
/// positional operand.
fn campaign_flags(cmd: &Command) -> Vec<(&'static str, Option<String>)> {
    let path = |p: &PathBuf| p.display().to_string();
    match cmd {
        Command::Simulate {
            model_dir,
            engine,
            out_dir,
            batch,
            rtol,
            atol,
            threads,
            lane_width,
            max_retries,
            member_budget,
            shard_size,
            pack,
            lease_ttl,
            retry_base,
            ..
        } => vec![
            ("", Some(path(model_dir))),
            ("--engine", Some(engine.clone())),
            ("--out", out_dir.as_ref().map(path)),
            ("--batch", Some(batch.to_string())),
            ("--rtol", Some(rtol.to_string())),
            ("--atol", Some(atol.to_string())),
            ("--threads", Some(threads.to_string())),
            ("--lane-width", Some(lane_width.map_or("auto".to_string(), |w| w.to_string()))),
            ("--max-retries", Some(max_retries.to_string())),
            ("--member-budget", member_budget.map(|b| b.to_string())),
            ("--shard-size", Some(shard_size.to_string())),
            ("--pack-shards", (*pack == Some(true)).then(String::new)),
            ("--lease-ttl", Some(lease_ttl.to_string())),
            ("--retry-base", Some(retry_base.to_string())),
        ],
        Command::Pe {
            model_dir,
            optimizer,
            engine,
            unknown,
            log_radius,
            observed,
            target,
            rtol,
            atol,
            threads,
            iterations,
            swarm,
            grad_iterations,
            starts,
            seed,
            out_dir,
            ..
        } => vec![
            ("", Some(path(model_dir))),
            ("--optimizer", Some(optimizer.clone())),
            ("--engine", Some(engine.clone())),
            (
                "--unknown",
                unknown
                    .as_ref()
                    .map(|v| v.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(",")),
            ),
            ("--log-radius", Some(format!("{log_radius:e}"))),
            ("--observed", observed.as_ref().map(|v| v.join(","))),
            ("--target", target.as_ref().map(path)),
            ("--rtol", Some(format!("{rtol:e}"))),
            ("--atol", Some(format!("{atol:e}"))),
            ("--threads", Some(threads.to_string())),
            ("--iterations", Some(iterations.to_string())),
            ("--swarm", swarm.map(|s| s.to_string())),
            ("--grad-iterations", Some(grad_iterations.to_string())),
            ("--starts", Some(starts.to_string())),
            ("--seed", Some(seed.to_string())),
            ("--out", out_dir.as_ref().map(path)),
        ],
        _ => unreachable!("only simulate and pe pin their own flags"),
    }
}

/// Pins a command's flags in `manifest` under the table's keys.
fn pin_flags(mut manifest: CampaignManifest, table: ArgTable, cmd: &Command) -> CampaignManifest {
    let flags = campaign_flags(cmd);
    for &(key, flag, form) in table {
        let given = flags.iter().find(|(f, _)| *f == flag).and_then(|(_, v)| v.as_deref());
        let value = match form {
            ArgForm::Switch { on, off, .. } => given.map_or(off, |_| on),
            ArgForm::Unless(not_given) => given.unwrap_or(not_given),
            _ => given.expect("every flag without a not-given spelling has a value"),
        };
        manifest = manifest.with_field(key, value);
    }
    manifest
}

/// Rebuilds the command a CLI checkpoint was created with — what `resume`,
/// `worker`, `worker --connect` and `coordinate` all run, so every
/// attached process resolves the exact same world. The manifest's fields
/// map through the subcommand's [`ArgTable`] onto an argv for `parse`;
/// `checkpoint_dir` and `workers` are not world-defining and come from
/// this invocation.
fn command_from_manifest(
    manifest: &CampaignManifest,
    checkpoint_dir: &Path,
    workers: usize,
) -> Result<Command, CliError> {
    let (subcommand, table) = match manifest.kind() {
        "cli-simulate" => ("simulate", SIMULATE_ARGS),
        "ensemble" => ("ensemble", ENSEMBLE_ARGS),
        "cli-pe" => ("pe", PE_ARGS),
        other => {
            return Err(CliError(format!(
                "checkpoint at {} is a {other:?} campaign, not a CLI simulate, ensemble, or pe run",
                checkpoint_dir.display(),
            )))
        }
    };
    let mut argv = vec![subcommand.to_string()];
    let mut cmd = None;
    for &(key, flag, form) in table {
        match (form, manifest.field(key)) {
            (ArgForm::Switch { on, off_flag, .. }, value) => {
                argv.push(if value == Some(on) { flag } else { off_flag }.to_string());
            }
            (ArgForm::IfPresent, None) => {}
            (_, None) => {
                return Err(CliError(format!("checkpoint manifest is missing {key:?}")));
            }
            (ArgForm::Unless(not_given), Some(value)) if value == not_given => {}
            (ArgForm::Positional, Some(value)) => argv.push(value.to_string()),
            (_, Some(value)) => argv.extend([flag.to_string(), value.to_string()]),
        }
        // `parse` names the flag it rejects; parsing as the argv grows
        // names the manifest key.
        let parsed = parse(&argv);
        cmd = Some(parsed.map_err(|e| CliError(format!("malformed manifest field {key:?}: {e}")))?);
    }
    let mut cmd = cmd.expect("no table is empty");
    match &mut cmd {
        Command::Simulate { checkpoint_dir: dir, workers: w, .. } => {
            *dir = Some(checkpoint_dir.to_path_buf());
            *w = workers;
        }
        Command::Ensemble { checkpoint_dir: dir, .. } | Command::Pe { checkpoint_dir: dir, .. } => {
            *dir = Some(checkpoint_dir.to_path_buf());
        }
        _ => unreachable!("the tables name campaign subcommands"),
    }
    Ok(cmd)
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

/// Writes the per-replicate trajectory/error files and the ensemble
/// mean/variance tables, after removing the replicate files an earlier
/// ensemble left there. Pure function of the outcomes, so durable and
/// plain runs (and resumed runs) produce byte-identical artifacts.
fn write_ensemble_outputs(
    out_path: &Path,
    model: &paraspace_rbm::ReactionBasedModel,
    outcomes: &[Result<StochasticTrajectory, StochasticError>],
    stats: &EnsembleStats,
) -> Result<(), CliError> {
    std::fs::create_dir_all(out_path)?;
    remove_stale_artifacts(out_path, "replicate_")?;
    let header: String = std::iter::once("t".to_string())
        .chain(model.species().iter().map(|s| s.name.clone()))
        .collect::<Vec<_>>()
        .join("\t");
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Ok(tr) => {
                let mut body = String::with_capacity(64 * tr.times.len());
                body.push_str(&header);
                body.push('\n');
                for (t, state) in tr.times.iter().zip(&tr.states) {
                    body.push_str(&format!("{t:.6e}"));
                    for &c in state {
                        body.push_str(&format!("\t{c}"));
                    }
                    body.push('\n');
                }
                std::fs::write(out_path.join(format!("replicate_{i:05}.tsv")), body)?;
            }
            Err(e) => {
                std::fs::write(
                    out_path.join(format!("replicate_{i:05}.err")),
                    format!("error: {e}\n"),
                )?;
            }
        }
    }
    for (name, table) in
        [("ensemble_mean.tsv", &stats.mean), ("ensemble_variance.tsv", &stats.variance)]
    {
        let mut body = String::new();
        body.push_str(&header);
        body.push('\n');
        for (t, row) in stats.times.iter().zip(table.iter()) {
            body.push_str(&format!("{t:.6e}"));
            for v in row {
                body.push_str(&format!("\t{v:.6e}"));
            }
            body.push('\n');
        }
        std::fs::write(out_path.join(name), body)?;
    }
    Ok(())
}

/// Runs the `ensemble` command for a concrete simulator — journaled when
/// there is a checkpoint directory, the same campaign either way.
fn run_ensemble<S: StochasticSimulator + Sync>(
    simulator: S,
    cmd: &Command,
    out: &mut dyn std::io::Write,
    cancel: &CancelToken,
) -> Result<(), CliError> {
    let Command::Ensemble {
        model_dir,
        out_dir,
        replicates,
        seed,
        member,
        threads,
        lane_width,
        checkpoint_dir,
        shard_size,
        ..
    } = cmd
    else {
        unreachable!("run_ensemble is only called for ensemble commands")
    };
    let name = simulator.name();
    let model = biosimware::read_dir(model_dir)?;
    let times =
        biosimware::read_time_points(model_dir).unwrap_or_else(|_| vec![1.0, 2.0, 5.0, 10.0]);
    let out_path = out_dir.clone().unwrap_or_else(|| model_dir.join("ensemble"));
    let batch = StochasticBatch::new(simulator)
        .with_seed(*seed)
        .with_member(*member)
        .with_threads(*threads)
        .with_lane_width(*lane_width)
        .with_cancel(cancel.clone());

    let checkpoint = checkpoint_dir.as_ref().map(|dir| {
        Checkpoint::new(dir)
            .with_cancel(cancel.clone())
            .with_world("model_dir", model_dir.display().to_string())
            .with_world(
                "out_dir",
                out_dir.as_ref().map(|p| p.display().to_string()).unwrap_or_default(),
            )
            .with_world("threads", threads.to_string())
    });
    let start = std::time::Instant::now();
    let result = ensemble::run_ensemble(
        &model,
        &times,
        *replicates,
        &batch,
        *shard_size,
        checkpoint.as_ref(),
    )
    .map_err(|e| campaign_error(e, checkpoint_dir.as_deref(), out))?;
    write_ensemble_outputs(&out_path, &model, &result.outcomes, &result.stats)?;
    let ok = result.outcomes.iter().filter(|o| o.is_ok()).count();
    write!(
        out,
        "{name} ensemble{}: {ok}/{replicates} replicates ok; ",
        if checkpoint.is_some() { " (durable)" } else { "" },
    )?;
    if let Some(width) = result.lane_width {
        write!(out, "lane width {width}; ")?;
    }
    writeln!(
        out,
        "simulated {:.3} ms; host wall {:.1?}",
        result.simulated_ns / 1e6,
        start.elapsed(),
    )?;
    if let Some(lanes) = &result.lanes {
        writeln!(
            out,
            "lanes: {} groups, occupancy {:.1}%, divergence {:.2}x",
            lanes.groups,
            lanes.occupancy() * 100.0,
            lanes.divergence_factor(),
        )?;
    }
    if checkpoint.is_some() {
        report_checkpoint(out, &result.report)?;
    }
    writeln!(out, "ensemble written to {}", out_path.display())?;
    Ok(())
}

/// Parses a target dynamics file in the `simulate` output format: one row
/// per sample, `t` then one column per species, tab-separated scientific
/// notation, no header. Returns the sample times and the target as a
/// [`Solution`] the fitness and gradient layers index by species.
fn read_target_dynamics(path: &Path, n_species: usize) -> Result<(Vec<f64>, Solution), CliError> {
    let text = std::fs::read_to_string(path)?;
    let mut times = Vec::new();
    let mut states = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() != n_species + 1 {
            return Err(CliError(format!(
                "target {} line {}: {} columns, expected t + {n_species} species",
                path.display(),
                lineno + 1,
                cols.len()
            )));
        }
        let parse = |s: &str| {
            s.parse::<f64>().map_err(|_| {
                CliError(format!(
                    "target {} line {}: malformed number {s:?}",
                    path.display(),
                    lineno + 1
                ))
            })
        };
        times.push(parse(cols[0])?);
        states.push(cols[1..].iter().map(|s| parse(s)).collect::<Result<Vec<f64>, _>>()?);
    }
    if times.is_empty() {
        return Err(CliError(format!("target {} holds no samples", path.display())));
    }
    let solution = Solution { times: times.clone(), states, ..Solution::default() };
    Ok((times, solution))
}

/// Runs the `pe` command: resolve the estimation problem from the model
/// directory and flags, dispatch to the chosen optimizer (journaled when a
/// checkpoint directory is given), and write the estimate.
fn run_pe(
    cmd: &Command,
    out: &mut dyn std::io::Write,
    cancel: &CancelToken,
) -> Result<(), CliError> {
    let Command::Pe {
        model_dir,
        optimizer,
        engine,
        unknown,
        log_radius,
        observed,
        target,
        rtol,
        atol,
        threads,
        iterations,
        swarm,
        grad_iterations,
        starts,
        seed,
        out_dir,
        checkpoint_dir,
    } = cmd
    else {
        unreachable!("run_pe is only called for pe commands")
    };
    let model = biosimware::read_dir(model_dir)?;
    let n_species = model.n_species();
    let n_reactions = model.reactions().len();

    let unknown: Vec<usize> = match unknown {
        Some(v) => {
            for &idx in v {
                if idx >= n_reactions {
                    return Err(CliError(format!(
                        "--unknown index {idx} out of range (model has {n_reactions} reactions)"
                    )));
                }
            }
            v.clone()
        }
        None => (0..n_reactions).collect(),
    };
    let observed: Vec<usize> = match observed {
        Some(names) => names
            .iter()
            .map(|name| {
                model.species().iter().position(|s| s.name == *name).ok_or_else(|| {
                    CliError(format!("--observed species {name:?} is not in the model"))
                })
            })
            .collect::<Result<Vec<usize>, _>>()?,
        None => (0..n_species).collect(),
    };
    let k = model.rate_constants();
    let log_bounds: Vec<(f64, f64)> = unknown
        .iter()
        .map(|&idx| {
            // A zero or negative placeholder has no log-center; search
            // around k = 1.
            let center = if k[idx] > 0.0 { k[idx].log10() } else { 0.0 };
            (center - log_radius, center + log_radius)
        })
        .collect();
    let options = SolverOptions {
        rel_tol: *rtol,
        abs_tol: *atol,
        max_steps: 100_000,
        ..SolverOptions::default()
    };
    let engine = engine_by_name(engine, *threads, None, RecoveryPolicy::default(), cancel)?;

    let (time_points, target) = match target {
        Some(path) => read_target_dynamics(path, n_species)?,
        None => {
            // Self-calibration benchmark: the model's current constants
            // are the ground truth the search must recover.
            let times = biosimware::read_time_points(model_dir)
                .unwrap_or_else(|_| vec![1.0, 2.0, 5.0, 10.0]);
            let job = SimulationJob::builder(&model)
                .time_points(times.clone())
                .replicate(1)
                .options(options.clone())
                .build()?;
            let solution = engine
                .run(&job)?
                .outcomes
                .remove(0)
                .solution
                .map_err(|e| CliError(format!("self-calibration target failed: {e}")))?;
            (times, solution)
        }
    };

    let problem = EstimationProblem {
        model: &model,
        unknown: unknown.clone(),
        log_bounds,
        observed,
        target,
        time_points,
        options,
        failed_members: FailedMemberPolicy::default(),
    };
    let pso_cfg = PsoConfig {
        iterations: *iterations,
        swarm_size: *swarm,
        seed: *seed,
        ..PsoConfig::default()
    };
    let grad_cfg = GradientConfig {
        iterations: *grad_iterations,
        starts: *starts,
        seed: *seed,
        ..GradientConfig::default()
    };
    let chosen = match optimizer.as_str() {
        "pso" => Optimizer::Pso(pso_cfg),
        "lbfgs" => Optimizer::Lbfgs(grad_cfg),
        _ => Optimizer::Hybrid { pso: pso_cfg, gradient: grad_cfg },
    };

    // The top-level manifest pins the invocation (the optimizer's own
    // journal lives under `search/`). Every field is world-defining: the
    // unknowns, bounds, target, optimizer, and search hyperparameters all
    // change the journaled evaluation bytes, so `resume` and re-invocation
    // refuse any difference — the same contract the executor applies to
    // `--lane-width` and `--lease-ttl`.
    let checkpoint = match checkpoint_dir {
        None => None,
        Some(dir) => {
            let expected = pin_flags(CampaignManifest::new("cli-pe", 0), PE_ARGS, cmd);
            let manifest_path = dir.join(MANIFEST_FILE);
            if manifest_path.exists() {
                CampaignManifest::read(&manifest_path)?.verify_matches(&expected)?;
            } else {
                std::fs::create_dir_all(dir)?;
                expected.write_atomic(&manifest_path)?;
            }
            Some(Checkpoint::new(dir.join("search")).with_cancel(cancel.clone()))
        }
    };
    let result = estimate_with(&problem, engine.as_ref(), &chosen, checkpoint.as_ref())
        .map_err(|e| campaign_error(e, checkpoint_dir.as_deref(), out))?;

    let out_path = out_dir.clone().unwrap_or_else(|| model_dir.join("pe"));
    std::fs::create_dir_all(&out_path)?;
    let mut body = String::with_capacity(16 * n_reactions);
    for (idx, v) in result.rate_constants.iter().enumerate() {
        body.push_str(&format!("{idx}\t{v:e}\n"));
    }
    std::fs::write(out_path.join("estimate.tsv"), body)?;

    writeln!(
        out,
        "pe ({}, {} unknowns): best loss {:.6e} after {} solves",
        chosen.name(),
        unknown.len(),
        result.optimization.best_fitness,
        result.simulations,
    )?;
    for &idx in &unknown {
        writeln!(out, "  k[{idx}] = {:e}", result.rate_constants[idx])?;
    }
    if checkpoint.is_some() {
        report_checkpoint(out, &result.report)?;
    }
    writeln!(out, "estimate written to {}", out_path.join("estimate.tsv").display())?;
    Ok(())
}

/// Everything a `simulate` campaign resolves once from its command and the
/// model directory, and the one shard executor every mode runs: a plain
/// run, a durable one, the coordinator and every `worker` rebuilt from the
/// manifest execute shards through the same world, which is what makes
/// their artifacts byte-identical.
struct SimulateWorld {
    model: ReactionBasedModel,
    time_points: Vec<f64>,
    parameterizations: Vec<Parameterization>,
    options: SolverOptions,
    engine_name: String,
    out_path: PathBuf,
    /// The journaled lease timing every worker and the coordinator share.
    dispatch: DispatchConfig,
    /// Which batch indices each shard holds: one in-order shard of every
    /// member without a checkpoint; with one, uniform ascending chunks or
    /// `pack_shards`' cost-model packing, pinned as the `shard_plan`.
    plan: Vec<Vec<usize>>,
    /// The command with its shard size and plan resolved, as pinned.
    cmd: Command,
}

impl SimulateWorld {
    /// Resolves a `Simulate` command: checks the engine name, reads the
    /// model directory, expands the batch and decides the shard plan. A
    /// command without a checkpoint builds no packing.
    fn load(cmd: &Command) -> Result<Self, CliError> {
        let mut cmd = cmd.clone();
        let Command::Simulate {
            model_dir,
            engine,
            out_dir,
            batch,
            rtol,
            atol,
            checkpoint_dir,
            shard_size,
            workers,
            pack,
            lease_ttl,
            retry_base,
            ..
        } = &mut cmd
        else {
            unreachable!("SimulateWorld::load is only called for Simulate commands");
        };
        // Surface an unknown engine name before anything runs or any
        // checkpoint exists.
        engine_by_name(engine, 1, None, RecoveryPolicy::default(), &CancelToken::new())?;
        let model = biosimware::read_dir(model_dir)?;
        let time_points =
            biosimware::read_time_points(model_dir).unwrap_or_else(|_| vec![1.0, 2.0, 5.0, 10.0]);
        let mut parameterizations = biosimware::read_parameterizations(&model, model_dir)?;
        if parameterizations.is_empty() {
            parameterizations = (0..*batch).map(|_| Parameterization::new()).collect();
        }
        let options = SolverOptions {
            rel_tol: *rtol,
            abs_tol: *atol,
            max_steps: 100_000,
            ..SolverOptions::default()
        };
        // The plan decides which member's bytes land in which shard record,
        // so it is pinned as resolved: auto (`None`) packs only multi-worker
        // runs, where evening out shard cost keeps N workers busy.
        *shard_size = (*shard_size).max(1);
        let packed = *pack.get_or_insert(*workers > 1);
        let plan = if checkpoint_dir.is_none() {
            vec![(0..parameterizations.len()).collect()]
        } else if packed {
            let job = SimulationJob::builder(&model)
                .time_points(time_points.clone())
                .parameterizations(parameterizations.clone())
                .options(options.clone())
                .build()?;
            pack_shards(&job, (*shard_size / 4).max(1), *shard_size)
        } else {
            uniform_shards(parameterizations.len(), *shard_size)
        };
        Ok(SimulateWorld {
            engine_name: engine.clone(),
            out_path: out_dir.clone().unwrap_or_else(|| model_dir.join("out")),
            dispatch: DispatchConfig {
                lease: LeaseConfig {
                    ttl_ms: *lease_ttl,
                    backoff_base_ms: *retry_base,
                    ..LeaseConfig::default()
                },
                ..DispatchConfig::default()
            },
            model,
            time_points,
            parameterizations,
            options,
            plan,
            cmd,
        })
    }

    /// The batch indices of one shard, per the plan.
    fn members(&self, shard: u64) -> &[usize] {
        self.plan.get(shard as usize).map_or(&[], Vec::as_slice)
    }

    /// An engine wired to `cancel` (its name was checked at [`load`](Self::load)).
    fn engine(&self, cancel: &CancelToken) -> Box<dyn Simulator> {
        let Command::Simulate { threads, lane_width, max_retries, member_budget, .. } = self.cmd
        else {
            unreachable!("a world holds a Simulate command");
        };
        let recovery = RecoveryPolicy {
            max_relaxations: max_retries,
            step_budget: member_budget,
            ..RecoveryPolicy::default()
        };
        engine_by_name(&self.engine_name, threads, lane_width, recovery, cancel)
            .expect("the engine name was checked when the world was loaded")
    }

    /// The campaign manifest a checkpoint pins: digests, shard count and
    /// every flag `resume` needs. A run without a checkpoint never builds it.
    fn manifest(&self) -> CampaignManifest {
        pin_flags(
            CampaignManifest::new("cli-simulate", self.plan.len() as u64)
                .with_digest("model", model_digest(&self.model))
                .with_digest("times", f64s_digest(&self.time_points))
                .with_digest("options", options_digest(&self.options)),
            SIMULATE_ARGS,
            &self.cmd,
        )
    }

    /// Executes one shard's `members`: the one executor behind plain and
    /// durable runs and every worker. Its one sink hands each member, as the
    /// engine delivers it, to `files` (a plain run's one in-order shard,
    /// whose indices are batch indices) or else to the shard's record. A job
    /// that fails validation is an outcome, every member `invalid`.
    fn execute(
        &self,
        engine: &dyn Simulator,
        members: Vec<Parameterization>,
        files: Option<&ArtifactFiles>,
    ) -> Result<ShardOutcome, CampaignError> {
        let n = members.len();
        let records = Mutex::new((0..n).map(|_| None).collect::<Vec<_>>());
        let put = |i: usize, ok: bool, label: &str, body: &str| match files {
            Some(files) => files.put(i, ok, label, body),
            None => {
                let record = MemberRecord { ok, label: label.into(), body: body.into() };
                records.lock().expect("no sink panics holding the lock")[i] = Some(record);
            }
        };
        let job = SimulationJob::builder(&self.model)
            .time_points(self.time_points.clone())
            .parameterizations(members)
            .options(self.options.clone())
            .build();
        let result = match job {
            Ok(job) => Some(engine.run_into(&job, &|i, o: &SimOutcome, text: Option<&str>| {
                match &o.solution {
                    Ok(_) => put(i, true, "", text.expect("a success is delivered with its text")),
                    Err(e) => {
                        put(i, false, taxonomy(e), &err_body(e, taxonomy(e), o.solver, &o.log))
                    }
                }
            })?),
            Err(e @ paraspace_core::SimError::InvalidJob { .. }) => {
                let body = err_body(&e, "invalid", "-", &RecoveryLog::default());
                (0..n).for_each(|i| put(i, false, "invalid", &body));
                None
            }
            Err(e) => return Err(e.into()),
        };
        let records = records.into_inner().expect("no sink panics holding the lock");
        Ok(ShardOutcome {
            // Every member was delivered (the sink contract); a streamed
            // shard keeps none.
            members: records.into_iter().flatten().collect(),
            timing: result.as_ref().map_or_else(BatchTiming::default, |r| r.timing),
            run: result.filter(|_| files.is_some()).map(|r| (r.engine, r.health)),
        })
    }

    /// The journaled payload for a quarantined shard: every member fails
    /// with the `quarantined` taxonomy and a report of the deaths that
    /// condemned the shard, so the campaign completes degraded with the
    /// failure visible in the ordinary `.err` artifacts.
    fn poison_payload(&self, shard: u64, state: &RetryState) -> Vec<u8> {
        let workers: Vec<&str> = state.workers.iter().map(String::as_str).collect();
        let body = format!(
            "error: shard {shard} quarantined after {} worker deaths by {} distinct workers\n\
             taxonomy: quarantined\nworkers: {}\nreasons: {}\n",
            state.deaths,
            state.workers.len(),
            workers.join(", "),
            state.reasons.join(", "),
        );
        let record = || MemberRecord { ok: false, label: "quarantined".into(), body: body.clone() };
        let members = self.members(shard).iter().map(|_| record()).collect();
        ShardOutcome { members, timing: BatchTiming::default(), run: None }.encode()
    }

    /// The one writer of committed records, for the durable run and the
    /// coordinator alike: once every shard has committed, creates `--out`
    /// and writes each member under its batch index (a packed plan puts a
    /// shard's members anywhere in the batch). The shards keep only their
    /// billed clocks.
    fn materialize(
        &self,
        shards: &mut [ShardOutcome],
        files: &ArtifactFiles,
    ) -> Result<(), CliError> {
        create_dir_for("--out", &self.out_path)?;
        for (shard_id, shard) in shards.iter_mut().enumerate() {
            let members = self.members(shard_id as u64);
            if shard.members.len() != members.len() {
                return Err(CliError(format!(
                    "shard {shard_id} payload holds {} members but the plan assigns {}",
                    shard.members.len(),
                    members.len(),
                )));
            }
            for (m, &index) in shard.members.drain(..).zip(members) {
                files.put(index, m.ok, &m.label, &m.body);
            }
        }
        Ok(())
    }
}

/// Runs a `simulate` campaign in this process, plain or durable: every
/// shard of the plan goes through [`SimulateWorld::execute`] as one
/// get-or-run step of a [`ShardLog`]. With no checkpoint the plan is one
/// in-order shard whose members stream to `--out` as the engine delivers
/// them. With one, each shard's records are journaled and `--out` is
/// written only once every shard has committed, so a killed run resumes to
/// byte-identical artifacts.
fn simulate(
    mut world: SimulateWorld,
    checkpoint: Option<&Checkpoint>,
    out: &mut dyn std::io::Write,
    cancel: &CancelToken,
) -> Result<(), CliError> {
    let engine = world.engine(cancel);
    let files = ArtifactFiles { out_path: world.out_path.clone(), ..Default::default() };
    if checkpoint.is_none() {
        create_dir_for("--out", &world.out_path)?;
    }
    // Each shard runs at most once here, so its members move into its job.
    let mut pending = std::mem::take(&mut world.parameterizations);
    let world = &world;
    let mut run = || -> Result<_, CampaignError> {
        let mut log = ShardLog::open(checkpoint, || world.manifest())?;
        let mut shards = Vec::with_capacity(world.plan.len());
        for shard in 0..world.plan.len() as u64 {
            shards.push(log.step(shard, || {
                let members = world.members(shard);
                let batch = members.iter().map(|&i| std::mem::take(&mut pending[i])).collect();
                world.execute(engine.as_ref(), batch, checkpoint.is_none().then_some(&files))
            })?);
        }
        Ok((shards, log.finish()?))
    };
    let (mut shards, report) = run().map_err(|e| match (e, checkpoint) {
        // With no journal a failed run is the engine's own error.
        (CampaignError::Sim(e), None) => e.into(),
        (e, _) => campaign_error(e, checkpoint.map(Checkpoint::dir), out),
    })?;
    let label = match checkpoint {
        None => world.engine_name.clone(),
        Some(_) => {
            world.materialize(&mut shards, &files)?;
            format!("{} (durable)", world.engine_name)
        }
    };
    files.summarize(&label, &shards, out)?;
    if checkpoint.is_some() {
        report_checkpoint(out, &report)?;
    }
    writeln!(out, "dynamics written to {}", world.out_path.display())?;
    Ok(())
}

/// Rebuilds the world of a dispatched `simulate` campaign from the
/// manifest its coordinator pinned — what `coordinate`, `worker` and
/// `worker --connect` all start from — and holds it to that manifest, so a
/// world that drifted since (model files edited under the checkpoint,
/// tolerances changed, ...) is refused before any shard runs.
fn world_from_manifest(
    manifest: &CampaignManifest,
    served_from: &str,
    checkpoint_dir: &Path,
    workers: usize,
) -> Result<SimulateWorld, CliError> {
    if manifest.kind() != "cli-simulate" {
        return Err(CliError(format!(
            "{served_from} holds a {:?} campaign; only `simulate` campaigns dispatch to workers",
            manifest.kind()
        )));
    }
    let world = SimulateWorld::load(&command_from_manifest(manifest, checkpoint_dir, workers)?)?;
    manifest.verify_matches(&world.manifest())?;
    Ok(world)
}

/// The `coordinate` subcommand: rebuild the world from an existing
/// checkpoint manifest and run the coordinator over it, optionally
/// spawning worker children (others may attach with `worker`).
fn run_coordinator(
    dir: &Path,
    workers: usize,
    listen: Option<&str>,
    out: &mut dyn std::io::Write,
    cancel: &CancelToken,
) -> Result<(), CliError> {
    let manifest = CampaignManifest::read(&dir.join(MANIFEST_FILE))?;
    let served_from = format!("checkpoint at {}", dir.display());
    let world = world_from_manifest(&manifest, &served_from, dir, workers)?;
    let checkpoint = Checkpoint::new(dir).with_cancel(cancel.clone());
    coordinate_processes(&world, &checkpoint, workers, listen, out)
}

/// The coordinator over worker *processes*: write the manifest, spawn
/// worker children running the `worker` subcommand against the same
/// checkpoint directory, run the merge/expiry/quarantine loop, and
/// materialize the artifacts once every shard commits. When every child
/// has died and shards remain, a replacement is spawned (bounded), so a
/// campaign survives SIGKILL of any or all of its workers.
fn coordinate_processes(
    world: &SimulateWorld,
    checkpoint: &Checkpoint,
    spawn_workers: usize,
    listen: Option<&str>,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    // The manifest must be on disk before the first child starts: workers
    // rebuild their world from it.
    let manifest = world.manifest();
    drop(Journal::open_or_create(checkpoint.dir(), &manifest)?);
    let config = world.dispatch.clone();

    // With --listen, bind the transport server *before* any child spawns
    // so `--listen 127.0.0.1:0` can hand children the resolved port.
    let mut server = match listen {
        Some(addr) => {
            let server = CoordinatorServer::start(
                addr,
                checkpoint.dir(),
                &manifest,
                ServerConfig {
                    lease: config.lease.clone(),
                    poll_ms: config.poll_ms,
                    idle_disconnect_ms: None,
                },
            )
            .map_err(|e| CliError(format!("cannot listen on {addr}: {e}")))?;
            writeln!(out, "coordinator listening on {}", server.local_addr())?;
            Some(server)
        }
        None => None,
    };
    let connect_addr = server.as_ref().map(|s| s.local_addr().to_string());

    let spawn_child = |id: &str| -> std::io::Result<std::process::Child> {
        let mut child = std::process::Command::new(std::env::current_exe()?);
        child.arg("worker");
        match &connect_addr {
            Some(addr) => child.arg("--connect").arg(addr),
            None => child.arg(checkpoint.dir()),
        };
        child
            .arg("--worker-id")
            .arg(id)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
    };
    // Worker ids embed this coordinator's pid and a sequence number so
    // every incarnation (including respawns and coordinator restarts) is
    // unique — a successor reusing a dead worker's id would keep the dead
    // worker's orphaned lease looking alive with its own heartbeats.
    let pid = std::process::id();
    let seq = std::cell::Cell::new(0u64);
    let next_id = |prefix: &str| {
        let n = seq.get();
        seq.set(n + 1);
        format!("{prefix}{n}-{pid}")
    };
    let children = Children::new();
    for _ in 0..spawn_workers {
        children.push(spawn_child(&next_id("w"))?);
    }
    let respawned = std::cell::Cell::new(0u64);
    let respawn_cap = (spawn_workers as u64).max(1) * 4;

    let result = coordinate(
        checkpoint,
        manifest,
        &config,
        |shard, state| world.poison_payload(shard, state),
        |status| {
            children.reap_exited();
            if spawn_workers > 0 && children.is_empty() && status.committed < status.shards {
                if respawned.get() >= respawn_cap {
                    return TickDirective::GiveUp;
                }
                respawned.set(respawned.get() + 1);
                if let Ok(c) = spawn_child(&next_id("r")) {
                    children.push(c);
                }
            }
            TickDirective::Continue
        },
    );

    match result {
        Ok((payloads, report)) => {
            // Children observe completion through the shard log (or the
            // transport's campaign-complete reply) and exit on their own;
            // wait so none outlive the campaign.
            children.wait_all();
            if let Some(server) = &mut server {
                server.shutdown();
            }
            let mut shards = payloads
                .into_iter()
                .map(|payload| ShardOutcome::from_payload(&payload))
                .collect::<Result<Vec<_>, _>>()?;
            let files = ArtifactFiles { out_path: world.out_path.clone(), ..Default::default() };
            world.materialize(&mut shards, &files)?;
            files.summarize(&format!("{} (dispatched)", world.engine_name), &shards, out)?;
            writeln!(
                out,
                "dispatch: {} shards ({} recovered, {} merged); {} reassignments; {} worker segments",
                report.shards, report.recovered, report.merged, report.reassignments,
                report.workers_seen,
            )?;
            if !report.quarantined.is_empty() {
                writeln!(
                    out,
                    "quarantined shards {:?}: journaled as poisoned outcomes; campaign completed degraded",
                    report.quarantined,
                )?;
            }
            writeln!(out, "dynamics written to {}", world.out_path.display())?;
            Ok(())
        }
        // `children` drops here: kill + reap every spawned worker.
        Err(e) => Err(campaign_error(e, Some(checkpoint.dir()), out)),
    }
}

/// The `worker` subcommand: attach through a lease store — the shared
/// checkpoint directory, or with `--connect` the coordinator's transport
/// server — rebuild the world from the campaign's manifest, verify it
/// matches what the coordinator pinned, and run the dispatch worker loop
/// until the campaign completes (or this worker is cancelled or killed by
/// chaos).
fn run_worker(
    dir: Option<&Path>,
    connect: Option<&str>,
    worker_id: Option<&str>,
    chaos: &WorkerChaos,
    out: &mut dyn std::io::Write,
    cancel: &CancelToken,
) -> Result<(), CliError> {
    let id = worker_id.map_or_else(|| format!("pid{}", std::process::id()), str::to_string);
    if let Some(addr) = connect {
        let (client, info) = WorkerClient::connect(addr, &id, ClientOptions::default())
            .map_err(|e| CliError(format!("cannot reach coordinator at {addr}: {e}")))?;
        // The world comes from the streamed manifest exactly as a
        // filesystem worker's comes from the on-disk one; the checkpoint
        // path it names is never touched on this side of the wire (the
        // model directory must be readable at the same path).
        let on_wire = CampaignManifest::from_text(&info.manifest_text)?;
        let world =
            world_from_manifest(&on_wire, &format!("coordinator at {addr}"), Path::new(""), 0)?;
        writeln!(
            out,
            "worker {id}: attached to {addr} ({} shards, lease ttl {} ms)",
            world.plan.len(),
            info.lease.ttl_ms,
        )?;
        let config = DispatchConfig { lease: info.lease, poll_ms: info.poll_ms };
        return serve_shards(&client, &world, &config, &id, chaos, out, cancel);
    }
    let dir = dir.ok_or_else(|| CliError("worker needs a checkpoint directory".into()))?;
    let on_disk = CampaignManifest::read(&dir.join(MANIFEST_FILE))?;
    let world = world_from_manifest(&on_disk, &format!("checkpoint at {}", dir.display()), dir, 0)?;
    let store = FileStore::open(dir, &id, world.plan.len() as u64)?;
    serve_shards(&store, &world, &world.dispatch, &id, chaos, out, cancel)
}

/// [`run_worker`]'s loop over whichever store it picked, and its summary.
fn serve_shards<S: LeaseStore>(
    store: &S,
    world: &SimulateWorld,
    config: &DispatchConfig,
    id: &str,
    chaos: &WorkerChaos,
    out: &mut dyn std::io::Write,
    cancel: &CancelToken,
) -> Result<(), CliError> {
    let report = worker_loop(store, config, cancel, chaos, |shard, token| {
        // A worker may run a shard again after losing its lease, so it
        // copies the members.
        let batch = world.members(shard).iter().map(|&i| world.parameterizations[i].clone());
        Ok(world.execute(world.engine(token).as_ref(), batch.collect(), None)?.encode())
    })
    .map_err(|e| match e {
        CampaignError::Store(e) => CliError(format!(
            "lost the coordinator ({e}); its lease will expire and the shard will be reassigned"
        )),
        e => e.into(),
    })?;
    writeln!(
        out,
        "worker {id}: executed {} shards ({} leases lost to reassignment)",
        report.executed, report.lost_leases,
    )?;
    if report.died {
        return Err(CliError(format!(
            "worker {id} presumed dead (heartbeat lost) — its shard will be reassigned"
        )));
    }
    if report.cancelled {
        writeln!(out, "worker {id}: cancelled")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parse_help_variants() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn parse_simulate_defaults_and_flags() {
        let cmd = parse(&argv(
            "simulate /tmp/model --engine lsoda --batch 8 --rtol 1e-4 --threads 4 \
             --lane-width 4 --max-retries 3 --member-budget 5000 --checkpoint-dir /tmp/ckpt \
             --shard-size 16",
        ))
        .unwrap();
        match cmd {
            Command::Simulate {
                model_dir,
                engine,
                batch,
                rtol,
                atol,
                out_dir,
                threads,
                lane_width,
                max_retries,
                member_budget,
                checkpoint_dir,
                shard_size,
                workers,
                pack,
                lease_ttl,
                retry_base,
                listen,
            } => {
                assert_eq!(model_dir, PathBuf::from("/tmp/model"));
                assert_eq!(engine, "lsoda");
                assert_eq!(batch, 8);
                assert_eq!(rtol, 1e-4);
                assert_eq!(atol, 1e-12);
                assert_eq!(out_dir, None);
                assert_eq!(threads, 4);
                assert_eq!(lane_width, Some(4));
                assert_eq!(max_retries, 3);
                assert_eq!(member_budget, Some(5000));
                assert_eq!(checkpoint_dir, Some(PathBuf::from("/tmp/ckpt")));
                assert_eq!(shard_size, 16);
                assert_eq!(workers, 0);
                assert_eq!(pack, None, "packing defaults to auto");
                assert_eq!(lease_ttl, DEFAULT_LEASE_TTL_MS);
                assert_eq!(retry_base, DEFAULT_RETRY_BASE_MS);
                assert_eq!(listen, None);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&argv("simulate /tmp/model")).unwrap() {
            Command::Simulate {
                lane_width,
                max_retries,
                member_budget,
                checkpoint_dir,
                shard_size,
                ..
            } => {
                assert_eq!(lane_width, None, "lane width defaults to auto");
                assert_eq!(max_retries, 0, "retries default off");
                assert_eq!(member_budget, None, "no default step budget");
                assert_eq!(checkpoint_dir, None, "durable path is opt-in");
                assert_eq!(shard_size, DEFAULT_SHARD_SIZE);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parse_transport_and_packing_flags() {
        match parse(&argv(
            "simulate /m --checkpoint-dir /c --workers 3 --listen 127.0.0.1:0 \
             --pack-shards --lease-ttl 750 --retry-base 40",
        ))
        .unwrap()
        {
            Command::Simulate { workers, pack, lease_ttl, retry_base, listen, .. } => {
                assert_eq!(workers, 3);
                assert_eq!(pack, Some(true));
                assert_eq!(lease_ttl, 750);
                assert_eq!(retry_base, 40);
                assert_eq!(listen, Some("127.0.0.1:0".into()));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&argv("simulate /m --checkpoint-dir /c --workers 4 --no-pack-shards")).unwrap()
        {
            Command::Simulate { pack, .. } => assert_eq!(pack, Some(false)),
            other => panic!("wrong parse: {other:?}"),
        }
        // Timing must be positive; --listen and --workers need a
        // checkpoint to serve from.
        assert!(parse(&argv("simulate /m --checkpoint-dir /c --lease-ttl 0")).is_err());
        assert!(parse(&argv("simulate /m --checkpoint-dir /c --retry-base 0")).is_err());
        assert!(parse(&argv("simulate /m --listen 127.0.0.1:0")).is_err());

        match parse(&argv("coordinate /c --workers 2 --listen 0.0.0.0:7700")).unwrap() {
            Command::Coordinate { workers, listen, .. } => {
                assert_eq!(workers, 2);
                assert_eq!(listen, Some("0.0.0.0:7700".into()));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&argv("worker --connect host:7700 --worker-id w9")).unwrap() {
            Command::Worker { checkpoint_dir, connect, worker_id, .. } => {
                assert_eq!(checkpoint_dir, None);
                assert_eq!(connect, Some("host:7700".into()));
                assert_eq!(worker_id, Some("w9".into()));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("worker")).is_err(), "needs a directory or --connect");
        assert!(parse(&argv("worker /c --connect host:7700")).is_err(), "not both");
    }

    #[test]
    fn parse_lane_width_auto_and_errors() {
        match parse(&argv("simulate /tmp/model --lane-width auto")).unwrap() {
            Command::Simulate { lane_width, .. } => assert_eq!(lane_width, None),
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&argv("simulate /tmp/model --lane-width 1")).unwrap() {
            Command::Simulate { lane_width, .. } => {
                assert_eq!(lane_width, Some(1), "1 pins the scalar path")
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("simulate /tmp/model --lane-width 0")).is_err());
        assert!(parse(&argv("simulate /tmp/model --lane-width wide")).is_err());
        assert!(parse(&argv("simulate /tmp/model --lane-width")).is_err());
    }

    #[test]
    fn parse_ensemble_defaults_and_flags() {
        let cmd = parse(&argv(
            "ensemble /tmp/model --simulator ssa --replicates 256 --seed 9 --member 2 \
             --threads 4 --lane-width 8 --out /tmp/ens --checkpoint-dir /tmp/ck --shard-size 32",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Ensemble {
                model_dir: PathBuf::from("/tmp/model"),
                simulator: "ssa".into(),
                out_dir: Some(PathBuf::from("/tmp/ens")),
                replicates: 256,
                seed: 9,
                member: 2,
                threads: 4,
                lane_width: Some(8),
                checkpoint_dir: Some(PathBuf::from("/tmp/ck")),
                shard_size: 32,
            }
        );
        match parse(&argv("ensemble /tmp/model")).unwrap() {
            Command::Ensemble {
                simulator,
                replicates,
                seed,
                member,
                lane_width,
                shard_size,
                ..
            } => {
                assert_eq!(simulator, "tau-leaping", "lockstep lanes are the default");
                assert_eq!(replicates, 100);
                assert_eq!(seed, 0);
                assert_eq!(member, 0);
                assert_eq!(lane_width, None, "lane width defaults to auto");
                assert_eq!(shard_size, DEFAULT_SHARD_SIZE);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("ensemble")).is_err());
        assert!(parse(&argv("ensemble /m --replicates nope")).is_err());
        assert!(parse(&argv("ensemble /m --lane-width 0")).is_err());
    }

    #[test]
    fn parse_resume() {
        assert_eq!(
            parse(&argv("resume /tmp/ckpt")).unwrap(),
            Command::Resume { checkpoint_dir: PathBuf::from("/tmp/ckpt"), workers: 0 }
        );
        assert_eq!(
            parse(&argv("resume /tmp/ckpt --workers 4")).unwrap(),
            Command::Resume { checkpoint_dir: PathBuf::from("/tmp/ckpt"), workers: 4 }
        );
        assert!(parse(&argv("resume")).is_err());
        assert!(parse(&argv("resume /a /b")).is_err());
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse(&argv("simulate")).is_err());
        assert!(parse(&argv("simulate /m --batch notanumber")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("convert onlyone")).is_err());
        assert!(parse(&argv("generate --species 5 /tmp/x")).is_err()); // missing --reactions
    }

    #[test]
    fn parse_generate_and_recommend() {
        let g = parse(&argv("generate --species 10 --reactions 20 --seed 7 /tmp/gen")).unwrap();
        assert_eq!(
            g,
            Command::Generate {
                species: 10,
                reactions: 20,
                seed: 7,
                out_dir: PathBuf::from("/tmp/gen")
            }
        );
        let r = parse(&argv("recommend --species 64 --reactions 64 --sims 512")).unwrap();
        assert_eq!(r, Command::Recommend { species: 64, reactions: 64, sims: 512 });
    }

    #[test]
    fn end_to_end_generate_then_simulate() {
        let dir = std::env::temp_dir().join(format!("paraspace_cli_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut log = Vec::new();
        execute(
            &Command::Generate { species: 6, reactions: 8, seed: 3, out_dir: dir.clone() },
            &mut log,
        )
        .unwrap();
        execute(
            &Command::Simulate {
                model_dir: dir.clone(),
                engine: "fine-coarse".into(),
                out_dir: None,
                batch: 4,
                rtol: 1e-6,
                atol: 1e-12,
                threads: 2,
                lane_width: None,
                max_retries: 0,
                member_budget: None,
                checkpoint_dir: None,
                shard_size: DEFAULT_SHARD_SIZE,
                workers: 0,
                pack: None,
                lease_ttl: DEFAULT_LEASE_TTL_MS,
                retry_base: DEFAULT_RETRY_BASE_MS,
                listen: None,
            },
            &mut log,
        )
        .unwrap();
        let outputs: Vec<_> = std::fs::read_dir(dir.join("out")).unwrap().collect();
        assert_eq!(outputs.len(), 4, "one dynamics file per simulation");
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("4/4 simulations ok"), "log: {text}");
        assert!(text.contains("health: 4/4 ok"), "log: {text}");
        std::fs::remove_dir_all(&dir).ok();
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
    fn parse_pe_defaults_and_flags() {
        let cmd = parse(&argv(
            "pe /tmp/model --optimizer lbfgs --engine fine-coarse --unknown 0,3 \
             --log-radius 2.0 --observed A,B --target /tmp/target.tsv --rtol 1e-8 \
             --threads 4 --iterations 12 --swarm 24 --grad-iterations 30 --starts 2 \
             --seed 9 --out /tmp/pe --checkpoint-dir /tmp/ck",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Pe {
                model_dir: PathBuf::from("/tmp/model"),
                optimizer: "lbfgs".into(),
                engine: "fine-coarse".into(),
                unknown: Some(vec![0, 3]),
                log_radius: 2.0,
                observed: Some(vec!["A".into(), "B".into()]),
                target: Some(PathBuf::from("/tmp/target.tsv")),
                rtol: 1e-8,
                atol: 1e-12,
                threads: 4,
                iterations: 12,
                swarm: Some(24),
                grad_iterations: 30,
                starts: 2,
                seed: 9,
                out_dir: Some(PathBuf::from("/tmp/pe")),
                checkpoint_dir: Some(PathBuf::from("/tmp/ck")),
            }
        );
        match parse(&argv("pe /tmp/model")).unwrap() {
            Command::Pe { optimizer, engine, unknown, observed, target, swarm, .. } => {
                assert_eq!(optimizer, "hybrid", "hybrid is the default search");
                assert_eq!(engine, "lsoda");
                assert_eq!(unknown, None, "all constants unknown by default");
                assert_eq!(observed, None, "all species observed by default");
                assert_eq!(target, None, "self-calibration by default");
                assert_eq!(swarm, None, "swarm size defaults to the heuristic");
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("pe")).is_err(), "needs a model directory");
        assert!(parse(&argv("pe /m --optimizer annealing")).is_err());
        assert!(parse(&argv("pe /m --unknown 0,x")).is_err());
        assert!(parse(&argv("pe /m --log-radius 0")).is_err());
        assert!(parse(&argv("pe /m --starts 0")).is_err());
    }

    #[test]
    fn end_to_end_pe_recovers_constants_and_pins_the_optimizer() {
        use paraspace_rbm::{Reaction, ReactionBasedModel};
        let base = std::env::temp_dir().join(format!("paraspace_cli_pe_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        std::fs::create_dir_all(&base).unwrap();

        // Ground truth: A -> B -> C at rates (1.5, 0.4). The target file is
        // its trajectory in the `simulate` output format.
        let mut truth = ReactionBasedModel::new();
        let a = truth.add_species("A", 1.0);
        let b = truth.add_species("B", 0.0);
        let c = truth.add_species("C", 0.0);
        truth.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1.5)).unwrap();
        truth.add_reaction(Reaction::mass_action(&[(b, 1)], &[(c, 1)], 0.4)).unwrap();
        let times: Vec<f64> = (1..=8).map(|i| i as f64 * 0.5).collect();
        let engine = CpuEngine::new(CpuSolverKind::Lsoda);
        let job =
            SimulationJob::builder(&truth).time_points(times.clone()).replicate(1).build().unwrap();
        let sol = engine.run(&job).unwrap().outcomes.remove(0).solution.unwrap();
        let mut tsv = String::new();
        for (t, state) in sol.times.iter().zip(&sol.states) {
            tsv.push_str(&format!("{t:e}"));
            for v in state {
                tsv.push_str(&format!("\t{v:e}"));
            }
            tsv.push('\n');
        }
        let target_path = base.join("target.tsv");
        std::fs::write(&target_path, tsv).unwrap();

        // The searched model starts from placeholder constants (1, 1).
        let mut placeholder = ReactionBasedModel::new();
        let a = placeholder.add_species("A", 1.0);
        let b = placeholder.add_species("B", 0.0);
        let c = placeholder.add_species("C", 0.0);
        placeholder.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1.0)).unwrap();
        placeholder.add_reaction(Reaction::mass_action(&[(b, 1)], &[(c, 1)], 1.0)).unwrap();
        let model_dir = base.join("model");
        biosimware::write_dir(&placeholder, &model_dir).unwrap();
        biosimware::write_time_points(&times, &model_dir).unwrap();

        let ckpt = base.join("ckpt");
        let cmd = parse(&argv(&format!(
            "pe {} --optimizer lbfgs --target {} --starts 1 --checkpoint-dir {}",
            model_dir.display(),
            target_path.display(),
            ckpt.display(),
        )))
        .unwrap();
        let mut log = Vec::new();
        execute(&cmd, &mut log).unwrap();
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("pe (lbfgs, 2 unknowns)"), "log: {text}");

        let estimate = std::fs::read_to_string(model_dir.join("pe/estimate.tsv")).unwrap();
        let ks: Vec<f64> =
            estimate.lines().map(|l| l.split('\t').nth(1).unwrap().parse().unwrap()).collect();
        assert!((ks[0] - 1.5).abs() < 1e-2, "k1 = {}", ks[0]);
        assert!((ks[1] - 0.4).abs() < 1e-2, "k2 = {}", ks[1]);

        // Re-running under a different optimizer must be refused by the
        // checkpoint manifest, not silently restarted.
        let mismatched = parse(&argv(&format!(
            "pe {} --optimizer pso --target {} --starts 1 --checkpoint-dir {}",
            model_dir.display(),
            target_path.display(),
            ckpt.display(),
        )))
        .unwrap();
        let err = execute(&mismatched, &mut Vec::new()).unwrap_err();
        assert!(err.0.contains("optimizer"), "mismatch must name the optimizer pin: {}", err.0);

        // `resume` reconstructs the command from the manifest and replays
        // the completed search bitwise (no evaluations re-executed).
        let mut log = Vec::new();
        execute(&Command::Resume { checkpoint_dir: ckpt.clone(), workers: 0 }, &mut log).unwrap();
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("pe (lbfgs, 2 unknowns)"), "log: {text}");
        assert!(text.contains(", 0 executed"), "resume must replay, not re-run: {text}");

        std::fs::remove_dir_all(&base).ok();
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

    fn simulate_cmd(model_dir: &Path, checkpoint: Option<PathBuf>, batch: usize) -> Command {
        Command::Simulate {
            model_dir: model_dir.to_path_buf(),
            engine: "lsoda".into(),
            out_dir: None,
            batch,
            rtol: 1e-6,
            atol: 1e-12,
            threads: 2,
            lane_width: None,
            max_retries: 0,
            member_budget: None,
            checkpoint_dir: checkpoint,
            shard_size: 2,
            workers: 0,
            pack: None,
            lease_ttl: DEFAULT_LEASE_TTL_MS,
            retry_base: DEFAULT_RETRY_BASE_MS,
            listen: None,
        }
    }

    fn read_outputs(out_dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(out_dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap())
            })
            .collect()
    }

    #[test]
    fn durable_simulate_matches_plain_and_resumes_after_interrupt() {
        let base = std::env::temp_dir().join(format!("paraspace_cli_dur_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let model_a = base.join("model_a");
        let model_b = base.join("model_b");
        let mut log = Vec::new();
        for m in [&model_a, &model_b] {
            execute(
                &Command::Generate { species: 6, reactions: 8, seed: 3, out_dir: m.clone() },
                &mut log,
            )
            .unwrap();
        }

        // Plain run on model A, durable run on the identical model B: the
        // dynamics artifacts must be byte-identical.
        execute(&simulate_cmd(&model_a, None, 5), &mut log).unwrap();
        let ckpt = base.join("ckpt");
        execute(&simulate_cmd(&model_b, Some(ckpt.clone()), 5), &mut log).unwrap();
        let plain = read_outputs(&model_a.join("out"));
        let durable = read_outputs(&model_b.join("out"));
        assert_eq!(plain.len(), 5);
        assert_eq!(plain, durable, "durable artifacts must be byte-identical to plain");

        // Interrupt a fresh durable run with a pre-tripped token (as SIGINT
        // before the first shard would), then resume: identical artifacts.
        let model_c = base.join("model_c");
        execute(
            &Command::Generate { species: 6, reactions: 8, seed: 3, out_dir: model_c.clone() },
            &mut log,
        )
        .unwrap();
        let ckpt_c = base.join("ckpt_c");
        let tripped = CancelToken::new();
        tripped.cancel();
        let err = execute_with_cancel(
            &simulate_cmd(&model_c, Some(ckpt_c.clone()), 5),
            &mut log,
            &tripped,
        )
        .unwrap_err();
        assert!(err.to_string().contains("resume"), "interruption names the resume command: {err}");
        assert!(!model_c.join("out").exists(), "no artifacts before all shards commit");
        execute(&Command::Resume { checkpoint_dir: ckpt_c.clone(), workers: 0 }, &mut log).unwrap();
        assert_eq!(plain, read_outputs(&model_c.join("out")));
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("interrupted: 0/3 shards committed"), "log: {text}");

        // A batch (one shard) holding a non-finite member is rejected before
        // it reaches a solver. That is an outcome, not an error, with or
        // without a journal: both runs succeed and leave the same `.err`
        // artifacts.
        let mut log = Vec::new();
        let (model_d, model_e) = (base.join("model_d"), base.join("model_e"));
        for m in [&model_d, &model_e] {
            execute(
                &Command::Generate { species: 6, reactions: 8, seed: 3, out_dir: m.clone() },
                &mut log,
            )
            .unwrap();
            std::fs::write(m.join("c_matrix"), "1 1 1 1 1 1 1 1\n1 NaN 1 1 1 1 1 1\n").unwrap();
        }
        execute(&simulate_cmd(&model_d, None, 1), &mut log).unwrap();
        execute(&simulate_cmd(&model_e, Some(base.join("ckpt_e")), 1), &mut log).unwrap();
        let plain = read_outputs(&model_d.join("out"));
        assert_eq!(plain, read_outputs(&model_e.join("out")));
        assert_eq!(
            plain.keys().collect::<Vec<_>>(),
            ["dynamics_00000.err", "dynamics_00001.err"],
            "every member of the rejected batch fails"
        );
        let report = String::from_utf8_lossy(&plain["dynamics_00001.err"]).into_owned();
        assert!(report.contains("taxonomy: invalid"), "{report}");
        assert!(report.contains("non-finite rate constant"), "{report}");
        let text = String::from_utf8(log).unwrap();
        assert_eq!(text.matches("0/2 simulations ok").count(), 2, "log: {text}");
        assert_eq!(text.matches("failures: invalid x2").count(), 2, "log: {text}");
        std::fs::remove_dir_all(&base).ok();
    }

    /// What `resume` must rebuild from a checkpoint of `cmd`: the command
    /// itself, attached to the checkpoint directory it is resumed from.
    fn resumed(cmd: &Command, dir: &Path, resumed_workers: usize) -> Command {
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
    fn edit_manifest(
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
    fn resume_rebuilds_simulate_from_its_manifest() {
        let base =
            std::env::temp_dir().join(format!("paraspace_cli_rt_sim_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let model = base.join("model");
        execute(
            &Command::Generate { species: 5, reactions: 6, seed: 2, out_dir: model.clone() },
            &mut Vec::new(),
        )
        .unwrap();
        let m = model.display();
        let ckpt = Path::new("/resumed/from/here");
        for flags in [
            "--checkpoint-dir /c --no-pack-shards",
            "--checkpoint-dir /c --pack-shards --lane-width auto --workers 3 --listen 127.0.0.1:0",
            "--checkpoint-dir /c --no-pack-shards --engine lsoda --out /tmp/o --batch 7 --rtol 1e-4 \
             --atol 1e-9 --threads 4 --lane-width 4 --max-retries 2 --member-budget 5000 \
             --shard-size 3 --lease-ttl 750 --retry-base 40",
        ] {
            let cmd = parse(&argv(&format!("simulate {m} {flags}"))).unwrap();
            let manifest = SimulateWorld::load(&cmd).unwrap().manifest();
            let rebuilt = command_from_manifest(&manifest, ckpt, 2).unwrap();
            assert_eq!(rebuilt, resumed(&cmd, ckpt, 2), "flags: {flags}");
        }

        // An automatic plan is pinned as resolved: uniform for one process.
        let auto = parse(&argv(&format!("simulate {m} --checkpoint-dir /c"))).unwrap();
        let manifest = SimulateWorld::load(&auto).unwrap().manifest();
        match command_from_manifest(&manifest, ckpt, 4).unwrap() {
            Command::Simulate { pack, workers, .. } => {
                assert_eq!(pack, Some(false), "the resume keeps the original plan");
                assert_eq!(workers, 4);
            }
            other => panic!("wrong command: {other:?}"),
        }

        // A checkpoint that predates the timing fields resumes at the
        // defaults it ran with.
        let old = edit_manifest(&manifest, &[("lease_ttl", None), ("retry_base", None)]);
        match command_from_manifest(&old, ckpt, 0).unwrap() {
            Command::Simulate { lease_ttl, retry_base, .. } => {
                assert_eq!(lease_ttl, DEFAULT_LEASE_TTL_MS);
                assert_eq!(retry_base, DEFAULT_RETRY_BASE_MS);
            }
            other => panic!("wrong command: {other:?}"),
        }

        // A missing or malformed field names its manifest key.
        for (edit, expect) in [
            (("batch", None), "missing \"batch\""),
            (("world.engine", None), "missing \"world.engine\""),
            (("batch", Some("many")), "field \"batch\""),
            (("world.lane_width", Some("0")), "field \"world.lane_width\""),
            (("member_budget", Some("lots")), "field \"member_budget\""),
            (("lease_ttl", Some("0")), "field \"lease_ttl\""),
        ] {
            let err =
                command_from_manifest(&edit_manifest(&manifest, &[edit]), ckpt, 0).unwrap_err();
            assert!(err.0.contains(expect), "{edit:?}: {}", err.0);
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn resume_rebuilds_pe_from_its_manifest() {
        let ckpt = Path::new("/resumed/from/here");
        for flags in [
            "",
            "--optimizer lbfgs --engine fine-coarse --unknown 0,3 --log-radius 2.0 \
             --observed A,B --target /tmp/target.tsv --rtol 1e-8 --atol 1e-10 --threads 4 \
             --iterations 12 --swarm 24 --grad-iterations 30 --starts 2 --seed 9 --out /tmp/pe",
            "--optimizer pso --unknown 5 --observed C",
        ] {
            let cmd = parse(&argv(&format!("pe /tmp/model --checkpoint-dir /c {flags}"))).unwrap();
            let manifest = pin_flags(CampaignManifest::new("cli-pe", 0), PE_ARGS, &cmd);
            let rebuilt = command_from_manifest(&manifest, ckpt, 0).unwrap();
            assert_eq!(rebuilt, resumed(&cmd, ckpt, 0), "flags: {flags}");

            let missing = edit_manifest(&manifest, &[("swarm", None)]);
            let err = command_from_manifest(&missing, ckpt, 0).unwrap_err();
            assert!(err.0.contains("missing \"swarm\""), "{}", err.0);
            let malformed = edit_manifest(&manifest, &[("unknown", Some("0,x"))]);
            let err = command_from_manifest(&malformed, ckpt, 0).unwrap_err();
            assert!(err.0.contains("field \"unknown\""), "{}", err.0);
        }
    }

    #[test]
    fn resume_rebuilds_ensemble_from_its_manifest() {
        let base =
            std::env::temp_dir().join(format!("paraspace_cli_rt_ens_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let model = base.join("model");
        execute(
            &Command::Generate { species: 5, reactions: 6, seed: 8, out_dir: model.clone() },
            &mut Vec::new(),
        )
        .unwrap();
        // The library pins most of an ensemble's manifest, so take it from a
        // real run, interrupted before its first shard.
        let tripped = CancelToken::new();
        tripped.cancel();
        for (i, flags) in [
            "",
            "--simulator ssa --replicates 9 --seed 5 --member 2 --threads 3 --lane-width 8 \
             --out /tmp/ens --shard-size 4",
        ]
        .iter()
        .enumerate()
        {
            let ckpt = base.join(format!("ckpt{i}"));
            let cmd = parse(&argv(&format!(
                "ensemble {} --checkpoint-dir {} {flags}",
                model.display(),
                ckpt.display()
            )))
            .unwrap();
            execute_with_cancel(&cmd, &mut Vec::new(), &tripped).unwrap_err();
            let manifest = CampaignManifest::read(&ckpt.join(MANIFEST_FILE)).unwrap();
            let elsewhere = Path::new("/resumed/from/here");
            let rebuilt = command_from_manifest(&manifest, elsewhere, 0).unwrap();
            assert_eq!(rebuilt, resumed(&cmd, elsewhere, 0), "flags: {flags}");

            let missing = edit_manifest(&manifest, &[("replicates", None)]);
            let err = command_from_manifest(&missing, elsewhere, 0).unwrap_err();
            assert!(err.0.contains("missing \"replicates\""), "{}", err.0);
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn durable_simulate_survives_torn_journal_tail() {
        let base = std::env::temp_dir().join(format!("paraspace_cli_torn_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let model = base.join("model");
        let ckpt = base.join("ckpt");
        let mut log = Vec::new();
        execute(
            &Command::Generate { species: 6, reactions: 8, seed: 5, out_dir: model.clone() },
            &mut log,
        )
        .unwrap();
        execute(&simulate_cmd(&model, Some(ckpt.clone()), 6), &mut log).unwrap();
        let baseline = read_outputs(&model.join("out"));

        // Tear the journal tail and wipe the outputs; the re-run truncates
        // the torn record, re-executes that shard, and reproduces the
        // artifacts byte for byte.
        let log_file = ckpt.join(paraspace_journal::LOG_FILE);
        let len = std::fs::metadata(&log_file).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&log_file).unwrap().set_len(len - 5).unwrap();
        std::fs::remove_dir_all(model.join("out")).unwrap();
        execute(&simulate_cmd(&model, Some(ckpt.clone()), 6), &mut log).unwrap();
        assert_eq!(baseline, read_outputs(&model.join("out")));
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("torn bytes truncated"), "log: {text}");
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn resume_refuses_changed_world() {
        let base = std::env::temp_dir().join(format!("paraspace_cli_world_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let model = base.join("model");
        let ckpt = base.join("ckpt");
        let mut log = Vec::new();
        execute(
            &Command::Generate { species: 5, reactions: 6, seed: 2, out_dir: model.clone() },
            &mut log,
        )
        .unwrap();
        execute(&simulate_cmd(&model, Some(ckpt.clone()), 4), &mut log).unwrap();

        // Re-running the same checkpoint with a different engine must be
        // refused — the journaled bytes belong to a different world.
        let mut changed = simulate_cmd(&model, Some(ckpt.clone()), 4);
        if let Command::Simulate { engine, .. } = &mut changed {
            *engine = "fine".into();
        }
        let err = execute(&changed, &mut log).unwrap_err();
        assert!(err.to_string().contains("engine"), "mismatch names the field: {err}");

        // Pinning a different lane width is likewise a different world (it
        // changes the billed schedule even though trajectories are bitwise
        // identical).
        let mut repinned = simulate_cmd(&model, Some(ckpt.clone()), 4);
        if let Command::Simulate { lane_width, .. } = &mut repinned {
            *lane_width = Some(2);
        }
        let err = execute(&repinned, &mut log).unwrap_err();
        assert!(err.to_string().contains("lane_width"), "mismatch names the field: {err}");
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn err_files_carry_recovery_log_and_taxonomy() {
        // A nonsensical tolerance forces every member to fail; the .err
        // artifacts must carry the full recovery log and taxonomy label.
        let base = std::env::temp_dir().join(format!("paraspace_cli_err_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let model = base.join("model");
        let mut log = Vec::new();
        execute(
            &Command::Generate { species: 6, reactions: 8, seed: 3, out_dir: model.clone() },
            &mut log,
        )
        .unwrap();
        let mut cmd = simulate_cmd(&model, None, 2);
        if let Command::Simulate { rtol, atol, max_retries, .. } = &mut cmd {
            // Keep tolerances valid but impossible to satisfy within the
            // step ceiling by shrinking them to the representable floor.
            *rtol = 1e-300;
            *atol = 1e-305;
            *max_retries = 1;
        }
        execute(&cmd, &mut log).unwrap();
        let outputs = read_outputs(&model.join("out"));
        let err_file = outputs.iter().find(|(name, _)| name.ends_with(".err"));
        if let Some((name, bytes)) = err_file {
            let text = String::from_utf8_lossy(bytes);
            for key in ["error:", "taxonomy:", "solver:", "attempts:", "relaxations:", "rerouted:"]
            {
                assert!(text.contains(key), "{name} missing {key:?}: {text}");
            }
        }
        std::fs::remove_dir_all(&base).ok();
    }

    fn ensemble_cmd(model_dir: &Path, checkpoint: Option<PathBuf>, threads: usize) -> Command {
        Command::Ensemble {
            model_dir: model_dir.to_path_buf(),
            simulator: "tau-leaping".into(),
            out_dir: None,
            replicates: 7,
            seed: 11,
            member: 0,
            threads,
            lane_width: None,
            checkpoint_dir: checkpoint,
            shard_size: 3,
        }
    }

    #[test]
    fn ensemble_end_to_end_writes_replicates_and_stats() {
        let base = std::env::temp_dir().join(format!("paraspace_cli_ens_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let model = base.join("model");
        let mut log = Vec::new();
        execute(
            &Command::Generate { species: 5, reactions: 6, seed: 8, out_dir: model.clone() },
            &mut log,
        )
        .unwrap();
        execute(&ensemble_cmd(&model, None, 2), &mut log).unwrap();
        let out_dir = model.join("ensemble");
        let names: std::collections::BTreeSet<String> = std::fs::read_dir(&out_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.contains("replicate_00000.tsv"));
        assert!(names.contains("replicate_00006.tsv"));
        assert!(names.contains("ensemble_mean.tsv"));
        assert!(names.contains("ensemble_variance.tsv"));
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("7/7 replicates ok"), "log: {text}");

        // SSA takes the scalar path on the same model and also succeeds.
        let mut ssa = ensemble_cmd(&model, None, 1);
        if let Command::Ensemble { simulator, out_dir, .. } = &mut ssa {
            *simulator = "ssa".into();
            *out_dir = Some(base.join("ssa_out"));
        }
        let mut log = Vec::new();
        execute(&ssa, &mut log).unwrap();
        assert!(String::from_utf8(log).unwrap().contains("ssa ensemble: 7/7"));
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn ensemble_replaces_an_earlier_ensembles_replicates_only() {
        let base = std::env::temp_dir().join(format!("paraspace_cli_ensre_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let model = base.join("model");
        let mut log = Vec::new();
        execute(
            &Command::Generate { species: 5, reactions: 6, seed: 8, out_dir: model.clone() },
            &mut log,
        )
        .unwrap();
        let sized = |replicates: usize| {
            let mut cmd = ensemble_cmd(&model, None, 2);
            if let Command::Ensemble { replicates: r, .. } = &mut cmd {
                *r = replicates;
            }
            cmd
        };
        let out_dir = model.join("ensemble");
        execute(&sized(16), &mut log).unwrap();
        std::fs::write(out_dir.join("notes.txt"), "kept").unwrap();
        execute(&sized(8), &mut log).unwrap();
        let names: Vec<String> = read_outputs(&out_dir).into_keys().collect();
        let replicates: Vec<&String> =
            names.iter().filter(|n| n.starts_with("replicate_")).collect();
        assert_eq!(replicates.len(), 8, "{names:?}");
        assert!(replicates.iter().all(|n| n.as_str() < "replicate_00008"), "{names:?}");
        for kept in ["notes.txt", "ensemble_mean.tsv", "ensemble_variance.tsv"] {
            assert!(names.iter().any(|n| n == kept), "{kept} missing: {names:?}");
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn a_tripped_token_stops_an_ensemble_before_any_replicate_file() {
        let base =
            std::env::temp_dir().join(format!("paraspace_cli_enscancel_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let model = base.join("model");
        execute(
            &Command::Generate { species: 5, reactions: 6, seed: 8, out_dir: model.clone() },
            &mut Vec::new(),
        )
        .unwrap();
        let tripped = CancelToken::new();
        tripped.cancel();
        // Plain: the batch itself sees the token and nothing is written.
        let err = execute_with_cancel(&ensemble_cmd(&model, None, 2), &mut Vec::new(), &tripped)
            .unwrap_err();
        assert!(err.to_string().contains("cancelled"), "names the cancellation: {err}");
        assert!(!model.join("ensemble").exists(), "no replicate file after a cancelled run");
        // Durable: the checkpoint commits what it has and hints at resume.
        let ckpt = base.join("ckpt");
        let err =
            execute_with_cancel(&ensemble_cmd(&model, Some(ckpt), 2), &mut Vec::new(), &tripped)
                .unwrap_err();
        assert!(err.to_string().contains("resume"), "{err}");
        assert!(!model.join("ensemble").exists());
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn durable_ensemble_resumes_to_identical_artifacts() {
        let base =
            std::env::temp_dir().join(format!("paraspace_cli_ensdur_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let model = base.join("model");
        let mut log = Vec::new();
        execute(
            &Command::Generate { species: 5, reactions: 6, seed: 8, out_dir: model.clone() },
            &mut log,
        )
        .unwrap();
        // Plain run is the byte-level reference.
        execute(&ensemble_cmd(&model, None, 2), &mut log).unwrap();
        let reference = read_outputs(&model.join("ensemble"));
        std::fs::remove_dir_all(model.join("ensemble")).unwrap();

        // Interrupt a durable run before the first shard, then resume with
        // the stored configuration: artifacts must match the plain run.
        let ckpt = base.join("ckpt");
        let tripped = CancelToken::new();
        tripped.cancel();
        let err =
            execute_with_cancel(&ensemble_cmd(&model, Some(ckpt.clone()), 2), &mut log, &tripped)
                .unwrap_err();
        assert!(err.to_string().contains("resume"), "{err}");
        execute(&Command::Resume { checkpoint_dir: ckpt.clone(), workers: 0 }, &mut log).unwrap();
        assert_eq!(reference, read_outputs(&model.join("ensemble")));
        let text = String::from_utf8_lossy(&log).into_owned();
        assert!(text.contains("ensemble (durable)"), "log: {text}");

        // A different seed on the same checkpoint is a different world.
        let mut reseeded = ensemble_cmd(&model, Some(ckpt.clone()), 2);
        if let Command::Ensemble { seed, .. } = &mut reseeded {
            *seed = 12;
        }
        let err = execute(&reseeded, &mut log).unwrap_err();
        assert!(err.to_string().contains("seed"), "mismatch names the field: {err}");
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn recommend_prints_engine() {
        let mut log = Vec::new();
        execute(&Command::Recommend { species: 64, reactions: 64, sims: 512 }, &mut log).unwrap();
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("fine-coarse"));
    }
}
