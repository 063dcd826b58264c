//! Kernel and fixed-cost probes: each calls one layer's public functions
//! on inputs taken from the workload itself and reports a time per call.
//! A probe runs for the tracer's budget, in batches, and reports the
//! fastest batch: on a microsecond kernel interference only ever adds.

use super::Tracer;
use crate::stats::median;
use paraspace_core::{RbmBatchSystem, RbmOdeSystem, SimulationJob};
use paraspace_exec::Executor;
use paraspace_journal::{CampaignManifest, Journal};
use paraspace_linalg::{CMatrix, CluFactor, Complex64, LuFactor, Matrix};
use paraspace_rbm::CompiledOdes;
use paraspace_solvers::{
    Dopri5, Dopri5Batch, OdeSolver, Radau5, Radau5Batch, SolverScratch, StepStats,
};
use paraspace_transport::server::{CoordinatorServer, ServerConfig};
use paraspace_transport::wire::{
    decode_reply, encode_request, read_frame, write_frame, Reply, Request, NO_SHARD,
    PROTOCOL_VERSION,
};
use paraspace_vgpu::{cost_launch, DeviceConfig, DpModel, KernelLaunch, ThreadWork};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

const PROBE_BATCHES: usize = 7;

/// Nanoseconds per call of `f`: `PROBE_BATCHES` batches sized to fill
/// `budget` together, fastest batch ÷ calls.
pub fn time_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let first = start.elapsed().max(Duration::from_nanos(20));
    let per_batch = budget.as_secs_f64() / PROBE_BATCHES as f64;
    let calls = ((per_batch / first.as_secs_f64()) as usize).clamp(1, 1_000_000);
    (0..PROBE_BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_secs_f64() * 1e9 / calls as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// A state and the constants it evolved under, sampled from a trajectory
/// of the workload.
pub struct KernelSample {
    pub x: Vec<f64>,
    pub k: Vec<f64>,
}

/// `rbm.*_ns`: the flux/RHS, Jacobian and ∂f/∂k kernels at `samples`,
/// cycling through them so no single state's sparsity of zeros decides the
/// number.
pub fn rbm_kernels(
    t: &mut Tracer,
    odes: &CompiledOdes,
    samples: &[KernelSample],
    lanes: usize,
    dfdk_of: Option<&[usize]>,
) {
    let (n, m) = (odes.n_species(), odes.n_reactions());
    let budget = t.probe_budget;
    let mut flux = vec![0.0; m];
    let mut out = vec![0.0; n];
    let mut at = 0usize;
    let mut next = || {
        at = (at + 1) % samples.len();
        &samples[at]
    };
    t.set(
        "rbm.rhs_ns",
        time_ns(budget, || {
            let s = next();
            odes.rhs_with_buffer(&s.x, &s.k, &mut flux, &mut out);
            black_box(&out);
        }),
    );
    let mut jac = Matrix::zeros(n, n);
    t.set(
        "rbm.jac_ns",
        time_ns(budget, || {
            let s = next();
            odes.jacobian_with(&s.x, &s.k, &mut jac);
            black_box(&jac);
        }),
    );
    if let Some(which) = dfdk_of {
        let mut cols = vec![0.0; which.len() * n];
        t.set(
            "rbm.dfdk_ns",
            time_ns(budget, || {
                odes.dfdk_with(&next().x, which, &mut cols);
                black_box(&cols);
            }),
        );
    }
    if lanes > 1 && odes.supports_lane_batch() {
        // Species-major, lane-minor blocks, as the lockstep solvers hold
        // them.
        let mut xl = vec![0.0; n * lanes];
        let mut kl = vec![0.0; m * lanes];
        for l in 0..lanes {
            let s = &samples[l % samples.len()];
            for i in 0..n {
                xl[i * lanes + l] = s.x[i];
            }
            for r in 0..m {
                kl[r * lanes + l] = s.k[r];
            }
        }
        let mut fl = vec![0.0; m * lanes];
        let mut dl = vec![0.0; n * lanes];
        let sweep = time_ns(budget, || {
            odes.rhs_batch(lanes, &xl, &kl, &mut fl, &mut dl);
            black_box(&dl);
        });
        t.set("rbm.rhs_batch_ns_per_lane", sweep / lanes as f64);
    }
}

/// `rbm.compile_s`.
pub fn compile_s(t: &mut Tracer, model: &paraspace_rbm::ReactionBasedModel) {
    let ns = time_ns(t.probe_budget, || {
        black_box(model.compile().expect("the workload's model compiles"));
    });
    t.set("rbm.compile_s", ns * 1e-9);
}

/// `linalg.*_ns`: dense LU factor, back-solve and complex factor of the
/// Radau iteration matrix `γ/h · I − J` at the workload's dimension, with
/// `J` taken at a sampled state (so its zeros are the model's).
pub fn linalg_kernels(t: &mut Tracer, odes: &CompiledOdes, sample: &KernelSample) {
    let n = odes.n_species();
    let mut jac = Matrix::zeros(n, n);
    odes.jacobian_with(&sample.x, &sample.k, &mut jac);
    // Radau IIA's real eigenvalue over a representative step.
    let shift = 3.6378 / 1e-2;
    let real = Matrix::from_fn(n, n, |i, j| if i == j { shift } else { 0.0 } - jac.row(i)[j]);
    let mut complex = CMatrix::from_real(&real);
    for i in 0..n {
        complex.row_mut(i)[i] = Complex64::new(2.6811 / 1e-2 - jac.row(i)[i], 3.0504 / 1e-2);
    }
    let budget = t.probe_budget;
    t.set(
        "linalg.lu_factor_ns",
        time_ns(budget, || {
            black_box(LuFactor::new(real.clone()).expect("iteration matrix is regular"));
        }),
    );
    let factor = LuFactor::new(real.clone()).expect("iteration matrix is regular");
    let mut rhs = sample.x.clone();
    t.set(
        "linalg.lu_solve_ns",
        time_ns(budget, || {
            rhs.copy_from_slice(&sample.x);
            factor.solve_in_place(&mut rhs);
            black_box(&rhs);
        }),
    );
    t.set(
        "linalg.clu_factor_ns",
        time_ns(budget, || {
            black_box(CluFactor::new(complex.clone()).expect("iteration matrix is regular"));
        }),
    );
}

/// Which lockstep kernel the workload's members run on.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Dopri5,
    Radau5,
}

/// What integrating `members` of `job` directly — no engine around the
/// solver — cost.
pub struct DirectSolve {
    pub seconds: f64,
    pub stats: StepStats,
}

/// Scalar solves of `members`, one after the other, the way the engine's
/// scalar phases call them.
pub fn solve_scalar(job: &SimulationJob, members: &[usize], family: Family) -> DirectSolve {
    let solver: &dyn OdeSolver = match family {
        Family::Dopri5 => &Dopri5::new(),
        Family::Radau5 => &Radau5::new(),
    };
    let mut scratch = SolverScratch::new();
    let mut stats = StepStats::default();
    let start = Instant::now();
    for &i in members {
        let (x0, k) = job.member(i);
        let system = RbmOdeSystem::new(job.odes(), k.to_vec());
        match solver.solve_pooled(&system, 0.0, x0, job.time_points(), job.options(), &mut scratch)
        {
            Ok(s) => stats.absorb(&s.stats),
            Err(f) => stats.absorb(&f.stats),
        }
    }
    DirectSolve { seconds: start.elapsed().as_secs_f64(), stats }
}

/// The same members as one lockstep lane group of `width`.
pub fn solve_lanes(
    job: &SimulationJob,
    members: &[usize],
    family: Family,
    width: usize,
) -> DirectSolve {
    let mut system = RbmBatchSystem::new(job.odes(), width.max(1));
    for &i in members {
        let (x0, k) = job.member(i);
        system.push_member(x0, k);
    }
    let mut scratch = SolverScratch::new();
    let start = Instant::now();
    let (results, _report) = match family {
        Family::Dopri5 => Dopri5Batch::new().solve_group(
            &mut system,
            0.0,
            job.time_points(),
            job.options(),
            &mut scratch,
        ),
        Family::Radau5 => Radau5Batch::new().solve_group(
            &mut system,
            0.0,
            job.time_points(),
            job.options(),
            &mut scratch,
        ),
    };
    let seconds = start.elapsed().as_secs_f64();
    let mut stats = StepStats::default();
    for r in &results {
        match r {
            Ok(s) => stats.absorb(&s.stats),
            Err(f) => stats.absorb(&f.stats),
        }
    }
    DirectSolve { seconds, stats }
}

/// `solvers.scalar_ns_per_step`, `solvers.lane_ns_per_step` and
/// `solvers.lane_speedup` on up to 32 of the job's members.
pub fn scalar_vs_lanes(
    t: &mut Tracer,
    job: &SimulationJob,
    members: &[usize],
    family: Family,
    width: usize,
) {
    let sampled: Vec<usize> = members.iter().copied().take(32).collect();
    if sampled.is_empty() {
        return;
    }
    let scalar = t.span("probe.scalar_solver", |_| solve_scalar(job, &sampled, family));
    let lanes = t.span("probe.lane_solver", |_| solve_lanes(job, &sampled, family, width.max(2)));
    t.set("solvers.scalar_ns_per_step", scalar.seconds * 1e9 / scalar.stats.steps.max(1) as f64);
    t.set("solvers.lane_ns_per_step", lanes.seconds * 1e9 / lanes.stats.steps.max(1) as f64);
    t.set("solvers.lane_speedup", scalar.seconds / lanes.seconds);
}

/// The campaign's integrations without the engine around them: scalar
/// DOPRI5 over the members triage sends to the explicit phase (including
/// the attempts that end in a hand-over), then Radau5 over the stiff and
/// handed-over members — as one lane group when the engine would form one.
pub struct DirectReplay {
    /// Members triage sends to the explicit phase.
    pub explicit_members: Vec<usize>,
    /// Stiff members and those DOPRI5 handed over.
    pub implicit_members: Vec<usize>,
    pub explicit: DirectSolve,
    pub implicit: DirectSolve,
    /// Whether the implicit phase ran as lockstep lanes.
    implicit_in_lanes: bool,
}

impl DirectReplay {
    pub fn seconds(&self) -> f64 {
        self.explicit.seconds + self.implicit.seconds
    }

    /// Every step, evaluation and factorization either phase performed,
    /// failed attempts included.
    pub fn total_stats(&self) -> StepStats {
        let mut total = self.explicit.stats;
        total.absorb(&self.implicit.stats);
        total
    }

    /// The computed kernel rows of this replay (see [`kernel_estimates`]):
    /// lane-wide evaluations are those of a lockstep implicit phase.
    pub fn estimate_kernels(&self, t: &mut Tracer) {
        let (scalar, lanes) = if self.implicit_in_lanes {
            (self.explicit.stats, self.implicit.stats)
        } else {
            (self.total_stats(), StepStats::default())
        };
        kernel_estimates(t, &scalar, &lanes, self.seconds(), true);
    }
}

/// Replays the integrations of `job` the way the engine routed them:
/// `stiff[i]` is triage's verdict on member `i`, `rerouted[i]` whether
/// DOPRI5 handed it over.
pub fn direct_replay(
    job: &SimulationJob,
    stiff: &[bool],
    rerouted: &[bool],
    width: usize,
) -> DirectReplay {
    let members = 0..job.batch_size();
    let explicit_members: Vec<usize> = members.clone().filter(|&i| !stiff[i]).collect();
    let implicit_members: Vec<usize> = members.filter(|&i| stiff[i] || rerouted[i]).collect();
    let implicit_in_lanes = width > 1 && implicit_members.len() >= 2;
    DirectReplay {
        explicit: solve_scalar(job, &explicit_members, Family::Dopri5),
        implicit: if implicit_in_lanes {
            solve_lanes(job, &implicit_members, Family::Radau5, width)
        } else {
            solve_scalar(job, &implicit_members, Family::Radau5)
        },
        explicit_members,
        implicit_members,
        implicit_in_lanes,
    }
}

/// The solver counters of a campaign, and the rates derived from them.
pub fn solver_counts(t: &mut Tracer, stats: &StepStats) {
    t.set("solvers.steps", stats.steps as f64);
    t.set("solvers.rejected", stats.rejected as f64);
    t.set("solvers.accept_ratio", stats.accepted as f64 / stats.steps.max(1) as f64);
    t.set("solvers.newton_iters", stats.nonlinear_iters as f64);
    t.set("solvers.newton_per_step", stats.nonlinear_iters as f64 / stats.steps.max(1) as f64);
    t.set("rbm.rhs_evals", stats.rhs_evals as f64);
    t.set("rbm.jac_evals", stats.jacobian_evals as f64);
    t.set("linalg.lu_count", stats.lu_decompositions as f64);
    t.set("linalg.solve_count", stats.linear_solves as f64);
}

/// The computed rows: count × probe time for the kernels, and what is left
/// of `integrate_s` for the solvers themselves. Evaluations made lane-wide
/// (`lane_stats`) are priced with the per-lane RHS probe, the rest with
/// the scalar one. `complex_factor`: whether a decomposition is Radau's
/// real + complex pair or a multistep method's single real one.
pub fn kernel_estimates(
    t: &mut Tracer,
    scalar_stats: &StepStats,
    lane_stats: &StepStats,
    integrate_s: f64,
    complex_factor: bool,
) {
    let rhs = (scalar_stats.rhs_evals as f64 * t.get("rbm.rhs_ns")
        + lane_stats.rhs_evals as f64 * t.get("rbm.rhs_batch_ns_per_lane"))
        * 1e-9;
    let jac = t.get("rbm.jac_evals") * t.get("rbm.jac_ns") * 1e-9;
    let factor_ns = t.get("linalg.lu_factor_ns")
        + if complex_factor { t.get("linalg.clu_factor_ns") } else { 0.0 };
    let lu = t.get("linalg.lu_count") * factor_ns * 1e-9
        + t.get("linalg.solve_count") * t.get("linalg.lu_solve_ns") * 1e-9;
    t.set("rbm.rhs_s_est", rhs);
    t.set("rbm.jac_s_est", jac);
    t.set("linalg.lu_s_est", lu);
    t.set("solvers.self_s_est", integrate_s - rhs - jac - lu);
}

/// `vgpu.cost_launch_ns`: host time to price one launch of `threads`
/// per-thread work descriptors, the shape every engine phase submits.
pub fn vgpu_cost_launch(t: &mut Tracer, threads: usize) {
    let blocks = threads.div_ceil(32).max(1);
    let work: Vec<ThreadWork> = (0..blocks * 32)
        .map(|i| ThreadWork::new().with_flops(1000 + i as u64).with_syncs(10))
        .collect();
    let launch = KernelLaunch::per_thread("probe", blocks, 32, work).with_registers(64);
    let (config, dp) = (DeviceConfig::titan_x(), DpModel::default());
    let ns = time_ns(t.probe_budget, || {
        black_box(cost_launch(&config, &dp, &launch));
    });
    t.set("vgpu.cost_launch_ns", ns);
}

/// `exec.dispatch_us_per_task`: `Executor::map` over `tasks` empty tasks on
/// `threads` workers.
pub fn exec_dispatch(t: &mut Tracer, threads: usize, tasks: usize) {
    let executor = Executor::new(threads);
    let ns = time_ns(t.probe_budget, || {
        black_box(executor.map(tasks, |i| i));
    });
    t.set("exec.dispatch_us_per_task", ns * 1e-3 / tasks.max(1) as f64);
}

/// `journal.commit_us_per_shard` and `journal.open_replay_s`: commit + sync
/// of `shards` payloads of `payload_bytes` into a fresh journal under
/// `dir`, then a re-open of the completed checkpoint.
pub fn journal_costs(
    t: &mut Tracer,
    dir: &Path,
    shards: usize,
    payload_bytes: usize,
) -> Result<(), String> {
    let manifest = CampaignManifest::new("e2e-journal-probe", shards as u64);
    let payload = vec![0x5Au8; payload_bytes];
    let (mut journal, _) = Journal::open_or_create(dir, &manifest).map_err(|e| e.to_string())?;
    let mut per_commit = Vec::with_capacity(shards);
    for shard in 0..shards as u64 {
        let start = Instant::now();
        journal.commit(shard, &payload).map_err(|e| e.to_string())?;
        journal.sync().map_err(|e| e.to_string())?;
        per_commit.push(start.elapsed().as_secs_f64() * 1e6);
    }
    drop(journal);
    t.set("journal.commit_us_per_shard", median(&per_commit));
    let start = Instant::now();
    let (journal, report) = Journal::open_or_create(dir, &manifest).map_err(|e| e.to_string())?;
    t.set("journal.open_replay_s", start.elapsed().as_secs_f64());
    if report.committed != shards as u64 || !journal.is_complete() {
        return Err("journal probe: a committed shard did not replay".into());
    }
    Ok(())
}

/// `transport.rpc_rtt_us`: heartbeat round trips of one raw connection to
/// a loopback `CoordinatorServer` over a checkpoint under `dir`.
pub fn transport_rtt(t: &mut Tracer, dir: &Path) -> Result<(), String> {
    let manifest = CampaignManifest::new("e2e-rtt-probe", 1);
    drop(Journal::open_or_create(dir, &manifest).map_err(|e| e.to_string())?);
    let config = ServerConfig { lease: Default::default(), poll_ms: 50, idle_disconnect_ms: None };
    let mut server = CoordinatorServer::start("127.0.0.1:0", dir, &manifest, config)
        .map_err(|e| e.to_string())?;
    let mut stream =
        std::net::TcpStream::connect(server.local_addr()).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).map_err(|e| e.to_string())?;
    let worker = "rtt-probe".to_string();
    let mut seq = 0u64;
    let mut rpc = |request: &Request| -> Result<Reply, String> {
        seq += 1;
        write_frame(&mut stream, seq, &encode_request(request)).map_err(|e| e.to_string())?;
        let (_, payload) = read_frame(&mut stream).map_err(|e| e.to_string())?;
        decode_reply(&payload).map_err(|e| e.to_string())
    };
    match rpc(&Request::Hello { worker: worker.clone(), version: PROTOCOL_VERSION })? {
        Reply::HelloAck { .. } => {}
        other => return Err(format!("rtt probe: unexpected handshake reply {other:?}")),
    }
    let mut counter = 0u64;
    let mut failure = None;
    let ns = time_ns(t.probe_budget, || {
        counter += 1;
        let beat = Request::Heartbeat {
            worker: worker.clone(),
            counter,
            shard: NO_SHARD,
            granted_at_ms: 0,
        };
        match rpc(&beat) {
            Ok(Reply::HeartbeatAck { .. }) => {}
            Ok(other) => failure = Some(format!("unexpected heartbeat reply {other:?}")),
            Err(e) => failure = Some(e),
        }
    });
    server.shutdown();
    if let Some(e) = failure {
        return Err(format!("rtt probe: {e}"));
    }
    t.set("transport.rpc_rtt_us", ns * 1e-3);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_scales_with_the_work() {
        let budget = Duration::from_millis(40);
        let spin = |n: u64| {
            move || {
                black_box((0..n).fold(0u64, |a, i| a ^ black_box(i)));
            }
        };
        let (short, long) = (time_ns(budget, spin(1_000)), time_ns(budget, spin(20_000)));
        assert!(long > 5.0 * short, "{long} ns vs {short} ns");
    }
}
