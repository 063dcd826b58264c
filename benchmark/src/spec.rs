//! The metric tables. `BENCHMARK.json` at the repository root declares the
//! same names, units and bounds; `tests/contract.rs` holds the two
//! together.

/// `run_seconds`: how long the timed repetitions of one run last unless
/// `--seconds` says otherwise.
pub const RUN_SECONDS: f64 = 50.0;

/// Every workload of the package, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 5] =
    ["psa2d_autophagy", "pe_hybrid_metabolic", "sweep_cli", "sweep_net", "ensemble_tau"];

/// The workloads `BENCHMARK.json` declares, i.e. the ones a later change is
/// gated on. The harness caps all its runs together at 57 minutes and
/// makes 22 per workload, and only runs of about a minute repeat within a
/// third of the bounds on this host (README, "Why it is built this way");
/// that admits two. The other three are run and checked by the same
/// driver, only not gated.
pub const GATED_WORKLOADS: [&str; 2] = ["psa2d_autophagy", "sweep_cli"];

/// A metric a user of the system sees, with the share of the parent's
/// median by which it may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "wall_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "sims_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "cpu_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
];

/// How two runs of the same code must agree on a per-layer metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repeat {
    /// A count or a computed value of a deterministic campaign: identical.
    Exact,
    /// A measured time, a ratio of measured times, or a count of events
    /// that depend on scheduling (a lease reassigned, a worker replaced):
    /// reported, not gated.
    Measured,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub repeat: Repeat,
}

const fn exact(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better, repeat: Repeat::Exact }
}

const fn measured(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better, repeat: Repeat::Measured }
}

/// Every per-layer metric of a traced run, layer = crate name. A workload
/// on which a layer does no work reports 0 for that layer's rows — the
/// "and not on" column of the README's table, as a measurement.
pub const PER_LAYER: &[PerLayer] = &[
    // rbm: model compile and the flux / RHS / Jacobian / ∂f/∂k kernels.
    measured("rbm.compile_s", "s", "lower"),
    measured("rbm.rhs_ns", "ns", "lower"),
    measured("rbm.rhs_batch_ns_per_lane", "ns", "lower"),
    measured("rbm.jac_ns", "ns", "lower"),
    measured("rbm.dfdk_ns", "ns", "lower"),
    exact("rbm.rhs_evals", "count", "lower"),
    exact("rbm.jac_evals", "count", "lower"),
    measured("rbm.rhs_s_est", "s", "lower"),
    measured("rbm.jac_s_est", "s", "lower"),
    // linalg: LU factor and back-solve at the workload's n and sparsity.
    measured("linalg.lu_factor_ns", "ns", "lower"),
    measured("linalg.lu_solve_ns", "ns", "lower"),
    measured("linalg.clu_factor_ns", "ns", "lower"),
    exact("linalg.lu_count", "count", "lower"),
    exact("linalg.solve_count", "count", "lower"),
    measured("linalg.lu_s_est", "s", "lower"),
    // solvers: step control, Newton, lockstep lanes, sensitivities.
    exact("solvers.steps", "count", "lower"),
    exact("solvers.rejected", "count", "lower"),
    exact("solvers.accept_ratio", "ratio", "higher"),
    exact("solvers.newton_iters", "count", "lower"),
    exact("solvers.newton_per_step", "ratio", "lower"),
    measured("solvers.scalar_ns_per_step", "ns", "lower"),
    measured("solvers.lane_ns_per_step", "ns", "lower"),
    measured("solvers.lane_speedup", "ratio", "higher"),
    measured("solvers.sens_ns_per_step", "ns", "lower"),
    measured("solvers.self_s_est", "s", "lower"),
    // vgpu: the cost model's host-side bookkeeping and its output.
    measured("vgpu.cost_launch_ns", "ns", "lower"),
    exact("vgpu.simulated_total_ns", "ns", "lower"),
    // core: job build, stiffness triage, engine routing.
    measured("core.job_build_s", "s", "lower"),
    measured("core.triage_s", "s", "lower"),
    measured("core.engine_run_s", "s", "lower"),
    measured("core.engine_overhead_frac", "ratio", "lower"),
    exact("core.lane_width", "count", "higher"),
    exact("core.stiff_members", "count", "lower"),
    exact("core.reroutes", "count", "lower"),
    exact("core.evicted_lanes", "count", "lower"),
    // exec: host scheduling.
    measured("exec.dispatch_us_per_task", "us", "lower"),
    measured("exec.par_eff_2t", "ratio", "higher"),
    // analysis: reduction, shard planning, optimizer, dispatch.
    measured("analysis.reduce_s", "s", "lower"),
    measured("analysis.plan_s", "s", "lower"),
    exact("analysis.pso_solves", "count", "lower"),
    exact("analysis.grad_evals", "count", "lower"),
    measured("analysis.optimizer_self_s", "s", "lower"),
    exact("analysis.shards", "count", "lower"),
    measured("analysis.reassignments", "count", "lower"),
    measured("analysis.duplicate_records", "count", "lower"),
    measured("analysis.dispatch_tax_ms_per_shard", "ms", "lower"),
    // journal: write-ahead commits.
    measured("journal.commit_us_per_shard", "us", "lower"),
    exact("journal.bytes_per_shard", "count", "lower"),
    exact("journal.fsyncs", "count", "lower"),
    measured("journal.open_replay_s", "s", "lower"),
    measured("journal.durable_tax_ms_per_shard", "ms", "lower"),
    // transport: the TCP lease lifecycle.
    measured("transport.rpc_rtt_us", "us", "lower"),
    measured("transport.net_tax_ms_per_shard", "ms", "lower"),
    measured("transport.coordinator_cpu_s", "s", "lower"),
    measured("transport.retries", "count", "lower"),
    // cli: process start, model read, artifact write.
    measured("cli.spawn_s", "s", "lower"),
    measured("cli.read_model_s", "s", "lower"),
    measured("cli.write_artifacts_s", "s", "lower"),
    exact("cli.files_out", "count", "lower"),
    exact("cli.bytes_out", "count", "lower"),
    // stochastic: lockstep tau-leaping.
    exact("stochastic.lockstep_iters", "count", "lower"),
    exact("stochastic.lane_steps", "count", "lower"),
    measured("stochastic.ns_per_lane_step", "ns", "lower"),
    measured("stochastic.lane_speedup", "ratio", "higher"),
    // The run itself: correctness of the campaign the trace describes, how
    // much of its single-thread wall the named layers explain, and what
    // the staged replay costs over the plain campaign.
    exact("check.fail_frac", "ratio", "lower"),
    exact("check.ref_err", "ratio", "lower"),
    measured("trace.campaign_wall_1t_s", "s", "lower"),
    measured("trace.attributed_frac", "ratio", "higher"),
    measured("trace.overhead_frac", "ratio", "lower"),
];
