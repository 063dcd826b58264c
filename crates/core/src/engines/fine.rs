//! The fine-grained engine (LASSIE-class baseline) and its lane-batched
//! execution path.
//!
//! **Scalar path** (the published baseline): simulations run one at a
//! time; within each, the ODE dimension is spread across device threads,
//! with kernels launched from the **host** at every solver step (no
//! dynamic parallelism). The method pair mirrors the published baseline:
//! RKF45 while the problem behaves, first-order BDF once it does not.
//! This design shines on a *single very large* model — and collapses when
//! many simulations are requested, because simulations serialize and
//! every step pays host-launch latency: exactly the regions the
//! comparison maps assign to it.
//!
//! **Lane path** (auto-selected for mass-action batches): members are
//! packed into lane-groups and integrated `L` at a time by the lockstep
//! [`Dopri5Batch`] solver over the SoA [`RbmBatchSystem`] adapter. One
//! lockstep sweep evaluates the CSR flux/accumulation passes for all `L`
//! lanes per decoded segment, so the per-step host-launch latency and the
//! structure decoding are amortized `L`-fold. Step size, error control,
//! and acceptance stay **per lane** (masked divergence instead of a group
//! barrier), and the vgpu device records the resulting lane occupancy.
//! Per-member trajectories are bitwise independent of the lane width and
//! the worker-thread count.
//!
//! Stiffness triage no longer demotes members to scalar solves: members
//! whose Jacobian diagonal at `t = 0` crosses the published threshold form
//! a **second lane-group class** integrated by the lockstep
//! [`Radau5Batch`] kernel — batched simplified-Newton over one real and
//! one complex lane-batched LU per lane, with the scalar RADAU5
//! Jacobian-/factorization-reuse policy applied per lane. Stiff members
//! thus get the same `L`-fold host-launch amortization as non-stiff ones,
//! and their trajectories are bitwise identical to scalar [`Radau5`]
//! solves at any width.

use crate::engines::{
    attempt_stats, output_bytes, BatchHealth, BatchResult, BatchTiming, SimOutcome, Simulator,
    IO_BYTES_PER_NS,
};
use crate::lanes::solve_lane_groups;
use crate::recovery::{continue_ladder, solve_member_recovered, RecoveryPolicy};
use crate::{RbmBatchSystem, SimError, SimulationJob, WorkEstimate, STIFFNESS_THRESHOLD};
use paraspace_exec::{CancelToken, Executor};
use paraspace_solvers::{
    Bdf, Dopri5, Dopri5Batch, LaneReport, Radau5, Radau5Batch, Rkf45, SolverError, SolverScratch,
    StepStats,
};
use paraspace_vgpu::{
    Device, DeviceConfig, DpModel, KernelLaunch, LaneGroupStats, MemorySpace, ThreadWork,
    TimelineShard,
};
use std::time::Instant;

/// Host-launched kernels per solver step (stage evaluations + reduction).
const KERNELS_PER_STEP: u64 = 8;
/// Host↔device transfer throughput in bytes/ns.
const PCIE_BYTES_PER_NS: f64 = 8.0;

/// The fine-grained engine.
///
/// # Example
///
/// ```
/// use paraspace_core::{FineEngine, SimulationJob, Simulator};
/// use paraspace_rbm::{Reaction, ReactionBasedModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = ReactionBasedModel::new();
/// let a = m.add_species("A", 1.0);
/// m.add_reaction(Reaction::mass_action(&[(a, 1)], &[], 1.0))?;
/// let job = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(2).build()?;
/// let r = FineEngine::new().run(&job)?;
/// assert_eq!(r.success_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FineEngine {
    device_config: DeviceConfig,
    executor: Executor,
    lane_width: Option<usize>,
    recovery: RecoveryPolicy,
    cancel: CancelToken,
}

impl Default for FineEngine {
    fn default() -> Self {
        FineEngine::new()
    }
}

impl FineEngine {
    /// An engine on the published GPU, auto-selecting the lane width.
    pub fn new() -> Self {
        FineEngine {
            device_config: DeviceConfig::titan_x(),
            executor: Executor::sequential(),
            lane_width: None,
            recovery: RecoveryPolicy::default(),
            cancel: CancelToken::new(),
        }
    }

    /// Sets the host worker-thread count used to run the batch numerics
    /// (builder style): `1` is the sequential path, `0` means one worker
    /// per available core. The result is bitwise identical at any setting.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.executor = Executor::new(threads);
        self
    }

    /// Overrides the device (builder style).
    pub fn with_device(mut self, config: DeviceConfig) -> Self {
        self.device_config = config;
        self
    }

    /// Overrides the failed-member recovery policy (builder style).
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Installs a cooperative cancellation token (builder style). When the
    /// token trips mid-batch, in-flight members (or lane-groups) drain,
    /// [`Simulator::run`] returns [`SimError::Cancelled`], and partial
    /// results are discarded.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Pins the lane width (builder style): `1` forces the scalar
    /// published-baseline path, larger values run lockstep lane-groups of
    /// that width. Without this, the engine autotunes the width per model
    /// from its flux-vs-LU cost split ([`crate::auto_lane_width`]) for
    /// mass-action batches of two or more members, scalar otherwise.
    /// Per-member results are bitwise identical at any width.
    pub fn with_lane_width(mut self, width: usize) -> Self {
        self.lane_width = Some(width.max(1));
        self
    }

    /// The lane width this job actually runs at (`1` = scalar path).
    ///
    /// Falls back to scalar — emitting a note when `PARASPACE_DEBUG=1` —
    /// when the model mixes kinetics the batched flux pass does not cover,
    /// rather than asserting deep inside the lane path.
    fn resolved_lane_width(&self, job: &SimulationJob) -> usize {
        crate::lanes::resolve_lane_width(self.lane_width, job, "fine", false)
    }

    /// The published scalar baseline: one simulation at a time, species
    /// across threads, host launches at every step.
    fn run_scalar(&self, job: &SimulationJob) -> Result<BatchResult, SimError> {
        let start = Instant::now();
        let device = Device::new(self.device_config.clone());
        let n = job.odes().n_species();
        let m = job.odes().n_reactions();
        let rkf = Rkf45::new();
        let bdf1 = Bdf::with_max_order(1);

        device.record_host_phase(
            "io::h2d",
            h2d_bytes(job) as f64 * job.batch_size() as f64 / PCIE_BYTES_PER_NS,
        );
        let _ = m;

        // Each worker solves its simulations and prices them into a private
        // per-member timeline shard; the device absorbs the shards in
        // simulation-index order, reproducing the sequential timeline (and
        // its serialize-everything weakness) bitwise at any thread count.
        let dp = DpModel::default();
        let results = self.executor.try_map_with_cancel(
            job.batch_size(),
            &self.cancel,
            SolverScratch::new,
            |scratch, i| {
                // Non-stiff attempt first; the recovery ladder reroutes a
                // stiffness-shaped failure to BDF1 (the published switching
                // pair), then climbs any configured relaxation rungs. Every
                // attempt's work lands in the member's stats, so retries are
                // billed on the modeled timeline.
                let rs = solve_member_recovered(
                    job,
                    i,
                    (&rkf, "rkf45"),
                    Some((&bdf1, "bdf1")),
                    reroutable,
                    &self.recovery,
                    scratch,
                );
                let mut shard = TimelineShard::new();
                self.bill_scalar_member(&mut shard, job, i, &rs.stats, &dp, n);
                (rs, shard)
            },
        )?;

        let mut outcomes = Vec::with_capacity(job.batch_size());
        let mut health = BatchHealth::default();
        for result in results {
            // The ladder contains member panics; an executor-level fault
            // would be a bug in the ladder itself, so resume it like the
            // historical map_with did.
            let (rs, shard) = result.unwrap_or_else(|fault| panic!("{fault}"));
            device.absorb_shard(shard);
            health.observe(&rs.solution, &rs.log);
            outcomes.push(SimOutcome {
                solution: rs.solution,
                stiff: false,
                rerouted: rs.log.rerouted,
                solver: rs.solver,
                log: rs.log,
            });
        }

        self.finish(job, device, outcomes, start, None, health)
    }

    /// The lane-batched path: lockstep DOPRI5 over lane-groups, with
    /// masked per-lane step control and lane compaction.
    fn run_lanes(&self, job: &SimulationJob, width: usize) -> Result<BatchResult, SimError> {
        let start = Instant::now();
        let device = Device::new(self.device_config.clone());
        let batch = job.batch_size();

        device
            .record_host_phase("io::h2d", h2d_bytes(job) as f64 * batch as f64 / PCIE_BYTES_PER_NS);

        // Lane-groups — not single members — are the unit of work the
        // executor's workers self-schedule; each group's shard is absorbed
        // in group order, so the timeline (and every trajectory) is bitwise
        // identical at any worker count.
        let dp = DpModel::default();
        let groups = solve_lane_groups(
            &self.executor,
            &self.cancel,
            batch,
            width,
            |scratch, g, members| {
                self.solve_lane_group(job, g, members.start, members.end, width, scratch, &dp)
            },
        )?;

        let mut outcomes = Vec::with_capacity(batch);
        let mut health = BatchHealth::default();
        for (group_outcomes, report, stiff_report, shard, group_health) in groups {
            device.record_lane_group(&LaneGroupStats {
                width: report.width,
                lockstep_iters: report.lockstep_iters,
                lane_steps: report.lane_steps,
            });
            if let Some(sr) = stiff_report {
                device.record_lane_group(&LaneGroupStats {
                    width: sr.width,
                    lockstep_iters: sr.lockstep_iters,
                    lane_steps: sr.lane_steps,
                });
            }
            device.absorb_shard(shard);
            health.absorb(&group_health);
            outcomes.extend(group_outcomes);
        }

        let lanes = Some(device.lane_accounting());
        self.finish(job, device, outcomes, start, lanes, health)
    }

    /// Solves members `lo..hi` as one lane-group of width `width`:
    /// Jacobian-diagonal triage into **two lockstep classes** — non-stiff
    /// members integrate under [`Dopri5Batch`], stiff members under
    /// [`Radau5Batch`] — plus the group's device billing, all on a
    /// worker-private shard.
    ///
    /// Fault-planned members are **evicted** from both lockstep classes at
    /// assembly and solved scalar under panic containment: a lane that
    /// panics mid-sweep would otherwise tear down its whole group, and a
    /// faulted lane's injected call ordinals would shift with lane packing.
    /// Eviction keeps both the blast radius and the fault schedule
    /// per-member.
    #[allow(clippy::too_many_arguments)]
    fn solve_lane_group(
        &self,
        job: &SimulationJob,
        g: usize,
        lo: usize,
        hi: usize,
        width: usize,
        scratch: &mut SolverScratch,
        dp: &DpModel,
    ) -> (Vec<SimOutcome>, LaneReport, Option<LaneReport>, TimelineShard, BatchHealth) {
        let odes = job.odes();
        let n = odes.n_species();
        let bdf1 = Bdf::with_max_order(1);
        let dopri5 = Dopri5::new();
        let radau5 = Radau5::new();
        let count = hi - lo;
        let mut health = BatchHealth::default();

        // P2-style triage on the analytic Jacobian diagonal at t = 0:
        // members whose fastest local decay already exceeds the published
        // threshold route to the stiff lockstep class (lane-batched RADAU5)
        // instead of the explicit one, so one stiff member cannot drag a
        // DOPRI5 group through tiny steps — and a crowd of stiff members no
        // longer serializes into scalar solves.
        let mut stiff = vec![false; count];
        let mut evicted = vec![false; count];
        let mut diag = vec![0.0; n];
        for (slot, i) in (lo..hi).enumerate() {
            let (x0, k) = job.member(i);
            odes.jacobian_diag_batch(1, x0, k, &mut diag);
            let fastest = diag.iter().fold(0.0f64, |a, &d| a.max(d.abs()));
            stiff[slot] = fastest >= STIFFNESS_THRESHOLD;
            evicted[slot] = job.fault_plan().faults_for(i).is_some();
        }

        let lane_members: Vec<usize> =
            (lo..hi).filter(|&i| !stiff[i - lo] && !evicted[i - lo]).collect();
        let stiff_members: Vec<usize> =
            (lo..hi).filter(|&i| stiff[i - lo] && !evicted[i - lo]).collect();
        let mut report = LaneReport { width, ..LaneReport::default() };
        let mut lane_results = Vec::new();
        if !lane_members.is_empty() {
            let mut sys = RbmBatchSystem::new(odes, width);
            for &i in &lane_members {
                let (x0, k) = job.member(i);
                sys.push_member(x0, k);
            }
            let (res, rep) = Dopri5Batch::new().solve_group(
                &mut sys,
                0.0,
                job.time_points(),
                job.options(),
                scratch,
            );
            lane_results = res;
            report = rep;
        }

        let mut stiff_report = None;
        let mut stiff_results = Vec::new();
        if !stiff_members.is_empty() {
            let mut sys = RbmBatchSystem::new(odes, width);
            for &i in &stiff_members {
                let (x0, k) = job.member(i);
                sys.push_member(x0, k);
            }
            let (res, rep) = Radau5Batch::new().solve_group(
                &mut sys,
                0.0,
                job.time_points(),
                job.options(),
                scratch,
            );
            stiff_results = res;
            stiff_report = Some(rep);
        }

        let mut shard = TimelineShard::new();

        // Bill the lockstep work as one wide kernel: n species × L lanes
        // across threads, flops inflated by the divergence factor (masked
        // lanes burn issue slots), and host launch latency once per
        // lockstep sweep — not once per member step, which is the whole
        // point of the lane path.
        if !lane_members.is_empty() {
            let mut lane_stats = StepStats::default();
            for r in &lane_results {
                lane_stats.absorb(attempt_stats(r));
            }
            let work = WorkEstimate::from_stats(odes, &lane_stats, job.time_points().len());
            let group_stats = LaneGroupStats {
                width: report.width,
                lockstep_iters: report.lockstep_iters,
                lane_steps: report.lane_steps,
            };
            let threads = (n * width).max(1);
            let tpb = threads.clamp(1, 128);
            let blocks = threads.div_ceil(tpb).max(1);
            let threads_total = (tpb * blocks) as u64;
            let flops = ((work.flops as f64 * group_stats.divergence_factor()) as u64).max(1);
            let per_thread = ThreadWork::new()
                .with_flops((flops / threads_total).max(1))
                .with_read(
                    MemorySpace::CachedGlobal,
                    ((work.state_bytes + work.structure_bytes) / threads_total).max(1),
                )
                .with_global_write((work.output_bytes / threads_total).max(1));
            shard.launch(
                &self.device_config,
                dp,
                &KernelLaunch::uniform(
                    format!("integrate::lane_group{g}"),
                    blocks,
                    tpb,
                    per_thread,
                )
                .with_registers(48),
            );
            let launches = (report.lockstep_iters * KERNELS_PER_STEP).saturating_sub(1);
            shard.record_host_phase(
                "integrate::step_launches",
                launches as f64 * self.device_config.kernel_launch_ns,
            );
        }

        // The stiff class is billed the same way: one wide kernel for the
        // whole lockstep RADAU5 group (its Newton sweeps and batched LU
        // solves all happen inside one launch per lockstep tick), plus host
        // launch latency once per tick — where the pre-lane design paid
        // per-member, per-step launches for every stiff member.
        if let Some(sr) = &stiff_report {
            let mut lane_stats = StepStats::default();
            for r in &stiff_results {
                lane_stats.absorb(attempt_stats(r));
            }
            let work = WorkEstimate::from_stats(odes, &lane_stats, job.time_points().len());
            let group_stats = LaneGroupStats {
                width: sr.width,
                lockstep_iters: sr.lockstep_iters,
                lane_steps: sr.lane_steps,
            };
            let threads = (n * width).max(1);
            let tpb = threads.clamp(1, 128);
            let blocks = threads.div_ceil(tpb).max(1);
            let threads_total = (tpb * blocks) as u64;
            let flops = ((work.flops as f64 * group_stats.divergence_factor()) as u64).max(1);
            let per_thread = ThreadWork::new()
                .with_flops((flops / threads_total).max(1))
                .with_read(
                    MemorySpace::CachedGlobal,
                    ((work.state_bytes + work.structure_bytes) / threads_total).max(1),
                )
                .with_global_write((work.output_bytes / threads_total).max(1));
            shard.launch(
                &self.device_config,
                dp,
                &KernelLaunch::uniform(
                    format!("integrate::radau_lane_group{g}"),
                    blocks,
                    tpb,
                    per_thread,
                )
                .with_registers(48),
            );
            let launches = (sr.lockstep_iters * KERNELS_PER_STEP).saturating_sub(1);
            shard.record_host_phase(
                "integrate::step_launches",
                launches as f64 * self.device_config.kernel_launch_ns,
            );
        }

        // Merge lane results with the scalar-solved members in member
        // order; evicted and rerouted members are billed like the scalar
        // baseline (their own per-member kernel + per-step launches).
        let mut outcomes = Vec::with_capacity(count);
        let mut lane_iter = lane_results.into_iter();
        let mut stiff_iter = stiff_results.into_iter();
        for (slot, i) in (lo..hi).enumerate() {
            if evicted[slot] {
                // Stiff evicted members go straight to scalar RADAU5 (the
                // bitwise twin of their would-be lane), so a fault plan
                // never changes which method a member runs under.
                let rs = if stiff[slot] {
                    solve_member_recovered(
                        job,
                        i,
                        (&radau5, "radau5"),
                        None,
                        |_| false,
                        &self.recovery,
                        scratch,
                    )
                } else {
                    solve_member_recovered(
                        job,
                        i,
                        (&dopri5, "dopri5"),
                        Some((&bdf1, "bdf1")),
                        reroutable,
                        &self.recovery,
                        scratch,
                    )
                };
                self.bill_scalar_member(&mut shard, job, i, &rs.stats, dp, n);
                health.evicted_lanes += 1;
                health.observe(&rs.solution, &rs.log);
                outcomes.push(SimOutcome {
                    solution: rs.solution,
                    stiff: stiff[slot],
                    rerouted: rs.log.rerouted,
                    solver: rs.solver,
                    log: rs.log,
                });
                continue;
            }
            if stiff[slot] {
                let first = stiff_iter.next().expect("one lane result per stiff member");
                // The lane attempt was billed in the group-wide RADAU5
                // kernel; only genuine retries bill a scalar kernel.
                let rs = continue_ladder(
                    job,
                    i,
                    first,
                    true,
                    "radau5-lanes",
                    (&radau5, "radau5"),
                    None,
                    |_| false,
                    &self.recovery,
                    self.recovery.base_options(job),
                    scratch,
                );
                if rs.log.attempts > 1 {
                    self.bill_scalar_member(&mut shard, job, i, &rs.stats, dp, n);
                }
                health.observe(&rs.solution, &rs.log);
                outcomes.push(SimOutcome {
                    solution: rs.solution,
                    stiff: true,
                    rerouted: rs.log.rerouted,
                    solver: rs.solver,
                    log: rs.log,
                });
                continue;
            }
            let first = lane_iter.next().expect("one lane result per non-stiff member");
            // The lane attempt's work was already billed in the group-wide
            // kernel above; only genuine retries bill a scalar kernel.
            let rs = continue_ladder(
                job,
                i,
                first,
                true,
                "dopri5-lanes",
                (&dopri5, "dopri5"),
                Some((&bdf1, "bdf1")),
                reroutable,
                &self.recovery,
                self.recovery.base_options(job),
                scratch,
            );
            if rs.log.attempts > 1 {
                self.bill_scalar_member(&mut shard, job, i, &rs.stats, dp, n);
            }
            health.observe(&rs.solution, &rs.log);
            outcomes.push(SimOutcome {
                solution: rs.solution,
                stiff: false,
                rerouted: rs.log.rerouted,
                solver: rs.solver,
                log: rs.log,
            });
        }
        (outcomes, report, stiff_report, shard, health)
    }

    /// Prices one scalar-solved member the published-baseline way: species
    /// across threads in a per-member kernel, host launches at every step.
    fn bill_scalar_member(
        &self,
        shard: &mut TimelineShard,
        job: &SimulationJob,
        i: usize,
        stats: &StepStats,
        dp: &DpModel,
        n: usize,
    ) {
        let work = WorkEstimate::from_stats(job.odes(), stats, job.time_points().len());
        let tpb = n.clamp(1, 128);
        let blocks = n.div_ceil(tpb).max(1);
        let threads_total = (tpb * blocks) as u64;
        let per_thread = ThreadWork::new()
            .with_flops((work.flops / threads_total).max(1))
            .with_read(
                MemorySpace::CachedGlobal,
                ((work.state_bytes + work.structure_bytes) / threads_total).max(1),
            )
            .with_global_write((work.output_bytes / threads_total).max(1));
        shard.launch(
            &self.device_config,
            dp,
            &KernelLaunch::uniform(format!("integrate::fine_sim{i}"), blocks, tpb, per_thread)
                .with_registers(48),
        );
        // Host-side launch latency for every remaining kernel of every
        // step (the single launch above already charged one).
        let launches = (stats.steps as u64 * KERNELS_PER_STEP).saturating_sub(1);
        shard.record_host_phase(
            "integrate::step_launches",
            launches as f64 * self.device_config.kernel_launch_ns,
        );
    }

    /// Shared tail: output phases + result assembly.
    fn finish(
        &self,
        job: &SimulationJob,
        device: Device,
        outcomes: Vec<SimOutcome>,
        start: Instant,
        lanes: Option<paraspace_vgpu::LaneAccounting>,
        health: BatchHealth,
    ) -> Result<BatchResult, SimError> {
        let out_bytes = output_bytes(job, &outcomes, &self.executor);
        device.record_host_phase("io::d2h", out_bytes as f64 / PCIE_BYTES_PER_NS);
        device.record_host_phase("io::write", out_bytes as f64 / IO_BYTES_PER_NS);

        let timeline = device.timeline();
        Ok(BatchResult {
            engine: self.name(),
            outcomes,
            timing: BatchTiming {
                host_wall: start.elapsed(),
                simulated_total_ns: timeline.total_ns(),
                simulated_integration_ns: timeline.time_tagged_ns("integrate"),
                simulated_io_ns: timeline.time_tagged_ns("io"),
            },
            lanes,
            health,
        })
    }
}

/// Input-staging bytes per batch member (structure + state + constants).
fn h2d_bytes(job: &SimulationJob) -> u64 {
    let n = job.odes().n_species();
    let m = job.odes().n_reactions();
    (job.odes().n_terms() as u64 * 12 + m as u64 * 8) + (n + m) as u64 * 8
}

/// Whether a solver failure is stiffness-shaped and worth a BDF1 retry.
fn reroutable(e: &SolverError) -> bool {
    matches!(
        e,
        SolverError::MaxStepsExceeded { .. }
            | SolverError::StepSizeUnderflow { .. }
            | SolverError::StiffnessDetected { .. }
    )
}

impl Simulator for FineEngine {
    fn name(&self) -> &'static str {
        "fine"
    }

    fn run(&self, job: &SimulationJob) -> Result<BatchResult, SimError> {
        let width = self.resolved_lane_width(job);
        if width <= 1 {
            self.run_scalar(job)
        } else {
            self.run_lanes(job, width)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FineCoarseEngine;
    use paraspace_rbm::{Kinetics, Parameterization, Reaction, ReactionBasedModel};

    fn model() -> ReactionBasedModel {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let b = m.add_species("B", 0.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1.0)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 0.4)).unwrap();
        m
    }

    /// A batch of distinct gentle parameterizations (forces real per-lane
    /// divergence in step sizes without anyone failing).
    fn varied_job(m: &ReactionBasedModel, members: usize) -> SimulationJob<'_> {
        let mut b = SimulationJob::builder(m).time_points(vec![0.5, 1.0]);
        for i in 0..members {
            b = b.parameterization(
                Parameterization::new()
                    .with_rate_constants(vec![0.5 + 0.25 * i as f64, 0.4 + 0.05 * i as f64]),
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn single_simulation_succeeds_and_matches() {
        let m = model();
        let job = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(1).build().unwrap();
        let fine = FineEngine::new().run(&job).unwrap();
        let fc = FineCoarseEngine::new().run(&job).unwrap();
        let a = fine.outcomes[0].solution.as_ref().unwrap();
        let b = fc.outcomes[0].solution.as_ref().unwrap();
        for (x, y) in a.state_at(0).iter().zip(b.state_at(0)) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn stiff_member_switches_to_bdf1() {
        let m = model();
        let job = SimulationJob::builder(&m)
            .time_points(vec![1.0])
            .parameterization(Parameterization::new().with_rate_constants(vec![5e5, 5e5]))
            .build()
            .unwrap();
        let r = FineEngine::new().run(&job).unwrap();
        assert_eq!(r.outcomes[0].solver, "bdf1");
        assert!(r.outcomes[0].solution.is_ok());
    }

    #[test]
    fn lane_attempts_discarded_by_a_reroute_are_accounted() {
        // A 5-step cap fails every lockstep DOPRI5 lane at exactly 5 steps;
        // the ladder re-routes each member to BDF1, and the lane attempts —
        // billed in the group kernel, thrown away by the reroute — show up
        // as discarded steps at any width.
        let m = model();
        let opts = paraspace_solvers::SolverOptions { max_steps: 5, ..Default::default() };
        let mut b = SimulationJob::builder(&m).time_points(vec![0.5, 1.0]).options(opts);
        for i in 0..6 {
            b = b.parameterization(
                Parameterization::new().with_rate_constants(vec![0.5 + 0.25 * i as f64, 0.4]),
            );
        }
        let job = b.build().unwrap();
        for width in [2, 8] {
            let r = FineEngine::new().with_lane_width(width).run(&job).unwrap();
            assert_eq!(r.health.reroutes, 6, "width {width}: {}", r.health);
            assert_eq!(r.health.discarded_steps, 6 * 5, "width {width}: {}", r.health);
        }
    }

    #[test]
    fn serialization_across_simulations_hurts_batches() {
        // Per-simulation simulated time must grow ~linearly with batch size
        // on the scalar path (no coarse-grained parallelism) — the
        // published weakness the lane path exists to fix.
        let m = model();
        let job1 = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(1).build().unwrap();
        let job8 = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(8).build().unwrap();
        let r1 = FineEngine::new().with_lane_width(1).run(&job1).unwrap();
        let r8 = FineEngine::new().with_lane_width(1).run(&job8).unwrap();
        assert!(
            r8.timing.simulated_total_ns > 6.0 * r1.timing.simulated_total_ns,
            "{} vs {}",
            r8.timing.simulated_total_ns,
            r1.timing.simulated_total_ns
        );
    }

    #[test]
    fn loses_to_fine_coarse_on_batches() {
        let m = model();
        let job = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(64).build().unwrap();
        let fine = FineEngine::new().with_lane_width(1).run(&job).unwrap();
        let fc = FineCoarseEngine::new().run(&job).unwrap();
        assert!(
            fine.timing.simulated_integration_ns > fc.timing.simulated_integration_ns,
            "fine {} must lose to fine+coarse {}",
            fine.timing.simulated_integration_ns,
            fc.timing.simulated_integration_ns
        );
    }

    #[test]
    fn lane_results_are_bitwise_stable_across_widths_and_threads() {
        let m = model();
        let job = varied_job(&m, 13);
        let r2 = FineEngine::new().with_lane_width(2).run(&job).unwrap();
        let r8 = FineEngine::new().with_lane_width(8).run(&job).unwrap();
        let r8t = FineEngine::new().with_lane_width(8).with_threads(4).run(&job).unwrap();
        for i in 0..job.batch_size() {
            let a = r2.outcomes[i].solution.as_ref().unwrap();
            let b = r8.outcomes[i].solution.as_ref().unwrap();
            let c = r8t.outcomes[i].solution.as_ref().unwrap();
            assert_eq!(a.states, b.states, "member {i}: width 2 vs 8");
            assert_eq!(b.states, c.states, "member {i}: 1 vs 4 threads");
            assert_eq!(r2.outcomes[i].solver, "dopri5-lanes");
        }
        // The modeled timeline is also thread-count independent.
        assert_eq!(r8.timing.simulated_total_ns, r8t.timing.simulated_total_ns);
        assert_eq!(r8.lanes, r8t.lanes);
    }

    #[test]
    fn lane_batching_amortizes_host_launches() {
        let m = model();
        let job = varied_job(&m, 8);
        let scalar = FineEngine::new().with_lane_width(1).run(&job).unwrap();
        let lanes = FineEngine::new().with_lane_width(8).run(&job).unwrap();
        assert!(
            lanes.timing.simulated_integration_ns < scalar.timing.simulated_integration_ns,
            "lane path {} must beat scalar serialization {}",
            lanes.timing.simulated_integration_ns,
            scalar.timing.simulated_integration_ns
        );
        let acc = lanes.lanes.expect("lane path must report occupancy");
        assert!(acc.groups >= 1);
        assert!(acc.occupancy() > 0.0 && acc.occupancy() <= 1.0);
        assert_eq!(acc.max_width, 8);
        assert!(scalar.lanes.is_none());
    }

    #[test]
    fn stiff_members_form_radau_lane_groups() {
        let m = model();
        let job = SimulationJob::builder(&m)
            .time_points(vec![1.0])
            .parameterization(Parameterization::new().with_rate_constants(vec![1.0, 0.4]))
            .parameterization(Parameterization::new().with_rate_constants(vec![5e5, 5e5]))
            .parameterization(Parameterization::new().with_rate_constants(vec![1.2, 0.4]))
            .build()
            .unwrap();
        let r = FineEngine::new().run(&job).unwrap();
        assert_eq!(r.outcomes[0].solver, "dopri5-lanes");
        assert_eq!(r.outcomes[1].solver, "radau5-lanes");
        assert!(r.outcomes[1].stiff);
        assert!(r.outcomes[1].solution.is_ok());
        assert_eq!(r.outcomes[2].solver, "dopri5-lanes");
    }

    #[test]
    fn stiff_lane_members_are_bitwise_identical_to_scalar_radau() {
        use paraspace_solvers::{OdeSolver, Radau5, SolverScratch};
        let m = model();
        let mut b = SimulationJob::builder(&m).time_points(vec![0.5, 1.0]);
        for i in 0..6 {
            b = b.parameterization(
                Parameterization::new()
                    .with_rate_constants(vec![2e5 + 1e4 * i as f64, 3e5 + 2e4 * i as f64]),
            );
        }
        let job = b.build().unwrap();
        let r4 = FineEngine::new().with_lane_width(4).run(&job).unwrap();
        let r8 = FineEngine::new().with_lane_width(8).with_threads(4).run(&job).unwrap();
        let mut scratch = SolverScratch::new();
        for i in 0..job.batch_size() {
            assert_eq!(r4.outcomes[i].solver, "radau5-lanes");
            assert!(r4.outcomes[i].stiff);
            let (x0, k) = job.member(i);
            let sys = crate::RbmOdeSystem::new(job.odes(), k.to_vec());
            let reference = Radau5::new()
                .solve_pooled(&sys, 0.0, x0, job.time_points(), job.options(), &mut scratch)
                .unwrap();
            let a = r4.outcomes[i].solution.as_ref().unwrap();
            let b = r8.outcomes[i].solution.as_ref().unwrap();
            assert_eq!(a.states, reference.states, "member {i}: width 4 vs scalar");
            assert_eq!(b.states, reference.states, "member {i}: width 8 vs scalar");
        }
    }

    #[test]
    fn non_mass_action_models_fall_back_to_scalar_path() {
        let mut m = ReactionBasedModel::new();
        let s = m.add_species("S", 2.0);
        let p = m.add_species("P", 0.0);
        m.add_reaction(Reaction::with_kinetics(
            &[(s, 1)],
            &[(p, 1)],
            1.0,
            Kinetics::MichaelisMenten { km: 0.5 },
        ))
        .unwrap();
        let job = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(4).build().unwrap();
        let r = FineEngine::new().run(&job).unwrap();
        assert_eq!(r.success_count(), 4);
        assert!(r.lanes.is_none(), "mixed-kinetics batch must take the scalar path");
        assert!(r.outcomes.iter().all(|o| o.solver != "dopri5-lanes"));
    }
}
