//! The fine- **and** coarse-grained engine: the paper's contribution.
//!
//! Coarse grain: every device thread owns one simulation of the batch.
//! Fine grain: at every solver step the owning thread uses dynamic
//! parallelism to launch child grids that spread the ODE work (stage
//! evaluations, Newton transforms, LU solves) across one thread per
//! species/matrix row. The published pipeline:
//!
//! * **P1** (host): flat ODE encoding + host→device transfer,
//! * **P2** (device): dominant-eigenvalue stiffness triage, threshold 500,
//! * **P3** (device): DOPRI5 batch over the non-stiff members,
//! * **P4** (device): RADAU5 batch over stiff members *and* P3 failures,
//! * **P5** (host): output collection and writing.
//!
//! The numerics run bit-exact on the host; the device model receives the
//! *measured* per-simulation work. Parent threads carry their own
//! simulation's step count (so batch heterogeneity becomes warp divergence
//! on the device), child grids carry the per-round ODE work, and each child
//! round pays the dynamic-parallelism launch overhead — which is what caps
//! useful batch sizes near 2048.
//!
//! On the host, P3 and P4 are batch kernels too, on one scheduler
//! (`lanes::solve_queue`): the fault-free members of a phase integrate as
//! lockstep lane groups — [`Dopri5Batch`](paraspace_solvers::Dopri5Batch)
//! at width 8 unless pinned (`lanes::explicit_lane_width`),
//! [`Radau5Batch`](paraspace_solvers::Radau5Batch) at the autotuned width
//! (`lanes::resolve_lane_width`) — one group per executor worker, all
//! pulling members from one shared queue, P4's ordered longest first by the
//! triage eigenvalue. A member's attempt is bitwise the scalar solver's
//! whichever group and lane ran it, and the device model is fed per-member
//! counters in member order — P4's lane occupancy from a packing the
//! billing computes for itself — so outcomes, labels, billing and health do
//! not depend on the worker count (nor, for P3, on the width).

use crate::engines::host::{device_clocks, h2d_bytes, Engine, Host, Settled, PCIE_BYTES_PER_NS};
use crate::engines::{attempt_stats, discard, group_stats, BatchResult, MemberSink, Simulator};
use crate::lanes::{explicit_lane_width, solve_queue, Lockstep, MEMBERS_PER_LANE};
use crate::recovery::{contained_attempt, solve_members_recovered, Ladder, RecoveryLog};
use crate::{classify_batch_with_threshold, SimError, SimulationJob, StiffnessClass, WorkEstimate};
use paraspace_exec::Cancelled;
use paraspace_solvers::{
    Dopri5, OdeSolver, Radau5, Solution, SolveFailure, SolverError, SolverScratch, StepStats,
};
use paraspace_vgpu::{
    ChildLaunch, Device, DeviceConfig, DpModel, KernelLaunch, LaneGroupStats, MemorySpace,
    ThreadWork, THREADS_PER_BLOCK,
};
use std::time::Instant;

/// Parent-thread control-flow flops per solver step (loop bookkeeping,
/// step-size control on the coarse thread).
const PARENT_FLOPS_PER_STEP: u64 = 30;

/// One member's latest attempt and the solver that ran it; the failure
/// keeps its work counters until the outcomes are assembled, so a
/// relaxation retry can account the attempt it discards.
type MemberSlot = Option<(Result<Solution, SolveFailure>, &'static str)>;

/// The fine+coarse cost model: one parent thread per simulation, child
/// grids across species at every step, dynamic-parallelism overhead per
/// child round.
#[derive(Debug, Clone)]
pub struct FineCoarse {
    device_config: DeviceConfig,
    dp_model: DpModel,
    stiffness_threshold: f64,
    lane_width: Option<usize>,
}

impl Default for FineCoarse {
    /// The published GPU and stiffness threshold, lane widths autotuned.
    fn default() -> Self {
        FineCoarse {
            device_config: DeviceConfig::titan_x(),
            dp_model: DpModel::default(),
            stiffness_threshold: crate::STIFFNESS_THRESHOLD,
            lane_width: None,
        }
    }
}

/// The fine+coarse engine.
///
/// # Example
///
/// ```
/// use paraspace_core::{FineCoarseEngine, SimulationJob, Simulator};
/// use paraspace_rbm::{Reaction, ReactionBasedModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = ReactionBasedModel::new();
/// let a = m.add_species("A", 1.0);
/// m.add_reaction(Reaction::mass_action(&[(a, 1)], &[], 1.0))?;
/// let job = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(8).build()?;
/// let r = FineCoarseEngine::new().run(&job)?;
/// assert_eq!(r.success_count(), 8);
/// assert!(r.timing.simulated_integration_ns > 0.0);
/// # Ok(())
/// # }
/// ```
pub type FineCoarseEngine = Engine<FineCoarse>;

impl Engine<FineCoarse> {
    /// Pins the lockstep lane width of both solver phases (builder style):
    /// `1` forces the all-scalar route — one `Dopri5` solve per P3 member,
    /// one `Radau5` solve per P4 member — larger values run P3's DOPRI5
    /// groups and P4's RADAU5 lane-groups at that width. Without this, P3
    /// runs at width 8 (narrowed when a worker's share of the members is
    /// smaller) and P4 autotunes per model ([`crate::auto_lane_width`])
    /// through the same resolver as [`crate::FineEngine`]. Per-member
    /// results are bitwise identical at any width — the recovery policy's
    /// step budget binds a lane as it binds a scalar solve; P3's modeled
    /// time is too, while P4's width shapes its modeled kernel and the LU
    /// working set.
    pub fn with_lane_width(mut self, width: usize) -> Self {
        self.model.lane_width = Some(width.max(1));
        self
    }

    /// Overrides the phase-P2 stiffness threshold (builder style; swept by
    /// the stiffness-threshold ablation).
    pub fn with_stiffness_threshold(mut self, threshold: f64) -> Self {
        self.model.stiffness_threshold = threshold;
        self
    }

    /// Overrides the dynamic-parallelism model (builder style; used by the
    /// DP ablation).
    pub fn with_dp_model(mut self, dp: DpModel) -> Self {
        self.model.dp_model = dp;
        self
    }
}

/// One run on its way through P3 → P4 → relaxation: the device being
/// billed, and every member's latest attempt and recovery log.
struct Phases<'a> {
    host: &'a Host,
    model: &'a FineCoarse,
    job: &'a SimulationJob<'a>,
    device: Device,
    slots: Vec<MemberSlot>,
    logs: Vec<RecoveryLog>,
}

impl Phases<'_> {
    /// One scalar attempt per member on the executor's workers, in
    /// `members` order. Each attempt runs under panic containment: a
    /// panicking member becomes an `Internal` failure (never re-routable —
    /// it would panic again on the other solver too) instead of tearing
    /// down the phase.
    fn solve_scalar(
        &self,
        solver: &dyn OdeSolver,
        members: &[usize],
    ) -> Result<Vec<Result<Solution, SolveFailure>>, Cancelled> {
        let (host, job) = (self.host, self.job);
        let opts = host.recovery.base_options(job);
        let attempts = host.executor.try_map_with_cancel(
            members.len(),
            &host.cancel,
            SolverScratch::new,
            |scratch, idx| contained_attempt(job, members[idx], solver, &opts, scratch),
        )?;
        // contained_attempt already catches member panics, so an
        // executor-level fault is a bug in the attempt plumbing itself.
        Ok(attempts.into_iter().map(|a| a.unwrap_or_else(|fault| panic!("{fault}"))).collect())
    }

    /// P3's attempts, in `members` order. Fault-free members integrate as
    /// lockstep [`Dopri5Batch`](paraspace_solvers::Dopri5Batch) lane groups
    /// on one shared queue ([`solve_queue`]) whenever
    /// [`explicit_lane_width`] finds a width of 2 or more for them;
    /// fault-planned members stay on the scalar path, so an injected panic
    /// (and its per-call fault ordinals) cannot touch a group — and at width
    /// 1 so does everybody else. Every attempt is bitwise the scalar
    /// `dopri5` one either way, which is why the phase is billed, labelled
    /// and re-routed exactly as if it had run scalar.
    fn solve_p3(
        &self,
        dopri5: &Dopri5,
        members: &[usize],
    ) -> Result<Vec<Result<Solution, SolveFailure>>, Cancelled> {
        let (host, job) = (self.host, self.job);
        let planned = |i: &usize| job.fault_plan().faults_for(*i).is_some();
        let (faulty, clean): (Vec<usize>, Vec<usize>) = members.iter().partition(|i| planned(i));
        let workers = host.executor.threads();
        let width = explicit_lane_width(self.model.lane_width, job.odes(), clean.len(), workers);
        if width < 2 {
            return self.solve_scalar(dopri5, members);
        }
        let opts = host.recovery.base_options(job);
        let mut lane_attempts = solve_queue(
            &host.executor,
            &host.cancel,
            Lockstep::Dopri5,
            &clean,
            width,
            |width| job.lane_system(width),
            job.time_points(),
            &opts,
        )?
        .into_iter();
        let mut scalar_attempts = self.solve_scalar(dopri5, &faulty)?.into_iter();
        Ok(members
            .iter()
            .map(|i| if planned(i) { scalar_attempts.next() } else { lane_attempts.next() })
            .map(|attempt| attempt.expect("one attempt per member"))
            .collect())
    }

    /// Settles one phase's `attempts` (index-aligned with `members`): fills
    /// `slots`, bills the device, and returns the members that failed with
    /// a re-routable error.
    ///
    /// Everything here — timeline accounting, work accumulation, re-route
    /// decisions — folds on the calling thread in member order over
    /// per-member counters, so the batch result is bitwise identical at any
    /// thread count and however the attempts were scheduled.
    fn settle_phase(
        &mut self,
        phase_name: &str,
        solver_name: &'static str,
        members: &[usize],
        attempts: Vec<Result<Solution, SolveFailure>>,
        reroutable: bool,
    ) -> Vec<usize> {
        if members.is_empty() {
            return Vec::new();
        }
        let (job, logs) = (self.job, &mut self.logs);
        let n = job.odes().n_species();
        let mut failed = Vec::new();
        let mut parent_work: Vec<ThreadWork> = Vec::with_capacity(members.len());
        let mut phase_work = WorkEstimate::default();
        let mut total_rounds: u64 = 0;

        for (&i, result) in members.iter().zip(attempts) {
            // Failed members are billed for the work they actually did
            // before failing (SolveFailure carries the partial counters).
            let stats = *attempt_stats(&result);
            logs[i].attempts += 1;
            logs[i].panicked |= is_contained_panic(&result);
            let rounds = launch_rounds(&stats);
            total_rounds += rounds;
            parent_work.push(
                ThreadWork::new()
                    .with_flops(stats.steps as u64 * PARENT_FLOPS_PER_STEP)
                    .with_syncs(stats.steps as u64),
            );
            phase_work.absorb(&WorkEstimate::from_stats(
                job.odes(),
                &stats,
                job.time_points().len(),
            ));

            match result {
                Err(f) if reroutable && is_reroutable(&f.error) => {
                    logs[i].discarded_steps += stats.steps;
                    failed.push(i);
                }
                settled => self.slots[i] = Some((settled, solver_name)),
            }
        }

        // Parent grid: one thread per member (padded to full blocks).
        let tpb = THREADS_PER_BLOCK;
        let blocks = members.len().div_ceil(tpb);
        let mut padded = parent_work;
        padded.resize(blocks * tpb, ThreadWork::new());

        // Child grid: the per-round ODE work spread across species threads.
        let child_tpb = n.clamp(1, 128);
        let child_blocks = n.div_ceil(child_tpb).max(1);
        let child_threads_total = (child_tpb * child_blocks * members.len()) as u64;
        let rounds_avg = (total_rounds / members.len() as u64).max(1);
        let per_thread_flops = phase_work.flops / child_threads_total.max(1) / rounds_avg.max(1);
        let per_thread_bytes = (phase_work.state_bytes + phase_work.structure_bytes)
            / child_threads_total.max(1)
            / rounds_avg.max(1);

        let launch =
            KernelLaunch::per_thread(format!("integrate::{phase_name}"), blocks, tpb, padded)
                .with_registers(64)
                .with_child(ChildLaunch {
                    blocks: child_blocks,
                    threads_per_block: child_tpb,
                    // State and structure working sets are shared/reused across
                    // the batch's concurrent child grids, so they live in the
                    // L2-hot cached-global space; output writes stay DRAM-bound.
                    work: ThreadWork::new()
                        .with_flops(per_thread_flops.max(1))
                        .with_read(MemorySpace::CachedGlobal, per_thread_bytes.max(1))
                        .with_global_write(
                            phase_work.output_bytes
                                / child_threads_total.max(1)
                                / rounds_avg.max(1),
                        ),
                    repeats: rounds_avg,
                });
        self.device.launch(&launch);
        failed
    }

    /// The lane-batched P4: `members` integrate as lockstep RADAU5 lane
    /// groups ([`Lockstep::Radau5`]) on one shared queue ([`solve_queue`])
    /// instead of one scalar solve per stiff member. Stiff systems diverge
    /// in step count, so the queue hands them out longest first — by the
    /// triage's dominant eigenvalue, the cost proxy P2 already computed —
    /// and the short ones fill in behind.
    ///
    /// Billing is a fold over the members in `members` order, one launch
    /// per *modelled* group of `MEMBERS_PER_LANE·width` members: a parent
    /// thread carries the whole lane group, and one child round per
    /// lockstep tick serves all `L` lanes — the per-tick
    /// dynamic-parallelism overhead is amortized `L`-fold, which is exactly
    /// where the scalar P4 lost its budget on stiff-heavy batches. The
    /// group's ticks and occupancy are what a lockstep group serving those
    /// members in that order takes ([`LaneGroupStats::packed`] over their
    /// Newton iterations), not what the host's groups happened to take, so
    /// the modeled timeline is a function of the job and the width alone.
    /// Results are bitwise identical to scalar [`Radau5`] per member.
    fn run_p4_lanes(
        &mut self,
        members: &[usize],
        width: usize,
        classes: &[StiffnessClass],
    ) -> Result<(), Cancelled> {
        let (host, job) = (self.host, self.job);
        let mut queue = members.to_vec();
        queue.sort_by(|&a, &b| {
            let (cost_a, cost_b) = (classes[a].dominant_eigenvalue, classes[b].dominant_eigenvalue);
            cost_b.total_cmp(&cost_a).then(a.cmp(&b))
        });
        let attempts = solve_queue(
            &host.executor,
            &host.cancel,
            Lockstep::Radau5,
            &queue,
            width,
            |width| job.lane_system(width),
            job.time_points(),
            &host.recovery.base_options(job),
        )?;
        for (&i, attempt) in queue.iter().zip(attempts) {
            self.logs[i].attempts += 1;
            self.logs[i].panicked |= is_contained_panic(&attempt);
            self.slots[i] = Some((attempt, "radau5-lanes"));
        }

        // Parent grid: one thread for the lane-group; child grid: species ×
        // lanes threads, one round per lockstep tick, flops inflated by the
        // divergence factor (masked lanes burn issue slots).
        let tpb = THREADS_PER_BLOCK;
        let child_threads = (job.odes().n_species() * width).max(1);
        let child_tpb = child_threads.clamp(1, 128);
        let child_blocks = child_threads.div_ceil(child_tpb).max(1);
        let child_threads_total = (child_tpb * child_blocks) as u64;

        let stats = |i: &usize| {
            let (attempt, _) = self.slots[*i].as_ref().expect("settled above");
            attempt_stats(attempt)
        };
        for group in members.chunks(MEMBERS_PER_LANE * width) {
            let lane_stats = group_stats(group.iter().map(stats));
            let phase_work =
                WorkEstimate::from_stats(job.odes(), &lane_stats, job.time_points().len());
            let report = LaneGroupStats::packed(
                width,
                group.iter().map(|i| stats(i).nonlinear_iters as u64),
            );
            let divergence = report.divergence_factor();
            let parent = ThreadWork::new()
                .with_flops(report.lockstep_iters * PARENT_FLOPS_PER_STEP)
                .with_syncs(report.lockstep_iters);
            let rounds = report.lockstep_iters.max(1);
            let flops = ((phase_work.flops as f64 * divergence) as u64).max(1);
            let launch = KernelLaunch::uniform("integrate::p4_radau_lanes", 1, tpb, parent)
                .with_registers(64)
                .with_child(ChildLaunch {
                    blocks: child_blocks,
                    threads_per_block: child_tpb,
                    work: ThreadWork::new()
                        .with_flops((flops / child_threads_total / rounds).max(1))
                        .with_read(
                            MemorySpace::CachedGlobal,
                            ((phase_work.state_bytes + phase_work.structure_bytes)
                                / child_threads_total
                                / rounds)
                                .max(1),
                        )
                        .with_global_write(phase_work.output_bytes / child_threads_total / rounds),
                    repeats: rounds,
                });
            self.device.launch(&launch);
        }
        Ok(())
    }
}

/// Whether an attempt ended in a contained panic.
fn is_contained_panic(result: &Result<Solution, SolveFailure>) -> bool {
    matches!(result, Err(SolveFailure { error: SolverError::Internal { .. }, .. }))
}

/// How many child-grid launch rounds one simulation's integration issued:
/// one per stage/RHS evaluation, one per linear solve, one per
/// factorization, one per step-control round.
fn launch_rounds(stats: &StepStats) -> u64 {
    (stats.rhs_evals + stats.linear_solves + stats.lu_decompositions + stats.steps).max(1) as u64
}

/// P3 failures that re-route to RADAU5 rather than being terminal.
fn is_reroutable(e: &SolverError) -> bool {
    matches!(
        e,
        SolverError::StiffnessDetected { .. }
            | SolverError::MaxStepsExceeded { .. }
            | SolverError::StepSizeUnderflow { .. }
            | SolverError::NonlinearSolveFailed { .. }
    )
}

impl Simulator for Engine<FineCoarse> {
    fn name(&self) -> &'static str {
        "fine-coarse"
    }

    fn run(&self, job: &SimulationJob) -> Result<BatchResult, SimError> {
        self.run_into(job, &discard)
    }

    fn run_into(
        &self,
        job: &SimulationJob,
        sink: &dyn MemberSink,
    ) -> Result<BatchResult, SimError> {
        let start = Instant::now();
        let (host, model) = (&self.host, &self.model);
        let device = Device::with_dp_model(model.device_config.clone(), model.dp_model.clone());
        let n = job.odes().n_species();
        let batch = job.batch_size();

        // P1: encoding upload (structures + per-member x0, k).
        device.record_host_phase("io::p1_h2d", h2d_bytes(job, batch) as f64 / PCIE_BYTES_PER_NS);

        // P2: stiffness triage on the device.
        let classes = classify_batch_with_threshold(job, model.stiffness_threshold, &host.executor);
        let p2_work = ThreadWork::new()
            .with_flops(job.odes().jacobian_flops() + 50 * 2 * (n * n) as u64)
            .with_global_read((job.odes().n_terms() as u64 * 12) + (n * n) as u64 * 8);
        let tpb = THREADS_PER_BLOCK;
        device.launch(
            &KernelLaunch::uniform("setup::p2_stiffness", batch.div_ceil(tpb), tpb, p2_work)
                .with_registers(64),
        );

        // P3: DOPRI5 over non-stiff members; collect re-routes.
        let slots = (0..batch).map(|_| None).collect();
        let logs = vec![RecoveryLog::default(); batch];
        let mut run = Phases { host, model, job, device, slots, logs };
        let nonstiff: Vec<usize> = (0..batch).filter(|&i| !classes[i].stiff).collect();
        let stiff: Vec<usize> = (0..batch).filter(|&i| classes[i].stiff).collect();
        let dopri5 = Dopri5::new();
        let radau5 = Radau5::new();
        let p3_attempts = run.solve_p3(&dopri5, &nonstiff)?;
        let reroute = host.recovery.reroute;
        let rerouted =
            run.settle_phase("p3_dopri5", dopri5.name(), &nonstiff, p3_attempts, reroute);

        // P4: RADAU5 over stiff + re-routed members.
        let mut p4_members = stiff;
        p4_members.extend(rerouted.iter().copied());
        for &i in &rerouted {
            run.logs[i].rerouted = true;
        }
        // Mass-action batches with two or more clean stiff members run P4
        // as lockstep RADAU5 lane-groups; fault-planned members stay on the
        // scalar path so an injected panic (and its per-call fault
        // ordinals) cannot touch a whole group. The width comes from the
        // same per-model resolver as the fine engine's lane path.
        let (p4_lane, p4_scalar): (Vec<usize>, Vec<usize>) =
            p4_members.iter().copied().partition(|&i| job.fault_plan().faults_for(i).is_none());
        let p4_width = crate::lanes::resolve_lane_width(model.lane_width, job, true);
        let p4_scalar = if p4_width > 1 && p4_lane.len() >= 2 {
            run.run_p4_lanes(&p4_lane, p4_width, &classes)?;
            p4_scalar
        } else {
            p4_members
        };
        let p4_attempts = run.solve_scalar(&radau5, &p4_scalar)?;
        run.settle_phase("p4_radau5", radau5.name(), &p4_scalar, p4_attempts, false);
        let Phases { device, mut slots, mut logs, .. } = run;

        // Relaxation pass: members still failing after P4 climb the
        // tolerance-relaxation rungs of the ladder on the solver that last
        // ran them, on the workers and under the token. Their P3/P4 work is
        // already billed above, so only genuine retries bill launch rounds,
        // in member order on this thread.
        if host.recovery.max_relaxations > 0 {
            let failed: Vec<usize> =
                (0..batch).filter(|&i| matches!(slots[i], Some((Err(_), _)))).collect();
            let firsts = failed.iter().map(|&i| (i, slots[i].take())).collect();
            let ladder = |i: usize| {
                let on_radau = classes[i].stiff || logs[i].rerouted;
                let retry: (&dyn OdeSolver, &'static str) =
                    if on_radau { (&radau5, "radau5") } else { (&dopri5, "dopri5") };
                Ladder { retry, fallback: None, reroutable: |_| false }
            };
            let retried = solve_members_recovered(host, job, firsts, ladder)?;
            for (&i, rs) in failed.iter().zip(retried) {
                if rs.log.attempts > 1 {
                    device.record_host_phase(
                        "integrate::relax_retries",
                        launch_rounds(&rs.stats) as f64 * model.device_config.kernel_launch_ns,
                    );
                }
                logs[i].attempts += rs.log.attempts - 1;
                logs[i].relaxations += rs.log.relaxations;
                logs[i].panicked |= rs.log.panicked;
                logs[i].discarded_steps += rs.log.discarded_steps;
                slots[i] = Some((rs.solution.map_err(SolveFailure::from), rs.solver));
            }
        }

        // Assemble outcomes.
        let mut settled = Settled::default();
        for (i, slot) in slots.into_iter().enumerate() {
            let (solution, solver) = slot.expect("every member handled by P3 or P4");
            let solution = solution.map_err(|failure| failure.error);
            logs[i].recovered = solution.is_ok() && logs[i].attempts > 1;
            settled.settle(solution, classes[i].stiff, solver, logs[i]);
        }

        // P5: device→host transfer plus output writing.
        let clocks = device_clocks(&device, "io::p5_d2h", "io::p5_write");
        Ok(host.finish(self.name(), start, settled, None, sink, clocks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpuEngine, CpuSolverKind};
    use paraspace_rbm::{perturbed_batch, Parameterization, Reaction, ReactionBasedModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn reversible_model() -> ReactionBasedModel {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let b = m.add_species("B", 0.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1.5)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 0.5)).unwrap();
        m
    }

    #[test]
    fn trajectories_match_cpu_engine() {
        let m = reversible_model();
        let mut rng = StdRng::seed_from_u64(9);
        let batch = perturbed_batch(&m, 6, &mut rng);
        let job = SimulationJob::builder(&m)
            .time_points(vec![0.5, 1.0, 2.0])
            .parameterizations(batch)
            .build()
            .unwrap();
        let gpu = FineCoarseEngine::new().run(&job).unwrap();
        let cpu = CpuEngine::new(CpuSolverKind::Lsoda).run(&job).unwrap();
        assert_eq!(gpu.success_count(), 6);
        for (og, oc) in gpu.outcomes.iter().zip(&cpu.outcomes) {
            let sg = og.solution.as_ref().unwrap();
            let sc = oc.solution.as_ref().unwrap();
            for (a, b) in sg.state_at(2).iter().zip(sc.state_at(2)) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn stiff_members_take_the_radau_path() {
        let m = reversible_model();
        let job = SimulationJob::builder(&m)
            .time_points(vec![1.0])
            .parameterization(Parameterization::new().with_rate_constants(vec![1.5, 0.5]))
            .parameterization(Parameterization::new().with_rate_constants(vec![1e5, 1e5]))
            .build()
            .unwrap();
        let r = FineCoarseEngine::new().run(&job).unwrap();
        assert!(!r.outcomes[0].stiff);
        assert!(r.outcomes[1].stiff);
        assert_eq!(r.outcomes[1].solver, "radau5");
        assert_eq!(r.outcomes[0].solver, "dopri5");
        // The stiff member still reaches the right equilibrium A/(A+B) = ½.
        let s = r.outcomes[1].solution.as_ref().unwrap();
        assert!((s.state_at(0)[0] - 0.5).abs() < 1e-3);
    }

    #[test]
    fn stiff_crowds_run_p4_in_lockstep_lanes() {
        use paraspace_solvers::SolverScratch;
        let m = reversible_model();
        let mut b = SimulationJob::builder(&m).time_points(vec![0.5, 1.0]);
        for i in 0..5 {
            b = b.parameterization(
                Parameterization::new()
                    .with_rate_constants(vec![1e5 + 5e3 * i as f64, 2e5 + 1e4 * i as f64]),
            );
        }
        let job = b.build().unwrap();
        let r = FineCoarseEngine::new().run(&job).unwrap();
        let mut scratch = SolverScratch::new();
        for i in 0..job.batch_size() {
            assert!(r.outcomes[i].stiff);
            assert_eq!(r.outcomes[i].solver, "radau5-lanes");
            // Bitwise identical to the scalar RADAU5 twin.
            let (x0, k) = job.member(i);
            let sys = crate::RbmOdeSystem::new(job.odes(), k.to_vec());
            let reference = Radau5::new()
                .solve_pooled(&sys, 0.0, x0, job.time_points(), job.options(), &mut scratch)
                .unwrap();
            assert_eq!(
                r.outcomes[i].solution.as_ref().unwrap().states,
                reference.states,
                "member {i}"
            );
        }
    }

    #[test]
    fn batch_throughput_beats_cpu_on_large_batches() {
        // The headline claim, in miniature: on a batch of simulations the
        // simulated GPU total is far below the simulated sequential CPU
        // total.
        let m = reversible_model();
        let mut rng = StdRng::seed_from_u64(10);
        let job = SimulationJob::builder(&m)
            .time_points(vec![1.0, 2.0])
            .parameterizations(perturbed_batch(&m, 256, &mut rng))
            .build()
            .unwrap();
        let gpu = FineCoarseEngine::new().run(&job).unwrap();
        let cpu = CpuEngine::new(CpuSolverKind::Lsoda).run(&job).unwrap();
        let speedup = cpu.timing.simulated_integration_ns / gpu.timing.simulated_integration_ns;
        assert!(speedup > 3.0, "expected a clear batch win, got {speedup:.2}x");
    }

    #[test]
    fn io_and_integration_are_split() {
        let m = reversible_model();
        let job = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(4).build().unwrap();
        let r = FineCoarseEngine::new().run(&job).unwrap();
        assert!(r.timing.simulated_io_ns > 0.0);
        assert!(r.timing.simulated_integration_ns > 0.0);
        assert!(r.timing.simulated_total_ns >= r.timing.simulated_integration_ns);
    }

    #[test]
    fn reroute_marks_members() {
        // A member that is non-stiff at t0 but becomes unmanageable for
        // DOPRI5: tiny step budget forces MaxStepsExceeded → re-route.
        let m = reversible_model();
        // Absurdly small step budget to force a P3 failure.
        let opts = paraspace_solvers::SolverOptions { max_steps: 8, ..Default::default() };
        let job = SimulationJob::builder(&m)
            .time_points(vec![5.0])
            .replicate(1)
            .options(opts)
            .build()
            .unwrap();
        let r = FineCoarseEngine::new().run(&job).unwrap();
        // DOPRI5 cannot reach t = 5 in 8 steps: the member is re-routed,
        // and the 8 explicit steps it burned are accounted as discarded.
        let o = &r.outcomes[0];
        assert!(o.rerouted);
        assert_eq!(o.solver, "radau5");
        assert_eq!(o.log.discarded_steps, 8);
        assert_eq!(r.health.discarded_steps, 8);
        assert!(r.health.to_string().ends_with("; 8 steps discarded"), "{}", r.health);
    }
}
