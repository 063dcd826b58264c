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
//! On the host the engine is *route → bill → one ladder call*. P3 and P4
//! are batch kernels ([`lanes::first_attempts`](crate::lanes), one
//! lockstep phase each): every member, fault-planned ones included,
//! integrates in lockstep lane groups, one per executor worker, all pulling
//! members from one shared queue (P4's ordered longest first by the triage
//! eigenvalue). Both widths come from `lanes::phase_width`:
//! [`Dopri5Batch`](paraspace_solvers::Dopri5Batch) at width 8 unless
//! pinned, narrowed to each worker's share, and
//! [`Radau5Batch`](paraspace_solvers::Radau5Batch) at the autotuned width.
//! A panic inside a group is contained: the members it held make contained
//! scalar attempts, bitwise what their lanes would have given. A P3
//! failure the recovery policy [`reroutes`](crate::RecoveryPolicy) is
//! handed over to P4. Each phase is billed as a fold over per-member
//! counters in member order — P4's lane occupancy, which is the run's lane
//! accounting, from a packing the billing computes for itself — and then
//! one `recovery::solve_members_recovered` call continues every member's
//! ladder from the rungs P3 and P4 ran (relaxation retries, billed after
//! the phases). A member's attempt is bitwise the scalar solver's whichever
//! group and lane ran it, and whether a panic sent it to the scalar route,
//! so outcomes, labels, billing and health do not depend on the worker
//! count (nor, for P3, on the width).

use crate::engines::host::{device_clocks, h2d_bytes, Engine, Settled, PCIE_BYTES_PER_NS};
use crate::engines::{attempt_stats, discard, group_stats, BatchResult, MemberSink, Simulator};
use crate::lanes::{
    auto_lane_width, first_attempts, phase_width, share_narrowed, Lockstep, MEMBERS_PER_LANE,
};
use crate::recovery::{solve_members_recovered, Billed, Ladder};
use crate::{classify_batch_with_threshold, SimError, SimulationJob, WorkEstimate};
use paraspace_exec::MAX_LANE_WIDTH;
use paraspace_solvers::{Dopri5, Radau5, StepStats};
use paraspace_vgpu::{
    ChildLaunch, Device, DeviceConfig, DpModel, KernelLaunch, LaneGroupStats, MemorySpace,
    ThreadWork, THREADS_PER_BLOCK,
};
use std::time::Instant;

/// Parent-thread control-flow flops per solver step (loop bookkeeping,
/// step-size control on the coarse thread).
const PARENT_FLOPS_PER_STEP: u64 = 30;

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
    /// smaller) and P4 autotunes per model ([`crate::auto_lane_width`]).
    /// Per-member results are bitwise identical at any width — the recovery
    /// policy's step budget binds a lane as it binds a scalar solve; P3's
    /// modeled time is too, while P4's width shapes its modeled kernel and
    /// the LU working set.
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

/// Bills one phase of scalar-grain attempts: a parent grid of one thread
/// per listed member and child grids spreading the per-round ODE work
/// across species threads, folded from `stats` (indexed by member) in
/// `members` order on the calling thread — so the bill is bitwise
/// identical at any thread count and however the attempts were scheduled.
/// Failed members are billed for the work they did before failing.
fn bill_phase(
    device: &Device,
    job: &SimulationJob,
    phase_name: &str,
    members: &[usize],
    stats: &[StepStats],
) {
    if members.is_empty() {
        return;
    }
    let n = job.odes().n_species();
    let mut parent_work: Vec<ThreadWork> = Vec::with_capacity(members.len());
    let mut phase_work = WorkEstimate::default();
    let mut total_rounds: u64 = 0;

    for stats in members.iter().map(|&i| &stats[i]) {
        total_rounds += launch_rounds(stats);
        parent_work.push(
            ThreadWork::new()
                .with_flops(stats.steps as u64 * PARENT_FLOPS_PER_STEP)
                .with_syncs(stats.steps as u64),
        );
        phase_work.absorb(&WorkEstimate::from_stats(job.odes(), stats, job.time_points().len()));
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

    let launch = KernelLaunch::per_thread(format!("integrate::{phase_name}"), blocks, tpb, padded)
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
                    phase_work.output_bytes / child_threads_total.max(1) / rounds_avg.max(1),
                ),
            repeats: rounds_avg,
        });
    device.launch(&launch);
}

/// Bills the lane-batched P4 over `members` (in member-list order) and
/// records its occupancy, one launch and one
/// [`Device::record_lane_group`] per *modelled* group of
/// `MEMBERS_PER_LANE·width` members: a parent thread carries the whole lane
/// group, and one child round per lockstep tick serves all `L` lanes — the
/// per-tick dynamic-parallelism overhead is amortized `L`-fold, which is
/// exactly where the scalar P4 lost its budget on stiff-heavy batches. The
/// group's ticks and occupancy are what a lockstep group serving those
/// members in that order takes ([`LaneGroupStats::packed`] over their
/// Newton iterations, from `stats` indexed by member), not what the host's
/// groups happened to take, so the modeled timeline is a function of the
/// job and the width alone.
fn bill_p4_lanes(
    device: &Device,
    job: &SimulationJob,
    members: &[usize],
    width: usize,
    stats: &[StepStats],
) {
    // Parent grid: one thread for the lane-group; child grid: species ×
    // lanes threads, one round per lockstep tick, flops inflated by the
    // divergence factor (masked lanes burn issue slots).
    let tpb = THREADS_PER_BLOCK;
    let child_threads = (job.odes().n_species() * width).max(1);
    let child_tpb = child_threads.clamp(1, 128);
    let child_blocks = child_threads.div_ceil(child_tpb).max(1);
    let child_threads_total = (child_tpb * child_blocks) as u64;

    for group in members.chunks(MEMBERS_PER_LANE * width) {
        let lane_stats = group_stats(group.iter().map(|&i| &stats[i]));
        let phase_work = WorkEstimate::from_stats(job.odes(), &lane_stats, job.time_points().len());
        let report =
            LaneGroupStats::packed(width, group.iter().map(|&i| stats[i].nonlinear_iters as u64));
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
        device.launch(&launch);
        device.record_lane_group(&report);
    }
}

/// How many child-grid launch rounds one simulation's integration issued:
/// one per stage/RHS evaluation, one per linear solve, one per
/// factorization, one per step-control round.
fn launch_rounds(stats: &StepStats) -> u64 {
    (stats.rhs_evals + stats.linear_solves + stats.lu_decompositions + stats.steps).max(1) as u64
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

        // Every member's latest attempt, as the ladder will continue from
        // it, and that attempt's counters, for the phase bills.
        let mut billed: Vec<Option<Billed>> = (0..batch).map(|_| None).collect();
        let mut stats = vec![StepStats::default(); batch];

        // P3: DOPRI5 over the non-stiff members; the failures the policy
        // re-routes are handed over to P4. The host width narrows to each
        // worker's share.
        let (stiff, nonstiff): (Vec<usize>, Vec<usize>) =
            (0..batch).partition(|&i| classes[i].stiff);
        let p3_width = share_narrowed(
            phase_width(model.lane_width, nonstiff.len(), || MAX_LANE_WIDTH),
            nonstiff.len(),
            host.executor.threads(),
        );
        let p3 = first_attempts(host, job, Lockstep::Dopri5, &nonstiff, p3_width)?;
        let mut handed_over = Vec::new();
        for (&i, attempt) in nonstiff.iter().zip(p3) {
            stats[i] = *attempt_stats(&attempt);
            if matches!(&attempt, Err(f) if host.recovery.reroutes(&f.error)) {
                handed_over.push(i);
            }
            billed[i] = Some(Billed::first(attempt, "dopri5"));
        }
        bill_phase(&device, job, "p3_dopri5", &nonstiff, &stats);

        // P4: RADAU5 over stiff + handed-over members, longest first by the
        // triage eigenvalue, at the pinned or autotuned width.
        let mut p4 = stiff;
        p4.extend(handed_over);
        let p4_width = phase_width(model.lane_width, p4.len(), || auto_lane_width(job.odes()));
        let solver = if p4_width >= 2 { "radau5-lanes" } else { "radau5" };
        let mut queue = p4.clone();
        queue.sort_by(|&a, &b| {
            let (cost_a, cost_b) = (classes[a].dominant_eigenvalue, classes[b].dominant_eigenvalue);
            cost_b.total_cmp(&cost_a).then(a.cmp(&b))
        });
        let p4_attempts = first_attempts(host, job, Lockstep::Radau5, &queue, p4_width)?;
        for (&i, attempt) in queue.iter().zip(p4_attempts) {
            stats[i] = *attempt_stats(&attempt);
            billed[i] = Some(match billed[i].take() {
                Some(p3) => p3.rerouted_to(attempt, solver),
                None => Billed::first(attempt, solver),
            });
        }
        if p4_width >= 2 {
            bill_p4_lanes(&device, job, &p4, p4_width, &stats);
        } else {
            bill_phase(&device, job, "p4_radau5", &p4, &stats);
        }

        // Every member continues its ladder from there: a member still
        // failing climbs the relaxation rungs on the solver that last ran
        // it. Its P3/P4 work is billed above, so only genuine retries bill
        // launch rounds, in member order on this thread.
        let (dopri5, radau5) = (Dopri5::new(), Radau5::new());
        let implicit = Ladder { retry: (&radau5, "radau5"), fallback: None };
        let explicit = Ladder { retry: (&dopri5, "dopri5"), fallback: Some((&radau5, "radau5")) };
        let ladder = |i: usize| if classes[i].stiff { implicit } else { explicit };
        let members = billed.into_iter().enumerate().collect();
        let results = solve_members_recovered(host, job, members, ladder)?;
        let mut settled = Settled::default();
        for (rs, class) in results.into_iter().zip(&classes) {
            if rs.log.relaxations > 0 {
                device.record_host_phase(
                    "integrate::relax_retries",
                    launch_rounds(&rs.stats) as f64 * model.device_config.kernel_launch_ns,
                );
            }
            settled.settle(rs.solution, class.stiff, rs.solver, rs.log);
        }
        let lanes = (p4_width >= 2).then(|| device.lane_accounting());

        // P5: device→host transfer plus output writing.
        let clocks = device_clocks(&device, "io::p5_d2h", "io::p5_write");
        Ok(host.finish(self.name(), start, settled, lanes, sink, clocks))
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
        use paraspace_solvers::{OdeSolver, SolverScratch};
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
    fn lane_attempts_discarded_by_a_reroute_are_accounted() {
        // A 5-step cap fails every lockstep DOPRI5 lane of P3 at exactly 5
        // steps; each member is handed over to P4, and the lane attempts —
        // billed in P3, thrown away by the reroute — show up as discarded
        // steps at any width.
        let m = reversible_model();
        let opts = paraspace_solvers::SolverOptions { max_steps: 5, ..Default::default() };
        let mut b = SimulationJob::builder(&m).time_points(vec![0.5, 1.0]).options(opts);
        for i in 0..6 {
            b = b.parameterization(
                Parameterization::new().with_rate_constants(vec![0.5 + 0.25 * i as f64, 0.4]),
            );
        }
        let job = b.build().unwrap();
        for width in [2, 8] {
            let r = FineCoarseEngine::new().with_lane_width(width).run(&job).unwrap();
            assert_eq!(r.health.reroutes, 6, "width {width}: {}", r.health);
            assert_eq!(r.health.discarded_steps, 6 * 5, "width {width}: {}", r.health);
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
