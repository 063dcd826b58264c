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
//! **Lane path** (auto-selected for batches of two or more): a Jacobian-
//! diagonal triage at `t = 0` splits the members into **two lockstep
//! classes** — non-stiff members integrate under the lockstep
//! [`Dopri5Batch`](paraspace_solvers::Dopri5Batch), members whose diagonal
//! crosses the published threshold under the lockstep
//! [`Radau5Batch`](paraspace_solvers::Radau5Batch) (batched
//! simplified-Newton over one real and one complex lane-batched LU per
//! lane, the scalar RADAU5 Jacobian-/factorization-reuse policy applied
//! per lane) — each class on the scheduler every lockstep phase runs on
//! (`lanes::solve_queue`: one group of width `L` per executor worker, all
//! pulling from one shared member queue). One lockstep sweep evaluates the
//! CSR flux/accumulation passes for all `L` lanes per decoded segment, so
//! the per-step host-launch latency and the structure decoding are
//! amortized `L`-fold; step size, error control and acceptance stay **per
//! lane** (masked divergence instead of a group barrier). Every attempt is
//! bitwise the scalar [`Dopri5`] / [`Radau5`] one whichever group ran it.
//!
//! The device is billed afterwards, on the calling thread in member order,
//! per *modelled* group of `MEMBERS_PER_LANE·L` members: one wide kernel per
//! lockstep class, whose ticks and lane occupancy are what a group serving
//! those members in that order takes ([`LaneGroupStats::packed`]), then the
//! scalar kernel of every member no lane carried. Which host group ran a
//! member therefore shows nowhere: trajectories, clocks, occupancy and
//! health are bitwise identical at any worker count.

use crate::engines::host::{device_clocks, h2d_bytes, Engine, Settled, PCIE_BYTES_PER_NS};
use crate::engines::{attempt_stats, discard, group_stats, BatchResult, MemberSink, Simulator};
use crate::lanes::{first_attempts, Lockstep, MEMBERS_PER_LANE};
use crate::recovery::{solve_members_recovered, Billed, Ladder};
use crate::{SimError, SimulationJob, WorkEstimate, STIFFNESS_THRESHOLD};
use paraspace_solvers::{Bdf, Dopri5, Radau5, Rkf45, StepStats};
use paraspace_vgpu::{
    Device, DeviceConfig, DpModel, KernelLaunch, LaneGroupStats, MemorySpace, ThreadWork,
    TimelineShard,
};
use std::time::Instant;

/// Host-launched kernels per solver step (stage evaluations + reduction).
const KERNELS_PER_STEP: u64 = 8;
/// Timeline tag of the host-side launch latency between a kernel's steps.
const STEP_LAUNCHES: &str = "integrate::step_launches";

/// The fine-grained cost model: species across device threads, every
/// solver step launched from the host.
#[derive(Debug, Clone)]
pub struct Fine {
    device_config: DeviceConfig,
    lane_width: Option<usize>,
}

impl Default for Fine {
    /// The published GPU, the lane width autotuned per model.
    fn default() -> Self {
        Fine { device_config: DeviceConfig::titan_x(), lane_width: None }
    }
}

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
pub type FineEngine = Engine<Fine>;

impl Engine<Fine> {
    /// Pins the lane width (builder style): `1` forces the scalar
    /// published-baseline path, larger values run lockstep lane-groups of
    /// that width. Without this, the engine autotunes the width per model
    /// from its flux-vs-LU cost split ([`crate::auto_lane_width`]) for
    /// batches of two or more members, scalar for one.
    /// Per-member results are bitwise identical at any width, and the
    /// recovery policy's step budget binds a lane as it binds a scalar
    /// solve.
    pub fn with_lane_width(mut self, width: usize) -> Self {
        self.model.lane_width = Some(width.max(1));
        self
    }

    /// A fresh device with the input staging on its timeline: the fine
    /// engine uploads per simulation, encoding included.
    fn upload(&self, job: &SimulationJob) -> Device {
        let device = Device::new(self.model.device_config.clone());
        device.record_host_phase(
            "io::h2d",
            h2d_bytes(job, 1) as f64 * job.batch_size() as f64 / PCIE_BYTES_PER_NS,
        );
        device
    }

    /// The published scalar baseline: one simulation at a time, species
    /// across threads, host launches at every step.
    fn run_scalar(
        &self,
        job: &SimulationJob,
        sink: &dyn MemberSink,
    ) -> Result<BatchResult, SimError> {
        let start = Instant::now();
        let device = self.upload(job);
        let (rkf, bdf1) = (Rkf45::new(), Bdf::with_max_order(1));

        // Non-stiff attempt first; the recovery ladder reroutes a
        // stiffness-shaped failure to BDF1 (the published switching pair),
        // then climbs any configured relaxation rungs. Every attempt's work
        // lands in the member's stats, so retries are billed on the modeled
        // timeline — one kernel per member, in member order on this thread:
        // the serialize-everything weakness, bitwise at any thread count.
        let members = (0..job.batch_size()).map(|i| (i, None)).collect();
        let ladder = Ladder { retry: (&rkf, "rkf45"), fallback: Some((&bdf1, "bdf1")) };
        let results = solve_members_recovered(&self.host, job, members, |_| ladder)?;
        let mut settled = Settled::default();
        for (i, rs) in results.into_iter().enumerate() {
            let name = format!("integrate::fine_sim{i}");
            let (kernel, launches_ns) =
                self.price(job, name, 1, &rs.stats, 1.0, rs.stats.steps as u64);
            device.launch(&kernel);
            device.record_host_phase(STEP_LAUNCHES, launches_ns);
            settled.settle(rs.solution, false, rs.solver, rs.log);
        }
        let clocks = device_clocks(&device, "io::d2h", "io::write");
        Ok(self.host.finish(self.name(), start, settled, None, sink, clocks))
    }

    /// The lane-batched path: triage, each lockstep class on the shared
    /// member queue, the recovery ladder, then the device billed member by
    /// member.
    fn run_lanes(
        &self,
        job: &SimulationJob,
        width: usize,
        sink: &dyn MemberSink,
    ) -> Result<BatchResult, SimError> {
        let start = Instant::now();
        let device = self.upload(job);
        let (host, odes, batch) = (&self.host, job.odes(), job.batch_size());

        // P2-style triage on the analytic Jacobian diagonal at t = 0:
        // members whose fastest local decay already exceeds the published
        // threshold route to the stiff lockstep class (lane-batched RADAU5)
        // instead of the explicit one, so one stiff member cannot drag a
        // DOPRI5 group through tiny steps — and a crowd of stiff members no
        // longer serializes into scalar solves.
        let buffers = || (vec![0.0; odes.n_species()], vec![0.0; odes.n_reactant_slots()]);
        let stiff = host.executor.map_with(batch, buffers, |(diag, slots), i| {
            let (x0, k) = job.member(i);
            odes.jacobian_diag_batch(1, x0, k, slots, diag);
            diag.iter().fold(0.0f64, |a, &d| a.max(d.abs())) >= STIFFNESS_THRESHOLD
        });
        // Fault-planned members are evicted from both lockstep classes and
        // make their first attempt scalar, under panic containment
        // (`lanes::first_attempts`): a lane that panics mid-sweep would
        // otherwise tear down its whole group, and a faulted lane's injected
        // call ordinals would shift with lane packing. Eviction keeps both
        // the blast radius and the fault schedule per-member. An evicted
        // member's attempt is the scalar twin of its would-be lane (a fault
        // plan never changes which method a member runs under).
        let evicted: Vec<bool> =
            (0..batch).map(|i| job.fault_plan().faults_for(i).is_some()).collect();
        let mut firsts: Vec<Option<Billed>> = (0..batch).map(|_| None).collect();
        let mut first_stats = vec![StepStats::default(); batch];
        for (kernel, of_stiff, lanes, scalar) in [
            (Lockstep::Dopri5, false, "dopri5-lanes", "dopri5"),
            (Lockstep::Radau5, true, "radau5-lanes", "radau5"),
        ] {
            let class: Vec<usize> = (0..batch).filter(|&i| stiff[i] == of_stiff).collect();
            let attempts = first_attempts(host, job, kernel, &class, width)?;
            for (&i, attempt) in class.iter().zip(attempts) {
                first_stats[i] = *attempt_stats(&attempt);
                let name = if evicted[i] { scalar } else { lanes };
                firsts[i] = Some(Billed::first(attempt, name));
            }
        }

        // Every member continues through the ladder of its class; a first
        // attempt that succeeded comes back as it went in.
        let (dopri5, bdf1, radau5) = (Dopri5::new(), Bdf::with_max_order(1), Radau5::new());
        let explicit = Ladder { retry: (&dopri5, "dopri5"), fallback: Some((&bdf1, "bdf1")) };
        let implicit = Ladder { retry: (&radau5, "radau5"), fallback: None };
        let members = firsts.into_iter().enumerate().collect();
        let ladder = |i: usize| if stiff[i] { implicit } else { explicit };
        let mut results = solve_members_recovered(host, job, members, ladder)?.into_iter();

        // The bill, on this thread in member order, per modelled group of
        // `MEMBERS_PER_LANE·width` members. Each lockstep class of a group
        // is one wide kernel: n species × L lanes across threads, flops
        // inflated by the divergence factor (masked lanes burn issue
        // slots), and host launch latency once per lockstep tick — not once
        // per member step, which is the whole point of the lane path. Its
        // ticks and occupancy are those of a group serving the class's
        // members in member order (`LaneGroupStats::packed` over DOPRI5 steps,
        // or RADAU5's Newton iterations: one launch serves all of a tick's
        // sweeps and batched LU solves), not what the host's groups took.
        // Then every member whose work no lane kernel carried — an evicted
        // member's whole ladder, a lane member's retries — bills a scalar
        // kernel like the published baseline. Each group's slice of
        // timeline is laid out on its own shard and absorbed in group order.
        let config = &self.model.device_config;
        let dp = DpModel::default();
        let capacity = MEMBERS_PER_LANE * width;
        let mut settled = Settled::default();
        for g in 0..batch.div_ceil(capacity) {
            let group = g * capacity..((g + 1) * capacity).min(batch);
            let mut shard = TimelineShard::new();
            for (label, of_stiff) in [("lane_group", false), ("radau_lane_group", true)] {
                let lanes: Vec<&StepStats> = group
                    .clone()
                    .filter(|&i| stiff[i] == of_stiff && !evicted[i])
                    .map(|i| &first_stats[i])
                    .collect();
                if lanes.is_empty() {
                    // The explicit class is on the occupancy record even empty.
                    if !of_stiff {
                        device.record_lane_group(&LaneGroupStats { width, ..Default::default() });
                    }
                    continue;
                }
                let ticks = lanes
                    .iter()
                    .map(|s| (if of_stiff { s.nonlinear_iters } else { s.steps }) as u64);
                let occupancy = LaneGroupStats::packed(width, ticks);
                let (kernel, launches_ns) = self.price(
                    job,
                    format!("integrate::{label}{g}"),
                    width,
                    &group_stats(lanes),
                    occupancy.divergence_factor(),
                    occupancy.lockstep_iters,
                );
                shard.launch(config, &dp, &kernel);
                shard.record_host_phase(STEP_LAUNCHES, launches_ns);
                device.record_lane_group(&occupancy);
            }
            for i in group {
                let rs = results.next().expect("one result per member");
                if evicted[i] {
                    settled.health.evicted_lanes += 1;
                }
                if evicted[i] || rs.log.attempts > 1 {
                    // The ladder hands back only the work it adds.
                    let stats = if evicted[i] {
                        group_stats([&first_stats[i], &rs.stats])
                    } else {
                        rs.stats
                    };
                    let name = format!("integrate::fine_sim{i}");
                    let (kernel, launches_ns) =
                        self.price(job, name, 1, &stats, 1.0, stats.steps as u64);
                    shard.launch(config, &dp, &kernel);
                    shard.record_host_phase(STEP_LAUNCHES, launches_ns);
                }
                settled.settle(rs.solution, stiff[i], rs.solver, rs.log);
            }
            device.absorb_shard(shard);
        }
        let lanes = Some(device.lane_accounting());
        let clocks = device_clocks(&device, "io::d2h", "io::write");
        Ok(host.finish(self.name(), start, settled, lanes, sink, clocks))
    }

    /// Prices one integration kernel the fine-grained way: species ×
    /// `lanes` across threads, the measured work (inflated by `divergence`)
    /// spread over them, and the host-side launch latency of every
    /// remaining kernel of its `steps` solver steps (the launch itself
    /// charges one). A scalar member is the `lanes = 1`, `divergence = 1`
    /// case: its own kernel, host launches at every one of its steps.
    fn price(
        &self,
        job: &SimulationJob,
        name: String,
        lanes: usize,
        stats: &StepStats,
        divergence: f64,
        steps: u64,
    ) -> (KernelLaunch, f64) {
        let work = WorkEstimate::from_stats(job.odes(), stats, job.time_points().len());
        let threads = (job.odes().n_species() * lanes).max(1);
        let tpb = threads.clamp(1, 128);
        let blocks = threads.div_ceil(tpb).max(1);
        let threads_total = (tpb * blocks) as u64;
        let flops = ((work.flops as f64 * divergence) as u64).max(1);
        let per_thread = ThreadWork::new()
            .with_flops((flops / threads_total).max(1))
            .with_read(
                MemorySpace::CachedGlobal,
                ((work.state_bytes + work.structure_bytes) / threads_total).max(1),
            )
            .with_global_write((work.output_bytes / threads_total).max(1));
        let kernel = KernelLaunch::uniform(name, blocks, tpb, per_thread).with_registers(48);
        let launches = (steps * KERNELS_PER_STEP).saturating_sub(1);
        (kernel, launches as f64 * self.model.device_config.kernel_launch_ns)
    }
}

impl Simulator for Engine<Fine> {
    fn name(&self) -> &'static str {
        "fine"
    }

    fn run(&self, job: &SimulationJob) -> Result<BatchResult, SimError> {
        self.run_into(job, &discard)
    }

    fn run_into(
        &self,
        job: &SimulationJob,
        sink: &dyn MemberSink,
    ) -> Result<BatchResult, SimError> {
        let width = crate::lanes::resolve_lane_width(self.model.lane_width, job, false);
        if width <= 1 {
            self.run_scalar(job, sink)
        } else {
            self.run_lanes(job, width, sink)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FineCoarseEngine;
    use paraspace_rbm::{Parameterization, Reaction, ReactionBasedModel};
    use paraspace_solvers::FaultPlan;

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
    fn the_bill_does_not_depend_on_which_host_group_ran_a_member() {
        // Both lockstep classes, explicit members ≥ 4× apart in steps, one
        // evicted member and one lane member DOPRI5 hands to BDF1: at every
        // width, the clocks, occupancy, health and every outcome are the
        // same at any worker count, however the shared queue fell.
        use paraspace_solvers::FaultSpec;
        let m = model();
        let mut b = SimulationJob::builder(&m).time_points(vec![1.0, 5.0, 20.0]);
        let rates = [[0.3, 0.2], [2.0, 1.0], [1e5, 2e5], [30.0, 20.0], [300.0, 150.0]];
        for i in 0..14 {
            let [k1, k2] = rates[i % rates.len()];
            let spread = 1.0 + 0.05 * i as f64;
            b = b.parameterization(
                Parameterization::new().with_rate_constants(vec![k1 * spread, k2]),
            );
        }
        let job = b.fault_plan(FaultPlan::new().with_fault(6, FaultSpec::nan_at_time(1e9)));
        let job = job.build().unwrap();
        let outcome = |o: &crate::SimOutcome| {
            let solution = o.solution.as_ref().map(|s| (s.states.clone(), s.stats));
            format!("{solution:?} {} {} {} {:?}", o.solver, o.stiff, o.rerouted, o.log)
        };
        for width in [2, 4, 8] {
            let run = |threads| {
                FineEngine::new().with_lane_width(width).with_threads(threads).run(&job).unwrap()
            };
            let one = run(1);
            let steps: Vec<usize> = one
                .outcomes
                .iter()
                .filter(|o| o.solver == "dopri5-lanes")
                .map(|o| o.solution.as_ref().unwrap().stats.steps)
                .collect();
            let (fewest, most) = (steps.iter().min().unwrap(), steps.iter().max().unwrap());
            assert!(most >= &(4 * fewest), "width {width}: steps {fewest}..{most}");
            assert!(one.outcomes.iter().any(|o| o.solver == "radau5-lanes"), "width {width}");
            assert_eq!(one.health.evicted_lanes, 1, "width {width}");
            assert!(
                one.outcomes.iter().any(|o| o.solver == "bdf1" && o.rerouted && !o.stiff),
                "width {width}: {}",
                one.health
            );
            for threads in [2, 4, 8] {
                let other = run(threads);
                let clocks = |r: &BatchResult| {
                    let t = &r.timing;
                    [t.simulated_total_ns, t.simulated_integration_ns, t.simulated_io_ns]
                        .map(f64::to_bits)
                };
                let at = format!("width {width}, {threads} threads");
                assert_eq!(clocks(&one), clocks(&other), "{at}");
                assert_eq!(one.lanes, other.lanes, "{at}");
                assert_eq!(one.health, other.health, "{at}");
                let outcomes = |r: &BatchResult| r.outcomes.iter().map(outcome).collect::<Vec<_>>();
                assert_eq!(outcomes(&one), outcomes(&other), "{at}");
            }
        }
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
}
