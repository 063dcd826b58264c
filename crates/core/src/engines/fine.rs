//! The fine-grained engine: the LASSIE-class published baseline.
//!
//! Simulations run one at a time; within each, the ODE dimension is spread
//! across device threads, with kernels launched from the **host** at every
//! solver step (no dynamic parallelism). The method pair mirrors the
//! published baseline: RKF45 while the problem behaves, first-order BDF
//! once it does not. This design shines on a *single very large* model —
//! and collapses when many simulations are requested, because simulations
//! serialize and every step pays host-launch latency: exactly the regions
//! the comparison maps assign to it. The lockstep lane kernels belong to
//! the fine-coarse engine's P3 and P4 ([`crate::FineCoarseEngine`]).

use crate::engines::host::{device_clocks, h2d_bytes, Engine, Settled, PCIE_BYTES_PER_NS};
use crate::engines::{discard, BatchResult, MemberSink, Simulator};
use crate::recovery::{solve_members_recovered, Ladder};
use crate::{SimError, SimulationJob, WorkEstimate};
use paraspace_solvers::{Bdf, Rkf45, StepStats};
use paraspace_vgpu::{Device, DeviceConfig, KernelLaunch, MemorySpace, ThreadWork};
use std::time::Instant;

/// Host-launched kernels per solver step (stage evaluations + reduction).
const KERNELS_PER_STEP: u64 = 8;

/// The fine-grained cost model: species across device threads, every
/// solver step launched from the host.
#[derive(Debug, Clone)]
pub struct Fine {
    device_config: DeviceConfig,
}

impl Default for Fine {
    /// The published GPU.
    fn default() -> Self {
        Fine { device_config: DeviceConfig::titan_x() }
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
    /// Prices one member's integration kernel the fine-grained way: species
    /// across threads, the measured work spread over them, and the
    /// host-side launch latency of every remaining kernel of its solver
    /// steps (the launch itself charges one).
    fn price(&self, job: &SimulationJob, name: String, stats: &StepStats) -> (KernelLaunch, f64) {
        let work = WorkEstimate::from_stats(job.odes(), stats, job.time_points().len());
        let threads = job.odes().n_species().max(1);
        let tpb = threads.clamp(1, 128);
        let blocks = threads.div_ceil(tpb).max(1);
        let threads_total = (tpb * blocks) as u64;
        let per_thread = ThreadWork::new()
            .with_flops((work.flops / threads_total).max(1))
            .with_read(
                MemorySpace::CachedGlobal,
                ((work.state_bytes + work.structure_bytes) / threads_total).max(1),
            )
            .with_global_write((work.output_bytes / threads_total).max(1));
        let kernel = KernelLaunch::uniform(name, blocks, tpb, per_thread).with_registers(48);
        let launches = (stats.steps as u64 * KERNELS_PER_STEP).saturating_sub(1);
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
        let start = Instant::now();
        // A fresh device with the input staging on its timeline: the fine
        // engine uploads per simulation, encoding included.
        let device = Device::new(self.model.device_config.clone());
        device.record_host_phase(
            "io::h2d",
            h2d_bytes(job, 1) as f64 * job.batch_size() as f64 / PCIE_BYTES_PER_NS,
        );
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
            let (kernel, launches_ns) =
                self.price(job, format!("integrate::fine_sim{i}"), &rs.stats);
            device.launch(&kernel);
            device.record_host_phase("integrate::step_launches", launches_ns);
            settled.settle(rs.solution, false, rs.solver, rs.log);
        }
        let clocks = device_clocks(&device, "io::d2h", "io::write");
        Ok(self.host.finish(self.name(), start, settled, None, sink, clocks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FineCoarseEngine;
    use paraspace_rbm::{Parameterization, Reaction, ReactionBasedModel};

    fn model() -> ReactionBasedModel {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let b = m.add_species("B", 0.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1.0)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 0.4)).unwrap();
        m
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
    fn serialization_across_simulations_hurts_batches() {
        // Per-simulation simulated time must grow ~linearly with batch size
        // (no coarse-grained parallelism) — the published weakness.
        let m = model();
        let job1 = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(1).build().unwrap();
        let job8 = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(8).build().unwrap();
        let r1 = FineEngine::new().run(&job1).unwrap();
        let r8 = FineEngine::new().run(&job8).unwrap();
        assert!(
            r8.timing.simulated_total_ns > 6.0 * r1.timing.simulated_total_ns,
            "{} vs {}",
            r8.timing.simulated_total_ns,
            r1.timing.simulated_total_ns
        );
        assert!(r8.lanes.is_none());
    }

    #[test]
    fn loses_to_fine_coarse_on_batches() {
        let m = model();
        let job = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(64).build().unwrap();
        let fine = FineEngine::new().run(&job).unwrap();
        let fc = FineCoarseEngine::new().run(&job).unwrap();
        assert!(
            fine.timing.simulated_integration_ns > fc.timing.simulated_integration_ns,
            "fine {} must lose to fine+coarse {}",
            fine.timing.simulated_integration_ns,
            fc.timing.simulated_integration_ns
        );
    }
}
