//! The coarse-grained-only engine (cupSODA-class baseline).
//!
//! One device thread runs one complete LSODA integration; no fine-grained
//! parallelism and no dynamic parallelism. Its strength is the memory
//! hierarchy: when the flat ODE encoding fits in **constant memory** and
//! the per-simulation state fits in **shared memory**, small models enjoy
//! on-chip latencies — which is why the published comparison maps give
//! small-model/many-simulation cells to this engine. Large models overflow
//! to global memory (and eventually do not fit at all), which is why it
//! disappears from the large-model cells.

use crate::engines::host::{
    device_clocks, encoding_bytes, h2d_bytes, Engine, Settled, PCIE_BYTES_PER_NS,
};
use crate::engines::{discard, BatchResult, MemberSink, Simulator};
use crate::recovery::{solve_members_recovered, Ladder};
use crate::{SimError, SimulationJob, WorkEstimate};
use paraspace_solvers::{Lsoda, OdeSolver};
use paraspace_vgpu::{
    Device, DeviceConfig, KernelLaunch, MemorySpace, ThreadWork, THREADS_PER_BLOCK,
};
use std::time::Instant;

/// Constant-memory capacity (bytes) — CUDA's fixed 64 KiB.
const CONSTANT_MEM_BYTES: u64 = 64 * 1024;
/// Per-state-variable shared-memory footprint (the current state vector).
const SHARED_BYTES_PER_SPECIES: usize = 8;

/// The coarse-grained cost model: one device thread per simulation, with
/// the encoding in constant and the state in shared memory where they fit.
#[derive(Debug, Clone)]
pub struct Coarse {
    device_config: DeviceConfig,
    /// When `false`, forces all traffic to global memory (ablation A4).
    use_memory_hierarchy: bool,
}

impl Default for Coarse {
    /// The published GPU, memory hierarchy on.
    fn default() -> Self {
        Coarse { device_config: DeviceConfig::titan_x(), use_memory_hierarchy: true }
    }
}

/// The coarse-only engine.
///
/// # Example
///
/// ```
/// use paraspace_core::{CoarseEngine, SimulationJob, Simulator};
/// use paraspace_rbm::{Reaction, ReactionBasedModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = ReactionBasedModel::new();
/// let a = m.add_species("A", 1.0);
/// m.add_reaction(Reaction::mass_action(&[(a, 1)], &[], 1.0))?;
/// let job = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(16).build()?;
/// let r = CoarseEngine::new().run(&job)?;
/// assert_eq!(r.success_count(), 16);
/// # Ok(())
/// # }
/// ```
pub type CoarseEngine = Engine<Coarse>;

impl Engine<Coarse> {
    /// Disables constant/shared-memory placement (everything global) —
    /// the memory-hierarchy ablation.
    pub fn without_memory_hierarchy(mut self) -> Self {
        self.model.use_memory_hierarchy = false;
        self
    }

    /// Whether the model's encoding fits the constant-memory budget.
    pub fn constants_fit(&self, job: &SimulationJob) -> bool {
        encoding_bytes(job) <= CONSTANT_MEM_BYTES
    }

    /// Whether per-simulation state fits the shared-memory budget at the
    /// one-warp block size.
    pub fn shared_fits(&self, job: &SimulationJob) -> bool {
        let per_block = THREADS_PER_BLOCK * job.odes().n_species() * SHARED_BYTES_PER_SPECIES;
        per_block <= self.model.device_config.shared_mem_per_sm / 2
    }
}

impl Simulator for Engine<Coarse> {
    fn name(&self) -> &'static str {
        "coarse"
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
        let model = &self.model;
        let device = Device::new(model.device_config.clone());
        let n = job.odes().n_species();
        let batch = job.batch_size();
        let solver = Lsoda::new();

        device.record_host_phase("io::h2d", h2d_bytes(job, batch) as f64 / PCIE_BYTES_PER_NS);

        let constants_in_cmem = model.use_memory_hierarchy && self.constants_fit(job);
        let state_in_shared = model.use_memory_hierarchy && self.shared_fits(job);

        let mut settled = Settled::default();
        let mut thread_work = Vec::with_capacity(batch);
        // Solves run on the worker pool; the per-member memory placement and
        // work accounting below folds in member order on this thread. Each
        // member runs under panic containment and the recovery ladder; a
        // retry's steps land in the same device thread's work, so retries
        // are billed inside the coarse kernel.
        let members = (0..batch).map(|i| (i, None)).collect();
        let retry = (&solver as &dyn OdeSolver, solver.name());
        let ladder = Ladder { retry, fallback: None };
        for rs in solve_members_recovered(&self.host, job, members, |_| ladder)? {
            let stats = rs.stats;
            let work = WorkEstimate::from_stats(job.odes(), &stats, job.time_points().len());
            // The state vector's share of state traffic can live in shared
            // memory; Nordsieck history and scratch stay global.
            let state_vector_bytes = stats.rhs_evals as u64 * n as u64 * 8;
            let shared_bytes =
                if state_in_shared { state_vector_bytes.min(work.state_bytes) } else { 0 };
            let spill_state = work.state_bytes - shared_bytes;
            // With the hierarchy enabled, overflow traffic still enjoys the
            // L2; the ablation strips every on-chip level at once.
            let state_space = if model.use_memory_hierarchy {
                MemorySpace::CachedGlobal
            } else {
                MemorySpace::Global
            };
            let structure_space =
                if constants_in_cmem { MemorySpace::Constant } else { state_space };
            thread_work.push(
                ThreadWork::new()
                    .with_flops(work.flops)
                    .with_read(structure_space, work.structure_bytes)
                    .with_read(MemorySpace::Shared, shared_bytes)
                    .with_read(state_space, spill_state)
                    .with_global_write(work.output_bytes),
            );
            settled.settle(rs.solution, false, rs.solver, rs.log);
        }

        let tpb = THREADS_PER_BLOCK;
        let blocks = batch.div_ceil(tpb);
        thread_work.resize(blocks * tpb, ThreadWork::new());
        let shared_per_block = if state_in_shared { tpb * n * SHARED_BYTES_PER_SPECIES } else { 0 };
        device.launch(
            &KernelLaunch::per_thread("integrate::coarse_lsoda", blocks, tpb, thread_work)
                .with_registers(48)
                .with_shared_mem(shared_per_block),
        );
        // cupSODA re-launches the kernel once per sampling interval.
        device.record_host_phase(
            "integrate::interval_launches",
            (job.time_points().len().saturating_sub(1)) as f64
                * model.device_config.kernel_launch_ns,
        );

        let clocks = device_clocks(&device, "io::d2h", "io::write");
        Ok(self.host.finish(self.name(), start, settled, None, sink, clocks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FineCoarseEngine;
    use paraspace_rbm::sbgen::SbGen;
    use paraspace_rbm::{perturbed_batch, Reaction, ReactionBasedModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model() -> ReactionBasedModel {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let b = m.add_species("B", 0.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1.0)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 0.4)).unwrap();
        m
    }

    #[test]
    fn small_model_uses_on_chip_memory() {
        let m = tiny_model();
        let job = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(8).build().unwrap();
        let e = CoarseEngine::new();
        assert!(e.constants_fit(&job));
        assert!(e.shared_fits(&job));
        let r = e.run(&job).unwrap();
        assert_eq!(r.success_count(), 8);
    }

    #[test]
    fn large_model_overflows_constant_memory() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = SbGen::new(400, 2200).generate(&mut rng);
        let job = SimulationJob::builder(&m).time_points(vec![0.01]).replicate(1).build().unwrap();
        let e = CoarseEngine::new();
        assert!(!e.constants_fit(&job), "2200-reaction encoding must exceed 64 KiB");
        assert!(!e.shared_fits(&job), "400-species state × 32 threads must exceed shared memory");
    }

    #[test]
    fn memory_hierarchy_ablation_slows_small_models() {
        let m = tiny_model();
        let mut rng = StdRng::seed_from_u64(4);
        let job = SimulationJob::builder(&m)
            .time_points(vec![1.0, 2.0])
            .parameterizations(perturbed_batch(&m, 128, &mut rng))
            .build()
            .unwrap();
        let with_mem = CoarseEngine::new().run(&job).unwrap();
        let without = CoarseEngine::new().without_memory_hierarchy().run(&job).unwrap();
        assert!(
            without.timing.simulated_integration_ns > with_mem.timing.simulated_integration_ns,
            "global-only ({}) must be slower than constant/shared ({})",
            without.timing.simulated_integration_ns,
            with_mem.timing.simulated_integration_ns
        );
    }

    #[test]
    fn trajectories_agree_with_fine_coarse_engine() {
        let m = tiny_model();
        let job =
            SimulationJob::builder(&m).time_points(vec![0.5, 1.0]).replicate(2).build().unwrap();
        let a = CoarseEngine::new().run(&job).unwrap();
        let b = FineCoarseEngine::new().run(&job).unwrap();
        let sa = a.outcomes[0].solution.as_ref().unwrap();
        let sb = b.outcomes[0].solution.as_ref().unwrap();
        for (x, y) in sa.state_at(1).iter().zip(sb.state_at(1)) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn interval_launch_overhead_scales_with_samples() {
        let m = tiny_model();
        let few = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(4).build().unwrap();
        let many = SimulationJob::builder(&m)
            .time_points((1..=200).map(|i| i as f64 * 0.01).collect())
            .replicate(4)
            .build()
            .unwrap();
        let rf = CoarseEngine::new().run(&few).unwrap();
        let rm = CoarseEngine::new().run(&many).unwrap();
        assert!(rm.timing.simulated_total_ns > rf.timing.simulated_total_ns);
    }
}
