//! The auto-selecting engine: the published comparison-map guidance as a
//! drop-in simulator.
//!
//! The original tool is pitched as a "black box": the user should not need
//! to know which granularity wins for their workload. [`AutoEngine`] applies
//! [`crate::recommend_engine`] to the job's dimensions and dispatches to
//! the winning engine, recording which one ran.

use crate::engines::host::Engine;
use crate::engines::{discard, BatchResult, MemberSink, Simulator};
use crate::{
    recommend_engine, CoarseEngine, CpuEngine, CpuSolverKind, EngineKind, FineCoarseEngine,
    FineEngine, SimError, SimulationJob,
};

/// The selector: no cost model of its own, it borrows the winner's.
#[derive(Debug, Clone, Default)]
pub struct Auto;

/// A simulator that picks the recommended engine per job and runs it on
/// its own host (workers, recovery policy and cancellation token are
/// forwarded to whichever engine the job dispatches to).
///
/// # Example
///
/// ```
/// use paraspace_core::{AutoEngine, SimulationJob, Simulator};
/// use paraspace_rbm::{Reaction, ReactionBasedModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = ReactionBasedModel::new();
/// let a = m.add_species("A", 1.0);
/// m.add_reaction(Reaction::mass_action(&[(a, 1)], &[], 1.0))?;
///
/// let engine = AutoEngine::new();
/// // A single simulation of a tiny model routes to the CPU...
/// let single = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(1).build()?;
/// assert_eq!(engine.run(&single)?.engine, "lsoda-cpu");
/// // ...while a large batch routes to a GPU engine.
/// let batch = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(300).build()?;
/// assert_eq!(engine.run(&batch)?.engine, "fine-coarse");
/// # Ok(())
/// # }
/// ```
pub type AutoEngine = Engine<Auto>;

impl Engine<Auto> {
    /// The engine kind this job would dispatch to.
    pub fn selection(&self, job: &SimulationJob) -> EngineKind {
        recommend_engine(job.odes().n_species(), job.odes().n_reactions(), job.batch_size())
    }
}

impl Simulator for Engine<Auto> {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn run(&self, job: &SimulationJob) -> Result<BatchResult, SimError> {
        self.run_into(job, &discard)
    }

    fn run_into(
        &self,
        job: &SimulationJob,
        sink: &dyn MemberSink,
    ) -> Result<BatchResult, SimError> {
        let host = self.host.clone();
        match self.selection(job) {
            EngineKind::Cpu => {
                CpuEngine::new(CpuSolverKind::Lsoda).with_host(host).run_into(job, sink)
            }
            EngineKind::Coarse => CoarseEngine::new().with_host(host).run_into(job, sink),
            EngineKind::Fine => FineEngine::new().with_host(host).run_into(job, sink),
            EngineKind::FineCoarse => FineCoarseEngine::new().with_host(host).run_into(job, sink),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraspace_rbm::sbgen::SbGen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn selection_follows_the_map() {
        let mut rng = StdRng::seed_from_u64(1);
        let small = SbGen::new(8, 8).generate(&mut rng);
        let engine = AutoEngine::new();

        let single =
            SimulationJob::builder(&small).time_points(vec![1.0]).replicate(1).build().unwrap();
        assert_eq!(engine.selection(&single), EngineKind::Cpu);

        let mid =
            SimulationJob::builder(&small).time_points(vec![1.0]).replicate(64).build().unwrap();
        assert_eq!(engine.selection(&mid), EngineKind::Coarse);

        let big =
            SimulationJob::builder(&small).time_points(vec![1.0]).replicate(512).build().unwrap();
        assert_eq!(engine.selection(&big), EngineKind::FineCoarse);
    }

    #[test]
    fn dispatch_produces_correct_trajectories() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = SbGen::new(6, 8).generate(&mut rng);
        let job =
            SimulationJob::builder(&model).time_points(vec![0.5]).replicate(8).build().unwrap();
        let auto = AutoEngine::new().run(&job).unwrap();
        let reference = FineCoarseEngine::new().run(&job).unwrap();
        assert_eq!(auto.success_count(), 8);
        let a = auto.outcomes[0].solution.as_ref().unwrap();
        let b = reference.outcomes[0].solution.as_ref().unwrap();
        for (x, y) in a.state_at(0).iter().zip(b.state_at(0)) {
            assert!((x - y).abs() < 1e-5);
        }
    }
}
