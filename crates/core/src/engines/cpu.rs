//! The sequential CPU baselines (LSODA / VODE).

use crate::engines::host::{Engine, Host, Settled};
use crate::engines::{discard, BatchResult, MemberSink, Simulator, IO_BYTES_PER_NS};
use crate::recovery::{solve_members_recovered, Ladder};
use crate::{CpuCostModel, SimError, SimulationJob, WorkEstimate};
use paraspace_solvers::{Lsoda, OdeSolver, Vode};
use std::time::Instant;

/// Which multistep CPU solver the baseline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuSolverKind {
    /// Dynamic Adams↔BDF switching (the "LSODA" column of the tables).
    Lsoda,
    /// Up-front method selection (the "VODE" column).
    Vode,
}

/// The sequential-CPU cost model: a solver family priced on the published
/// workstation's roofline ([`CpuCostModel::default`]).
#[derive(Debug, Clone)]
pub struct Cpu {
    kind: CpuSolverKind,
}

/// The CPU baseline engine: one simulation after another on a single core,
/// priced on the published workstation's CPU model.
///
/// # Example
///
/// ```
/// use paraspace_core::{CpuEngine, CpuSolverKind, SimulationJob, Simulator};
/// use paraspace_rbm::{Reaction, ReactionBasedModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = ReactionBasedModel::new();
/// let a = m.add_species("A", 1.0);
/// m.add_reaction(Reaction::mass_action(&[(a, 1)], &[], 1.0))?;
/// let job = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(2).build()?;
/// let r = CpuEngine::new(CpuSolverKind::Lsoda).run(&job)?;
/// assert_eq!(r.success_count(), 2);
/// assert!(r.timing.simulated_integration_ns > 0.0);
/// # Ok(())
/// # }
/// ```
pub type CpuEngine = Engine<Cpu>;

impl Engine<Cpu> {
    /// An engine with the published workstation's cost model.
    pub fn new(kind: CpuSolverKind) -> Self {
        Engine { host: Host::default(), model: Cpu { kind } }
    }

    /// The solver family in use.
    pub fn kind(&self) -> CpuSolverKind {
        self.model.kind
    }
}

impl Simulator for Engine<Cpu> {
    fn name(&self) -> &'static str {
        match self.model.kind {
            CpuSolverKind::Lsoda => "lsoda-cpu",
            CpuSolverKind::Vode => "vode-cpu",
        }
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
        let (lsoda, vode) = (Lsoda::new(), Vode::new());
        let solver: &dyn OdeSolver = match self.model.kind {
            CpuSolverKind::Lsoda => &lsoda,
            CpuSolverKind::Vode => &vode,
        };

        let mut settled = Settled::default();
        let mut work = WorkEstimate::default();
        // Solves run on the worker pool; the f64 work accumulation folds in
        // member order on this thread, keeping totals bitwise stable. Each
        // member runs under panic containment and the recovery ladder (the
        // CPU baseline has no implicit fallback to reroute to, so only the
        // relaxation rungs apply).
        let members = (0..job.batch_size()).map(|i| (i, None)).collect();
        let ladder = Ladder { retry: (solver, solver.name()), fallback: None };
        for rs in solve_members_recovered(&self.host, job, members, |_| ladder)? {
            work.absorb(&WorkEstimate::from_stats(job.odes(), &rs.stats, job.time_points().len()));
            settled.settle(rs.solution, false, rs.solver, rs.log);
        }

        let cost_model = CpuCostModel::default();
        let integration_ns =
            cost_model.time_ns(&work) + job.batch_size() as f64 * cost_model.per_sim_overhead_ns;
        Ok(self.host.finish(self.name(), start, settled, None, sink, |out_bytes| {
            let io_ns = out_bytes as f64 / IO_BYTES_PER_NS;
            [integration_ns + io_ns, integration_ns, io_ns]
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraspace_rbm::{perturbed_batch, Reaction, ReactionBasedModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> ReactionBasedModel {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let b = m.add_species("B", 0.1);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 0.8)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 0.3)).unwrap();
        m
    }

    #[test]
    fn batch_runs_and_times_scale_with_size() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(5);
        let small = SimulationJob::builder(&m)
            .time_points(vec![1.0, 2.0])
            .parameterizations(perturbed_batch(&m, 2, &mut rng))
            .build()
            .unwrap();
        let large = SimulationJob::builder(&m)
            .time_points(vec![1.0, 2.0])
            .parameterizations(perturbed_batch(&m, 32, &mut rng))
            .build()
            .unwrap();
        let engine = CpuEngine::new(CpuSolverKind::Lsoda);
        let rs = engine.run(&small).unwrap();
        let rl = engine.run(&large).unwrap();
        assert_eq!(rs.success_count(), 2);
        assert_eq!(rl.success_count(), 32);
        // Sequential CPU: simulated time grows roughly linearly.
        assert!(
            rl.timing.simulated_total_ns > 8.0 * rs.timing.simulated_total_ns,
            "{} vs {}",
            rl.timing.simulated_total_ns,
            rs.timing.simulated_total_ns
        );
    }

    #[test]
    fn vode_and_lsoda_agree_on_trajectories() {
        let m = model();
        let job =
            SimulationJob::builder(&m).time_points(vec![0.5, 1.5]).replicate(1).build().unwrap();
        let a = CpuEngine::new(CpuSolverKind::Lsoda).run(&job).unwrap();
        let b = CpuEngine::new(CpuSolverKind::Vode).run(&job).unwrap();
        let sa = a.outcomes[0].solution.as_ref().unwrap();
        let sb = b.outcomes[0].solution.as_ref().unwrap();
        for (x, y) in sa.state_at(1).iter().zip(sb.state_at(1)) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn io_time_is_separated_from_integration() {
        let m = model();
        let times: Vec<f64> = (1..=100).map(|i| i as f64 * 0.1).collect();
        let job = SimulationJob::builder(&m).time_points(times).replicate(4).build().unwrap();
        let r = CpuEngine::new(CpuSolverKind::Lsoda).run(&job).unwrap();
        assert!(r.timing.simulated_io_ns > 0.0);
        assert!(
            (r.timing.simulated_total_ns
                - r.timing.simulated_integration_ns
                - r.timing.simulated_io_ns)
                .abs()
                < 1e-6
        );
    }

    #[test]
    fn divergent_member_does_not_sink_batch() {
        // Member 2 has an explosive parameterization (finite-time blowup is
        // impossible in mass action with ≤2 products, so use a huge rate
        // that exhausts the step budget instead).
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let b = m.add_species("B", 1.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(a, 2)], 1.0)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(b, 1)], &[], 1.0)).unwrap();
        let job = SimulationJob::builder(&m)
            .time_points(vec![50.0])
            .parameterization(
                paraspace_rbm::Parameterization::new().with_rate_constants(vec![30.0, 1.0]),
            )
            .parameterization(
                paraspace_rbm::Parameterization::new().with_rate_constants(vec![0.1, 1.0]),
            )
            .build()
            .unwrap();
        let r = CpuEngine::new(CpuSolverKind::Lsoda).run(&job).unwrap();
        // The exploding member overflows; the tame one succeeds.
        assert!(r.outcomes[0].solution.is_err(), "exponential blow-up should fail");
        assert!(r.outcomes[1].solution.is_ok());
    }

    #[test]
    fn aggregate_stats_sum_members() {
        let m = model();
        let job = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(3).build().unwrap();
        let r = CpuEngine::new(CpuSolverKind::Lsoda).run(&job).unwrap();
        let agg = r.aggregate_stats();
        let per: usize = r.solutions().map(|s| s.stats.rhs_evals).sum();
        assert_eq!(agg.rhs_evals, per);
        assert!(agg.steps > 0);
    }
}
