//! Time-budget throughput accounting.
//!
//! The published PSA-2D comparison fixes a wall-clock budget (24 hours) and
//! reports how many simulations each engine completes: 36864 for the
//! fine+coarse engine vs 2090 (LSODA) and 1363 (VODE). This module
//! reproduces that accounting on the *simulated* clocks: it runs a probe
//! batch, measures the per-batch simulated cost, and extrapolates the
//! budget.

use paraspace_core::{BatchResult, SimError, SimulationJob, Simulator};
use paraspace_rbm::{Parameterization, ReactionBasedModel};
use paraspace_solvers::SolverOptions;

/// The result of a budgeted-throughput measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputReport {
    /// Engine name.
    pub engine: &'static str,
    /// Simulations completed inside the budget (extrapolated from the
    /// probe batch; a probe member that failed does not count).
    pub simulations_in_budget: u64,
    /// Simulated time per batch (ns).
    pub batch_time_ns: f64,
    /// Probe batch size.
    pub batch_size: usize,
}

/// Measures how many simulations fit in `budget_ns` of simulated time,
/// probing with one batch of `batch` members drawn by `parameterize`.
///
/// # Errors
///
/// Propagates job-construction and engine errors.
///
/// # Example
///
/// ```
/// use paraspace_analysis::throughput::simulations_within_budget;
/// use paraspace_core::{CpuEngine, CpuSolverKind};
/// use paraspace_rbm::{Parameterization, Reaction, ReactionBasedModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = ReactionBasedModel::new();
/// let a = m.add_species("A", 1.0);
/// m.add_reaction(Reaction::mass_action(&[(a, 1)], &[], 1.0))?;
/// let report = simulations_within_budget(
///     &m,
///     |_| Parameterization::new(),
///     vec![1.0],
///     &CpuEngine::new(CpuSolverKind::Lsoda),
///     8,
///     1e9, // one simulated second
/// )?;
/// assert!(report.simulations_in_budget > 0);
/// # Ok(())
/// # }
/// ```
pub fn simulations_within_budget<P>(
    model: &ReactionBasedModel,
    mut parameterize: P,
    time_points: Vec<f64>,
    engine: &dyn Simulator,
    batch: usize,
    budget_ns: f64,
) -> Result<ThroughputReport, SimError>
where
    P: FnMut(usize) -> Parameterization,
{
    let members: Vec<Parameterization> = (0..batch).map(&mut parameterize).collect();
    let job = SimulationJob::builder(model)
        .time_points(time_points)
        .parameterizations(members)
        .options(SolverOptions::default())
        .build()?;
    let result: BatchResult = engine.run(&job)?;
    let batch_time_ns = result.timing.simulated_total_ns.max(1e-9);
    let batches = (budget_ns / batch_time_ns).floor() as u64;
    Ok(ThroughputReport {
        engine: result.engine,
        simulations_in_budget: batches * result.success_count() as u64,
        batch_time_ns,
        batch_size: batch,
    })
}

/// Nanoseconds in a wall-clock duration of `hours`.
pub fn hours_ns(hours: f64) -> f64 {
    hours * 3600.0 * 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraspace_core::{CpuEngine, CpuSolverKind, FineCoarseEngine};
    use paraspace_rbm::Reaction;

    fn model() -> ReactionBasedModel {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let b = m.add_species("B", 0.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1.0)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 0.5)).unwrap();
        m
    }

    #[test]
    fn larger_budget_fits_more_simulations() {
        let m = model();
        let engine = CpuEngine::new(CpuSolverKind::Lsoda);
        let small =
            simulations_within_budget(&m, |_| Parameterization::new(), vec![1.0], &engine, 4, 1e8)
                .unwrap();
        let large =
            simulations_within_budget(&m, |_| Parameterization::new(), vec![1.0], &engine, 4, 1e10)
                .unwrap();
        assert!(large.simulations_in_budget >= 50 * small.simulations_in_budget.max(1));
    }

    #[test]
    fn gpu_engine_fits_more_than_cpu_in_same_budget() {
        let m = model();
        let budget = hours_ns(0.001);
        let cpu = simulations_within_budget(
            &m,
            |_| Parameterization::new(),
            vec![1.0],
            &CpuEngine::new(CpuSolverKind::Lsoda),
            64,
            budget,
        )
        .unwrap();
        let gpu = simulations_within_budget(
            &m,
            |_| Parameterization::new(),
            vec![1.0],
            &FineCoarseEngine::new(),
            64,
            budget,
        )
        .unwrap();
        assert!(
            gpu.simulations_in_budget > cpu.simulations_in_budget,
            "gpu {} must beat cpu {}",
            gpu.simulations_in_budget,
            cpu.simulations_in_budget
        );
    }

    #[test]
    fn failed_probe_members_are_not_counted() {
        // Member 0 grows as e^{30 t} and exhausts its step budget; member 1
        // integrates.
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let b = m.add_species("B", 1.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(a, 2)], 1.0)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(b, 1)], &[], 1.0)).unwrap();
        let rates = |i| Parameterization::new().with_rate_constants(vec![[30.0, 0.1][i], 1.0]);
        let engine = CpuEngine::new(CpuSolverKind::Lsoda);
        let r = simulations_within_budget(&m, rates, vec![50.0], &engine, 2, 1e12).unwrap();
        let batches = (1e12 / r.batch_time_ns).floor() as u64;
        assert!(batches > 0);
        assert_eq!(r.simulations_in_budget, batches, "one of the two probe members completes");
    }

    #[test]
    fn hours_conversion() {
        assert_eq!(hours_ns(24.0), 24.0 * 3.6e12);
    }
}
