//! Work estimation: converting solver statistics into flop and byte counts
//! the hardware models (virtual GPU, calibrated CPU) can price.

use paraspace_linalg::LuFactor;
use paraspace_rbm::CompiledOdes;
use paraspace_solvers::StepStats;

/// Average flop multiplier of a complex LU relative to a real one; the
/// RADAU5 counters lump one real + one complex decomposition as 2, so the
/// average factor per counted decomposition is (1 + 4)/2.
pub(crate) const COMPLEX_LU_AVG_FACTOR: f64 = 2.5;
/// Step-control overhead per attempted step, in flops per state component
/// (error norms, scale vectors, controller arithmetic).
const STEP_CONTROL_FLOPS_PER_DIM: u64 = 12;
/// Bytes per floating-point value.
const F64: u64 = 8;

/// Estimated computational work of one simulation.
///
/// # Example
///
/// ```
/// use paraspace_core::WorkEstimate;
///
/// let mut w = WorkEstimate { flops: 1_000, state_bytes: 64, ..Default::default() };
/// w.absorb(&WorkEstimate { flops: 500, output_bytes: 32, ..Default::default() });
/// assert_eq!((w.flops, w.state_bytes, w.output_bytes), (1_500, 64, 32));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkEstimate {
    /// Floating-point operations.
    pub flops: u64,
    /// Bytes of state traffic (read/write of `y`, stages, Nordsieck/cont
    /// arrays).
    pub state_bytes: u64,
    /// Bytes of model-structure traffic (stoichiometry encoding, kinetic
    /// constants) — the traffic that constant memory absorbs when it fits.
    pub structure_bytes: u64,
    /// Bytes written as sampled output.
    pub output_bytes: u64,
}

impl WorkEstimate {
    /// Component-wise sum.
    pub fn absorb(&mut self, other: &WorkEstimate) {
        self.flops += other.flops;
        self.state_bytes += other.state_bytes;
        self.structure_bytes += other.structure_bytes;
        self.output_bytes += other.output_bytes;
    }

    /// Estimates the work of one simulation from its solver counters.
    ///
    /// `n_samples` prices the dense-output evaluations and result writes.
    pub fn from_stats(odes: &CompiledOdes, stats: &StepStats, n_samples: usize) -> WorkEstimate {
        let n = odes.n_species() as u64;
        let rhs = stats.rhs_evals as u64 * odes.rhs_flops();
        let jac = stats.jacobian_evals as u64 * odes.jacobian_flops();
        let lu = (stats.lu_decompositions as f64
            * COMPLEX_LU_AVG_FACTOR
            * LuFactor::flops(odes.n_species()) as f64) as u64;
        let solves = (stats.linear_solves as f64
            * COMPLEX_LU_AVG_FACTOR
            * LuFactor::solve_flops(odes.n_species()) as f64) as u64;
        let control = stats.steps as u64 * STEP_CONTROL_FLOPS_PER_DIM * n;
        let interp = n_samples as u64 * 8 * n; // dense-output polynomial

        // State traffic: each RHS evaluation reads y and writes dy/dt plus
        // the reaction-flux intermediate.
        let m = odes.n_reactions() as u64;
        let state_bytes = stats.rhs_evals as u64 * (2 * n + m) * F64
            + stats.steps as u64 * 6 * n * F64
            + stats.lu_decompositions as u64 * 2 * n * n * F64
            + stats.linear_solves as u64 * n * n * F64;
        // Structure traffic: per RHS evaluation the flat encoding is
        // streamed once (reaction reactant lists + per-species terms +
        // constants).
        let structure_per_eval = (m + 2 * odes.n_terms() as u64 + m) * F64;
        let structure_bytes = stats.rhs_evals as u64 * structure_per_eval;
        let output_bytes = n_samples as u64 * (n + 1) * F64;

        WorkEstimate {
            flops: rhs + jac + lu + solves + control + interp,
            state_bytes,
            structure_bytes,
            output_bytes,
        }
    }
}

/// A calibrated sequential-CPU cost model, so CPU baselines are priced on
/// the *published* workstation (Intel i7-2600, 3.4 GHz) instead of on
/// whatever machine runs this reproduction.
///
/// The model is a two-term roofline: `time = flops/throughput +
/// bytes/bandwidth`, deliberately simple and documented.
///
/// # Example
///
/// ```
/// use paraspace_core::{CpuCostModel, WorkEstimate};
///
/// let cpu = CpuCostModel::default();
/// let w = WorkEstimate { flops: 4_000_000, state_bytes: 0, structure_bytes: 0, output_bytes: 0 };
/// let t = cpu.time_ns(&w);
/// assert!(t > 0.0 && t < 4_000_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuCostModel {
    /// Sustained scalar flops per nanosecond.
    pub flops_per_ns: f64,
    /// Sustained DRAM bandwidth in bytes per nanosecond (GB/s) — charged
    /// for output writes.
    pub bytes_per_ns: f64,
    /// Sustained cache bandwidth (L2/L3) in bytes per nanosecond — charged
    /// for the state and model-structure working sets, which fit the CPU's
    /// last-level cache for all evaluated model sizes (the same caching
    /// courtesy the virtual GPU's `CachedGlobal` space extends to the
    /// device engines).
    pub cached_bytes_per_ns: f64,
    /// Fixed per-simulation overhead (solver setup, allocation) in ns.
    pub per_sim_overhead_ns: f64,
}

impl CpuCostModel {
    /// Prices a work estimate in nanoseconds (additive roofline).
    pub fn time_ns(&self, work: &WorkEstimate) -> f64 {
        work.flops as f64 / self.flops_per_ns
            + (work.state_bytes + work.structure_bytes) as f64 / self.cached_bytes_per_ns
            + work.output_bytes as f64 / self.bytes_per_ns
    }
}

impl Default for CpuCostModel {
    /// The published workstation's CPU: Intel Core i7-2600 (Sandy Bridge,
    /// 3.4 GHz). Sustained scalar FP throughput ≈ 2 ops/cycle.
    fn default() -> Self {
        CpuCostModel {
            flops_per_ns: 6.8,
            bytes_per_ns: 18.0,
            cached_bytes_per_ns: 60.0,
            per_sim_overhead_ns: 40_000.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraspace_rbm::{Reaction, ReactionBasedModel};

    fn small_odes() -> CompiledOdes {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let b = m.add_species("B", 0.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1.0)).unwrap();
        m.compile().unwrap()
    }

    #[test]
    fn work_scales_with_rhs_evaluations() {
        let odes = small_odes();
        let cheap = StepStats { rhs_evals: 10, steps: 2, ..Default::default() };
        let pricey = StepStats { rhs_evals: 1000, steps: 200, ..Default::default() };
        let w1 = WorkEstimate::from_stats(&odes, &cheap, 5);
        let w2 = WorkEstimate::from_stats(&odes, &pricey, 5);
        assert!(w2.flops > 50 * w1.flops / 2);
        assert!(w2.state_bytes > w1.state_bytes);
    }

    #[test]
    fn implicit_machinery_dominates_when_present() {
        let odes = small_odes();
        let explicit = StepStats { rhs_evals: 100, steps: 20, ..Default::default() };
        let implicit = StepStats {
            rhs_evals: 100,
            steps: 20,
            jacobian_evals: 10,
            lu_decompositions: 40,
            linear_solves: 60,
            ..Default::default()
        };
        let we = WorkEstimate::from_stats(&odes, &explicit, 5);
        let wi = WorkEstimate::from_stats(&odes, &implicit, 5);
        assert!(wi.flops > we.flops);
    }

    #[test]
    fn absorb_sums_components() {
        let mut a = WorkEstimate { flops: 1, state_bytes: 2, structure_bytes: 3, output_bytes: 4 };
        a.absorb(&WorkEstimate {
            flops: 10,
            state_bytes: 20,
            structure_bytes: 30,
            output_bytes: 40,
        });
        assert_eq!(
            a,
            WorkEstimate { flops: 11, state_bytes: 22, structure_bytes: 33, output_bytes: 44 }
        );
    }

    #[test]
    fn cpu_model_prices_flops_and_bytes() {
        let cpu = CpuCostModel::default();
        let flops_only = WorkEstimate { flops: 6_800, ..Default::default() };
        assert!((cpu.time_ns(&flops_only) - 1000.0).abs() < 1e-9);
        let cached = WorkEstimate { state_bytes: 60_000, ..Default::default() };
        assert!((cpu.time_ns(&cached) - 1000.0).abs() < 1e-9);
        let output = WorkEstimate { output_bytes: 18_000, ..Default::default() };
        assert!((cpu.time_ns(&output) - 1000.0).abs() < 1e-9);
    }
}
