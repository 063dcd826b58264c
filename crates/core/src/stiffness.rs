//! Phase P2: batch stiffness triage.
//!
//! Every simulation is classified by the dominant eigenvalue of its
//! Jacobian at the initial state: magnitudes below the published threshold
//! of **500** go to DOPRI5, the rest to RADAU5. P3 failures (DOPRI5's own
//! stiffness detector firing mid-run, or step-budget exhaustion) are
//! re-routed to RADAU5 afterwards, so the triage only needs to be cheap,
//! not perfect.

use crate::SimulationJob;
use paraspace_exec::Executor;
use paraspace_linalg::{dominant_eigenvalue_estimate_on, Matrix};

/// The published spectral-radius threshold separating DOPRI5 from RADAU5.
pub const STIFFNESS_THRESHOLD: f64 = 500.0;

/// Result of classifying one simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StiffnessClass {
    /// Estimated dominant eigenvalue magnitude of the Jacobian at `t = 0`.
    pub dominant_eigenvalue: f64,
    /// `true` routes the simulation to the implicit (RADAU5) path.
    pub stiff: bool,
}

/// Classifies every batch member (phase P2).
///
/// Returns one [`StiffnessClass`] per simulation, in batch order.
///
/// # Example
///
/// ```
/// use paraspace_core::{classify_batch, SimulationJob};
/// use paraspace_rbm::{Reaction, ReactionBasedModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = ReactionBasedModel::new();
/// let a = m.add_species("A", 1.0);
/// m.add_reaction(Reaction::mass_action(&[(a, 1)], &[], 1e4))?; // fast decay
/// let job = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(1).build()?;
/// let classes = classify_batch(&job);
/// assert!(classes[0].stiff);
/// # Ok(())
/// # }
/// ```
pub fn classify_batch(job: &SimulationJob) -> Vec<StiffnessClass> {
    classify_batch_with_threshold(job, STIFFNESS_THRESHOLD, &Executor::sequential())
}

/// [`classify_batch`] with an explicit threshold (the stiffness-threshold
/// ablation sweeps this knob) on `executor`'s workers, each with a
/// Jacobian matrix of its own. A member's class depends on that member
/// alone, so the result is the same at any thread count. The power
/// iteration walks the model's structural Jacobian pattern, which yields
/// the dense iteration's bits (see
/// [`paraspace_linalg::power_iteration_on`]).
pub fn classify_batch_with_threshold(
    job: &SimulationJob,
    threshold: f64,
    executor: &Executor,
) -> Vec<StiffnessClass> {
    let n = job.odes().n_species();
    let pattern = job.odes().jacobian_sparsity();
    executor.map_with(
        job.batch_size(),
        || Matrix::zeros(n, n),
        |jac, i| {
            let (x0, k) = job.member(i);
            job.odes().jacobian_with(x0, k, jac);
            let lambda = dominant_eigenvalue_estimate_on(jac, pattern);
            StiffnessClass { dominant_eigenvalue: lambda, stiff: lambda >= threshold }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraspace_rbm::{Parameterization, Reaction, ReactionBasedModel};

    fn decay_model(k: f64) -> ReactionBasedModel {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[], k)).unwrap();
        m
    }

    #[test]
    fn gentle_model_is_nonstiff() {
        let m = decay_model(0.5);
        let job = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(3).build().unwrap();
        for c in classify_batch(&job) {
            assert!(!c.stiff);
            assert!(c.dominant_eigenvalue < STIFFNESS_THRESHOLD);
        }
    }

    #[test]
    fn classification_is_per_member() {
        // Same network, two parameterizations straddling the threshold.
        let m = decay_model(1.0);
        let job = SimulationJob::builder(&m)
            .time_points(vec![1.0])
            .parameterization(Parameterization::new().with_rate_constants(vec![1.0]))
            .parameterization(Parameterization::new().with_rate_constants(vec![1e5]))
            .build()
            .unwrap();
        let classes = classify_batch(&job);
        assert!(!classes[0].stiff);
        assert!(classes[1].stiff);
        assert!(classes[1].dominant_eigenvalue > classes[0].dominant_eigenvalue);
    }

    #[test]
    fn classes_come_back_in_member_order_at_any_thread_count() {
        let m = decay_model(1.0);
        let mut builder = SimulationJob::builder(&m).time_points(vec![1.0]);
        for i in 0..40 {
            let k = vec![10f64.powi(i % 7 - 1)];
            builder = builder.parameterization(Parameterization::new().with_rate_constants(k));
        }
        let job = builder.build().unwrap();
        let sequential = classify_batch(&job);
        assert!(sequential.iter().any(|c| c.stiff) && sequential.iter().any(|c| !c.stiff));
        for threads in [2, 5] {
            let exec = Executor::new(threads);
            assert_eq!(classify_batch_with_threshold(&job, STIFFNESS_THRESHOLD, &exec), sequential);
        }
    }

    #[test]
    fn pattern_walk_classes_are_the_dense_routine_classes_on_a_wide_sparse_network() {
        // The benchmark's sweep network: 128 species, 192 reactions, a
        // Jacobian under 4 % dense — the case the pattern walk is for.
        use rand::{rngs::StdRng, SeedableRng};
        let m = paraspace_rbm::sbgen::SbGen::new(128, 192).generate(&mut StdRng::seed_from_u64(7));
        let members = paraspace_rbm::perturbed_batch(&m, 24, &mut StdRng::seed_from_u64(1));
        let job = SimulationJob::builder(&m)
            .time_points(vec![1.0])
            .parameterizations(members)
            .build()
            .unwrap();
        let n = job.odes().n_species();
        assert!(job.odes().jacobian_sparsity().nnz() * 20 < n * n);
        let mut jac = Matrix::zeros(n, n);
        for (i, class) in classify_batch(&job).into_iter().enumerate() {
            let (x0, k) = job.member(i);
            job.odes().jacobian_with(x0, k, &mut jac);
            let dense = paraspace_linalg::dominant_eigenvalue_estimate(&jac);
            assert_eq!(class.dominant_eigenvalue.to_bits(), dense.to_bits(), "member {i}");
            assert_eq!(class.stiff, dense >= STIFFNESS_THRESHOLD, "member {i}");
        }
    }

    #[test]
    fn threshold_matches_publication() {
        assert_eq!(STIFFNESS_THRESHOLD, 500.0);
    }
}
