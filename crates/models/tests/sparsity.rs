//! Structural-sparsity contract of the bundled evaluation models, and the
//! lockstep stiff path on the two LU-heavy shapes.
//!
//! The sensitivity `J·S` passes (`AugmentedSensSystem`, `Radau5Sens`'s
//! corrector) walk only the advertised
//! [`jacobian_sparsity`](paraspace_rbm::CompiledOdes::jacobian_sparsity)
//! entries of each Jacobian row, so the numeric Jacobian must be **exactly
//! zero** off that pattern at any state and parameterization — checked
//! here for every bundled network.
//!
//! The P2 triage walks the same pattern in its power iteration, which must
//! reproduce the dense iteration to the bit on every bundled Jacobian.
//!
//! On top of that, a block-structured compartment network and the
//! 114-species metabolic network (the LU-dominated shape) are integrated
//! through `Radau5Batch` and asserted bitwise identical to scalar RADAU5.

use paraspace_core::{RbmBatchSystem, RbmOdeSystem};
use paraspace_linalg::{
    dominant_eigenvalue_estimate, dominant_eigenvalue_estimate_on, power_iteration,
    power_iteration_on, Matrix,
};
use paraspace_models::{autophagy, classic, metabolic};
use paraspace_rbm::ReactionBasedModel;
use paraspace_solvers::{OdeSolver, OdeSystem, Radau5, Radau5Batch, SolverOptions, SolverScratch};

/// Every bundled network, spanning all three model families and both
/// kinetics mixes (pure mass action and Hill/Michaelis-Menten blends).
fn bundled() -> Vec<(&'static str, ReactionBasedModel)> {
    vec![
        ("robertson", classic::robertson()),
        ("brusselator", classic::brusselator(1.0, 3.0)),
        ("lotka-volterra", classic::lotka_volterra(1.1, 0.4, 0.4)),
        ("decay-chain-8", classic::decay_chain(8)),
        ("enzyme", classic::enzyme_mechanism(1.0, 0.5, 0.3)),
        ("oregonator", classic::oregonator()),
        ("goodwin", classic::goodwin(8.0)),
        ("autophagy-0.05", autophagy::scaled_model(2.0, 1.0, 0.05)),
        ("autophagy-full", autophagy::model(2.0, 1.0)),
        ("metabolic", metabolic::model()),
    ]
}

#[test]
fn jacobian_is_exactly_zero_off_the_advertised_pattern() {
    for (name, m) in bundled() {
        let odes = m.compile().unwrap();
        let n = odes.n_species();
        let pattern = odes.jacobian_sparsity();
        // A generic interior state and perturbed constants: strictly
        // positive, no two species equal, so accidental cancellations
        // cannot mask a stray entry.
        let y: Vec<f64> = (0..n).map(|s| 0.3 + 0.07 * (s as f64 + 1.0)).collect();
        let k: Vec<f64> = m
            .rate_constants()
            .iter()
            .enumerate()
            .map(|(r, &k)| k * (1.0 + 0.01 * r as f64))
            .collect();
        let sys = RbmOdeSystem::new(&odes, k);
        let mut jac = Matrix::zeros(n, n);
        sys.jacobian(0.0, &y, &mut jac);
        for i in 0..n {
            for j in 0..n {
                if !pattern.contains(i, j) {
                    assert_eq!(
                        jac[(i, j)],
                        0.0,
                        "{name}: J[{i}][{j}] is off-pattern but numerically {}",
                        jac[(i, j)]
                    );
                }
            }
        }
    }
}

#[test]
fn triage_power_iteration_on_the_pattern_is_the_dense_one_bitwise() {
    // What P2 computes for a member: the Jacobian at the initial state,
    // then the short power iteration — through the pattern walk and through
    // the dense product it replaced.
    for (name, m) in bundled() {
        let odes = m.compile().unwrap();
        let n = odes.n_species();
        let mut jac = Matrix::zeros(n, n);
        odes.jacobian_with(&m.initial_state(), &m.rate_constants(), &mut jac);
        let dense = power_iteration(&jac, 50, 1e-4).unwrap();
        let walked = power_iteration_on(&jac, odes.jacobian_sparsity(), 50, 1e-4).unwrap();
        assert_eq!(
            walked.eigenvalue_magnitude.to_bits(),
            dense.eigenvalue_magnitude.to_bits(),
            "{name}: {walked:?} vs {dense:?}"
        );
        assert_eq!((walked.iterations, walked.converged), (dense.iterations, dense.converged));
        assert_eq!(
            dominant_eigenvalue_estimate_on(&jac, odes.jacobian_sparsity()).to_bits(),
            dominant_eigenvalue_estimate(&jac).to_bits(),
            "{name}"
        );
    }
}

/// Integrates `members` rate-constant variations of `m` (each constant
/// scaled by 0.9–1.1, differently per member) through `Radau5Batch` at two
/// lane widths and asserts each member's trajectory and step statistics
/// bitwise identical to its scalar RADAU5 solve.
fn assert_lockstep_matches_scalar(m: &ReactionBasedModel, members: usize, times: &[f64]) {
    let odes = &m.compile().unwrap();
    let x0 = &m.initial_state();
    let base = m.rate_constants();
    let members: Vec<Vec<f64>> = (0..members)
        .map(|i| {
            base.iter().enumerate().map(|(r, &k)| k * (0.9 + 0.05 * ((i + r) % 5) as f64)).collect()
        })
        .collect();
    let opts = SolverOptions { max_steps: 200_000, ..SolverOptions::default() };
    let scalar: Vec<_> = members
        .iter()
        .map(|k| {
            let sys = RbmOdeSystem::new(odes, k.clone());
            Radau5::new()
                .solve(&sys, 0.0, x0, times, &opts)
                .unwrap_or_else(|e| panic!("scalar member must integrate: {}", e.error))
        })
        .collect();

    for lanes in [2, 4] {
        let mut sys = RbmBatchSystem::new(odes, lanes);
        for k in &members {
            sys.push_member(x0, k);
        }
        let (batch, _) =
            Radau5Batch::new().solve_group(&mut sys, 0.0, times, &opts, &mut SolverScratch::new());
        for (i, (b, anchor)) in batch.iter().zip(&scalar).enumerate() {
            let b = b.as_ref().expect("lockstep member integrates");
            assert_eq!(b.times, anchor.times, "lanes {lanes} member {i}: times");
            assert_eq!(b.states, anchor.states, "lanes {lanes} member {i}: states");
            assert_eq!(b.stats, anchor.stats, "lanes {lanes} member {i}: stats");
        }
    }
}

/// A compartmentalized stiff network: `compartments` independent four-step
/// decay cascades `S0 → S1 → S2 → S3 → ∅` with rates spanning three
/// decades. No reaction crosses compartments, so the iteration matrices
/// are block-diagonal: most multipliers of a lane's elimination are exact
/// zeros, the case the LU kernels' `m != 0` guard skips.
fn compartment_chains(compartments: usize) -> ReactionBasedModel {
    use paraspace_rbm::Reaction;
    let mut m = ReactionBasedModel::new();
    for c in 0..compartments {
        let ids: Vec<_> = (0..4)
            .map(|s| m.add_species(format!("C{c}S{s}"), if s == 0 { 1.0 } else { 0.2 }))
            .collect();
        for s in 0..4 {
            let k = 10f64.powi(s as i32) * (1.0 + 0.01 * c as f64);
            let products: &[_] = if s + 1 < 4 { &[(ids[s + 1], 1)] } else { &[] };
            m.add_reaction(Reaction::mass_action(&[(ids[s], 1)], products, k)).expect("valid");
        }
    }
    m
}

#[test]
fn compartment_network_lanes_match_scalar_bitwise() {
    // 112 species, 112 reactions.
    assert_lockstep_matches_scalar(&compartment_chains(28), 4, &[0.5, 1.0, 2.0]);
}

#[test]
fn metabolic_lanes_match_scalar_bitwise() {
    assert_lockstep_matches_scalar(&metabolic::model(), 3, &[0.5, 1.0]);
}
