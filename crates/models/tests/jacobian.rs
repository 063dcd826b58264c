//! Analytic-Jacobian validation on the bundled evaluation models.
//!
//! Every solver that exploits `CompiledOdes`'s analytic Jacobian (RADAU5's
//! Newton iterations, the BDF cores, the lane path's diagonal triage)
//! silently produces wrong step sizes if a single partial derivative is
//! miscompiled. These tests check the full analytic Jacobian of each
//! bundled network against `finite_difference_jacobian_into` at a generic
//! (strictly positive, non-equilibrium) state, and the lane path's
//! `jacobian_diag_batch` against the full Jacobian's diagonal.

use paraspace_linalg::{finite_difference_jacobian_into, Matrix};
use paraspace_models::{autophagy, classic, metabolic};
use paraspace_rbm::ReactionBasedModel;

/// A generic evaluation state: the model's initial state nudged off any
/// zeros/equilibria so no partial derivative vanishes by coincidence.
fn generic_state(m: &ReactionBasedModel) -> Vec<f64> {
    m.initial_state().iter().enumerate().map(|(i, &x)| x + 0.05 + 0.01 * (i % 7) as f64).collect()
}

/// Checks the analytic Jacobian against forward differences entry-wise,
/// with a tolerance scaled to the entry magnitude (forward FD carries a
/// curvature error ~`sqrt(eps)·|f''|`, which grows with the rate
/// constants).
fn assert_jacobian_matches_fd(m: &ReactionBasedModel, label: &str) {
    let odes = m.compile().unwrap();
    let n = odes.n_species();
    let x = generic_state(m);
    let k = m.rate_constants();

    let mut analytic = Matrix::zeros(n, n);
    odes.jacobian_with(&x, &k, &mut analytic);

    let mut fd = Matrix::zeros(n, n);
    finite_difference_jacobian_into(|t, y, d| odes.rhs(t, y, d), 0.0, &x, &mut fd);

    let scale = (0..n)
        .flat_map(|i| (0..n).map(move |j| (i, j)))
        .map(|(i, j)| analytic[(i, j)].abs())
        .fold(1.0f64, f64::max);
    for i in 0..n {
        for j in 0..n {
            let a = analytic[(i, j)];
            let f = fd[(i, j)];
            let tol = 5e-4 * scale.max(a.abs());
            assert!(
                (a - f).abs() <= tol,
                "{label}: J[({i},{j})] analytic {a} vs finite-difference {f} (tol {tol})"
            );
        }
    }

    // The lane path's stiffness triage reads only the diagonal, through the
    // batched kernel — it must agree with the full analytic Jacobian.
    let mut diag = vec![0.0; n];
    let mut slots = vec![0.0; odes.n_reactant_slots()];
    odes.jacobian_diag_batch(1, &x, &k, &mut slots, &mut diag);
    for i in 0..n {
        assert!(
            (diag[i] - analytic[(i, i)]).abs() <= 1e-9 * analytic[(i, i)].abs().max(1.0),
            "{label}: diagonal[{i}] {} vs full Jacobian {}",
            diag[i],
            analytic[(i, i)]
        );
    }
}

#[test]
fn classic_models_jacobians_match_finite_differences() {
    assert_jacobian_matches_fd(&classic::robertson(), "robertson");
    assert_jacobian_matches_fd(&classic::brusselator(1.0, 3.0), "brusselator");
    assert_jacobian_matches_fd(&classic::lotka_volterra(1.1, 0.4, 0.4), "lotka-volterra");
    assert_jacobian_matches_fd(&classic::decay_chain(6), "decay-chain");
    assert_jacobian_matches_fd(&classic::enzyme_mechanism(1.0, 0.5, 0.3), "enzyme");
    assert_jacobian_matches_fd(&classic::oregonator(), "oregonator");
}

#[test]
fn autophagy_model_jacobian_matches_finite_differences() {
    // Reduced-scale variant: same reaction kinds as the full 173×6581
    // network, small enough for an O(n²) entry-wise check.
    assert_jacobian_matches_fd(&autophagy::scaled_model(2.0, 1.0, 0.05), "autophagy(scale=0.05)");
}

#[test]
fn metabolic_model_jacobian_matches_finite_differences() {
    assert_jacobian_matches_fd(&metabolic::model(), "metabolic");
}
