//! Lockstep-vs-scalar accuracy contract on the bundled models.
//!
//! The lane-batched DOPRI5 path promises that every member's trajectory
//! agrees with the scalar solver within the solver tolerance — the
//! implementation actually delivers bitwise equality, but the *contract*
//! checked here is the numerical one (relative error within 10× the
//! configured tolerance), so a future relaxation of the lockstep kernel
//! (e.g. fused lane arithmetic) has a well-defined bar to clear.
//!
//! Models that mix kinetics the batched flux pass does not cover (Goodwin's
//! Hill repression) are asserted to *report* themselves unsupported — the
//! engine-level fallback test lives in `paraspace-core`.

use paraspace_core::{RbmBatchSystem, RbmOdeSystem};
use paraspace_models::{autophagy, classic, metabolic};
use paraspace_rbm::ReactionBasedModel;
use paraspace_solvers::{
    Dopri5, Dopri5Batch, OdeSolver, SolverError, SolverOptions, SolverScratch,
};
use proptest::prelude::*;

/// Integrates `members` parameterizations of `m` both ways — lockstep at
/// lane width `lanes` and one-at-a-time scalar DOPRI5 — and asserts the
/// accuracy contract per member and sample.
fn assert_lockstep_matches_scalar(
    m: &ReactionBasedModel,
    k_sets: &[Vec<f64>],
    times: &[f64],
    lanes: usize,
    label: &str,
) {
    let odes = m.compile().unwrap();
    assert!(odes.supports_lane_batch(), "{label}: expected a mass-action network");
    let x0 = m.initial_state();
    let opts = SolverOptions::default();

    let mut sys = RbmBatchSystem::new(&odes, lanes);
    for k in k_sets {
        sys.push_member(&x0, k);
    }
    let mut scratch = SolverScratch::new();
    let (batch_results, report) =
        Dopri5Batch::new().solve_group(&mut sys, 0.0, times, &opts, &mut scratch);
    assert_eq!(batch_results.len(), k_sets.len());
    assert!(report.lane_steps > 0);

    for (i, (res, k)) in batch_results.iter().zip(k_sets).enumerate() {
        let scalar_sys = RbmOdeSystem::new(&odes, k.clone());
        let scalar = Dopri5::new().solve(&scalar_sys, 0.0, &x0, times, &opts);
        match (res, scalar) {
            (Ok(b), Ok(s)) => {
                for (ti, (bs, ss)) in b.states.iter().zip(&s.states).enumerate() {
                    for (j, (&bv, &sv)) in bs.iter().zip(ss).enumerate() {
                        let tol = 10.0 * (opts.rel_tol * bv.abs().max(sv.abs()) + opts.abs_tol);
                        assert!(
                            (bv - sv).abs() <= tol,
                            "{label}: member {i}, sample {ti}, species {j}: \
                             lockstep {bv} vs scalar {sv} (tol {tol})"
                        );
                    }
                }
            }
            (Err(b), Err(s)) => {
                // Same error at the same time after the same work.
                assert_eq!(b, &s, "{label}: member {i} must fail identically");
            }
            (b, s) => panic!(
                "{label}: member {i} diverged in outcome class: lockstep ok={}, scalar ok={}",
                b.is_ok(),
                s.is_ok()
            ),
        }
    }
}

/// `count` mild multiplicative perturbations of the model's baked rate
/// constants (deterministic, spread across members).
fn perturbed_ks(m: &ReactionBasedModel, count: usize) -> Vec<Vec<f64>> {
    let base = m.rate_constants();
    (0..count)
        .map(|i| {
            base.iter().enumerate().map(|(r, &k)| k * (0.8 + 0.1 * ((i + r) % 5) as f64)).collect()
        })
        .collect()
}

#[test]
fn lotka_volterra_lockstep_matches_scalar() {
    let m = classic::lotka_volterra(1.1, 0.4, 0.4);
    let times: Vec<f64> = (1..=8).map(|i| i as f64 * 0.5).collect();
    assert_lockstep_matches_scalar(&m, &perturbed_ks(&m, 10), &times, 4, "lotka-volterra");
}

#[test]
fn brusselator_lockstep_matches_scalar() {
    let m = classic::brusselator(1.0, 3.0);
    let times: Vec<f64> = (1..=6).map(|i| i as f64).collect();
    assert_lockstep_matches_scalar(&m, &perturbed_ks(&m, 7), &times, 4, "brusselator");
}

#[test]
fn enzyme_mechanism_lockstep_matches_scalar() {
    let m = classic::enzyme_mechanism(1.0, 0.5, 0.3);
    assert_lockstep_matches_scalar(&m, &perturbed_ks(&m, 6), &[1.0, 5.0, 10.0], 3, "enzyme");
}

#[test]
fn decay_chain_lockstep_matches_scalar() {
    let m = classic::decay_chain(8);
    assert_lockstep_matches_scalar(&m, &perturbed_ks(&m, 9), &[0.5, 1.0, 2.0], 8, "decay-chain");
}

#[test]
fn autophagy_lockstep_matches_scalar() {
    // Reduced-scale analogue (same kinetics mix as the 173×6581 network);
    // two parameter points straddle the oscillation onset.
    let m = autophagy::scaled_model(2.0, 1.0, 0.05);
    let times: Vec<f64> = (1..=5).map(|i| i as f64).collect();
    assert_lockstep_matches_scalar(&m, &perturbed_ks(&m, 5), &times, 4, "autophagy");
}

#[test]
fn rerouted_autophagy_member_is_handed_over_early() {
    // A PSA-2D grid point the fine-coarse engine re-routes P3 → P4 (46×1649
    // analogue, the benchmark's sampling window): at default options the
    // explicit attempt must give up with `StiffnessDetected` within its
    // first 200 steps — it used to burn 1000+ before the detector armed —
    // and the lane path must fail at the identical time with identical
    // counters. The gentle grid point beside it stays explicit.
    let stiff = autophagy::scaled_model(1e3, 1e-7, 0.25);
    let gentle = autophagy::scaled_model(1e3, 1e-9, 0.25);
    let odes = stiff.compile().unwrap();
    let times: Vec<f64> = (1..=100).map(|i| 20.0 + i as f64 * 0.3).collect();
    let opts = SolverOptions::default();
    let x0 = stiff.initial_state();
    assert_eq!(x0, gentle.initial_state());

    let (k_stiff, k_gentle) = (stiff.rate_constants(), gentle.rate_constants());
    let sys = RbmOdeSystem::new(&odes, k_stiff.clone());
    let failure = Dopri5::new().solve(&sys, 0.0, &x0, &times, &opts).unwrap_err();
    assert!(matches!(failure.error, SolverError::StiffnessDetected { .. }), "{:?}", failure.error);
    assert!(failure.stats.steps < 200, "{} steps before the hand-over", failure.stats.steps);

    let mut lanes = RbmBatchSystem::new(&odes, 2);
    lanes.push_member(&x0, &k_stiff);
    lanes.push_member(&x0, &k_gentle);
    let (results, _) =
        Dopri5Batch::new().solve_group(&mut lanes, 0.0, &times, &opts, &mut SolverScratch::new());
    assert_eq!(results[0].as_ref().unwrap_err(), &failure);
    assert!(results[1].is_ok());
}

#[test]
fn metabolic_lockstep_matches_scalar() {
    let m = metabolic::model();
    assert_lockstep_matches_scalar(&m, &perturbed_ks(&m, 4), &[0.5, 1.0], 4, "metabolic");
}

#[test]
fn goodwin_reports_itself_unsupported() {
    // Hill repression is outside the batched mass-action flux pass: the
    // compiled network must say so, which is what routes the engine to the
    // scalar fallback instead of a deep assert.
    let odes = classic::goodwin(8.0).compile().unwrap();
    assert!(!odes.supports_lane_batch());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Property: for *any* positive rate constants, lockstep Lotka–Volterra
    /// trajectories satisfy the 10×-tolerance contract against scalar
    /// DOPRI5 at every lane width the engine auto-selects from.
    #[test]
    fn lockstep_accuracy_holds_for_random_parameters(
        muls in proptest::collection::vec(0.25f64..4.0, 6),
        width in 2usize..=8,
    ) {
        let m = classic::lotka_volterra(1.1, 0.4, 0.4);
        let base = m.rate_constants();
        let k_sets: Vec<Vec<f64>> = muls
            .chunks(3)
            .map(|c| base.iter().zip(c).map(|(&k, &f)| k * f).collect())
            .collect();
        assert_lockstep_matches_scalar(&m, &k_sets, &[0.5, 1.0, 2.0], width, "lv-prop");
    }
}
