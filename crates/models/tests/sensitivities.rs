//! Forward-sensitivity validation on the bundled models, against finite
//! differences at two levels.
//!
//! **The forcing term.** The sensitivity equations `ṡⱼ = J·sⱼ + ∂f/∂kⱼ` are
//! only as good as their forcing term: a miscompiled `dfdk_with` column
//! silently bends every gradient the parameter-estimation layer computes.
//! Every rate law in the compiler is linear in its own constant, so central
//! differences on the constant recover the exact column up to rounding —
//! each bundled network is held to a relative 1e-6 agreement at a generic
//! (strictly positive, non-equilibrium) state.
//!
//! **The trajectories.** A right forcing term still says nothing about the
//! integrators that carry it: [`Radau5Sens`]'s staggered corrector and
//! [`Dopri5Sens`]'s augmented system are checked against central
//! differences of *plain-solver trajectories* in the rate constant, which
//! share no sensitivity code with them.

use paraspace_core::{RbmOdeSystem, RbmSensSystem};
use paraspace_models::{autophagy, classic, metabolic};
use paraspace_rbm::ReactionBasedModel;
use paraspace_solvers::{Dopri5, Dopri5Sens, OdeSolver, Radau5, Radau5Sens, SolverOptions};

/// A generic evaluation state: the model's initial state nudged off any
/// zeros/equilibria so no partial derivative vanishes by coincidence.
fn generic_state(m: &ReactionBasedModel) -> Vec<f64> {
    m.initial_state().iter().enumerate().map(|(i, &x)| x + 0.05 + 0.01 * (i % 7) as f64).collect()
}

/// Checks every `∂f/∂k_r` column against central differences on `k_r`,
/// entry-wise, with a tolerance scaled to the largest analytic entry.
/// Fluxes are linear in their constants, so central differences carry no
/// truncation error at any step size; a *large* step (a quarter of the
/// constant) minimizes the remaining cancellation rounding — e.g. the
/// Oregonator's RHS entries dwarf some columns by 1e6× — and holds the
/// comparison to a genuine relative 1e-6 band.
fn assert_dfdk_matches_fd(m: &ReactionBasedModel, label: &str) {
    let odes = m.compile().unwrap();
    let n = odes.n_species();
    let r_count = m.reactions().len();
    let x = generic_state(m);
    let k = m.rate_constants();
    let which: Vec<usize> = (0..r_count).collect();

    let mut analytic = vec![0.0; r_count * n];
    odes.dfdk_with(&x, &which, &mut analytic);

    let scale = analytic.iter().fold(1.0f64, |acc, a| acc.max(a.abs()));
    let mut flux = vec![0.0; r_count];
    let mut f_plus = vec![0.0; n];
    let mut f_minus = vec![0.0; n];
    for (j, &r) in which.iter().enumerate() {
        let h = 0.25 * k[r].abs().max(1.0);
        let mut kp = k.clone();
        kp[r] = k[r] + h;
        odes.rhs_with_buffer(&x, &kp, &mut flux, &mut f_plus);
        kp[r] = k[r] - h;
        odes.rhs_with_buffer(&x, &kp, &mut flux, &mut f_minus);
        for s in 0..n {
            let a = analytic[j * n + s];
            let fd = (f_plus[s] - f_minus[s]) / (2.0 * h);
            let tol = 1e-6 * scale.max(a.abs());
            assert!(
                (a - fd).abs() <= tol,
                "{label}: dfdk[r={r}, s={s}] analytic {a} vs central-difference {fd} (tol {tol})"
            );
        }
    }
}

#[test]
fn classic_models_dfdk_matches_finite_differences() {
    assert_dfdk_matches_fd(&classic::robertson(), "robertson");
    assert_dfdk_matches_fd(&classic::brusselator(1.0, 3.0), "brusselator");
    assert_dfdk_matches_fd(&classic::lotka_volterra(1.1, 0.4, 0.4), "lotka-volterra");
    assert_dfdk_matches_fd(&classic::decay_chain(6), "decay-chain");
    assert_dfdk_matches_fd(&classic::enzyme_mechanism(1.0, 0.5, 0.3), "enzyme");
    assert_dfdk_matches_fd(&classic::oregonator(), "oregonator");
}

#[test]
fn autophagy_model_dfdk_matches_finite_differences() {
    assert_dfdk_matches_fd(&autophagy::scaled_model(2.0, 1.0, 0.05), "autophagy(scale=0.05)");
}

#[test]
fn metabolic_model_dfdk_matches_finite_differences() {
    assert_dfdk_matches_fd(&metabolic::model(), "metabolic");
}

/// Relative perturbation of a rate constant for the trajectory differences.
/// Central differences leave a truncation error of order `FD_STEP²`
/// relative to the column and divide the plain solves' own error (rounding
/// through ill-conditioned Newton matrices more than the 1e-10 tolerance)
/// by `FD_STEP`; 1e-3 balances the two on these networks.
const FD_STEP: f64 = 1e-3;

/// Agreement demanded between an integrated sensitivity column and its
/// finite-difference twin: every entry, at every sample, within this
/// fraction of the column's largest entry at that sample. The worst entry
/// of the three cases below reads 5.0e-6 (Lotka–Volterra, pure `FD_STEP²`
/// truncation; metabolic 1.7e-6, autophagy 4.8e-6), so the bound keeps a
/// factor of ~20 for other libm roundings, and still catches the subtlest
/// corrector fault tried against it: evaluating the second stage Jacobian
/// at the first stage's state reads 1.1e-4 (metabolic) and 1.5e-4
/// (autophagy).
const TRAJECTORY_BOUND: f64 = 1e-4;

/// Integrates `∂y(t)/∂k_r` for `r ∈ which` with the stiff or the explicit
/// sensitivity solver and holds every sampled column to
/// [`TRAJECTORY_BOUND`] against central differences of plain `Radau5` /
/// `Dopri5` trajectories at `k_r·(1 ± FD_STEP)`.
fn assert_trajectory_sens_matches_fd(
    m: &ReactionBasedModel,
    which: &[usize],
    times: &[f64],
    stiff: bool,
    label: &str,
) {
    let odes = m.compile().unwrap();
    let n = odes.n_species();
    let x0 = m.initial_state();
    let k = m.rate_constants();
    let opts = SolverOptions { max_steps: 200_000, ..SolverOptions::with_tolerances(1e-10, 1e-14) };

    let sys = RbmSensSystem::new(&odes, k.clone(), which.to_vec());
    let integrated = if stiff {
        Radau5Sens::new().solve(&sys, 0.0, &x0, times, &opts)
    } else {
        Dopri5Sens::new().solve(&sys, 0.0, &x0, times, &opts)
    }
    .unwrap_or_else(|e| panic!("{label}: sensitivity solve failed: {}", e.error));

    let plain = |k: Vec<f64>| {
        let sys = RbmOdeSystem::new(&odes, k);
        let solver: &dyn OdeSolver = if stiff { &Radau5::new() } else { &Dopri5::new() };
        solver
            .solve(&sys, 0.0, &x0, times, &opts)
            .unwrap_or_else(|e| panic!("{label}: plain solve failed: {}", e.error))
    };
    for (j, &r) in which.iter().enumerate() {
        let dk = FD_STEP * k[r];
        let (mut kp, mut km) = (k.clone(), k.clone());
        kp[r] += dk;
        km[r] -= dk;
        let (up, um) = (plain(kp), plain(km));
        for (s, &t) in times.iter().enumerate() {
            let column = integrated.sens_column(s, j, n);
            let scale = column.iter().fold(0.0f64, |acc, a| acc.max(a.abs()));
            assert!(scale > 0.0, "{label}: k[{r}] does not move the trajectory at t = {t}");
            for (i, (&a, (yp, ym))) in
                column.iter().zip(up.states[s].iter().zip(&um.states[s])).enumerate()
            {
                let fd = (yp - ym) / (2.0 * dk);
                assert!(
                    (a - fd).abs() <= TRAJECTORY_BOUND * scale,
                    "{label}: dy[{i}]/dk[{r}] at t = {t}: integrated {a} vs central-difference \
                     {fd} (column scale {scale})"
                );
            }
        }
    }
}

#[test]
fn radau5_sens_trajectories_match_finite_differences_on_metabolic() {
    // Hexokinase mechanism constants that central differences can resolve:
    // MgATP binding, the catalytic step, release from the GSH dead-end
    // complex. (Glucose on/off and the dead-end *on* rates sit in fast
    // equilibria: their columns are ~1e-12 against O(1) metabolite pools
    // and finite differences read back rounding, 1e-3 of the column or
    // worse at any step, so they cannot referee anything.)
    let which = [2, 6, 19];
    let times = [0.1, 0.5, 1.0];
    assert_trajectory_sens_matches_fd(&metabolic::model(), &which, &times, true, "metabolic");
}

#[test]
fn radau5_sens_trajectories_match_finite_differences_on_autophagy() {
    let m = autophagy::scaled_model(2.0, 1.0, 0.05);
    let which = [0, 1, 2, 5, 8];
    assert_trajectory_sens_matches_fd(&m, &which, &[1.0, 5.0, 20.0], true, "autophagy(scale=0.05)");
}

#[test]
fn dopri5_sens_trajectories_match_finite_differences_on_lotka_volterra() {
    let m = classic::lotka_volterra(1.1, 0.4, 0.4);
    assert_trajectory_sens_matches_fd(&m, &[0, 1, 2], &[1.0, 5.0, 10.0], false, "lotka-volterra");
}
