//! Classic benchmark networks with known behaviour.

use paraspace_rbm::{Reaction, ReactionBasedModel};

/// Robertson's chemical kinetics problem as an RBM — the canonical stiff
/// benchmark (rate constants spanning nine orders of magnitude):
///
/// ```text
/// A → B           k₁ = 0.04
/// B + B → C + B   k₂ = 3·10⁷
/// B + C → A + C   k₃ = 10⁴
/// ```
///
/// # Example
///
/// ```
/// let m = paraspace_models::classic::robertson();
/// assert_eq!(m.n_species(), 3);
/// assert_eq!(m.n_reactions(), 3);
/// ```
pub fn robertson() -> ReactionBasedModel {
    let mut m = ReactionBasedModel::new();
    let a = m.add_species("A", 1.0);
    let b = m.add_species("B", 0.0);
    let c = m.add_species("C", 0.0);
    m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 0.04)).expect("valid");
    m.add_reaction(Reaction::mass_action(&[(b, 2)], &[(c, 1), (b, 1)], 3e7)).expect("valid");
    m.add_reaction(Reaction::mass_action(&[(b, 1), (c, 1)], &[(a, 1), (c, 1)], 1e4))
        .expect("valid");
    m
}

/// The Brusselator: the textbook mass-action limit-cycle oscillator.
///
/// ```text
/// ∅ → X            k = a
/// X → Y            k = b      (the B + X → Y + D step, B folded into b)
/// 2X + Y → 3X      k = 1
/// X → ∅            k = 1
/// ```
///
/// The fixed point `(X, Y) = (a, b/a)` loses stability in a Hopf
/// bifurcation at `b = 1 + a²`; for larger `b` the system orbits a limit
/// cycle. This analytic boundary is what the autophagy-analogue model's
/// parameter plane is built on.
///
/// # Example
///
/// ```
/// let m = paraspace_models::classic::brusselator(1.0, 3.0);
/// assert_eq!(m.n_species(), 2);
/// assert_eq!(m.rate_constants(), vec![1.0, 3.0, 1.0, 1.0]);
/// ```
pub fn brusselator(a: f64, b: f64) -> ReactionBasedModel {
    let mut m = ReactionBasedModel::new();
    // Start displaced from the fixed point (a, b/a): at the fixed point the
    // flow vanishes identically and even an unstable cycle never develops.
    let x = m.add_species("X", (0.5 * a).max(0.1));
    let y = m.add_species("Y", (b / a.max(1e-6)).max(0.1) + 0.5);
    m.add_reaction(Reaction::mass_action(&[], &[(x, 1)], a)).expect("valid");
    m.add_reaction(Reaction::mass_action(&[(x, 1)], &[(y, 1)], b)).expect("valid");
    m.add_reaction(Reaction::mass_action(&[(x, 2), (y, 1)], &[(x, 3)], 1.0)).expect("valid");
    m.add_reaction(Reaction::mass_action(&[(x, 1)], &[], 1.0)).expect("valid");
    m
}

/// Lotka–Volterra predator–prey as an RBM.
///
/// ```text
/// X → 2X         k₁   (prey growth)
/// X + Y → 2Y     k₂   (predation)
/// Y → ∅          k₃   (predator death)
/// ```
pub fn lotka_volterra(k1: f64, k2: f64, k3: f64) -> ReactionBasedModel {
    let mut m = ReactionBasedModel::new();
    let x = m.add_species("prey", 1.0);
    let y = m.add_species("predator", 0.5);
    m.add_reaction(Reaction::mass_action(&[(x, 1)], &[(x, 2)], k1)).expect("valid");
    m.add_reaction(Reaction::mass_action(&[(x, 1), (y, 1)], &[(y, 2)], k2)).expect("valid");
    m.add_reaction(Reaction::mass_action(&[(y, 1)], &[], k3)).expect("valid");
    m
}

/// A linear decay chain `S₀ → S₁ → … → S_{n−1} → ∅` with unit rates —
/// arbitrary size, analytically solvable (matrix exponential of a
/// bidiagonal matrix), handy for scaling tests.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn decay_chain(n: usize) -> ReactionBasedModel {
    assert!(n > 0, "chain needs at least one species");
    let mut m = ReactionBasedModel::new();
    let ids: Vec<_> =
        (0..n).map(|i| m.add_species(format!("S{i}"), if i == 0 { 1.0 } else { 0.0 })).collect();
    for i in 0..n {
        let products: &[_] = if i + 1 < n { &[(ids[i + 1], 1)] } else { &[] };
        m.add_reaction(Reaction::mass_action(&[(ids[i], 1)], products, 1.0)).expect("valid");
    }
    m
}

/// The irreversible Michaelis–Menten mechanism in full mass action:
///
/// ```text
/// E + S → ES    kon
/// ES → E + S    koff
/// ES → E + P    kcat
/// ```
pub fn enzyme_mechanism(kon: f64, koff: f64, kcat: f64) -> ReactionBasedModel {
    let mut m = ReactionBasedModel::new();
    let e = m.add_species("E", 0.1);
    let s = m.add_species("S", 1.0);
    let es = m.add_species("ES", 0.0);
    let p = m.add_species("P", 0.0);
    m.add_reaction(Reaction::mass_action(&[(e, 1), (s, 1)], &[(es, 1)], kon)).expect("valid");
    m.add_reaction(Reaction::mass_action(&[(es, 1)], &[(e, 1), (s, 1)], koff)).expect("valid");
    m.add_reaction(Reaction::mass_action(&[(es, 1)], &[(e, 1), (p, 1)], kcat)).expect("valid");
    m
}

/// The Oregonator (Field–Noyes model of the Belousov–Zhabotinsky
/// reaction): a five-reaction mass-action oscillator with rate constants
/// spanning eight orders of magnitude — simultaneously oscillatory *and*
/// stiff, the combination the engine's P2/P4 pipeline exists for.
///
/// ```text
/// A + Y → X + P     k₁      (A, B held in the constants: pool species)
/// X + Y → 2P        k₂
/// B + X → 2X + Z    k₃
/// 2X    → A + P     k₄
/// Z     → fY        k₅      (f = 1 here)
/// ```
pub fn oregonator() -> ReactionBasedModel {
    let mut m = ReactionBasedModel::new();
    let x = m.add_species("HBrO2", 5.025e-11);
    let y = m.add_species("Br", 3.0e-7);
    let z = m.add_species("Ce4", 2.412e-8);
    // Pool species A = B = 0.06 M folded into the constants (the standard
    // Tyson parameterization).
    let a = 0.06;
    m.add_reaction(Reaction::mass_action(&[(y, 1)], &[(x, 1)], 1.34 * a)).expect("valid");
    m.add_reaction(Reaction::mass_action(&[(x, 1), (y, 1)], &[], 1.6e9)).expect("valid");
    m.add_reaction(Reaction::mass_action(&[(x, 1)], &[(x, 2), (z, 1)], 8e3 * a)).expect("valid");
    m.add_reaction(Reaction::mass_action(&[(x, 2)], &[], 4e7)).expect("valid");
    m.add_reaction(Reaction::mass_action(&[(z, 1)], &[(y, 1)], 1.0)).expect("valid");
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraspace_core::{CpuEngine, CpuSolverKind, SimulationJob, Simulator};
    use paraspace_solvers::SolverOptions;

    #[test]
    fn robertson_rbm_reproduces_known_kinetics() {
        let m = robertson();
        let odes = m.compile().unwrap();
        let mut d = [0.0; 3];
        odes.rhs(0.0, &[1.0, 1e-4, 0.1], &mut d);
        // dA/dt = -0.04 A + 1e4 B C
        assert!((d[0] - (-0.04 + 1e4 * 1e-4 * 0.1)).abs() < 1e-10);
        // dB/dt = 0.04A - 1e4 BC - 3e7 B² (B+B→C+B consumes net one B)
        assert!((d[1] - (0.04 - 1e4 * 1e-4 * 0.1 - 3e7 * 1e-8)).abs() < 1e-8);
    }

    #[test]
    fn robertson_runs_stiff_path_and_conserves_mass() {
        let m = robertson();
        let opts = SolverOptions { max_steps: 100_000, ..SolverOptions::default() };
        let job = SimulationJob::builder(&m)
            .time_points(vec![0.4, 40.0])
            .replicate(1)
            .options(opts)
            .build()
            .unwrap();
        let r = CpuEngine::new(CpuSolverKind::Lsoda).run(&job).unwrap();
        let s = r.outcomes[0].solution.as_ref().unwrap();
        for state in &s.states {
            assert!((state.iter().sum::<f64>() - 1.0).abs() < 1e-5);
        }
        assert!((s.state_at(0)[0] - 0.98517).abs() < 2e-3);
    }

    #[test]
    fn brusselator_oscillates_beyond_hopf() {
        use paraspace_core::RbmOdeSystem;
        use paraspace_solvers::{Dopri5, OdeSolver};
        let m = brusselator(1.0, 3.0); // 3 > 1 + 1² = 2 → limit cycle
        let odes = m.compile().unwrap();
        let sys = RbmOdeSystem::new(&odes, m.rate_constants());
        let times: Vec<f64> = (1..400).map(|i| i as f64 * 0.25).collect();
        let sol = Dopri5::new()
            .solve(&sys, 0.0, &m.initial_state(), &times, &SolverOptions::default())
            .unwrap();
        let x: Vec<f64> = sol.component(0);
        let late = &x[200..];
        let max = late.iter().cloned().fold(f64::MIN, f64::max);
        let min = late.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min > 1.0, "limit cycle amplitude too small: {}", max - min);
    }

    #[test]
    fn brusselator_settles_below_hopf() {
        use paraspace_core::RbmOdeSystem;
        use paraspace_solvers::{Dopri5, OdeSolver};
        let m = brusselator(1.0, 1.5); // 1.5 < 2 → stable focus
        let odes = m.compile().unwrap();
        let sys = RbmOdeSystem::new(&odes, m.rate_constants());
        let times: Vec<f64> = (1..400).map(|i| i as f64 * 0.25).collect();
        let sol = Dopri5::new()
            .solve(&sys, 0.0, &m.initial_state(), &times, &SolverOptions::default())
            .unwrap();
        let x = sol.component(0);
        let late = &x[300..];
        let spread = late.iter().cloned().fold(f64::MIN, f64::max)
            - late.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 0.05, "should converge to the fixed point, spread {spread}");
        assert!((late[late.len() - 1] - 1.0).abs() < 0.05, "X* = a = 1");
    }

    #[test]
    fn decay_chain_total_mass_decays_exponentially() {
        use paraspace_core::RbmOdeSystem;
        use paraspace_solvers::{Dopri5, OdeSolver};
        let m = decay_chain(5);
        let odes = m.compile().unwrap();
        let sys = RbmOdeSystem::new(&odes, m.rate_constants());
        let sol = Dopri5::new()
            .solve(&sys, 0.0, &m.initial_state(), &[1.0], &SolverOptions::default())
            .unwrap();
        // First species decays exactly as e^{-t}.
        assert!((sol.state_at(0)[0] - (-1.0f64).exp()).abs() < 1e-6);
        // Poisson-like filling of the chain: S1(t) = t e^{-t}.
        assert!((sol.state_at(0)[1] - 1.0 * (-1.0f64).exp()).abs() < 1e-6);
    }

    #[test]
    fn enzyme_mechanism_conserves_enzyme() {
        use paraspace_core::RbmOdeSystem;
        use paraspace_solvers::{Dopri5, OdeSolver};
        let m = enzyme_mechanism(10.0, 1.0, 2.0);
        let odes = m.compile().unwrap();
        let sys = RbmOdeSystem::new(&odes, m.rate_constants());
        let times: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let sol = Dopri5::new()
            .solve(&sys, 0.0, &m.initial_state(), &times, &SolverOptions::default())
            .unwrap();
        for s in &sol.states {
            assert!((s[0] + s[2] - 0.1).abs() < 1e-7, "E + ES must be conserved");
            assert!((s[1] + s[2] + s[3] - 1.0).abs() < 1e-7, "S + ES + P must be conserved");
        }
        // Eventually everything is product.
        assert!(sol.last_state().unwrap()[3] > 0.95);
    }

    #[test]
    fn oregonator_is_stiff_and_oscillates() {
        use paraspace_core::{classify_batch, FineCoarseEngine, SimulationJob, Simulator};
        let m = oregonator();
        let opts = SolverOptions { max_steps: 200_000, ..SolverOptions::default() };
        let times: Vec<f64> = (1..=160).map(|i| i as f64 * 2.0).collect();
        let job = SimulationJob::builder(&m)
            .time_points(times)
            .replicate(1)
            .options(opts)
            .build()
            .unwrap();
        // At t₀ the concentrations are tiny, so P2 sees a mild Jacobian and
        // routes to DOPRI5 — the stiffness only develops mid-run. This is
        // precisely the P3-failure → P4-reroute path.
        let classes = classify_batch(&job);
        let r = FineCoarseEngine::new().run(&job).unwrap();
        assert!(
            classes[0].stiff
                || r.outcomes[0].rerouted
                || !r.outcomes[0].solution.as_ref().unwrap().stats.stiffness_detected,
            "oregonator must be handled by the stiff path or survive explicit integration"
        );
        let sol = r.outcomes[0].solution.as_ref().unwrap();
        // Relaxation oscillation: Ce4 spans orders of magnitude repeatedly.
        let z: Vec<f64> = sol.component(2);
        let max = z.iter().cloned().fold(f64::MIN, f64::max);
        let min = z.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min.max(1e-300) > 10.0, "no relaxation swing: {min}..{max}");
    }

    #[test]
    #[should_panic(expected = "at least one species")]
    fn empty_chain_panics() {
        let _ = decay_chain(0);
    }
}
