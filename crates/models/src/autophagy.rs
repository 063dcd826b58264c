//! The autophagy/translation-switch analogue.
//!
//! The published PSA-2D case study sweeps two quantities of a 173-species,
//! 6581-reaction rule-derived network: the initial amount of phosphorylated
//! AMPK (`AMPK*₀ ∈ [0, 10⁴]` molecules/cell) and the constant `P9 ∈ [10⁻⁹,
//! 10⁻⁶]` that scales the strength of MTORC1 inhibition (it touches 5476 of
//! the expanded network's kinetic constants), and reports the oscillation
//! amplitude of two read-outs (EIF4EBP1 and AMBRA1 phosphoforms), with
//! black regions where the dynamics do not oscillate.
//!
//! The original BNGL network is not redistributable; this module builds a
//! *behavioural analogue* with the same computational shape:
//!
//! * **core** — a mass-action Brusselator oscillator whose `X → Y`
//!   conversion is catalyzed by an AMPK\*-like species with rate
//!   `P9 × SCALE`, so the effective Hopf parameter is
//!   `b_eff = SCALE · P9 · AMPK*₀` and the (AMPK\*₀, P9) plane splits into
//!   an oscillating region (`b_eff > 1 + a²`) and a quiescent one, exactly
//!   the structure of the published figure. The read-outs `AMBRA_P` (= X)
//!   and `EIF4EBP_P` (= Y) oscillate in antiphase, mirroring the
//!   autophagy/translation alternation;
//! * **padding** — 169 satellite species and enough satellite reactions to
//!   reach 173 × 6581 exactly. Satellites are driven *catalytically* by the
//!   core (so they never feed back) through injection, transfer,
//!   dimerization-style and decay reactions, all mass-bounded. A fixed 5476
//!   of the satellite constants scale linearly with `P9`, reproducing the
//!   "one rule constant touches thousands of expanded constants" effect.

use paraspace_rbm::{Reaction, ReactionBasedModel, SpeciesId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Species count of the published network.
pub const N_SPECIES: usize = 173;
/// Reaction count of the published network.
pub const N_REACTIONS: usize = 6581;
/// Number of kinetic constants the P9 parameter scales.
pub const P9_TOUCHED_CONSTANTS: usize = 5476;

/// The published sweep range for the AMPK\*-like initial amount.
pub const AMPK_RANGE: (f64, f64) = (0.0, 1e4);
/// The published sweep range for the P9-like constant.
pub const P9_RANGE: (f64, f64) = (1e-9, 1e-6);

/// Brusselator feed rate `a` of the oscillator core.
const CORE_A: f64 = 1.0;
/// Catalytic scale mapping `P9 · AMPK*₀` onto the Hopf parameter; chosen so
/// the sweep rectangle straddles the Hopf boundary `b_eff = 1 + a² = 2`.
const P9_SCALE: f64 = 600.0;
/// Name of the translation-repressor read-out (the `Y` oscillator arm).
pub const EIF4EBP_SPECIES: &str = "EIF4EBP_P";
/// Name of the autophagy-activator read-out (the `X` oscillator arm).
pub const AMBRA_SPECIES: &str = "AMBRA_P";

/// Effective Hopf parameter of a sweep point; the analytic oscillation
/// criterion is `effective_b(ampk0, p9) > 1 + CORE_A²  (= 2)`.
fn effective_b(ampk0: f64, p9: f64) -> f64 {
    P9_SCALE * p9 * ampk0
}

/// Whether a sweep point lies in the oscillatory region (analytic
/// prediction used to validate the measured PSA-2D map).
pub fn oscillates(ampk0: f64, p9: f64) -> bool {
    effective_b(ampk0, p9) > 1.0 + CORE_A * CORE_A
}

/// Builds the analogue model at one sweep point.
///
/// The returned model always has exactly [`N_SPECIES`] species and
/// [`N_REACTIONS`] reactions; the sweep point only changes `AMPK*₀` and
/// the `P9`-scaled constants, mirroring how the original sweep
/// re-parameterizes a fixed network.
///
/// # Example
///
/// ```
/// use paraspace_models::autophagy;
///
/// let m = autophagy::model(5_000.0, 1e-7);
/// assert_eq!(m.n_species(), autophagy::N_SPECIES);
/// assert_eq!(m.n_reactions(), autophagy::N_REACTIONS);
/// assert!(m.species_by_name("AMPK_star").is_ok());
/// ```
pub fn model(ampk0: f64, p9: f64) -> ReactionBasedModel {
    build_with_size(ampk0, p9, N_SPECIES, N_REACTIONS)
}

/// A reduced-scale variant (same core, fewer satellites) for fast tests
/// and the example binaries; `scale ∈ (0, 1]` shrinks both paddings.
///
/// # Panics
///
/// Panics if `scale` is not in `(0, 1]`.
pub fn scaled_model(ampk0: f64, p9: f64, scale: f64) -> ReactionBasedModel {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    if (scale - 1.0).abs() < f64::EPSILON {
        return model(ampk0, p9);
    }
    // Truncating the full model is not possible (reactions reference late
    // species), so the generator runs with shrunken targets.
    build_with_size(
        ampk0,
        p9,
        ((N_SPECIES - 4) as f64 * scale).max(4.0) as usize + 4,
        ((N_REACTIONS - 5) as f64 * scale).max(8.0) as usize + 5,
    )
}

/// The generator behind [`model`] and [`scaled_model`]: the oscillator
/// core plus `n_species − 4` satellites and `n_reactions − 5` padding
/// reactions, the same padding draws at every sweep point.
fn build_with_size(
    ampk0: f64,
    p9: f64,
    n_species: usize,
    n_reactions: usize,
) -> ReactionBasedModel {
    let mut m = ReactionBasedModel::with_capacity(n_species, n_reactions);

    // --- Oscillator core (4 species, 5 reactions) -----------------------
    let x = m.add_species(AMBRA_SPECIES, CORE_A);
    let y = m.add_species(EIF4EBP_SPECIES, 2.0);
    let ampk = m.add_species("AMPK_star", ampk0);
    let sink = m.add_species("MTORC1_load", 0.0);

    // ∅ → X
    m.add_reaction(Reaction::mass_action(&[], &[(x, 1)], CORE_A)).expect("core");
    // AMPK* + X → AMPK* + Y  (rate P9·SCALE ⇒ pseudo-first-order b_eff)
    m.add_reaction(Reaction::mass_action(
        &[(ampk, 1), (x, 1)],
        &[(ampk, 1), (y, 1)],
        P9_SCALE * p9,
    ))
    .expect("core");
    // 2X + Y → 3X (autocatalytic recovery)
    m.add_reaction(Reaction::mass_action(&[(x, 2), (y, 1)], &[(x, 3)], 1.0)).expect("core");
    // X → MTORC1_load (degradation into an inert pool)
    m.add_reaction(Reaction::mass_action(&[(x, 1)], &[(sink, 1)], 1.0)).expect("core");
    // MTORC1_load → ∅ (keeps the pool bounded)
    m.add_reaction(Reaction::mass_action(&[(sink, 1)], &[], 0.5)).expect("core");

    // --- Satellite padding ----------------------------------------------
    let n_sat = n_species - 4;
    let sats: Vec<SpeciesId> =
        (0..n_sat).map(|i| m.add_species(format!("C{i:03}"), 1e-3)).collect();
    let core = [x, y, ampk, sink];

    // Deterministic padding: the same network at every sweep point.
    let mut rng = StdRng::seed_from_u64(0xA07);
    let n_pad = n_reactions - 5;
    // A fixed prefix of the padding constants scales with P9, mirroring
    // the 5476 rule-derived constants the original parameter touches.
    let touched = n_pad.min(P9_TOUCHED_CONSTANTS);
    let p9_factor = p9 / 1e-7; // unit at the middle of the sweep range
    for r in 0..n_pad {
        let k_base = 10f64.powf(rng.gen_range(-3.0..0.0));
        let k = if r < touched { k_base * p9_factor } else { k_base };
        let reaction = match r % 4 {
            // Catalytic injection from a core species: core → core + sat.
            0 => {
                let c = core[rng.gen_range(0..core.len())];
                let s = sats[rng.gen_range(0..n_sat)];
                Reaction::mass_action(&[(c, 1)], &[(c, 1), (s, 1)], k)
            }
            // Transfer between satellites.
            1 => {
                let a = sats[rng.gen_range(0..n_sat)];
                let mut b = sats[rng.gen_range(0..n_sat)];
                if a == b {
                    b = sats[(rng.gen_range(0..n_sat) + 1) % n_sat];
                }
                Reaction::mass_action(&[(a, 1)], &[(b, 1)], k)
            }
            // Lossy association: two satellites merge into one.
            2 => {
                let a = sats[rng.gen_range(0..n_sat)];
                let b = sats[rng.gen_range(0..n_sat)];
                let c = sats[rng.gen_range(0..n_sat)];
                if a == b {
                    Reaction::mass_action(&[(a, 2)], &[(c, 1)], k)
                } else {
                    Reaction::mass_action(&[(a, 1), (b, 1)], &[(c, 1)], k)
                }
            }
            // Decay.
            _ => {
                let a = sats[rng.gen_range(0..n_sat)];
                Reaction::mass_action(&[(a, 1)], &[], k)
            }
        };
        m.add_reaction(reaction).expect("padding reactions reference valid species");
    }
    debug_assert_eq!(m.n_species(), n_species);
    debug_assert_eq!(m.n_reactions(), n_reactions);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraspace_core::RbmOdeSystem;
    use paraspace_solvers::{OdeSolver, Radau5, SolverOptions};

    #[test]
    fn published_dimensions_exact() {
        let m = model(1e3, 1e-7);
        assert_eq!(m.n_species(), N_SPECIES);
        assert_eq!(m.n_reactions(), N_REACTIONS);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn hopf_criterion_matches_sweep_corners() {
        // Low corner: no oscillation; high corner: oscillation.
        assert!(!oscillates(0.0, 1e-9));
        assert!(!oscillates(1e2, 1e-9));
        assert!(oscillates(1e4, 1e-6));
        // The boundary cuts through the rectangle.
        assert!(oscillates(1e4, 1e-6) != oscillates(1e3, 1e-8));
    }

    fn amplitude_of(m: &ReactionBasedModel, species: &str) -> f64 {
        // The padded network is stiff (like the published one); use the
        // implicit solver, exactly as the engine's P2/P3 triage would.
        let odes = m.compile().unwrap();
        let sys = RbmOdeSystem::new(&odes, m.rate_constants());
        let id = m.species_by_name(species).unwrap().index();
        let times: Vec<f64> = (1..=300).map(|i| 20.0 + i as f64 * 0.2).collect();
        let opts = SolverOptions { max_steps: 100_000, ..SolverOptions::default() };
        let sol = Radau5::new().solve(&sys, 0.0, &m.initial_state(), &times, &opts).unwrap();
        let v = sol.component(id);
        v.iter().cloned().fold(f64::MIN, f64::max) - v.iter().cloned().fold(f64::MAX, f64::min)
    }

    #[test]
    fn oscillatory_point_oscillates_in_scaled_model() {
        // b_eff = 600 · 1e-6 · 1e4 = 6 ≫ 2.
        let m = scaled_model(1e4, 1e-6, 0.05);
        let amp = amplitude_of(&m, AMBRA_SPECIES);
        assert!(amp > 0.5, "expected visible oscillation, amplitude {amp}");
        let amp_y = amplitude_of(&m, EIF4EBP_SPECIES);
        assert!(amp_y > 0.5, "both read-outs oscillate, got {amp_y}");
    }

    #[test]
    fn quiescent_point_is_flat_in_scaled_model() {
        // b_eff = 600 · 1e-9 · 1e3 ≈ 6·10⁻⁴ ≪ 2.
        let m = scaled_model(1e3, 1e-9, 0.05);
        let amp = amplitude_of(&m, AMBRA_SPECIES);
        assert!(amp < 0.05, "expected quiescence, amplitude {amp}");
    }

    #[test]
    fn padding_does_not_feed_back_into_core() {
        // Core species never appear as *net* products or reactants of
        // padding reactions (catalysts cancel), so the core Jacobian block
        // is independent of satellite concentrations.
        let m = scaled_model(1e3, 1e-7, 0.1);
        let net = m.net_stoichiometry();
        for r in 5..m.n_reactions() {
            for core_idx in 0..4 {
                assert_eq!(
                    net[(core_idx, r)],
                    0.0,
                    "padding reaction {r} perturbs core species {core_idx}"
                );
            }
        }
    }

    #[test]
    fn p9_scales_exactly_the_declared_constant_count() {
        let lo = model(1e3, 1e-8);
        let hi = model(1e3, 1e-7);
        let kl = lo.rate_constants();
        let kh = hi.rate_constants();
        let mut scaled = 0;
        for (a, b) in kl.iter().zip(&kh).skip(5) {
            if (b / a - 10.0).abs() < 1e-9 {
                scaled += 1;
            }
        }
        assert_eq!(scaled, P9_TOUCHED_CONSTANTS);
    }

    #[test]
    fn model_is_deterministic_across_calls() {
        let a = model(2e3, 3e-8);
        let b = model(2e3, 3e-8);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn bad_scale_panics() {
        let _ = scaled_model(1.0, 1e-7, 0.0);
    }
}
