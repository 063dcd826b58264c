//! Every bundled model survives both exchange formats exactly.
//!
//! A model written with `sbml::to_string` or `biosimware::write_dir` and
//! read back must be the same model: the same compiled flux and Jacobian
//! programs (`CompiledOdes: PartialEq`), the same constants and the same
//! initial state to the bit. Anything the writers drop would make the
//! reread model a different one under the same campaign digest.
//!
//! The generators themselves are pinned by golden digests: a change to
//! how a model is stored or built must leave every species, side and
//! constant where it was.

use paraspace_models::{autophagy, classic, metabolic};
use paraspace_rbm::sbgen::SbGen;
use paraspace_rbm::{biosimware, sbml, Reaction, ReactionBasedModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Reactions off the bundled models' shape: a side of four distinct
/// species (longer than any bundled side) and one whose five entries
/// merge down to two.
fn long_sides() -> ReactionBasedModel {
    let mut m = ReactionBasedModel::new();
    let s: Vec<_> = (0..5).map(|i| m.add_species(format!("L{i}"), 0.5 + i as f64)).collect();
    m.add_reaction(Reaction::mass_action(
        &[(s[3], 1), (s[0], 1), (s[2], 2), (s[1], 1)],
        &[(s[4], 1)],
        0.25,
    ))
    .unwrap();
    m.add_reaction(Reaction::mass_action(
        &[(s[1], 1), (s[4], 1), (s[1], 1), (s[3], 0), (s[4], 2)],
        &[(s[0], 1), (s[2], 1), (s[3], 1), (s[4], 1)],
        1.5,
    ))
    .unwrap();
    m.add_reaction(Reaction::mass_action(&[(s[2], 1)], &[(s[3], 1), (s[3], 1)], 3.0)).unwrap();
    m
}

fn bundled() -> Vec<(&'static str, ReactionBasedModel)> {
    vec![
        ("robertson", classic::robertson()),
        ("brusselator", classic::brusselator(1.0, 3.0)),
        ("lotka-volterra", classic::lotka_volterra(1.1, 0.4, 0.4)),
        ("decay-chain", classic::decay_chain(6)),
        ("enzyme", classic::enzyme_mechanism(1.0, 0.5, 0.3)),
        ("oregonator", classic::oregonator()),
        ("autophagy", autophagy::model(2.0, 1.0)),
        ("autophagy-0.25", autophagy::scaled_model(2.0, 1.0, 0.25)),
        ("metabolic", metabolic::model()),
        ("long-sides", long_sides()),
    ]
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_model(label: &str, model: &ReactionBasedModel, back: &ReactionBasedModel) {
    assert_eq!(back.compile().unwrap(), model.compile().unwrap(), "{label}: compiled programs");
    assert_eq!(bits(&back.initial_state()), bits(&model.initial_state()), "{label}: initial state");
    assert_eq!(bits(&back.rate_constants()), bits(&model.rate_constants()), "{label}: constants");
    assert_eq!(back, model, "{label}: model");
}

#[test]
fn bundled_models_round_trip_through_sbml() {
    for (name, model) in bundled() {
        let back = sbml::from_str(&sbml::to_string(&model)).unwrap();
        assert_same_model(&format!("{name} via SBML"), &model, &back);
    }
}

#[test]
fn bundled_models_round_trip_through_biosimware() {
    let root = std::env::temp_dir().join(format!("paraspace_model_io_{}", std::process::id()));
    for (name, model) in bundled() {
        let dir = root.join(name);
        biosimware::write_dir(&model, &dir).unwrap();
        let back = biosimware::read_dir(&dir).unwrap();
        assert_same_model(&format!("{name} via BioSimWare"), &model, &back);
    }
    std::fs::remove_dir_all(&root).ok();
}

/// FNV-1a over every species name and initial state and every reaction's
/// sides and constant, each value by its bits.
fn digest(model: &ReactionBasedModel) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(model.n_species() as u64);
    for s in model.species() {
        for &b in s.name.as_bytes() {
            eat(u64::from(b));
        }
        eat(s.initial_concentration.to_bits());
    }
    eat(model.n_reactions() as u64);
    for r in model.reactions() {
        for side in [r.reactants(), r.products()] {
            eat(side.len() as u64);
            for &(s, c) in side {
                eat(s as u64);
                eat(u64::from(c));
            }
        }
        eat(r.rate_constant().to_bits());
    }
    h
}

#[test]
fn generators_build_the_pinned_models() {
    let sbgen = SbGen::new(128, 192).generate(&mut StdRng::seed_from_u64(7));
    let cases: [(&str, ReactionBasedModel, u64); 4] = [
        ("autophagy::model(2, 1)", autophagy::model(2.0, 1.0), 0xfeea_2943_819c_2b16),
        (
            "autophagy::scaled_model(1e3, 1e-7, 0.25)",
            autophagy::scaled_model(1e3, 1e-7, 0.25),
            0xd309_df46_5f8d_65fb,
        ),
        ("metabolic::model()", metabolic::model(), 0xf918_7905_978e_f400),
        ("SbGen::new(128, 192) seed 7", sbgen, 0x4053_fd62_a734_d82b),
    ];
    let got: Vec<String> =
        cases.iter().map(|(name, m, _)| format!("{name}: {:#018x}", digest(m))).collect();
    let want: Vec<String> = cases.iter().map(|(name, _, d)| format!("{name}: {d:#018x}")).collect();
    assert_eq!(got, want);
}

#[test]
fn long_sides_merge_before_they_are_stored() {
    let m = long_sides();
    let r = &m.reactions()[..2];
    assert_eq!(r[0].reactants(), &[(0, 1), (1, 1), (2, 2), (3, 1)]);
    assert_eq!(r[1].reactants(), &[(1, 2), (4, 3)]);
    assert_eq!(r[1].products(), &[(0, 1), (2, 1), (3, 1), (4, 1)]);
    assert_eq!(m.reactions()[2].products(), &[(3, 2)]);
    assert_eq!(r[1].order(), 5);
    // The same reaction written already merged is the same value.
    let id = |name| m.species_by_name(name).unwrap();
    let short = Reaction::mass_action(
        &[(id("L4"), 3), (id("L1"), 2)],
        &[(id("L0"), 1), (id("L2"), 1), (id("L3"), 1), (id("L4"), 1)],
        1.5,
    );
    assert_eq!(short, r[1]);
}
