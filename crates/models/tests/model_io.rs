//! Every bundled model survives both exchange formats exactly.
//!
//! A model written with `sbml::to_string` or `biosimware::write_dir` and
//! read back must be the same model: the same compiled flux and Jacobian
//! programs (`CompiledOdes: PartialEq`), the same constants and the same
//! initial state to the bit. Anything the writers drop would make the
//! reread model a different one under the same campaign digest.

use paraspace_models::{autophagy, classic, metabolic};
use paraspace_rbm::{biosimware, sbml, ReactionBasedModel};

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
