//! Property test: the lane-batched propensity kernel is bitwise equal,
//! lane by lane, to the scalar evaluator — on every bundled model and on
//! arbitrary count states. This is the foundation the whole lockstep
//! tau-leaping contract rests on: if one lane ever diverged by a ULP from
//! the scalar walk, trajectories would cease to be a pure function of
//! `(seed, member, replicate)`.

use paraspace_models::{autophagy, classic, metabolic};
use paraspace_rbm::ReactionBasedModel;
use paraspace_stochastic::PropensityTable;
use proptest::prelude::*;

fn bundled_models() -> Vec<(&'static str, ReactionBasedModel)> {
    vec![
        ("robertson", classic::robertson()),
        ("brusselator", classic::brusselator(1.0, 3.0)),
        ("lotka_volterra", classic::lotka_volterra(1.1, 0.4, 0.4)),
        ("decay_chain", classic::decay_chain(6)),
        ("enzyme_mechanism", classic::enzyme_mechanism(1e5, 1e-3, 10.0)),
        ("oregonator", classic::oregonator()),
        ("autophagy", autophagy::model(0.9, 1.2)),
        ("metabolic", metabolic::model()),
    ]
}

/// Evaluates one lane scalar-style and compares bit patterns.
fn assert_lanes_match_scalar(name: &str, table: &PropensityTable, counts: &[Vec<u64>]) {
    let stoich = table.stoich();
    let n = stoich.n_species();
    let m = stoich.n_reactions();
    let lanes = counts.len();
    // Pack species-major/lane-minor.
    let mut soa = vec![0u64; n * lanes];
    for (l, x) in counts.iter().enumerate() {
        for s in 0..n {
            soa[s * lanes + l] = x[s];
        }
    }
    let mut batched = vec![0.0f64; m * lanes];
    stoich.propensities_lanes(&soa, lanes, &mut batched);
    let mut sums = vec![0.0f64; lanes];
    stoich.propensity_sums_lanes(&batched, lanes, &mut sums);
    let mut scalar = vec![0.0f64; m];
    for (l, x) in counts.iter().enumerate() {
        let a0 = stoich.propensities_into(x, &mut scalar);
        for r in 0..m {
            assert_eq!(
                batched[r * lanes + l].to_bits(),
                scalar[r].to_bits(),
                "{name}: reaction {r}, lane {l}: batched {} vs scalar {}",
                batched[r * lanes + l],
                scalar[r]
            );
        }
        assert_eq!(sums[l].to_bits(), a0.to_bits(), "{name}: lane {l} propensity sum diverged");
    }
}

#[test]
fn every_bundled_model_matches_at_its_initial_state() {
    for (name, model) in bundled_models() {
        let table = PropensityTable::new(&model);
        let x0 = paraspace_stochastic::initial_counts(&model);
        // Four lanes holding perturbed copies of the initial state.
        let states: Vec<Vec<u64>> = (0..4u64)
            .map(|k| x0.iter().map(|&v| v.saturating_add(k * 3).saturating_sub(k)).collect())
            .collect();
        assert_lanes_match_scalar(name, &table, &states);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn batched_propensities_are_bitwise_scalar_on_random_states(
        model_idx in 0usize..8,
        lanes in 1usize..9,
        seed_counts in proptest::collection::vec(0u64..5_000_000, 8),
    ) {
        let (name, model) = bundled_models().swap_remove(model_idx);
        let table = PropensityTable::new(&model);
        let n = table.n_species();
        // Stretch the 8 sampled counts over every (lane, species) cell
        // with a cheap deterministic mix so huge models get varied states.
        let states: Vec<Vec<u64>> = (0..lanes)
            .map(|l| {
                (0..n)
                    .map(|s| {
                        let pick = seed_counts[(l * 31 + s * 7) % seed_counts.len()];
                        pick.wrapping_mul(0x9E37_79B9).wrapping_add(s as u64) % 5_000_000
                    })
                    .collect()
            })
            .collect();
        assert_lanes_match_scalar(name, &table, &states);
    }
}
