//! The flux, RHS and Jacobian kernels against an oracle that shares no code
//! with them.
//!
//! Scalar and lane kernels run the same compiled flux and Jacobian
//! programs, so checking them against each other cannot see a mistake they
//! share. The oracle here is written from `model.reactions()` alone: per
//! flux `k · Π x^order` over the reactant list left to right, per species
//! `Σ coeff·flux` over the reactions in order, per Jacobian entry
//! `Σ coeff · ∂flux/∂x_j` over the reactions in order with
//! `∂flux/∂x_j = k·a·x_j^(a−1)`, then the other reactants left to right.
//! The kernels must reproduce it bit for bit — scalar, and every lane of
//! every width 1..=8 (`[f64; L]` rows at 1, 2, 4, 8 and slice rows at the
//! others).

use paraspace_linalg::Matrix;
use paraspace_models::{autophagy, classic, metabolic};
use paraspace_rbm::sbgen::SbGen;
use paraspace_rbm::{Reaction, ReactionBasedModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MAX_LANES: usize = 8;

/// `x^n` by square-and-multiply, the crate's documented integer power.
fn power(x: f64, mut n: u32) -> f64 {
    let (mut base, mut acc) = (x, 1.0);
    while n > 0 {
        if n & 1 == 1 {
            acc *= base;
        }
        base *= base;
        n >>= 1;
    }
    acc
}

fn oracle_fluxes(model: &ReactionBasedModel, x: &[f64], k: &[f64]) -> Vec<f64> {
    let flux = |(r, &k): (&Reaction, &f64)| {
        r.reactants().iter().fold(k, |f, &(s, order)| f * power(x[s], order))
    };
    model.reactions().iter().zip(k).map(flux).collect()
}

/// Net stoichiometric coefficient of species `s` in reaction `r`.
fn net(r: &Reaction, s: usize) -> f64 {
    let side = |list: &[(usize, u32)]| {
        list.iter().find(|&&(sp, _)| sp == s).map_or(0.0, |&(_, c)| c as f64)
    };
    side(r.products()) - side(r.reactants())
}

fn oracle_rhs(model: &ReactionBasedModel, flux: &[f64]) -> Vec<f64> {
    (0..model.n_species())
        .map(|s| {
            model.reactions().iter().zip(flux).fold(0.0, |acc, (r, &f)| match net(r, s) {
                c if c != 0.0 => acc + c * f,
                _ => acc,
            })
        })
        .collect()
}

/// `∂flux_r/∂x` of reactant `which`: `k·a·x^(a−1)` first, then the other
/// reactants left to right.
fn oracle_flux_derivative(r: &Reaction, k: f64, x: &[f64], which: usize) -> f64 {
    let list = r.reactants();
    let (s, a) = list[which];
    let head = k * a as f64 * power(x[s], a - 1);
    let others = list.iter().enumerate().filter(|&(j, _)| j != which);
    others.fold(head, |d, (_, &(s, a))| d * power(x[s], a))
}

/// The Jacobian, row-major `N × N`.
fn oracle_jacobian(model: &ReactionBasedModel, x: &[f64], k: &[f64]) -> Vec<f64> {
    let n = model.n_species();
    let mut jac = vec![0.0; n * n];
    for (s, row) in jac.chunks_exact_mut(n).enumerate() {
        for (r, &k) in model.reactions().iter().zip(k) {
            let coeff = net(r, s);
            if coeff != 0.0 {
                for (which, &(j, _)) in r.reactants().iter().enumerate() {
                    row[j] += coeff * oracle_flux_derivative(r, k, x, which);
                }
            }
        }
    }
    jac
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Lane `l`'s state and constants: the model's own, bent a little
/// differently per lane, with one species emptied so zeros are multiplied
/// too.
fn lane_inputs(model: &ReactionBasedModel, l: usize) -> (Vec<f64>, Vec<f64>) {
    let bend =
        |i: usize, v: f64| v * (1.0 + 0.07 * ((i * 5 + l * 3) % 11) as f64) + 1e-3 * l as f64;
    let mut x: Vec<f64> =
        model.initial_state().iter().enumerate().map(|(i, &v)| bend(i, v)).collect();
    x[l % model.n_species()] = 0.0;
    let k = model.rate_constants().iter().enumerate().map(|(r, &v)| bend(r + 1, v)).collect();
    (x, k)
}

/// Member-major vectors to one species-major, lane-minor block.
fn soa(members: &[Vec<f64>]) -> Vec<f64> {
    let lanes = members.len();
    let mut block = vec![0.0; members[0].len() * lanes];
    for (l, member) in members.iter().enumerate() {
        for (i, &v) in member.iter().enumerate() {
            block[i * lanes + l] = v;
        }
    }
    block
}

fn lane_of(block: &[f64], lanes: usize, l: usize) -> Vec<f64> {
    block.iter().skip(l).step_by(lanes).copied().collect()
}

fn assert_parity(model: &ReactionBasedModel, label: &str) {
    let odes = model.compile().unwrap();
    let (n, m) = (odes.n_species(), odes.n_reactions());
    let inputs: Vec<_> = (0..MAX_LANES).map(|l| lane_inputs(model, l)).collect();
    let want: Vec<_> = inputs
        .iter()
        .map(|(x, k)| {
            let flux = oracle_fluxes(model, x, k);
            let rhs = oracle_rhs(model, &flux);
            (bits(&flux), bits(&rhs))
        })
        .collect();

    for (l, ((x, k), (want_flux, want_rhs))) in inputs.iter().zip(&want).enumerate() {
        let (mut flux, mut dxdt) = (vec![f64::NAN; m], vec![f64::NAN; n]);
        odes.fluxes_with(x, k, &mut flux);
        assert_eq!(&bits(&flux), want_flux, "{label}: fluxes_with, inputs {l}");
        flux.fill(f64::NAN);
        odes.rhs_with_buffer(x, k, &mut flux, &mut dxdt);
        assert_eq!(&bits(&flux), want_flux, "{label}: rhs_with_buffer flux, inputs {l}");
        assert_eq!(&bits(&dxdt), want_rhs, "{label}: rhs_with_buffer, inputs {l}");
        let unit: Vec<f64> = (0..m).map(|r| odes.unit_flux(r, x)).collect();
        let ones = oracle_fluxes(model, x, &vec![1.0; m]);
        assert_eq!(bits(&unit), bits(&ones), "{label}: unit_flux, inputs {l}");
    }

    for lanes in 1..=MAX_LANES {
        let xs: Vec<_> = inputs[..lanes].iter().map(|(x, _)| x.clone()).collect();
        let ks: Vec<_> = inputs[..lanes].iter().map(|(_, k)| k.clone()).collect();
        let (x, k) = (soa(&xs), soa(&ks));
        let (mut flux, mut dxdt) = (vec![f64::NAN; m * lanes], vec![f64::NAN; n * lanes]);
        odes.fluxes_batch(lanes, &x, &k, &mut flux);
        for (l, (want_flux, _)) in want[..lanes].iter().enumerate() {
            let got = bits(&lane_of(&flux, lanes, l));
            assert_eq!(&got, want_flux, "{label}: fluxes_batch, width {lanes}, lane {l}");
        }
        flux.fill(f64::NAN);
        odes.rhs_batch(lanes, &x, &k, &mut flux, &mut dxdt);
        for (l, (want_flux, want_rhs)) in want[..lanes].iter().enumerate() {
            let got = bits(&lane_of(&flux, lanes, l));
            assert_eq!(&got, want_flux, "{label}: rhs_batch flux, width {lanes}, lane {l}");
            let got = bits(&lane_of(&dxdt, lanes, l));
            assert_eq!(&got, want_rhs, "{label}: rhs_batch, width {lanes}, lane {l}");
        }
    }

    assert_jacobian_parity(model, label);
}

/// `jacobian_with` and `jacobian_batch` against the oracle.
fn assert_jacobian_parity(model: &ReactionBasedModel, label: &str) {
    let odes = model.compile().unwrap();
    let n = odes.n_species();
    let inputs: Vec<_> = (0..MAX_LANES).map(|l| lane_inputs(model, l)).collect();
    let want: Vec<_> = inputs.iter().map(|(x, k)| bits(&oracle_jacobian(model, x, k))).collect();

    for (l, ((x, k), want)) in inputs.iter().zip(&want).enumerate() {
        let mut jac = Matrix::from_fn(n, n, |_, _| f64::NAN);
        odes.jacobian_with(x, k, &mut jac);
        assert_eq!(&bits(jac.as_slice()), want, "{label}: jacobian_with, inputs {l}");
    }
    for lanes in 1..=MAX_LANES {
        let xs: Vec<_> = inputs[..lanes].iter().map(|(x, _)| x.clone()).collect();
        let ks: Vec<_> = inputs[..lanes].iter().map(|(_, k)| k.clone()).collect();
        let (x, k) = (soa(&xs), soa(&ks));
        let mut jac = vec![f64::NAN; n * n * lanes];
        // Stale slot scratch must not show: every row is overwritten.
        let mut slots = vec![f64::NAN; odes.n_reactant_slots() * lanes];
        odes.jacobian_batch(lanes, &x, &k, &mut slots, &mut jac);
        for (l, want) in want[..lanes].iter().enumerate() {
            let got = bits(&lane_of(&jac, lanes, l));
            assert_eq!(&got, want, "{label}: jacobian_batch, width {lanes}, lane {l}");
        }
    }
}

#[test]
fn generated_models_match_the_oracle() {
    for seed in [1, 7, 23] {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_parity(&SbGen::new(24, 32).generate(&mut rng), &format!("sbgen seed {seed}"));
        let wide = SbGen::new(12, 96).generate(&mut rng);
        for order in 0..=2 {
            let model = of_order(&wide, order);
            assert!(model.n_reactions() > 0, "seed {seed}: no reaction of order {order}");
            assert_parity(&model, &format!("sbgen seed {seed}, order-{order} reactions only"));
        }
    }
}

/// `model`'s species with only its reactions of `order`: a model whose
/// every reaction has one shape.
fn of_order(model: &ReactionBasedModel, order: u32) -> ReactionBasedModel {
    let mut out = ReactionBasedModel::new();
    for s in model.species() {
        out.add_species(s.name.clone(), s.initial_concentration);
    }
    for r in model.reactions().iter().filter(|r| r.order() == order) {
        out.add_reaction(r.clone()).unwrap();
    }
    out
}

#[test]
fn bundled_models_match_the_oracle() {
    assert_parity(&autophagy::model(1.0, 1.0), "autophagy");
    assert_parity(&autophagy::scaled_model(3.0, 0.5, 0.25), "autophagy scaled");
    assert_parity(&metabolic::model(), "metabolic");
    assert_parity(&classic::robertson(), "robertson");
    assert_parity(&classic::brusselator(1.0, 3.0), "brusselator");
    assert_parity(&classic::lotka_volterra(1.0, 0.5, 0.8), "lotka-volterra");
    assert_parity(&classic::decay_chain(5), "decay chain");
    assert_parity(&classic::enzyme_mechanism(10.0, 1.0, 0.5), "enzyme mechanism");
    assert_parity(&classic::oregonator(), "oregonator");
}

#[test]
fn shapes_outside_the_common_four_match_the_oracle() {
    let mut model = ReactionBasedModel::new();
    let ids: Vec<_> = [0.9, 1.3, 0.4, 2.1]
        .iter()
        .enumerate()
        .map(|(i, &x0)| model.add_species(format!("S{i}"), x0))
        .collect();
    let (a, b, c, d) = (ids[0], ids[1], ids[2], ids[3]);
    let reactions = [
        Reaction::mass_action(&[(a, 3)], &[(b, 1)], 0.7), // order 3
        Reaction::mass_action(&[(a, 5)], &[(d, 2)], 0.3), // a power that squares twice
        Reaction::mass_action(&[(a, 1), (b, 1), (c, 1)], &[(d, 1)], 1.9), // three reactants
        Reaction::mass_action(&[(a, 2), (b, 1)], &[(c, 3)], 0.6), // mixed orders
        Reaction::mass_action(&[(b, 1), (a, 2)], &[(c, 1)], 0.2), // ... the other way round
        Reaction::mass_action(&[(c, 1), (c, 1)], &[(a, 1)], 1.1), // a species listed twice
        Reaction::mass_action(&[(d, 1), (b, 1), (d, 2)], &[(d, 4)], 0.05), // ... around another
        Reaction::mass_action(&[], &[(a, 1)], 4.0),
        Reaction::mass_action(&[(d, 1)], &[], 0.8),
        Reaction::mass_action(&[(b, 1), (d, 1)], &[(b, 1), (a, 1)], 2.5), // a catalyst
    ];
    for r in reactions {
        model.add_reaction(r).unwrap();
    }
    assert_parity(&model, "hand-built shapes");
}
