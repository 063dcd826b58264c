//! Sensitivity bitwise determinism: per-member forward sensitivities must
//! be byte-identical however the host schedules the members.
//!
//! The staggered stiff path (`Radau5Sens`) solves one member per call, so
//! its thread invariance is checked as threaded runs against a sequential
//! reference.

use paraspace_core::RbmSensSystem;
use paraspace_rbm::{Reaction, ReactionBasedModel};
use paraspace_solvers::{Radau5Sens, SensSolution, SolverOptions};

/// A 3-species loop with distinct per-member constants: enough structure
/// for non-trivial Jacobian coupling, cheap enough for a matrix of runs.
fn loop_model() -> ReactionBasedModel {
    let mut m = ReactionBasedModel::new();
    let a = m.add_species("A", 1.0);
    let b = m.add_species("B", 0.2);
    let c = m.add_species("C", 0.0);
    m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1.0)).unwrap();
    m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(c, 1)], 0.7)).unwrap();
    m.add_reaction(Reaction::mass_action(&[(c, 1)], &[(a, 1)], 0.3)).unwrap();
    m.add_reaction(Reaction::mass_action(&[(a, 1), (b, 1)], &[(c, 1)], 0.05)).unwrap();
    m
}

fn member_constants(count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| {
            let f = 1.0 + 0.13 * i as f64;
            vec![1.0 * f, 0.7 / f, 0.3 * f, 0.05]
        })
        .collect()
}

#[test]
fn staggered_radau_sens_is_bitwise_independent_of_thread_count() {
    let m = loop_model();
    let odes = m.compile().unwrap();
    let which = vec![0usize, 1];
    let ks = member_constants(8);
    let x0 = m.initial_state();
    let times = [0.5, 2.0];
    let opts = SolverOptions::default();

    let solve_one = |k: &Vec<f64>| -> SensSolution {
        let sys = RbmSensSystem::new(&odes, k.clone(), which.clone());
        Radau5Sens::new().solve(&sys, 0.0, &x0, &times, &opts).unwrap()
    };

    let sequential: Vec<SensSolution> = ks.iter().map(solve_one).collect();
    let threaded: Vec<SensSolution> = std::thread::scope(|scope| {
        let solve_one = &solve_one;
        let handles: Vec<_> = ks.iter().map(|k| scope.spawn(move || solve_one(k))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for i in 0..ks.len() {
        assert_eq!(sequential[i].solution.states, threaded[i].solution.states, "member {i}");
        assert_eq!(sequential[i].sens, threaded[i].sens, "member {i} sensitivities");
    }
}
