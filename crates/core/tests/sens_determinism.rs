//! Sensitivity-lane bitwise determinism: per-member forward sensitivities
//! must be byte-identical across lane widths {2, 4, 8} and thread counts
//! {1, 8}.
//!
//! The augmented system `[y; s₀; …; s_{p−1}]` rides through `Dopri5Batch`
//! as extra SoA rows; the lockstep contract (every lane an unshared
//! dependency chain, evaluated in the same order at any width) must carry
//! over to the widened state, and host-parallel partitioning of the member
//! queue must not perturb a single bit either. The stiff staggered path
//! (`Radau5Sens`) is scalar per member, so its thread invariance is checked
//! the same way: partitioned runs against a sequential reference.

use paraspace_core::{RbmSensBatchSystem, RbmSensSystem};
use paraspace_rbm::{Reaction, ReactionBasedModel};
use paraspace_solvers::{
    Dopri5Batch, Radau5Sens, SensSolution, Solution, SolverOptions, SolverScratch,
};

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

/// Solves every member through the lockstep augmented lanes at `width`.
fn solve_lanes(
    odes: &paraspace_rbm::CompiledOdes,
    which: &[usize],
    ks: &[Vec<f64>],
    x0: &[f64],
    times: &[f64],
    width: usize,
) -> Vec<Solution> {
    let mut sys = RbmSensBatchSystem::new(odes, which.to_vec(), width);
    for k in ks {
        sys.push_member(x0, k);
    }
    let mut scratch = SolverScratch::new();
    let (results, _) = Dopri5Batch::new().solve_group(
        &mut sys,
        0.0,
        times,
        &SolverOptions::default(),
        &mut scratch,
    );
    results.into_iter().map(|r| r.expect("member must integrate")).collect()
}

#[test]
fn sens_lanes_are_bitwise_independent_of_lane_width() {
    let m = loop_model();
    let odes = m.compile().unwrap();
    let which = [0usize, 1, 3];
    let ks = member_constants(9); // not a multiple of any width: ragged tail
    let x0 = m.initial_state();
    let times = [0.4, 1.1, 2.5];

    let w2 = solve_lanes(&odes, &which, &ks, &x0, &times, 2);
    let w4 = solve_lanes(&odes, &which, &ks, &x0, &times, 4);
    let w8 = solve_lanes(&odes, &which, &ks, &x0, &times, 8);
    for i in 0..ks.len() {
        assert_eq!(w2[i].states, w4[i].states, "member {i}: width 2 vs 4");
        assert_eq!(w2[i].states, w8[i].states, "member {i}: width 2 vs 8");
        assert_eq!(w2[i].stats, w4[i].stats, "member {i}: stats 2 vs 4");
        assert_eq!(w2[i].stats, w8[i].stats, "member {i}: stats 2 vs 8");
    }
}

#[test]
fn sens_lanes_are_bitwise_independent_of_thread_count() {
    let m = loop_model();
    let odes = m.compile().unwrap();
    let which = [0usize, 2];
    let ks = member_constants(16);
    let x0 = m.initial_state();
    let times = [0.5, 1.5];

    // Reference: one thread, one queue.
    let sequential = solve_lanes(&odes, &which, &ks, &x0, &times, 4);

    // 8 threads, each owning a deterministic slice of the member queue
    // with its own lane-group — the shape the host-parallel executor uses.
    let chunk = ks.len().div_ceil(8);
    let partitioned: Vec<Solution> = std::thread::scope(|scope| {
        let handles: Vec<_> = ks
            .chunks(chunk)
            .map(|ks_part| {
                let odes = &odes;
                let x0 = &x0;
                let which = &which;
                scope.spawn(move || solve_lanes(odes, which, ks_part, x0, &times, 4))
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(partitioned.len(), sequential.len());
    for i in 0..ks.len() {
        assert_eq!(sequential[i].states, partitioned[i].states, "member {i}");
        assert_eq!(sequential[i].stats, partitioned[i].stats, "member {i}");
    }
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
