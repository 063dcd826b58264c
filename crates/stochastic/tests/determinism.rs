//! The bitwise determinism contract of the stochastic ensemble engine.
//!
//! Counter-based per-replicate RNG streams make every replicate's
//! trajectory a pure function of `(seed, member, replicate)`; lane width,
//! lane packing order, thread count, and shard decomposition are pure
//! scheduling. These tests pin that contract from the outside — through
//! the public `StochasticBatch` API and the raw `TauLeapBatch` kernel —
//! and check the statistics side: batched tau-leaping must agree with the
//! exact SSA distributionally.

use paraspace_rbm::{Reaction, ReactionBasedModel};
use paraspace_stochastic::{
    initial_counts, CounterRng, DirectMethod, LaneAccounting, PropensityTable, StochFault,
    StochFaultPlan, StochasticBatch, StochasticError, StochasticSimulator, TauLeapBatch,
    TauLeaping,
};

/// Reversible isomerization with populations large enough to leap.
fn isomerization() -> ReactionBasedModel {
    let mut m = ReactionBasedModel::new();
    let a = m.add_species("A", 40_000.0);
    let b = m.add_species("B", 10_000.0);
    m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 2.0)).unwrap();
    m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 1.0)).unwrap();
    m
}

/// A dimerization pushes second-order combinatorics through the lanes.
fn dimerization() -> ReactionBasedModel {
    let mut m = ReactionBasedModel::new();
    let a = m.add_species("A", 30_000.0);
    let d = m.add_species("D", 0.0);
    m.add_reaction(Reaction::mass_action(&[(a, 2)], &[(d, 1)], 1e-4)).unwrap();
    m.add_reaction(Reaction::mass_action(&[(d, 1)], &[(a, 2)], 0.5)).unwrap();
    m
}

#[test]
fn ensembles_are_bitwise_identical_across_widths_and_threads() {
    let times = [0.1, 0.3, 0.7];
    for model in [isomerization(), dimerization()] {
        let base = StochasticBatch::new(TauLeaping::new()).with_seed(4242);
        let reference =
            base.clone().with_lane_width(Some(1)).with_threads(1).run(&model, &times, 21).unwrap();
        for width in [2usize, 4, 8] {
            for threads in [1usize, 2, 8] {
                let run = base
                    .clone()
                    .with_lane_width(Some(width))
                    .with_threads(threads)
                    .run(&model, &times, 21)
                    .unwrap();
                assert_eq!(
                    run.outcomes, reference.outcomes,
                    "width {width} × threads {threads} must be pure scheduling"
                );
                assert_eq!(run.stats, reference.stats);
            }
        }
    }
}

/// The two-stage gene-expression network (mRNA birth and decay,
/// translation, protein decay), starting empty.
fn gene_expression() -> ReactionBasedModel {
    let mut m = ReactionBasedModel::new();
    let mrna = m.add_species("mRNA", 0.0);
    let protein = m.add_species("protein", 0.0);
    m.add_reaction(Reaction::mass_action(&[], &[(mrna, 1)], 1200.0)).unwrap();
    m.add_reaction(Reaction::mass_action(&[(mrna, 1)], &[], 2.0)).unwrap();
    m.add_reaction(Reaction::mass_action(&[(mrna, 1)], &[(mrna, 1), (protein, 1)], 10.0)).unwrap();
    m.add_reaction(Reaction::mass_action(&[(protein, 1)], &[], 1.0)).unwrap();
    m
}

#[test]
fn unpinned_ensembles_run_the_full_width_even_from_empty_counts() {
    // Nothing is populated at t = 0, yet an unpinned ensemble runs the tau
    // kernel at the full width — and it is the scalar route, bit for bit.
    let (model, times) = (gene_expression(), [0.5, 1.0, 2.0]);
    let base = StochasticBatch::new(TauLeaping::new()).with_seed(31);
    let scalar = base.clone().with_lane_width(Some(1)).run(&model, &times, 24).unwrap();
    for threads in [1, 2] {
        let run = base.clone().with_threads(threads).run(&model, &times, 24).unwrap();
        assert_eq!(run.lane_width, 8, "threads {threads}");
        assert_eq!(run.outcomes, scalar.outcomes, "threads {threads}");
        assert_eq!(run.stats, scalar.stats, "threads {threads}");
        assert_eq!(run.simulated_ns.to_bits(), scalar.simulated_ns.to_bits(), "threads {threads}");
    }
}

#[test]
fn lane_accounting_and_device_time_are_pinned() {
    // The bill is a fold over per-replicate ticks in replicate order, one
    // modelled group per `4·width` lane replicates, whichever host group
    // ran them. Recorded before the ensemble moved onto the shared lane
    // queue, when each fixed host unit billed its own report: a width that
    // divides nothing, a range that starts off zero, and a poisoned
    // replicate, at one and two workers. The lane counts again when the
    // poisoned replicate joined the lanes instead of the scalar path (its
    // two ticks, and the packing of every modelled group after it).
    let model = dimerization();
    for threads in [1, 2] {
        let run = StochasticBatch::new(TauLeaping::new())
            .with_seed(4242)
            .with_lane_width(Some(3))
            .with_threads(threads)
            .with_faults(StochFaultPlan::new().poison(9, StochFault::nan(0, 1)))
            .run_range(&model, &[0.1, 0.3, 0.7], 5..45)
            .unwrap();
        let pinned =
            LaneAccounting { groups: 4, slot_steps: 35_508, lane_steps: 32_911, max_width: 3 };
        assert_eq!(run.lanes, Some(pinned), "threads {threads}");
        assert_eq!(run.simulated_ns.to_bits(), 0x4110_1102_3b88_ee24, "threads {threads}");
    }
}

#[test]
fn lane_packing_order_is_invisible_per_replicate() {
    // Feed the raw kernel the same replicate streams in three packing
    // orders; each replicate's trajectory must match its own scalar run
    // regardless of which lane (or group) it landed in.
    let model = isomerization();
    let table = PropensityTable::new(&model);
    let x0 = initial_counts(&model);
    let times = [0.2, 0.5];
    let scalar: Vec<_> = (0..12u64)
        .map(|i| {
            let mut rng = CounterRng::replicate_stream(99, 0, i);
            TauLeaping::new().simulate_counts(&table, &x0, &times, &mut rng, &[]).unwrap()
        })
        .collect();
    let orders: [Vec<u64>; 3] =
        [(0..12).collect(), (0..12).rev().collect(), vec![5, 0, 7, 2, 11, 4, 9, 1, 6, 3, 10, 8]];
    for order in orders {
        let streams: Vec<CounterRng> =
            order.iter().map(|&i| CounterRng::replicate_stream(99, 0, i)).collect();
        let (outs, _) = TauLeapBatch::new().run(&table, &x0, &times, 4, &streams);
        for (slot, &rep) in order.iter().enumerate() {
            assert_eq!(
                outs[slot].as_ref().unwrap(),
                &scalar[rep as usize],
                "replicate {rep} packed at slot {slot} must not notice"
            );
        }
    }
}

#[test]
fn shards_and_full_runs_agree_bitwise() {
    let model = dimerization();
    let batch = StochasticBatch::new(TauLeaping::new()).with_seed(7).with_threads(4);
    let full = batch.run(&model, &[0.4], 30).unwrap();
    let mut stitched = Vec::new();
    for lo in [0usize, 11, 19] {
        let hi = [11usize, 19, 30][[0usize, 11, 19].iter().position(|&x| x == lo).unwrap()];
        stitched.extend(batch.run_range(&model, &[0.4], lo..hi).unwrap().outcomes);
    }
    assert_eq!(full.outcomes, stitched);
}

#[test]
fn chaos_fault_is_contained_to_its_replicate() {
    let model = isomerization();
    let clean = StochasticBatch::new(TauLeaping::new()).with_seed(31).with_threads(2);
    let plan = StochFaultPlan::new().poison(7, StochFault::nan(1, 3));
    let faulty = clean.clone().with_faults(plan);
    let a = clean.run(&model, &[0.3], 16).unwrap();
    let b = faulty.run(&model, &[0.3], 16).unwrap();
    assert!(
        matches!(b.outcomes[7], Err(StochasticError::BadPropensity { reaction: 1, .. })),
        "fault must surface as a typed per-replicate error: {:?}",
        b.outcomes[7]
    );
    for i in (0..16).filter(|&i| i != 7) {
        assert_eq!(a.outcomes[i], b.outcomes[i], "replicate {i} contaminated by the fault");
    }
    // Re-running re-faults identically (deterministic containment).
    let c = faulty.run(&model, &[0.3], 16).unwrap();
    assert_eq!(b.outcomes, c.outcomes);
}

#[test]
fn batched_tau_agrees_with_exact_ssa_distributionally() {
    // Reversible isomerization equilibrium: E[A] = (k₋/(k₊+k₋))·N = N/3,
    // with binomial-like fluctuations Var[A] ≈ N·(1/3)(2/3). Compare the
    // lane-batched tau-leaping ensemble against the exact SSA ensemble.
    let mut m = ReactionBasedModel::new();
    let a = m.add_species("A", 3000.0);
    let b = m.add_species("B", 0.0);
    m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 2.0)).unwrap();
    m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 1.0)).unwrap();
    let t = [6.0];
    let n = 3000.0;
    let tau = StochasticBatch::new(TauLeaping::new())
        .with_seed(55)
        .with_threads(4)
        .run(&m, &t, 256)
        .unwrap();
    let ssa = StochasticBatch::new(DirectMethod::new())
        .with_seed(56)
        .with_threads(4)
        .run(&m, &t, 256)
        .unwrap();
    assert!(tau.lane_width >= 2, "this ensemble must exercise the lane path");
    let exact_mean = n / 3.0;
    let exact_var = n * (1.0 / 3.0) * (2.0 / 3.0);
    for (label, run) in [("tau", &tau), ("ssa", &ssa)] {
        let mean = run.stats.mean[0][0];
        let var = run.stats.variance[0][0];
        assert!(
            (mean - exact_mean).abs() < 3.0 * (exact_var / 256.0).sqrt() + 3.0,
            "{label} mean {mean} vs {exact_mean}"
        );
        assert!(
            (var - exact_var).abs() < 0.35 * exact_var,
            "{label} variance {var} vs {exact_var}"
        );
    }
    // The two methods agree with each other, not just with theory.
    assert!(
        (tau.stats.mean[0][0] - ssa.stats.mean[0][0]).abs() < 3.0 * (exact_var / 128.0).sqrt(),
        "tau {} vs ssa {}",
        tau.stats.mean[0][0],
        ssa.stats.mean[0][0]
    );
}

#[test]
fn counter_streams_decorrelate_members_and_seeds() {
    let model = isomerization();
    let base = StochasticBatch::new(TauLeaping::new());
    let s1 = base.clone().with_seed(1).run(&model, &[0.2], 6).unwrap();
    let s2 = base.clone().with_seed(2).run(&model, &[0.2], 6).unwrap();
    let m1 = base.clone().with_seed(1).with_member(9).run(&model, &[0.2], 6).unwrap();
    assert_ne!(s1.outcomes, s2.outcomes, "seeds must decorrelate");
    assert_ne!(s1.outcomes, m1.outcomes, "members must decorrelate");
}
