//! End-to-end integration: model I/O → job → engines → trajectories.

use paraspace::engine::{
    CoarseEngine, CpuEngine, CpuSolverKind, FineCoarseEngine, FineEngine, SimulationJob, Simulator,
};
use paraspace::models::classic;
use paraspace::rbm::{biosimware, perturbed_batch, sbgen::SbGen, sbml};
use paraspace::solvers::SolverOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A model written to disk, read back, and simulated must produce the same
/// trajectories as the in-memory original, on every engine.
#[test]
fn disk_roundtrip_preserves_dynamics_across_engines() {
    let mut rng = StdRng::seed_from_u64(77);
    let model = SbGen::new(12, 15).generate(&mut rng);
    let dir = std::env::temp_dir().join(format!("paraspace_it_{}", std::process::id()));
    biosimware::write_dir(&model, &dir).expect("write");
    let restored = biosimware::read_dir(&dir).expect("read");
    std::fs::remove_dir_all(&dir).ok();

    let times = vec![0.5, 1.0];
    let job_a = SimulationJob::builder(&model)
        .time_points(times.clone())
        .replicate(3)
        .build()
        .expect("job");
    let job_b =
        SimulationJob::builder(&restored).time_points(times).replicate(3).build().expect("job");

    let engines: Vec<Box<dyn Simulator>> = vec![
        Box::new(CpuEngine::new(CpuSolverKind::Lsoda)),
        Box::new(CoarseEngine::new()),
        Box::new(FineEngine::new()),
        Box::new(FineCoarseEngine::new()),
    ];
    for engine in &engines {
        let ra = engine.run(&job_a).expect("run a");
        let rb = engine.run(&job_b).expect("run b");
        for (oa, ob) in ra.outcomes.iter().zip(&rb.outcomes) {
            let (sa, sb) =
                (oa.solution.as_ref().expect("member a"), ob.solution.as_ref().expect("member b"));
            for (xa, xb) in sa.last_state().unwrap().iter().zip(sb.last_state().unwrap()) {
                assert!(
                    (xa - xb).abs() <= 1e-9 * xa.abs().max(1e-9),
                    "{}: {xa} vs {xb}",
                    engine.name()
                );
            }
        }
    }
}

/// All four engines produce mutually consistent trajectories on the same
/// job (they share the numerics; they differ only in scheduling).
#[test]
fn engines_agree_on_robertson() {
    let model = classic::robertson();
    let opts = SolverOptions { max_steps: 200_000, ..SolverOptions::default() };
    let job = SimulationJob::builder(&model)
        .time_points(vec![0.4, 4.0])
        .replicate(1)
        .options(opts)
        .build()
        .expect("job");
    let reference = CpuEngine::new(CpuSolverKind::Lsoda).run(&job).expect("cpu");
    let rs = reference.outcomes[0].solution.as_ref().expect("cpu sol");
    let others: Vec<Box<dyn Simulator>> = vec![
        Box::new(FineCoarseEngine::new()),
        Box::new(CoarseEngine::new()),
        Box::new(FineEngine::new()),
        Box::new(CpuEngine::new(CpuSolverKind::Vode)),
    ];
    for engine in &others {
        let r = engine.run(&job).expect("run");
        let s = r.outcomes[0].solution.as_ref().expect("sol");
        for i in 0..2 {
            for (a, b) in s.state_at(i).iter().zip(rs.state_at(i)) {
                assert!(
                    (a - b).abs() < 2e-4,
                    "{} deviates at sample {i}: {a} vs {b}",
                    engine.name()
                );
            }
        }
    }
}

/// SBML exported from a model and re-imported simulates identically.
#[test]
fn sbml_roundtrip_preserves_dynamics() {
    let mut rng = StdRng::seed_from_u64(4);
    let model = SbGen::new(8, 10).generate(&mut rng);
    let reimported = sbml::from_str(&sbml::to_string(&model)).expect("sbml");
    let times = vec![1.0];
    let engine = CpuEngine::new(CpuSolverKind::Lsoda);
    let job1 = SimulationJob::builder(&model)
        .time_points(times.clone())
        .replicate(1)
        .build()
        .expect("job");
    let job2 =
        SimulationJob::builder(&reimported).time_points(times).replicate(1).build().expect("job");
    let s1 = engine.run(&job1).expect("r1").outcomes.remove(0).solution.expect("s1");
    let s2 = engine.run(&job2).expect("r2").outcomes.remove(0).solution.expect("s2");
    for (a, b) in s1.state_at(0).iter().zip(s2.state_at(0)) {
        assert!((a - b).abs() < 1e-10 * a.abs().max(1e-10));
    }
}

/// The phase pipeline splits a mixed batch correctly: non-stiff members on
/// DOPRI5, stiff members on RADAU5, all trajectories correct.
#[test]
fn mixed_batch_routing() {
    use paraspace::rbm::{Parameterization, Reaction, ReactionBasedModel};
    let mut m = ReactionBasedModel::new();
    let a = m.add_species("A", 1.0);
    let b = m.add_species("B", 0.0);
    m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1.0)).expect("r");
    m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 0.5)).expect("r");
    let rates: Vec<f64> = vec![0.1, 1.0, 1e3, 1e5];
    let batch: Vec<Parameterization> = rates
        .iter()
        .map(|&k| Parameterization::new().with_rate_constants(vec![k, k * 0.5]))
        .collect();
    let job = SimulationJob::builder(&m)
        .time_points(vec![2.0])
        .parameterizations(batch)
        .build()
        .expect("job");
    let r = FineCoarseEngine::new().run(&job).expect("run");
    assert_eq!(r.success_count(), 4);
    assert!(!r.outcomes[0].stiff && !r.outcomes[1].stiff);
    assert!(r.outcomes[3].stiff);
    // Two members classify stiff, so P4 runs them as a lockstep Radau
    // lane group rather than scalar solves.
    assert_eq!(r.outcomes[3].solver, "radau5-lanes");
    // Equilibrium A/(A+B): k_back/(k_fwd + k_back) = 1/3 for every member.
    for o in &r.outcomes {
        let s = o.solution.as_ref().expect("sol");
        let total: f64 = s.state_at(0).iter().sum();
        assert!((total - 1.0).abs() < 1e-5, "mass conservation");
    }
    // The fast members are already at equilibrium by t = 2.
    let eq = r.outcomes[3].solution.as_ref().unwrap().state_at(0)[0];
    assert!((eq - 1.0 / 3.0).abs() < 1e-3, "equilibrium {eq}");
}

/// How the two lockstep phases are scheduled — how many workers share the
/// member queues, how wide the lane groups are — is not observable: a
/// batch with gentle members, members DOPRI5 hands over mid-run and members
/// P2 already calls stiff gives every member the same trajectory and
/// `StepStats` at any thread count and lane width, and the same modelled
/// time at any thread count.
#[test]
fn stiff_batch_is_identical_at_any_thread_count_and_lane_width() {
    use paraspace::rbm::{Parameterization, Reaction, ReactionBasedModel};
    let mut m = ReactionBasedModel::new();
    let a = m.add_species("A", 1.0);
    let b = m.add_species("B", 0.0);
    m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1.0)).expect("r");
    m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 0.5)).expect("r");
    // |λ| = 1.5·k from 0.75 to 2.5·10⁴, a factor of 2 apart.
    let batch: Vec<Parameterization> = (0..16)
        .map(|i| 0.5 * 2f64.powi(i))
        .map(|k| Parameterization::new().with_rate_constants(vec![k, k * 0.5]))
        .collect();
    let job = SimulationJob::builder(&m)
        .time_points(vec![1.0, 10.0, 50.0])
        .parameterizations(batch)
        .build()
        .expect("job");

    let run = |threads: usize, width: usize| {
        FineCoarseEngine::new().with_threads(threads).with_lane_width(width).run(&job).expect("run")
    };
    let scalar = run(1, 1);
    assert_eq!(scalar.success_count(), 16);
    assert!(scalar.outcomes.iter().any(|o| o.solver == "dopri5"));
    assert!(scalar.outcomes.iter().filter(|o| o.rerouted).count() >= 2, "hand-overs");
    assert!(scalar.outcomes.iter().filter(|o| o.stiff).count() >= 2, "P2-stiff members");
    for width in [1, 4, 8] {
        let reference = run(1, width);
        let on_lanes = reference.outcomes.iter().filter(|o| o.solver == "radau5-lanes").count();
        assert_eq!(on_lanes > 0, width > 1, "width {width}: {on_lanes} members on Radau lanes");
        for (i, (got, want)) in reference.outcomes.iter().zip(&scalar.outcomes).enumerate() {
            assert_eq!(got.solution, want.solution, "width {width}: member {i}");
        }
        for threads in [2, 4] {
            let parallel = run(threads, width);
            for (i, (got, want)) in parallel.outcomes.iter().zip(&reference.outcomes).enumerate() {
                let label = format!("width {width}, {threads} threads: member {i}");
                assert_eq!(got.solution, want.solution, "{label}");
                assert_eq!(got.solver, want.solver, "{label}");
            }
            assert_eq!(
                parallel.timing.simulated_total_ns, reference.timing.simulated_total_ns,
                "width {width}, {threads} threads"
            );
        }
    }
}

/// Batch of perturbed parameterizations: per-member results differ but all
/// stay within physical bounds.
#[test]
fn perturbed_batch_members_vary_but_stay_physical() {
    let mut rng = StdRng::seed_from_u64(21);
    let model = SbGen::new(10, 10).generate(&mut rng);
    let batch = perturbed_batch(&model, 16, &mut rng);
    let job = SimulationJob::builder(&model)
        .time_points(vec![1.0])
        .parameterizations(batch)
        .build()
        .expect("job");
    let r = FineCoarseEngine::new().run(&job).expect("run");
    let finals: Vec<Vec<f64>> = r.solutions().map(|s| s.state_at(0).to_vec()).collect();
    assert!(finals.len() >= 14, "almost all members should integrate");
    // A single component can sit at a shared equilibrium (or be disconnected
    // in the generated network), so look for variation anywhere in the state.
    let distinct = finals
        .iter()
        .filter(|f| f.iter().zip(&finals[0]).any(|(x, y)| (x - y).abs() > 1e-12))
        .count();
    assert!(distinct > 0, "perturbed members must differ");
    for s in r.solutions() {
        for &x in s.state_at(0) {
            assert!(x >= -1e-6, "concentrations must stay non-negative-ish: {x}");
            assert!(x.is_finite());
        }
    }
}
