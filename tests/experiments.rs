//! Scaled-down versions of the evaluation's headline claims, asserted as
//! integration tests so the reproduction's *shape* is continuously
//! checked (the bench binaries print the full tables).
//!
//! These tests execute thousands of real integrations, so they are gated
//! to optimized builds: run them with `cargo test --release --test
//! experiments` (plain debug `cargo test` marks them ignored).

use paraspace::analysis::campaign::evaluate_points;
use paraspace::analysis::oscillation;
use paraspace::analysis::psa::{Axis, Psa2d};
use paraspace::analysis::sobol::SaltelliPlan;
use paraspace::analysis::throughput::{hours_ns, simulations_within_budget};
use paraspace::engine::{
    CoarseEngine, CpuEngine, CpuSolverKind, FineCoarseEngine, FineEngine, SimulationJob, Simulator,
};
use paraspace::models::{autophagy, metabolic};
use paraspace::rbm::{perturbed_batch, sbgen::SbGen, Parameterization};
use paraspace::solvers::SolverOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn timings(
    model: &paraspace::rbm::ReactionBasedModel,
    sims: usize,
    seed: u64,
) -> Vec<(&'static str, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let batch = perturbed_batch(model, sims, &mut rng);
    let opts = SolverOptions { max_steps: 100_000, ..SolverOptions::default() };
    let engines: Vec<Box<dyn Simulator>> = vec![
        Box::new(CpuEngine::new(CpuSolverKind::Lsoda)),
        Box::new(CoarseEngine::new()),
        Box::new(FineEngine::new()),
        Box::new(FineCoarseEngine::new()),
    ];
    engines
        .iter()
        .map(|e| {
            let job = SimulationJob::builder(model)
                .time_points(vec![0.5, 1.0])
                .parameterizations(batch.clone())
                .options(opts.clone())
                .build()
                .expect("job");
            (e.name(), e.run(&job).expect("run").timing.simulated_total_ns)
        })
        .collect()
}

fn winner(cell: &[(&'static str, f64)]) -> &'static str {
    cell.iter().min_by(|a, b| a.1.partial_cmp(&b.1).unwrap()).unwrap().0
}

/// E1 shape: CPU wins single simulations of small models; the fine+coarse
/// engine wins large batches.
#[test]
#[cfg_attr(debug_assertions, ignore = "shape tests run in release builds: cargo test --release")]
fn comparison_map_shape() {
    let mut rng = StdRng::seed_from_u64(1);
    let small = SbGen::new(12, 12).generate(&mut rng);
    let single = timings(&small, 1, 2);
    assert_eq!(winner(&single), "lsoda-cpu", "single small sim: {single:?}");

    let batch = timings(&small, 256, 3);
    let w = winner(&batch);
    assert!(w == "fine-coarse" || w == "coarse", "large batches belong to a GPU engine: {batch:?}");
    // And the fine+coarse engine must beat the CPU outright there.
    let cpu = batch.iter().find(|c| c.0 == "lsoda-cpu").unwrap().1;
    let fc = batch.iter().find(|c| c.0 == "fine-coarse").unwrap().1;
    assert!(fc < cpu / 3.0, "expected a clear GPU win: cpu {cpu}, fc {fc}");
}

/// E2/E3 shape: the fine-grained baseline loses badly on many-simulation
/// batches (serialization), and the coarse baseline loses its edge on
/// models that overflow on-chip memory.
#[test]
#[cfg_attr(debug_assertions, ignore = "shape tests run in release builds: cargo test --release")]
fn asymmetric_engine_weaknesses() {
    let mut rng = StdRng::seed_from_u64(9);
    let model = SbGen::new(24, 24).generate(&mut rng);
    let cell = timings(&model, 64, 10);
    let fine = cell.iter().find(|c| c.0 == "fine").unwrap().1;
    let fc = cell.iter().find(|c| c.0 == "fine-coarse").unwrap().1;
    assert!(fine > 5.0 * fc, "fine-only must serialize badly on batches: {cell:?}");
}

/// E4 shape: the PSA-2D plane splits into oscillating and quiescent
/// regions matching the analytic Hopf boundary.
#[test]
#[cfg_attr(debug_assertions, ignore = "shape tests run in release builds: cargo test --release")]
fn psa_plane_matches_hopf_boundary() {
    let scale = 0.04;
    let model = autophagy::scaled_model(1e3, 1e-7, scale);
    let sweep =
        Psa2d::new(Axis::linear("ampk", 0.0, 1e4, 4), Axis::logarithmic("p9", 1e-9, 1e-6, 4))
            .options(SolverOptions { max_steps: 100_000, ..SolverOptions::default() });
    let times: Vec<f64> = (1..=100).map(|i| 20.0 + i as f64 * 0.5).collect();
    let engine = FineCoarseEngine::new();
    let readout = model.species_by_name(autophagy::AMBRA_SPECIES).unwrap().index();
    let result = sweep
        .run(
            &model,
            |ampk0, p9| {
                let m = autophagy::scaled_model(ampk0, p9, scale);
                Parameterization::new()
                    .with_initial_state(m.initial_state())
                    .with_rate_constants(m.rate_constants())
            },
            times,
            &engine,
            |sol| oscillation::amplitude(&sol.component(readout)),
        )
        .expect("sweep");
    let mut agree = 0;
    let mut total = 0;
    for (i, &a0) in result.axis1.values().iter().enumerate() {
        for (j, &p9) in result.axis2.values().iter().enumerate() {
            total += 1;
            if autophagy::oscillates(a0, p9) == (result.value(i, j) > 1e-2) {
                agree += 1;
            }
        }
    }
    assert!(agree * 100 >= total * 80, "Hopf-boundary agreement too low: {agree}/{total}");
    // Both phases must actually occur in the plane.
    assert!(result.fraction_above(1e-2) > 0.1);
    assert!(result.fraction_above(1e-2) < 0.9);
}

/// E5 shape: the four dead-end HK complexes carry higher total-order
/// sensitivity than the seven catalytic-cycle species.
#[test]
#[cfg_attr(debug_assertions, ignore = "shape tests run in release builds: cargo test --release")]
fn sobol_dead_end_dominance() {
    let model = metabolic::model();
    let plan = SaltelliPlan::new(11, 24);
    let points = plan.scaled(&[metabolic::HK_SAMPLING_RANGE; 11]);
    let r5p = model.species_by_name(metabolic::OUTPUT_SPECIES).unwrap().index();
    let opts = SolverOptions { max_steps: 200_000, ..SolverOptions::default() };
    let engine = FineCoarseEngine::new();
    let mut outputs = evaluate_points(
        &model,
        &points,
        |hk| {
            Parameterization::new().with_initial_state(metabolic::initial_state_with_hk(&model, hk))
        },
        &[metabolic::TIME_WINDOW_HOURS],
        &opts,
        &engine,
        |sol| sol.state_at(0)[r5p],
        192,
        None,
    )
    .expect("evaluation")
    .outputs;
    let mean = outputs.iter().cloned().filter(|v| v.is_finite()).sum::<f64>()
        / outputs.iter().filter(|v| v.is_finite()).count().max(1) as f64;
    for v in &mut outputs {
        if !v.is_finite() {
            *v = mean;
        }
    }
    let mut rng = StdRng::seed_from_u64(5);
    let idx = plan.analyze(&outputs, 50, 0.95, &mut rng);
    let dead_end_mean = [7, 8, 9, 10].iter().map(|&i| idx[i].st).sum::<f64>() / 4.0;
    let cycle_mean = (0..7).map(|i| idx[i].st).sum::<f64>() / 7.0;
    assert!(
        dead_end_mean > cycle_mean,
        "dead-end ST {dead_end_mean:.3} must exceed cycle ST {cycle_mean:.3}"
    );
}

/// E4/E6 shape: within the same simulated budget the fine+coarse engine
/// completes far more simulations than the CPU baselines — on the
/// *published-scale* network (173 species, 6581 reactions); on tiny
/// models the CPU legitimately wins, as the comparison maps show.
#[test]
#[cfg_attr(debug_assertions, ignore = "shape tests run in release builds: cargo test --release")]
fn budget_throughput_ordering() {
    let model = autophagy::model(1e3, 1e-7);
    let times: Vec<f64> = (1..=10).map(|i| i as f64).collect();
    let budget = hours_ns(1.0);
    let run = |engine: &dyn Simulator| {
        simulations_within_budget(
            &model,
            |_| Parameterization::new(),
            times.clone(),
            engine,
            64,
            budget,
        )
        .expect("probe")
        .simulations_in_budget
    };
    let fc = run(&FineCoarseEngine::new());
    let lsoda = run(&CpuEngine::new(CpuSolverKind::Lsoda));
    let vode = run(&CpuEngine::new(CpuSolverKind::Vode));
    assert!(fc > 5 * lsoda, "fine-coarse {fc} vs lsoda {lsoda}");
    assert!(fc > 5 * vode, "fine-coarse {fc} vs vode {vode}");
}

/// A1 shape: per-simulation cost stops improving once the batch exceeds
/// the dynamic-parallelism saturation point.
#[test]
#[cfg_attr(debug_assertions, ignore = "shape tests run in release builds: cargo test --release")]
fn dp_saturation_caps_batch_scaling() {
    let mut rng = StdRng::seed_from_u64(31);
    let model = SbGen::new(16, 16).generate(&mut rng);
    let opts = SolverOptions { max_steps: 100_000, ..SolverOptions::default() };
    let per_sim = |sims: usize| {
        let batch = perturbed_batch(&model, sims, &mut StdRng::seed_from_u64(32));
        let job = SimulationJob::builder(&model)
            .time_points(vec![1.0])
            .parameterizations(batch)
            .options(opts.clone())
            .build()
            .expect("job");
        FineCoarseEngine::new().run(&job).expect("run").timing.simulated_total_ns / sims as f64
    };
    let at_256 = per_sim(256);
    let at_512 = per_sim(512);
    let at_4096 = per_sim(4096);
    assert!(at_512 < at_256 * 1.05, "512 should be at least as good as 256");
    assert!(
        at_4096 > at_512 * 1.2,
        "past the DP knee the per-simulation cost must degrade: {at_4096} vs {at_512}"
    );
}
