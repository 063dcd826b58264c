//! Experiment E7: parameter estimation of the metabolic model with
//! FST-PSO, priced on the fine+coarse engine vs the CPU baseline
//! (published: ≈30× faster with the GPU engine).
//!
//! A set of kinetic constants is declared "unknown" (78 in the published
//! study; 8 by default here, `PARASPACE_FULL=1` for all 78), target
//! dynamics are produced with the true constants, and the same FST-PSO
//! calibration is run against both engines.

use paraspace_analysis::fitness::FailedMemberPolicy;
use paraspace_analysis::pe::{estimate_with, EstimationProblem, Optimizer};
use paraspace_analysis::pso::PsoConfig;
use paraspace_bench::{fmt_ns, full_scale};
use paraspace_core::{CpuEngine, CpuSolverKind, FineCoarseEngine, SimulationJob, Simulator};
use paraspace_models::metabolic;
use paraspace_solvers::SolverOptions;

fn main() {
    let n_unknown = if full_scale() { 78 } else { 8 };
    let iterations = if full_scale() { 30 } else { 10 };
    let model = metabolic::model();
    println!(
        "model: {} species, {} reactions; estimating {} unknown constants, {} FST-PSO generations",
        model.n_species(),
        model.n_reactions(),
        n_unknown,
        iterations
    );

    // Deterministically pick the unknown constants (spread over the
    // network) and build the target from the true values.
    let stride = model.n_reactions() / n_unknown;
    let unknown: Vec<usize> = (0..n_unknown).map(|i| i * stride).collect();
    let truth = model.rate_constants();
    let log_bounds: Vec<(f64, f64)> = unknown
        .iter()
        .map(|&i| {
            let center = truth[i].max(1e-12).log10();
            (center - 1.5, center + 1.5)
        })
        .collect();
    let times: Vec<f64> = (1..=5).map(|i| i as f64 * 2.0).collect();
    let opts = SolverOptions { max_steps: 200_000, ..SolverOptions::default() };

    let engine_gpu = FineCoarseEngine::new();
    let target_job = SimulationJob::builder(&model)
        .time_points(times.clone())
        .replicate(1)
        .options(opts.clone())
        .build()
        .expect("target job");
    let target = engine_gpu
        .run(&target_job)
        .expect("target run")
        .outcomes
        .remove(0)
        .solution
        .expect("target must integrate");

    let observed: Vec<usize> = ["R5P", "G6P", "PYR", "MgATP"]
        .iter()
        .map(|n| model.species_by_name(n).expect("observed species").index())
        .collect();
    let problem = EstimationProblem {
        model: &model,
        unknown,
        log_bounds,
        observed,
        target,
        time_points: times,
        options: opts,
        failed_members: FailedMemberPolicy::default(),
    };
    let cfg = Optimizer::Pso(PsoConfig { iterations, seed: 17, ..Default::default() });

    println!("\nrunning FST-PSO on the fine+coarse engine...");
    let gpu = estimate_with(&problem, &engine_gpu, &cfg, None).expect("fine-coarse calibration");
    println!("running the same calibration on the CPU baseline...");
    let cpu = estimate_with(&problem, &CpuEngine::new(CpuSolverKind::Lsoda), &cfg, None)
        .expect("cpu calibration");

    println!("\n-- E7: parameter-estimation cost (published: ~30x) --");
    println!(
        "  fine-coarse: {} simulated for {} simulations, best fitness {:.4e}",
        fmt_ns(gpu.simulated_ns),
        gpu.simulations,
        gpu.optimization.best_fitness
    );
    println!(
        "  lsoda-cpu:   {} simulated for {} simulations, best fitness {:.4e}",
        fmt_ns(cpu.simulated_ns),
        cpu.simulations,
        cpu.optimization.best_fitness
    );
    println!("  speedup: {:.0}x", cpu.simulated_ns / gpu.simulated_ns);

    // Recovery quality on the unknowns (log-space error).
    let mean_log_err: f64 = problem
        .unknown
        .iter()
        .map(|&i| (gpu.rate_constants[i].max(1e-300).log10() - truth[i].max(1e-300).log10()).abs())
        .sum::<f64>()
        / problem.unknown.len() as f64;
    println!("  mean |log10 error| of recovered constants (gpu run): {mean_log_err:.3}");
}
