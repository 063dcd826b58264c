//! Experiments E5 + E6 (Table-1-class): Sobol sensitivity analysis of the
//! metabolic HK-isoform model.
//!
//! Samples the 11 HK-species initial concentrations in `[0, 10⁻⁵]` with
//! the Saltelli `N·(2d+2)` design, simulates every point for 10 hours,
//! measures the deviation of the final R5P concentration from the
//! reference run, and prints first-/total-order indices with 95%
//! confidence intervals — plus the batched-throughput comparison against
//! the sequential CPU baseline (published: ≈119× faster).
//!
//! `PARASPACE_FULL=1` runs the published N = 512 (12288 simulations);
//! the default N = 64 finishes in a few minutes on one core.

use paraspace_analysis::campaign::evaluate_points;
use paraspace_analysis::sobol::SaltelliPlan;
use paraspace_bench::{fmt_ns, full_scale};
use paraspace_core::{CpuEngine, CpuSolverKind, FineCoarseEngine, SimulationJob, Simulator};
use paraspace_models::metabolic;
use paraspace_rbm::Parameterization;
use paraspace_solvers::SolverOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n_base = if full_scale() { 512 } else { 64 };
    let model = metabolic::model();
    let plan = SaltelliPlan::new(metabolic::HK_SPECIES.len(), n_base);
    println!(
        "model: {} species, {} reactions; Saltelli design: {} evaluations (N = {n_base}, d = 11)",
        model.n_species(),
        model.n_reactions(),
        plan.len()
    );

    let bounds = vec![metabolic::HK_SAMPLING_RANGE; metabolic::HK_SPECIES.len()];
    let points = plan.scaled(&bounds);
    let r5p = model.species_by_name(metabolic::OUTPUT_SPECIES).expect("output").index();
    let opts = SolverOptions { max_steps: 200_000, ..SolverOptions::default() };

    // Reference trajectory with baseline initial conditions.
    let engine = FineCoarseEngine::new();
    let ref_job = SimulationJob::builder(&model)
        .time_points(vec![metabolic::TIME_WINDOW_HOURS])
        .replicate(1)
        .options(opts.clone())
        .build()
        .expect("reference job");
    let reference = engine.run(&ref_job).expect("reference run").outcomes.remove(0);
    let ref_r5p = reference.solution.expect("reference must integrate").state_at(0)[r5p];
    println!("reference R5P(10 h) = {ref_r5p:.4e}");

    // Evaluate the whole design in 512-simulation batches.
    let started = std::time::Instant::now();
    let eval = evaluate_points(
        &model,
        &points,
        |hk| {
            Parameterization::new().with_initial_state(metabolic::initial_state_with_hk(&model, hk))
        },
        &[metabolic::TIME_WINDOW_HOURS],
        &opts,
        &engine,
        |sol| sol.state_at(0)[r5p] - ref_r5p,
        512,
        None,
    )
    .expect("SA evaluation");
    let (mut outputs, simulated_ns) = (eval.outputs, eval.simulated_ns);
    // Replace rare failures by the mean so the estimator stays defined.
    let finite_mean = {
        let fin: Vec<f64> = outputs.iter().cloned().filter(|v| v.is_finite()).collect();
        fin.iter().sum::<f64>() / fin.len().max(1) as f64
    };
    let failures = outputs.iter().filter(|v| !v.is_finite()).count();
    for v in &mut outputs {
        if !v.is_finite() {
            *v = finite_mean;
        }
    }

    let mut rng = StdRng::seed_from_u64(0x5A);
    let indices = plan.analyze(&outputs, 200, 0.95, &mut rng);

    println!("\n-- Table 1: Sobol indices of the R5P output (95% CIs) --");
    println!("{:16} {:>8} {:>8} {:>8} {:>8}", "Species", "S1", "S1_conf", "ST", "ST_conf");
    for (name, idx) in metabolic::HK_SPECIES.iter().zip(&indices) {
        println!(
            "{:16} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            name, idx.s1, idx.s1_conf, idx.st, idx.st_conf
        );
    }
    let dead_end = [7usize, 8, 9, 10];
    let cycle = [0usize, 1, 2, 3, 4, 5, 6];
    let mean_st =
        |ids: &[usize]| ids.iter().map(|&i| indices[i].st).sum::<f64>() / ids.len() as f64;
    println!(
        "\nmean ST: dead-end complexes {:.3} vs catalytic-cycle species {:.3} (published shape: dead-end ≫ cycle)",
        mean_st(&dead_end),
        mean_st(&cycle)
    );
    if failures > 0 {
        println!("note: {failures} simulations failed and were mean-imputed");
    }

    // Second-order indices (the published analysis computes these too).
    let s2 = plan.analyze_second_order(&outputs);
    let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
    for (i, row) in s2.iter().enumerate() {
        for (j, &v) in row.iter().enumerate().skip(i + 1) {
            pairs.push((i, j, v));
        }
    }
    pairs.sort_by(|a, b| b.2.abs().partial_cmp(&a.2.abs()).expect("finite"));
    println!("\n-- strongest second-order interactions --");
    for &(i, j, v) in pairs.iter().take(5) {
        println!("  S2({}, {}) = {v:+.3}", metabolic::HK_SPECIES[i], metabolic::HK_SPECIES[j]);
    }

    // E6: throughput vs the sequential CPU baseline on one batch.
    println!("\n-- E6: SA batch throughput (published: ~119x vs LSODA) --");
    let probe = if full_scale() { 512 } else { 64 };
    let probe_batch: Vec<Parameterization> = points
        .iter()
        .take(probe)
        .map(|hk| {
            Parameterization::new().with_initial_state(metabolic::initial_state_with_hk(&model, hk))
        })
        .collect();
    let job = SimulationJob::builder(&model)
        .time_points(vec![metabolic::TIME_WINDOW_HOURS])
        .parameterizations(probe_batch)
        .options(opts)
        .build()
        .expect("probe job");
    let gpu = engine.run(&job).expect("gpu probe");
    let cpu = CpuEngine::new(CpuSolverKind::Lsoda).run(&job).expect("cpu probe");
    println!(
        "  fine-coarse: {} | lsoda-cpu: {} | speedup {:.0}x (simulation time)",
        fmt_ns(gpu.timing.simulated_total_ns),
        fmt_ns(cpu.timing.simulated_total_ns),
        cpu.timing.simulated_total_ns / gpu.timing.simulated_total_ns
    );
    println!(
        "total: {} evaluations, simulated engine time {}, host wall {:.1?}",
        outputs.len(),
        fmt_ns(simulated_ns),
        started.elapsed()
    );
}
