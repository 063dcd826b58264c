//! Parameter-estimation cost: exact-gradient L-BFGS on batched forward
//! sensitivities vs the published FST-PSO pipeline, on the metabolic
//! calibration (8 unknown constants spread over the network, observed
//! species R5P/G6P/PYR/MgATP).
//!
//! Every method's estimate is re-scored under ONE common metric — the
//! relative-L1 distance of a single scalar-LSODA simulation of its
//! recovered constants against the target — so "matched final loss" is a
//! like-for-like comparison even though the searches optimize different
//! internal objectives (relative L1 for the swarm, relative SSQ for the
//! gradient). The machine-readable table goes to `results/BENCH_pe.json`
//! (relative to the workspace root); `-- --test` runs a scaled-down smoke
//! pass without writing it.

use criterion::{criterion_group, criterion_main, Criterion};
use paraspace_analysis::fitness::{relative_distance, FailedMemberPolicy};
use paraspace_analysis::gradient::{estimate_gradient, GradientConfig, GradientObjective};
use paraspace_analysis::pe::{estimate_with, EstimationProblem, Optimizer};
use paraspace_analysis::pso::PsoConfig;
use paraspace_core::{CpuEngine, CpuSolverKind, FineCoarseEngine, SimulationJob, Simulator};
use paraspace_models::metabolic;
use paraspace_rbm::{Parameterization, ReactionBasedModel};
use paraspace_solvers::{Solution, SolverOptions};
use std::path::Path;

struct Row {
    method: &'static str,
    engine: &'static str,
    solves: usize,
    simulated_ns: f64,
    final_l1: f64,
    mean_log10_err: f64,
}

/// One scalar-LSODA simulation of `k`, scored with the swarm's
/// relative-L1 fitness — the common yardstick across methods.
fn common_loss(
    model: &ReactionBasedModel,
    k: &[f64],
    times: &[f64],
    opts: &SolverOptions,
    target: &Solution,
    observed: &[usize],
) -> f64 {
    let job = SimulationJob::builder(model)
        .time_points(times.to_vec())
        .parameterizations(vec![Parameterization::new().with_rate_constants(k.to_vec())])
        .options(opts.clone())
        .build()
        .expect("scoring job");
    let sol = CpuEngine::new(CpuSolverKind::Lsoda)
        .run(&job)
        .expect("scoring run")
        .outcomes
        .remove(0)
        .solution
        .expect("scoring solution");
    relative_distance(&sol, target, observed)
}

fn mean_log10_err(truth: &[f64], estimate: &[f64], unknown: &[usize]) -> f64 {
    unknown
        .iter()
        .map(|&i| (estimate[i].max(1e-300).log10() - truth[i].max(1e-300).log10()).abs())
        .sum::<f64>()
        / unknown.len() as f64
}

fn compare(c: &mut Criterion) {
    let test_mode = std::env::args().any(|a| a == "--test");
    let (n_unknown, pso_iterations, grad_iterations) =
        if test_mode { (2, 2, 5) } else { (8, 50, 40) };

    let model = metabolic::model();
    let stride = model.n_reactions() / n_unknown;
    let unknown: Vec<usize> = (0..n_unknown).map(|i| i * stride).collect();
    let truth = model.rate_constants();
    // The box is deliberately off-center (+0.5 log-units) so the truth is
    // not the deterministic L-BFGS midpoint start: every method begins a
    // genuine 3-decade search ~3x away from the answer in each dimension.
    let log_bounds: Vec<(f64, f64)> = unknown
        .iter()
        .map(|&i| {
            let center = truth[i].max(1e-12).log10() + 0.5;
            (center - 1.5, center + 1.5)
        })
        .collect();
    let times: Vec<f64> = (1..=5).map(|i| i as f64 * 2.0).collect();
    let opts = SolverOptions { max_steps: 200_000, ..SolverOptions::default() };

    let target_job = SimulationJob::builder(&model)
        .time_points(times.clone())
        .replicate(1)
        .options(opts.clone())
        .build()
        .expect("target job");
    let target = FineCoarseEngine::new()
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
        unknown: unknown.clone(),
        log_bounds,
        observed: observed.clone(),
        target: target.clone(),
        time_points: times.clone(),
        options: opts.clone(),
        failed_members: FailedMemberPolicy::default(),
    };

    let pso_cfg = PsoConfig { iterations: pso_iterations, seed: 17, ..Default::default() };
    // The relative-SSQ misfit on this problem is ~1e-8 even far from the
    // optimum, so the default grad_tol (1e-6) would declare victory at the
    // start point; tighten it so the search actually descends.
    let grad_cfg = GradientConfig {
        iterations: grad_iterations,
        starts: 1,
        seed: 17,
        grad_tol: 1e-14,
        ..GradientConfig::default()
    };

    let mut rows = Vec::new();
    let mut push = |method, engine, r: &paraspace_analysis::pe::EstimationResult| {
        let final_l1 = common_loss(&model, &r.rate_constants, &times, &opts, &target, &observed);
        println!("  {method:22} {engine:12} {:>6} solves  common L1 {final_l1:.4e}", r.simulations);
        rows.push(Row {
            method,
            engine,
            solves: r.simulations,
            simulated_ns: r.simulated_ns,
            final_l1,
            mean_log10_err: mean_log10_err(&truth, &r.rate_constants, &unknown),
        });
    };

    println!(
        "metabolic calibration: {} unknowns, {} swarm generations vs {} L-BFGS iterations",
        n_unknown, pso_iterations, grad_iterations
    );
    let lbfgs = estimate_gradient(&problem, &grad_cfg, None).expect("lbfgs calibration");
    push("lbfgs-sensitivities", "host-sens", &lbfgs);

    // The hybrid's global stage only has to land the polish in the right
    // basin, so it is deliberately tiny: 8 particles, one generation.
    let hybrid = estimate_with(
        &problem,
        &FineCoarseEngine::new(),
        &Optimizer::Hybrid {
            pso: PsoConfig { swarm_size: Some(8), iterations: 1, seed: 17, ..Default::default() },
            gradient: grad_cfg.clone(),
        },
        None,
    )
    .expect("hybrid calibration");
    push("hybrid-pso-lbfgs", "fine-coarse", &hybrid);

    let swarm = Optimizer::Pso(pso_cfg);
    let gpu = estimate_with(&problem, &FineCoarseEngine::new(), &swarm, None).expect("swarm");
    push("fst-pso", "fine-coarse", &gpu);
    let cpu = estimate_with(&problem, &CpuEngine::new(CpuSolverKind::Lsoda), &swarm, None)
        .expect("swarm");
    push("fst-pso", "lsoda-scalar", &cpu);

    // Headline: the cheapest gradient-family run that reaches (or beats)
    // the swarm's final loss, vs the swarm's full budget.
    let pso_row = &rows[2];
    let grad_row = rows[..2]
        .iter()
        .filter(|r| r.final_l1 <= pso_row.final_l1)
        .min_by_key(|r| r.solves)
        .unwrap_or(&rows[1]);
    let solve_ratio = pso_row.solves as f64 / grad_row.solves.max(1) as f64;
    let matched = grad_row.final_l1 <= pso_row.final_l1;
    println!(
        "{} vs swarm: {:.1}x fewer solves, loss {} ({:.3e} vs {:.3e})",
        grad_row.method,
        solve_ratio,
        if matched { "matched-or-better" } else { "NOT matched" },
        grad_row.final_l1,
        pso_row.final_l1,
    );

    if !test_mode {
        write_json(&rows, grad_row.method, solve_ratio, matched);
    }

    // Surface one gradient evaluation (the unit of L-BFGS cost: a full
    // augmented sensitivity solve) through the criterion reporter.
    let mid: Vec<f64> = problem.log_bounds.iter().map(|&(lo, hi)| 0.5 * (lo + hi)).collect();
    let mut objective = GradientObjective::new(&problem);
    let mut group = c.benchmark_group("pe_gradient");
    group.sample_size(10);
    group.bench_function("augmented_solve", |b| {
        b.iter(|| objective.evaluate(&mid).expect("midpoint evaluation"))
    });
    group.finish();
}

fn write_json(rows: &[Row], grad_method: &str, solve_ratio: f64, matched: bool) {
    let mut body = String::from("{\n");
    body.push_str(&paraspace_bench::bench_header("pe", 1));
    body.push_str("  \"model\": \"metabolic\",\n");
    body.push_str("  \"observed\": [\"R5P\", \"G6P\", \"PYR\", \"MgATP\"],\n");
    body.push_str(
        "  \"note\": \"same calibration problem per row; solves counts full ODE (or augmented \
         sensitivity) integrations; final_l1 re-scores every method's estimate with one \
         scalar-LSODA simulation under the swarm's relative-L1 fitness, so losses are \
         comparable across methods; simulated_ns is the engine-priced cost of swarm stages \
         (0 for the pure host-side gradient search)\",\n",
    );
    body.push_str(&format!(
        "  \"gradient_vs_pso\": {{\"method\": \"{grad_method}\", \
         \"solve_ratio\": {solve_ratio:.2}, \
         \"loss_matched_or_better\": {matched}}},\n"
    ));
    body.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"method\": \"{}\", \"engine\": \"{}\", \"solves\": {}, \
             \"simulated_ns\": {:.0}, \"final_l1\": {:.6e}, \"mean_log10_err\": {:.4}}}{}\n",
            r.method,
            r.engine,
            r.solves,
            r.simulated_ns,
            r.final_l1,
            r.mean_log10_err,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");

    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&out_dir).expect("create results dir");
    let out = out_dir.join("BENCH_pe.json");
    std::fs::write(&out, body).expect("write BENCH_pe.json");
    println!("wrote {}", out.display());
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = compare
}
criterion_main!(benches);
