//! Parameter estimation with FST-PSO: recover hidden kinetic constants of
//! a small signalling cascade from its dynamics, running every swarm
//! generation as one batch on the fine+coarse engine.
//!
//! ```bash
//! cargo run --release --example calibrate
//! ```

use paraspace_analysis::fitness::FailedMemberPolicy;
use paraspace_analysis::pe::{estimate_with, EstimationProblem, Optimizer};
use paraspace_analysis::pso::PsoConfig;
use paraspace_core::{FineCoarseEngine, SimulationJob, Simulator};
use paraspace_rbm::{Reaction, ReactionBasedModel};
use paraspace_solvers::SolverOptions;

fn cascade(k: &[f64; 3]) -> Result<ReactionBasedModel, Box<dyn std::error::Error>> {
    let mut m = ReactionBasedModel::new();
    let a = m.add_species("A", 1.0);
    let b = m.add_species("B", 0.0);
    let c = m.add_species("C", 0.0);
    m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], k[0]))?;
    m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(c, 1)], k[1]))?;
    m.add_reaction(Reaction::mass_action(&[(c, 1)], &[(a, 1)], k[2]))?;
    Ok(m)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let truth = [1.2, 0.6, 0.25];
    let model = cascade(&truth)?;
    let times: Vec<f64> = (1..=12).map(|i| i as f64 * 0.5).collect();
    let engine = FineCoarseEngine::new();

    // Target dynamics from the true constants.
    let target_job =
        SimulationJob::builder(&model).time_points(times.clone()).replicate(1).build()?;
    let target = engine.run(&target_job)?.outcomes.remove(0).solution.map_err(|e| e.to_string())?;

    let problem = EstimationProblem {
        model: &model,
        unknown: vec![0, 1, 2],
        log_bounds: vec![(-2.0, 1.0); 3],
        observed: vec![0, 1, 2],
        target,
        time_points: times,
        options: SolverOptions::default(),
        failed_members: FailedMemberPolicy::default(),
    };
    let cfg = PsoConfig { iterations: 60, seed: 5, ..Default::default() };
    println!("calibrating 3 hidden constants with FST-PSO ({} generations)...", cfg.iterations);
    let result = estimate_with(&problem, &engine, &Optimizer::Pso(cfg), None)?;

    println!("\n{:>10} {:>10} {:>10}", "constant", "true", "estimated");
    for (i, &t) in truth.iter().enumerate() {
        println!("{:>10} {:>10.3} {:>10.3}", format!("k{}", i + 1), t, result.rate_constants[i]);
    }
    println!(
        "\nbest fitness {:.3e} after {} simulations ({:.1} ms simulated engine time)",
        result.optimization.best_fitness,
        result.simulations,
        result.simulated_ns / 1e6
    );
    Ok(())
}
