//! Sensitivity analysis of the metabolic HK-isoform model: which of the
//! 11 hexokinase species' initial concentrations drive the R5P output?
//! (A reduced-N version of the Table-1 experiment.)
//!
//! ```bash
//! cargo run --release --example sensitivity_hk
//! ```

use paraspace_analysis::campaign::evaluate_points;
use paraspace_analysis::sobol::SaltelliPlan;
use paraspace_core::FineCoarseEngine;
use paraspace_models::metabolic;
use paraspace_rbm::Parameterization;
use paraspace_solvers::SolverOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = metabolic::model();
    let plan = SaltelliPlan::new(metabolic::HK_SPECIES.len(), 32);
    println!(
        "metabolic model: {} species, {} reactions; {} evaluations",
        model.n_species(),
        model.n_reactions(),
        plan.len()
    );

    let bounds = vec![metabolic::HK_SAMPLING_RANGE; 11];
    let points = plan.scaled(&bounds);
    let r5p = model.species_by_name(metabolic::OUTPUT_SPECIES)?.index();
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
        256,
        None,
    )?
    .outputs;
    let mean = {
        let fin: Vec<f64> = outputs.iter().cloned().filter(|v| v.is_finite()).collect();
        fin.iter().sum::<f64>() / fin.len().max(1) as f64
    };
    for v in &mut outputs {
        if !v.is_finite() {
            *v = mean;
        }
    }

    let mut rng = StdRng::seed_from_u64(11);
    let indices = plan.analyze(&outputs, 100, 0.95, &mut rng);
    println!("\n{:16} {:>8} {:>8}", "species", "S1", "ST");
    let mut ranked: Vec<_> = metabolic::HK_SPECIES.iter().zip(&indices).collect();
    ranked.sort_by(|a, b| b.1.st.partial_cmp(&a.1.st).expect("finite"));
    for (name, idx) in ranked {
        println!("{:16} {:>8.3} {:>8.3}", name, idx.s1, idx.st);
    }
    println!("\n(the dead-end complexes hkEGLC*2/hkEPhosi2 should rank on top)");
    Ok(())
}
