//! `pe`: calibrate unknown rate constants against target dynamics, the
//! search journaled when there is a checkpoint directory.

use crate::args::{pin_flags, PE};
use crate::{
    campaign_error, engine_by_name, read_time_points, report_checkpoint, CancelToken, CliError,
    Command,
};
use paraspace_analysis::campaign::Checkpoint;
use paraspace_analysis::fitness::FailedMemberPolicy;
use paraspace_analysis::gradient::GradientConfig;
use paraspace_analysis::pe::{estimate_with, EstimationProblem, Optimizer};
use paraspace_analysis::pso::PsoConfig;
use paraspace_core::{RecoveryPolicy, SimulationJob};
use paraspace_journal::{CampaignManifest, MANIFEST_FILE};
use paraspace_rbm::biosimware;
use paraspace_solvers::{Solution, SolverOptions};
use std::path::Path;

/// Parses a target dynamics file in the `simulate` output format: one row
/// per sample, `t` then one column per species, tab-separated scientific
/// notation, no header. Returns the sample times and the target as a
/// [`Solution`] the fitness and gradient layers index by species.
fn read_target_dynamics(path: &Path, n_species: usize) -> Result<(Vec<f64>, Solution), CliError> {
    let text = std::fs::read_to_string(path)?;
    let mut times = Vec::new();
    let mut states = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() != n_species + 1 {
            return Err(CliError(format!(
                "target {} line {}: {} columns, expected t + {n_species} species",
                path.display(),
                lineno + 1,
                cols.len()
            )));
        }
        let parse = |s: &str| {
            s.parse::<f64>().map_err(|_| {
                CliError(format!(
                    "target {} line {}: malformed number {s:?}",
                    path.display(),
                    lineno + 1
                ))
            })
        };
        times.push(parse(cols[0])?);
        states.push(cols[1..].iter().map(|s| parse(s)).collect::<Result<Vec<f64>, _>>()?);
    }
    if times.is_empty() {
        return Err(CliError(format!("target {} holds no samples", path.display())));
    }
    let solution = Solution { times: times.clone(), states, ..Solution::default() };
    Ok((times, solution))
}

/// Runs the `pe` command: resolve the estimation problem from the model
/// directory and flags, dispatch to the chosen optimizer (journaled when a
/// checkpoint directory is given), and write the estimate.
pub(crate) fn run_pe(
    cmd: &Command,
    out: &mut dyn std::io::Write,
    cancel: &CancelToken,
) -> Result<(), CliError> {
    let Command::Pe {
        model_dir,
        optimizer,
        engine,
        unknown,
        log_radius,
        observed,
        target,
        rtol,
        atol,
        threads,
        iterations,
        swarm,
        grad_iterations,
        starts,
        seed,
        out_dir,
        checkpoint_dir,
    } = cmd
    else {
        unreachable!("run_pe is only called for pe commands")
    };
    let model = biosimware::read_dir(model_dir)?;
    let n_species = model.n_species();
    let n_reactions = model.reactions().len();

    let unknown: Vec<usize> = match unknown {
        Some(v) => {
            for &idx in v {
                if idx >= n_reactions {
                    return Err(CliError(format!(
                        "--unknown index {idx} out of range (model has {n_reactions} reactions)"
                    )));
                }
            }
            v.clone()
        }
        None => (0..n_reactions).collect(),
    };
    let observed: Vec<usize> = match observed {
        Some(names) => names
            .iter()
            .map(|name| {
                model.species().iter().position(|s| s.name == *name).ok_or_else(|| {
                    CliError(format!("--observed species {name:?} is not in the model"))
                })
            })
            .collect::<Result<Vec<usize>, _>>()?,
        None => (0..n_species).collect(),
    };
    let k = model.rate_constants();
    let log_bounds: Vec<(f64, f64)> = unknown
        .iter()
        .map(|&idx| {
            // A zero or negative placeholder has no log-center; search
            // around k = 1.
            let center = if k[idx] > 0.0 { k[idx].log10() } else { 0.0 };
            (center - log_radius, center + log_radius)
        })
        .collect();
    let options = SolverOptions {
        rel_tol: *rtol,
        abs_tol: *atol,
        max_steps: 100_000,
        ..SolverOptions::default()
    };
    let engine = engine_by_name(engine, *threads, None, RecoveryPolicy::default(), cancel)?;

    let (time_points, target) = match target {
        Some(path) => read_target_dynamics(path, n_species)?,
        None => {
            // Self-calibration benchmark: the model's current constants
            // are the ground truth the search must recover.
            let times = read_time_points(model_dir)?;
            let job = SimulationJob::builder(&model)
                .time_points(times.clone())
                .replicate(1)
                .options(options.clone())
                .build()?;
            let solution = engine
                .run(&job)?
                .outcomes
                .remove(0)
                .solution
                .map_err(|e| CliError(format!("self-calibration target failed: {e}")))?;
            (times, solution)
        }
    };

    let problem = EstimationProblem {
        model: &model,
        unknown: unknown.clone(),
        log_bounds,
        observed,
        target,
        time_points,
        options,
        failed_members: FailedMemberPolicy::default(),
    };
    let pso_cfg = PsoConfig { iterations: *iterations, swarm_size: *swarm, seed: *seed };
    let grad_cfg = GradientConfig {
        iterations: *grad_iterations,
        starts: *starts,
        seed: *seed,
        ..GradientConfig::default()
    };
    let chosen = match optimizer.as_str() {
        "pso" => Optimizer::Pso(pso_cfg),
        "lbfgs" => Optimizer::Lbfgs(grad_cfg),
        _ => Optimizer::Hybrid { pso: pso_cfg, gradient: grad_cfg },
    };

    // The top-level manifest pins the invocation (the optimizer's own
    // journal lives under `search/`). Every field is world-defining: the
    // unknowns, bounds, target, optimizer, and search hyperparameters all
    // change the journaled evaluation bytes, so `resume` and re-invocation
    // refuse any difference — the same contract the executor applies to
    // `--lane-width` and `--lease-ttl`.
    let checkpoint = match checkpoint_dir {
        None => None,
        Some(dir) => {
            let expected = pin_flags(CampaignManifest::new("cli-pe", 0), &PE, cmd);
            let manifest_path = dir.join(MANIFEST_FILE);
            if manifest_path.exists() {
                CampaignManifest::read(&manifest_path)?.verify_matches(&expected)?;
            } else {
                std::fs::create_dir_all(dir)?;
                expected.write_atomic(&manifest_path)?;
            }
            Some(Checkpoint::new(dir.join("search")).with_cancel(cancel.clone()))
        }
    };
    let result = estimate_with(&problem, engine.as_ref(), &chosen, checkpoint.as_ref())
        .map_err(|e| campaign_error(e, checkpoint_dir.as_deref(), out))?;

    let out_path = out_dir.clone().unwrap_or_else(|| model_dir.join("pe"));
    std::fs::create_dir_all(&out_path)?;
    let mut body = String::with_capacity(16 * n_reactions);
    for (idx, v) in result.rate_constants.iter().enumerate() {
        body.push_str(&format!("{idx}\t{v:e}\n"));
    }
    std::fs::write(out_path.join("estimate.tsv"), body)?;

    writeln!(
        out,
        "pe ({}, {} unknowns): best loss {:.6e} after {} solves",
        chosen.name(),
        unknown.len(),
        result.optimization.best_fitness,
        result.simulations,
    )?;
    for &idx in &unknown {
        writeln!(out, "  k[{idx}] = {:e}", result.rate_constants[idx])?;
    }
    if checkpoint.is_some() {
        report_checkpoint(out, &result.report)?;
    }
    writeln!(out, "estimate written to {}", out_path.join("estimate.tsv").display())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{argv, edit_manifest, resumed};
    use crate::{command_from_manifest, execute, parse};
    use paraspace_core::{CpuEngine, CpuSolverKind, Simulator};

    #[test]
    fn end_to_end_pe_recovers_constants_and_pins_the_optimizer() {
        use paraspace_rbm::{Reaction, ReactionBasedModel};
        let base = std::env::temp_dir().join(format!("paraspace_cli_pe_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        std::fs::create_dir_all(&base).unwrap();

        // Ground truth: A -> B -> C at rates (1.5, 0.4). The target file is
        // its trajectory in the `simulate` output format.
        let mut truth = ReactionBasedModel::new();
        let a = truth.add_species("A", 1.0);
        let b = truth.add_species("B", 0.0);
        let c = truth.add_species("C", 0.0);
        truth.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1.5)).unwrap();
        truth.add_reaction(Reaction::mass_action(&[(b, 1)], &[(c, 1)], 0.4)).unwrap();
        let times: Vec<f64> = (1..=8).map(|i| i as f64 * 0.5).collect();
        let engine = CpuEngine::new(CpuSolverKind::Lsoda);
        let job =
            SimulationJob::builder(&truth).time_points(times.clone()).replicate(1).build().unwrap();
        let sol = engine.run(&job).unwrap().outcomes.remove(0).solution.unwrap();
        let mut tsv = String::new();
        for (t, state) in sol.times.iter().zip(&sol.states) {
            tsv.push_str(&format!("{t:e}"));
            for v in state {
                tsv.push_str(&format!("\t{v:e}"));
            }
            tsv.push('\n');
        }
        let target_path = base.join("target.tsv");
        std::fs::write(&target_path, tsv).unwrap();

        // The searched model starts from placeholder constants (1, 1).
        let mut placeholder = ReactionBasedModel::new();
        let a = placeholder.add_species("A", 1.0);
        let b = placeholder.add_species("B", 0.0);
        let c = placeholder.add_species("C", 0.0);
        placeholder.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1.0)).unwrap();
        placeholder.add_reaction(Reaction::mass_action(&[(b, 1)], &[(c, 1)], 1.0)).unwrap();
        let model_dir = base.join("model");
        biosimware::write_dir(&placeholder, &model_dir).unwrap();
        biosimware::write_time_points(&times, &model_dir).unwrap();

        let ckpt = base.join("ckpt");
        let cmd = parse(&argv(&format!(
            "pe {} --optimizer lbfgs --target {} --starts 1 --checkpoint-dir {}",
            model_dir.display(),
            target_path.display(),
            ckpt.display(),
        )))
        .unwrap();
        let mut log = Vec::new();
        execute(&cmd, &mut log).unwrap();
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("pe (lbfgs, 2 unknowns)"), "log: {text}");

        let estimate = std::fs::read_to_string(model_dir.join("pe/estimate.tsv")).unwrap();
        let ks: Vec<f64> =
            estimate.lines().map(|l| l.split('\t').nth(1).unwrap().parse().unwrap()).collect();
        assert!((ks[0] - 1.5).abs() < 1e-2, "k1 = {}", ks[0]);
        assert!((ks[1] - 0.4).abs() < 1e-2, "k2 = {}", ks[1]);

        // Re-running under a different optimizer must be refused by the
        // checkpoint manifest, not silently restarted.
        let mismatched = parse(&argv(&format!(
            "pe {} --optimizer pso --target {} --starts 1 --checkpoint-dir {}",
            model_dir.display(),
            target_path.display(),
            ckpt.display(),
        )))
        .unwrap();
        let err = execute(&mismatched, &mut Vec::new()).unwrap_err();
        assert!(err.0.contains("optimizer"), "mismatch must name the optimizer pin: {}", err.0);

        // `resume` reconstructs the command from the manifest and replays
        // the completed search bitwise (no evaluations re-executed).
        let mut log = Vec::new();
        execute(&Command::Resume { checkpoint_dir: ckpt.clone(), workers: 0 }, &mut log).unwrap();
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("pe (lbfgs, 2 unknowns)"), "log: {text}");
        assert!(text.contains(", 0 executed"), "resume must replay, not re-run: {text}");

        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn resume_rebuilds_pe_from_its_manifest() {
        let ckpt = Path::new("/resumed/from/here");
        for flags in [
            "",
            "--optimizer lbfgs --engine fine-coarse --unknown 0,3 --log-radius 2.0 \
             --observed A,B --target /tmp/target.tsv --rtol 1e-8 --atol 1e-10 --threads 4 \
             --iterations 12 --swarm 24 --grad-iterations 30 --starts 2 --seed 9 --out /tmp/pe",
            "--optimizer pso --unknown 5 --observed C",
        ] {
            let cmd = parse(&argv(&format!("pe /tmp/model --checkpoint-dir /c {flags}"))).unwrap();
            let manifest = pin_flags(CampaignManifest::new("cli-pe", 0), &PE, &cmd);
            let rebuilt = command_from_manifest(&manifest, ckpt, 0).unwrap();
            assert_eq!(rebuilt, resumed(&cmd, ckpt, 0), "flags: {flags}");

            let missing = edit_manifest(&manifest, &[("swarm", None)]);
            let err = command_from_manifest(&missing, ckpt, 0).unwrap_err();
            assert!(err.0.contains("missing \"swarm\""), "{}", err.0);
            let malformed = edit_manifest(&manifest, &[("unknown", Some("0,x"))]);
            let err = command_from_manifest(&malformed, ckpt, 0).unwrap_err();
            assert!(err.0.contains("field \"unknown\""), "{}", err.0);
        }
    }
}
