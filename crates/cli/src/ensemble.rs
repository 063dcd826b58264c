//! `ensemble`: a stochastic replicate ensemble, journaled when there is a
//! checkpoint directory — the same campaign either way.

use crate::args::ENSEMBLE;
use crate::simulate::remove_stale_artifacts;
use crate::{campaign_error, read_time_points, report_checkpoint, CancelToken, CliError, Command};
use paraspace_analysis::campaign::Checkpoint;
use paraspace_analysis::ensemble;
use paraspace_rbm::biosimware;
use paraspace_stochastic::{
    EnsembleStats, StochasticBatch, StochasticError, StochasticSimulator, StochasticTrajectory,
};
use std::path::Path;

/// Writes the per-replicate trajectory/error files and the ensemble
/// mean/variance tables, after removing the replicate files an earlier
/// ensemble left there. Pure function of the outcomes, so durable and
/// plain runs (and resumed runs) produce byte-identical artifacts.
fn write_ensemble_outputs(
    out_path: &Path,
    model: &paraspace_rbm::ReactionBasedModel,
    outcomes: &[Result<StochasticTrajectory, StochasticError>],
    stats: &EnsembleStats,
) -> Result<(), CliError> {
    std::fs::create_dir_all(out_path)?;
    remove_stale_artifacts(out_path, "replicate_")?;
    let header: String = std::iter::once("t".to_string())
        .chain(model.species().iter().map(|s| s.name.clone()))
        .collect::<Vec<_>>()
        .join("\t");
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Ok(tr) => {
                let mut body = String::with_capacity(64 * tr.times.len());
                body.push_str(&header);
                body.push('\n');
                for (t, state) in tr.times.iter().zip(&tr.states) {
                    body.push_str(&format!("{t:.6e}"));
                    for &c in state {
                        body.push_str(&format!("\t{c}"));
                    }
                    body.push('\n');
                }
                std::fs::write(out_path.join(format!("replicate_{i:05}.tsv")), body)?;
            }
            Err(e) => {
                std::fs::write(
                    out_path.join(format!("replicate_{i:05}.err")),
                    format!("error: {e}\n"),
                )?;
            }
        }
    }
    for (name, table) in
        [("ensemble_mean.tsv", &stats.mean), ("ensemble_variance.tsv", &stats.variance)]
    {
        let mut body = String::new();
        body.push_str(&header);
        body.push('\n');
        for (t, row) in stats.times.iter().zip(table.iter()) {
            body.push_str(&format!("{t:.6e}"));
            for v in row {
                body.push_str(&format!("\t{v:.6e}"));
            }
            body.push('\n');
        }
        std::fs::write(out_path.join(name), body)?;
    }
    Ok(())
}

/// Runs the `ensemble` command for a concrete simulator — journaled when
/// there is a checkpoint directory, the same campaign either way.
pub(crate) fn run_ensemble<S: StochasticSimulator + Sync>(
    simulator: S,
    cmd: &Command,
    out: &mut dyn std::io::Write,
    cancel: &CancelToken,
) -> Result<(), CliError> {
    let Command::Ensemble {
        model_dir,
        out_dir,
        replicates,
        seed,
        member,
        threads,
        lane_width,
        checkpoint_dir,
        shard_size,
        ..
    } = cmd
    else {
        unreachable!("run_ensemble is only called for ensemble commands")
    };
    let name = simulator.name();
    let model = biosimware::read_dir(model_dir)?;
    let times = read_time_points(model_dir)?;
    let out_path = out_dir.clone().unwrap_or_else(|| model_dir.join("ensemble"));
    let batch = StochasticBatch::new(simulator)
        .with_seed(*seed)
        .with_member(*member)
        .with_threads(*threads)
        .with_lane_width(*lane_width)
        .with_cancel(cancel.clone());

    // The CLI pins the rows under `world.`; `run_ensemble` pins the rest.
    let checkpoint = checkpoint_dir.as_ref().map(|dir| {
        let checkpoint = Checkpoint::new(dir).with_cancel(cancel.clone());
        ENSEMBLE.pinned(cmd).fold(checkpoint, |checkpoint, (key, value)| {
            match key.strip_prefix("world.") {
                Some(key) => checkpoint.with_world(key, value),
                None => checkpoint,
            }
        })
    });
    let start = std::time::Instant::now();
    let result = ensemble::run_ensemble(
        &model,
        &times,
        *replicates,
        &batch,
        *shard_size,
        checkpoint.as_ref(),
    )
    .map_err(|e| campaign_error(e, checkpoint_dir.as_deref(), out))?;
    write_ensemble_outputs(&out_path, &model, &result.outcomes, &result.stats)?;
    let ok = result.outcomes.iter().filter(|o| o.is_ok()).count();
    write!(
        out,
        "{name} ensemble{}: {ok}/{replicates} replicates ok; ",
        if checkpoint.is_some() { " (durable)" } else { "" },
    )?;
    if let Some(width) = result.lane_width {
        write!(out, "lane width {width}; ")?;
    }
    writeln!(
        out,
        "simulated {:.3} ms; host wall {:.1?}",
        result.simulated_ns / 1e6,
        start.elapsed(),
    )?;
    if let Some(lanes) = &result.lanes {
        writeln!(
            out,
            "lanes: {} groups, occupancy {:.1}%, divergence {:.2}x",
            lanes.groups,
            lanes.occupancy() * 100.0,
            lanes.divergence_factor(),
        )?;
    }
    if checkpoint.is_some() {
        report_checkpoint(out, &result.report)?;
    }
    writeln!(out, "ensemble written to {}", out_path.display())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{argv, edit_manifest, read_outputs, resumed};
    use crate::{command_from_manifest, execute, execute_with_cancel, parse};
    use paraspace_journal::{CampaignManifest, MANIFEST_FILE};
    use std::path::PathBuf;

    fn ensemble_cmd(model_dir: &Path, checkpoint: Option<PathBuf>, threads: usize) -> Command {
        Command::Ensemble {
            model_dir: model_dir.to_path_buf(),
            simulator: "tau-leaping".into(),
            out_dir: None,
            replicates: 7,
            seed: 11,
            member: 0,
            threads,
            lane_width: None,
            checkpoint_dir: checkpoint,
            shard_size: 3,
        }
    }

    #[test]
    fn ensemble_end_to_end_writes_replicates_and_stats() {
        let base = std::env::temp_dir().join(format!("paraspace_cli_ens_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let model = base.join("model");
        let mut log = Vec::new();
        execute(
            &Command::Generate { species: 5, reactions: 6, seed: 8, out_dir: model.clone() },
            &mut log,
        )
        .unwrap();
        execute(&ensemble_cmd(&model, None, 2), &mut log).unwrap();
        let out_dir = model.join("ensemble");
        let names: std::collections::BTreeSet<String> = std::fs::read_dir(&out_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.contains("replicate_00000.tsv"));
        assert!(names.contains("replicate_00006.tsv"));
        assert!(names.contains("ensemble_mean.tsv"));
        assert!(names.contains("ensemble_variance.tsv"));
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("7/7 replicates ok"), "log: {text}");

        // SSA takes the scalar path on the same model and also succeeds.
        let mut ssa = ensemble_cmd(&model, None, 1);
        if let Command::Ensemble { simulator, out_dir, .. } = &mut ssa {
            *simulator = "ssa".into();
            *out_dir = Some(base.join("ssa_out"));
        }
        let mut log = Vec::new();
        execute(&ssa, &mut log).unwrap();
        assert!(String::from_utf8(log).unwrap().contains("ssa ensemble: 7/7"));
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn ensemble_replaces_an_earlier_ensembles_replicates_only() {
        let base = std::env::temp_dir().join(format!("paraspace_cli_ensre_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let model = base.join("model");
        let mut log = Vec::new();
        execute(
            &Command::Generate { species: 5, reactions: 6, seed: 8, out_dir: model.clone() },
            &mut log,
        )
        .unwrap();
        let sized = |replicates: usize| {
            let mut cmd = ensemble_cmd(&model, None, 2);
            if let Command::Ensemble { replicates: r, .. } = &mut cmd {
                *r = replicates;
            }
            cmd
        };
        let out_dir = model.join("ensemble");
        execute(&sized(16), &mut log).unwrap();
        std::fs::write(out_dir.join("notes.txt"), "kept").unwrap();
        execute(&sized(8), &mut log).unwrap();
        let names: Vec<String> = read_outputs(&out_dir).into_keys().collect();
        let replicates: Vec<&String> =
            names.iter().filter(|n| n.starts_with("replicate_")).collect();
        assert_eq!(replicates.len(), 8, "{names:?}");
        assert!(replicates.iter().all(|n| n.as_str() < "replicate_00008"), "{names:?}");
        for kept in ["notes.txt", "ensemble_mean.tsv", "ensemble_variance.tsv"] {
            assert!(names.iter().any(|n| n == kept), "{kept} missing: {names:?}");
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn a_tripped_token_stops_an_ensemble_before_any_replicate_file() {
        let base =
            std::env::temp_dir().join(format!("paraspace_cli_enscancel_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let model = base.join("model");
        execute(
            &Command::Generate { species: 5, reactions: 6, seed: 8, out_dir: model.clone() },
            &mut Vec::new(),
        )
        .unwrap();
        let tripped = CancelToken::new();
        tripped.cancel();
        // Plain: the batch itself sees the token and nothing is written.
        let err = execute_with_cancel(&ensemble_cmd(&model, None, 2), &mut Vec::new(), &tripped)
            .unwrap_err();
        assert!(err.to_string().contains("cancelled"), "names the cancellation: {err}");
        assert!(!model.join("ensemble").exists(), "no replicate file after a cancelled run");
        // Durable: the checkpoint commits what it has and hints at resume.
        let ckpt = base.join("ckpt");
        let err =
            execute_with_cancel(&ensemble_cmd(&model, Some(ckpt), 2), &mut Vec::new(), &tripped)
                .unwrap_err();
        assert!(err.to_string().contains("resume"), "{err}");
        assert!(!model.join("ensemble").exists());
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn durable_ensemble_resumes_to_identical_artifacts() {
        let base =
            std::env::temp_dir().join(format!("paraspace_cli_ensdur_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let model = base.join("model");
        let mut log = Vec::new();
        execute(
            &Command::Generate { species: 5, reactions: 6, seed: 8, out_dir: model.clone() },
            &mut log,
        )
        .unwrap();
        // Plain run is the byte-level reference.
        execute(&ensemble_cmd(&model, None, 2), &mut log).unwrap();
        let reference = read_outputs(&model.join("ensemble"));
        std::fs::remove_dir_all(model.join("ensemble")).unwrap();

        // Interrupt a durable run before the first shard, then resume with
        // the stored configuration: artifacts must match the plain run.
        let ckpt = base.join("ckpt");
        let tripped = CancelToken::new();
        tripped.cancel();
        let err =
            execute_with_cancel(&ensemble_cmd(&model, Some(ckpt.clone()), 2), &mut log, &tripped)
                .unwrap_err();
        assert!(err.to_string().contains("resume"), "{err}");
        execute(&Command::Resume { checkpoint_dir: ckpt.clone(), workers: 0 }, &mut log).unwrap();
        assert_eq!(reference, read_outputs(&model.join("ensemble")));
        let text = String::from_utf8_lossy(&log).into_owned();
        assert!(text.contains("ensemble (durable)"), "log: {text}");

        // A different seed on the same checkpoint is a different world.
        let mut reseeded = ensemble_cmd(&model, Some(ckpt.clone()), 2);
        if let Command::Ensemble { seed, .. } = &mut reseeded {
            *seed = 12;
        }
        let err = execute(&reseeded, &mut log).unwrap_err();
        assert!(err.to_string().contains("seed"), "mismatch names the field: {err}");
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn resume_rebuilds_ensemble_from_its_manifest() {
        let base =
            std::env::temp_dir().join(format!("paraspace_cli_rt_ens_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let model = base.join("model");
        execute(
            &Command::Generate { species: 5, reactions: 6, seed: 8, out_dir: model.clone() },
            &mut Vec::new(),
        )
        .unwrap();
        // The library pins most of an ensemble's manifest, so take it from a
        // real run, interrupted before its first shard.
        let tripped = CancelToken::new();
        tripped.cancel();
        for (i, flags) in [
            "",
            "--simulator ssa --replicates 9 --seed 5 --member 2 --threads 3 --lane-width 8 \
             --out /tmp/ens --shard-size 4",
        ]
        .iter()
        .enumerate()
        {
            let ckpt = base.join(format!("ckpt{i}"));
            let cmd = parse(&argv(&format!(
                "ensemble {} --checkpoint-dir {} {flags}",
                model.display(),
                ckpt.display()
            )))
            .unwrap();
            execute_with_cancel(&cmd, &mut Vec::new(), &tripped).unwrap_err();
            let manifest = CampaignManifest::read(&ckpt.join(MANIFEST_FILE)).unwrap();
            let elsewhere = Path::new("/resumed/from/here");
            let rebuilt = command_from_manifest(&manifest, elsewhere, 0).unwrap();
            assert_eq!(rebuilt, resumed(&cmd, elsewhere, 0), "flags: {flags}");

            let missing = edit_manifest(&manifest, &[("replicates", None)]);
            let err = command_from_manifest(&missing, elsewhere, 0).unwrap_err();
            assert!(err.0.contains("missing \"replicates\""), "{}", err.0);
        }
        std::fs::remove_dir_all(&base).ok();
    }
}
