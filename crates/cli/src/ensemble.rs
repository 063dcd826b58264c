//! `ensemble`: a stochastic replicate ensemble, journaled when there is a
//! checkpoint directory — the same campaign either way.

use crate::args::ENSEMBLE;
use crate::simulate::is_member_artifact;
use crate::{campaign_error, read_time_points, report_checkpoint, CancelToken, CliError, Command};
use paraspace_analysis::campaign::Checkpoint;
use paraspace_analysis::ensemble;
use paraspace_rbm::biosimware;
use paraspace_stochastic::{
    EnsembleStats, StochasticBatch, StochasticError, StochasticSimulator, StochasticTrajectory,
};
use std::path::Path;

/// The file replicate `i` is written to: `.tsv` for a trajectory, `.err` for
/// a failure report.
fn replicate_file(i: usize, ok: bool) -> String {
    format!("replicate_{i:05}.{}", if ok { "tsv" } else { "err" })
}

/// Removes the replicate files an earlier ensemble left in `out_path` that
/// this one does not write — replicates past its count, and a replicate
/// whose outcome flipped between `.tsv` and `.err` — so that afterwards the
/// directory holds this ensemble's replicates and nothing else. The files
/// this ensemble writes too are left for it to overwrite in place: deleting
/// and recreating every one of them is what made a rerun into a used
/// directory slower than a run into a fresh one. Other files are not
/// touched.
fn remove_stale_replicates(
    out_path: &Path,
    outcomes: &[Result<StochasticTrajectory, StochasticError>],
) -> std::io::Result<()> {
    let rewritten = |name: &str| {
        let index = name.strip_prefix("replicate_").and_then(|rest| rest.split_once('.'));
        let index = index.and_then(|(index, _)| index.parse::<usize>().ok());
        index.is_some_and(|i| {
            outcomes.get(i).is_some_and(|outcome| name == replicate_file(i, outcome.is_ok()))
        })
    };
    for entry in std::fs::read_dir(out_path)? {
        let entry = entry?;
        let name = entry.file_name();
        if is_member_artifact(&name, "replicate_") && !name.to_str().is_some_and(rewritten) {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// Writes `body` as the contents of the file at `path`, over the bytes of a
/// file already there: they are overwritten and the file is cut to length
/// afterwards, so a rerun whose files come out the same size (most of them)
/// never frees and reallocates their blocks, as truncating first would.
fn overwrite(path: &Path, body: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let mut file =
        std::fs::OpenOptions::new().write(true).create(true).truncate(false).open(path)?;
    file.write_all(body)?;
    file.set_len(body.len() as u64)
}

/// Writes the per-replicate trajectory/error files and the ensemble
/// mean/variance tables, after removing the replicate files of an earlier
/// ensemble this one does not overwrite. Pure function of the outcomes, so
/// durable and plain runs (and resumed runs) produce byte-identical
/// artifacts.
fn write_ensemble_outputs(
    out_path: &Path,
    model: &paraspace_rbm::ReactionBasedModel,
    outcomes: &[Result<StochasticTrajectory, StochasticError>],
    stats: &EnsembleStats,
) -> Result<(), CliError> {
    std::fs::create_dir_all(out_path)?;
    remove_stale_replicates(out_path, outcomes)?;
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
                overwrite(&out_path.join(replicate_file(i, true)), body.as_bytes())?;
            }
            Err(e) => {
                overwrite(
                    &out_path.join(replicate_file(i, false)),
                    format!("error: {e}\n").as_bytes(),
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
        overwrite(&out_path.join(name), body.as_bytes())?;
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
    fn a_rerun_leaves_exactly_the_files_of_a_run_into_a_fresh_directory() {
        let base =
            std::env::temp_dir().join(format!("paraspace_cli_ensrerun_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let model = base.join("model");
        execute(
            &Command::Generate { species: 5, reactions: 6, seed: 8, out_dir: model.clone() },
            &mut Vec::new(),
        )
        .unwrap();
        // Counts large enough that reactions fire, and a twin of the model
        // whose rate constants trip the propensity hardening in every
        // replicate: the same replicates, each `.err` instead of `.tsv`.
        let scaled: String = std::fs::read_to_string(model.join("M_0"))
            .unwrap()
            .lines()
            .map(|row| {
                let row = row.split('\t').map(|x| (x.parse::<f64>().unwrap() * 1e4).to_string());
                row.collect::<Vec<_>>().join("\t") + "\n"
            })
            .collect();
        std::fs::write(model.join("M_0"), scaled).unwrap();
        let failing = base.join("failing");
        std::fs::create_dir_all(&failing).unwrap();
        for entry in std::fs::read_dir(&model).unwrap() {
            let path = entry.unwrap().path();
            std::fs::copy(&path, failing.join(path.file_name().unwrap())).unwrap();
        }
        let rates = std::fs::read_to_string(model.join("c_vector")).unwrap();
        std::fs::write(
            failing.join("c_vector"),
            rates.lines().map(|_| "1.7976931348623157e308\n").collect::<String>(),
        )
        .unwrap();

        let run = |model: &Path, replicates: usize, seed: u64, out: &Path| {
            let mut cmd = ensemble_cmd(model, None, 2);
            if let Command::Ensemble { replicates: r, seed: s, out_dir, .. } = &mut cmd {
                (*r, *s, *out_dir) = (replicates, seed, Some(out.to_path_buf()));
            }
            execute(&cmd, &mut Vec::new()).unwrap();
            read_outputs(out)
        };
        let reused = base.join("reused");
        run(&model, 16, 1, &reused);
        // Fewer replicates; every outcome flipped to `.err` and back; other
        // values (another seed) in files that exist, longer or shorter.
        let steps = [
            (&model, 8, 1, "fewer"),
            (&failing, 8, 1, "to_err"),
            (&model, 12, 1, "to_tsv"),
            (&model, 10, 2, "reseeded"),
        ];
        for (model, replicates, seed, name) in steps {
            let got = run(model, replicates, seed, &reused);
            let want = run(model, replicates, seed, &base.join(name));
            assert_eq!(got.keys().collect::<Vec<_>>(), want.keys().collect::<Vec<_>>(), "{name}");
            assert!(got == want, "{name}: a file's bytes differ from a fresh run's");
            let errs = want.keys().filter(|k| k.ends_with(".err")).count();
            assert_eq!(errs, if name == "to_err" { replicates } else { 0 }, "{name}");
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
