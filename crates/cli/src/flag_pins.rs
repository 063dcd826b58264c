//! Pins what the flag layer promises from the outside: the manifest text a
//! checkpoint of each command is written with (byte for byte, because
//! `resume` compares manifests that way), the command `resume` rebuilds
//! from each of them, and the first line of every class of usage error.

use crate::{command_from_manifest, execute, execute_with_cancel, parse, CancelToken, Command};
use paraspace_journal::{CampaignManifest, MANIFEST_FILE};
use paraspace_rbm::{biosimware, Reaction, ReactionBasedModel};
use std::path::{Path, PathBuf};

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}

fn scratch(tag: &str) -> PathBuf {
    let base =
        std::env::temp_dir().join(format!("paraspace_cli_pins_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&base).unwrap();
    base
}

/// The manifest `cmd` leaves in its checkpoint directory, from a run whose
/// token is tripped before the first shard.
fn interrupted_manifest(cmd: &Command, ckpt: &Path) -> CampaignManifest {
    let tripped = CancelToken::new();
    tripped.cancel();
    execute_with_cancel(cmd, &mut Vec::new(), &tripped).unwrap_err();
    CampaignManifest::read(&ckpt.join(MANIFEST_FILE)).unwrap()
}

/// The manifest text with the scratch directory spelled `$BASE`.
fn golden(manifest: &CampaignManifest, base: &Path) -> String {
    manifest.to_text().replace(&base.display().to_string(), "$BASE")
}

/// What `resume` must rebuild from a checkpoint of `cmd`, run with
/// `workers`: `cmd` with its shard plan resolved, attached to `ckpt`.
fn resolved(cmd: &Command, ckpt: &Path, resumed_workers: usize) -> Command {
    let mut cmd = cmd.clone();
    match &mut cmd {
        Command::Simulate { checkpoint_dir, workers, listen, pack, .. } => {
            *pack = Some(pack.unwrap_or(*workers > 1));
            *checkpoint_dir = Some(ckpt.to_path_buf());
            *workers = resumed_workers;
            *listen = None;
        }
        Command::Ensemble { checkpoint_dir, .. } | Command::Pe { checkpoint_dir, .. } => {
            *checkpoint_dir = Some(ckpt.to_path_buf());
        }
        other => panic!("not a campaign command: {other:?}"),
    }
    cmd
}

#[test]
fn simulate_manifests_are_pinned_and_rebuild_their_command() {
    let base = scratch("sim");
    let model = base.join("model");
    execute(
        &Command::Generate { species: 5, reactions: 6, seed: 2, out_dir: model.clone() },
        &mut Vec::new(),
    )
    .unwrap();
    let ckpt = base.join("ckpt");
    let every_pin = format!(
        "--engine lsoda --lane-width 4 --member-budget 500 --no-pack-shards --lease-ttl 3000 \
         --retry-base 50 --rtol 1e-4 --atol 1e-9 --shard-size 3 --out {}",
        base.join("X").display()
    );
    let cases = [
        (
            String::new(),
            "paraspace-campaign-manifest v1\nkind=cli-simulate\nshards=1\n\
             field.atol=0.000000000001\nfield.batch=1\nfield.lease_ttl=2000\n\
             field.max_retries=0\nfield.member_budget=none\nfield.model=17781d92068ded53\n\
             field.model_dir=$BASE/model\nfield.options=bb925e9b79514af4\nfield.out_dir=\n\
             field.retry_base=100\nfield.rtol=0.000001\nfield.shard_plan=uniform\n\
             field.shard_size=64\nfield.times=057ccb7d3e7c632c\n\
             field.world.engine=fine-coarse\nfield.world.lane_width=auto\nfield.world.threads=1\n",
        ),
        (
            every_pin,
            "paraspace-campaign-manifest v1\nkind=cli-simulate\nshards=1\n\
             field.atol=0.000000001\nfield.batch=1\nfield.lease_ttl=3000\n\
             field.max_retries=0\nfield.member_budget=500\nfield.model=17781d92068ded53\n\
             field.model_dir=$BASE/model\nfield.options=84ae28500da714d2\nfield.out_dir=$BASE/X\n\
             field.retry_base=50\nfield.rtol=0.0001\nfield.shard_plan=uniform\n\
             field.shard_size=3\nfield.times=057ccb7d3e7c632c\n\
             field.world.engine=lsoda\nfield.world.lane_width=4\nfield.world.threads=1\n",
        ),
    ];
    for (flags, text) in cases {
        let cmd = parse(&argv(&format!(
            "simulate {} --checkpoint-dir {} {flags}",
            model.display(),
            ckpt.display()
        )))
        .unwrap();
        std::fs::remove_dir_all(&ckpt).ok();
        let manifest = interrupted_manifest(&cmd, &ckpt);
        assert_eq!(golden(&manifest, &base), text, "flags: {flags}");
        for workers in [0, 3] {
            let rebuilt = command_from_manifest(&manifest, &ckpt, workers).unwrap();
            assert_eq!(rebuilt, resolved(&cmd, &ckpt, workers), "flags: {flags}");
        }
    }

    // `--workers 2` packs its plan by cost; the plan is pinned resolved.
    let cmd = parse(&argv(&format!(
        "simulate {} --checkpoint-dir {} --workers 2 --batch 12 --shard-size 4",
        model.display(),
        ckpt.display()
    )))
    .unwrap();
    let manifest = crate::SimulateWorld::load(&cmd).unwrap().manifest();
    assert_eq!(
        golden(&manifest, &base),
        "paraspace-campaign-manifest v1\nkind=cli-simulate\nshards=3\n\
         field.atol=0.000000000001\nfield.batch=12\nfield.lease_ttl=2000\n\
         field.max_retries=0\nfield.member_budget=none\nfield.model=17781d92068ded53\n\
         field.model_dir=$BASE/model\nfield.options=bb925e9b79514af4\nfield.out_dir=\n\
         field.retry_base=100\nfield.rtol=0.000001\nfield.shard_plan=packed\n\
         field.shard_size=4\nfield.times=057ccb7d3e7c632c\n\
         field.world.engine=fine-coarse\nfield.world.lane_width=auto\nfield.world.threads=1\n",
    );
    for workers in [0, 2] {
        let rebuilt = command_from_manifest(&manifest, &ckpt, workers).unwrap();
        assert_eq!(rebuilt, resolved(&cmd, &ckpt, workers));
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn pe_manifests_are_pinned_and_rebuild_their_command() {
    let base = scratch("pe");
    // A -> B -> C -> D: three reactions, so `--unknown 0,2` is in range.
    let mut chain = ReactionBasedModel::new();
    let species: Vec<_> = [("A", 1.0), ("B", 0.0), ("C", 0.0), ("D", 0.0)]
        .into_iter()
        .map(|(name, x0)| chain.add_species(name, x0))
        .collect();
    for (k, pair) in species.windows(2).enumerate() {
        chain
            .add_reaction(Reaction::mass_action(&[(pair[0], 1)], &[(pair[1], 1)], 0.5 + k as f64))
            .unwrap();
    }
    let model = base.join("model");
    biosimware::write_dir(&chain, &model).unwrap();
    biosimware::write_time_points(&[0.5, 1.0, 2.0], &model).unwrap();
    let target = base.join("target.tsv");
    std::fs::write(&target, "0.5\t1\t0\t0\t0\n1\t0.5\t0.3\t0.1\t0.1\n2\t0.2\t0.3\t0.3\t0.2\n")
        .unwrap();

    let ckpt = base.join("ckpt");
    // Defaults: self-calibration, so the target solve runs before the
    // manifest is written; run the (small) campaign to completion.
    let defaults =
        parse(&argv(&format!("pe {} --checkpoint-dir {}", model.display(), ckpt.display())))
            .unwrap();
    execute(&defaults, &mut Vec::new()).unwrap();
    let manifest = CampaignManifest::read(&ckpt.join(MANIFEST_FILE)).unwrap();
    assert_eq!(
        golden(&manifest, &base),
        "paraspace-campaign-manifest v1\nkind=cli-pe\nshards=0\nfield.atol=1e-12\n\
         field.engine=lsoda\nfield.grad_iterations=60\nfield.iterations=40\n\
         field.log_radius=1.5e0\nfield.model_dir=$BASE/model\nfield.observed=all\n\
         field.optimizer=hybrid\nfield.out_dir=\nfield.rtol=1e-6\nfield.seed=42\n\
         field.starts=3\nfield.swarm=auto\nfield.target=self\nfield.threads=1\n\
         field.unknown=all\n",
    );
    assert_eq!(command_from_manifest(&manifest, &ckpt, 0).unwrap(), resolved(&defaults, &ckpt, 0));

    let ckpt = base.join("ckpt_flags");
    let flagged = parse(&argv(&format!(
        "pe {} --checkpoint-dir {} --unknown 0,2 --observed B,D --target {} --swarm 8 \
         --log-radius 2",
        model.display(),
        ckpt.display(),
        target.display()
    )))
    .unwrap();
    let manifest = interrupted_manifest(&flagged, &ckpt);
    assert_eq!(
        golden(&manifest, &base),
        "paraspace-campaign-manifest v1\nkind=cli-pe\nshards=0\nfield.atol=1e-12\n\
         field.engine=lsoda\nfield.grad_iterations=60\nfield.iterations=40\n\
         field.log_radius=2e0\nfield.model_dir=$BASE/model\nfield.observed=B,D\n\
         field.optimizer=hybrid\nfield.out_dir=\nfield.rtol=1e-6\nfield.seed=42\n\
         field.starts=3\nfield.swarm=8\nfield.target=$BASE/target.tsv\nfield.threads=1\n\
         field.unknown=0,2\n",
    );
    assert_eq!(command_from_manifest(&manifest, &ckpt, 0).unwrap(), resolved(&flagged, &ckpt, 0));
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn ensemble_manifests_are_pinned_and_rebuild_their_command() {
    let base = scratch("ens");
    let model = base.join("model");
    execute(
        &Command::Generate { species: 5, reactions: 6, seed: 8, out_dir: model.clone() },
        &mut Vec::new(),
    )
    .unwrap();
    let cases = [
        (
            "",
            "paraspace-campaign-manifest v1\nkind=ensemble\nshards=2\n\
             field.lane_width=auto\nfield.member=0\nfield.model=0c49c4e74baa2157\n\
             field.replicates=100\nfield.seed=0\nfield.shard_size=64\n\
             field.simulator=tau-leaping\nfield.times=057ccb7d3e7c632c\n\
             field.world.model_dir=$BASE/model\nfield.world.out_dir=\nfield.world.threads=1\n",
        ),
        (
            "--simulator ssa --lane-width 2 --seed 9 --member 3",
            "paraspace-campaign-manifest v1\nkind=ensemble\nshards=2\n\
             field.lane_width=2\nfield.member=3\nfield.model=0c49c4e74baa2157\n\
             field.replicates=100\nfield.seed=9\nfield.shard_size=64\n\
             field.simulator=ssa\nfield.times=057ccb7d3e7c632c\n\
             field.world.model_dir=$BASE/model\nfield.world.out_dir=\nfield.world.threads=1\n",
        ),
    ];
    for (i, (flags, text)) in cases.into_iter().enumerate() {
        let ckpt = base.join(format!("ckpt{i}"));
        let cmd = parse(&argv(&format!(
            "ensemble {} --checkpoint-dir {} {flags}",
            model.display(),
            ckpt.display()
        )))
        .unwrap();
        let manifest = interrupted_manifest(&cmd, &ckpt);
        assert_eq!(golden(&manifest, &base), text, "flags: {flags}");
        assert_eq!(command_from_manifest(&manifest, &ckpt, 0).unwrap(), resolved(&cmd, &ckpt, 0));
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn every_usage_error_class_has_its_message() {
    let auto = "(expected `auto` or a width >= 1)";
    let cases = [
        ("frobnicate", "unknown command \"frobnicate\" (try `paraspace help`)".to_string()),
        ("simulate", "simulate needs a model directory".into()),
        ("simulate /m /n", "unexpected argument \"/n\"".into()),
        ("simulate /m --bogus", "unexpected argument \"--bogus\"".into()),
        ("simulate /m --batch", "--batch needs a value".into()),
        ("simulate /m --batch many", "invalid value for --batch: \"many\"".into()),
        ("simulate /m --rtol tight", "invalid value for --rtol: \"tight\"".into()),
        ("simulate /m --lane-width 0", format!("invalid value for --lane-width: \"0\" {auto}")),
        ("simulate /m --lane-width", "--lane-width needs a value".into()),
        ("simulate /m --workers 2", "--workers needs --checkpoint-dir".into()),
        ("simulate --workers 2", "--workers needs --checkpoint-dir".into()),
        ("simulate /m --listen 127.0.0.1:0", "--listen needs --checkpoint-dir".into()),
        (
            "simulate /m --checkpoint-dir /c --lease-ttl 0",
            "--lease-ttl and --retry-base must be positive".into(),
        ),
        (
            "simulate /m --checkpoint-dir /c --retry-base 0",
            "--lease-ttl and --retry-base must be positive".into(),
        ),
        ("ensemble", "ensemble needs a model directory".into()),
        ("ensemble /m --replicates nope", "invalid value for --replicates: \"nope\"".into()),
        (
            "ensemble /m --lane-width wide",
            format!("invalid value for --lane-width: \"wide\" {auto}"),
        ),
        ("ensemble /m --seed", "--seed needs a value".into()),
        ("pe", "pe needs a model directory".into()),
        (
            "pe /m --optimizer annealing",
            "unknown optimizer \"annealing\" (expected `pso`, `lbfgs`, or `hybrid`)".into(),
        ),
        ("pe /m --unknown 0,x", "invalid value for --unknown: \"0,x\"".into()),
        ("pe /m --log-radius 0", "--log-radius must be a positive number".into()),
        ("pe /m --log-radius NaN", "--log-radius must be a positive number".into()),
        ("pe /m --starts 0", "--starts must be at least 1".into()),
        ("pe --starts 0", "--starts must be at least 1".into()),
        ("pe /m --swarm many", "invalid value for --swarm: \"many\"".into()),
        ("resume", "resume needs a checkpoint directory".into()),
        ("resume /a /b", "unexpected argument \"/b\"".into()),
        ("resume /a --workers x", "invalid value for --workers: \"x\"".into()),
        ("worker", "worker needs a checkpoint directory or --connect HOST:PORT".into()),
        (
            "worker /c --connect h:1",
            "worker takes either a checkpoint directory or --connect, not both".into(),
        ),
        ("worker /c --chaos-kill-at soon", "invalid value for --chaos-kill-at: \"soon\"".into()),
        ("coordinate", "coordinate needs a checkpoint directory".into()),
        ("coordinate /c --listen", "--listen needs a value".into()),
        ("convert onlyone", "convert needs exactly <from> and <to>".into()),
        ("generate --species 5 /x", "generate needs --reactions".into()),
        ("generate --reactions 5 /x", "generate needs --species".into()),
        ("generate --species 5 --reactions 6", "generate needs an output directory".into()),
        ("generate --species five", "invalid value for --species: \"five\"".into()),
        ("recommend", "recommend needs --species".into()),
        ("recommend --species 1 --reactions 2", "recommend needs --sims".into()),
        ("recommend --species 1 --reactions 2 --sims 3 x", "unexpected argument \"x\"".into()),
    ];
    for (args, first_line) in cases {
        let err = parse(&argv(args)).unwrap_err();
        assert_eq!(err.0.lines().next(), Some(first_line.as_str()), "argv: {args}");
    }
}
