//! `simulate`'s artifacts. Every path formats a member once, in the
//! engine's P5 tail — plain writes it from there on `--threads` workers, a
//! journaled shard collects it into its record — so names and bytes must
//! not depend on the thread count or on the path (plain, `--checkpoint-dir`
//! in shards, `--workers`), each `.tsv` must be exactly what
//! `serialize_dynamics` gives for that member's in-process trajectory, and
//! what an `--out` directory holds afterwards is this campaign's batch:
//! nothing a previous campaign left there survives beside it.

use paraspace_core::{FineCoarseEngine, RecoveryPolicy, SimulationJob, Simulator};
use paraspace_rbm::{biosimware, perturbed_batch, sbgen::SbGen, Reaction, ReactionBasedModel};
use paraspace_solvers::SolverOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

const MEMBERS: usize = 16;

fn read_outputs(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| {
            let e = e.unwrap();
            (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap())
        })
        .collect()
}

#[test]
fn artifacts_are_the_same_bytes_at_any_thread_count_and_match_the_library() {
    let base = std::env::temp_dir().join(format!("paraspace_artifacts_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let model_dir = base.join("model");

    let model = SbGen::new(24, 32).generate(&mut StdRng::seed_from_u64(11));
    let batch = perturbed_batch(&model, MEMBERS, &mut StdRng::seed_from_u64(5));
    let times = vec![5.0, 10.0, 25.0, 50.0];
    biosimware::write_dir(&model, &model_dir).unwrap();
    biosimware::write_time_points(&times, &model_dir).unwrap();
    biosimware::write_parameterizations(&model, &batch, &model_dir).unwrap();

    // The job as the CLI builds it at its default tolerances.
    let job = SimulationJob::builder(&model)
        .time_points(times)
        .parameterizations(batch)
        .options(SolverOptions {
            rel_tol: 1e-6,
            abs_tol: 1e-12,
            max_steps: 100_000,
            ..SolverOptions::default()
        })
        .build()
        .unwrap();

    // A budget the cheapest member just meets, so the dearer ones fail.
    let unbounded = FineCoarseEngine::new().run(&job).unwrap();
    assert_eq!(unbounded.success_count(), MEMBERS);
    let steps: Vec<usize> = unbounded.solutions().map(|s| s.stats.steps).collect();
    let budget = *steps.iter().min().unwrap();
    assert!(budget < *steps.iter().max().unwrap(), "the members must differ in cost");
    let recovery = RecoveryPolicy { step_budget: Some(budget), ..RecoveryPolicy::default() };
    let expected = FineCoarseEngine::new().with_recovery(recovery).run(&job).unwrap();

    let run = |name: &str, args: &[&str]| {
        let out_dir = base.join(name);
        let status = Command::new(env!("CARGO_BIN_EXE_paraspace-cli"))
            .arg("simulate")
            .arg(&model_dir)
            .args(["--member-budget", &budget.to_string(), "--out"])
            .arg(&out_dir)
            .args(args)
            .output()
            .expect("spawn paraspace-cli");
        assert!(status.status.success(), "{}", String::from_utf8_lossy(&status.stderr));
        read_outputs(&out_dir)
    };
    let one = run("plain_1", &["--threads", "1"]);
    for threads in ["2", "4"] {
        let other = run(&format!("plain_{threads}"), &["--threads", threads]);
        assert_eq!(one, other, "artifacts differ between --threads 1 and --threads {threads}");
    }
    let checkpoint = |name: &str| base.join(name).display().to_string();
    let durable =
        run("durable", &["--checkpoint-dir", &checkpoint("ck_durable"), "--shard-size", "4"]);
    assert_eq!(one, durable, "journaled artifacts differ from plain");
    let dispatched = run(
        "dispatched",
        &["--checkpoint-dir", &checkpoint("ck_dispatched"), "--shard-size", "4", "--workers", "2"],
    );
    assert_eq!(one, dispatched, "2-worker artifacts differ from plain");

    assert_eq!(one.len(), MEMBERS);
    for (i, outcome) in expected.outcomes.iter().enumerate() {
        match &outcome.solution {
            Ok(solution) => assert_eq!(
                one.get(&format!("dynamics_{i:05}.tsv")).map(Vec::as_slice),
                Some(job.serialize_dynamics(solution).as_bytes()),
                "member {i}"
            ),
            Err(_) => assert!(one.contains_key(&format!("dynamics_{i:05}.err")), "member {i}"),
        }
    }
    let failed = one.keys().filter(|name| name.ends_with(".err")).count();
    assert!((1..MEMBERS).contains(&failed), "{failed} of {MEMBERS} members failed");

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn a_reused_out_directory_holds_only_the_new_batch() {
    let base = std::env::temp_dir().join(format!("paraspace_stale_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let (model_dir, out_dir) = (base.join("model"), base.join("out"));
    // Two species, two fast reactions: stiff enough that three steps are
    // nobody's budget.
    let mut model = ReactionBasedModel::new();
    let a = model.add_species("A", 1.0);
    let b = model.add_species("B", 0.0);
    model.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1e5)).unwrap();
    model.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 2e5)).unwrap();
    biosimware::write_dir(&model, &model_dir).unwrap();

    let simulate = |args: &[&str]| {
        let output = Command::new(env!("CARGO_BIN_EXE_paraspace-cli"))
            .arg("simulate")
            .arg(&model_dir)
            .arg("--out")
            .arg(&out_dir)
            .args(args)
            .output()
            .expect("spawn paraspace-cli");
        assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
        let names: Vec<String> = read_outputs(&out_dir).into_keys().collect();
        (String::from_utf8_lossy(&output.stdout).into_owned(), names)
    };
    let members = |n: usize, ext: &str| -> Vec<String> {
        (0..n).map(|i| format!("dynamics_{i:05}.{ext}")).collect()
    };
    let with_notes = |mut names: Vec<String>| {
        names.push("notes.txt".into());
        names
    };

    let (_, names) = simulate(&["--batch", "8"]);
    assert_eq!(names, members(8, "tsv"));
    // Not a member artifact: the campaign leaves it alone.
    std::fs::write(out_dir.join("notes.txt"), "kept").unwrap();

    // A smaller batch: members 4..8 belong to a campaign that is gone.
    let (_, names) = simulate(&["--batch", "4", "--threads", "2"]);
    assert_eq!(names, with_notes(members(4, "tsv")));

    // Every member now fails: no `.tsv` of the earlier run sits beside the
    // `.err` that replaced it.
    let (stdout, names) = simulate(&["--batch", "4", "--member-budget", "3"]);
    assert!(stdout.contains("0/4 simulations ok"), "{stdout}");
    assert_eq!(names, with_notes(members(4, "err")));

    // The journaled path materializes into the same directory.
    let checkpoint = base.join("ck").display().to_string();
    let (_, names) = simulate(&["--batch", "2", "--checkpoint-dir", &checkpoint]);
    assert_eq!(names, with_notes(members(2, "tsv")));
    assert_eq!(std::fs::read(out_dir.join("notes.txt")).unwrap(), b"kept");

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn a_directory_that_cannot_exist_fails_by_name_and_before_a_plain_run() {
    let base = std::env::temp_dir().join(format!("paraspace_baddir_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let model_dir = base.join("model");
    let model = SbGen::new(6, 8).generate(&mut StdRng::seed_from_u64(3));
    biosimware::write_dir(&model, &model_dir).unwrap();
    let file = base.join("a_file");
    std::fs::write(&file, "").unwrap();
    let under_file = file.join("dir").display().to_string();
    let fine = base.join("fine").display().to_string();

    for (flag, args) in [
        ("--out", vec!["--out", under_file.as_str()]),
        ("--checkpoint-dir", vec!["--checkpoint-dir", under_file.as_str(), "--out", fine.as_str()]),
        ("--out", vec!["--checkpoint-dir", fine.as_str(), "--out", under_file.as_str()]),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_paraspace-cli"))
            .arg("simulate")
            .arg(&model_dir)
            .args(&args)
            .output()
            .expect("spawn paraspace-cli");
        assert!(!output.status.success(), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let expected = format!("cannot create {flag} directory {under_file}");
        assert!(stderr.contains(&expected), "{args:?}: {stderr}");
        // Nothing was integrated for nothing: the plain run and the
        // checkpoint fail before any work, and the journaled run whose
        // `--out` cannot exist (created only once every shard has
        // committed) keeps its shards for a `resume`.
        assert!(output.stdout.is_empty(), "{}", String::from_utf8_lossy(&output.stdout));
    }
    std::fs::remove_dir_all(&base).ok();
}
