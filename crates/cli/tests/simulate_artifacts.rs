//! The plain `simulate` path's artifacts: the per-member files are written
//! by `--threads` workers, so their names and bytes must not depend on the
//! thread count, and each `.tsv` must be exactly what `serialize_dynamics`
//! gives for that member's in-process trajectory.

use paraspace_core::{FineCoarseEngine, RecoveryPolicy, SimulationJob, Simulator};
use paraspace_rbm::{biosimware, perturbed_batch, sbgen::SbGen};
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

    let run = |threads: &str| {
        let out_dir = base.join(format!("out_{threads}"));
        let status = Command::new(env!("CARGO_BIN_EXE_paraspace-cli"))
            .arg("simulate")
            .arg(&model_dir)
            .args(["--threads", threads, "--member-budget", &budget.to_string(), "--out"])
            .arg(&out_dir)
            .output()
            .expect("spawn paraspace-cli");
        assert!(status.status.success(), "{}", String::from_utf8_lossy(&status.stderr));
        read_outputs(&out_dir)
    };
    let one = run("1");
    assert_eq!(one, run("4"), "artifacts differ between --threads 1 and --threads 4");

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
