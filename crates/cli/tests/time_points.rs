//! The sample times of `simulate`, `ensemble` and self-calibrating `pe`
//! come from the model directory's `t_vector`. A directory without one runs
//! at the default times; a `t_vector` that is there but malformed stops the
//! campaign with an error naming it, before anything is written.

use paraspace_cli::{execute, parse};
use std::path::Path;

/// Lotka–Volterra with no `t_vector`.
fn write_model(dir: &Path) {
    std::fs::create_dir_all(dir).unwrap();
    for (file, text) in [
        ("alphabet", "X\tY\n"),
        ("M_0", "0.5\t0.5\n"),
        ("left_side", "1\t0\n1\t1\n0\t1\n"),
        ("right_side", "2\t0\n0\t2\n0\t0\n"),
        ("c_vector", "1\n1\n1\n"),
    ] {
        std::fs::write(dir.join(file), text).unwrap();
    }
}

/// The three campaigns that read a `t_vector`, each into `out/<name>`.
fn campaigns(model: &Path, out: &Path) -> Vec<(&'static str, Vec<String>)> {
    let (model, out) = (model.display(), out.display());
    [
        ("simulate", format!("simulate {model} --batch 2 --out {out}/simulate")),
        ("ensemble", format!("ensemble {model} --replicates 4 --out {out}/ensemble")),
        ("pe", format!("pe {model} --optimizer pso --iterations 2 --swarm 3 --out {out}/pe")),
    ]
    .into_iter()
    .map(|(name, line)| (name, line.split(' ').map(String::from).collect()))
    .collect()
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = parse(args).map_err(|e| e.to_string())?;
    execute(&cmd, &mut Vec::new()).map_err(|e| e.to_string())
}

/// Every file under `dir`, by path relative to it, with its bytes.
fn tree(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(at) = pending.pop() {
        for entry in std::fs::read_dir(&at).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let name = path.strip_prefix(dir).unwrap().display().to_string();
                files.push((name, std::fs::read(&path).unwrap()));
            }
        }
    }
    files.sort();
    files
}

fn base(test: &str) -> std::path::PathBuf {
    let base = std::env::temp_dir().join(format!("paraspace_tvec_{test}_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    base
}

#[test]
fn a_malformed_t_vector_fails_every_campaign_before_it_writes() {
    let base = base("malformed");
    let model = base.join("model");
    write_model(&model);
    std::fs::write(model.join("t_vector"), "1.0\nl.0\n5.0\n").unwrap();
    let before = tree(&model);
    for (name, args) in campaigns(&model, &base.join("out")) {
        let error = run(&args).expect_err(name);
        assert!(error.contains("t_vector"), "{name}: {error}");
        assert!(!base.join("out").join(name).exists(), "{name} wrote its --out");
        assert_eq!(tree(&model), before, "{name} wrote into the model directory");
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn a_missing_t_vector_runs_at_the_default_times() {
    let base = base("missing");
    let (model, pinned) = (base.join("model"), base.join("pinned"));
    write_model(&model);
    write_model(&pinned);
    std::fs::write(pinned.join("t_vector"), "1\n2\n5\n10\n").unwrap();
    for ((name, missing), (_, explicit)) in campaigns(&model, &base.join("missing"))
        .into_iter()
        .zip(campaigns(&pinned, &base.join("pinned_out")))
    {
        run(&missing).unwrap_or_else(|e| panic!("{name} without a t_vector: {e}"));
        run(&explicit).unwrap_or_else(|e| panic!("{name} at 1, 2, 5, 10: {e}"));
        let (a, b) =
            (tree(&base.join("missing").join(name)), tree(&base.join("pinned_out").join(name)));
        assert!(!a.is_empty(), "{name} wrote nothing");
        assert_eq!(a, b, "{name}: no t_vector must mean the times 1, 2, 5, 10");
    }
    std::fs::remove_dir_all(&base).ok();
}
