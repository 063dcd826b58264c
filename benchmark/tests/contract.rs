//! The benchmark's own CI: `BENCHMARK.json` against the contract's limits
//! and against what the driver actually emits in `--smoke` mode.
//!
//! The smoke test needs the release CLI; it looks beside its own driver
//! in the build directory and builds it there if missing.

use std::path::{Path, PathBuf};
use std::process::Command;

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

#[path = "../src/spec.rs"]
#[allow(dead_code)]
mod spec;

use json::Value;

fn repo_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ has a parent").to_path_buf()
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_dir().join("BENCHMARK.json")).expect("BENCHMARK.json");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_of(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("{key} is an array"))
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Value::as_str).unwrap_or_else(|| panic!("{key}: {k}"));
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn benchmark_json_meets_the_contract() {
    let doc = benchmark_json();
    let keys: Vec<&str> =
        doc.as_obj().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);

    let paths: Vec<&str> = doc
        .get("paths")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"], "the benchmark lives in benchmark/ and nowhere else");
    let command: Vec<&str> = doc
        .get("command")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);

    let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let workloads = doc.get("workloads").and_then(Value::as_arr).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        let fields: Vec<&str> = w.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(fields, ["name", "why"]);
        assert!(valid_name(w.get("name").and_then(Value::as_str).unwrap()));
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "why of at most 200 characters, one line");
    }

    let end_to_end = doc.get("end_to_end").and_then(Value::as_arr).unwrap();
    assert!((1..=16).contains(&end_to_end.len()));
    let mut largest_bound = 0.0f64;
    for m in end_to_end {
        let fields: Vec<&str> = m.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(fields, ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} outside (0, 0.25]");
        largest_bound = largest_bound.max(bound);
    }
    let setup = end_to_end
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        .expect("setup_s is declared");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
    assert_eq!(setup.get("bound").and_then(Value::as_f64), Some(largest_bound));

    let per_layer = doc.get("per_layer").and_then(Value::as_arr).unwrap();
    assert!((1..=128).contains(&per_layer.len()));
    for m in per_layer {
        let fields: Vec<&str> = m.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(fields, ["name", "unit", "better"]);
    }

    let mut seen = std::collections::BTreeSet::new();
    for key in ["end_to_end", "per_layer"] {
        for (name, unit) in names_of(&doc, key) {
            assert!(valid_name(&name), "bad metric name {name:?}");
            assert!(valid_unit(&unit), "bad unit {unit:?} of {name}");
            assert!(seen.insert(name.clone()), "{name} is declared twice");
        }
        for m in doc.get(key).and_then(Value::as_arr).unwrap() {
            let better = m.get("better").and_then(Value::as_str).unwrap();
            assert!(better == "lower" || better == "higher");
        }
    }
    for w in workloads {
        assert!(seen.insert(w.get("name").and_then(Value::as_str).unwrap().to_string()));
    }
}

/// `BENCHMARK.json` declares exactly the metrics of `src/spec.rs`, in its
/// order, with its units, directions and bounds.
#[test]
fn benchmark_json_matches_the_metric_tables() {
    let doc = benchmark_json();
    let declared = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (text("name"), text("unit"), text("better"), m.get("bound").and_then(Value::as_f64))
            })
            .collect()
    };
    let end_to_end: Vec<_> = spec::END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string(), Some(m.bound)))
        .collect();
    let per_layer: Vec<_> = spec::PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string(), None))
        .collect();
    assert_eq!(doc.get("run_seconds").and_then(Value::as_f64), Some(spec::RUN_SECONDS));
    let gated: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(gated, spec::GATED_WORKLOADS);
    assert!(spec::GATED_WORKLOADS.iter().all(|w| spec::WORKLOADS.contains(w)));
    assert_eq!(declared("end_to_end"), end_to_end);
    assert_eq!(declared("per_layer"), per_layer);
}

/// The build directory this test's driver was built into, and the release
/// CLI there (built on demand, as `run.sh` does).
fn built_cli() -> (PathBuf, PathBuf) {
    let driver = Path::new(env!("CARGO_BIN_EXE_paraspace-e2e"));
    let build_dir =
        driver.parent().and_then(Path::parent).expect("<target>/<profile>/").to_path_buf();
    let cli = build_dir.join("release").join("paraspace-cli");
    if !cli.exists() {
        let status = Command::new("cargo")
            .args(["build", "--release", "--offline", "--quiet", "-p", "paraspace-cli"])
            .arg("--manifest-path")
            .arg(repo_dir().join("Cargo.toml"))
            .env("CARGO_TARGET_DIR", &build_dir)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building paraspace-cli failed");
    }
    (build_dir, cli)
}

/// One driver run; the parsed last line of its standard output.
fn smoke_run(workload: &str, trace: &str) -> Value {
    let (build_dir, cli) = built_cli();
    let output = Command::new(env!("CARGO_BIN_EXE_paraspace-e2e"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .arg("--cli")
        .arg(cli)
        .arg("--workdir")
        .arg(build_dir.join("e2e-test-work"))
        .output()
        .expect("the driver runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 report");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

fn assert_result_shape(result: &Value, declared: &[(String, String)], what: &str) {
    let keys: Vec<&str> = result.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{what}");
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{what}");
    let attempted = result.get("attempted").and_then(Value::as_f64).unwrap();
    assert!(attempted >= 1.0 && attempted.fract() == 0.0, "{what}");
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0), "{what}");
    let metrics = result.get("metrics").and_then(Value::as_obj).unwrap();
    let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(emitted, wanted, "{what}: exactly the declared metrics, in declared order");
    for ((_, unit), (name, m)) in declared.iter().zip(metrics) {
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()), "{what}: {name}");
        let value = m.get("value").and_then(Value::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{what}: {name} is not a finite number");
    }
}

/// Every declared end-to-end metric is emitted for every workload of the
/// package (gated or not) with the declared unit and is never 0; a traced
/// run emits every per-layer metric. This drives the real CLI at an eighth
/// of the benchmark's sizes.
#[test]
fn smoke_runs_emit_exactly_the_declared_metrics() {
    let doc = benchmark_json();
    let end_to_end = names_of(&doc, "end_to_end");
    let per_layer = names_of(&doc, "per_layer");
    for name in spec::WORKLOADS {
        let timed = smoke_run(name, "0");
        assert_result_shape(&timed, &end_to_end, name);
        for (metric, m) in timed.get("metrics").and_then(Value::as_obj).unwrap() {
            assert!(m.get("value").and_then(Value::as_f64).unwrap() > 0.0, "{name}: {metric} is 0");
        }
        let traced = smoke_run(name, "1");
        assert_result_shape(&traced, &per_layer, &format!("{name} traced"));
    }
}
