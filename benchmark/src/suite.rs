//! Every workload in turn, each in its own driver process, and the A/A
//! self-check built on it.

use crate::json::{self, Value};
use crate::run::provenance;
use crate::spec::{Repeat, END_TO_END, GATED_WORKLOADS, PER_LAYER};
use crate::workloads::NAMES;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub cli: PathBuf,
    pub workdir: PathBuf,
}

/// What one driver process reported: the result object and the `#detail`
/// object (provenance, repetition summaries or spans).
struct WorkloadReport {
    name: &'static str,
    result: Value,
    detail: Value,
}

impl WorkloadReport {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result.get("metrics")?.get(name)?.get("value")?.as_f64()
    }

    fn correct(&self) -> bool {
        self.result.get("correct") == Some(&Value::Bool(true))
    }
}

/// Runs one workload in a child driver, echoing its report.
fn run_workload(
    suite: &SuiteArgs,
    name: &'static str,
    trace: bool,
) -> Result<WorkloadReport, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &suite.seed.to_string()])
        .args(["--seconds", &suite.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--cli")
        .arg(&suite.cli)
        .arg("--workdir")
        .arg(&suite.workdir)
        .stdout(Stdio::piped());
    if suite.smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd.spawn().map_err(|e| format!("cannot start the driver: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let (mut detail, mut last) = (None, String::new());
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| e.to_string())?;
        match line.strip_prefix("#detail ") {
            Some(d) => detail = Some(json::parse(d)?),
            None => println!("{line}"),
        }
        last = line;
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    let result = json::parse(&last)
        .map_err(|e| format!("{name}: no result line (driver exited with {status}): {e}"))?;
    Ok(WorkloadReport { name, result, detail: detail.unwrap_or(Value::Null) })
}

fn run_set(suite: &SuiteArgs, trace: bool) -> Result<Vec<WorkloadReport>, String> {
    NAMES
        .iter()
        .map(|name| {
            println!();
            run_workload(suite, name, trace)
        })
        .collect()
}

/// Two sets with each workload's two runs back to back: the machine's speed
/// drifts by tens of percent over minutes, so the runs an A/A compares
/// must be neighbours in time.
fn run_paired_sets(suite: &SuiteArgs, trace: bool) -> Result<[Vec<WorkloadReport>; 2], String> {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for name in NAMES {
        for set in [&mut a, &mut b] {
            println!();
            set.push(run_workload(suite, name, trace)?);
        }
    }
    Ok([a, b])
}

fn set_json(reports: &[WorkloadReport]) -> Value {
    Value::Obj(
        reports
            .iter()
            .map(|r| {
                let mut fields = vec![("result", r.result.clone())];
                // Spans are for reading a single run; the committed files
                // keep provenance and summaries.
                if let Some(obj) = r.detail.as_obj() {
                    let kept = obj.iter().filter(|(k, _)| k != "spans").cloned().collect();
                    fields.push(("detail", Value::Obj(kept)));
                }
                (r.name.to_string(), Value::obj(fields))
            })
            .collect(),
    )
}

fn header_json(suite: &SuiteArgs) -> Vec<(&'static str, Value)> {
    let mut header = provenance();
    header.extend([
        ("seed", Value::Num(suite.seed as f64)),
        ("seconds", suite.seconds.into()),
        ("smoke", Value::Bool(suite.smoke)),
    ]);
    header
}

fn print_summary(reports: &[WorkloadReport], trace: bool) {
    println!("\n== summary ==");
    let names: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    print!("{:<38}", "metric");
    for r in reports {
        print!(" {:>19}", r.name);
    }
    println!();
    for (name, unit) in names {
        print!("{:<38}", format!("{name} [{unit}]"));
        for r in reports {
            print!(" {:>19.6}", r.metric(name).unwrap_or(f64::NAN));
        }
        println!();
    }
}

/// Runs every workload once; `Ok(false)` when any check failed.
pub fn run_all(suite: &SuiteArgs, trace: bool, save: Option<&Path>) -> Result<bool, String> {
    let reports = run_set(suite, trace)?;
    print_summary(&reports, trace);
    if let Some(path) = save {
        let mut doc = header_json(suite);
        doc.push(("trace", Value::Bool(trace)));
        doc.push(("workloads", set_json(&reports)));
        std::fs::write(path, json::pretty(&Value::obj(doc)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(reports.iter().all(WorkloadReport::correct))
}

/// A/A: the end-to-end set twice and the traced set twice on the same
/// build, each workload's two runs back to back. Every end-to-end metric of
/// a gated workload must agree within its bound (the pairs of the other
/// workloads are listed and flagged, not asserted: they are ungated
/// because this host does not let them repeat), every exact per-layer
/// metric of every workload must be identical, and both sets with the
/// per-pair differences go to `results/selfcheck.json`.
pub fn selfcheck(suite: &SuiteArgs) -> Result<bool, String> {
    let timed = run_paired_sets(suite, false)?;
    let traced = run_paired_sets(suite, true)?;
    let mut ok = timed.iter().chain(&traced).flatten().all(WorkloadReport::correct);

    println!("\n== A/A: end-to-end ==");
    let mut pairs = Vec::new();
    for (a, b) in timed[0].iter().zip(&timed[1]) {
        for spec in &END_TO_END {
            let (va, vb) = (a.metric(spec.name), b.metric(spec.name));
            // The harness's rule with the better of the two runs as the
            // parent: by what share of it the other one is worse.
            let rel = match (va, vb) {
                (Some(x), Some(y)) if x > 0.0 && y > 0.0 => {
                    let (lo, hi) = (x.min(y), x.max(y));
                    if spec.better == "lower" {
                        hi / lo - 1.0
                    } else {
                        1.0 - lo / hi
                    }
                }
                _ => f64::INFINITY,
            };
            let within = rel <= spec.bound;
            let gated = GATED_WORKLOADS.contains(&a.name);
            ok &= within || !gated;
            println!(
                "{:<20} {:<12} {:>14.6} {:>14.6}  {:>6.2} % (bound {:>4.1} %) {}",
                a.name,
                spec.name,
                va.unwrap_or(f64::NAN),
                vb.unwrap_or(f64::NAN),
                rel * 100.0,
                spec.bound * 100.0,
                match (within, gated) {
                    (true, _) => "ok",
                    (false, true) => "OUTSIDE",
                    (false, false) => "outside (not gated)",
                }
            );
            pairs.push(Value::obj(vec![
                ("workload", Value::str(a.name)),
                ("metric", Value::str(spec.name)),
                ("a", va.map_or(Value::Null, Value::Num)),
                ("b", vb.map_or(Value::Null, Value::Num)),
                ("rel_diff", rel.into()),
                ("bound", spec.bound.into()),
                ("within_bound", Value::Bool(within)),
                ("gated", Value::Bool(gated)),
            ]));
        }
    }

    println!("\n== A/A: counts that must repeat exactly ==");
    let mut mismatches = Vec::new();
    let mut compare = |what: &str, workload: &str, a: Option<f64>, b: Option<f64>| {
        if a.is_none() || a != b {
            println!("{workload:<20} {what:<34} {a:?} != {b:?}  MISMATCH");
            mismatches.push(Value::obj(vec![
                ("workload", Value::str(workload)),
                ("metric", Value::str(what)),
                ("a", a.map_or(Value::Null, Value::Num)),
                ("b", b.map_or(Value::Null, Value::Num)),
            ]));
        }
    };
    for (a, b) in timed[0].iter().zip(&timed[1]) {
        for key in ["fail_frac", "ref_err"] {
            let field = |r: &WorkloadReport| r.detail.get(key).and_then(Value::as_f64);
            compare(key, a.name, field(a), field(b));
        }
    }
    for (a, b) in traced[0].iter().zip(&traced[1]) {
        for spec in PER_LAYER.iter().filter(|s| s.repeat == Repeat::Exact) {
            compare(spec.name, a.name, a.metric(spec.name), b.metric(spec.name));
        }
    }
    if mismatches.is_empty() {
        println!("all identical");
    }
    ok &= mismatches.is_empty();

    let mut doc = header_json(suite);
    doc.extend([
        ("agree", Value::Bool(ok)),
        ("end_to_end_pairs", Value::Arr(pairs)),
        ("exact_mismatches", Value::Arr(mismatches)),
        ("end_to_end_a", set_json(&timed[0])),
        ("end_to_end_b", set_json(&timed[1])),
        ("traced_a", set_json(&traced[0])),
        ("traced_b", set_json(&traced[1])),
    ]);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results").join("selfcheck.json");
    std::fs::create_dir_all(path.parent().expect("results directory"))
        .map_err(|e| e.to_string())?;
    std::fs::write(&path, json::pretty(&Value::obj(doc)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}
