//! One run of one workload: set-up → one discarded warm-up repetition →
//! timed repetitions for `--seconds` → untimed correctness check (or, with
//! `--trace 1`, one campaign, its check, and the staged replay).

use crate::json::Value;
use crate::spec::{END_TO_END, GATED_WORKLOADS, PER_LAYER};
use crate::stats::{summarize, Summary};
use crate::sys::{self, WorkDir};
use crate::trace::Tracer;
use crate::workloads::{self, Ctx, Rep, Workload, THREADS};
use std::path::PathBuf;
use std::time::Instant;

/// Timed `setup_s` batches per run, spread over it; the metric is the
/// fastest preparation any of them saw.
const SETUP_BATCHES: usize = 11;
/// Fewest timed repetitions of a full-size run, however short `--seconds`.
const MIN_REPETITIONS: usize = 3;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub cli: PathBuf,
    pub workdir: PathBuf,
}

/// The provenance every output opens with.
pub fn provenance() -> Vec<(&'static str, Value)> {
    let command_line = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("git_rev", Value::str(command_line("git", &["rev-parse", "--short", "HEAD"]))),
        ("rustc", Value::str(command_line("rustc", &["-V"]))),
        ("nproc", nproc.into()),
        ("threads", THREADS.into()),
        ("workers", THREADS.into()),
        // Rows that compare one against two threads measure scaling only
        // when two cores exist.
        ("oversubscribed", Value::Bool(nproc < THREADS)),
    ]
}

fn fmt_summary(s: &Summary) -> String {
    format!(
        "n={} min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4}",
        s.n, s.min, s.q1, s.median, s.q3, s.max
    )
}

fn summary_json(s: &Summary) -> Value {
    Value::obj(vec![
        ("n", s.n.into()),
        ("min", s.min.into()),
        ("q1", s.q1.into()),
        ("median", s.median.into()),
        ("q3", s.q3.into()),
        ("max", s.max.into()),
    ])
}

/// One `setup_s` batch: K preparations, each timed alone; the batch's
/// sample is the fastest. The host slows allocation-heavy parsing by up to
/// 2.3× in stretches of milliseconds to minutes (a five-minute series of
/// the metabolic preparation read 0.65–1.8 ms while a dependent
/// floating-point chain moved ±10 %), so a batch's mean measures the
/// neighbours; a millisecond preparation still finds a quiet millisecond
/// in most batches (README, "Why it is built this way").
fn setup_batch(w: &dyn Workload) -> Result<f64, String> {
    let mut fastest = f64::INFINITY;
    for _ in 0..w.setup_batch() {
        let start = Instant::now();
        w.prepare_once()?;
        fastest = fastest.min(start.elapsed().as_secs_f64());
    }
    Ok(fastest)
}

fn metric_json(value: f64, unit: &str) -> Value {
    Value::obj(vec![("value", value.into()), ("unit", Value::str(unit))])
}

/// Runs the workload and prints the report; the last line of standard
/// output is the result object. `Ok(false)` when a check failed.
pub fn run(args: &RunArgs) -> Result<bool, String> {
    std::fs::create_dir_all(&args.workdir).map_err(|e| e.to_string())?;
    let work = WorkDir::create(&args.workdir).map_err(|e| e.to_string())?;
    let ctx = Ctx { cli: &args.cli, work: &work, seed: args.seed, smoke: args.smoke };
    let mut w = workloads::build(&args.workload, &ctx)?;

    let mut header = provenance();
    header.extend([
        ("workload", Value::str(args.workload.as_str())),
        ("gated", Value::Bool(GATED_WORKLOADS.contains(&args.workload.as_str()))),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", args.seconds.into()),
        ("smoke", Value::Bool(args.smoke)),
        ("trace", Value::Bool(args.trace)),
        ("workdir_fs", Value::str(sys::fs_type(work.path()))),
        ("members", w.members().into()),
        ("K", w.setup_batch().into()),
        ("what", Value::str(w.describe())),
    ]);
    println!("# paraspace-e2e {}", args.workload);
    for (k, v) in &header {
        println!("# {k}: {}", v.as_str().map_or_else(|| v.to_string(), str::to_string));
    }

    let (result, detail, passed) =
        if args.trace { run_traced(w.as_mut(), args)? } else { run_timed(w.as_mut(), args)? };
    header.extend(detail);
    println!("#detail {}", Value::obj(header));
    println!("{result}");
    Ok(passed)
}

type RunOutput = (Value, Vec<(&'static str, Value)>, bool);

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: Value) -> Value {
    Value::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", attempted.max(1).into()),
        ("failed", failed.into()),
        ("metrics", metrics),
    ])
}

fn run_timed(w: &mut dyn Workload, args: &RunArgs) -> Result<RunOutput, String> {
    // `setup_s`: the fastest of SETUP_BATCHES batch samples. The first
    // batch is discarded (page cache and allocator reach their steady
    // state); the rest are spread evenly over the repetitions, so that they
    // sample the whole run and one busy stretch cannot cover them all.
    let setup_batches = if args.smoke { 3 } else { SETUP_BATCHES };
    let mut setup_samples = Vec::with_capacity(setup_batches);
    setup_batch(w)?;

    if !args.smoke {
        let warm = w.repetition()?;
        println!("warm-up repetition (discarded): wall {:.4} s", warm.wall_s);
    }
    let min_reps = if args.smoke { 1 } else { MIN_REPETITIONS };
    let mut reps: Vec<Rep> = Vec::new();
    let mut timed_s = 0.0;
    while !sys::interrupted() && (reps.len() < min_reps || (!args.smoke && timed_s < args.seconds))
    {
        let due = setup_samples.len() as f64 * args.seconds / setup_batches as f64;
        if setup_samples.len() < setup_batches && timed_s >= due {
            setup_samples.push(setup_batch(w)?);
        }
        let rep = w.repetition()?;
        timed_s += rep.wall_s;
        reps.push(rep);
    }
    while setup_samples.len() < setup_batches {
        setup_samples.push(setup_batch(w)?);
    }
    let setup = summarize(&setup_samples).expect("at least one setup batch");
    if sys::interrupted() {
        return Err("interrupted".into());
    }
    let column = |f: fn(&Rep) -> f64| -> Summary {
        summarize(&reps.iter().map(f).collect::<Vec<_>>()).expect("at least one repetition")
    };
    let wall = column(|r| r.wall_s);
    let cpu = column(|r| r.cpu_s);
    let rss = column(|r| r.peak_rss_mb);
    let rate = column(|r| r.succeeded as f64 / r.wall_s);
    let attempted: usize = reps.iter().map(|r| r.succeeded + r.failed).sum();
    let failed: usize = reps.iter().map(|r| r.failed).sum();

    let check = w.check()?;
    let passed = check.passed() && failed == 0;

    // A timing is the fastest repetition: on this shared host interference
    // only ever adds time, in stretches of seconds to minutes, so the
    // median repetition follows the neighbours and the fastest one the
    // program (README, "Why it is built this way"). The resident-set peak
    // is the largest any repetition reached (a coordinator's peak is
    // bimodal, and the high mode is what a user must provision for).
    let rows = [
        ("wall_s", &wall, wall.min),
        ("sims_per_s", &rate, rate.max),
        ("cpu_s", &cpu, cpu.min),
        ("peak_rss_mb", &rss, rss.max),
        ("setup_s", &setup, setup.min),
    ];
    for line in reps.last().map_or("", |r| r.stdout.as_str()).lines().take(4) {
        println!("campaign says: {line}");
    }
    println!("R = {} timed repetitions ({timed_s:.2} s), K = {}", reps.len(), w.setup_batch());
    for (spec, (name, summary, value)) in END_TO_END.iter().zip(rows) {
        assert_eq!(spec.name, name, "metric table and report rows are in one order");
        println!(
            "{:<12} {:>14.6} {:<4} {} ({} is better)",
            name,
            value,
            spec.unit,
            fmt_summary(summary),
            spec.better
        );
    }
    let fail_frac = failed as f64 / attempted.max(1) as f64;
    println!("fail_frac    {fail_frac} ({failed} of {attempted} members)");
    println!("ref_err      {:e} (limit {:e})", check.ref_err, check.ref_limit);
    for (what, ok) in &check.conditions {
        println!("check        {} — {}", what, if *ok { "ok" } else { "FAILED" });
    }

    let metrics = Value::Obj(
        END_TO_END
            .iter()
            .zip(rows)
            .map(|(spec, (_, _, value))| (spec.name.to_string(), metric_json(value, spec.unit)))
            .collect(),
    );
    let detail = vec![
        ("R", reps.len().into()),
        ("fail_frac", fail_frac.into()),
        ("ref_err", check.ref_err.into()),
        // In run order, so that a slow stretch of the machine can be told
        // from a slow program.
        ("rep_wall_s", Value::Arr(reps.iter().map(|r| r.wall_s.into()).collect())),
        ("rep_cpu_s", Value::Arr(reps.iter().map(|r| r.cpu_s.into()).collect())),
        (
            "summaries",
            Value::Obj(rows.iter().map(|(n, s, _)| (n.to_string(), summary_json(s))).collect()),
        ),
    ];
    Ok((result_json(passed, attempted, failed, metrics), detail, passed))
}

fn run_traced(w: &mut dyn Workload, args: &RunArgs) -> Result<RunOutput, String> {
    let mut tracer = Tracer::new(args.seconds);
    // The campaign the trace describes, and its verdict.
    let rep = w.repetition()?;
    let check = w.check()?;
    let attempted = rep.succeeded + rep.failed;
    tracer.set("check.fail_frac", rep.failed as f64 / attempted.max(1) as f64);
    tracer.set("check.ref_err", check.ref_err);
    let passed = check.passed() && rep.failed == 0;
    if sys::interrupted() {
        return Err("interrupted".into());
    }

    w.trace(&mut tracer)?;
    tracer.print_report();

    let metrics = Value::Obj(
        PER_LAYER
            .iter()
            .map(|spec| (spec.name.to_string(), metric_json(tracer.get(spec.name), spec.unit)))
            .collect(),
    );
    if let Some(unknown) = tracer.names().find(|n| !PER_LAYER.iter().any(|s| s.name == *n)) {
        return Err(format!("traced metric {unknown:?} is not declared in spec::PER_LAYER"));
    }
    let detail = vec![("spans", tracer.spans_json())];
    Ok((result_json(passed, attempted, rep.failed, metrics), detail, passed))
}
