//! `paraspace-e2e`: the end-to-end, layer-attributed campaign benchmark.
//! It measures the workspace from outside — by spawning the real CLI, by
//! calling `Psa2d::run` / `Simulator::run`, and by timing calls into each
//! crate's public functions. See `benchmark/README.md`.

mod json;
mod run;
mod spec;
mod stats;
mod suite;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--selfcheck]
              [--save FILE]

  --workload NAME  one run of one workload (psa2d_autophagy | pe_hybrid_metabolic |
                   sweep_cli | sweep_net | ensemble_tau); without it, every workload
                   runs in turn, each in its own driver process (BENCHMARK.json gates
                   psa2d_autophagy and sweep_cli; the others are measured, not gated)
  --seed N         workload seed (default 1); the same seed gives the same inputs
  --seconds S      how long the timed repetitions of one run last (default: run_seconds
                   of BENCHMARK.json)
  --trace 0|1      0: the end-to-end metrics; 1: the per-layer metrics of a traced run
  --smoke          every workload at an eighth of its size, one repetition
  --selfcheck      the whole end-to-end set twice and the traced set twice on this
                   build; asserts agreement and writes results/selfcheck.json
  --save FILE      (without --workload) also write medians and quartiles to FILE";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
    save: Option<PathBuf>,
    cli: PathBuf,
    workdir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        smoke: false,
        selfcheck: false,
        save: None,
        cli: PathBuf::new(),
        workdir: PathBuf::new(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("invalid value for {flag}: {v:?}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            "--save" => args.save = Some(PathBuf::from(value()?)),
            "--cli" => args.cli = PathBuf::from(value()?),
            "--workdir" => args.workdir = PathBuf::from(value()?),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if args.cli.as_os_str().is_empty() || args.workdir.as_os_str().is_empty() {
        return Err("--cli and --workdir are required (run.sh passes both)".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some(workload) = args.workload {
        run::run(&run::RunArgs {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            smoke: args.smoke,
            cli: args.cli,
            workdir: args.workdir,
        })
    } else {
        let suite = suite::SuiteArgs {
            seed: args.seed,
            seconds: args.seconds,
            smoke: args.smoke,
            cli: args.cli,
            workdir: args.workdir,
        };
        if args.selfcheck {
            suite::selfcheck(&suite)
        } else {
            suite::run_all(&suite, args.trace, args.save.as_deref())
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: a correctness check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
