//! `simulate`'s stdout, pinned whole. One batch of four members, one of
//! them over its step budget, in every mode `simulate` runs: plain,
//! journaled (fresh, and interrupted before its first shard then resumed)
//! and dispatched to two worker processes — plus plain runs on an engine
//! whose own name differs from its flag (`lsoda` reports `lsoda-cpu`) and
//! on a name the CLI refuses (`auto`). Only a run with no journal prints
//! `host wall` and `health:`: only there did one engine batch see every
//! member. Dropped before comparing: the host wall, the run's directory
//! (written `$BASE`), and the dispatch line's schedule-dependent counts.

use paraspace_cli::{execute_with_cancel, parse, CancelToken};
use std::path::Path;
use std::process::Command;

/// Lotka–Volterra, four members: three near unit rates and one whose
/// cycles run twenty times faster, so it needs more steps than `BUDGET`.
fn write_model(dir: &Path) {
    std::fs::create_dir_all(dir).unwrap();
    for (file, text) in [
        ("alphabet", "X\tY\n"),
        ("M_0", "0.5\t0.5\n"),
        ("left_side", "1\t0\n1\t1\n0\t1\n"),
        ("right_side", "2\t0\n0\t2\n0\t0\n"),
        ("c_vector", "1\n1\n1\n"),
        ("c_matrix", "1 1 1\n1.2 1 1\n1 1.2 1\n20 20 20\n"),
    ] {
        std::fs::write(dir.join(file), text).unwrap();
    }
}

const BUDGET: &str = "400";

fn normalize(text: &str, base: &Path) -> Vec<String> {
    let base = base.display().to_string();
    text.lines()
        .map(|line| {
            let line = line.replace(&base, "$BASE");
            let keep = match line.find("; host wall") {
                Some(at) => at,
                None if line.starts_with("dispatch:") => {
                    line.find(" merged)").map_or(0, |at| at + 8)
                }
                None => line.len(),
            };
            line[..keep].to_string()
        })
        .collect()
}

/// Stdout of `paraspace-cli ARGS`, then stderr when it fails.
fn cli(base: &Path, args: &[&str]) -> Vec<String> {
    let output = Command::new(env!("CARGO_BIN_EXE_paraspace-cli"))
        .args(args)
        .output()
        .expect("spawn paraspace-cli");
    let mut text = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        text.push_str(&String::from_utf8_lossy(&output.stderr));
    }
    normalize(&text, base)
}

/// `simulate` of the model under `BUDGET` into `base/<out>`, plus `extra`.
fn simulate(base: &Path, out: &str, extra: &[&str]) -> Vec<String> {
    let (model, out) = (base.join("model"), base.join(out));
    let mut args = vec!["simulate", model.to_str().unwrap(), "--member-budget", BUDGET];
    args.extend(["--out", out.to_str().unwrap()]);
    args.extend(extra);
    cli(base, &args)
}

#[test]
fn every_simulate_mode_prints_the_same_summary_it_always_did() {
    let base = std::env::temp_dir().join(format!("paraspace_stdout_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    write_model(&base.join("model"));
    let at = |name: &str| base.join(name).display().to_string();

    let mut table = vec![
        ("plain", simulate(&base, "plain", &[])),
        ("plain lsoda", simulate(&base, "lsoda", &["--engine", "lsoda"])),
        ("plain auto", simulate(&base, "auto", &["--engine", "auto"])),
        (
            "durable",
            simulate(
                &base,
                "durable",
                &["--checkpoint-dir", &at("ck_durable"), "--shard-size", "2"],
            ),
        ),
    ];
    // Interrupted before its first shard, as SIGINT at the start would.
    let args: Vec<String> = [
        "simulate",
        &at("model"),
        "--member-budget",
        BUDGET,
        "--out",
        &at("resumed"),
        "--checkpoint-dir",
        &at("ck_resumed"),
        "--shard-size",
        "2",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let tripped = CancelToken::new();
    tripped.cancel();
    let mut stdout = Vec::new();
    let err = execute_with_cancel(&parse(&args).unwrap(), &mut stdout, &tripped).unwrap_err();
    let text = format!("{}{err}\n", String::from_utf8_lossy(&stdout));
    table.push(("interrupted", normalize(&text, &base)));
    table.push(("resumed", cli(&base, &["resume", &at("ck_resumed")])));
    table.push((
        "workers",
        simulate(
            &base,
            "workers",
            &["--checkpoint-dir", &at("ck_workers"), "--shard-size", "2", "--workers", "2"],
        ),
    ));

    let expected: Vec<(&str, Vec<String>)> = EXPECTED
        .iter()
        .map(|(case, lines)| (*case, lines.iter().map(|l| l.to_string()).collect()))
        .collect();
    assert_eq!(table, expected);
    std::fs::remove_dir_all(&base).ok();
}

const EXPECTED: &[(&str, &[&str])] = &[
    (
        "plain",
        &[
            "fine-coarse: 3/4 simulations ok; simulated 3.846 ms (integration 3.837 ms, i/o 0.001 ms)",
            "health: 3/4 ok, 1 failed (1 budget)",
            "dynamics written to $BASE/plain",
        ],
    ),
    (
        "plain lsoda",
        &[
            "lsoda-cpu: 3/4 simulations ok; simulated 0.176 ms (integration 0.175 ms, i/o 0.001 ms)",
            "health: 3/4 ok, 1 failed (1 budget)",
            "dynamics written to $BASE/lsoda",
        ],
    ),
    ("plain auto", &["error: unknown engine \"auto\""]),
    (
        "durable",
        &[
            "fine-coarse (durable): 3/4 simulations ok; simulated 7.684 ms (integration 7.665 ms, i/o 0.001 ms)",
            "failures: budget x1",
            "checkpoint: 2 shards (0 replayed, 2 executed)",
            "dynamics written to $BASE/durable",
        ],
    ),
    (
        "interrupted",
        &[
            "interrupted: 0/2 shards committed to $BASE/ck_resumed",
            "interrupted — resume with `paraspace-cli resume $BASE/ck_resumed`",
        ],
    ),
    (
        "resumed",
        &[
            "fine-coarse (durable): 3/4 simulations ok; simulated 7.684 ms (integration 7.665 ms, i/o 0.001 ms)",
            "failures: budget x1",
            "checkpoint: 2 shards (0 replayed, 2 executed)",
            "dynamics written to $BASE/resumed",
        ],
    ),
    (
        "workers",
        &[
            "fine-coarse (dispatched): 3/4 simulations ok; simulated 7.684 ms (integration 7.665 ms, i/o 0.001 ms)",
            "failures: budget x1",
            "dispatch: 2 shards (0 recovered, 2 merged)",
            "dynamics written to $BASE/workers",
        ],
    ),
];
