//! Every flag of every subcommand, declared once: one row per field of its
//! [`Command`] variant, holding the field's default, the flag's spelling
//! and form, the manifest key a checkpoint pins it under, and how its value
//! is read and written back. [`parse`] walks an argv over the rows,
//! [`pin_flags`] writes a campaign's manifest from them, and
//! [`command_from_manifest`] reads that manifest back through them, so the
//! three cannot drift.

use crate::{CliError, Command, DEFAULT_LEASE_TTL_MS, DEFAULT_RETRY_BASE_MS, DEFAULT_SHARD_SIZE};
use paraspace_journal::{CampaignManifest, MANIFEST_FILE};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// How a flag appears on the command line.
#[derive(Clone, Copy)]
enum Form {
    /// The positional operand.
    Operand,
    /// `FLAG VALUE`.
    Value(&'static str),
    /// A valueless switch: `on` is `(flag, the value it reads)`, and `off`,
    /// if any, is the switch that reads the other value.
    Switch { on: (&'static str, &'static str), off: Option<(&'static str, &'static str)> },
}

/// Where a checkpoint manifest pins a field.
#[derive(Clone, Copy)]
enum Pin {
    /// Not pinned: each invocation supplies it (`--checkpoint-dir`,
    /// `--workers`, ...).
    No,
    /// Pinned under this key.
    Key(&'static str),
    /// Pinned under `key`, spelled `absent` when the flag was not given.
    Unless(&'static str, &'static str),
    /// Pinned under this key, which checkpoints that predate the flag lack:
    /// those resume at the default they ran with.
    IfPresent(&'static str),
}

impl Pin {
    fn key(self) -> Option<&'static str> {
        match self {
            Pin::No => None,
            Pin::Key(key) | Pin::Unless(key, _) | Pin::IfPresent(key) => Some(key),
        }
    }
}

/// A row without its field: the flag's form, its pin and the usage error
/// when a required flag is missing. Built with [`operand`], [`value`] and
/// [`switch`].
#[derive(Clone, Copy)]
struct Spec {
    form: Form,
    pin: Pin,
    need: Option<&'static str>,
}

const fn operand() -> Spec {
    Spec { form: Form::Operand, pin: Pin::No, need: None }
}

const fn value(flag: &'static str) -> Spec {
    Spec { form: Form::Value(flag), pin: Pin::No, need: None }
}

const fn switch(flag: &'static str, reads: &'static str) -> Spec {
    Spec { form: Form::Switch { on: (flag, reads), off: None }, pin: Pin::No, need: None }
}

impl Spec {
    const fn or(mut self, flag: &'static str, reads: &'static str) -> Self {
        if let Form::Switch { on, .. } = self.form {
            self.form = Form::Switch { on, off: Some((flag, reads)) };
        }
        self
    }

    const fn pin(mut self, key: &'static str) -> Self {
        self.pin = Pin::Key(key);
        self
    }

    const fn pin_unless(mut self, key: &'static str, absent: &'static str) -> Self {
        self.pin = Pin::Unless(key, absent);
        self
    }

    const fn pin_if_present(mut self, key: &'static str) -> Self {
        self.pin = Pin::IfPresent(key);
        self
    }

    const fn need(mut self, message: &'static str) -> Self {
        self.need = Some(message);
        self
    }

    /// The flags that set the row's field, each with the value a switch
    /// reads (`None` for a flag that takes its value from the next argument).
    fn flags(&self) -> impl Iterator<Item = (&'static str, Option<&'static str>)> {
        let (first, second) = match self.form {
            Form::Operand => (None, None),
            Form::Value(flag) => (Some((flag, None)), None),
            Form::Switch { on, off } => {
                (Some((on.0, Some(on.1))), off.map(|(flag, reads)| (flag, Some(reads))))
            }
        };
        first.into_iter().chain(second)
    }

    /// The flag named in this row's usage errors.
    fn flag(&self) -> &'static str {
        self.flags().next().map_or("", |(flag, _)| flag)
    }
}

/// How a field's value is read from an argument and written back.
trait Codec<T> {
    /// Reads `arg`; the error is a hint the usage error ends with.
    fn read(&self, arg: &str) -> Result<T, &'static str>;
    /// The argument that reads back as `value`; `None` for a flag not given.
    fn write(&self, value: &T) -> Option<String>;
}

/// `FromStr` in, `Display` out.
struct Plain;

impl<T: FromStr + Display> Codec<T> for Plain {
    fn read(&self, arg: &str) -> Result<T, &'static str> {
        arg.parse().map_err(|_| "")
    }

    fn write(&self, value: &T) -> Option<String> {
        Some(value.to_string())
    }
}

/// An `f64` written in scientific notation (`1e-6`), as `pe` pins its
/// numbers; `simulate` pins `Display` (`0.000001`). Both stay, because a
/// resumed checkpoint is compared with its manifest byte for byte.
struct Sci;

impl Codec<f64> for Sci {
    fn read(&self, arg: &str) -> Result<f64, &'static str> {
        Plain.read(arg)
    }

    fn write(&self, value: &f64) -> Option<String> {
        Some(format!("{value:e}"))
    }
}

/// A path, written as it displays.
struct PathArg;

impl Codec<PathBuf> for PathArg {
    fn read(&self, arg: &str) -> Result<PathBuf, &'static str> {
        Ok(PathBuf::from(arg))
    }

    fn write(&self, value: &PathBuf) -> Option<String> {
        Some(value.display().to_string())
    }
}

/// A count of at least one.
struct AtLeastOne;

impl Codec<usize> for AtLeastOne {
    fn read(&self, arg: &str) -> Result<usize, &'static str> {
        match Plain.read(arg)? {
            0 => Err(" (expected at least 1)"),
            n => Ok(n),
        }
    }

    fn write(&self, value: &usize) -> Option<String> {
        Plain.write(value)
    }
}

/// `--lane-width auto|N`: `None` autotunes, `Some(n >= 1)` pins.
struct Lanes;

impl Codec<Option<usize>> for Lanes {
    fn read(&self, arg: &str) -> Result<Option<usize>, &'static str> {
        match arg {
            "auto" => Ok(None),
            _ => AtLeastOne.read(arg).map(Some).map_err(|_| " (expected `auto` or a width >= 1)"),
        }
    }

    fn write(&self, value: &Option<usize>) -> Option<String> {
        Some(value.map_or("auto".to_string(), |w| w.to_string()))
    }
}

/// The shard plan: `--pack-shards` reads `packed`, `--no-pack-shards`
/// `uniform`. A plan left to auto is pinned once resolved.
struct Plan;

impl Codec<Option<bool>> for Plan {
    fn read(&self, arg: &str) -> Result<Option<bool>, &'static str> {
        match arg {
            "packed" => Ok(Some(true)),
            "uniform" => Ok(Some(false)),
            _ => Err(" (expected `packed` or `uniform`)"),
        }
    }

    fn write(&self, value: &Option<bool>) -> Option<String> {
        Some(if *value == Some(true) { "packed" } else { "uniform" }.to_string())
    }
}

/// A flag that may be left out: `None` until it is given.
struct Opt<C>(C);

impl<T, C: Codec<T>> Codec<Option<T>> for Opt<C> {
    fn read(&self, arg: &str) -> Result<Option<T>, &'static str> {
        self.0.read(arg).map(Some)
    }

    fn write(&self, value: &Option<T>) -> Option<String> {
        value.as_ref().and_then(|v| self.0.write(v))
    }
}

/// A comma-separated list (`0,3,5`), each item trimmed.
struct Commas<C>(C);

impl<T, C: Codec<T>> Codec<Vec<T>> for Commas<C> {
    fn read(&self, arg: &str) -> Result<Vec<T>, &'static str> {
        arg.split(',').map(|item| self.0.read(item.trim())).collect()
    }

    fn write(&self, value: &Vec<T>) -> Option<String> {
        Some(value.iter().filter_map(|v| self.0.write(v)).collect::<Vec<_>>().join(","))
    }
}

/// One flag: its [`Spec`], and how its value lands in the field it sets.
struct Row {
    spec: Spec,
    /// Reads an argument into the field; the error is the codec's hint.
    read: fn(&mut Command, &str) -> Result<(), &'static str>,
    /// Writes the field back as an argument; `None` for a flag not given.
    write: fn(&Command) -> Option<String>,
}

/// A subcommand's rows, the command with every field at its default, and
/// the rules that tie its flags together.
pub(crate) struct Subcommand {
    name: &'static str,
    defaults: fn() -> Command,
    rows: &'static [Row],
    /// Cross-flag rules, run once the flags are read.
    rules: fn(&Command) -> Result<(), CliError>,
}

/// Declares a subcommand: for each field of its `Command` variant, in
/// order, `field: default => spec, codec;`. A field without a row does not
/// compile.
macro_rules! subcommand {
    ($name:literal => $variant:ident, $rules:expr,
     { $($field:ident: $default:expr => $spec:expr, $codec:expr;)* }) => {
        Subcommand {
            name: $name,
            defaults: || Command::$variant { $($field: $default,)* },
            rows: &[$(Row {
                spec: $spec,
                read: |cmd, arg| {
                    let Command::$variant { $field, .. } = cmd else { unreachable!() };
                    *$field = Codec::read(&$codec, arg)?;
                    Ok(())
                },
                write: |cmd| {
                    let Command::$variant { $field, .. } = cmd else { unreachable!() };
                    Codec::write(&$codec, $field)
                },
            },)*],
            rules: $rules,
        }
    };
}

pub(crate) static SIMULATE: Subcommand = subcommand!("simulate" => Simulate, simulate_rules, {
    model_dir: PathBuf::new() =>
        operand().pin("model_dir").need("simulate needs a model directory"), PathArg;
    engine: "fine-coarse".into() => value("--engine").pin("world.engine"), Plain;
    out_dir: None => value("--out").pin_unless("out_dir", ""), Opt(PathArg);
    batch: 1 => value("--batch").pin("batch"), Plain;
    rtol: 1e-6 => value("--rtol").pin("rtol"), Plain;
    atol: 1e-12 => value("--atol").pin("atol"), Plain;
    threads: 1 => value("--threads").pin("world.threads"), Plain;
    lane_width: None => value("--lane-width").pin("world.lane_width"), Lanes;
    max_retries: 0 => value("--max-retries").pin("max_retries"), Plain;
    member_budget: None =>
        value("--member-budget").pin_unless("member_budget", "none"), Opt(Plain);
    checkpoint_dir: None => value("--checkpoint-dir"), Opt(PathArg);
    shard_size: DEFAULT_SHARD_SIZE => value("--shard-size").pin("shard_size"), Plain;
    workers: 0 => value("--workers"), Plain;
    pack: None =>
        switch("--pack-shards", "packed").or("--no-pack-shards", "uniform").pin("shard_plan"),
        Plan;
    lease_ttl: DEFAULT_LEASE_TTL_MS => value("--lease-ttl").pin_if_present("lease_ttl"), Plain;
    retry_base: DEFAULT_RETRY_BASE_MS =>
        value("--retry-base").pin_if_present("retry_base"), Plain;
    listen: None => value("--listen"), Opt(Plain);
});

fn simulate_rules(cmd: &Command) -> Result<(), CliError> {
    let Command::Simulate { checkpoint_dir, workers, lease_ttl, retry_base, listen, .. } = cmd
    else {
        unreachable!("the simulate rows build Simulate commands")
    };
    if *workers > 0 && checkpoint_dir.is_none() {
        return Err(CliError("--workers needs --checkpoint-dir".into()));
    }
    if listen.is_some() && checkpoint_dir.is_none() {
        return Err(CliError("--listen needs --checkpoint-dir".into()));
    }
    if *lease_ttl == 0 || *retry_base == 0 {
        return Err(CliError("--lease-ttl and --retry-base must be positive".into()));
    }
    Ok(())
}

/// `analysis::ensemble::run_ensemble` pins the ensemble's own fields, which
/// these rows only read back; the CLI pins the `world.*` ones.
pub(crate) static ENSEMBLE: Subcommand = subcommand!("ensemble" => Ensemble, |_| Ok(()), {
    model_dir: PathBuf::new() =>
        operand().pin("world.model_dir").need("ensemble needs a model directory"), PathArg;
    simulator: "tau-leaping".into() => value("--simulator").pin("simulator"), Plain;
    out_dir: None => value("--out").pin_unless("world.out_dir", ""), Opt(PathArg);
    replicates: 100 => value("--replicates").pin("replicates"), Plain;
    seed: 0 => value("--seed").pin("seed"), Plain;
    member: 0 => value("--member").pin("member"), Plain;
    threads: 1 => value("--threads").pin("world.threads"), Plain;
    lane_width: None => value("--lane-width").pin("lane_width"), Lanes;
    checkpoint_dir: None => value("--checkpoint-dir"), Opt(PathArg);
    shard_size: DEFAULT_SHARD_SIZE => value("--shard-size").pin("shard_size"), Plain;
});

pub(crate) static PE: Subcommand = subcommand!("pe" => Pe, pe_rules, {
    model_dir: PathBuf::new() => operand().pin("model_dir").need("pe needs a model directory"),
        PathArg;
    optimizer: "hybrid".into() => value("--optimizer").pin("optimizer"), Plain;
    engine: "lsoda".into() => value("--engine").pin("engine"), Plain;
    unknown: None => value("--unknown").pin_unless("unknown", "all"), Opt(Commas(Plain));
    log_radius: 1.5 => value("--log-radius").pin("log_radius"), Sci;
    observed: None => value("--observed").pin_unless("observed", "all"), Opt(Commas(Plain));
    target: None => value("--target").pin_unless("target", "self"), Opt(PathArg);
    rtol: 1e-6 => value("--rtol").pin("rtol"), Sci;
    atol: 1e-12 => value("--atol").pin("atol"), Sci;
    threads: 1 => value("--threads").pin("threads"), Plain;
    iterations: 40 => value("--iterations").pin("iterations"), Plain;
    swarm: None => value("--swarm").pin_unless("swarm", "auto"), Opt(AtLeastOne);
    grad_iterations: 60 => value("--grad-iterations").pin("grad_iterations"), Plain;
    starts: 3 => value("--starts").pin("starts"), Plain;
    seed: 42 => value("--seed").pin("seed"), Plain;
    out_dir: None => value("--out").pin_unless("out_dir", ""), Opt(PathArg);
    checkpoint_dir: None => value("--checkpoint-dir"), Opt(PathArg);
});

fn pe_rules(cmd: &Command) -> Result<(), CliError> {
    let Command::Pe { optimizer, log_radius, starts, .. } = cmd else {
        unreachable!("the pe rows build Pe commands")
    };
    if !matches!(optimizer.as_str(), "pso" | "lbfgs" | "hybrid") {
        return Err(CliError(format!(
            "unknown optimizer {optimizer:?} (expected `pso`, `lbfgs`, or `hybrid`)"
        )));
    }
    if !(log_radius.is_finite() && *log_radius > 0.0) {
        return Err(CliError("--log-radius must be a positive number".into()));
    }
    if *starts == 0 {
        return Err(CliError("--starts must be at least 1".into()));
    }
    Ok(())
}

static RESUME: Subcommand = subcommand!("resume" => Resume, |_| Ok(()), {
    checkpoint_dir: PathBuf::new() => operand().need("resume needs a checkpoint directory"),
        PathArg;
    workers: 0 => value("--workers"), Plain;
});

static WORKER: Subcommand = subcommand!("worker" => Worker, worker_rules, {
    checkpoint_dir: None => operand(), Opt(PathArg);
    connect: None => value("--connect"), Opt(Plain);
    worker_id: None => value("--worker-id"), Opt(Plain);
    chaos_kill_at: None => value("--chaos-kill-at"), Opt(Plain);
    chaos_torn_write: false => switch("--chaos-torn-write", "true"), Plain;
    chaos_suppress_at: None => value("--chaos-suppress-at"), Opt(Plain);
});

fn worker_rules(cmd: &Command) -> Result<(), CliError> {
    let Command::Worker { checkpoint_dir, connect, .. } = cmd else {
        unreachable!("the worker rows build Worker commands")
    };
    match (checkpoint_dir, connect) {
        (None, None) => {
            Err(CliError("worker needs a checkpoint directory or --connect HOST:PORT".into()))
        }
        (Some(_), Some(_)) => Err(CliError(
            "worker takes either a checkpoint directory or --connect, not both".into(),
        )),
        _ => Ok(()),
    }
}

static COORDINATE: Subcommand = subcommand!("coordinate" => Coordinate, |_| Ok(()), {
    checkpoint_dir: PathBuf::new() => operand().need("coordinate needs a checkpoint directory"),
        PathArg;
    workers: 0 => value("--workers"), Plain;
    listen: None => value("--listen"), Opt(Plain);
});

static GENERATE: Subcommand = subcommand!("generate" => Generate, |_| Ok(()), {
    species: 0 => value("--species").need("generate needs --species"), AtLeastOne;
    reactions: 0 => value("--reactions").need("generate needs --reactions"), AtLeastOne;
    seed: 42 => value("--seed"), Plain;
    out_dir: PathBuf::new() => operand().need("generate needs an output directory"), PathArg;
});

static RECOMMEND: Subcommand = subcommand!("recommend" => Recommend, |_| Ok(()), {
    species: 0 => value("--species").need("recommend needs --species"), Plain;
    reactions: 0 => value("--reactions").need("recommend needs --reactions"), Plain;
    sims: 0 => value("--sims").need("recommend needs --sims"), Plain;
});

static SUBCOMMANDS: [&Subcommand; 8] =
    [&SIMULATE, &ENSEMBLE, &PE, &RESUME, &WORKER, &COORDINATE, &GENERATE, &RECOMMEND];

/// The usage error for a value a row cannot read.
fn invalid(spec: &Spec, arg: &str, hint: &str) -> CliError {
    CliError(format!("invalid value for {}: {arg:?}{hint}", spec.flag()))
}

impl Subcommand {
    /// Reads `args` (the subcommand's own, without its name) over the rows:
    /// the one place a usage error is raised.
    fn walk(&self, args: &[String]) -> Result<Command, CliError> {
        let mut cmd = (self.defaults)();
        let mut given = vec![false; self.rows.len()];
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let flag = self.rows.iter().enumerate().find_map(|(i, row)| {
                row.spec.flags().find(|(flag, _)| flag == arg).map(|(_, reads)| (i, reads))
            });
            // The operand is any argument that is not a flag, once.
            let operand = || {
                let i = self.rows.iter().position(|row| matches!(row.spec.form, Form::Operand))?;
                (!arg.starts_with("--") && !given[i]).then_some((i, Some(arg.as_str())))
            };
            let Some((i, reads)) = flag.or_else(operand) else {
                return Err(CliError(format!("unexpected argument {arg:?}")));
            };
            let value = match reads {
                Some(value) => value,
                None => {
                    args.next().ok_or_else(|| CliError(format!("{arg} needs a value")))?.as_str()
                }
            };
            let row = &self.rows[i];
            (row.read)(&mut cmd, value).map_err(|hint| invalid(&row.spec, value, hint))?;
            given[i] = true;
        }
        (self.rules)(&cmd)?;
        for (row, given) in self.rows.iter().zip(given) {
            match row.spec.need {
                Some(need) if !given => return Err(CliError(need.into())),
                _ => {}
            }
        }
        Ok(cmd)
    }

    /// The `(manifest key, value)` pairs `cmd` pins.
    pub(crate) fn pinned<'a>(
        &'a self,
        cmd: &'a Command,
    ) -> impl Iterator<Item = (&'static str, String)> + 'a {
        self.rows.iter().filter_map(|row| {
            let key = row.spec.pin.key()?;
            let absent = match row.spec.pin {
                Pin::Unless(_, absent) => absent,
                _ => "",
            };
            Some((key, (row.write)(cmd).unwrap_or_else(|| absent.to_string())))
        })
    }
}

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns a user-facing message for unknown commands, missing operands, or
/// malformed flag values.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let name = match args.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => return Ok(Command::Help),
        Some(name) => name,
    };
    if name == "convert" {
        let [_, from, to] = args else {
            return Err(CliError("convert needs exactly <from> and <to>".into()));
        };
        return Ok(Command::Convert { from: PathBuf::from(from), to: PathBuf::from(to) });
    }
    match SUBCOMMANDS.iter().find(|sub| sub.name == name) {
        Some(sub) => sub.walk(&args[1..]),
        None => Err(CliError(format!("unknown command {name:?} (try `paraspace help`)"))),
    }
}

/// Pins `cmd`'s flags in `manifest` under the keys of `sub`'s rows.
pub(crate) fn pin_flags(
    manifest: CampaignManifest,
    sub: &Subcommand,
    cmd: &Command,
) -> CampaignManifest {
    sub.pinned(cmd).fold(manifest, |manifest, (key, value)| manifest.with_field(key, value))
}

/// Reads the manifest of the checkpoint at `dir`.
///
/// # Errors
///
/// A directory without a readable manifest is not a campaign checkpoint;
/// the error names the manifest path.
pub(crate) fn read_manifest(dir: &Path) -> Result<CampaignManifest, CliError> {
    let path = dir.join(MANIFEST_FILE);
    CampaignManifest::read(&path).map_err(|e| {
        CliError(format!(
            "{} is not a campaign checkpoint: cannot read {}: {e}",
            dir.display(),
            path.display()
        ))
    })
}

/// Rebuilds the command a CLI checkpoint was created with — what `resume`,
/// `worker`, `worker --connect` and `coordinate` all run, so every
/// attached process resolves the exact same world. Each pinned field is
/// read through its row; `checkpoint_dir` and `workers` are not
/// world-defining and come from this invocation.
pub(crate) fn command_from_manifest(
    manifest: &CampaignManifest,
    checkpoint_dir: &Path,
    workers: usize,
) -> Result<Command, CliError> {
    let sub = match manifest.kind() {
        "cli-simulate" => &SIMULATE,
        "ensemble" => &ENSEMBLE,
        "cli-pe" => &PE,
        other => {
            return Err(CliError(format!(
                "checkpoint at {} is a {other:?} campaign, not a CLI simulate, ensemble, or pe run",
                checkpoint_dir.display(),
            )))
        }
    };
    let mut cmd = (sub.defaults)();
    for row in sub.rows {
        let Some(key) = row.spec.pin.key() else { continue };
        let value = match (manifest.field(key), row.spec.pin) {
            (None, Pin::IfPresent(_)) => continue,
            (None, _) => return Err(CliError(format!("checkpoint manifest is missing {key:?}"))),
            (Some(value), Pin::Unless(_, absent)) if value == absent => continue,
            (Some(value), _) => value,
        };
        // Checking the rules as each field lands names the key of the
        // field that breaks one.
        (row.read)(&mut cmd, value)
            .map_err(|hint| invalid(&row.spec, value, hint))
            .and_then(|()| (sub.rules)(&cmd))
            .map_err(|e| CliError(format!("malformed manifest field {key:?}: {e}")))?;
    }
    match &mut cmd {
        Command::Simulate { checkpoint_dir: dir, workers: w, .. } => {
            *dir = Some(checkpoint_dir.to_path_buf());
            *w = workers;
        }
        Command::Ensemble { checkpoint_dir: dir, .. } | Command::Pe { checkpoint_dir: dir, .. } => {
            *dir = Some(checkpoint_dir.to_path_buf());
        }
        _ => unreachable!("only campaign subcommands pin a manifest"),
    }
    Ok(cmd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::argv;
    use crate::USAGE;
    use std::collections::BTreeSet;

    #[test]
    fn parse_help_variants() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn parse_simulate_defaults_and_flags() {
        let cmd = parse(&argv(
            "simulate /tmp/model --engine lsoda --batch 8 --rtol 1e-4 --threads 4 \
             --lane-width 4 --max-retries 3 --member-budget 5000 --checkpoint-dir /tmp/ckpt \
             --shard-size 16",
        ))
        .unwrap();
        match cmd {
            Command::Simulate {
                model_dir,
                engine,
                batch,
                rtol,
                atol,
                out_dir,
                threads,
                lane_width,
                max_retries,
                member_budget,
                checkpoint_dir,
                shard_size,
                workers,
                pack,
                lease_ttl,
                retry_base,
                listen,
            } => {
                assert_eq!(model_dir, PathBuf::from("/tmp/model"));
                assert_eq!(engine, "lsoda");
                assert_eq!(batch, 8);
                assert_eq!(rtol, 1e-4);
                assert_eq!(atol, 1e-12);
                assert_eq!(out_dir, None);
                assert_eq!(threads, 4);
                assert_eq!(lane_width, Some(4));
                assert_eq!(max_retries, 3);
                assert_eq!(member_budget, Some(5000));
                assert_eq!(checkpoint_dir, Some(PathBuf::from("/tmp/ckpt")));
                assert_eq!(shard_size, 16);
                assert_eq!(workers, 0);
                assert_eq!(pack, None, "packing defaults to auto");
                assert_eq!(lease_ttl, DEFAULT_LEASE_TTL_MS);
                assert_eq!(retry_base, DEFAULT_RETRY_BASE_MS);
                assert_eq!(listen, None);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&argv("simulate /tmp/model")).unwrap() {
            Command::Simulate {
                lane_width,
                max_retries,
                member_budget,
                checkpoint_dir,
                shard_size,
                ..
            } => {
                assert_eq!(lane_width, None, "lane width defaults to auto");
                assert_eq!(max_retries, 0, "retries default off");
                assert_eq!(member_budget, None, "no default step budget");
                assert_eq!(checkpoint_dir, None, "durable path is opt-in");
                assert_eq!(shard_size, DEFAULT_SHARD_SIZE);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parse_transport_and_packing_flags() {
        match parse(&argv(
            "simulate /m --checkpoint-dir /c --workers 3 --listen 127.0.0.1:0 \
             --pack-shards --lease-ttl 750 --retry-base 40",
        ))
        .unwrap()
        {
            Command::Simulate { workers, pack, lease_ttl, retry_base, listen, .. } => {
                assert_eq!(workers, 3);
                assert_eq!(pack, Some(true));
                assert_eq!(lease_ttl, 750);
                assert_eq!(retry_base, 40);
                assert_eq!(listen, Some("127.0.0.1:0".into()));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&argv("simulate /m --checkpoint-dir /c --workers 4 --no-pack-shards")).unwrap()
        {
            Command::Simulate { pack, .. } => assert_eq!(pack, Some(false)),
            other => panic!("wrong parse: {other:?}"),
        }
        // Timing must be positive; --listen and --workers need a
        // checkpoint to serve from.
        assert!(parse(&argv("simulate /m --checkpoint-dir /c --lease-ttl 0")).is_err());
        assert!(parse(&argv("simulate /m --checkpoint-dir /c --retry-base 0")).is_err());
        assert!(parse(&argv("simulate /m --listen 127.0.0.1:0")).is_err());

        match parse(&argv("coordinate /c --workers 2 --listen 0.0.0.0:7700")).unwrap() {
            Command::Coordinate { workers, listen, .. } => {
                assert_eq!(workers, 2);
                assert_eq!(listen, Some("0.0.0.0:7700".into()));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&argv("worker --connect host:7700 --worker-id w9")).unwrap() {
            Command::Worker { checkpoint_dir, connect, worker_id, .. } => {
                assert_eq!(checkpoint_dir, None);
                assert_eq!(connect, Some("host:7700".into()));
                assert_eq!(worker_id, Some("w9".into()));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("worker")).is_err(), "needs a directory or --connect");
        assert!(parse(&argv("worker /c --connect host:7700")).is_err(), "not both");
    }

    #[test]
    fn parse_lane_width_auto_and_errors() {
        match parse(&argv("simulate /tmp/model --lane-width auto")).unwrap() {
            Command::Simulate { lane_width, .. } => assert_eq!(lane_width, None),
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&argv("simulate /tmp/model --lane-width 1")).unwrap() {
            Command::Simulate { lane_width, .. } => {
                assert_eq!(lane_width, Some(1), "1 pins the scalar path")
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("simulate /tmp/model --lane-width 0")).is_err());
        assert!(parse(&argv("simulate /tmp/model --lane-width wide")).is_err());
        assert!(parse(&argv("simulate /tmp/model --lane-width")).is_err());
    }

    #[test]
    fn parse_ensemble_defaults_and_flags() {
        let cmd = parse(&argv(
            "ensemble /tmp/model --simulator ssa --replicates 256 --seed 9 --member 2 \
             --threads 4 --lane-width 8 --out /tmp/ens --checkpoint-dir /tmp/ck --shard-size 32",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Ensemble {
                model_dir: PathBuf::from("/tmp/model"),
                simulator: "ssa".into(),
                out_dir: Some(PathBuf::from("/tmp/ens")),
                replicates: 256,
                seed: 9,
                member: 2,
                threads: 4,
                lane_width: Some(8),
                checkpoint_dir: Some(PathBuf::from("/tmp/ck")),
                shard_size: 32,
            }
        );
        match parse(&argv("ensemble /tmp/model")).unwrap() {
            Command::Ensemble {
                simulator,
                replicates,
                seed,
                member,
                lane_width,
                shard_size,
                ..
            } => {
                assert_eq!(simulator, "tau-leaping", "lockstep lanes are the default");
                assert_eq!(replicates, 100);
                assert_eq!(seed, 0);
                assert_eq!(member, 0);
                assert_eq!(lane_width, None, "lane width defaults to auto");
                assert_eq!(shard_size, DEFAULT_SHARD_SIZE);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("ensemble")).is_err());
        assert!(parse(&argv("ensemble /m --replicates nope")).is_err());
        assert!(parse(&argv("ensemble /m --lane-width 0")).is_err());
    }

    #[test]
    fn parse_resume() {
        assert_eq!(
            parse(&argv("resume /tmp/ckpt")).unwrap(),
            Command::Resume { checkpoint_dir: PathBuf::from("/tmp/ckpt"), workers: 0 }
        );
        assert_eq!(
            parse(&argv("resume /tmp/ckpt --workers 4")).unwrap(),
            Command::Resume { checkpoint_dir: PathBuf::from("/tmp/ckpt"), workers: 4 }
        );
        assert!(parse(&argv("resume")).is_err());
        assert!(parse(&argv("resume /a /b")).is_err());
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse(&argv("simulate")).is_err());
        assert!(parse(&argv("simulate /m --batch notanumber")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("convert onlyone")).is_err());
        assert!(parse(&argv("generate --species 5 /tmp/x")).is_err()); // missing --reactions
        for zero in ["--species 0 --reactions 3", "--species 3 --reactions 0"] {
            let err = parse(&argv(&format!("generate {zero} /tmp/x"))).unwrap_err();
            assert!(err.0.ends_with("\"0\" (expected at least 1)"), "{zero}: {}", err.0);
        }
        // An empty swarm is refused before anything is read or written:
        // no checkpoint appears that `resume` could never finish.
        let ckpt =
            std::env::temp_dir().join(format!("paraspace_cli_swarm0_{}", std::process::id()));
        let err = parse(&argv(&format!("pe /m --swarm 0 --checkpoint-dir {}", ckpt.display())))
            .unwrap_err();
        assert_eq!(err.0, "invalid value for --swarm: \"0\" (expected at least 1)");
        assert!(!ckpt.exists());
    }

    /// The synopsis `USAGE` gives each subcommand names exactly the flags of
    /// its rows; the `--chaos-*` worker hooks are left out of `USAGE` on
    /// purpose.
    #[test]
    fn usage_names_exactly_the_flags_of_each_subcommand() {
        let synopsis: Vec<&str> = USAGE
            .lines()
            .skip_while(|line| *line != "USAGE:")
            .skip(1)
            .take_while(|line| !line.is_empty())
            .collect();
        for sub in SUBCOMMANDS {
            let mut named = BTreeSet::new();
            let mut inside = false;
            for line in &synopsis {
                if let Some(rest) = line.trim_start().strip_prefix("paraspace-cli ") {
                    inside = rest.split_whitespace().next() == Some(sub.name);
                }
                if inside {
                    let words = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
                    named.extend(words.filter(|word| word.starts_with("--")));
                }
            }
            let rows: BTreeSet<&str> = sub
                .rows
                .iter()
                .flat_map(|row| row.spec.flags().map(|(flag, _)| flag))
                .filter(|flag| !flag.starts_with("--chaos-"))
                .collect();
            assert_eq!(named, rows, "{}", sub.name);
        }
    }

    #[test]
    fn parse_generate_and_recommend() {
        let g = parse(&argv("generate --species 10 --reactions 20 --seed 7 /tmp/gen")).unwrap();
        assert_eq!(
            g,
            Command::Generate {
                species: 10,
                reactions: 20,
                seed: 7,
                out_dir: PathBuf::from("/tmp/gen")
            }
        );
        let r = parse(&argv("recommend --species 64 --reactions 64 --sims 512")).unwrap();
        assert_eq!(r, Command::Recommend { species: 64, reactions: 64, sims: 512 });
    }

    #[test]
    fn parse_pe_defaults_and_flags() {
        let cmd = parse(&argv(
            "pe /tmp/model --optimizer lbfgs --engine fine-coarse --unknown 0,3 \
             --log-radius 2.0 --observed A,B --target /tmp/target.tsv --rtol 1e-8 \
             --threads 4 --iterations 12 --swarm 24 --grad-iterations 30 --starts 2 \
             --seed 9 --out /tmp/pe --checkpoint-dir /tmp/ck",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Pe {
                model_dir: PathBuf::from("/tmp/model"),
                optimizer: "lbfgs".into(),
                engine: "fine-coarse".into(),
                unknown: Some(vec![0, 3]),
                log_radius: 2.0,
                observed: Some(vec!["A".into(), "B".into()]),
                target: Some(PathBuf::from("/tmp/target.tsv")),
                rtol: 1e-8,
                atol: 1e-12,
                threads: 4,
                iterations: 12,
                swarm: Some(24),
                grad_iterations: 30,
                starts: 2,
                seed: 9,
                out_dir: Some(PathBuf::from("/tmp/pe")),
                checkpoint_dir: Some(PathBuf::from("/tmp/ck")),
            }
        );
        match parse(&argv("pe /tmp/model")).unwrap() {
            Command::Pe { optimizer, engine, unknown, observed, target, swarm, .. } => {
                assert_eq!(optimizer, "hybrid", "hybrid is the default search");
                assert_eq!(engine, "lsoda");
                assert_eq!(unknown, None, "all constants unknown by default");
                assert_eq!(observed, None, "all species observed by default");
                assert_eq!(target, None, "self-calibration by default");
                assert_eq!(swarm, None, "swarm size defaults to the heuristic");
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("pe")).is_err(), "needs a model directory");
        assert!(parse(&argv("pe /m --optimizer annealing")).is_err());
        assert!(parse(&argv("pe /m --unknown 0,x")).is_err());
        assert!(parse(&argv("pe /m --log-radius 0")).is_err());
        assert!(parse(&argv("pe /m --starts 0")).is_err());
    }
}
