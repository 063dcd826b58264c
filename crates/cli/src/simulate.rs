//! `simulate`: one campaign whatever the flags. [`SimulateWorld`] resolves
//! the command once and holds the one shard executor every mode runs — a
//! plain run (the one-shard case with no journal), a durable one, the
//! coordinator and every worker — which is what makes their artifacts
//! byte-identical.

use crate::args::{pin_flags, SIMULATE};
use crate::artifacts::MemberFiles;
use crate::{
    campaign_error, create_dir_for, engine_by_name, read_time_points, report_checkpoint,
    CancelToken, CliError, Command,
};
use paraspace_analysis::campaign::{
    f64s_digest, model_digest, options_digest, CampaignError, Checkpoint, ShardLog, ShardRecord,
};
use paraspace_analysis::dispatch::{pack_shards, uniform_shards, DispatchConfig};
use paraspace_core::{
    taxonomy, BatchHealth, BatchTiming, RecoveryLog, RecoveryPolicy, SimOutcome, SimulationJob,
    Simulator,
};
use paraspace_journal::codec::{Dec, Enc};
use paraspace_journal::lease::{LeaseConfig, RetryState};
use paraspace_journal::{CampaignManifest, JournalError};
use paraspace_rbm::{biosimware, Parameterization, ReactionBasedModel};
use paraspace_solvers::SolverOptions;
use std::borrow::Cow;
use std::fmt;
use std::path::PathBuf;
use std::sync::Mutex;

/// The `.err` layout: `error`, its taxonomy `label`, the `solver` that
/// produced it and the member's recovery `log`.
fn err_body(error: &dyn fmt::Display, label: &str, solver: &str, log: &RecoveryLog) -> String {
    format!(
        "error: {error}\ntaxonomy: {label}\nsolver: {solver}\nattempts: {}\nrelaxations: {}\nrerouted: {}\nrecovered: {}\npanicked: {}\n",
        log.attempts, log.relaxations, log.rerouted, log.recovered, log.panicked,
    )
}

/// One member's artifact as a journaled shard holds it: the exact bytes
/// its output file will hold (`body`), plus the taxonomy label for failed
/// members (empty for successes) so a resumed run reprints the same
/// failure summary.
struct MemberRecord {
    ok: bool,
    label: String,
    body: String,
}

/// Writes `simulate`'s member artifacts (`dynamics_NNNNN.tsv` for a
/// trajectory, `.err` for a failure report) into `--out`, each as it
/// arrives — from the engine's workers on a run with no journal, from the
/// committed records on a journaled one — and tallies them for the summary.
pub(crate) struct ArtifactFiles {
    files: MemberFiles,
    /// Members written per taxonomy label (`""` for successes), and the
    /// first I/O failure, reported after the run.
    tally: Mutex<(std::collections::BTreeMap<String, usize>, Option<std::io::Error>)>,
}

impl ArtifactFiles {
    /// Writes the file of batch member `index`.
    fn put(&self, index: usize, ok: bool, label: &str, body: &str) {
        let written = self.files.put(index, ok, body.as_bytes());
        let mut tally = self.tally.lock().expect("no writer panics holding the lock");
        *tally.0.entry(label.to_string()).or_default() += 1;
        if let Err(e) = written {
            tally.1.get_or_insert(e);
        }
    }

    /// Prints the summary every `simulate` mode ends with: the billed
    /// clocks summed in shard order and the tally, under `label`. A run
    /// with no journal is one shard the engine reported on itself, so its
    /// name, host wall and `health:` line stand in for `label` and the
    /// failure tally.
    pub(crate) fn summarize(
        self,
        label: &str,
        shards: &[ShardOutcome],
        out: &mut dyn std::io::Write,
    ) -> Result<(), CliError> {
        // An empty batch writes nobody, and still replaces the last campaign.
        let pruned = self.files.prune().map(|_| ());
        let (mut labels, error) =
            self.tally.into_inner().expect("no writer panics holding the lock");
        if let Some(e) = error.or(pruned.err()) {
            let out_path = self.files.out_path().display();
            return Err(CliError(format!("cannot write artifacts to {out_path}: {e}")));
        }
        let ms = |ns: fn(&BatchTiming) -> f64| {
            shards.iter().fold(0.0, |sum, shard| sum + ns(&shard.timing)) / 1e6
        };
        let run = shards.iter().find_map(|shard| Some((shard.run?, shard.timing.host_wall)));
        let ok = labels.remove("").unwrap_or(0);
        write!(
            out,
            "{}: {}/{} simulations ok; simulated {:.3} ms (integration {:.3} ms, i/o {:.3} ms)",
            run.map_or(label, |((engine, _), _)| engine),
            ok,
            ok + labels.values().sum::<usize>(),
            ms(|t| t.simulated_total_ns),
            ms(|t| t.simulated_integration_ns),
            ms(|t| t.simulated_io_ns),
        )?;
        if let Some(((_, health), host_wall)) = run {
            writeln!(out, "; host wall {host_wall:.1?}\nhealth: {health}")?;
        } else {
            writeln!(out)?;
            let failures: Vec<String> = labels.iter().map(|(l, n)| format!("{l} x{n}")).collect();
            if !failures.is_empty() {
                writeln!(out, "failures: {}", failures.join(", "))?;
            }
        }
        Ok(())
    }
}

/// A shard's outcome: its members' records and its billed simulated-time
/// split — the journal payload, so replayed shards bill identically.
pub(crate) struct ShardOutcome {
    /// One record per member in shard order; none once the members are in
    /// their files (a run with no journal writes each as it arrives).
    members: Vec<MemberRecord>,
    timing: BatchTiming,
    /// The engine's name and its health report of the whole batch, kept
    /// only when the members went straight to their files (not journaled).
    run: Option<(&'static str, BatchHealth)>,
}

impl ShardOutcome {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.put_u32(self.members.len() as u32);
        for m in &self.members {
            enc.put_u32(u32::from(m.ok)).put_str(&m.label).put_str(&m.body);
        }
        let t = &self.timing;
        enc.put_f64(t.simulated_total_ns).put_f64(t.simulated_integration_ns);
        enc.put_f64(t.simulated_io_ns);
        enc.finish()
    }
}

impl ShardRecord for ShardOutcome {
    fn to_payload(&self) -> Result<Cow<'_, [u8]>, JournalError> {
        Ok(Cow::Owned(self.encode()))
    }

    fn from_payload(bytes: &[u8]) -> Result<Self, JournalError> {
        let mut dec = Dec::new(bytes);
        let n = dec.u32()?;
        let mut members = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let ok = dec.u32()? != 0;
            let label = dec.str()?.to_string();
            let body = dec.str()?.to_string();
            members.push(MemberRecord { ok, label, body });
        }
        let timing = BatchTiming {
            simulated_total_ns: dec.f64()?,
            simulated_integration_ns: dec.f64()?,
            simulated_io_ns: dec.f64()?,
            ..BatchTiming::default()
        };
        dec.expect_exhausted()?;
        Ok(ShardOutcome { members, timing, run: None })
    }
}

/// Everything a `simulate` campaign resolves once from its command and the
/// model directory, and the one shard executor every mode runs: a plain
/// run, a durable one, the coordinator and every `worker` rebuilt from the
/// manifest execute shards through the same world, which is what makes
/// their artifacts byte-identical.
pub(crate) struct SimulateWorld {
    model: ReactionBasedModel,
    time_points: Vec<f64>,
    pub(crate) parameterizations: Vec<Parameterization>,
    options: SolverOptions,
    pub(crate) engine_name: String,
    pub(crate) out_path: PathBuf,
    /// The journaled lease timing every worker and the coordinator share.
    pub(crate) dispatch: DispatchConfig,
    /// Which batch indices each shard holds: one in-order shard of every
    /// member without a checkpoint; with one, uniform ascending chunks or
    /// `pack_shards`' cost-model packing, pinned as the `shard_plan`.
    pub(crate) plan: Vec<Vec<usize>>,
    /// The command with its shard size and plan resolved, as pinned.
    cmd: Command,
}

impl SimulateWorld {
    /// Resolves a `Simulate` command: checks the engine name, reads the
    /// model directory, expands the batch and decides the shard plan. A
    /// command without a checkpoint builds no packing.
    pub(crate) fn load(cmd: &Command) -> Result<Self, CliError> {
        let mut cmd = cmd.clone();
        let Command::Simulate {
            model_dir,
            engine,
            out_dir,
            batch,
            rtol,
            atol,
            checkpoint_dir,
            shard_size,
            workers,
            pack,
            lease_ttl,
            retry_base,
            ..
        } = &mut cmd
        else {
            unreachable!("SimulateWorld::load is only called for Simulate commands");
        };
        // Surface an unknown engine name before anything runs or any
        // checkpoint exists.
        engine_by_name(engine, 1, None, RecoveryPolicy::default(), &CancelToken::new())?;
        let model = biosimware::read_dir(model_dir)?;
        let time_points = read_time_points(model_dir)?;
        let mut parameterizations = biosimware::read_parameterizations(&model, model_dir)?;
        if parameterizations.is_empty() {
            parameterizations = (0..*batch).map(|_| Parameterization::new()).collect();
        }
        let options = SolverOptions {
            rel_tol: *rtol,
            abs_tol: *atol,
            max_steps: 100_000,
            ..SolverOptions::default()
        };
        // The plan decides which member's bytes land in which shard record,
        // so it is pinned as resolved: auto (`None`) packs only multi-worker
        // runs, where evening out shard cost keeps N workers busy.
        *shard_size = (*shard_size).max(1);
        let packed = *pack.get_or_insert(*workers > 1);
        let plan = if checkpoint_dir.is_none() {
            vec![(0..parameterizations.len()).collect()]
        } else if packed {
            let job = SimulationJob::builder(&model)
                .time_points(time_points.clone())
                .parameterizations(parameterizations.clone())
                .options(options.clone())
                .build()?;
            pack_shards(&job, (*shard_size / 4).max(1), *shard_size)
        } else {
            uniform_shards(parameterizations.len(), *shard_size)
        };
        Ok(SimulateWorld {
            engine_name: engine.clone(),
            out_path: out_dir.clone().unwrap_or_else(|| model_dir.join("out")),
            dispatch: DispatchConfig {
                lease: LeaseConfig {
                    ttl_ms: *lease_ttl,
                    backoff_base_ms: *retry_base,
                    ..LeaseConfig::default()
                },
                ..DispatchConfig::default()
            },
            model,
            time_points,
            parameterizations,
            options,
            plan,
            cmd,
        })
    }

    /// The writer of this world's member artifacts into `--out`.
    pub(crate) fn files(&self) -> ArtifactFiles {
        let members = self.plan.iter().map(Vec::len).sum();
        ArtifactFiles {
            files: MemberFiles::new(self.out_path.clone(), "dynamics_", members),
            tally: Mutex::default(),
        }
    }

    /// The batch indices of one shard, per the plan.
    pub(crate) fn members(&self, shard: u64) -> &[usize] {
        self.plan.get(shard as usize).map_or(&[], Vec::as_slice)
    }

    /// An engine wired to `cancel` (its name was checked at [`load`](Self::load)).
    pub(crate) fn engine(&self, cancel: &CancelToken) -> Box<dyn Simulator> {
        let Command::Simulate { threads, lane_width, max_retries, member_budget, .. } = self.cmd
        else {
            unreachable!("a world holds a Simulate command");
        };
        let recovery = RecoveryPolicy {
            max_relaxations: max_retries,
            step_budget: member_budget,
            ..RecoveryPolicy::default()
        };
        engine_by_name(&self.engine_name, threads, lane_width, recovery, cancel)
            .expect("the engine name was checked when the world was loaded")
    }

    /// The campaign manifest a checkpoint pins: digests, shard count and
    /// every flag `resume` needs. A run without a checkpoint never builds it.
    pub(crate) fn manifest(&self) -> CampaignManifest {
        pin_flags(
            CampaignManifest::new("cli-simulate", self.plan.len() as u64)
                .with_digest("model", model_digest(&self.model))
                .with_digest("times", f64s_digest(&self.time_points))
                .with_digest("options", options_digest(&self.options)),
            &SIMULATE,
            &self.cmd,
        )
    }

    /// Executes one shard's `members`: the one executor behind plain and
    /// durable runs and every worker. Its one sink hands each member, as the
    /// engine delivers it, to `files` (a plain run's one in-order shard,
    /// whose indices are batch indices) or else to the shard's record. A job
    /// that fails validation is an outcome, every member `invalid`.
    pub(crate) fn execute(
        &self,
        engine: &dyn Simulator,
        members: Vec<Parameterization>,
        files: Option<&ArtifactFiles>,
    ) -> Result<ShardOutcome, CampaignError> {
        let n = members.len();
        let records = Mutex::new((0..n).map(|_| None).collect::<Vec<_>>());
        let put = |i: usize, ok: bool, label: &str, body: &str| match files {
            Some(files) => files.put(i, ok, label, body),
            None => {
                let record = MemberRecord { ok, label: label.into(), body: body.into() };
                records.lock().expect("no sink panics holding the lock")[i] = Some(record);
            }
        };
        let job = SimulationJob::builder(&self.model)
            .time_points(self.time_points.clone())
            .parameterizations(members)
            .options(self.options.clone())
            .build();
        let result = match job {
            Ok(job) => Some(engine.run_into(&job, &|i, o: &SimOutcome, text: Option<&str>| {
                match &o.solution {
                    Ok(_) => put(i, true, "", text.expect("a success is delivered with its text")),
                    Err(e) => {
                        put(i, false, taxonomy(e), &err_body(e, taxonomy(e), o.solver, &o.log))
                    }
                }
            })?),
            Err(e @ paraspace_core::SimError::InvalidJob { .. }) => {
                let body = err_body(&e, "invalid", "-", &RecoveryLog::default());
                (0..n).for_each(|i| put(i, false, "invalid", &body));
                None
            }
            Err(e) => return Err(e.into()),
        };
        let records = records.into_inner().expect("no sink panics holding the lock");
        Ok(ShardOutcome {
            // Every member was delivered (the sink contract); a streamed
            // shard keeps none.
            members: records.into_iter().flatten().collect(),
            timing: result.as_ref().map_or_else(BatchTiming::default, |r| r.timing),
            run: result.filter(|_| files.is_some()).map(|r| (r.engine, r.health)),
        })
    }

    /// The journaled payload for a quarantined shard: every member fails
    /// with the `quarantined` taxonomy and a report of the deaths that
    /// condemned the shard, so the campaign completes degraded with the
    /// failure visible in the ordinary `.err` artifacts.
    pub(crate) fn poison_payload(&self, shard: u64, state: &RetryState) -> Vec<u8> {
        let workers: Vec<&str> = state.workers.iter().map(String::as_str).collect();
        let body = format!(
            "error: shard {shard} quarantined after {} worker deaths by {} distinct workers\n\
             taxonomy: quarantined\nworkers: {}\nreasons: {}\n",
            state.deaths,
            state.workers.len(),
            workers.join(", "),
            state.reasons.join(", "),
        );
        let record = || MemberRecord { ok: false, label: "quarantined".into(), body: body.clone() };
        let members = self.members(shard).iter().map(|_| record()).collect();
        ShardOutcome { members, timing: BatchTiming::default(), run: None }.encode()
    }

    /// The one writer of committed records, for the durable run and the
    /// coordinator alike: once every shard has committed, creates `--out`
    /// and writes each member under its batch index (a packed plan puts a
    /// shard's members anywhere in the batch). The shards keep only their
    /// billed clocks.
    pub(crate) fn materialize(
        &self,
        shards: &mut [ShardOutcome],
        files: &ArtifactFiles,
    ) -> Result<(), CliError> {
        create_dir_for("--out", &self.out_path)?;
        for (shard_id, shard) in shards.iter_mut().enumerate() {
            let members = self.members(shard_id as u64);
            if shard.members.len() != members.len() {
                return Err(CliError(format!(
                    "shard {shard_id} payload holds {} members but the plan assigns {}",
                    shard.members.len(),
                    members.len(),
                )));
            }
            for (m, &index) in shard.members.drain(..).zip(members) {
                files.put(index, m.ok, &m.label, &m.body);
            }
        }
        Ok(())
    }
}

/// Runs a `simulate` campaign in this process, plain or durable: every
/// shard of the plan goes through [`SimulateWorld::execute`] as one
/// get-or-run step of a [`ShardLog`]. With no checkpoint the plan is one
/// in-order shard whose members stream to `--out` as the engine delivers
/// them. With one, each shard's records are journaled and `--out` is
/// written only once every shard has committed, so a killed run resumes to
/// byte-identical artifacts.
pub(crate) fn simulate(
    mut world: SimulateWorld,
    checkpoint: Option<&Checkpoint>,
    out: &mut dyn std::io::Write,
    cancel: &CancelToken,
) -> Result<(), CliError> {
    let engine = world.engine(cancel);
    let files = world.files();
    if checkpoint.is_none() {
        create_dir_for("--out", &world.out_path)?;
    }
    // Each shard runs at most once here, so its members move into its job.
    let mut pending = std::mem::take(&mut world.parameterizations);
    let world = &world;
    let mut run = || -> Result<_, CampaignError> {
        let mut log = ShardLog::open(checkpoint, || world.manifest())?;
        let mut shards = Vec::with_capacity(world.plan.len());
        for shard in 0..world.plan.len() as u64 {
            shards.push(log.step(shard, || {
                let members = world.members(shard);
                let batch = members.iter().map(|&i| std::mem::take(&mut pending[i])).collect();
                world.execute(engine.as_ref(), batch, checkpoint.is_none().then_some(&files))
            })?);
        }
        Ok((shards, log.finish()?))
    };
    let (mut shards, report) = run().map_err(|e| match (e, checkpoint) {
        // With no journal a failed run is the engine's own error.
        (CampaignError::Sim(e), None) => e.into(),
        (e, _) => campaign_error(e, checkpoint.map(Checkpoint::dir), out),
    })?;
    let label = match checkpoint {
        None => world.engine_name.clone(),
        Some(_) => {
            world.materialize(&mut shards, &files)?;
            format!("{} (durable)", world.engine_name)
        }
    };
    files.summarize(&label, &shards, out)?;
    if checkpoint.is_some() {
        report_checkpoint(out, &report)?;
    }
    writeln!(out, "dynamics written to {}", world.out_path.display())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{argv, edit_manifest, read_outputs, resumed};
    use crate::{command_from_manifest, parse};
    use crate::{
        execute, execute_with_cancel, Command, DEFAULT_LEASE_TTL_MS, DEFAULT_RETRY_BASE_MS,
        DEFAULT_SHARD_SIZE,
    };
    use std::path::Path;

    #[test]
    fn end_to_end_generate_then_simulate() {
        let dir = std::env::temp_dir().join(format!("paraspace_cli_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut log = Vec::new();
        execute(
            &Command::Generate { species: 6, reactions: 8, seed: 3, out_dir: dir.clone() },
            &mut log,
        )
        .unwrap();
        execute(
            &Command::Simulate {
                model_dir: dir.clone(),
                engine: "fine-coarse".into(),
                out_dir: None,
                batch: 4,
                rtol: 1e-6,
                atol: 1e-12,
                threads: 2,
                lane_width: None,
                max_retries: 0,
                member_budget: None,
                checkpoint_dir: None,
                shard_size: DEFAULT_SHARD_SIZE,
                workers: 0,
                pack: None,
                lease_ttl: DEFAULT_LEASE_TTL_MS,
                retry_base: DEFAULT_RETRY_BASE_MS,
                listen: None,
            },
            &mut log,
        )
        .unwrap();
        let outputs: Vec<_> = std::fs::read_dir(dir.join("out")).unwrap().collect();
        assert_eq!(outputs.len(), 4, "one dynamics file per simulation");
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("4/4 simulations ok"), "log: {text}");
        assert!(text.contains("health: 4/4 ok"), "log: {text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn simulate_cmd(model_dir: &Path, checkpoint: Option<PathBuf>, batch: usize) -> Command {
        Command::Simulate {
            model_dir: model_dir.to_path_buf(),
            engine: "lsoda".into(),
            out_dir: None,
            batch,
            rtol: 1e-6,
            atol: 1e-12,
            threads: 2,
            lane_width: None,
            max_retries: 0,
            member_budget: None,
            checkpoint_dir: checkpoint,
            shard_size: 2,
            workers: 0,
            pack: None,
            lease_ttl: DEFAULT_LEASE_TTL_MS,
            retry_base: DEFAULT_RETRY_BASE_MS,
            listen: None,
        }
    }

    #[test]
    fn durable_simulate_matches_plain_and_resumes_after_interrupt() {
        let base = std::env::temp_dir().join(format!("paraspace_cli_dur_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let model_a = base.join("model_a");
        let model_b = base.join("model_b");
        let mut log = Vec::new();
        for m in [&model_a, &model_b] {
            execute(
                &Command::Generate { species: 6, reactions: 8, seed: 3, out_dir: m.clone() },
                &mut log,
            )
            .unwrap();
        }

        // Plain run on model A, durable run on the identical model B: the
        // dynamics artifacts must be byte-identical.
        execute(&simulate_cmd(&model_a, None, 5), &mut log).unwrap();
        let ckpt = base.join("ckpt");
        execute(&simulate_cmd(&model_b, Some(ckpt.clone()), 5), &mut log).unwrap();
        let plain = read_outputs(&model_a.join("out"));
        let durable = read_outputs(&model_b.join("out"));
        assert_eq!(plain.len(), 5);
        assert_eq!(plain, durable, "durable artifacts must be byte-identical to plain");

        // Interrupt a fresh durable run with a pre-tripped token (as SIGINT
        // before the first shard would), then resume: identical artifacts.
        let model_c = base.join("model_c");
        execute(
            &Command::Generate { species: 6, reactions: 8, seed: 3, out_dir: model_c.clone() },
            &mut log,
        )
        .unwrap();
        let ckpt_c = base.join("ckpt_c");
        let tripped = CancelToken::new();
        tripped.cancel();
        let err = execute_with_cancel(
            &simulate_cmd(&model_c, Some(ckpt_c.clone()), 5),
            &mut log,
            &tripped,
        )
        .unwrap_err();
        assert!(err.to_string().contains("resume"), "interruption names the resume command: {err}");
        assert!(!model_c.join("out").exists(), "no artifacts before all shards commit");
        execute(&Command::Resume { checkpoint_dir: ckpt_c.clone(), workers: 0 }, &mut log).unwrap();
        assert_eq!(plain, read_outputs(&model_c.join("out")));
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("interrupted: 0/3 shards committed"), "log: {text}");

        // A batch (one shard) holding a non-finite member is rejected before
        // it reaches a solver. That is an outcome, not an error, with or
        // without a journal: both runs succeed and leave the same `.err`
        // artifacts.
        let mut log = Vec::new();
        let (model_d, model_e) = (base.join("model_d"), base.join("model_e"));
        for m in [&model_d, &model_e] {
            execute(
                &Command::Generate { species: 6, reactions: 8, seed: 3, out_dir: m.clone() },
                &mut log,
            )
            .unwrap();
            std::fs::write(m.join("c_matrix"), "1 1 1 1 1 1 1 1\n1 NaN 1 1 1 1 1 1\n").unwrap();
        }
        execute(&simulate_cmd(&model_d, None, 1), &mut log).unwrap();
        execute(&simulate_cmd(&model_e, Some(base.join("ckpt_e")), 1), &mut log).unwrap();
        let plain = read_outputs(&model_d.join("out"));
        assert_eq!(plain, read_outputs(&model_e.join("out")));
        assert_eq!(
            plain.keys().collect::<Vec<_>>(),
            ["dynamics_00000.err", "dynamics_00001.err"],
            "every member of the rejected batch fails"
        );
        let report = String::from_utf8_lossy(&plain["dynamics_00001.err"]).into_owned();
        assert!(report.contains("taxonomy: invalid"), "{report}");
        assert!(report.contains("non-finite rate constant"), "{report}");
        let text = String::from_utf8(log).unwrap();
        assert_eq!(text.matches("0/2 simulations ok").count(), 2, "log: {text}");
        assert_eq!(text.matches("failures: invalid x2").count(), 2, "log: {text}");
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn durable_simulate_survives_torn_journal_tail() {
        let base = std::env::temp_dir().join(format!("paraspace_cli_torn_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let model = base.join("model");
        let ckpt = base.join("ckpt");
        let mut log = Vec::new();
        execute(
            &Command::Generate { species: 6, reactions: 8, seed: 5, out_dir: model.clone() },
            &mut log,
        )
        .unwrap();
        execute(&simulate_cmd(&model, Some(ckpt.clone()), 6), &mut log).unwrap();
        let baseline = read_outputs(&model.join("out"));

        // Tear the journal tail and wipe the outputs; the re-run truncates
        // the torn record, re-executes that shard, and reproduces the
        // artifacts byte for byte.
        let log_file = ckpt.join(paraspace_journal::LOG_FILE);
        let len = std::fs::metadata(&log_file).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&log_file).unwrap().set_len(len - 5).unwrap();
        std::fs::remove_dir_all(model.join("out")).unwrap();
        execute(&simulate_cmd(&model, Some(ckpt.clone()), 6), &mut log).unwrap();
        assert_eq!(baseline, read_outputs(&model.join("out")));
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("torn bytes truncated"), "log: {text}");
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn resume_refuses_changed_world() {
        let base = std::env::temp_dir().join(format!("paraspace_cli_world_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let model = base.join("model");
        let ckpt = base.join("ckpt");
        let mut log = Vec::new();
        execute(
            &Command::Generate { species: 5, reactions: 6, seed: 2, out_dir: model.clone() },
            &mut log,
        )
        .unwrap();
        execute(&simulate_cmd(&model, Some(ckpt.clone()), 4), &mut log).unwrap();

        // Re-running the same checkpoint with a different engine must be
        // refused — the journaled bytes belong to a different world.
        let mut changed = simulate_cmd(&model, Some(ckpt.clone()), 4);
        if let Command::Simulate { engine, .. } = &mut changed {
            *engine = "fine".into();
        }
        let err = execute(&changed, &mut log).unwrap_err();
        assert!(err.to_string().contains("engine"), "mismatch names the field: {err}");

        // Pinning a different lane width is likewise a different world (it
        // changes the billed schedule even though trajectories are bitwise
        // identical).
        let mut repinned = simulate_cmd(&model, Some(ckpt.clone()), 4);
        if let Command::Simulate { lane_width, .. } = &mut repinned {
            *lane_width = Some(2);
        }
        let err = execute(&repinned, &mut log).unwrap_err();
        assert!(err.to_string().contains("lane_width"), "mismatch names the field: {err}");
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn err_files_carry_recovery_log_and_taxonomy() {
        // A nonsensical tolerance forces every member to fail; the .err
        // artifacts must carry the full recovery log and taxonomy label.
        let base = std::env::temp_dir().join(format!("paraspace_cli_err_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let model = base.join("model");
        let mut log = Vec::new();
        execute(
            &Command::Generate { species: 6, reactions: 8, seed: 3, out_dir: model.clone() },
            &mut log,
        )
        .unwrap();
        let mut cmd = simulate_cmd(&model, None, 2);
        if let Command::Simulate { rtol, atol, max_retries, .. } = &mut cmd {
            // Keep tolerances valid but impossible to satisfy within the
            // step ceiling by shrinking them to the representable floor.
            *rtol = 1e-300;
            *atol = 1e-305;
            *max_retries = 1;
        }
        execute(&cmd, &mut log).unwrap();
        let outputs = read_outputs(&model.join("out"));
        let err_file = outputs.iter().find(|(name, _)| name.ends_with(".err"));
        if let Some((name, bytes)) = err_file {
            let text = String::from_utf8_lossy(bytes);
            for key in ["error:", "taxonomy:", "solver:", "attempts:", "relaxations:", "rerouted:"]
            {
                assert!(text.contains(key), "{name} missing {key:?}: {text}");
            }
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn resume_rebuilds_simulate_from_its_manifest() {
        let base =
            std::env::temp_dir().join(format!("paraspace_cli_rt_sim_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let model = base.join("model");
        execute(
            &Command::Generate { species: 5, reactions: 6, seed: 2, out_dir: model.clone() },
            &mut Vec::new(),
        )
        .unwrap();
        let m = model.display();
        let ckpt = Path::new("/resumed/from/here");
        for flags in [
            "--checkpoint-dir /c --no-pack-shards",
            "--checkpoint-dir /c --pack-shards --lane-width auto --workers 3 --listen 127.0.0.1:0",
            "--checkpoint-dir /c --no-pack-shards --engine lsoda --out /tmp/o --batch 7 --rtol 1e-4 \
             --atol 1e-9 --threads 4 --lane-width 4 --max-retries 2 --member-budget 5000 \
             --shard-size 3 --lease-ttl 750 --retry-base 40",
        ] {
            let cmd = parse(&argv(&format!("simulate {m} {flags}"))).unwrap();
            let manifest = SimulateWorld::load(&cmd).unwrap().manifest();
            let rebuilt = command_from_manifest(&manifest, ckpt, 2).unwrap();
            assert_eq!(rebuilt, resumed(&cmd, ckpt, 2), "flags: {flags}");
        }

        // An automatic plan is pinned as resolved: uniform for one process.
        let auto = parse(&argv(&format!("simulate {m} --checkpoint-dir /c"))).unwrap();
        let manifest = SimulateWorld::load(&auto).unwrap().manifest();
        match command_from_manifest(&manifest, ckpt, 4).unwrap() {
            Command::Simulate { pack, workers, .. } => {
                assert_eq!(pack, Some(false), "the resume keeps the original plan");
                assert_eq!(workers, 4);
            }
            other => panic!("wrong command: {other:?}"),
        }

        // A checkpoint that predates the timing fields resumes at the
        // defaults it ran with.
        let old = edit_manifest(&manifest, &[("lease_ttl", None), ("retry_base", None)]);
        match command_from_manifest(&old, ckpt, 0).unwrap() {
            Command::Simulate { lease_ttl, retry_base, .. } => {
                assert_eq!(lease_ttl, DEFAULT_LEASE_TTL_MS);
                assert_eq!(retry_base, DEFAULT_RETRY_BASE_MS);
            }
            other => panic!("wrong command: {other:?}"),
        }

        // A missing or malformed field names its manifest key.
        for (edit, expect) in [
            (("batch", None), "missing \"batch\""),
            (("world.engine", None), "missing \"world.engine\""),
            (("batch", Some("many")), "field \"batch\""),
            (("world.lane_width", Some("0")), "field \"world.lane_width\""),
            (("member_budget", Some("lots")), "field \"member_budget\""),
            (("lease_ttl", Some("0")), "field \"lease_ttl\""),
        ] {
            let err =
                command_from_manifest(&edit_manifest(&manifest, &[edit]), ckpt, 0).unwrap_err();
            assert!(err.0.contains(expect), "{edit:?}: {}", err.0);
        }
        std::fs::remove_dir_all(&base).ok();
    }
}
