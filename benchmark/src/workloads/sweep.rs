//! `sweep_cli` and `sweep_net`: one non-stiff parameter sweep through the
//! CLI, plain and through the networked durable path. The two share the
//! model directory and the members, so the difference of their walls is
//! the durability + lease + TCP tax and nothing else.

use super::{
    choose_members, clear_dir, cli_options, final_state, list_files, max_rel_deviation,
    parse_after, parse_ok_count, radau_reference, Check, Ctx, Rep, Workload, CAMPAIGN_DEADLINE,
    THREADS,
};
use crate::sys::run_campaign;
use crate::trace::Tracer;
use paraspace_core::SimulationJob;
use paraspace_rbm::{biosimware, perturbed_batch, sbgen::SbGen, ReactionBasedModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// The network is part of the workload's definition, so its generator seed
/// is fixed; the run's seed draws the members.
const MODEL_SEED: u64 = 7;
const SPECIES: usize = 128;
const REACTIONS: usize = 192;
pub const MEMBERS: usize = 192;
pub const SHARD_SIZE: usize = 8;
const SAMPLE_TIMES: usize = 20;
/// End of the integration window; the last sample time.
const HORIZON: f64 = 100.0;
const REF_MEMBERS: usize = 8;
pub const REF_LIMIT: f64 = 1e-3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `simulate DIR --threads 2 --out OUT`.
    Plain,
    /// The same members through `--checkpoint-dir --workers 2 --listen`.
    Networked,
}

pub struct Sweep<'a> {
    pub ctx: &'a Ctx<'a>,
    pub mode: Mode,
    pub members: usize,
    pub model_dir: PathBuf,
    pub out_dir: PathBuf,
    pub ck_dir: PathBuf,
    pub model: ReactionBasedModel,
    pub times: Vec<f64>,
}

impl<'a> Sweep<'a> {
    pub fn new(ctx: &'a Ctx<'a>, mode: Mode) -> Result<Self, String> {
        let members = ctx.sized(MEMBERS, SHARD_SIZE * 2);
        let model = SbGen::new(SPECIES, REACTIONS).generate(&mut StdRng::seed_from_u64(MODEL_SEED));
        let batch = perturbed_batch(&model, members, &mut StdRng::seed_from_u64(ctx.seed));
        let times: Vec<f64> =
            (1..=SAMPLE_TIMES).map(|i| i as f64 * HORIZON / SAMPLE_TIMES as f64).collect();

        let model_dir = ctx.work.path().join("model");
        biosimware::write_dir(&model, &model_dir).map_err(|e| e.to_string())?;
        biosimware::write_time_points(&times, &model_dir).map_err(|e| e.to_string())?;
        biosimware::write_parameterizations(&model, &batch, &model_dir)
            .map_err(|e| e.to_string())?;
        Ok(Sweep {
            ctx,
            mode,
            members,
            out_dir: ctx.work.path().join("out"),
            ck_dir: ctx.work.path().join("ck"),
            model_dir,
            model,
            times,
        })
    }

    /// The `simulate` command line of `mode`, writing to `out`.
    pub fn command(&self, mode: Mode, out: &std::path::Path) -> std::process::Command {
        let mut cmd = self.ctx.cli_command();
        cmd.arg("simulate").arg(&self.model_dir).arg("--out").arg(out);
        match mode {
            Mode::Plain => {
                cmd.args(["--threads", &THREADS.to_string()]);
            }
            Mode::Networked => {
                cmd.args(["--threads", "1", "--checkpoint-dir"])
                    .arg(&self.ck_dir)
                    .args(["--shard-size", &SHARD_SIZE.to_string()])
                    .args(["--workers", &THREADS.to_string()])
                    .args(["--listen", "127.0.0.1:0"]);
            }
        }
        cmd
    }

    /// Removes the artifacts of the previous campaign (outside any timed
    /// region).
    pub fn clear_outputs(&self) -> Result<(), String> {
        clear_dir(&self.out_dir)?;
        clear_dir(&self.ck_dir)
    }

    pub fn shards(&self) -> usize {
        self.members.div_ceil(SHARD_SIZE)
    }
}

impl Workload for Sweep<'_> {
    fn members(&self) -> usize {
        self.members
    }

    fn describe(&self) -> String {
        let how = match self.mode {
            Mode::Plain => format!("simulate --threads {THREADS}"),
            Mode::Networked => format!(
                "simulate --threads 1 --checkpoint-dir --shard-size {SHARD_SIZE} --workers {THREADS} --listen 127.0.0.1:0 ({} shards)",
                self.shards()
            ),
        };
        format!(
            "paraspace-cli {how}: SbGen {SPECIES}x{REACTIONS} model, {} perturbed members, {SAMPLE_TIMES} sample times to t = {HORIZON}",
            self.members
        )
    }

    fn setup_batch(&self) -> usize {
        if self.ctx.smoke {
            128
        } else {
            48
        }
    }

    fn prepare_once(&self) -> Result<(), String> {
        let model = biosimware::read_dir(&self.model_dir).map_err(|e| e.to_string())?;
        let times = biosimware::read_time_points(&self.model_dir).map_err(|e| e.to_string())?;
        let batch = biosimware::read_parameterizations(&model, &self.model_dir)
            .map_err(|e| e.to_string())?;
        let job = SimulationJob::builder(&model)
            .time_points(times)
            .parameterizations(batch)
            .options(cli_options())
            .build()
            .map_err(|e| e.to_string())?;
        std::hint::black_box(job.batch_size());
        Ok(())
    }

    fn repetition(&mut self) -> Result<Rep, String> {
        self.clear_outputs()?;
        let mut cmd = self.command(self.mode, &self.out_dir);
        let run = run_campaign(&mut cmd, CAMPAIGN_DEADLINE).map_err(|e| e.to_string())?;
        let ok = parse_ok_count(&run.stdout, "simulations ok");
        Ok(Rep::from_child(run, self.members, ok))
    }

    fn check(&mut self) -> Result<Check, String> {
        let files = list_files(&self.out_dir)?;
        let mut conditions = vec![(
            format!("{} dynamics files written", self.members),
            files.iter().filter(|(p, _)| p.extension().is_some_and(|e| e == "tsv")).count()
                == self.members,
        )];

        // Truth: scalar Radau5 at rtol 1e-10 on seed-chosen members.
        let odes = self.model.compile().map_err(|e| e.to_string())?;
        let batch = biosimware::read_parameterizations(&self.model, &self.model_dir)
            .map_err(|e| e.to_string())?;
        let mut ref_err = 0.0f64;
        for i in choose_members(self.members, REF_MEMBERS, self.ctx.seed) {
            let (x0, k) = batch[i].resolve(&self.model).map_err(|e| e.to_string())?;
            let want = radau_reference(&odes, &x0, &k, &self.times)?;
            let got = final_state(&self.out_dir.join(format!("dynamics_{i:05}.tsv")))?;
            ref_err = ref_err.max(max_rel_deviation(&got, &want));
        }

        if self.mode == Mode::Networked {
            // The repository's own contract: networked artifacts are
            // byte-identical to the plain run's.
            let plain_out = self.ctx.work.fresh("out_plain").map_err(|e| e.to_string())?;
            let mut cmd = self.command(Mode::Plain, &plain_out);
            let run = run_campaign(&mut cmd, CAMPAIGN_DEADLINE).map_err(|e| e.to_string())?;
            let plain = list_files(&plain_out)?;
            let identical = run.success
                && plain.len() == files.len()
                && plain.iter().zip(&files).all(|((a, _), (b, _))| {
                    a.file_name() == b.file_name()
                        && std::fs::read(a)
                            .ok()
                            .zip(std::fs::read(b).ok())
                            .is_some_and(|(x, y)| x == y)
                });
            conditions.push(("artifacts byte-identical to sweep_cli's".into(), identical));
            clear_dir(&plain_out)?;
        }
        Ok(Check { ref_err, ref_limit: REF_LIMIT, conditions })
    }

    fn trace(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        crate::trace::sweep::trace(self, tracer)
    }
}

/// `(shards, reassignments)` from a dispatched campaign's `dispatch:` line.
pub fn parse_dispatch_line(stdout: &str) -> Option<(usize, usize)> {
    let line = stdout.lines().find(|l| l.starts_with("dispatch: "))?;
    Some((parse_after(line, "dispatch: ")?, parse_after(line, "merged); ")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_dispatch_summary() {
        let out = "fine-coarse (dispatched): 128/128 simulations ok; simulated 1 ms\n\
                   dispatch: 24 shards (0 recovered, 24 merged); 1 reassignments; 2 worker segments\n";
        assert_eq!(parse_dispatch_line(out), Some((24, 1)));
        assert_eq!(parse_dispatch_line("nothing"), None);
    }
}
