//! Traced run of the sweeps: the campaign replayed through the public
//! functions the CLI calls — `read_dir` → `read_parameterizations` → job
//! build → `classify_batch` → `Simulator::run` → `serialize_dynamics` +
//! write — with a span around each, at `threads = 1`. `sweep_net` replays
//! the durable path (one job and one journal commit per shard) and prices
//! the durability, lease and TCP taxes by running the campaign in each
//! mode.

use super::probes::{self, Family, KernelSample};
use super::Tracer;
use crate::sys::{run_campaign, run_campaign_sampled, ChildRun};
use crate::workloads::sweep::{parse_dispatch_line, Mode, Sweep, SHARD_SIZE};
use crate::workloads::{cli_options, list_files, parse_after, CAMPAIGN_DEADLINE, THREADS};
use paraspace_analysis::dispatch::{pack_shards, uniform_shards};
use paraspace_core::{
    auto_lane_width, classify_batch, BatchResult, FineCoarseEngine, SimOutcome, SimulationJob,
    Simulator,
};
use paraspace_journal::lease::SegmentReader;
use paraspace_journal::{CampaignManifest, Journal, LOG_FILE};
use paraspace_rbm::{biosimware, Parameterization, ReactionBasedModel};
use std::path::Path;

/// States along the trajectories of the first few members — where the
/// kernels actually get called.
fn sample_states(job: &SimulationJob, outcomes: &[SimOutcome]) -> Vec<KernelSample> {
    let mut samples = Vec::new();
    for (i, outcome) in outcomes.iter().enumerate().take(16) {
        if let Ok(solution) = &outcome.solution {
            let k = job.member(i).1.to_vec();
            for state in solution.states.iter().step_by(5) {
                samples.push(KernelSample { x: state.clone(), k: k.clone() });
            }
        }
    }
    samples
}

fn cli_run(w: &Sweep, mode_args: &[&str], out: &Path) -> Result<ChildRun, String> {
    w.clear_outputs()?;
    let mut cmd = w.ctx.cli_command();
    cmd.arg("simulate").arg(&w.model_dir).arg("--out").arg(out).args(mode_args);
    let run = run_campaign_sampled(&mut cmd, CAMPAIGN_DEADLINE).map_err(|e| e.to_string())?;
    if !run.success {
        return Err(format!("traced campaign {mode_args:?} failed"));
    }
    Ok(run)
}

/// `cli.spawn_s`: `paraspace-cli help`, spawn to exit.
pub fn cli_spawn_s(t: &mut Tracer, cli: &Path) -> Result<(), String> {
    let mut walls = Vec::new();
    for _ in 0..9 {
        let mut cmd = std::process::Command::new(cli);
        cmd.arg("help");
        let run = run_campaign(&mut cmd, CAMPAIGN_DEADLINE).map_err(|e| e.to_string())?;
        walls.push(run.wall_s);
    }
    t.set("cli.spawn_s", crate::stats::median(&walls));
    Ok(())
}

struct Inputs {
    model: ReactionBasedModel,
    times: Vec<f64>,
    batch: Vec<Parameterization>,
}

fn build_job<'m>(
    model: &'m ReactionBasedModel,
    times: &[f64],
    batch: Vec<Parameterization>,
) -> Result<SimulationJob<'m>, String> {
    SimulationJob::builder(model)
        .time_points(times.to_vec())
        .parameterizations(batch)
        .options(cli_options())
        .build()
        .map_err(|e| e.to_string())
}

pub fn trace(w: &mut Sweep, t: &mut Tracer) -> Result<(), String> {
    let ctx = w.ctx;
    let out = w.out_dir.clone();

    // The campaign on one thread in one process — plain, or durable for
    // `sweep_net` — is what the replay must add up to.
    let ck = w.ck_dir.to_string_lossy().into_owned();
    let shard_size = SHARD_SIZE.to_string();
    let baseline_1t = match w.mode {
        Mode::Plain => cli_run(w, &["--threads", "1"], &out)?,
        Mode::Networked => cli_run(
            w,
            &["--threads", "1", "--checkpoint-dir", &ck, "--shard-size", &shard_size],
            &out,
        )?,
    };
    let files = list_files(&out)?;
    t.set("cli.files_out", files.len() as f64);
    t.set("cli.bytes_out", files.iter().map(|(_, b)| *b as f64).sum());

    // --- Staged replay, threads = 1 -----------------------------------
    w.clear_outputs()?;
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let engine = FineCoarseEngine::new().with_threads(1);
    let replay_start = std::time::Instant::now();
    let inputs = t.span("cli.read_model", |_| -> Result<Inputs, String> {
        let model = biosimware::read_dir(&w.model_dir).map_err(|e| e.to_string())?;
        let times = biosimware::read_time_points(&w.model_dir).map_err(|e| e.to_string())?;
        let batch =
            biosimware::read_parameterizations(&model, &w.model_dir).map_err(|e| e.to_string())?;
        Ok(Inputs { model, times, batch })
    })?;
    let all: Vec<usize> = (0..inputs.batch.len()).collect();
    let job = t.span("core.job_build", |_| {
        build_job(&inputs.model, &inputs.times, inputs.batch.clone())
    })?;
    // Per member, in batch order: the trajectory and whether DOPRI5 handed
    // it over — gathered from one engine run (plain) or one per shard.
    let mut outcomes: Vec<Option<SimOutcome>> = (0..all.len()).map(|_| None).collect();
    let mut simulated_total_ns = 0.0;
    let mut health = (0usize, 0usize);
    let mut absorb = |result: BatchResult, members: &[usize]| {
        simulated_total_ns += result.timing.simulated_total_ns;
        health.0 += result.health.reroutes;
        health.1 += result.health.evicted_lanes;
        for (outcome, &i) in result.outcomes.into_iter().zip(members) {
            outcomes[i] = Some(outcome);
        }
    };
    match w.mode {
        Mode::Plain => {
            let result =
                t.span("core.engine_run", |_| engine.run(&job)).map_err(|e| e.to_string())?;
            absorb(result, &all);
        }
        Mode::Networked => {
            // The durable path: a shard plan, then per shard a job of its
            // own, an engine run, and a journal commit; artifacts only
            // once every shard is committed.
            let plan = t.span("analysis.plan", |_| {
                // The plan `--workers 2` pins, and the uniform one.
                std::hint::black_box(uniform_shards(all.len(), SHARD_SIZE));
                pack_shards(&job, (SHARD_SIZE / 4).max(1), SHARD_SIZE)
            });
            let manifest = CampaignManifest::new("e2e-replay", plan.len() as u64);
            let (mut journal, _) = t
                .span("journal.open", |_| Journal::open_or_create(&w.ck_dir, &manifest))
                .map_err(|e| e.to_string())?;
            for (shard, members) in plan.iter().enumerate() {
                let chunk: Vec<Parameterization> =
                    members.iter().map(|&i| inputs.batch[i].clone()).collect();
                let shard_job =
                    t.span("core.job_build", |_| build_job(&inputs.model, &inputs.times, chunk))?;
                let shard_result = t
                    .span("core.engine_run", |_| engine.run(&shard_job))
                    .map_err(|e| e.to_string())?;
                let payload: Vec<u8> = t.span("cli.encode_payload", |_| {
                    shard_result
                        .solutions()
                        .flat_map(|s| shard_job.serialize_dynamics(s).into_bytes())
                        .collect()
                });
                t.span("journal.commit", |_| journal.commit(shard as u64, &payload))
                    .map_err(|e| e.to_string())?;
                absorb(shard_result, members);
            }
            t.span("journal.commit", |_| journal.sync()).map_err(|e| e.to_string())?;
            // By the journal's contract `commit` flushes without fsync;
            // the manifest's atomic write and the completion sync are the
            // two the durable path issues.
            t.set("journal.fsyncs", 2.0);
        }
    }
    let outcomes: Vec<SimOutcome> =
        outcomes.into_iter().map(|o| o.expect("every member ran in some shard")).collect();
    t.span("cli.write_artifacts", |_| -> Result<(), String> {
        for (index, outcome) in outcomes.iter().enumerate() {
            if let Ok(solution) = &outcome.solution {
                std::fs::write(
                    out.join(format!("dynamics_{index:05}.tsv")),
                    job.serialize_dynamics(solution),
                )
                .map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    })?;
    let replay_wall = replay_start.elapsed().as_secs_f64();

    // --- Counts from the public result structs ------------------------
    t.set("vgpu.simulated_total_ns", simulated_total_ns);
    let width = auto_lane_width(job.odes());
    t.set("core.lane_width", width as f64);
    let classes = t.span("core.triage", |_| classify_batch(&job));
    t.set("core.stiff_members", classes.iter().filter(|c| c.stiff).count() as f64);
    t.set("core.reroutes", health.0 as f64);
    t.set("core.evicted_lanes", health.1 as f64);
    t.set("cli.read_model_s", t.span_s("cli.read_model"));
    t.set("cli.write_artifacts_s", t.span_s("cli.write_artifacts"));
    t.set("core.job_build_s", t.span_s("core.job_build"));
    t.set("core.triage_s", t.span_s("core.triage"));
    t.set("core.engine_run_s", t.span_s("core.engine_run"));
    t.set("analysis.plan_s", t.span_s("analysis.plan"));

    // --- The integrations alone, as the engine routes them ------------
    let stiff: Vec<bool> = classes.iter().map(|c| c.stiff).collect();
    let rerouted: Vec<bool> = outcomes.iter().map(|o| o.rerouted).collect();
    let direct =
        t.span("probe.direct_solve", |_| probes::direct_replay(&job, &stiff, &rerouted, width));
    probes::solver_counts(t, &direct.total_stats());
    let engine_run_s = t.get("core.engine_run_s");
    t.set("core.engine_overhead_frac", 1.0 - direct.seconds() / engine_run_s);

    // --- Kernel and fixed-cost probes ---------------------------------
    let samples = sample_states(&job, &outcomes);
    probes::compile_s(t, &inputs.model);
    probes::rbm_kernels(t, job.odes(), &samples, width, None);
    probes::linalg_kernels(t, job.odes(), &samples[samples.len() / 2]);
    probes::vgpu_cost_launch(t, job.batch_size());
    probes::exec_dispatch(t, THREADS, job.batch_size());
    cli_spawn_s(t, ctx.cli)?;
    direct.estimate_kernels(t);

    // --- Scalar against lanes, and one thread against two -------------
    // `sweep_net` runs the same members; both are measured on `sweep_cli`.
    if w.mode == Mode::Plain {
        probes::scalar_vs_lanes(t, &job, &direct.explicit_members, Family::Dopri5, width);
        if t.can_measure_scaling() {
            let two = FineCoarseEngine::new().with_threads(2);
            let wall_2t = t.span("probe.engine_2t", |_| two.run(&job).map(|r| r.timing.host_wall));
            let wall_2t = wall_2t.map_err(|e| e.to_string())?;
            t.set("exec.par_eff_2t", engine_run_s / (2.0 * wall_2t.as_secs_f64()));
        }
    }

    // --- Attribution --------------------------------------------------
    t.attribute_metric("cli.spawn_s", "measured");
    t.attribute_metric("cli.read_model_s", "measured");
    t.attribute("core.job_build_s (incl. rbm compile)", t.get("core.job_build_s"), "measured");
    t.attribute_metric("core.triage_s", "measured");
    t.attribute_metric("rbm.rhs_s_est", "computed");
    t.attribute_metric("rbm.jac_s_est", "computed");
    t.attribute_metric("linalg.lu_s_est", "computed");
    t.attribute_metric("solvers.self_s_est", "computed");
    t.attribute(
        "core engine remainder (vgpu accounting, exec, recovery)",
        engine_run_s - t.get("core.triage_s") - direct.seconds(),
        "measured",
    );
    if w.mode == Mode::Networked {
        t.attribute_metric("analysis.plan_s", "measured");
        t.attribute(
            "journal open + commits + sync",
            t.span_s("journal.open") + t.span_s("journal.commit") + t.span_s("cli.encode_payload"),
            "measured",
        );
    }
    t.attribute_metric("cli.write_artifacts_s", "measured");
    t.close_attribution(baseline_1t.wall_s, replay_wall);

    if w.mode == Mode::Networked {
        trace_distribution(w, t)?;
    }
    Ok(())
}

/// The same members at the same parallelism through each execution mode:
/// plain (2 threads) → durable in one process (2 threads) → 2 worker
/// processes over file leases → 2 worker processes over TCP. Each step's
/// extra wall, per shard, is that layer's tax.
fn trace_distribution(w: &Sweep, t: &mut Tracer) -> Result<(), String> {
    let out = w.out_dir.clone();
    let ck = w.ck_dir.to_string_lossy().into_owned();
    let shard = SHARD_SIZE.to_string();
    let workers = THREADS.to_string();
    let shards = w.shards() as f64;

    let durable_args = ["--threads", &workers, "--checkpoint-dir", &ck, "--shard-size", &shard];
    let leased_args =
        ["--threads", "1", "--checkpoint-dir", &ck, "--shard-size", &shard, "--workers", &workers];
    let mut listen_args = leased_args.to_vec();
    listen_args.extend(["--listen", "127.0.0.1:0"]);
    let modes: [&[&str]; 4] = [&["--threads", &workers], &durable_args, &leased_args, &listen_args];

    // Two rounds over the four modes, keeping each mode's faster run: the
    // taxes are differences of a tenth of a wall, and a single run wanders
    // by about as much.
    let mut fastest: [Option<ChildRun>; 4] = [None, None, None, None];
    let mut log_bytes = 0;
    for _round in 0..2 {
        for (slot, args) in fastest.iter_mut().zip(modes) {
            let run = cli_run(w, args, &out)?;
            if args.len() == durable_args.len() {
                log_bytes = std::fs::metadata(w.ck_dir.join(LOG_FILE)).map_or(0, |m| m.len());
            }
            if slot.as_ref().is_none_or(|best| run.wall_s < best.wall_s) {
                *slot = Some(run);
            }
        }
    }
    let [plain, durable, leased, networked] = fastest.map(|run| run.expect("two rounds ran"));
    t.set("journal.bytes_per_shard", (log_bytes as f64 / shards).round());

    let per_shard_ms =
        |slow: &ChildRun, fast: &ChildRun| (slow.wall_s - fast.wall_s) * 1e3 / shards;
    t.set("journal.durable_tax_ms_per_shard", per_shard_ms(&durable, &plain));
    t.set("analysis.dispatch_tax_ms_per_shard", per_shard_ms(&leased, &durable));
    t.set("transport.net_tax_ms_per_shard", per_shard_ms(&networked, &leased));
    t.set("transport.coordinator_cpu_s", networked.own_cpu_s);

    let (dispatched_shards, reassignments) =
        parse_dispatch_line(&networked.stdout).ok_or("no dispatch: line from the networked run")?;
    t.set("analysis.shards", dispatched_shards as f64);
    t.set("analysis.reassignments", reassignments as f64);
    // Every worker incarnation owns one segment; more segments than
    // workers means one was lost and replaced.
    let segments: usize = parse_after(&networked.stdout, "reassignments; ").unwrap_or(THREADS);
    t.set("transport.retries", segments.saturating_sub(THREADS) as f64);
    // Records the workers streamed beyond one per shard were duplicates
    // the merge had to discard.
    let mut records = 0usize;
    for (path, _) in list_files(&w.ck_dir.join("segments"))? {
        records += SegmentReader::new(path).poll().map_err(|e| e.to_string())?.len();
    }
    t.set("analysis.duplicate_records", records.saturating_sub(dispatched_shards) as f64);

    // Fixed costs of the two layers, at this campaign's payload size.
    let probe_dir = w.ctx.work.fresh("journal_probe").map_err(|e| e.to_string())?;
    probes::journal_costs(t, &probe_dir, w.shards(), (log_bytes as usize / w.shards()).max(1))?;
    let rtt_dir = w.ctx.work.fresh("rtt_probe").map_err(|e| e.to_string())?;
    probes::transport_rtt(t, &rtt_dir)?;

    t.note(format!(
        "walls at parallelism {THREADS}: plain {:.3} s, durable {:.3} s, file-lease {:.3} s, tcp {:.3} s; cpu {:.2} / {:.2} / {:.2} / {:.2} s",
        plain.wall_s, durable.wall_s, leased.wall_s, networked.wall_s,
        plain.cpu_s, durable.cpu_s, leased.cpu_s, networked.cpu_s
    ));
    Ok(())
}
