//! Traced run of `ensemble_tau`: read the model, run the replicate batch
//! through `StochasticBatch::run`, reduce, write one file per replicate —
//! the stages of the CLI's `ensemble`, at `threads = 1`. No ODE layer is
//! called anywhere, so every `rbm`, `linalg` and `solvers` row stays 0.

use super::probes::exec_dispatch;
use super::sweep::cli_spawn_s;
use super::Tracer;
use crate::sys::run_campaign;
use crate::workloads::ensemble::EnsembleTau;
use crate::workloads::{clear_dir, list_files, CAMPAIGN_DEADLINE, THREADS};
use paraspace_rbm::biosimware;
use paraspace_stochastic::{
    initial_counts, CounterRng, EnsembleStats, PropensityTable, StochasticBatch,
    StochasticSimulator, TauLeapBatch, TauLeaping,
};
use std::time::Instant;

/// Replicates the lane-speedup probe runs both ways.
const PROBE_REPLICATES: usize = 128;

pub fn trace(w: &mut EnsembleTau, t: &mut Tracer) -> Result<(), String> {
    let seed = w.ctx.seed;

    // The plain campaign on one thread: what the replay must add up to.
    clear_dir(&w.out_dir)?;
    let mut cmd = w.command(1);
    let plain_1t = run_campaign(&mut cmd, CAMPAIGN_DEADLINE).map_err(|e| e.to_string())?;
    if !plain_1t.success {
        return Err("traced single-thread ensemble failed".into());
    }
    let files = list_files(&w.out_dir)?;
    t.set("cli.files_out", files.len() as f64);
    t.set("cli.bytes_out", files.iter().map(|(_, b)| *b as f64).sum());
    clear_dir(&w.out_dir)?;
    std::fs::create_dir_all(&w.out_dir).map_err(|e| e.to_string())?;

    // --- Staged replay, threads = 1 -----------------------------------
    let replay_start = Instant::now();
    let (model, times) = t.span("cli.read_model", |_| -> Result<_, String> {
        let model = biosimware::read_dir(&w.model_dir).map_err(|e| e.to_string())?;
        let times = biosimware::read_time_points(&w.model_dir).map_err(|e| e.to_string())?;
        Ok((model, times))
    })?;
    let batch = |threads: usize| {
        StochasticBatch::new(TauLeaping::new()).with_seed(seed).with_threads(threads)
    };
    let result = t
        .span("stochastic.batch_run", |_| batch(1).run(&model, &times, w.replicates))
        .map_err(|e| e.to_string())?;
    t.span("cli.write_artifacts", |_| -> Result<(), String> {
        let header = "t\tmRNA\tprotein\n";
        for (i, outcome) in result.outcomes.iter().enumerate() {
            if let Ok(tr) = outcome {
                let mut body = String::from(header);
                for (time, state) in tr.times.iter().zip(&tr.states) {
                    body.push_str(&format!("{time:.6e}"));
                    for c in state {
                        body.push_str(&format!("\t{c}"));
                    }
                    body.push('\n');
                }
                std::fs::write(w.out_dir.join(format!("replicate_{i:05}.tsv")), body)
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    })?;
    let replay_wall = replay_start.elapsed().as_secs_f64();
    // The reduction is part of `StochasticBatch::run`; timed again on its
    // own so its share is known.
    t.span("analysis.reduce", |_| {
        std::hint::black_box(EnsembleStats::from_outcomes(
            &times,
            model.n_species(),
            &result.outcomes,
        ))
    });

    // --- Counts from the public result structs ------------------------
    let lanes = result.lanes.as_ref().ok_or("tau-leaping did not take the lane path")?;
    t.set("stochastic.lane_steps", lanes.lane_steps as f64);
    t.set("stochastic.lockstep_iters", (lanes.slot_steps / lanes.max_width.max(1) as u64) as f64);
    t.set("core.lane_width", result.lane_width as f64);
    t.set("vgpu.simulated_total_ns", result.simulated_ns);
    t.set("cli.read_model_s", t.span_s("cli.read_model"));
    t.set("cli.write_artifacts_s", t.span_s("cli.write_artifacts"));
    t.set("analysis.reduce_s", t.span_s("analysis.reduce"));
    let batch_run_s = t.span_s("stochastic.batch_run");

    // --- The lockstep kernel against the scalar simulator -------------
    let table = PropensityTable::new(&model);
    let x0 = initial_counts(&model);
    let streams: Vec<CounterRng> =
        (0..PROBE_REPLICATES as u64).map(|r| CounterRng::replicate_stream(seed, 0, r)).collect();
    let start = Instant::now();
    let (_, report) = TauLeapBatch::new().run(&table, &x0, &times, result.lane_width, &streams);
    let lane_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for stream in &streams {
        let mut rng = stream.clone();
        TauLeaping::new()
            .simulate_counts(&table, &x0, &times, &mut rng, &[])
            .map_err(|e| e.to_string())?;
    }
    let scalar_s = start.elapsed().as_secs_f64();
    let ns_per_lane_step = lane_s * 1e9 / report.lane_steps.max(1) as f64;
    t.set("stochastic.ns_per_lane_step", ns_per_lane_step);
    t.set("stochastic.lane_speedup", scalar_s / lane_s);

    cli_spawn_s(t, w.ctx.cli)?;
    // One executor task per lane group.
    exec_dispatch(t, THREADS, lanes.groups.max(1) as usize);

    // --- Scaling of the batch on the whole ensemble -------------------
    if t.can_measure_scaling() {
        let start = Instant::now();
        batch(2).run(&model, &times, w.replicates).map_err(|e| e.to_string())?;
        let wall_2t = start.elapsed().as_secs_f64();
        t.set("exec.par_eff_2t", batch_run_s / (2.0 * wall_2t));
    }

    // --- Attribution --------------------------------------------------
    let kernel_s = lanes.lane_steps as f64 * ns_per_lane_step * 1e-9;
    t.attribute_metric("cli.spawn_s", "measured");
    t.attribute_metric("cli.read_model_s", "measured");
    t.attribute("stochastic lane kernel (lane_steps × ns_per_lane_step)", kernel_s, "computed");
    t.attribute_metric("analysis.reduce_s", "measured");
    t.attribute(
        "stochastic batch remainder (grouping, vgpu accounting)",
        batch_run_s - kernel_s - t.get("analysis.reduce_s"),
        "measured",
    );
    t.attribute_metric("cli.write_artifacts_s", "measured");
    t.close_attribution(plain_1t.wall_s, replay_wall);
    Ok(())
}
