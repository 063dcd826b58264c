//! Traced run of `psa2d_autophagy`: `Psa2d::run` taken apart into the
//! stages it performs — parameterize every grid point, build the job,
//! triage, `Simulator::run`, reduce each trajectory to its amplitude — at
//! `threads = 1`.

use super::probes::{self, Family, KernelSample};
use super::Tracer;
use crate::workloads::psa2d::{parameterize, Psa2dAutophagy};
use crate::workloads::THREADS;
use paraspace_analysis::oscillation;
use paraspace_core::{auto_lane_width, classify_batch, SimulationJob, Simulator};
use paraspace_models::autophagy;
use paraspace_rbm::Parameterization;
use std::time::Instant;

pub fn trace(w: &mut Psa2dAutophagy, t: &mut Tracer) -> Result<(), String> {
    let readout =
        w.model.species_by_name(autophagy::AMBRA_SPECIES).map_err(|e| e.to_string())?.index();
    let engine = Psa2dAutophagy::engine(1);

    // The plain campaign on one thread: what the replay must add up to.
    let start = Instant::now();
    w.sweep
        .run(&w.model, parameterize, w.times.clone(), &engine, |sol| {
            oscillation::amplitude(&sol.component(readout))
        })
        .map_err(|e| e.to_string())?;
    let campaign_wall_1t = start.elapsed().as_secs_f64();

    // --- Staged replay, threads = 1 -----------------------------------
    let replay_start = Instant::now();
    let batch: Vec<Parameterization> = t.span("analysis.parameterize", |_| {
        w.points.iter().map(|&(a, p)| parameterize(a, p)).collect()
    });
    let job: SimulationJob = t
        .span("core.job_build", |_| {
            SimulationJob::builder(&w.model)
                .time_points(w.times.clone())
                .parameterizations(batch)
                .options(w.options.clone())
                .build()
        })
        .map_err(|e| e.to_string())?;
    let result = t.span("core.engine_run", |_| engine.run(&job)).map_err(|e| e.to_string())?;
    let amplitudes: Vec<f64> = t.span("analysis.reduce", |_| {
        result.solutions().map(|sol| oscillation::amplitude(&sol.component(readout))).collect()
    });
    let replay_wall = replay_start.elapsed().as_secs_f64();
    std::hint::black_box(amplitudes);

    // --- Counts from the public result structs ------------------------
    t.set("vgpu.simulated_total_ns", result.timing.simulated_total_ns);
    let width = auto_lane_width(job.odes());
    t.set("core.lane_width", width as f64);
    let classes = t.span("core.triage", |_| classify_batch(&job));
    t.set("core.stiff_members", classes.iter().filter(|c| c.stiff).count() as f64);
    t.set("core.reroutes", result.health.reroutes as f64);
    t.set("core.evicted_lanes", result.health.evicted_lanes as f64);
    t.set("core.job_build_s", t.span_s("core.job_build"));
    t.set("core.triage_s", t.span_s("core.triage"));
    t.set("core.engine_run_s", t.span_s("core.engine_run"));
    t.set("analysis.reduce_s", t.span_s("analysis.reduce"));

    // --- The integrations alone, as the engine routes them ------------
    let stiff: Vec<bool> = classes.iter().map(|c| c.stiff).collect();
    let rerouted: Vec<bool> = result.outcomes.iter().map(|o| o.rerouted).collect();
    let direct =
        t.span("probe.direct_solve", |_| probes::direct_replay(&job, &stiff, &rerouted, width));
    probes::solver_counts(t, &direct.total_stats());
    let engine_run_s = t.get("core.engine_run_s");
    t.set("core.engine_overhead_frac", 1.0 - direct.seconds() / engine_run_s);

    // --- Kernel and fixed-cost probes ---------------------------------
    let mut samples = Vec::new();
    for (i, outcome) in result.outcomes.iter().enumerate().step_by(5) {
        if let Ok(solution) = &outcome.solution {
            let k = job.member(i).1.to_vec();
            for state in solution.states.iter().step_by(25) {
                samples.push(KernelSample { x: state.clone(), k: k.clone() });
            }
        }
    }
    probes::compile_s(t, &w.model);
    probes::rbm_kernels(t, job.odes(), &samples, width, None);
    probes::linalg_kernels(t, job.odes(), &samples[samples.len() / 2]);
    probes::scalar_vs_lanes(t, &job, &direct.implicit_members, Family::Radau5, width);
    probes::vgpu_cost_launch(t, job.batch_size());
    probes::exec_dispatch(t, THREADS, job.batch_size());
    direct.estimate_kernels(t);

    // --- Scaling of the engine on the whole batch ---------------------
    if t.can_measure_scaling() {
        let two = Psa2dAutophagy::engine(2);
        let wall_2t = t.span("probe.engine_2t", |_| two.run(&job).map(|r| r.timing.host_wall));
        let wall_2t = wall_2t.map_err(|e| e.to_string())?;
        t.set("exec.par_eff_2t", engine_run_s / (2.0 * wall_2t.as_secs_f64()));
    }

    // --- Attribution --------------------------------------------------
    t.attribute(
        "analysis parameterize (scaled_model per member)",
        t.span_s("analysis.parameterize"),
        "measured",
    );
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
    t.attribute_metric("analysis.reduce_s", "measured");
    t.close_attribution(campaign_wall_1t, replay_wall);
    Ok(())
}
