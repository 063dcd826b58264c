//! E4–E7b, the parameter-space studies: the PSA-2D of the autophagy
//! analogue with its 24-hour throughput probe, the Sobol analysis of the
//! metabolic model with its batch-throughput probe, the FST-PSO
//! calibration priced on both engine classes, and the gradient-based
//! estimators against that swarm.

use crate::fmt_ns;
use paraspace_analysis::campaign::evaluate_points;
use paraspace_analysis::fitness::relative_distance;
use paraspace_analysis::gradient::GradientConfig;
use paraspace_analysis::oscillation;
use paraspace_analysis::pe::{estimate_with, EstimationProblem, EstimationResult, Optimizer};
use paraspace_analysis::psa::{Axis, Psa2d, Psa2dResult};
use paraspace_analysis::pso::PsoConfig;
use paraspace_analysis::sobol::{SaltelliPlan, SobolIndices};
use paraspace_analysis::throughput::{hours_ns, simulations_within_budget, ThroughputReport};
use paraspace_core::{
    CpuEngine, CpuSolverKind, Executor, FineCoarseEngine, SimulationJob, Simulator,
};
use paraspace_models::{autophagy, metabolic};
use paraspace_rbm::{Parameterization, ReactionBasedModel};
use paraspace_solvers::{Solution, SolverOptions};
use rand::{rngs::StdRng, SeedableRng};
use std::fmt;

/// The fine+coarse engine and LSODA over all cores: their outputs and
/// modelled clocks are the same at any worker count.
fn fine_coarse() -> FineCoarseEngine {
    FineCoarseEngine::new().with_threads(0)
}

fn lsoda() -> CpuEngine {
    CpuEngine::new(CpuSolverKind::Lsoda).with_threads(0)
}

/// The initial state and constants of `model` as one member.
fn member_of(model: &ReactionBasedModel) -> Parameterization {
    Parameterization::new()
        .with_initial_state(model.initial_state())
        .with_rate_constants(model.rate_constants())
}

/// E4 (Fig-5-class): oscillation amplitude of the AMBRA-like and the
/// EIF4EBP-like read-out over the (AMPK\*₀ rows, P9 columns) plane of the
/// autophagy/translation analogue, and the published 24-hour budget
/// throughput of fine-coarse, lsoda-cpu and vode-cpu.
#[derive(Debug, Clone)]
pub struct Psa {
    header: String,
    /// The AMBRA-like amplitude plane.
    pub ambra: Psa2dResult,
    eif: Psa2dResult,
    throughput: Vec<ThroughputReport>,
}

impl Psa {
    /// Cells where the AMBRA-like amplitude (> 10⁻²) agrees with the
    /// analytic Hopf boundary, and the cell count.
    pub fn hopf_agreement(&self) -> (usize, usize) {
        let (a, p) = (self.ambra.axis1.values(), self.ambra.axis2.values());
        let agree = (0..a.len())
            .flat_map(|i| (0..p.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| autophagy::oscillates(a[i], p[j]) == (self.ambra.value(i, j) > 1e-2))
            .count();
        (agree, a.len() * p.len())
    }

    /// Simulations engine `name` completes in the budget.
    pub fn in_budget(&self, name: &str) -> u64 {
        self.throughput.iter().find(|r| r.engine == name).expect("probed").simulations_in_budget
    }
}

/// E4 on an 8 × 8 grid over the analogue at scale 0.05 (16 × 16 over the
/// full 173 × 6581 network at full scale); the throughput probe always
/// uses the full network, the scale the published claim is about.
pub fn psa2d_autophagy(full: bool) -> Psa {
    let (grid_pts, scale) = if full { (16, 1.0) } else { (8, 0.05) };
    let model_at = |ampk0, p9| {
        if full {
            autophagy::model(ampk0, p9)
        } else {
            autophagy::scaled_model(ampk0, p9, scale)
        }
    };
    let model = model_at(1e3, 1e-7);
    let sweep = Psa2d::new(
        Axis::linear("AMPK*0", 0.0, autophagy::AMPK_RANGE.1, grid_pts),
        Axis::logarithmic("P9", autophagy::P9_RANGE.0, autophagy::P9_RANGE.1, grid_pts),
    )
    .options(SolverOptions { max_steps: 100_000, ..SolverOptions::default() })
    .batch_size(512);
    let times: Vec<f64> = (1..=150).map(|i| 20.0 + i as f64 * 0.4).collect();
    // One sweep for both read-outs: the metric returns the AMBRA-like
    // amplitude and records the EIF4EBP-like one, once per successful
    // member in member order.
    let readout = |species: &str| model.species_by_name(species).expect("read-out").index();
    let (ambra_at, eif_at) =
        (readout(autophagy::AMBRA_SPECIES), readout(autophagy::EIF4EBP_SPECIES));
    let mut eif_amplitudes = Vec::new();
    let metric = |sol: &Solution| {
        eif_amplitudes.push(oscillation::amplitude(&sol.component(eif_at)));
        oscillation::amplitude(&sol.component(ambra_at))
    };
    let member = |ampk0, p9| member_of(&model_at(ampk0, p9));
    let ambra = sweep.run(&model, member, times, &fine_coarse(), metric).expect("sweep");
    let (mut eif, mut eif_amplitudes) = (ambra.clone(), eif_amplitudes.into_iter());
    for value in eif.values.iter_mut().flatten().filter(|v| v.is_finite()) {
        *value = eif_amplitudes.next().expect("one read-out per successful member");
    }

    let full_model = autophagy::model(1e3, 1e-7);
    let probe_member = member_of(&autophagy::model(1e3, 3e-8));
    let probe_times: Vec<f64> = (1..=10).map(|i| 20.0 + i as f64 * 6.0).collect();
    let vode = CpuEngine::new(CpuSolverKind::Vode).with_threads(0);
    let engines: [&dyn Simulator; 3] = [&fine_coarse(), &lsoda(), &vode];
    let (batch, budget) = (if full { 512 } else { 64 }, hours_ns(24.0));
    let probe = |engine: &dyn Simulator| {
        let member = |_| probe_member.clone();
        simulations_within_budget(&full_model, member, probe_times.clone(), engine, batch, budget)
            .expect("throughput probe")
    };
    let throughput = engines.iter().map(|&e| probe(e)).collect();
    let (n, m) = (model.n_species(), model.n_reactions());
    Psa {
        header: format!("model: {n} species, {m} reactions (scale {scale})"),
        ambra,
        eif,
        throughput,
    }
}

fn heatmap(f: &mut fmt::Formatter<'_>, title: &str, result: &Psa2dResult) -> fmt::Result {
    writeln!(f, "-- {title} (rows: AMPK*0 ↓, cols: P9 →) --")?;
    let finite = result.values.iter().flatten().filter(|v| v.is_finite());
    let max = finite.fold(0.0f64, |m, &v| m.max(v)).max(1e-12);
    for row in &result.values {
        let level = |v: f64| match v {
            v if !v.is_finite() => '?',
            v if v <= 1e-3 => '.',
            v => b"123456789"[(v / max * 8.0).min(8.0) as usize] as char,
        };
        writeln!(f, "  {}", row.iter().map(|&v| level(v)).collect::<String>())?;
    }
    writeln!(f, "  max amplitude: {max:.3}")
}

impl fmt::Display for Psa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.header)?;
        heatmap(f, "AMBRA-like amplitude", &self.ambra)?;
        heatmap(f, "EIF4EBP-like amplitude", &self.eif)?;
        let (agree, total) = self.hopf_agreement();
        let pct = 100.0 * agree as f64 / total as f64;
        writeln!(f, "\nanalytic Hopf boundary agreement: {agree}/{total} cells ({pct:.0}%)")?;
        let (sims, ns) = (self.ambra.simulations, fmt_ns(self.ambra.simulated_ns));
        writeln!(f, "sweep: {sims} simulations, simulated engine time {ns}")?;
        writeln!(
            f,
            "\n-- 24-hour simulated-budget throughput (published: 36864 / 2090 / 1363) --"
        )?;
        for r in &self.throughput {
            let (e, n, b, t) =
                (r.engine, r.simulations_in_budget, r.batch_size, fmt_ns(r.batch_time_ns));
            writeln!(f, "  {e:12} {n:>12} simulations in 24 h (batch of {b} costs {t})")?;
        }
        let ratio = |cpu| self.in_budget("fine-coarse") as f64 / self.in_budget(cpu).max(1) as f64;
        let (l, v) = (ratio("lsoda-cpu"), ratio("vode-cpu"));
        writeln!(f, "  ratios vs lsoda/vode: {l:.1}x / {v:.1}x")
    }
}

/// E5 (Table-1-class) and E6: Sobol sensitivity of the metabolic model's
/// R5P output to the 11 HK-isoform initial concentrations, and one batch
/// priced on the fine+coarse engine against LSODA.
#[derive(Debug, Clone)]
pub struct Sobol {
    header: String,
    /// S1/ST with 95 % confidence intervals, in `metabolic::HK_SPECIES` order.
    pub indices: Vec<SobolIndices>,
    /// The probe batch's simulated total on fine-coarse and on lsoda-cpu, ns.
    pub probe_ns: (f64, f64),
    failures: usize,
    pairs: Vec<(usize, usize, f64)>,
    evaluated: (usize, f64),
}

impl Sobol {
    /// The four dead-end HK complexes.
    pub const DEAD_END: [usize; 4] = [7, 8, 9, 10];
    /// The seven catalytic-cycle species.
    pub const CYCLE: [usize; 7] = [0, 1, 2, 3, 4, 5, 6];

    fn mean_st(&self, species: &[usize]) -> f64 {
        species.iter().map(|&i| self.indices[i].st).sum::<f64>() / species.len() as f64
    }
}

/// E5/E6 with the Saltelli base N = 64 (1536 evaluations) and a 64-member
/// probe (N = 512 and 512 at full scale).
pub fn sa_metabolic(full: bool) -> Sobol {
    let n_base = if full { 512 } else { 64 };
    let model = metabolic::model();
    let plan = SaltelliPlan::new(metabolic::HK_SPECIES.len(), n_base);
    let points = plan.scaled(&[metabolic::HK_SAMPLING_RANGE; metabolic::HK_SPECIES.len()]);
    let r5p = model.species_by_name(metabolic::OUTPUT_SPECIES).expect("output").index();
    let opts = SolverOptions { max_steps: 200_000, ..SolverOptions::default() };
    let window = [metabolic::TIME_WINDOW_HOURS];
    let job = |members| {
        SimulationJob::builder(&model)
            .time_points(window.to_vec())
            .parameterizations(members)
            .options(opts.clone())
            .build()
            .expect("job")
    };
    let reference = fine_coarse().run(&job(vec![Parameterization::new()])).expect("reference");
    let reference = reference.outcomes[0].solution.as_ref().expect("reference integrates");
    let reference_r5p = reference.state_at(0)[r5p];
    let member = |hk: &[f64]| {
        Parameterization::new().with_initial_state(metabolic::initial_state_with_hk(&model, hk))
    };
    let metric = |sol: &Solution| sol.state_at(0)[r5p] - reference_r5p;
    let engine = fine_coarse();
    let eval = evaluate_points(&model, &points, member, &window, &opts, &engine, metric, 512, None)
        .expect("SA evaluation");
    let mut outputs = eval.outputs;
    // Rare failures are replaced by the mean so the estimator stays defined.
    let finite: Vec<f64> = outputs.iter().copied().filter(|v| v.is_finite()).collect();
    let finite_mean = finite.iter().sum::<f64>() / finite.len().max(1) as f64;
    outputs.iter_mut().filter(|v| !v.is_finite()).for_each(|v| *v = finite_mean);
    let indices = plan.analyze(&outputs, 200, 0.95, &mut StdRng::seed_from_u64(0x5A));

    let s2 = plan.analyze_second_order(&outputs);
    let mut pairs: Vec<(usize, usize, f64)> = (0..s2.len())
        .flat_map(|i| (i + 1..s2.len()).map(move |j| (i, j)))
        .map(|(i, j)| (i, j, s2[i][j]))
        .collect();
    pairs.sort_by(|a, b| b.2.abs().total_cmp(&a.2.abs()));
    pairs.truncate(5);

    let probe = job(points.iter().take(if full { 512 } else { 64 }).map(|p| member(p)).collect());
    let total_ns = |e: &dyn Simulator| e.run(&probe).expect("probe").timing.simulated_total_ns;
    let (n, m, evaluations) = (model.n_species(), model.n_reactions(), plan.len());
    Sobol {
        header: format!(
            "model: {n} species, {m} reactions; Saltelli design: {evaluations} evaluations \
             (N = {n_base}, d = 11)\nreference R5P(10 h) = {reference_r5p:.4e}"
        ),
        indices,
        probe_ns: (total_ns(&engine), total_ns(&lsoda())),
        failures: outputs.len() - finite.len(),
        pairs,
        evaluated: (outputs.len(), eval.simulated_ns),
    }
}

impl fmt::Display for Sobol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.header)?;
        writeln!(f, "\n-- Table 1: Sobol indices of the R5P output (95% CIs) --")?;
        writeln!(f, "{:16} {:>8} {:>8} {:>8} {:>8}", "Species", "S1", "S1_conf", "ST", "ST_conf")?;
        for (name, i) in metabolic::HK_SPECIES.iter().zip(&self.indices) {
            let (s1, s1c, st, stc) = (i.s1, i.s1_conf, i.st, i.st_conf);
            writeln!(f, "{name:16} {s1:>8.3} {s1c:>8.3} {st:>8.3} {stc:>8.3}")?;
        }
        let (dead_end, cycle) = (self.mean_st(&Self::DEAD_END), self.mean_st(&Self::CYCLE));
        writeln!(
            f,
            "\nmean ST: dead-end complexes {dead_end:.3} vs catalytic-cycle species {cycle:.3} \
             (published shape: dead-end ≫ cycle)"
        )?;
        if self.failures > 0 {
            writeln!(f, "note: {} simulations failed and were mean-imputed", self.failures)?;
        }
        writeln!(f, "\n-- strongest second-order interactions --")?;
        for &(i, j, v) in &self.pairs {
            let (a, b) = (metabolic::HK_SPECIES[i], metabolic::HK_SPECIES[j]);
            writeln!(f, "  S2({a}, {b}) = {v:+.3}")?;
        }
        let ((gpu, cpu), (n, ns)) = (self.probe_ns, self.evaluated);
        writeln!(f, "\n-- E6: SA batch throughput (published: ~119x vs LSODA) --")?;
        let (g, c, x) = (fmt_ns(gpu), fmt_ns(cpu), cpu / gpu);
        writeln!(f, "  fine-coarse: {g} | lsoda-cpu: {c} | speedup {x:.0}x (simulation time)")?;
        writeln!(f, "total: {n} evaluations, simulated engine time {}", fmt_ns(ns))
    }
}

/// E7: FST-PSO calibration of the metabolic model's unknown constants,
/// the same swarm run on the fine+coarse engine and on LSODA.
#[derive(Debug, Clone)]
pub struct Calibration {
    header: String,
    /// The calibration on the fine+coarse engine.
    pub gpu: EstimationResult,
    /// The same calibration on LSODA.
    pub cpu: EstimationResult,
    mean_log_err: f64,
}

/// The metabolic calibration of E7 and E7b: `n_unknown` constants spread
/// evenly over the network, each searched over three decades centred
/// `box_offset` log-units above its true value, against the fine+coarse
/// trajectory of R5P, G6P, PYR and MgATP at t = 2, 4, …, 10.
fn metabolic_calibration(
    model: &ReactionBasedModel,
    n_unknown: usize,
    box_offset: f64,
) -> EstimationProblem<'_> {
    let stride = model.n_reactions() / n_unknown;
    let unknown: Vec<usize> = (0..n_unknown).map(|i| i * stride).collect();
    let truth = model.rate_constants();
    let log_bounds = (unknown.iter().map(|&i| truth[i].max(1e-12).log10() + box_offset))
        .map(|center| (center - 1.5, center + 1.5))
        .collect();
    let time_points: Vec<f64> = (1..=5).map(|i| i as f64 * 2.0).collect();
    let options = SolverOptions { max_steps: 200_000, ..SolverOptions::default() };
    let target = SimulationJob::builder(model)
        .time_points(time_points.clone())
        .replicate(1)
        .options(options.clone())
        .build()
        .expect("target job");
    let mut target = fine_coarse().run(&target).expect("target run");
    let observed = (["R5P", "G6P", "PYR", "MgATP"].iter())
        .map(|n| model.species_by_name(n).expect("observed species").index())
        .collect();
    EstimationProblem {
        model,
        unknown,
        log_bounds,
        observed,
        target: target.outcomes.remove(0).solution.expect("target integrates"),
        time_points,
        options,
        failed_members: Default::default(),
    }
}

/// Mean |log₁₀ error| of `estimate`'s unknown constants against the truth.
fn mean_log_err(problem: &EstimationProblem<'_>, estimate: &[f64]) -> f64 {
    let (log10, truth) = (|k: f64| k.max(1e-300).log10(), problem.model.rate_constants());
    let log_err = |&i: &usize| (log10(estimate[i]) - log10(truth[i])).abs();
    problem.unknown.iter().map(log_err).sum::<f64>() / problem.unknown.len() as f64
}

/// E7 with 8 unknown constants and 10 generations (all 78 and 30 at full
/// scale).
pub fn pe_metabolic(full: bool) -> Calibration {
    let (n_unknown, iterations) = if full { (78, 30) } else { (8, 10) };
    let model = metabolic::model();
    let problem = metabolic_calibration(&model, n_unknown, 0.0);
    let cfg = Optimizer::Pso(PsoConfig { iterations, seed: 17, ..Default::default() });
    let gpu = estimate_with(&problem, &fine_coarse(), &cfg, None).expect("fine-coarse calibration");
    let cpu = estimate_with(&problem, &lsoda(), &cfg, None).expect("lsoda calibration");
    let mean_log_err = mean_log_err(&problem, &gpu.rate_constants);
    let (n, m) = (model.n_species(), model.n_reactions());
    Calibration {
        header: format!(
            "model: {n} species, {m} reactions; estimating {n_unknown} unknown constants, \
             {iterations} FST-PSO generations"
        ),
        gpu,
        cpu,
        mean_log_err,
    }
}

impl fmt::Display for Calibration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.header)?;
        writeln!(f, "\n-- E7: parameter-estimation cost (published: ~30x) --")?;
        for (name, r) in [("fine-coarse:", &self.gpu), ("lsoda-cpu:  ", &self.cpu)] {
            let (ns, sims, best) =
                (fmt_ns(r.simulated_ns), r.simulations, r.optimization.best_fitness);
            writeln!(f, "  {name} {ns} simulated for {sims} simulations, best fitness {best:.4e}")?;
        }
        writeln!(f, "  speedup: {:.0}x", self.cpu.simulated_ns / self.gpu.simulated_ns)?;
        let err = self.mean_log_err;
        writeln!(f, "  mean |log10 error| of recovered constants (gpu run): {err:.3}")
    }
}

/// One estimator of E7b.
#[derive(Debug, Clone)]
pub struct Estimator {
    method: &'static str,
    engine: &'static str,
    /// Full ODE or augmented sensitivity integrations.
    pub solves: usize,
    /// Modelled engine time of the swarm stages (0 for the host-side L-BFGS).
    simulated_ns: f64,
    /// The relative-L1 distance from the target of one scalar LSODA
    /// simulation of the estimate: the swarm's fitness, applied to every
    /// method, so the losses compare although the searches minimize
    /// different objectives (relative L1 for the swarm, relative SSQ for
    /// L-BFGS).
    pub common_l1: f64,
    mean_log_err: f64,
}

/// E7b: L-BFGS on exact forward sensitivities, and a one-generation swarm
/// polished by it, against the FST-PSO of E7 on both engine classes.
#[derive(Debug, Clone)]
pub struct GradientCalibration {
    header: String,
    /// `lbfgs-sensitivities`, `hybrid-pso-lbfgs`, then `fst-pso` on
    /// fine-coarse and on LSODA.
    pub rows: Vec<Estimator>,
}

/// E7b on 8 unknown constants whose box sits +0.5 log-units off the truth,
/// so the L-BFGS start (the box midpoint) is not the answer: at most 40
/// L-BFGS iterations against 10 swarm generations (50 at full scale).
pub fn pe_gradient(full: bool) -> GradientCalibration {
    let (n_unknown, offset, generations, iterations) = (8, 0.5, if full { 50 } else { 10 }, 40);
    let model = metabolic::model();
    let problem = metabolic_calibration(&model, n_unknown, offset);
    // The relative-SSQ misfit is ~1e-8 even far from the optimum, so the
    // default tolerance would stop at the start point.
    let gradient = GradientConfig { iterations, starts: 1, seed: 17, grad_tol: 1e-14 };
    let swarm = PsoConfig { iterations: generations, seed: 17, ..Default::default() };
    // The hybrid's swarm only has to land the polish in the right basin.
    let basin = PsoConfig { swarm_size: Some(8), iterations: 1, seed: 17 };
    let (gpu, cpu) = (fine_coarse(), lsoda());
    let methods: [(_, _, &(dyn Simulator + Sync), _); 4] = [
        ("lbfgs-sensitivities", "host-sens", &gpu, Optimizer::Lbfgs(gradient.clone())),
        ("hybrid-pso-lbfgs", "fine-coarse", &gpu, Optimizer::Hybrid { pso: basin, gradient }),
        ("fst-pso", "fine-coarse", &gpu, Optimizer::Pso(swarm.clone())),
        ("fst-pso", "lsoda-cpu", &cpu, Optimizer::Pso(swarm)),
    ];
    let rows = Executor::default().map(methods.len(), |i| {
        let (method, engine, simulator, optimizer) = &methods[i];
        let r = estimate_with(&problem, *simulator, optimizer, None).expect(method);
        let k = Parameterization::new().with_rate_constants(r.rate_constants.clone());
        let job = SimulationJob::builder(&model)
            .time_points(problem.time_points.clone())
            .parameterizations(vec![k])
            .options(problem.options.clone())
            .build()
            .expect("scoring job");
        let mut scored = cpu.run(&job).expect("scoring run");
        let sol = scored.outcomes.remove(0).solution.expect("estimate integrates");
        Estimator {
            method,
            engine,
            solves: r.simulations,
            simulated_ns: r.simulated_ns,
            common_l1: relative_distance(&sol, &problem.target, &problem.observed),
            mean_log_err: mean_log_err(&problem, &r.rate_constants),
        }
    });
    let (n, m) = (model.n_species(), model.n_reactions());
    GradientCalibration {
        header: format!(
            "model: {n} species, {m} reactions; estimating {n_unknown} unknown constants in a \
             box\n{offset:+} log10 off the truth; {generations} FST-PSO generations vs at most \
             {iterations} L-BFGS iterations"
        ),
        rows,
    }
}

impl fmt::Display for GradientCalibration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.header)?;
        writeln!(f, "\n-- E7b: gradient-based estimation vs the swarm (common L1: LSODA) --")?;
        let [m, e, s, t, l, g] =
            ["method", "engine", "solves", "simulated", "common L1", "mean |log10 err|"];
        writeln!(f, "{m:20} {e:12} {s:>7} {t:>12} {l:>11} {g:>17}")?;
        for r in &self.rows {
            let (m, e, s, t, l, g) =
                (r.method, r.engine, r.solves, fmt_ns(r.simulated_ns), r.common_l1, r.mean_log_err);
            writeln!(f, "{m:20} {e:12} {s:>7} {t:>12} {l:>11.4e} {g:>17.3}")?;
        }
        // The headline: the cheapest gradient-family run that reaches the
        // fine-coarse swarm's loss (else the hybrid), against that swarm.
        let swarm = &self.rows[2];
        let gradient = (self.rows[..2].iter().filter(|r| r.common_l1 <= swarm.common_l1))
            .min_by_key(|r| r.solves)
            .unwrap_or(&self.rows[1]);
        let matched =
            if gradient.common_l1 <= swarm.common_l1 { "matched or better" } else { "NOT matched" };
        let ratio = swarm.solves as f64 / gradient.solves.max(1) as f64;
        writeln!(
            f,
            "\n{} vs fst-pso on fine-coarse: {ratio:.1}x fewer solves, common L1 {:.4e} vs \
             {:.4e}: {matched}",
            gradient.method, gradient.common_l1, swarm.common_l1
        )
    }
}
