//! `psa2d_autophagy`: the paper's PSA-2D, in process. A stiff, wide batch
//! through `Psa2d::run` on the fine+coarse engine — Radau5 lanes, Jacobian
//! and LU do most of the work; no file I/O, no journal, no process spawn.

use super::{
    choose_members, max_rel_deviation, radau_reference, Check, Ctx, Rep, Workload, THREADS,
};
use crate::sys::{self_cpu_s, self_peak_rss_mb};
use crate::trace::Tracer;
use paraspace_analysis::oscillation;
use paraspace_analysis::psa::{Axis, Psa2d};
use paraspace_core::{FineCoarseEngine, SimulationJob};
use paraspace_models::autophagy;
use paraspace_rbm::{Parameterization, ReactionBasedModel};
use paraspace_solvers::SolverOptions;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Satellite padding of the autophagy analogue: 46 species × 1649
/// reactions.
pub const MODEL_SCALE: f64 = 0.25;
const GRID: usize = 8;
const SAMPLE_TIMES: usize = 100;
/// Sampling starts once the transient has died out.
const SAMPLE_START: f64 = 20.0;
const SAMPLE_STEP: f64 = 0.3;
const REF_MEMBERS: usize = 8;
const REF_LIMIT: f64 = 1e-3;
/// A member counts as oscillating above this read-out amplitude.
const OSCILLATION_AMPLITUDE: f64 = 1e-2;
const HOPF_AGREEMENT: f64 = 0.9;

pub struct Psa2dAutophagy<'a> {
    pub ctx: &'a Ctx<'a>,
    pub rows: usize,
    pub cols: usize,
    pub model: ReactionBasedModel,
    pub sweep: Psa2d,
    /// The grid points in the sweep's member order (row-major).
    pub points: Vec<(f64, f64)>,
    pub times: Vec<f64>,
    pub options: SolverOptions,
    readout: usize,
    last: Option<LastRepetition>,
}

/// What the check reads of the last repetition.
struct LastRepetition {
    /// The amplitude map, `[row][col]`.
    amplitudes: Vec<Vec<f64>>,
    /// Per member, in member order: its final state, `None` if it failed.
    finals: Vec<Option<Vec<f64>>>,
}

/// One grid point as a parameterization of the fixed network — what the
/// sweep's `parameterize` callback does for every member.
pub fn parameterize(ampk0: f64, p9: f64) -> Parameterization {
    let m = autophagy::scaled_model(ampk0, p9, MODEL_SCALE);
    Parameterization::new()
        .with_initial_state(m.initial_state())
        .with_rate_constants(m.rate_constants())
}

impl<'a> Psa2dAutophagy<'a> {
    pub fn new(ctx: &'a Ctx<'a>) -> Result<Self, String> {
        let (rows, cols) = if ctx.smoke { (2, 4) } else { (GRID, GRID) };
        // The seed moves the upper ends of both axes by at most 2 %: other
        // grid points, the same share of oscillating members.
        let mut rng = StdRng::seed_from_u64(ctx.seed);
        let ampk_hi = autophagy::AMPK_RANGE.1 * (1.0 - 0.02 * rng.gen::<f64>());
        let p9_hi = autophagy::P9_RANGE.1 * (1.0 - 0.02 * rng.gen::<f64>());
        let options = SolverOptions { max_steps: 100_000, ..SolverOptions::default() };
        let ampk = Axis::linear("AMPK*0", 0.0, ampk_hi, rows);
        let p9 = Axis::logarithmic("P9", autophagy::P9_RANGE.0, p9_hi, cols);
        let points =
            ampk.values().iter().flat_map(|&a| p9.values().iter().map(move |&p| (a, p))).collect();
        let sweep = Psa2d::new(ampk, p9).options(options.clone()).batch_size(rows * cols);
        let model = autophagy::scaled_model(1e3, 1e-7, MODEL_SCALE);
        let readout =
            model.species_by_name(autophagy::AMBRA_SPECIES).map_err(|e| e.to_string())?.index();
        Ok(Psa2dAutophagy {
            ctx,
            rows,
            cols,
            model,
            sweep,
            points,
            times: (1..=SAMPLE_TIMES).map(|i| SAMPLE_START + i as f64 * SAMPLE_STEP).collect(),
            options,
            readout,
            last: None,
        })
    }

    /// The whole batch as one job — the preparation `Psa2d::run` performs
    /// before its first integration step.
    pub fn build_job(&self) -> Result<SimulationJob<'_>, String> {
        let batch: Vec<Parameterization> =
            self.points.iter().map(|&(a, p)| parameterize(a, p)).collect();
        SimulationJob::builder(&self.model)
            .time_points(self.times.clone())
            .parameterizations(batch)
            .options(self.options.clone())
            .build()
            .map_err(|e| e.to_string())
    }

    pub fn engine(threads: usize) -> FineCoarseEngine {
        FineCoarseEngine::new().with_threads(threads)
    }
}

impl Workload for Psa2dAutophagy<'_> {
    fn members(&self) -> usize {
        self.rows * self.cols
    }

    fn describe(&self) -> String {
        format!(
            "in-process Psa2d::run, autophagy scaled_model({MODEL_SCALE}) {}x{}, {}x{} grid = {} members in one batch, {SAMPLE_TIMES} sample times, FineCoarseEngine threads {THREADS}",
            self.model.n_species(),
            self.model.n_reactions(),
            self.rows,
            self.cols,
            self.members()
        )
    }

    fn setup_batch(&self) -> usize {
        if self.ctx.smoke {
            128
        } else {
            24
        }
    }

    fn prepare_once(&self) -> Result<(), String> {
        std::hint::black_box(self.build_job()?.batch_size());
        Ok(())
    }

    fn repetition(&mut self) -> Result<Rep, String> {
        let engine = Self::engine(THREADS);
        let readout = self.readout;
        let mut finals: Vec<Vec<f64>> = Vec::with_capacity(self.members());
        let cpu0 = self_cpu_s();
        let start = Instant::now();
        let result = self
            .sweep
            .run(&self.model, parameterize, self.times.clone(), &engine, |sol| {
                finals.push(sol.last_state().map(<[f64]>::to_vec).unwrap_or_default());
                oscillation::amplitude(&sol.component(readout))
            })
            .map_err(|e| e.to_string())?;
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = self_cpu_s() - cpu0;

        // The metric runs once per successful member, in member order.
        let mut finals = finals.into_iter();
        let per_member: Vec<Option<Vec<f64>>> = result
            .values
            .iter()
            .flatten()
            .map(|v| if v.is_finite() { finals.next() } else { None })
            .collect();
        let succeeded = per_member.iter().filter(|f| f.is_some()).count();
        self.last = Some(LastRepetition { amplitudes: result.values, finals: per_member });
        Ok(Rep {
            wall_s,
            cpu_s,
            peak_rss_mb: self_peak_rss_mb(),
            succeeded,
            failed: self.members() - succeeded,
            stdout: String::new(),
        })
    }

    fn check(&mut self) -> Result<Check, String> {
        let LastRepetition { amplitudes: values, finals } =
            self.last.as_ref().ok_or("no repetition to check")?;
        let points = &self.points;

        // The measured map against the analytic Hopf boundary.
        let agree = points
            .iter()
            .zip(values.iter().flatten())
            .filter(|(&(a, p), &amp)| autophagy::oscillates(a, p) == (amp > OSCILLATION_AMPLITUDE))
            .count();
        let agreement = agree as f64 / points.len() as f64;

        let odes = self.model.compile().map_err(|e| e.to_string())?;
        let mut ref_err = 0.0f64;
        for i in choose_members(points.len(), REF_MEMBERS, self.ctx.seed) {
            let (x0, k) = parameterize(points[i].0, points[i].1)
                .resolve(&self.model)
                .map_err(|e| e.to_string())?;
            let want = radau_reference(&odes, &x0, &k, &self.times)?;
            let err = finals[i].as_ref().map_or(f64::INFINITY, |got| max_rel_deviation(got, &want));
            ref_err = ref_err.max(err);
        }
        Ok(Check {
            ref_err,
            ref_limit: REF_LIMIT,
            conditions: vec![(
                format!(
                    "{agree}/{} members agree with autophagy::oscillates (need {:.0} %)",
                    points.len(),
                    HOPF_AGREEMENT * 100.0
                ),
                agreement >= HOPF_AGREEMENT,
            )],
        })
    }

    fn trace(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        crate::trace::psa2d::trace(self, tracer)
    }
}
