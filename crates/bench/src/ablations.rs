//! A1–A4, the ablations: batch size against the dynamic-parallelism
//! launch queue, fine-grained parallelism on and off, the P2 stiffness
//! threshold, and the coarse engine's memory hierarchy.

use crate::fmt_ns;
use paraspace_core::{CoarseEngine, Executor, FineCoarseEngine, SimulationJob, Simulator};
use paraspace_rbm::{
    perturbed_batch, sbgen::SbGen, Parameterization, Reaction, ReactionBasedModel,
};
use paraspace_solvers::SolverOptions;
use paraspace_vgpu::DpModel;
use rand::{rngs::StdRng, SeedableRng};
use std::fmt;

fn job(
    model: &ReactionBasedModel,
    batch: Vec<Parameterization>,
    max_steps: usize,
    times: Vec<f64>,
) -> SimulationJob<'_> {
    SimulationJob::builder(model)
        .time_points(times)
        .parameterizations(batch)
        .options(SolverOptions { max_steps, ..SolverOptions::default() })
        .build()
        .expect("ablation job")
}

/// A synthetic `n × m` model seeded by `seed`, and `sims` perturbed
/// members of it.
fn synthetic(
    n: usize,
    m: usize,
    sims: usize,
    seed: u64,
) -> (ReactionBasedModel, Vec<Parameterization>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = SbGen::new(n, m).generate(&mut rng);
    let batch = perturbed_batch(&model, sims, &mut rng);
    (model, batch)
}

/// A1: the fine+coarse engine's simulated total per batch size on a
/// `size × size` model, with and without the dynamic-parallelism
/// launch-queue model.
#[derive(Debug, Clone)]
pub struct BatchAblation {
    size: usize,
    /// `(batch, total with DP, total without DP)`, ns.
    pub rows: Vec<(usize, f64, f64)>,
}

/// A1 on a 24 × 24 model (64 × 64 and more batch sizes at full scale).
pub fn batch(full: bool) -> BatchAblation {
    let size = if full { 64 } else { 24 };
    let batches: &[usize] = if full {
        &[64, 128, 256, 512, 1024, 2048, 4096, 8192]
    } else {
        &[64, 256, 512, 2048, 4096]
    };
    let mut rng = StdRng::seed_from_u64(0xA1);
    let model = SbGen::new(size, size).generate(&mut rng);
    let jobs: Vec<SimulationJob> = (batches.iter())
        .map(|&b| job(&model, perturbed_batch(&model, b, &mut rng), 100_000, vec![1.0, 2.0]))
        .collect();
    let no_dp = DpModel {
        flat_until: usize::MAX,
        severe_at: usize::MAX,
        knee_factor: 1.0,
        severe_exponent: 0.0,
        dispatch_ns: 0.0,
    };
    let rows = Executor::default().map(jobs.len(), |i| {
        let total = |e: FineCoarseEngine| e.run(&jobs[i]).expect("run").timing.simulated_total_ns;
        let without = FineCoarseEngine::new().with_dp_model(no_dp.clone());
        (batches[i], total(FineCoarseEngine::new()), total(without))
    });
    BatchAblation { size, rows }
}

impl fmt::Display for BatchAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "A1: batch-size ablation on a {0}x{0} model\n", self.size)?;
        let [b, dp, no, t] = ["batch", "per-sim (DP)", "per-sim (no DP)", "total (DP)"];
        writeln!(f, "{b:>8} {dp:>16} {no:>16} {t:>16}")?;
        for &(b, dp, no_dp) in &self.rows {
            let (dp_per_sim, no_dp, dp) =
                (fmt_ns(dp / b as f64), fmt_ns(no_dp / b as f64), fmt_ns(dp));
            writeln!(f, "{b:>8} {dp_per_sim:>16} {no_dp:>16} {dp:>16}")?;
        }
        writeln!(
            f,
            "\n(the DP column should stop improving past ~2048; the no-DP column keeps scaling)"
        )
    }
}

/// A2: simulated integration time of fine+coarse against coarse-only as
/// the model grows, at a fixed batch size.
#[derive(Debug, Clone)]
pub struct Granularity {
    sims: usize,
    /// `(size, fine+coarse, coarse-only)` for a `size × size` model, ns.
    pub rows: Vec<(usize, f64, f64)>,
}

/// A2 at 128 members (512 and models to 256 × 256 at full scale).
pub fn granularity(full: bool) -> Granularity {
    let sizes: &[usize] = if full { &[8, 16, 32, 64, 128, 256] } else { &[8, 16, 32, 64] };
    let sims = if full { 512 } else { 128 };
    let rows = Executor::default().map(sizes.len(), |i| {
        let s = sizes[i];
        let (model, batch) = synthetic(s, s, sims, 0xA2 + s as u64);
        let job = job(&model, batch, 100_000, vec![1.0, 2.0]);
        let time = |e: &dyn Simulator| e.run(&job).expect("run").timing.simulated_integration_ns;
        (s, time(&FineCoarseEngine::new()), time(&CoarseEngine::new()))
    });
    Granularity { sims, rows }
}

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "A2: granularity ablation, {} simulations per cell\n", self.sims)?;
        writeln!(f, "{:>10} {:>16} {:>16} {:>10}", "model", "fine+coarse", "coarse-only", "ratio")?;
        for &(s, fc, co) in &self.rows {
            let (ratio, fc, co) = (co / fc, fmt_ns(fc), fmt_ns(co));
            writeln!(f, "{s:>7}x{s:<3} {fc:>16} {co:>16} {ratio:>9.2}x")?;
        }
        writeln!(f, "\n(ratio > 1: fine-grained wins; expected to grow with model size)")
    }
}

/// One threshold of the A3 sweep.
#[derive(Debug, Clone)]
pub struct ThresholdRow {
    /// The P2 dominant-eigenvalue threshold.
    pub threshold: f64,
    /// Members P2 triaged stiff; the rest start on DOPRI5.
    pub stiff: usize,
    /// Members whose DOPRI5 attempt failed and re-ran on RADAU5.
    pub rerouted: usize,
    /// Members that integrated.
    pub successes: usize,
    total_ns: f64,
}

/// A3: the P2 stiffness threshold swept over a batch of `members` whose
/// stiffness spans six decades.
#[derive(Debug, Clone)]
pub struct Stiffness {
    /// Batch size.
    pub members: usize,
    /// One row per threshold, ascending (`∞` last).
    pub rows: Vec<ThresholdRow>,
}

/// A3 over 64 members with k₁ log-spaced over [1, 10⁶] (256 at full scale).
pub fn stiffness(full: bool) -> Stiffness {
    // A two-species relaxation whose stiffness is set per member by k₁.
    let mut model = ReactionBasedModel::new();
    let a = model.add_species("A", 1.0);
    let b = model.add_species("B", 0.0);
    model.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1.0)).expect("valid");
    model.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 0.5)).expect("valid");
    let members = if full { 256 } else { 64 };
    let batch: Vec<Parameterization> = (0..members)
        .map(|i| 10f64.powf(6.0 * i as f64 / (members - 1) as f64))
        .map(|k1| Parameterization::new().with_rate_constants(vec![k1, 0.5]))
        .collect();
    let job = job(&model, batch, 10_000, vec![1.0, 5.0]);
    let thresholds = [10.0, 100.0, 500.0, 5_000.0, 50_000.0, f64::INFINITY];
    let rows = Executor::default().map(thresholds.len(), |i| {
        let engine = FineCoarseEngine::new().with_stiffness_threshold(thresholds[i]);
        let r = engine.run(&job).expect("run");
        ThresholdRow {
            threshold: thresholds[i],
            stiff: r.outcomes.iter().filter(|o| o.stiff).count(),
            rerouted: r.outcomes.iter().filter(|o| o.rerouted).count(),
            successes: r.success_count(),
            total_ns: r.timing.simulated_total_ns,
        }
    });
    Stiffness { members, rows }
}

impl fmt::Display for Stiffness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.members;
        writeln!(f, "A3: stiffness-threshold ablation over {n} members (k1 ∈ [1, 1e6])\n")?;
        let [t, d, r, re, tt] = ["threshold", "dopri5", "radau5", "rerouted", "total time"];
        writeln!(f, "{t:>10} {d:>8} {r:>8} {re:>10} {tt:>14}")?;
        for r in &self.rows {
            let t = if r.threshold.is_finite() {
                r.threshold.to_string()
            } else {
                "∞ (never)".into()
            };
            let (dopri5, total) = (n - r.stiff, fmt_ns(r.total_ns));
            writeln!(f, "{t:>10} {dopri5:>8} {:>8} {:>10} {total:>14}", r.stiff, r.rerouted)?;
        }
        writeln!(
            f,
            "\n(∞ routes everything to DOPRI5 first: stiff members fail and re-run on RADAU5)"
        )
    }
}

/// One model of the A4 sweep.
#[derive(Debug, Clone)]
pub struct MemoryRow {
    size: (usize, usize),
    /// Whether the encoding fits constant memory, and the state shared memory.
    pub fits: (bool, bool),
    /// Simulated integration time with constant/shared placement, ns.
    pub hierarchy_ns: f64,
    /// Simulated integration time with every access to global memory, ns.
    pub global_ns: f64,
}

/// A4: the coarse engine with and without constant/shared-memory
/// placement across model sizes.
#[derive(Debug, Clone)]
pub struct Memory {
    sims: usize,
    /// One row per model.
    pub rows: Vec<MemoryRow>,
}

/// A4 at 64 members (256 and larger models at full scale). The square
/// sizes probe the shared-memory budget; the reaction-heavy tail overflows
/// the 64 KiB constant budget.
pub fn memory(full: bool) -> Memory {
    let sizes: &[(usize, usize)] = if full {
        &[(8, 8), (16, 16), (32, 32), (64, 64), (128, 128), (64, 3000), (128, 6000)]
    } else {
        &[(8, 8), (16, 16), (48, 48), (64, 2500)]
    };
    let sims = if full { 256 } else { 64 };
    let rows = Executor::default().map(sizes.len(), |i| {
        let (n, m) = sizes[i];
        let (model, batch) = synthetic(n, m, sims, 0xA4 + n as u64 + m as u64);
        let job = job(&model, batch, 100_000, vec![1.0, 2.0]);
        let time = |e: CoarseEngine| e.run(&job).expect("run").timing.simulated_integration_ns;
        let engine = CoarseEngine::new();
        MemoryRow {
            size: (n, m),
            fits: (engine.constants_fit(&job), engine.shared_fits(&job)),
            hierarchy_ns: time(engine),
            global_ns: time(CoarseEngine::new().without_memory_hierarchy()),
        }
    });
    Memory { sims, rows }
}

impl fmt::Display for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "A4: memory-hierarchy ablation (coarse engine), {} simulations\n", self.sims)?;
        let [m, c, s, h, g, x] = ["model", "const?", "shared?", "hierarchy", "global-only", "gain"];
        writeln!(f, "{m:>10} {c:>8} {s:>8} {h:>16} {g:>16} {x:>8}")?;
        for r in &self.rows {
            let ((n, m), (c, s), gain) = (r.size, r.fits, r.global_ns / r.hierarchy_ns);
            let (hier, global) = (fmt_ns(r.hierarchy_ns), fmt_ns(r.global_ns));
            writeln!(f, "{n:>6}x{m:<4} {c:>8} {s:>8} {hier:>16} {global:>16} {gain:>7.2}x")?;
        }
        writeln!(
            f,
            "\n(gain > 1 while the model fits on-chip; → 1 once placement falls back to global)"
        )
    }
}
