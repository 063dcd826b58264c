//! V1, solver accuracy against exact solutions, and S1, the stochastic
//! ensembles' scaling: the tables that validate the numerics rather than
//! compare engines.

use crate::fmt_ns;
use paraspace_core::Executor;
use paraspace_rbm::{Reaction, ReactionBasedModel};
use paraspace_solvers::{
    AdamsMoulton, Bdf, Dopri5, FnSystem, Lsoda, OdeSolver, OdeSystem, Radau5, Rkf45, SolverOptions,
    StepStats, Vode,
};
use paraspace_stochastic::{DirectMethod, StochasticBatch, StochasticTrajectory, TauLeaping};
use std::fmt;

/// One solver at one tolerance: the end-point error `|y(t_end) − exact|`
/// and the step statistics, or the solver's error message.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Solver name.
    pub solver: &'static str,
    /// Relative tolerance (absolute is `rtol · 10⁻⁶`).
    pub rtol: f64,
    outcome: Result<(f64, StepStats), String>,
}

/// V1: every solver against one reference problem with an exact solution.
#[derive(Debug, Clone)]
pub struct AccuracyTable {
    title: &'static str,
    /// Solvers in presentation order, each at rtol 10⁻⁴, 10⁻⁶, 10⁻⁸.
    pub rows: Vec<AccuracyRow>,
}

impl AccuracyTable {
    fn run(
        title: &'static str,
        sys: &dyn OdeSystem,
        (y0, t_end, exact): (&[f64], f64, f64),
        solvers: &[Box<dyn OdeSolver>],
    ) -> AccuracyTable {
        let rows = (solvers.iter())
            .flat_map(|s| [1e-4, 1e-6, 1e-8].map(|rtol| (s, rtol)))
            .map(|(s, rtol)| {
                let opts = SolverOptions {
                    max_steps: 2_000_000,
                    ..SolverOptions::with_tolerances(rtol, rtol * 1e-6)
                };
                let outcome = (s.solve(sys, 0.0, y0, &[t_end], &opts))
                    .map(|sol| ((sol.state_at(0)[0] - exact).abs(), sol.stats))
                    .map_err(|e| e.to_string());
                AccuracyRow { solver: s.name(), rtol, outcome }
            })
            .collect();
        AccuracyTable { title, rows }
    }

    /// The error of `solver` at `rtol`.
    pub fn error(&self, solver: &str, rtol: f64) -> f64 {
        let row = self.rows.iter().find(|r| r.solver == solver && r.rtol == rtol).expect("row");
        row.outcome.as_ref().map_or(f64::NAN, |o| o.0)
    }
}

/// V1a (non-stiff oscillator) and V1b (stiff relaxation).
#[derive(Debug, Clone)]
pub struct Accuracy {
    /// The non-stiff oscillator `y'' = −y`, y(10) = cos 10, every solver.
    pub nonstiff: AccuracyTable,
    /// `y' = −10⁵ (y − sin t) + cos t`, y(2) = sin 2, the implicit solvers.
    pub stiff: AccuracyTable,
}

/// V1: the end-point error of every solver at three tolerances.
pub fn accuracy_table() -> Accuracy {
    let oscillator = FnSystem::new(2, |_t, y: &[f64], d: &mut [f64]| {
        d[0] = y[1];
        d[1] = -y[0];
    });
    let relaxation = FnSystem::new(1, |t: f64, y: &[f64], d: &mut [f64]| {
        d[0] = -1e5 * (y[0] - t.sin()) + t.cos();
    });
    let implicit = || -> [Box<dyn OdeSolver>; 4] {
        [
            Box::new(Radau5::new()),
            Box::new(Bdf::new()),
            Box::new(Lsoda::new()),
            Box::new(Vode::new()),
        ]
    };
    let explicit: [Box<dyn OdeSolver>; 3] =
        [Box::new(Dopri5::new()), Box::new(Rkf45::new()), Box::new(AdamsMoulton::new())];
    let all: Vec<Box<dyn OdeSolver>> = explicit.into_iter().chain(implicit()).collect();
    Accuracy {
        nonstiff: AccuracyTable::run(
            "V1a: non-stiff oscillator, y(10) = cos(10)",
            &oscillator,
            (&[1.0, 0.0], 10.0, 10.0f64.cos()),
            &all,
        ),
        stiff: AccuracyTable::run(
            "V1b: stiff relaxation (λ = 1e5), y(2) = sin(2)",
            &relaxation,
            (&[0.5], 2.0, 2.0f64.sin()),
            &implicit(),
        ),
    }
}

impl fmt::Display for AccuracyTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        let [s, r, e, st, rhs, j] = ["solver", "rtol", "error", "steps", "rhs", "jac"];
        writeln!(f, "{s:10} {r:>10} {e:>14} {st:>10} {rhs:>10} {j:>8}")?;
        for AccuracyRow { solver, rtol, outcome } in &self.rows {
            write!(f, "{solver:10} {rtol:>10.0e} ")?;
            match outcome {
                Ok((err, s)) => {
                    let (steps, rhs, jac) = (s.steps, s.rhs_evals, s.jacobian_evals);
                    writeln!(f, "{err:>14.3e} {steps:>10} {rhs:>10} {jac:>8}")?
                }
                Err(e) => writeln!(f, "{:>14}", format!("({e})"))?,
            }
        }
        writeln!(f)
    }
}

impl fmt::Display for Accuracy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.nonstiff, self.stiff)
    }
}

/// One ensemble size of S1: the simulated device time (ns), the SSA
/// events or tau-leaping steps over all replicates, and the ensemble-mean
/// protein count at t = 5, each as `(SSA, tau-leaping)`.
#[derive(Debug, Clone)]
pub struct EnsembleRow {
    /// Replicates.
    pub replicates: usize,
    /// Simulated device time, ns.
    pub simulated_ns: (f64, f64),
    steps: (u64, u64),
    /// Ensemble-mean protein count at t = 5.
    pub protein_mean: (f64, f64),
}

/// S1: SSA and tau-leaping ensembles of a two-stage gene-expression model
/// as the ensemble grows.
#[derive(Debug, Clone)]
pub struct Ensembles {
    scale: f64,
    /// One row per ensemble size, ascending.
    pub rows: Vec<EnsembleRow>,
}

/// S1 at 32, 128 and 512 replicates of the model at ×3 (to 2048 at ×10 at
/// full scale).
pub fn stochastic_ensembles(full: bool) -> Ensembles {
    let sizes: &[usize] = if full { &[32, 128, 512, 2048] } else { &[32, 128, 512] };
    let scale = if full { 10.0 } else { 3.0 };
    let mut m = ReactionBasedModel::new();
    let mrna = m.add_species("mRNA", 0.0);
    let prot = m.add_species("protein", 0.0);
    m.add_reaction(Reaction::mass_action(&[], &[(mrna, 1)], 40.0 * scale)).expect("valid");
    m.add_reaction(Reaction::mass_action(&[(mrna, 1)], &[], 2.0)).expect("valid");
    m.add_reaction(Reaction::mass_action(&[(mrna, 1)], &[(mrna, 1), (prot, 1)], 10.0))
        .expect("valid");
    m.add_reaction(Reaction::mass_action(&[(prot, 1)], &[], 1.0)).expect("valid");
    let times: Vec<f64> = (1..=5).map(|i| i as f64).collect();
    let rows = Executor::default().map(sizes.len(), |i| {
        let r = sizes[i];
        let ssa = StochasticBatch::new(DirectMethod::new()).with_seed(0xE5).run(&m, &times, r);
        let tau = StochasticBatch::new(TauLeaping::new()).with_seed(0xE5).run(&m, &times, r);
        let (ssa, tau) = (ssa.expect("ssa ensemble"), tau.expect("tau ensemble"));
        let steps = |t: Vec<&StochasticTrajectory>| t.iter().map(|t| t.steps).sum();
        EnsembleRow {
            replicates: r,
            simulated_ns: (ssa.simulated_ns, tau.simulated_ns),
            steps: (steps(ssa.trajectories()), steps(tau.trajectories())),
            protein_mean: (ssa.stats.mean[4][1], tau.stats.mean[4][1]),
        }
    });
    Ensembles { scale, rows }
}

impl fmt::Display for Ensembles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "S1: stochastic ensemble scaling (gene expression ×{})\n", self.scale)?;
        let [r, s, t, e, st] =
            ["replicates", "SSA per-rep", "tau per-rep", "SSA events", "tau steps"];
        writeln!(f, "{r:>10} {s:>16} {t:>16} {e:>12} {st:>12}")?;
        for r in &self.rows {
            let (n, (ssa, tau), (events, steps)) = (r.replicates, r.simulated_ns, r.steps);
            let (ssa, tau) = (fmt_ns(ssa / n as f64), fmt_ns(tau / n as f64));
            writeln!(f, "{n:>10} {ssa:>16} {tau:>16} {events:>12} {steps:>12}")?;
        }
        writeln!(
            f,
            "\n(per-replicate device cost falls with ensemble size — the coarse-grained win)"
        )
    }
}
