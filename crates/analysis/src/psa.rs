//! Parameter sweep analysis (PSA), one- and two-dimensional.
//!
//! A sweep is a grid over one or two parameter axes; each grid point maps
//! (via a caller-supplied function) to a [`Parameterization`] of a fixed
//! model, the points are batched through a [`Simulator`] (512 per batch by
//! default — the published throughput-optimal batch size), and a metric
//! reduces each trajectory to the scalar the sweep reports (final value,
//! oscillation amplitude, …).
//!
//! [`Psa2d`] is the two-dimensional sweep. A one-dimensional sweep is
//! [`crate::campaign::evaluate_points`] over one [`Axis`]'s values.

use crate::campaign::{
    evaluate_batched, f64s_digest, model_digest, options_digest, CampaignError, Checkpoint,
    PointEval, ShardLog, ShardReport,
};
use crate::fitness::FailedMemberPolicy;
use paraspace_core::Simulator;
use paraspace_journal::codec::Enc;
use paraspace_journal::{fnv64, CampaignManifest};
use paraspace_rbm::{Parameterization, ReactionBasedModel};
use paraspace_solvers::{Solution, SolverOptions};

/// The published throughput-optimal batch size.
pub const DEFAULT_BATCH: usize = 512;

/// One sweep axis.
///
/// # Example
///
/// ```
/// use paraspace_analysis::psa::Axis;
///
/// let lin = Axis::linear("AMPK*", 0.0, 1e4, 5);
/// assert_eq!(lin.values()[0], 0.0);
/// assert_eq!(lin.values()[4], 1e4);
/// let log = Axis::logarithmic("P9", 1e-9, 1e-6, 4);
/// assert!((log.values()[1] - 1e-8).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Axis label for reports.
    pub name: String,
    values: Vec<f64>,
}

impl Axis {
    /// A linearly spaced axis with `points ≥ 2` values in `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `points < 2`, either bound is non-finite (NaN or ±∞ would
    /// poison every grid point downstream), or `hi <= lo`.
    pub fn linear(name: impl Into<String>, lo: f64, hi: f64, points: usize) -> Self {
        assert!(points >= 2, "axis needs at least two points");
        assert!(lo.is_finite() && hi.is_finite(), "axis bounds must be finite");
        assert!(hi > lo, "axis bounds must be increasing");
        let step = (hi - lo) / (points - 1) as f64;
        Axis { name: name.into(), values: (0..points).map(|i| lo + step * i as f64).collect() }
    }

    /// A log-spaced axis (`lo > 0`).
    ///
    /// # Panics
    ///
    /// Panics if `points < 2`, either bound is non-finite (NaN or ±∞ would
    /// poison every grid point downstream), `lo <= 0`, or `hi <= lo`.
    pub fn logarithmic(name: impl Into<String>, lo: f64, hi: f64, points: usize) -> Self {
        assert!(points >= 2, "axis needs at least two points");
        assert!(lo.is_finite() && hi.is_finite(), "axis bounds must be finite");
        assert!(lo > 0.0 && hi > lo, "log axis needs 0 < lo < hi");
        let (llo, lhi) = (lo.ln(), hi.ln());
        let step = (lhi - llo) / (points - 1) as f64;
        Axis {
            name: name.into(),
            values: (0..points).map(|i| (llo + step * i as f64).exp()).collect(),
        }
    }

    /// The grid values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// A digest of the axis identity (name plus exact grid-value bits),
    /// used to pin the axis in a durable campaign manifest.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut enc = Enc::new();
        enc.put_str(&self.name).put_f64_slice(&self.values);
        fnv64(&enc.finish())
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the axis is empty (never true for constructed axes).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Result of a 2-D sweep: `metric[i][j]` for axis-1 point `i`, axis-2
/// point `j`, plus total simulation counts and the engine's simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct Psa2dResult {
    /// First axis (rows).
    pub axis1: Axis,
    /// Second axis (columns).
    pub axis2: Axis,
    /// Row-major metric values; `NaN` marks failed simulations.
    pub values: Vec<Vec<f64>>,
    /// Total simulations executed.
    pub simulations: usize,
    /// Total simulated engine time (ns).
    pub simulated_ns: f64,
    /// Host wall time.
    pub host_wall: std::time::Duration,
    /// What the journal recovered and executed (without a checkpoint,
    /// only `executed` counts).
    pub report: ShardReport,
}

impl Psa2dResult {
    /// The metric at grid point `(i, j)`.
    pub fn value(&self, i: usize, j: usize) -> f64 {
        self.values[i][j]
    }

    /// Fraction of grid points whose metric exceeds `threshold` (e.g. the
    /// oscillating fraction of the plane).
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        let total = self.axis1.len() * self.axis2.len();
        let above =
            self.values.iter().flatten().filter(|v| v.is_finite() && **v > threshold).count();
        above as f64 / total as f64
    }
}

/// A two-dimensional parameter sweep.
///
/// # Example
///
/// ```no_run
/// use paraspace_analysis::psa::{Axis, Psa2d};
/// use paraspace_core::FineCoarseEngine;
/// use paraspace_models::autophagy;
/// use paraspace_rbm::Parameterization;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Sweep the autophagy analogue over (AMPK*₀, P9).
/// let template = autophagy::model(0.0, 1e-7);
/// let sweep = Psa2d::new(
///     Axis::linear("AMPK*0", 0.0, 1e4, 8),
///     Axis::logarithmic("P9", 1e-9, 1e-6, 8),
/// );
/// let result = sweep.run(
///     &template,
///     |ampk0, p9| {
///         // Building a model is cheap (its reaction sides are stored
///         // inline), but a `Parameterization` over the one template —
///         // only the vectors that move — is cheaper still.
///         let m = autophagy::model(ampk0, p9);
///         Parameterization::new()
///             .with_initial_state(m.initial_state())
///             .with_rate_constants(m.rate_constants())
///     },
///     (1..=64).map(|i| 40.0 + i as f64).collect(),
///     &FineCoarseEngine::new(),
///     |sol| {
///         let series = sol.component(0);
///         paraspace_analysis::oscillation::amplitude(&series)
///     },
/// )?;
/// println!("oscillating fraction: {}", result.fraction_above(0.1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Psa2d {
    axis1: Axis,
    axis2: Axis,
    batch_size: usize,
    options: SolverOptions,
    failed: FailedMemberPolicy,
    checkpoint: Option<Checkpoint>,
}

impl Psa2d {
    /// A sweep over the two axes with the published 512 batch size.
    pub fn new(axis1: Axis, axis2: Axis) -> Self {
        Psa2d {
            axis1,
            axis2,
            batch_size: DEFAULT_BATCH,
            options: SolverOptions::default(),
            failed: FailedMemberPolicy::default(),
            checkpoint: None,
        }
    }

    /// Overrides the batch size (builder style).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Overrides the solver options (builder style).
    pub fn options(mut self, options: SolverOptions) -> Self {
        self.options = options;
        self
    }

    /// Overrides the failed-member policy (builder style). The default,
    /// [`FailedMemberPolicy::Skip`], leaves `NaN` at failed grid points.
    pub fn failed_members(mut self, policy: FailedMemberPolicy) -> Self {
        self.failed = policy;
        self
    }

    /// Journals the sweep into `checkpoint` (builder style): every batch is
    /// one numbered shard committed to its write-ahead journal, and a
    /// restarted run skips the committed shards. The grid, simulation
    /// counts and billed simulated time are byte-identical to an
    /// uninterrupted run and to a run without a checkpoint.
    pub fn checkpoint(mut self, checkpoint: Checkpoint) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// Runs the sweep: the grid is a point set plus a reshape, row-major
    /// `(u, v)` points through the batched evaluator, outputs cut back
    /// into rows.
    ///
    /// `parameterize(u, v)` maps a grid point to a parameterization of
    /// `model`, called once per grid point in row-major order; `metric`
    /// reduces each successful trajectory, in the same order. Failed
    /// members — and every cell of a batch whose job fails validation
    /// ([`paraspace_core::SimError::InvalidJob`]) — take the configured
    /// [`FailedMemberPolicy`] value (`NaN` by default).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Sim`] for a fatal engine failure (without a
    /// checkpoint, cancellation included: there is nothing to interrupt
    /// into); with one, [`CampaignError::Journal`] on checkpoint I/O or
    /// world mismatch and [`CampaignError::Interrupted`] when its
    /// cancellation token trips (re-run with the same checkpoint to
    /// resume).
    pub fn run<P, M>(
        &self,
        model: &ReactionBasedModel,
        mut parameterize: P,
        time_points: Vec<f64>,
        engine: &dyn Simulator,
        metric: M,
    ) -> Result<Psa2dResult, CampaignError>
    where
        P: FnMut(f64, f64) -> Parameterization,
        M: FnMut(&Solution) -> f64,
    {
        let start = std::time::Instant::now();
        let grid: Vec<(f64, f64)> = (self.axis1.values().iter())
            .flat_map(|&u| self.axis2.values().iter().map(move |&v| (u, v)))
            .collect();
        let spec = PointEval {
            model,
            time_points: &time_points,
            options: &self.options,
            engine,
            batch: self.batch_size,
            failed: self.failed.grid_value(),
        };
        let eval = evaluate_batched(
            &spec,
            &grid,
            |&(u, v)| parameterize(u, v),
            metric,
            |shards| {
                ShardLog::open(self.checkpoint.as_ref(), || {
                    CampaignManifest::new("psa2d", shards)
                        .with_digest("model", model_digest(model))
                        .with_digest("axis1", self.axis1.digest())
                        .with_digest("axis2", self.axis2.digest())
                        .with_digest("times", f64s_digest(&time_points))
                        .with_digest("options", options_digest(&self.options))
                        .with_field("batch", self.batch_size.to_string())
                })
            },
        )?;
        Ok(Psa2dResult {
            axis1: self.axis1.clone(),
            axis2: self.axis2.clone(),
            values: eval.outputs.chunks(self.axis2.len()).map(<[f64]>::to_vec).collect(),
            simulations: eval.simulations,
            simulated_ns: eval.simulated_ns,
            host_wall: start.elapsed(),
            report: eval.report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraspace_core::{CpuEngine, CpuSolverKind};
    use paraspace_rbm::{Reaction, ReactionBasedModel};

    fn decay_model() -> ReactionBasedModel {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[], 1.0)).unwrap();
        m
    }

    #[test]
    fn axis_construction() {
        let a = Axis::linear("x", 0.0, 10.0, 11);
        assert_eq!(a.len(), 11);
        assert_eq!(a.values()[5], 5.0);
        let l = Axis::logarithmic("k", 1e-3, 1e3, 7);
        assert!((l.values()[3] - 1.0).abs() < 1e-12);
        assert!(!l.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn single_point_axis_rejected() {
        let _ = Axis::linear("x", 0.0, 1.0, 1);
    }

    #[test]
    #[should_panic(expected = "axis bounds must be finite")]
    fn nan_linear_bound_rejected() {
        let _ = Axis::linear("x", f64::NAN, 1.0, 3);
    }

    #[test]
    #[should_panic(expected = "axis bounds must be finite")]
    fn infinite_linear_bound_rejected() {
        let _ = Axis::linear("x", 0.0, f64::INFINITY, 3);
    }

    #[test]
    #[should_panic(expected = "axis bounds must be finite")]
    fn non_finite_log_bound_rejected() {
        let _ = Axis::logarithmic("k", f64::NAN, 1.0, 3);
    }

    #[test]
    fn axis_digest_is_identity_sensitive() {
        let a = Axis::linear("x", 0.0, 1.0, 5);
        assert_eq!(a.digest(), Axis::linear("x", 0.0, 1.0, 5).digest());
        assert_ne!(a.digest(), Axis::linear("y", 0.0, 1.0, 5).digest(), "name matters");
        assert_ne!(a.digest(), Axis::linear("x", 0.0, 1.0, 6).digest(), "grid matters");
    }

    #[test]
    fn sweep_recovers_known_decay_surface() {
        // Metric = final value of A at t=1 for decay rate k = u·v:
        // exactly e^{-u·v}.
        let m = decay_model();
        let sweep = Psa2d::new(Axis::linear("u", 0.5, 2.0, 3), Axis::linear("v", 0.5, 1.5, 3))
            .batch_size(4);
        let engine = CpuEngine::new(CpuSolverKind::Lsoda);
        let r = sweep
            .run(
                &m,
                |u, v| Parameterization::new().with_rate_constants(vec![u * v]),
                vec![1.0],
                &engine,
                |sol| sol.state_at(0)[0],
            )
            .unwrap();
        assert_eq!(r.simulations, 9);
        for (i, &u) in r.axis1.values().iter().enumerate() {
            for (j, &v) in r.axis2.values().iter().enumerate() {
                let expect = (-u * v).exp();
                assert!(
                    (r.value(i, j) - expect).abs() < 1e-4,
                    "({u},{v}): {} vs {expect}",
                    r.value(i, j)
                );
            }
        }
        assert!(r.simulated_ns > 0.0);
    }

    #[test]
    fn fraction_above_counts_cells() {
        let r = Psa2dResult {
            axis1: Axis::linear("a", 0.0, 1.0, 2),
            axis2: Axis::linear("b", 0.0, 1.0, 2),
            values: vec![vec![0.0, 5.0], vec![f64::NAN, 7.0]],
            simulations: 4,
            simulated_ns: 1.0,
            host_wall: std::time::Duration::ZERO,
            report: ShardReport::default(),
        };
        assert!((r.fraction_above(1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_one_axis_sweep_is_a_point_set_over_its_values() {
        let m = decay_model();
        let engine = CpuEngine::new(CpuSolverKind::Lsoda);
        let axis = Axis::linear("k", 1.0, 3.0, 3);
        let points: Vec<Vec<f64>> = axis.values().iter().map(|&k| vec![k]).collect();
        let out = crate::campaign::evaluate_points(
            &m,
            &points,
            |p| Parameterization::new().with_rate_constants(p.to_vec()),
            &[1.0],
            &SolverOptions::default(),
            &engine,
            |sol| sol.state_at(0)[0],
            DEFAULT_BATCH,
            None,
        )
        .unwrap();
        assert_eq!(out.outputs.len(), 3);
        assert_eq!(out.report, ShardReport { executed: 1, ..ShardReport::default() });
        for (&k, &v) in axis.values().iter().zip(&out.outputs) {
            assert!((v - (-k).exp()).abs() < 1e-4);
        }
    }

    #[test]
    fn failed_member_policy_controls_the_grid_hole() {
        // A 1-step cap fails every member; Skip leaves NaN (the default),
        // Penalize substitutes the sentinel.
        let m = decay_model();
        let engine = CpuEngine::new(CpuSolverKind::Lsoda);
        let axes = (Axis::linear("u", 1.0, 2.0, 2), Axis::linear("v", 1.0, 2.0, 2));
        let starved = paraspace_solvers::SolverOptions {
            max_steps: 1,
            ..paraspace_solvers::SolverOptions::default()
        };
        let run = |policy: FailedMemberPolicy| {
            Psa2d::new(axes.0.clone(), axes.1.clone())
                .options(starved.clone())
                .failed_members(policy)
                .run(
                    &m,
                    |u, v| Parameterization::new().with_rate_constants(vec![u * v]),
                    vec![1.0],
                    &engine,
                    |sol| sol.state_at(0)[0],
                )
                .unwrap()
        };
        let skipped = run(FailedMemberPolicy::Skip);
        assert!(skipped.values.iter().flatten().all(|v| v.is_nan()));
        let penalized = run(FailedMemberPolicy::Penalize(-1.0));
        assert!(penalized.values.iter().flatten().all(|&v| v == -1.0));
    }

    #[test]
    fn batching_covers_grid_exactly_once() {
        let m = decay_model();
        let sweep = Psa2d::new(Axis::linear("u", 1.0, 2.0, 5), Axis::linear("v", 1.0, 2.0, 7))
            .batch_size(3); // deliberately awkward chunking
        let engine = CpuEngine::new(CpuSolverKind::Lsoda);
        let mut count = 0usize;
        let r = sweep
            .run(
                &m,
                |_u, _v| {
                    count += 1;
                    Parameterization::new()
                },
                vec![0.5],
                &engine,
                |sol| sol.state_at(0)[0],
            )
            .unwrap();
        assert_eq!(count, 35);
        assert_eq!(r.simulations, 35);
        assert!(r.values.iter().flatten().all(|v| v.is_finite()));
    }
}
