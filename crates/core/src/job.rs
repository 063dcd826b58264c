//! Simulation jobs: model + batch + sampling + tolerances.

use crate::{RbmBatchSystem, SimError};
use paraspace_rbm::{CompiledOdes, Parameterization, ReactionBasedModel};
use paraspace_solvers::{FaultPlan, Solution, SolverOptions};

/// A batch simulation job: the unit of work every engine consumes.
///
/// Construction runs phase **P1** of the published pipeline: the model is
/// validated and compiled into the flat ODE encoding shared by all batch
/// members.
///
/// # Example
///
/// ```
/// use paraspace_core::SimulationJob;
/// use paraspace_rbm::{Reaction, ReactionBasedModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = ReactionBasedModel::new();
/// let a = m.add_species("A", 1.0);
/// m.add_reaction(Reaction::mass_action(&[(a, 1)], &[], 1.0))?;
/// let job = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(8).build()?;
/// assert_eq!(job.batch_size(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SimulationJob<'a> {
    model: &'a ReactionBasedModel,
    odes: CompiledOdes,
    batch: Vec<(Vec<f64>, Vec<f64>)>, // resolved (x0, k) per member
    time_points: Vec<f64>,
    options: SolverOptions,
    fault_plan: FaultPlan,
}

impl<'a> SimulationJob<'a> {
    /// Starts building a job for `model`.
    pub fn builder(model: &'a ReactionBasedModel) -> JobBuilder<'a> {
        JobBuilder {
            model,
            parameterizations: Vec::new(),
            time_points: Vec::new(),
            options: SolverOptions::default(),
            fault_plan: FaultPlan::new(),
        }
    }

    /// The model under simulation.
    pub fn model(&self) -> &ReactionBasedModel {
        self.model
    }

    /// The compiled ODE encoding (phase P1 output).
    pub fn odes(&self) -> &CompiledOdes {
        &self.odes
    }

    /// Number of simulations in the batch.
    pub fn batch_size(&self) -> usize {
        self.batch.len()
    }

    /// Resolved `(x0, k)` of batch member `i`.
    pub fn member(&self, i: usize) -> (&[f64], &[f64]) {
        let (x0, k) = &self.batch[i];
        (x0, k)
    }

    /// The sampling time points.
    pub fn time_points(&self) -> &[f64] {
        &self.time_points
    }

    /// Solver tolerances and limits.
    pub fn options(&self) -> &SolverOptions {
        &self.options
    }

    /// The deterministic fault-injection plan (empty for normal jobs).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// The whole resolved batch as one lockstep member queue of width
    /// `lanes`, borrowed rather than copied: queue member `i` is batch
    /// member `i`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn lane_system(&self, lanes: usize) -> RbmBatchSystem<'_> {
        RbmBatchSystem::over_batch(&self.odes, &self.batch, lanes)
    }

    /// Serializes one trajectory in the tab-separated dynamics format the
    /// original tool writes (phase P5); engines charge its cost as I/O.
    pub fn serialize_dynamics(&self, solution: &Solution) -> String {
        let mut out = String::with_capacity(solution.len() * (self.odes.n_species() + 1) * 14);
        write_dynamics(solution, &mut out);
        out
    }
}

/// Appends the dynamics text of `solution` to `out`: one row per sample —
/// the time, then every species, tab-separated, all in `{:e}`.
pub(crate) fn write_dynamics(solution: &Solution, out: &mut String) {
    use std::fmt::Write;
    for (t, state) in solution.times.iter().zip(&solution.states) {
        write!(out, "{t:e}").expect("formatting into a String cannot fail");
        for v in state {
            write!(out, "\t{v:e}").expect("formatting into a String cannot fail");
        }
        out.push('\n');
    }
}

/// Builder for [`SimulationJob`].
#[derive(Debug)]
pub struct JobBuilder<'a> {
    model: &'a ReactionBasedModel,
    parameterizations: Vec<Parameterization>,
    time_points: Vec<f64>,
    options: SolverOptions,
    fault_plan: FaultPlan,
}

impl<'a> JobBuilder<'a> {
    /// Sets the sampling time points (strictly increasing, all > t = 0).
    pub fn time_points(mut self, times: Vec<f64>) -> Self {
        self.time_points = times;
        self
    }

    /// Adds an explicit batch of parameterizations.
    pub fn parameterizations(mut self, batch: Vec<Parameterization>) -> Self {
        self.parameterizations.extend(batch);
        self
    }

    /// Adds one parameterization.
    pub fn parameterization(mut self, p: Parameterization) -> Self {
        self.parameterizations.push(p);
        self
    }

    /// Fills the batch with `n` copies of the model's baked values (useful
    /// for throughput measurements).
    pub fn replicate(mut self, n: usize) -> Self {
        self.parameterizations.extend((0..n).map(|_| Parameterization::new()));
        self
    }

    /// Overrides the solver options (defaults: the published εa = 10⁻¹²,
    /// εr = 10⁻⁶, 10⁴ steps).
    pub fn options(mut self, options: SolverOptions) -> Self {
        self.options = options;
        self
    }

    /// Attaches a deterministic fault-injection plan: engines wrap each
    /// covered member's system in a
    /// [`ChaosSystem`](paraspace_solvers::ChaosSystem) and their lane groups
    /// in a [`ChaosBatchSystem`](paraspace_solvers::ChaosBatchSystem), so
    /// the containment and recovery machinery can be exercised
    /// reproducibly on either route (builder style).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Validates, compiles the ODEs (phase P1) and resolves the batch.
    ///
    /// # Errors
    ///
    /// [`SimError::Model`] on validation/compilation failure;
    /// [`SimError::InvalidJob`] for an empty batch, empty time points, time
    /// points that are non-finite or not strictly increasing (a single
    /// leading `0.0` is allowed; `t = 0` is always sampled as the initial
    /// state), non-finite or non-positive tolerances, or members whose
    /// resolved initial state or rate constants are non-finite.
    pub fn build(self) -> Result<SimulationJob<'a>, SimError> {
        let odes = self.model.compile()?;
        if self.parameterizations.is_empty() {
            return Err(SimError::InvalidJob {
                message: "batch must contain at least one parameterization".into(),
            });
        }
        if self.time_points.is_empty() {
            return Err(SimError::InvalidJob {
                message: "at least one sampling time point required".into(),
            });
        }
        // Strictly increasing, finite, non-negative; an optional leading
        // zero is the only place t = 0 may appear. NaN fails every
        // comparison, so each point is checked for finiteness explicitly —
        // the historical `t <= prev` test let NaN (and a stray 0.0
        // anywhere) slip through to the solvers.
        let mut prev: Option<f64> = None;
        for &t in &self.time_points {
            if !t.is_finite() {
                return Err(SimError::InvalidJob {
                    message: format!("time points must be finite (saw {t})"),
                });
            }
            let ok = match prev {
                None => t >= 0.0,
                Some(p) => t > p,
            };
            if !ok {
                return Err(SimError::InvalidJob {
                    message: format!(
                        "time points must be strictly increasing and non-negative \
                         (saw {t} after {})",
                        prev.map_or("start".to_string(), |p| p.to_string())
                    ),
                });
            }
            prev = Some(t);
        }
        // `!(x > 0)` (rather than `x <= 0`) also rejects NaN tolerances.
        if !(self.options.rel_tol > 0.0
            && self.options.rel_tol.is_finite()
            && self.options.abs_tol > 0.0
            && self.options.abs_tol.is_finite())
        {
            return Err(SimError::InvalidJob {
                message: "tolerances must be positive and finite".into(),
            });
        }
        let batch = self
            .parameterizations
            .iter()
            .map(|p| p.resolve(self.model))
            .collect::<Result<Vec<_>, _>>()?;
        for (i, (x0, k)) in batch.iter().enumerate() {
            if let Some(v) = x0.iter().find(|v| !v.is_finite()) {
                return Err(SimError::InvalidJob {
                    message: format!("member {i} has a non-finite initial state ({v})"),
                });
            }
            if let Some(v) = k.iter().find(|v| !v.is_finite()) {
                return Err(SimError::InvalidJob {
                    message: format!("member {i} has a non-finite rate constant ({v})"),
                });
            }
        }
        Ok(SimulationJob {
            model: self.model,
            odes,
            batch,
            time_points: self.time_points,
            options: self.options,
            fault_plan: self.fault_plan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraspace_rbm::Reaction;

    fn model() -> ReactionBasedModel {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let b = m.add_species("B", 0.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 2.0)).unwrap();
        m
    }

    #[test]
    fn builder_resolves_batch() {
        let m = model();
        let job = SimulationJob::builder(&m)
            .time_points(vec![0.5, 1.0])
            .parameterization(Parameterization::new().with_rate_constants(vec![9.0]))
            .replicate(2)
            .build()
            .unwrap();
        assert_eq!(job.batch_size(), 3);
        let (x0, k) = job.member(0);
        assert_eq!(x0, &[1.0, 0.0]);
        assert_eq!(k, &[9.0]);
        let (_, k1) = job.member(1);
        assert_eq!(k1, &[2.0]);
    }

    #[test]
    fn empty_batch_rejected() {
        let m = model();
        let err = SimulationJob::builder(&m).time_points(vec![1.0]).build().unwrap_err();
        assert!(matches!(err, SimError::InvalidJob { .. }));
    }

    #[test]
    fn empty_time_points_rejected() {
        let m = model();
        let err = SimulationJob::builder(&m).replicate(1).build().unwrap_err();
        assert!(err.to_string().contains("time point"));
    }

    #[test]
    fn decreasing_time_points_rejected() {
        let m = model();
        let err = SimulationJob::builder(&m)
            .time_points(vec![2.0, 1.0])
            .replicate(1)
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidJob { .. }));
    }

    #[test]
    fn nan_time_point_rejected() {
        // NaN fails every comparison, so the historical `t <= prev` check
        // let it through to the solvers.
        let m = model();
        let err = SimulationJob::builder(&m)
            .time_points(vec![1.0, f64::NAN, 2.0])
            .replicate(1)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("finite"), "{err}");
        let err = SimulationJob::builder(&m)
            .time_points(vec![f64::INFINITY])
            .replicate(1)
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidJob { .. }));
    }

    #[test]
    fn duplicate_and_stray_zero_time_points_rejected() {
        let m = model();
        // Duplicates are not strictly increasing.
        for times in [vec![1.0, 1.0], vec![0.0, 0.0], vec![1.0, 0.0, 2.0], vec![-1.0]] {
            let err = SimulationJob::builder(&m)
                .time_points(times.clone())
                .replicate(1)
                .build()
                .unwrap_err();
            assert!(matches!(err, SimError::InvalidJob { .. }), "{times:?} must be rejected");
        }
        // A single leading zero is explicitly allowed.
        let job =
            SimulationJob::builder(&m).time_points(vec![0.0, 1.0]).replicate(1).build().unwrap();
        assert_eq!(job.time_points(), &[0.0, 1.0]);
    }

    #[test]
    fn non_finite_tolerances_rejected() {
        let m = model();
        for (rel, abs) in
            [(f64::NAN, 1e-12), (1e-6, f64::NAN), (f64::INFINITY, 1e-12), (0.0, 1e-12)]
        {
            let opts = SolverOptions { rel_tol: rel, abs_tol: abs, ..SolverOptions::default() };
            let err = SimulationJob::builder(&m)
                .time_points(vec![1.0])
                .replicate(1)
                .options(opts)
                .build()
                .unwrap_err();
            assert!(
                err.to_string().contains("tolerances"),
                "rel={rel} abs={abs} must be rejected, got {err}"
            );
        }
    }

    #[test]
    fn non_finite_member_inputs_rejected() {
        let m = model();
        let err = SimulationJob::builder(&m)
            .time_points(vec![1.0])
            .parameterization(Parameterization::new().with_rate_constants(vec![f64::NAN]))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("rate constant"), "{err}");
        let err = SimulationJob::builder(&m)
            .time_points(vec![1.0])
            .parameterization(Parameterization::new().with_initial_state(vec![f64::INFINITY, 0.0]))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("initial state"), "{err}");
    }

    #[test]
    fn fault_plan_rides_on_the_job() {
        use paraspace_solvers::FaultSpec;
        let m = model();
        let job = SimulationJob::builder(&m)
            .time_points(vec![1.0])
            .replicate(4)
            .fault_plan(FaultPlan::new().with_fault(2, FaultSpec::nan_at_time(0.5)))
            .build()
            .unwrap();
        assert!(job.fault_plan().faults_for(2).is_some());
        assert!(job.fault_plan().faults_for(0).is_none());
    }

    #[test]
    fn wrong_parameterization_length_is_model_error() {
        let m = model();
        let err = SimulationJob::builder(&m)
            .time_points(vec![1.0])
            .parameterization(Parameterization::new().with_rate_constants(vec![1.0, 2.0]))
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::Model(_)));
    }

    #[test]
    fn serialization_is_tab_separated_rows() {
        let m = model();
        let job = SimulationJob::builder(&m).time_points(vec![1.0]).replicate(1).build().unwrap();
        let sol = Solution {
            times: vec![0.0, 1.0],
            states: vec![vec![1.0, 0.0], vec![0.5, 0.5]],
            stats: Default::default(),
        };
        let text = job.serialize_dynamics(&sol);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].split('\t').count(), 3);
        assert!(lines[1].starts_with("1e0"));
    }
}
