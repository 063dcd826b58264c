// Index-based loops mirror the flat propensity tables a GPU kernel
// would walk.
#![allow(clippy::needless_range_loop)]

//! Stochastic simulation of reaction-based models.
//!
//! The GPU-simulator landscape the original paper situates itself in (its
//! "semiotic square") has a stochastic half: coarse-grained SSA and
//! tau-leaping engines (cuda-sim, cuTauLeaping). This crate fills that
//! half for the present suite:
//!
//! * [`DirectMethod`] — Gillespie's exact stochastic simulation algorithm
//!   over the same [`ReactionBasedModel`]s the deterministic engines use
//!   (initial concentrations are interpreted as molecule counts);
//! * [`TauLeaping`] — the approximate accelerated method with the
//!   Cao–Gillespie–Petzold adaptive step selection and an SSA fallback for
//!   near-critical populations;
//! * [`TauLeapBatch`] — the lockstep lane kernel: `L` replicates advance
//!   through tau-leaping in SoA lanes with batched propensity evaluation
//!   and tau selection, per-lane trajectories bitwise equal to the scalar
//!   simulator;
//! * [`StochasticBatch`] — the ensemble engine (one virtual device thread
//!   per replicate, the cuTauLeaping design): counter-based per-replicate
//!   RNG streams ([`CounterRng`]), lane groups on the workspace's shared
//!   lane queue with scalar fallback, cooperative cancellation, and
//!   ensemble statistics plus simulated device time.
//!
//! Determinism is the load-bearing contract: every replicate's RNG stream
//! is a pure function of `(seed, member, replicate)`, so trajectories are
//! bitwise identical across lane widths, lane packing orders, thread
//! counts, and shard decompositions — which is what lets ensembles flow
//! through the executor pool, the vgpu lane accounting, and the durable
//! campaign journal unchanged.
//!
//! The stochastic and deterministic views agree where theory says they
//! must: for linear networks the SSA ensemble mean follows the ODE
//! solution, which the integration tests assert.
//!
//! # Example
//!
//! ```
//! use paraspace_rbm::{Reaction, ReactionBasedModel};
//! use paraspace_stochastic::{DirectMethod, StochasticSimulator};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Isomerization A → B starting from 1000 molecules of A.
//! let mut m = ReactionBasedModel::new();
//! let a = m.add_species("A", 1000.0);
//! let b = m.add_species("B", 0.0);
//! m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1.0))?;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let traj = DirectMethod::new().simulate(&m, &[0.5, 1.0], &mut rng)?;
//! let total = traj.states[1][0] + traj.states[1][1];
//! assert_eq!(total, 1000, "molecules are conserved");
//! # Ok(())
//! # }
//! ```

mod batch;
mod chaos;
mod error;
mod propensity;
mod rng;
mod sampling;
mod ssa;
mod tau;
mod tau_batch;

pub use batch::{EnsembleStats, StochasticBatch, StochasticBatchResult};
pub use chaos::{StochFault, StochFaultPlan};
pub use error::StochasticError;
/// The type of [`StochasticBatchResult::lanes`], nameable from here.
pub use paraspace_vgpu::LaneAccounting;
pub use propensity::{propensities, PropensityTable};
pub use rng::CounterRng;
pub use sampling::poisson;
pub use ssa::DirectMethod;
pub use tau::TauLeaping;
pub use tau_batch::TauLeapBatch;

use paraspace_rbm::ReactionBasedModel;
use rand::Rng;

/// A sampled stochastic trajectory: integer molecule counts per species at
/// each requested time point.
#[derive(Debug, Clone, PartialEq)]
pub struct StochasticTrajectory {
    /// The sample times.
    pub times: Vec<f64>,
    /// One count vector per sample time.
    pub states: Vec<Vec<u64>>,
    /// Reaction firings executed.
    pub firings: u64,
    /// Algorithm steps (SSA events or tau leaps).
    pub steps: u64,
}

impl StochasticTrajectory {
    /// The trajectory of one species across the samples.
    ///
    /// # Panics
    ///
    /// Panics if `species` is out of range.
    pub fn component(&self, species: usize) -> Vec<u64> {
        self.states.iter().map(|s| s[species]).collect()
    }
}

/// A stochastic simulator over reaction-based models.
pub trait StochasticSimulator {
    /// Algorithm name (`"ssa"`, `"tau-leaping"`).
    fn name(&self) -> &'static str;

    /// Simulates one realization, sampling at `times` (non-decreasing).
    ///
    /// Initial concentrations are rounded to molecule counts.
    ///
    /// # Errors
    ///
    /// Model-validation failures and hardening trips
    /// ([`StochasticError::BadPropensity`] on non-finite or negative
    /// propensities).
    fn simulate<R: Rng + ?Sized>(
        &self,
        model: &ReactionBasedModel,
        times: &[f64],
        rng: &mut R,
    ) -> Result<StochasticTrajectory, StochasticError>
    where
        Self: Sized,
    {
        model.validate()?;
        let table = PropensityTable::new(model);
        let x0 = initial_counts(model);
        self.simulate_counts(&table, &x0, times, rng, &[])
    }

    /// The low-level entry the batch engine uses: simulate from explicit
    /// initial counts against a prebuilt table, with deterministic fault
    /// injection (`faults` poison chosen propensity evaluations; see
    /// [`StochFault`]). [`simulate`](Self::simulate) wraps this with
    /// model validation and an empty fault list.
    fn simulate_counts<R: Rng + ?Sized>(
        &self,
        table: &PropensityTable,
        x0: &[u64],
        times: &[f64],
        rng: &mut R,
        faults: &[StochFault],
    ) -> Result<StochasticTrajectory, StochasticError>
    where
        Self: Sized;

    /// The lockstep lane kernel for this simulator, if it has one.
    /// Returning `Some` lets [`StochasticBatch`] run lane groups; the
    /// kernel's per-lane trajectories must be bitwise equal to
    /// [`simulate_counts`](Self::simulate_counts) with the same stream.
    fn lane_kernel(&self) -> Option<TauLeapBatch> {
        None
    }
}

/// Rounds a model's initial concentrations to molecule counts — the
/// state-vector convention every simulator in this crate starts from.
pub fn initial_counts(model: &ReactionBasedModel) -> Vec<u64> {
    model.initial_state().iter().map(|&x| x.max(0.0).round() as u64).collect()
}
