// Index-based loops are used deliberately throughout the numerical
// kernels: they mirror the reference Fortran/C formulations and keep
// multi-array stride arithmetic explicit.
#![allow(clippy::needless_range_loop)]

//! Batch deterministic simulation engines for biological parameter-space
//! analysis — the reproduction target's primary contribution.
//!
//! A [`SimulationJob`] pairs a reaction-based model with a batch of
//! parameterizations, sampling times, and tolerances. Four [`Simulator`]
//! engines execute jobs:
//!
//! | engine | granularity | solvers | models |
//! |---|---|---|---|
//! | [`FineCoarseEngine`] | **fine × coarse** (the contribution) | DOPRI5 → RADAU5 re-route | batch across threads *and* each ODE system across child-grid threads via dynamic parallelism |
//! | [`CoarseEngine`] | coarse only (cupSODA-class) | LSODA per thread | one simulation per device thread; small models live in constant/shared memory |
//! | [`FineEngine`] | fine only (LASSIE-class) | RKF45 ↔ BDF1 | one simulation at a time, species across threads, host-side kernel launches per step |
//! | [`CpuEngine`] | sequential | LSODA or VODE | the SciPy-style CPU baselines |
//!
//! Every engine executes the **same numerics on the host** (bit-exact
//! trajectories via `paraspace-solvers`) and reports two clocks:
//!
//! * `host_wall` — real elapsed time of this process, and
//! * `simulated_*` — the modeled time on the engine's hardware (the
//!   virtual GPU of `paraspace-vgpu`, or a calibrated CPU cost model),
//!   split into *integration* time and *simulation* (total, incl. I/O)
//!   time exactly as the published tables are.
//!
//! The pipeline follows the published five phases: P1 ODE encoding (host),
//! P2 stiffness triage by dominant Jacobian eigenvalue (threshold 500), P3
//! DOPRI5 batch, P4 RADAU5 batch (stiff + P3 failures), P5 output (host).
//!
//! # Example
//!
//! ```
//! use paraspace_core::{CpuEngine, CpuSolverKind, SimulationJob, Simulator};
//! use paraspace_rbm::{Reaction, ReactionBasedModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut model = ReactionBasedModel::new();
//! let a = model.add_species("A", 1.0);
//! model.add_reaction(Reaction::mass_action(&[(a, 1)], &[], 0.7))?;
//!
//! let job = SimulationJob::builder(&model)
//!     .time_points(vec![1.0, 2.0])
//!     .replicate(4) // 4 identical parameterizations
//!     .build()?;
//! let result = CpuEngine::new(CpuSolverKind::Lsoda).run(&job)?;
//! assert_eq!(result.outcomes.len(), 4);
//! # Ok(())
//! # }
//! ```

mod cost;
mod engines;
mod error;
mod job;
mod lanes;
mod recovery;
mod select;
mod stiffness;
mod system;

pub use cost::{CpuCostModel, WorkEstimate};
pub use engines::{
    taxonomy, AutoEngine, BatchHealth, BatchResult, BatchTiming, CoarseEngine, CpuEngine,
    CpuSolverKind, Engine, FailureCounts, FineCoarseEngine, FineEngine, Host, MemberSink,
    SimOutcome, Simulator,
};
pub use error::SimError;
pub use job::{JobBuilder, SimulationJob};
pub use lanes::auto_lane_width;
/// Cooperative cancellation vocabulary, re-exported so engine callers can
/// wire a token without importing the executor crate directly.
pub use paraspace_exec::{CancelToken, Cancelled, Executor};
/// Deterministic fault-injection vocabulary, re-exported so batch callers
/// can build a [`SimulationJob`] fault plan without importing the solver
/// crate directly.
pub use paraspace_solvers::{ChaosSystem, FaultKind, FaultPlan, FaultSpec};
pub use recovery::{RecoveryLog, RecoveryPolicy};
pub use select::{recommend_engine, EngineKind};
pub use stiffness::{
    classify_batch, classify_batch_with_threshold, StiffnessClass, STIFFNESS_THRESHOLD,
};
pub use system::{RbmBatchSystem, RbmOdeSystem, RbmSensSystem};
