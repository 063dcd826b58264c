//! `paraspace` — accelerated analysis of biological parameter spaces on a
//! simulated GPU.
//!
//! This umbrella crate re-exports the workspace members; see the README
//! for the architecture overview and DESIGN.md for the system inventory
//! and the experiment index.
//!
//! * [`rbm`] — reaction-based models, mass-action ODE derivation, model
//!   I/O, synthetic model generation;
//! * [`solvers`] — DOPRI5, Radau IIA, RKF45, and Nordsieck Adams/BDF
//!   multistep (LSODA/VODE baselines);
//! * [`vgpu`] — the simulated SIMT device (the CUDA substitution);
//! * [`engine`] — the batch simulation engines (fine+coarse and its
//!   baselines) with the P1–P5 pipeline;
//! * [`analysis`] — PSA, Sobol SA, PSO/FST-PSO parameter estimation;
//! * [`stochastic`] — SSA and tau-leaping with a coarse-grained batch
//!   engine (the stochastic half of the GPU-simulator landscape);
//! * [`journal`] — crash-safe campaign durability (write-ahead manifest,
//!   append-only shard journal, exact resume);
//! * [`models`] — the evaluation models (classics, autophagy analogue,
//!   metabolic HK-isoform network);
//! * [`linalg`] — the dense real/complex kernels underneath.
//!
//! # Example
//!
//! ```
//! use paraspace::engine::{FineCoarseEngine, SimulationJob, Simulator};
//! use paraspace::rbm::{Reaction, ReactionBasedModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut model = ReactionBasedModel::new();
//! let a = model.add_species("A", 1.0);
//! model.add_reaction(Reaction::mass_action(&[(a, 1)], &[], 0.5))?;
//! let job = SimulationJob::builder(&model).time_points(vec![1.0]).replicate(4).build()?;
//! let result = FineCoarseEngine::new().run(&job)?;
//! assert_eq!(result.success_count(), 4);
//! # Ok(())
//! # }
//! ```

pub use paraspace_analysis as analysis;
pub use paraspace_core as engine;
pub use paraspace_journal as journal;
pub use paraspace_linalg as linalg;
pub use paraspace_models as models;
pub use paraspace_rbm as rbm;
pub use paraspace_solvers as solvers;
pub use paraspace_stochastic as stochastic;
pub use paraspace_vgpu as vgpu;
