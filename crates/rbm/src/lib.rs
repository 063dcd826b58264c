// Index-based loops are used deliberately in the compiled-ODE kernels:
// they mirror the flat CSR arrays a GPU kernel would walk.
#![allow(clippy::needless_range_loop)]

//! Reaction-based models (RBMs) of biochemical networks.
//!
//! An RBM is a set of `N` molecular species `S = {S_1, …, S_N}` and `M`
//! biochemical reactions
//!
//! ```text
//! R_i : Σ_j a_ij S_j  --k_i-->  Σ_j b_ij S_j
//! ```
//!
//! with stoichiometric matrices `A = [a_ij]`, `B = [b_ij]` and kinetic
//! constants `K = [k_i]`. Under the law of mass action the species
//! concentrations `X(t)` evolve as the coupled ODE system
//!
//! ```text
//! dX/dt = (B − A)ᵀ [K ⊙ X^A]
//! ```
//!
//! where `⊙` is the Hadamard product and `X^A` the vector-matrix
//! exponentiation (component `i` equals `Π_j X_j^{a_ij}`).
//!
//! This crate provides:
//!
//! * model construction and validation ([`ReactionBasedModel`], [`Reaction`],
//!   [`Species`]),
//! * derivation of the ODE system in a flat, GPU-friendly encoding
//!   ([`CompiledOdes`]) with analytic Jacobians — mass action is the one
//!   rate law, as in both input formats (one constant per reaction),
//! * a BioSimWare-style on-disk format ([`biosimware`]) and an SBML-subset
//!   importer ([`sbml`]),
//! * the SBGen-style synthetic model generator ([`sbgen`]) used to produce
//!   the symmetric and asymmetric benchmark model families, and
//! * batch parameterizations with the published log-space ±25% perturbation
//!   rule ([`Parameterization`], [`perturb_constants`]).
//!
//! # Example
//!
//! ```
//! use paraspace_rbm::{ReactionBasedModel, Reaction};
//!
//! # fn main() -> Result<(), paraspace_rbm::RbmError> {
//! // A ⇌ B with forward rate 2 and backward rate 1.
//! let mut model = ReactionBasedModel::new();
//! let a = model.add_species("A", 1.0);
//! let b = model.add_species("B", 0.0);
//! model.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 2.0))?;
//! model.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 1.0))?;
//!
//! let odes = model.compile()?;
//! let mut dxdt = vec![0.0; 2];
//! odes.rhs(0.0, &model.initial_state(), &mut dxdt);
//! assert_eq!(dxdt, vec![-2.0, 2.0]); // A flows to B at rate 2·[A]
//! # Ok(())
//! # }
//! ```

pub mod biosimware;
mod conservation;
mod error;
mod model;
mod odes;
mod parameterization;
pub mod sbgen;
pub mod sbml;
mod stoich;

pub use conservation::{conservation_laws, conserved_quantities};
pub use error::RbmError;
pub use model::{Reaction, ReactionBasedModel, Species, SpeciesId};
pub use odes::CompiledOdes;
pub use parameterization::{perturb_constants, perturbed_batch, Parameterization};
pub use stoich::CompiledStoich;
