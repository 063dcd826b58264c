// Index-based loops are used deliberately throughout the numerical
// kernels: they mirror the reference Fortran/C formulations and keep
// multi-array stride arithmetic explicit.
#![allow(clippy::needless_range_loop)]

//! Parameter-space analysis on top of the batch simulation engines.
//!
//! The three Systems-Biology tasks the reproduction target accelerates:
//!
//! * **PSA** — [`psa`]: one- and two-dimensional parameter sweeps with
//!   pluggable per-trajectory metrics (e.g. oscillation amplitude from
//!   [`oscillation`]), batched through any [`paraspace_core::Simulator`];
//! * **SA** — [`sobol`]: variance-based Sobol sensitivity analysis with the
//!   Saltelli sampling scheme (the published `N·(2d+2)` design: 512 × 24 =
//!   12288 model evaluations for the 11-dimensional metabolic case) and
//!   bootstrap confidence intervals;
//! * **PE** — [`pso`]: the settings-free FST-PSO self-tuning particle
//!   swarm, with the relative-distance fitness of [`fitness`]; and
//!   [`gradient`]:
//!   exact-gradient calibration on batched forward sensitivities
//!   (projected L-BFGS and a PSO→L-BFGS hybrid) that reaches the swarm's
//!   final loss with orders of magnitude fewer ODE solves, plus
//!   derivative-based local sensitivity screening.
//!
//! [`throughput`] provides the time-budget accounting used by the published
//! "how many simulations fit in 24 hours" comparisons.
//!
//! [`campaign`] makes all three durable: a campaign decomposes into
//! deterministic numbered shards journaled in a crash-safe checkpoint
//! directory, so a killed run resumes exactly where it stopped and
//! reproduces the uninterrupted result byte for byte.

pub mod campaign;
pub mod dispatch;
pub mod ensemble;
pub mod fitness;
pub mod gradient;
pub mod oscillation;
pub mod pe;
pub mod psa;
pub mod pso;
pub mod sobol;
pub mod throughput;
