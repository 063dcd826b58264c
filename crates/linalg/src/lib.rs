// Index-based loops are used deliberately throughout the numerical
// kernels: they mirror the reference Fortran/C formulations and keep
// multi-array stride arithmetic explicit.
#![allow(clippy::needless_range_loop)]

//! Dense linear algebra for the `paraspace` simulation suite.
//!
//! This crate provides exactly the kernel operations the Radau IIA and
//! multistep ODE solvers need, implemented from scratch:
//!
//! * [`Complex64`] — double-precision complex arithmetic (the Radau IIA
//!   Newton iteration factorizes one real and one complex system per step),
//! * [`Matrix`] / [`CMatrix`] — dense row-major real and complex matrices,
//! * [`LuFactor`] / [`CluFactor`] — LU decomposition with partial pivoting
//!   plus forward/backward substitution, and a batched driver used by the
//!   virtual-GPU engines as the cuBLAS substitute,
//! * [`BatchLuFactor`] / [`BatchCluFactor`] — the same factorizations for
//!   the masked lanes of a lockstep lane group, lane-major, through the
//!   same elimination and substitution routines,
//! * [`SparsityPattern`] — the structural nonzero pattern of a Jacobian,
//!   read by the sensitivity `J·S` passes (every factorization is dense),
//! * [`LaneWidth`] / [`with_lane_width!`] — the fixed-length row type every
//!   lane-minor row pass of the lockstep kernels is written over,
//! * norms (including the weighted RMS norm used for local error control),
//! * dominant-eigenvalue estimation (Gershgorin bound and power iteration)
//!   used by the stiffness-detection phase of the batch simulator,
//! * finite-difference Jacobian approximation.
//!
//! # Example
//!
//! ```
//! use paraspace_linalg::{Matrix, LuFactor};
//!
//! # fn main() -> Result<(), paraspace_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let lu = LuFactor::new(a)?;
//! let mut b = vec![1.0, 2.0];
//! lu.solve_in_place(&mut b);
//! assert!((4.0 * b[0] + 1.0 * b[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod batch_lu;
mod complex;
mod eigen;
mod error;
mod isa;
mod jacobian;
mod lu;
mod matrix;
mod norms;
mod pattern;
mod rows;

pub use batch_lu::{BatchCluFactor, BatchLuFactor};
pub use complex::Complex64;
pub use eigen::{
    dominant_eigenvalue_estimate, dominant_eigenvalue_estimate_on, gershgorin_bound,
    power_iteration, power_iteration_on, PowerIterationResult,
};
pub use error::LinalgError;
pub use isa::avx2_detected;
pub use jacobian::{finite_difference_jacobian, finite_difference_jacobian_into};
pub use lu::{batched_lu, CluFactor, LuFactor};
pub use matrix::{CMatrix, Matrix};
pub use norms::{inf_norm, l1_norm, l2_norm, rms_norm, weighted_rms_norm};
pub use pattern::SparsityPattern;
pub use rows::{AnyWidth, FixedWidth, LaneWidth};
