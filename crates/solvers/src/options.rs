//! Shared solver configuration.

use crate::step::Column;

/// Tolerances and step-control options shared by every solver.
///
/// The defaults mirror the published experimental setup: absolute tolerance
/// `εa = 10⁻¹²`, relative tolerance `εr = 10⁻⁶`, and a cap of `10⁴` steps
/// per sampling interval (the values used by COPASI and the comparison
/// study).
///
/// # Example
///
/// ```
/// use paraspace_solvers::SolverOptions;
///
/// let opts = SolverOptions { rel_tol: 1e-8, ..SolverOptions::default() };
/// assert_eq!(opts.abs_tol, 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SolverOptions {
    /// Relative error tolerance `εr`.
    pub rel_tol: f64,
    /// Absolute error tolerance `εa`.
    pub abs_tol: f64,
    /// Initial step size; `None` selects automatically (Hairer's `hinit`).
    pub initial_step: Option<f64>,
    /// Upper bound on the step size.
    pub max_step: f64,
    /// Maximum number of integration steps per sampling interval.
    pub max_steps: usize,
    /// Total attempted-step budget for the whole integration; `None` means
    /// unlimited. Unlike [`max_steps`](SolverOptions::max_steps) (per
    /// sampling interval), this is a hard deterministic deadline across
    /// all intervals, checked in the explicit step loops (DOPRI5 scalar
    /// and lane-batched, RKF45) so one pathological member cannot stall a
    /// batch. Exceeding it fails with
    /// [`SolverError::StepBudgetExhausted`](crate::SolverError::StepBudgetExhausted).
    pub step_budget: Option<usize>,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            rel_tol: 1e-6,
            abs_tol: 1e-12,
            initial_step: None,
            max_step: f64::INFINITY,
            max_steps: 10_000,
            step_budget: None,
        }
    }
}

impl SolverOptions {
    /// Options with the given tolerances and published defaults elsewhere.
    pub fn with_tolerances(rel_tol: f64, abs_tol: f64) -> Self {
        SolverOptions { rel_tol, abs_tol, ..SolverOptions::default() }
    }

    /// The error scale `scᵢ = εa + εr·|yᵢ|` written into `scale`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn error_scale(&self, y: &[f64], scale: &mut [f64]) {
        assert_eq!(y.len(), scale.len());
        self.error_scale_at(Column::whole(y.len()), y, scale);
    }

    /// [`error_scale`](Self::error_scale) over `col` of `y` into the same
    /// column of `scale`: one lane's column of a lockstep kernel's blocks.
    #[inline]
    pub(crate) fn error_scale_at(&self, col: Column, y: &[f64], scale: &mut [f64]) {
        for i in col.indices() {
            scale[i] = self.abs_tol + self.rel_tol * y[i].abs();
        }
    }

    /// Error scale against the pairwise maximum of two states (used by
    /// one-step methods comparing `y` and `y_new`).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn error_scale_pair(&self, y0: &[f64], y1: &[f64], scale: &mut [f64]) {
        assert_eq!(y0.len(), scale.len());
        assert_eq!(y1.len(), scale.len());
        for i in 0..scale.len() {
            scale[i] = self.abs_tol + self.rel_tol * y0[i].abs().max(y1[i].abs());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_published_setup() {
        let o = SolverOptions::default();
        assert_eq!(o.rel_tol, 1e-6);
        assert_eq!(o.abs_tol, 1e-12);
        assert_eq!(o.max_steps, 10_000);
    }

    #[test]
    fn error_scale_combines_tolerances() {
        let o = SolverOptions::with_tolerances(1e-3, 1e-6);
        let mut sc = [0.0; 2];
        o.error_scale(&[2.0, 0.0], &mut sc);
        assert!((sc[0] - 2.001e-3).abs() < 1e-12);
        assert_eq!(sc[1], 1e-6);
    }

    #[test]
    fn pairwise_scale_uses_larger_state() {
        let o = SolverOptions::with_tolerances(1.0, 0.0);
        let mut sc = [0.0; 1];
        o.error_scale_pair(&[1.0], &[5.0], &mut sc);
        assert_eq!(sc[0], 5.0);
    }
}
