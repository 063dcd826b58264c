//! Sampled solutions and integration statistics.

/// Work counters accumulated during one integration.
///
/// These feed both the comparison tables (RHS evaluations dominate the cost
/// of large networks) and the virtual-GPU cost model, which converts the
/// counters into simulated device time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Attempted steps (accepted + rejected).
    pub steps: usize,
    /// Accepted steps.
    pub accepted: usize,
    /// Rejected steps (error test or nonlinear failure).
    pub rejected: usize,
    /// Right-hand-side evaluations.
    pub rhs_evals: usize,
    /// Jacobian evaluations.
    pub jacobian_evals: usize,
    /// LU decompositions (real + complex count as one each).
    pub lu_decompositions: usize,
    /// Triangular back-substitutions.
    pub linear_solves: usize,
    /// Newton / functional-iteration sweeps.
    pub nonlinear_iters: usize,
    /// `true` when an explicit solver's stiffness detector fired.
    pub stiffness_detected: bool,
}

impl StepStats {
    /// Merges another run's counters into this one (batch aggregation).
    pub fn absorb(&mut self, other: &StepStats) {
        self.steps += other.steps;
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.rhs_evals += other.rhs_evals;
        self.jacobian_evals += other.jacobian_evals;
        self.lu_decompositions += other.lu_decompositions;
        self.linear_solves += other.linear_solves;
        self.nonlinear_iters += other.nonlinear_iters;
        self.stiffness_detected |= other.stiffness_detected;
    }
}

/// A solution sampled at requested time points.
///
/// Row `i` of [`states`](Solution::states) is the full state at
/// [`times`](Solution::times)`[i]`.
///
/// # Example
///
/// ```
/// use paraspace_solvers::{Dopri5, FnSystem, OdeSolver, SolverOptions};
///
/// # fn main() -> Result<(), paraspace_solvers::SolveFailure> {
/// let sys = FnSystem::new(1, |_t, y, d| d[0] = y[0]);
/// let sol = Dopri5::new().solve(&sys, 0.0, &[1.0], &[0.5, 1.0], &SolverOptions::default())?;
/// assert_eq!(sol.len(), 2);
/// assert!((sol.state_at(1)[0] - 1.0f64.exp()).abs() < 1e-5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Solution {
    /// The sample times, as requested.
    pub times: Vec<f64>,
    /// One state vector per sample time.
    pub states: Vec<Vec<f64>>,
    /// Work counters for the whole integration.
    pub stats: StepStats,
}

impl Solution {
    /// Creates an empty solution shell with capacity for `n` samples.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Solution {
            times: Vec::with_capacity(n),
            states: Vec::with_capacity(n),
            stats: StepStats::default(),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the solution holds no samples.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The state at sample index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn state_at(&self, i: usize) -> &[f64] {
        &self.states[i]
    }

    /// The trajectory of a single component across all samples.
    ///
    /// # Panics
    ///
    /// Panics if `component` exceeds the system dimension.
    pub fn component(&self, component: usize) -> Vec<f64> {
        self.states.iter().map(|s| s[component]).collect()
    }

    /// The final sampled state, if any samples were requested.
    pub fn last_state(&self) -> Option<&[f64]> {
        self.states.last().map(|s| s.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates_counters() {
        let mut a = StepStats { steps: 3, rhs_evals: 10, ..StepStats::default() };
        let b =
            StepStats { steps: 2, rhs_evals: 5, stiffness_detected: true, ..StepStats::default() };
        a.absorb(&b);
        assert_eq!(a.steps, 5);
        assert_eq!(a.rhs_evals, 15);
        assert!(a.stiffness_detected);
    }

    #[test]
    fn component_extraction() {
        let sol = Solution {
            times: vec![0.0, 1.0],
            states: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
            stats: StepStats::default(),
        };
        assert_eq!(sol.component(1), vec![2.0, 4.0]);
        assert_eq!(sol.last_state(), Some(&[3.0, 4.0][..]));
        assert_eq!(sol.len(), 2);
        assert!(!sol.is_empty());
    }
}
