//! Dominant-eigenvalue estimation.
//!
//! The batch simulator's stiffness-detection phase classifies each
//! simulation by the spectral radius of its Jacobian: a large dominant
//! eigenvalue magnitude indicates stiffness and routes the simulation to the
//! implicit Radau IIA solver. Two estimators are provided: a cheap
//! Gershgorin-disc bound and a power iteration for a sharper estimate.

use crate::{LinalgError, Matrix, SparsityPattern};

/// Result of a [`power_iteration`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerIterationResult {
    /// Estimated dominant eigenvalue magnitude (spectral radius estimate).
    pub eigenvalue_magnitude: f64,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Whether the estimate met the convergence tolerance.
    pub converged: bool,
}

/// Upper bound on the spectral radius via Gershgorin discs:
/// `max_i Σ_j |a_ij|` (the infinity norm).
///
/// Always an over-estimate, never an under-estimate, which makes it a safe
/// stiffness screen: systems whose bound is small are certainly non-stiff.
///
/// # Example
///
/// ```
/// use paraspace_linalg::{gershgorin_bound, Matrix};
///
/// let j = Matrix::from_rows(&[&[-1000.0, 1.0], &[0.0, -0.5]]);
/// assert!(gershgorin_bound(&j) >= 1000.0);
/// ```
pub fn gershgorin_bound(a: &Matrix) -> f64 {
    a.inf_norm()
}

/// Estimates the dominant eigenvalue magnitude of `a` by power iteration.
///
/// Iterates `x ← A x / ‖A x‖` until the Rayleigh-quotient magnitude changes
/// by less than `tol` (relative) or `max_iter` is reached. For matrices with
/// a complex dominant pair the magnitude estimate oscillates; the returned
/// value is the norm-growth factor, which still tracks the spectral radius.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for non-square input.
///
/// # Example
///
/// ```
/// use paraspace_linalg::{power_iteration, Matrix};
///
/// # fn main() -> Result<(), paraspace_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, -5.0]]);
/// let r = power_iteration(&a, 200, 1e-9)?;
/// assert!((r.eigenvalue_magnitude - 5.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn power_iteration(
    a: &Matrix,
    max_iter: usize,
    tol: f64,
) -> Result<PowerIterationResult, LinalgError> {
    power_iteration_by(a, max_iter, tol, |x, y| a.mul_vec_into(x, y))
}

/// [`power_iteration`] for a matrix whose entries off `pattern` are all
/// `+0.0` (an analytic Jacobian written over its structural sparsity): the
/// products walk the pattern, `nnz` multiplies a sweep instead of `n²`, and
/// every field of the result is the dense routine's to the bit — the
/// iterate stays finite (the loop returns before it would normalise by a
/// non-finite norm), which is all
/// [`Matrix::mul_vec_on_pattern_into`] needs.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for non-square input.
///
/// # Panics
///
/// Panics if `pattern` is not of `a`'s dimension.
pub fn power_iteration_on(
    a: &Matrix,
    pattern: &SparsityPattern,
    max_iter: usize,
    tol: f64,
) -> Result<PowerIterationResult, LinalgError> {
    power_iteration_by(a, max_iter, tol, |x, y| a.mul_vec_on_pattern_into(pattern, x, y))
}

/// The iteration under both entry points; `mul_vec` is `y ← A x`.
fn power_iteration_by(
    a: &Matrix,
    max_iter: usize,
    tol: f64,
    mul_vec: impl Fn(&[f64], &mut [f64]),
) -> Result<PowerIterationResult, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
    }
    let n = a.rows();
    if n == 0 {
        return Ok(PowerIterationResult {
            eigenvalue_magnitude: 0.0,
            iterations: 0,
            converged: true,
        });
    }
    // Deterministic, dimension-spanning start vector.
    let mut x: Vec<f64> =
        (0..n).map(|i| 1.0 + (i as f64) * 0.618_033_988_749_894_9 % 1.0).collect();
    let norm0 = crate::l2_norm(&x);
    x.iter_mut().for_each(|v| *v /= norm0);

    let mut y = vec![0.0; n];
    let mut prev = 0.0f64;
    for it in 1..=max_iter {
        mul_vec(&x, &mut y);
        let norm = crate::l2_norm(&y);
        if norm == 0.0 || !norm.is_finite() {
            return Ok(PowerIterationResult {
                eigenvalue_magnitude: norm,
                iterations: it,
                converged: norm == 0.0,
            });
        }
        for (xi, yi) in x.iter_mut().zip(y.iter()) {
            *xi = yi / norm;
        }
        let rel = (norm - prev).abs() / norm.max(1e-300);
        if rel < tol && it > 2 {
            return Ok(PowerIterationResult {
                eigenvalue_magnitude: norm,
                iterations: it,
                converged: true,
            });
        }
        prev = norm;
    }
    Ok(PowerIterationResult { eigenvalue_magnitude: prev, iterations: max_iter, converged: false })
}

/// Stiffness-oriented dominant-eigenvalue estimate combining both methods:
/// a short power iteration, falling back to the Gershgorin bound when the
/// iteration fails to converge (the bound is conservative, i.e. errs towards
/// classifying a system as stiff, which only costs performance, never
/// accuracy).
///
/// # Example
///
/// ```
/// use paraspace_linalg::{dominant_eigenvalue_estimate, Matrix};
///
/// let j = Matrix::from_rows(&[&[-2000.0, 0.0], &[1.0, -0.1]]);
/// assert!(dominant_eigenvalue_estimate(&j) > 500.0);
/// ```
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn dominant_eigenvalue_estimate(a: &Matrix) -> f64 {
    assert!(a.is_square(), "dominant eigenvalue requires a square matrix");
    estimate_from(power_iteration(a, 50, 1e-4), a)
}

/// [`dominant_eigenvalue_estimate`] through [`power_iteration_on`]: the
/// same estimate, bit for bit, for a matrix that is `+0.0` off `pattern`.
///
/// # Panics
///
/// Panics if `a` is not square or `pattern` is not of its dimension.
pub fn dominant_eigenvalue_estimate_on(a: &Matrix, pattern: &SparsityPattern) -> f64 {
    assert!(a.is_square(), "dominant eigenvalue requires a square matrix");
    estimate_from(power_iteration_on(a, pattern, 50, 1e-4), a)
}

fn estimate_from(iteration: Result<PowerIterationResult, LinalgError>, a: &Matrix) -> f64 {
    match iteration {
        Ok(r) if r.converged => r.eigenvalue_magnitude,
        _ => gershgorin_bound(a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gershgorin_bounds_diagonal_matrix_exactly() {
        let a = Matrix::from_rows(&[&[-3.0, 0.0], &[0.0, 2.0]]);
        assert_eq!(gershgorin_bound(&a), 3.0);
    }

    #[test]
    fn power_iteration_finds_dominant_eigenvalue() {
        // Eigenvalues 1 and 6 (matrix [[4,2],[1,3]] has eigenvalues 5 and 2).
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[1.0, 3.0]]);
        let r = power_iteration(&a, 500, 1e-12).unwrap();
        assert!(r.converged);
        assert!((r.eigenvalue_magnitude - 5.0).abs() < 1e-6, "got {}", r.eigenvalue_magnitude);
    }

    #[test]
    fn power_iteration_handles_negative_dominant() {
        let a = Matrix::from_rows(&[&[-10.0, 0.0], &[0.0, 1.0]]);
        let r = power_iteration(&a, 500, 1e-10).unwrap();
        assert!((r.eigenvalue_magnitude - 10.0).abs() < 1e-5);
    }

    #[test]
    fn power_iteration_zero_matrix() {
        let a = Matrix::zeros(3, 3);
        let r = power_iteration(&a, 10, 1e-8).unwrap();
        assert_eq!(r.eigenvalue_magnitude, 0.0);
        assert!(r.converged);
    }

    #[test]
    fn power_iteration_rejects_rectangular() {
        let a = Matrix::zeros(2, 3);
        assert!(power_iteration(&a, 10, 1e-8).is_err());
    }

    #[test]
    fn estimate_flags_stiff_jacobian() {
        // A fast/slow two-mode system: eigenvalues -1e4 and -0.1.
        let a = Matrix::from_rows(&[&[-1e4, 0.0], &[5.0, -0.1]]);
        let est = dominant_eigenvalue_estimate(&a);
        assert!(est > 500.0, "stiff system must exceed the threshold, got {est}");
    }

    #[test]
    fn estimate_keeps_nonstiff_jacobian_small() {
        let a = Matrix::from_rows(&[&[-1.0, 0.3], &[0.2, -2.0]]);
        let est = dominant_eigenvalue_estimate(&a);
        assert!(est < 500.0, "non-stiff system must stay under threshold, got {est}");
    }

    #[test]
    fn estimate_is_conservative_under_rotation_dominance() {
        // Complex dominant pair (rotation scaled by 100): power iteration may
        // not converge, Gershgorin fallback still reports roughly 100-200.
        let a = Matrix::from_rows(&[&[0.0, -100.0], &[100.0, 0.0]]);
        let est = dominant_eigenvalue_estimate(&a);
        assert!(est >= 99.0);
    }

    /// A matrix of `n × n` with about `density` of its entries non-zero
    /// (mixed signs and magnitudes, from a small LCG), and the pattern of
    /// exactly those entries; everything else is `+0.0`.
    fn sparse_case(n: usize, density: f64, seed: u64) -> (Matrix, SparsityPattern) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut a = Matrix::zeros(n, n);
        let mut entries = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if next() < density {
                    a[(i, j)] = (next() - 0.5) * 10f64.powf(next() * 6.0 - 2.0);
                    entries.push((i, j));
                }
            }
        }
        (a, SparsityPattern::from_entries(n, entries))
    }

    /// Both routines on one matrix; every field must agree to the bit, and
    /// so must the estimate with its Gershgorin fallback.
    fn assert_walk_is_dense(a: &Matrix, pattern: &SparsityPattern, max_iter: usize, what: &str) {
        let dense = power_iteration(a, max_iter, 1e-4).unwrap();
        let walked = power_iteration_on(a, pattern, max_iter, 1e-4).unwrap();
        assert_eq!(
            walked.eigenvalue_magnitude.to_bits(),
            dense.eigenvalue_magnitude.to_bits(),
            "{what}: {walked:?} vs {dense:?}"
        );
        assert_eq!(
            (walked.iterations, walked.converged),
            (dense.iterations, dense.converged),
            "{what}"
        );
        assert_eq!(
            dominant_eigenvalue_estimate_on(a, pattern).to_bits(),
            dominant_eigenvalue_estimate(a).to_bits(),
            "{what}"
        );
    }

    #[test]
    fn pattern_walk_is_the_dense_iteration_on_random_sparse_matrices() {
        for (case, density) in [0.03, 0.1, 0.25, 0.6].into_iter().enumerate() {
            for n in [1, 2, 7, 31, 64] {
                for seed in 0..6 {
                    let (a, pattern) = sparse_case(n, density, seed + 100 * case as u64);
                    for max_iter in [1, 3, 50] {
                        let what = format!("n {n}, density {density}, seed {seed}, {max_iter} it");
                        assert_walk_is_dense(&a, &pattern, max_iter, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn pattern_walk_is_the_dense_iteration_when_structural_entries_are_zero_or_negative_zero() {
        // On-pattern zeros of either sign are multiplied, not skipped.
        let (mut a, pattern) = sparse_case(9, 0.4, 5);
        for (count, i) in (0..9).enumerate() {
            for &j in pattern.row(i) {
                match (count + j as usize) % 3 {
                    0 => a[(i, j as usize)] = 0.0,
                    1 => a[(i, j as usize)] = -0.0,
                    _ => {}
                }
            }
        }
        assert_walk_is_dense(&a, &pattern, 50, "signed zeros on the pattern");
        // The zero matrix under a full and under an empty pattern.
        let zero = Matrix::zeros(4, 4);
        let full = SparsityPattern::from_entries(4, (0..16).map(|e| (e / 4, e % 4)));
        assert_walk_is_dense(&zero, &full, 10, "zero matrix, full pattern");
        assert_walk_is_dense(&zero, &SparsityPattern::from_entries(4, []), 10, "empty pattern");
        let walked = power_iteration_on(&zero, &full, 10, 1e-8).unwrap();
        assert!(walked.converged && walked.eigenvalue_magnitude == 0.0 && walked.iterations == 1);
    }

    #[test]
    fn pattern_walk_takes_the_gershgorin_fallback_the_dense_iteration_takes() {
        // A scaled rotation inside a larger sparse matrix: the norm-growth
        // factor oscillates and 50 sweeps do not settle.
        let mut a = Matrix::zeros(5, 5);
        a[(0, 1)] = -100.0;
        a[(1, 0)] = 120.0;
        a[(3, 3)] = 0.5;
        let pattern = SparsityPattern::from_entries(5, [(0, 1), (1, 0), (3, 3)]);
        let walked = power_iteration_on(&a, &pattern, 50, 1e-4).unwrap();
        assert!(!walked.converged);
        assert_eq!(dominant_eigenvalue_estimate_on(&a, &pattern), gershgorin_bound(&a));
        assert_walk_is_dense(&a, &pattern, 50, "non-converging rotation");
    }

    #[test]
    fn pattern_walk_is_the_dense_iteration_on_non_finite_structural_entries() {
        for poison in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            for (n, density) in [(6, 0.3), (20, 0.1)] {
                let (mut a, pattern) = sparse_case(n, density, 11);
                let i = (0..n).find(|&i| !pattern.row(i).is_empty()).unwrap();
                a[(i, pattern.row(i)[0] as usize)] = poison;
                let walked = power_iteration_on(&a, &pattern, 50, 1e-4).unwrap();
                assert!(!walked.converged && !walked.eigenvalue_magnitude.is_finite());
                assert_walk_is_dense(&a, &pattern, 50, &format!("{poison} on the pattern, n {n}"));
            }
        }
    }

    #[test]
    fn empty_matrix_estimate_is_zero() {
        let r = power_iteration(&Matrix::zeros(0, 0), 10, 1e-8).unwrap();
        assert_eq!(r.eigenvalue_magnitude, 0.0);
    }
}
