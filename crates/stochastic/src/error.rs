//! Typed failures of the stochastic simulators.

use paraspace_rbm::RbmError;

/// Why a stochastic simulation (or one ensemble replicate) failed.
#[derive(Debug, Clone)]
pub enum StochasticError {
    /// The model failed validation or compilation.
    Model(RbmError),
    /// A propensity evaluated to a non-finite or negative value —
    /// combinatorial overflow on huge populations, a NaN rate constant,
    /// or an injected fault. Caught *before* `select_tau`/event selection
    /// can be driven to garbage.
    BadPropensity {
        /// The offending reaction index.
        reaction: usize,
        /// The value it evaluated to.
        value: f64,
        /// Simulation time at the evaluation.
        t: f64,
        /// Algorithm steps completed before the evaluation.
        step: u64,
    },
    /// An ensemble run was asked for zero replicates.
    EmptyEnsemble,
    /// The batch's cancellation token tripped before every replicate
    /// settled; the partial ensemble was discarded (it reruns bitwise).
    Cancelled,
}

// Manual equality: `BadPropensity` carries the offending value, which is
// often NaN; the bitwise determinism contract wants two identical failures
// to compare equal, so floats are compared by bit pattern.
impl PartialEq for StochasticError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (StochasticError::Model(a), StochasticError::Model(b)) => a == b,
            (
                StochasticError::BadPropensity { reaction, value, t, step },
                StochasticError::BadPropensity { reaction: r2, value: v2, t: t2, step: s2 },
            ) => {
                reaction == r2
                    && value.to_bits() == v2.to_bits()
                    && t.to_bits() == t2.to_bits()
                    && step == s2
            }
            (StochasticError::EmptyEnsemble, StochasticError::EmptyEnsemble)
            | (StochasticError::Cancelled, StochasticError::Cancelled) => true,
            _ => false,
        }
    }
}

impl Eq for StochasticError {}

impl std::fmt::Display for StochasticError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StochasticError::Model(e) => write!(f, "model error: {e}"),
            StochasticError::BadPropensity { reaction, value, t, step } => write!(
                f,
                "propensity of reaction {reaction} evaluated to {value} at t = {t} \
                 (step {step}); propensities must be finite and non-negative"
            ),
            StochasticError::EmptyEnsemble => {
                write!(f, "stochastic batch: at least one replicate required")
            }
            StochasticError::Cancelled => write!(f, "ensemble cancelled before completion"),
        }
    }
}

impl std::error::Error for StochasticError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StochasticError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RbmError> for StochasticError {
    fn from(e: RbmError) -> Self {
        StochasticError::Model(e)
    }
}

impl From<paraspace_exec::Cancelled> for StochasticError {
    fn from(_: paraspace_exec::Cancelled) -> Self {
        StochasticError::Cancelled
    }
}

/// Validates a freshly evaluated propensity vector: every entry must be
/// finite and non-negative. Checked in reaction order so scalar and
/// lane-batched paths report the same first offender.
pub(crate) fn validate_propensities(a: &[f64], t: f64, step: u64) -> Result<(), StochasticError> {
    for (r, &ar) in a.iter().enumerate() {
        if !ar.is_finite() || ar < 0.0 {
            return Err(StochasticError::BadPropensity { reaction: r, value: ar, t, step });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_reports_first_offender_in_reaction_order() {
        assert!(validate_propensities(&[0.0, 1.5, 2.0], 0.1, 3).is_ok());
        let err = validate_propensities(&[1.0, f64::NAN, -2.0], 0.5, 7).unwrap_err();
        match err {
            StochasticError::BadPropensity { reaction, value, t, step } => {
                assert_eq!(reaction, 1);
                assert!(value.is_nan());
                assert_eq!(t, 0.5);
                assert_eq!(step, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = validate_propensities(&[-0.5], 0.0, 0).unwrap_err();
        assert!(matches!(err, StochasticError::BadPropensity { reaction: 0, .. }));
    }

    #[test]
    fn identical_nan_failures_compare_equal() {
        let a = StochasticError::BadPropensity { reaction: 1, value: f64::NAN, t: 0.5, step: 7 };
        let b = StochasticError::BadPropensity { reaction: 1, value: f64::NAN, t: 0.5, step: 7 };
        assert_eq!(a, b, "bitwise-identical failures are the same failure");
        let c = StochasticError::BadPropensity { reaction: 2, value: f64::NAN, t: 0.5, step: 7 };
        assert_ne!(a, c);
    }

    #[test]
    fn display_is_informative() {
        let e = StochasticError::BadPropensity { reaction: 2, value: f64::NAN, t: 1.0, step: 9 };
        let s = e.to_string();
        assert!(s.contains("reaction 2") && s.contains("step 9"), "{s}");
        assert!(StochasticError::EmptyEnsemble.to_string().contains("replicate"));
    }
}
