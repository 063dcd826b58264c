//! Deterministic fault injection for the stochastic simulators.
//!
//! The deterministic engines exercise their recovery ladder with
//! `paraspace_solvers::chaos` (NaN/panic/stall faults at a time or RHS
//! ordinal). The stochastic half gets the same treatment at its natural
//! seam: the propensity evaluation. A [`StochFault`] poisons one
//! reaction's propensity to NaN at a chosen *evaluation ordinal* of one
//! replicate; the hardened simulators catch the NaN as a typed
//! [`StochasticError::BadPropensity`](crate::StochasticError::BadPropensity)
//! before tau selection or event selection can consume it.
//!
//! Faults are deterministic by construction — the ordinal counter is part
//! of the replicate's own loop, and the counter-based RNG gives the
//! replicate the same draw sequence on every rerun — so a retried
//! replicate re-faults identically, exactly like the latching
//! `ChaosSystem` faults on the ODE side. A poison is a NaN, never a panic,
//! so fault-planned replicates share the lane groups with the rest: the
//! lane kernel poisons a lane's propensities at that lane's own ordinal,
//! and the same hardening check retires it with the scalar path's exact
//! error. One poisoned replicate becomes one contained per-replicate error
//! while every other replicate's trajectory stays bitwise unchanged.

use std::collections::BTreeMap;

/// One injected propensity fault: at the `at_eval`-th propensity
/// evaluation (0-based) of the afflicted replicate, reaction `reaction`'s
/// propensity becomes NaN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StochFault {
    /// Reaction whose propensity is poisoned.
    pub reaction: usize,
    /// Evaluation ordinal (0-based) at which the poison lands.
    pub at_eval: u64,
}

impl StochFault {
    /// A NaN poison on `reaction` at evaluation ordinal `at_eval`.
    pub fn nan(reaction: usize, at_eval: u64) -> Self {
        StochFault { reaction, at_eval }
    }
}

/// A deterministic fault plan for an ensemble: replicate index → faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StochFaultPlan {
    faults: BTreeMap<usize, Vec<StochFault>>,
}

impl StochFaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        StochFaultPlan::default()
    }

    /// Adds a fault for `replicate` (builder style).
    pub fn poison(mut self, replicate: usize, fault: StochFault) -> Self {
        self.faults.entry(replicate).or_default().push(fault);
        self
    }

    /// The faults planned for `replicate` (empty slice if none).
    pub fn faults_for(&self, replicate: usize) -> &[StochFault] {
        self.faults.get(&replicate).map_or(&[], Vec::as_slice)
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The afflicted replicate indices, ascending.
    pub fn replicates(&self) -> impl Iterator<Item = usize> + '_ {
        self.faults.keys().copied()
    }
}

/// Applies the faults due at evaluation ordinal `eval` to freshly
/// evaluated propensities, reaction `r`'s at `a[r * stride]`: `stride` 1
/// for one replicate's vector, the lane width for one lane of a lane
/// group's reaction-major block (`a` then starts at the lane). Returns
/// `true` if anything was poisoned.
pub(crate) fn apply_faults(faults: &[StochFault], eval: u64, a: &mut [f64], stride: usize) -> bool {
    let mut hit = false;
    for f in faults {
        if f.at_eval == eval && f.reaction < a.len().div_ceil(stride) {
            a[f.reaction * stride] = f64::NAN;
            hit = true;
        }
    }
    hit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_per_replicate_and_ordered() {
        let plan = StochFaultPlan::new()
            .poison(7, StochFault::nan(0, 3))
            .poison(2, StochFault::nan(1, 0))
            .poison(7, StochFault::nan(2, 5));
        assert_eq!(plan.faults_for(7).len(), 2);
        assert_eq!(plan.faults_for(3), &[]);
        assert_eq!(plan.replicates().collect::<Vec<_>>(), vec![2, 7]);
        assert!(!plan.is_empty());
        assert!(StochFaultPlan::new().is_empty());
    }

    #[test]
    fn faults_land_only_at_their_ordinal() {
        let faults = [StochFault::nan(1, 2)];
        let mut a = [1.0, 2.0, 3.0];
        assert!(!apply_faults(&faults, 1, &mut a, 1));
        assert_eq!(a, [1.0, 2.0, 3.0]);
        assert!(apply_faults(&faults, 2, &mut a, 1));
        assert!(a[1].is_nan());
        assert_eq!((a[0], a[2]), (1.0, 3.0));
    }

    #[test]
    fn lane_faults_land_in_their_lane_only() {
        // Three reactions × two lanes, reaction-major: lane 1 of reaction 2
        // sits at 2·2 + 1. Reaction 3 does not exist.
        let faults = [StochFault::nan(2, 0), StochFault::nan(3, 0)];
        let mut a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert!(apply_faults(&faults, 0, &mut a[1..], 2));
        assert!(a[5].is_nan());
        assert_eq!(a[..5], [1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn out_of_range_reactions_are_ignored() {
        let faults = [StochFault::nan(9, 0)];
        let mut a = [1.0];
        assert!(!apply_faults(&faults, 0, &mut a, 1));
        assert_eq!(a, [1.0]);
    }
}
