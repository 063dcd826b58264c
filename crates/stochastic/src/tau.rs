//! Tau-leaping: approximate accelerated stochastic simulation.
//!
//! Implements the Cao–Gillespie–Petzold adaptive step selection: the leap
//! `τ` is the largest step for which every species' expected relative
//! change stays below `ε`, each reaction then fires `Poisson(aᵣ·τ)` times.
//! When the selected leap is no better than a few exact events, or a leap
//! would drive a population negative, the simulator falls back to SSA
//! steps — the standard hybrid safeguard.

use crate::chaos::{apply_faults, StochFault};
use crate::error::validate_propensities;
use crate::propensity::PropensityTable;
use crate::sampling::poisson;
use crate::tau_batch::TauLeapBatch;
use crate::{StochasticError, StochasticSimulator, StochasticTrajectory};
use rand::Rng;

/// Relative-change tolerance ε of the Cao tau selection (Cao et al.'s
/// recommended 0.03).
pub(crate) const EPSILON: f64 = 0.03;

/// Fall back to SSA when a leap would cover fewer than this many expected
/// events.
pub(crate) const SSA_THRESHOLD: f64 = 10.0;

/// The tau-leaping simulator.
///
/// # Example
///
/// ```
/// use paraspace_rbm::{Reaction, ReactionBasedModel};
/// use paraspace_stochastic::{StochasticSimulator, TauLeaping};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = ReactionBasedModel::new();
/// let a = m.add_species("A", 10_000.0);
/// m.add_reaction(Reaction::mass_action(&[(a, 1)], &[], 1.0))?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let traj = TauLeaping::new().simulate(&m, &[1.0], &mut rng)?;
/// // Leaping needs orders of magnitude fewer steps than the ~6300 SSA events.
/// assert!(traj.steps < 1000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TauLeaping {
    _private: (),
}

impl Default for TauLeaping {
    fn default() -> Self {
        TauLeaping::new()
    }
}

impl TauLeaping {
    /// A simulator with ε = 0.03 (Cao et al.'s recommendation).
    pub fn new() -> Self {
        TauLeaping { _private: () }
    }

    /// The Cao tau-selection bound at state `x` with propensities `a`.
    fn select_tau(&self, table: &PropensityTable, x: &[u64], a: &[f64]) -> f64 {
        let n = table.n_species();
        let m = table.n_reactions();
        let mut tau = f64::INFINITY;
        for s in 0..n {
            // μ_s = Σ_r ν_rs a_r ; σ²_s = Σ_r ν_rs² a_r.
            let mut mu = 0.0;
            let mut sigma2 = 0.0;
            for r in 0..m {
                let v = table.net_change(r, s) as f64;
                if v != 0.0 {
                    mu += v * a[r];
                    sigma2 += v * v * a[r];
                }
            }
            if mu == 0.0 && sigma2 == 0.0 {
                continue;
            }
            // g_i ≈ highest reactant order touching s (2 is a safe bound
            // for the ≤2-order networks here).
            let bound = (EPSILON * x[s] as f64 / 2.0).max(1.0);
            if mu != 0.0 {
                tau = tau.min(bound / mu.abs());
            }
            if sigma2 != 0.0 {
                tau = tau.min(bound * bound / sigma2);
            }
        }
        tau
    }
}

impl StochasticSimulator for TauLeaping {
    fn name(&self) -> &'static str {
        "tau-leaping"
    }

    fn simulate_counts<R: Rng + ?Sized>(
        &self,
        table: &PropensityTable,
        x0: &[u64],
        times: &[f64],
        rng: &mut R,
        faults: &[StochFault],
    ) -> Result<StochasticTrajectory, StochasticError> {
        let mut x = x0.to_vec();
        let mut a = vec![0.0; table.n_reactions()];
        let mut t = 0.0f64;
        let mut evals = 0u64;
        let mut traj = StochasticTrajectory {
            times: Vec::with_capacity(times.len()),
            states: Vec::with_capacity(times.len()),
            firings: 0,
            steps: 0,
        };

        for &ts in times {
            while t < ts {
                let a0 = table.propensities_into(&x, &mut a);
                apply_faults(faults, evals, &mut a, 1);
                evals += 1;
                validate_propensities(&a, t, traj.steps)?;
                if a0 <= 0.0 {
                    t = ts;
                    break;
                }
                let tau = self.select_tau(table, &x, &a).min(ts - t);

                if tau * a0 < SSA_THRESHOLD {
                    // Exact fallback: a handful of SSA events.
                    let dt = -rng.gen::<f64>().max(f64::MIN_POSITIVE).ln() / a0;
                    if t + dt > ts {
                        t = ts;
                        break;
                    }
                    t += dt;
                    let mut target = rng.gen::<f64>() * a0;
                    let mut chosen = table.n_reactions() - 1;
                    for (r, &ar) in a.iter().enumerate() {
                        if target < ar {
                            chosen = r;
                            break;
                        }
                        target -= ar;
                    }
                    table.fire(chosen, &mut x);
                    traj.firings += 1;
                    traj.steps += 1;
                    continue;
                }

                // Leap: sample firings, retrying with τ/2 on a negative
                // excursion (the standard rejection safeguard).
                let mut leap_tau = tau;
                'leap: loop {
                    let mut candidate = x.clone();
                    let mut fired = 0u64;
                    for (r, &ar) in a.iter().enumerate() {
                        if ar <= 0.0 {
                            continue;
                        }
                        let k = poisson(ar * leap_tau, rng);
                        if k > 0 && !table.apply(r, k, &mut candidate) {
                            leap_tau *= 0.5;
                            if leap_tau * a0 < 1.0 {
                                // Too constrained: do one SSA event instead.
                                break 'leap;
                            }
                            continue 'leap;
                        }
                        fired += k;
                    }
                    x = candidate;
                    t += leap_tau;
                    traj.firings += fired;
                    traj.steps += 1;
                    break;
                }
            }
            traj.times.push(ts);
            traj.states.push(x.clone());
        }
        Ok(traj)
    }

    fn lane_kernel(&self) -> Option<TauLeapBatch> {
        Some(TauLeapBatch::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::StochFault;
    use crate::{initial_counts, DirectMethod};
    use paraspace_rbm::{Reaction, ReactionBasedModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn decay(x0: f64, k: f64) -> ReactionBasedModel {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", x0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[], k)).unwrap();
        m
    }

    #[test]
    fn leaping_is_far_cheaper_than_ssa_on_large_populations() {
        let m = decay(100_000.0, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let tau = TauLeaping::new().simulate(&m, &[1.0], &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let ssa = DirectMethod::new().simulate(&m, &[1.0], &mut rng).unwrap();
        assert!(tau.steps * 20 < ssa.steps, "tau {} steps vs ssa {} steps", tau.steps, ssa.steps);
    }

    #[test]
    fn leaping_mean_matches_ode() {
        let m = decay(50_000.0, 1.0);
        let t = 0.5f64;
        let exact = 50_000.0 * (-t).exp();
        let mut rng = StdRng::seed_from_u64(2);
        let sim = TauLeaping::new();
        let n = 40;
        let mean: f64 = (0..n)
            .map(|_| sim.simulate(&m, &[t], &mut rng).unwrap().states[0][0] as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - exact).abs() / exact < 0.01, "tau-leaping mean {mean} vs ODE {exact}");
    }

    #[test]
    fn leaping_agrees_with_ssa_distributionally() {
        // Reversible isomerization: compare ensemble means at equilibrium.
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 2000.0);
        let b = m.add_species("B", 0.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 2.0)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 1.0)).unwrap();
        // Equilibrium: A/(A+B) = 1/3.
        let mut rng = StdRng::seed_from_u64(3);
        let sim = TauLeaping::new();
        let n = 30;
        let mean_a: f64 = (0..n)
            .map(|_| sim.simulate(&m, &[10.0], &mut rng).unwrap().states[0][0] as f64)
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean_a - 2000.0 / 3.0).abs() < 25.0,
            "equilibrium A mean {mean_a} vs {}",
            2000.0 / 3.0
        );
    }

    #[test]
    fn small_populations_fall_back_to_exact_events() {
        // With ~10 molecules every leap is tiny: steps ≈ firings (SSA mode).
        let m = decay(10.0, 1.0);
        let mut rng = StdRng::seed_from_u64(4);
        let traj = TauLeaping::new().simulate(&m, &[5.0], &mut rng).unwrap();
        assert_eq!(traj.states[0][0] + traj.firings, 10, "every event accounted for");
        assert_eq!(traj.steps, traj.firings, "small populations must run exactly");
    }

    #[test]
    fn conservation_holds_through_leaps() {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 50_000.0);
        let b = m.add_species("B", 0.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 3.0)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 1.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let traj = TauLeaping::new().simulate(&m, &[0.5, 1.0, 2.0], &mut rng).unwrap();
        for s in &traj.states {
            assert_eq!(s[0] + s[1], 50_000);
        }
    }

    #[test]
    fn overflowing_propensity_is_a_typed_error() {
        // A finite-but-huge rate constant passes model validation, then
        // overflows to +∞ in the very first propensity evaluation; the
        // hardening layer must catch it before `select_tau` sees it.
        let m = decay(1000.0, f64::MAX);
        let mut rng = StdRng::seed_from_u64(7);
        let err = TauLeaping::new().simulate(&m, &[1.0], &mut rng).unwrap_err();
        assert!(
            matches!(
                err,
                StochasticError::BadPropensity { reaction: 0, value: f64::INFINITY, step: 0, .. }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn injected_fault_trips_at_its_ordinal_deterministically() {
        let m = decay(100_000.0, 1.0);
        let table = PropensityTable::new(&m);
        let x0 = initial_counts(&m);
        let faults = [StochFault::nan(0, 4)];
        let run = || {
            let mut rng = StdRng::seed_from_u64(8);
            TauLeaping::new().simulate_counts(&table, &x0, &[1.0], &mut rng, &faults)
        };
        let (a, b) = (run().unwrap_err(), run().unwrap_err());
        assert_eq!(a, b, "retries must re-fault identically");
        match a {
            StochasticError::BadPropensity { reaction, value, step, .. } => {
                assert_eq!(reaction, 0);
                assert!(value.is_nan());
                assert!(step <= 4, "each evaluation commits at most one step, got {step}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
