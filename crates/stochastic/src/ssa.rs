//! Gillespie's direct-method stochastic simulation algorithm.

use crate::chaos::{apply_faults, StochFault};
use crate::error::validate_propensities;
use crate::propensity::PropensityTable;
use crate::{StochasticError, StochasticSimulator, StochasticTrajectory};
use rand::Rng;

/// The exact SSA: at each event, the waiting time is exponential with rate
/// `a₀ = Σ aᵣ` and the firing reaction is chosen with probability
/// `aᵣ/a₀`.
///
/// # Example
///
/// ```
/// use paraspace_rbm::{Reaction, ReactionBasedModel};
/// use paraspace_stochastic::{DirectMethod, StochasticSimulator};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = ReactionBasedModel::new();
/// let a = m.add_species("A", 100.0);
/// m.add_reaction(Reaction::mass_action(&[(a, 1)], &[], 2.0))?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let traj = DirectMethod::new().simulate(&m, &[3.0], &mut rng)?;
/// assert!(traj.states[0][0] < 100, "decay must remove molecules");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirectMethod {
    _private: (),
}

impl DirectMethod {
    /// Creates the simulator.
    pub fn new() -> Self {
        DirectMethod { _private: () }
    }
}

impl StochasticSimulator for DirectMethod {
    fn name(&self) -> &'static str {
        "ssa"
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
                    // Absorbing state: nothing can fire anymore.
                    t = ts;
                    break;
                }
                let dt = -rng.gen::<f64>().max(f64::MIN_POSITIVE).ln() / a0;
                if t + dt > ts {
                    t = ts;
                    break;
                }
                t += dt;
                // Select the firing reaction.
                let mut target = rng.gen::<f64>() * a0;
                let mut chosen = table.n_reactions() - 1;
                for (r, &ar) in a.iter().enumerate() {
                    if target < ar {
                        chosen = r;
                        break;
                    }
                    target -= ar;
                }
                let fired = table.fire(chosen, &mut x);
                debug_assert!(fired, "positive propensity implies fireable reaction");
                traj.firings += 1;
                traj.steps += 1;
            }
            traj.times.push(ts);
            traj.states.push(x.clone());
        }
        Ok(traj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{initial_counts, StochFault};
    use paraspace_rbm::{Reaction, ReactionBasedModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn immigration_death(birth: f64, death: f64, x0: f64) -> ReactionBasedModel {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", x0);
        m.add_reaction(Reaction::mass_action(&[], &[(a, 1)], birth)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[], death)).unwrap();
        m
    }

    #[test]
    fn immigration_death_reaches_poisson_stationary_distribution() {
        // Stationary law is Poisson(birth/death): mean = var = 20.
        let m = immigration_death(20.0, 1.0, 0.0);
        let ssa = DirectMethod::new();
        let mut rng = StdRng::seed_from_u64(11);
        let mut values = Vec::new();
        for _ in 0..400 {
            let traj = ssa.simulate(&m, &[15.0], &mut rng).unwrap();
            values.push(traj.states[0][0] as f64);
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var =
            values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
        assert!((mean - 20.0).abs() < 1.0, "stationary mean {mean}");
        assert!((var - 20.0).abs() < 6.0, "stationary variance {var}");
    }

    #[test]
    fn closed_system_conserves_molecules() {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 500.0);
        let b = m.add_species("B", 100.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1.0)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 0.5)).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let traj = DirectMethod::new().simulate(&m, &[1.0, 5.0, 20.0], &mut rng).unwrap();
        for s in &traj.states {
            assert_eq!(s[0] + s[1], 600, "total molecules conserved");
        }
        assert!(traj.firings > 0);
    }

    #[test]
    fn absorbing_state_halts_cleanly() {
        // Pure decay: once empty, nothing fires; sampling must continue.
        let m = immigration_death(0.0, 5.0, 20.0);
        let mut rng = StdRng::seed_from_u64(3);
        let traj = DirectMethod::new().simulate(&m, &[10.0, 20.0, 30.0], &mut rng).unwrap();
        assert_eq!(traj.states[2][0], 0);
        assert_eq!(traj.times.len(), 3);
        assert!(traj.firings <= 20);
    }

    #[test]
    fn deterministic_under_seed() {
        let m = immigration_death(5.0, 0.5, 10.0);
        let a =
            DirectMethod::new().simulate(&m, &[1.0, 2.0], &mut StdRng::seed_from_u64(9)).unwrap();
        let b =
            DirectMethod::new().simulate(&m, &[1.0, 2.0], &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ensemble_mean_tracks_ode_for_linear_decay() {
        // E[X(t)] = X₀·e^{-kt} exactly for first-order decay.
        let m = immigration_death(0.0, 1.0, 200.0);
        let mut rng = StdRng::seed_from_u64(4);
        let ssa = DirectMethod::new();
        let t = 0.7f64;
        let n = 300;
        let mean: f64 = (0..n)
            .map(|_| ssa.simulate(&m, &[t], &mut rng).unwrap().states[0][0] as f64)
            .sum::<f64>()
            / n as f64;
        let exact = 200.0 * (-t).exp();
        assert!((mean - exact).abs() < 3.0, "ensemble mean {mean} vs ODE {exact}");
    }

    #[test]
    fn ssa_is_hardened_against_poisoned_propensities() {
        let m = immigration_death(5.0, 0.5, 10.0);
        let table = PropensityTable::new(&m);
        let x0 = initial_counts(&m);
        let faults = [StochFault::nan(1, 2)];
        let mut rng = StdRng::seed_from_u64(5);
        let err = DirectMethod::new()
            .simulate_counts(&table, &x0, &[5.0], &mut rng, &faults)
            .unwrap_err();
        assert!(matches!(err, StochasticError::BadPropensity { reaction: 1, .. }), "{err:?}");
    }
}
