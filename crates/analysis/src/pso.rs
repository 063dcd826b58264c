//! Particle swarm optimization: an FST-PSO-style self-tuning swarm.
//!
//! The published parameter-estimation pipeline couples a fuzzy self-tuning
//! PSO (FST-PSO — a settings-free PSO whose per-particle inertia and
//! acceleration coefficients are adapted by fuzzy rules on the particle's
//! recent *improvement* and its *distance from the global best*) with the
//! batch simulator: each generation's swarm is one simulation batch. Only
//! the budget (swarm size, generations) and the seed are settable.
//!
//! Objectives expose batch evaluation ([`Objective::evaluate_batch`]) so an
//! engine can price a whole generation as one coarse-grained launch.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An optimization objective (minimized).
pub trait Objective {
    /// Evaluates one point.
    fn evaluate(&mut self, x: &[f64]) -> f64 {
        self.evaluate_batch(std::slice::from_ref(&x.to_vec()))[0]
    }

    /// Evaluates a batch of points; engines override this to run the whole
    /// generation as one batch.
    fn evaluate_batch(&mut self, xs: &[Vec<f64>]) -> Vec<f64>;
}

impl<F: FnMut(&[f64]) -> f64> Objective for F {
    fn evaluate_batch(&mut self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self(x)).collect()
    }
}

/// PSO configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PsoConfig {
    /// Particles; `None` uses the FST-PSO heuristic `⌊10 + 2√d⌋`.
    pub swarm_size: Option<usize>,
    /// Generations.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PsoConfig {
    fn default() -> Self {
        PsoConfig { swarm_size: None, iterations: 50, seed: 42 }
    }
}

/// Result of an optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct PsoResult {
    /// Best position found.
    pub best_position: Vec<f64>,
    /// Its fitness.
    pub best_fitness: f64,
    /// Best fitness after each generation.
    pub history: Vec<f64>,
    /// Total objective evaluations.
    pub evaluations: usize,
}

/// The FST-PSO heuristic swarm size.
pub fn heuristic_swarm_size(dims: usize) -> usize {
    (10.0 + 2.0 * (dims as f64).sqrt()).floor() as usize
}

struct Swarm {
    positions: Vec<Vec<f64>>,
    velocities: Vec<Vec<f64>>,
    best_positions: Vec<Vec<f64>>,
    best_fitness: Vec<f64>,
    prev_fitness: Vec<f64>,
    global_best: Vec<f64>,
    global_fitness: f64,
}

impl Swarm {
    fn new(bounds: &[(f64, f64)], size: usize, rng: &mut StdRng) -> Swarm {
        let d = bounds.len();
        let positions: Vec<Vec<f64>> = (0..size)
            .map(|_| bounds.iter().map(|&(lo, hi)| rng.gen_range(lo..=hi)).collect())
            .collect();
        let velocities = (0..size)
            .map(|_| {
                bounds
                    .iter()
                    .map(|&(lo, hi)| {
                        let span = hi - lo;
                        rng.gen_range(-span..=span) * 0.1
                    })
                    .collect()
            })
            .collect();
        Swarm {
            best_positions: positions.clone(),
            positions,
            velocities,
            best_fitness: vec![f64::INFINITY; size],
            prev_fitness: vec![f64::INFINITY; size],
            global_best: vec![0.0; d],
            global_fitness: f64::INFINITY,
        }
    }

    fn absorb_fitness(&mut self, fitness: &[f64]) {
        for (i, &f) in fitness.iter().enumerate() {
            if f < self.best_fitness[i] {
                self.best_fitness[i] = f;
                self.best_positions[i] = self.positions[i].clone();
            }
            if f < self.global_fitness {
                self.global_fitness = f;
                self.global_best = self.positions[i].clone();
            }
        }
    }
}

/// Runs FST-PSO over box `bounds`: per-particle inertia and acceleration
/// coefficients adapted each generation by fuzzy rules on the particle's
/// fitness improvement and its normalized distance from the global best,
/// following the published design (settings-free: only the budget is
/// chosen by the user).
///
/// # Panics
///
/// Panics if `bounds` is empty or malformed.
///
/// # Example
///
/// ```
/// use paraspace_analysis::pso::{fst_pso, PsoConfig};
///
/// let mut rosenbrock = |x: &[f64]| {
///     (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
/// };
/// let r = fst_pso(&[(-2.0, 2.0); 2], &PsoConfig { iterations: 120, ..Default::default() }, &mut rosenbrock);
/// assert!(r.best_fitness < 0.5);
/// ```
pub fn fst_pso<O: Objective + ?Sized>(
    bounds: &[(f64, f64)],
    config: &PsoConfig,
    objective: &mut O,
) -> PsoResult {
    assert!(!bounds.is_empty(), "at least one dimension required");
    for &(lo, hi) in bounds {
        assert!(
            hi > lo && lo.is_finite() && hi.is_finite(),
            "bounds must be finite and increasing"
        );
    }
    let d = bounds.len();
    let size = config.swarm_size.unwrap_or_else(|| heuristic_swarm_size(d));
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut swarm = Swarm::new(bounds, size, &mut rng);
    let mut history = Vec::with_capacity(config.iterations);
    let mut evaluations = 0usize;

    let diag: f64 = bounds.iter().map(|&(lo, hi)| (hi - lo).powi(2)).sum::<f64>().sqrt();

    for _gen in 0..config.iterations {
        let fitness = objective.evaluate_batch(&swarm.positions);
        evaluations += swarm.positions.len();
        swarm.absorb_fitness(&fitness);

        for i in 0..size {
            let improvement = if swarm.prev_fitness[i].is_finite() {
                let prev = swarm.prev_fitness[i];
                let delta = fitness[i] - prev;
                (delta / (prev.abs() + 1e-12)).clamp(-1.0, 1.0)
            } else {
                0.0
            };
            let dist: f64 = swarm.positions[i]
                .iter()
                .zip(&swarm.global_best)
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f64>()
                .sqrt()
                / diag.max(1e-300);
            let (w, c_cog, c_soc, vmax_frac) =
                fuzzy_coefficients(improvement, dist.clamp(0.0, 1.0));
            let vmax: Vec<f64> = bounds.iter().map(|&(lo, hi)| (hi - lo) * vmax_frac).collect();
            for j in 0..d {
                let r1: f64 = rng.gen();
                let r2: f64 = rng.gen();
                let v = w * swarm.velocities[i][j]
                    + c_cog * r1 * (swarm.best_positions[i][j] - swarm.positions[i][j])
                    + c_soc * r2 * (swarm.global_best[j] - swarm.positions[i][j]);
                swarm.velocities[i][j] = v.clamp(-vmax[j], vmax[j]);
                let mut x = swarm.positions[i][j] + swarm.velocities[i][j];
                // Reflective bounds.
                let (lo, hi) = bounds[j];
                if x < lo {
                    x = lo + (lo - x).min(hi - lo);
                    swarm.velocities[i][j] = -swarm.velocities[i][j] * 0.5;
                } else if x > hi {
                    x = hi - (x - hi).min(hi - lo);
                    swarm.velocities[i][j] = -swarm.velocities[i][j] * 0.5;
                }
                swarm.positions[i][j] = x;
            }
            swarm.prev_fitness[i] = fitness[i];
        }
        history.push(swarm.global_fitness);
    }
    PsoResult {
        best_position: swarm.global_best,
        best_fitness: swarm.global_fitness,
        history,
        evaluations,
    }
}

/// Triangular membership of `x` peaked at `c` with half-width `w`.
fn tri(x: f64, c: f64, w: f64) -> f64 {
    (1.0 - (x - c).abs() / w).max(0.0)
}

/// The fuzzy rule base mapping (improvement φ, distance δ) to
/// `(inertia, cognitive, social, vmax fraction)` via zero-order Sugeno
/// defuzzification.
///
/// Qualitative content (after the published FST-PSO rules): particles that
/// just improved keep momentum and trust their own memory; worsening
/// particles brake and defer to the swarm; particles far from the global
/// best feel a stronger social pull and larger velocity caps, close ones
/// refine locally.
fn fuzzy_coefficients(improvement: f64, distance: f64) -> (f64, f64, f64, f64) {
    // Memberships.
    let better = tri(improvement, -1.0, 1.0);
    let same = tri(improvement, 0.0, 0.6);
    let worse = tri(improvement, 1.0, 1.0);
    let near = tri(distance, 0.0, 0.35);
    let medium = tri(distance, 0.4, 0.35);
    let far = tri(distance, 1.0, 0.6);

    // Rule consequents: (weight, w, c_cog, c_soc, vmax).
    let rules = [
        (better, 0.9, 2.6, 1.2, 0.3),
        (same, 0.55, 1.5, 1.8, 0.2),
        (worse, 0.3, 0.6, 2.8, 0.12),
        (near, 0.45, 1.2, 1.0, 0.08),
        (medium, 0.6, 1.6, 1.9, 0.2),
        (far, 0.85, 1.0, 3.0, 0.35),
    ];
    let total: f64 = rules.iter().map(|r| r.0).sum();
    if total <= 1e-12 {
        return (0.729, 1.494_45, 1.494_45, 0.25);
    }
    let mut out = (0.0, 0.0, 0.0, 0.0);
    for &(mu, w, cc, cs, vm) in &rules {
        out.0 += mu * w;
        out.1 += mu * cc;
        out.2 += mu * cs;
        out.3 += mu * vm;
    }
    (out.0 / total, out.1 / total, out.2 / total, out.3 / total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere(x: &[f64]) -> f64 {
        x.iter().map(|v| v * v).sum()
    }

    #[test]
    fn fst_pso_minimizes_sphere_without_tuning() {
        let r = fst_pso(
            &[(-10.0, 10.0); 4],
            &PsoConfig { iterations: 100, ..Default::default() },
            &mut sphere,
        );
        assert!(r.best_fitness < 1e-2, "fitness {}", r.best_fitness);
        assert_eq!(r.history.len(), 100);
        assert!(r.evaluations > 0);
    }

    #[test]
    fn history_is_monotone_nonincreasing() {
        let r = fst_pso(
            &[(-5.0, 5.0); 3],
            &PsoConfig { iterations: 60, ..Default::default() },
            &mut sphere,
        );
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-15);
        }
    }

    #[test]
    fn results_are_reproducible_under_seed() {
        let cfg = PsoConfig { iterations: 30, seed: 7, ..Default::default() };
        let a = fst_pso(&[(-1.0, 1.0); 2], &cfg, &mut sphere);
        let b = fst_pso(&[(-1.0, 1.0); 2], &cfg, &mut sphere);
        assert_eq!(a.best_position, b.best_position);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn positions_respect_bounds() {
        let bounds = [(2.0, 3.0), (-4.0, -1.0)];
        let mut tracker = |x: &[f64]| {
            assert!((2.0..=3.0).contains(&x[0]), "x0 = {}", x[0]);
            assert!((-4.0..=-1.0).contains(&x[1]), "x1 = {}", x[1]);
            sphere(x)
        };
        let _ = fst_pso(&bounds, &PsoConfig { iterations: 40, ..Default::default() }, &mut tracker);
    }

    #[test]
    fn heuristic_size_matches_formula() {
        assert_eq!(heuristic_swarm_size(1), 12);
        assert_eq!(heuristic_swarm_size(78), (10.0 + 2.0 * (78f64).sqrt()).floor() as usize);
    }

    #[test]
    fn fuzzy_coefficients_interpolate_sanely() {
        // Improving + far: high inertia and strong social pull.
        let (w_far, _, cs_far, vm_far) = fuzzy_coefficients(-1.0, 1.0);
        // Worsening + near: low inertia, small steps.
        let (w_near, _, _, vm_near) = fuzzy_coefficients(1.0, 0.0);
        assert!(w_far > w_near);
        assert!(vm_far > vm_near);
        assert!(cs_far > 1.5);
        // All outputs stay in reasonable PSO ranges everywhere.
        for imp in [-1.0, -0.5, 0.0, 0.5, 1.0] {
            for dist in [0.0, 0.3, 0.6, 1.0] {
                let (w, cc, cs, vm) = fuzzy_coefficients(imp, dist);
                assert!((0.1..=1.0).contains(&w));
                assert!((0.1..=3.0).contains(&cc));
                assert!((0.5..=3.0).contains(&cs));
                assert!((0.01..=0.5).contains(&vm));
            }
        }
    }

    #[test]
    fn multimodal_rastrigin_reaches_good_basin() {
        let mut rastrigin = |x: &[f64]| {
            10.0 * x.len() as f64
                + x.iter()
                    .map(|v| v * v - 10.0 * (2.0 * std::f64::consts::PI * v).cos())
                    .sum::<f64>()
        };
        let cfg = PsoConfig { iterations: 150, swarm_size: Some(30), ..Default::default() };
        let r = fst_pso(&[(-5.12, 5.12); 2], &cfg, &mut rastrigin);
        assert!(r.best_fitness < 2.0, "fitness {}", r.best_fitness);
    }

    #[test]
    fn batch_objective_is_called_with_whole_generations() {
        use std::cell::Cell;
        use std::rc::Rc;
        struct Counting {
            batches: Rc<Cell<usize>>,
            sizes: Rc<Cell<usize>>,
        }
        impl Objective for Counting {
            fn evaluate_batch(&mut self, xs: &[Vec<f64>]) -> Vec<f64> {
                self.batches.set(self.batches.get() + 1);
                self.sizes.set(xs.len());
                xs.iter().map(|x| sphere(x)).collect()
            }
        }
        let batches = Rc::new(Cell::new(0));
        let sizes = Rc::new(Cell::new(0));
        let mut obj = Counting { batches: Rc::clone(&batches), sizes: Rc::clone(&sizes) };
        let cfg = PsoConfig { iterations: 10, swarm_size: Some(8), ..Default::default() };
        let _ = fst_pso(&[(-1.0, 1.0); 2], &cfg, &mut obj);
        assert_eq!(batches.get(), 10, "one batch per generation");
        assert_eq!(sizes.get(), 8, "whole swarm per batch");
    }
}
