//! Compiled discrete stoichiometry: flat propensity structures shared by
//! the stochastic simulators, scalar and lane-batched.
//!
//! The deterministic engines compile a model once into flat CSR arrays
//! ([`CompiledOdes`](crate::CompiledOdes)) that every batch member walks.
//! The stochastic half needs the same thing over *integer counts*: per
//! reaction, the reactant `(species, order)` entries that drive the
//! mass-action falling-factorial propensity `a = c·x` (first order),
//! `a = c·x·y` (bimolecular), `a = c·x(x−1)/2` (dimerization), and the net
//! state change per firing. [`CompiledStoich`] holds those as offset/value
//! CSR arrays in three views:
//!
//! * **reaction-major reactants** — drives propensity evaluation;
//! * **reaction-major net changes** — drives firing application;
//! * **species-major net changes** (sorted by reaction) — drives the
//!   Cao tau-selection sweep `μ_s = Σ_r ν_rs·a_r` without the per-pair
//!   lookup a nested reaction scan would need.
//!
//! [`propensities_lanes`](CompiledStoich::propensities_lanes) is the
//! lane-batched kernel over species-major/lane-minor SoA counts: lanes sit
//! innermost so the loop autovectorizes, and each lane performs exactly
//! the floating-point operations of the scalar
//! [`propensity`](CompiledStoich::propensity) in the same order, so
//! per-lane results are bitwise equal to scalar evaluation — the same
//! contract the deterministic `fluxes_batch` kernels keep.

use crate::model::ReactionBasedModel;

/// The compiled stochastic view of a model: reactant orders, net state
/// changes, and stochastic rate constants in flat CSR arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledStoich {
    n_species: usize,
    rates: Vec<f64>,
    all_mass_action: bool,
    // Reaction-major reactant entries.
    reactant_offsets: Vec<u32>,
    reactant_species: Vec<u32>,
    reactant_orders: Vec<u32>,
    // Reaction-major net-change entries (zeros dropped, catalysts cancel).
    net_offsets: Vec<u32>,
    net_species: Vec<u32>,
    net_delta: Vec<i64>,
    // Species-major net-change entries, sorted by reaction index.
    species_offsets: Vec<u32>,
    species_reactions: Vec<u32>,
    species_delta: Vec<f64>,
}

impl CompiledStoich {
    /// Compiles a model's stoichiometry. The deterministic rate constants
    /// are used directly as stochastic constants (volume factors are the
    /// modeler's responsibility, as in the original tools).
    pub fn new(model: &ReactionBasedModel) -> Self {
        let m = model.n_reactions();
        let n = model.n_species();
        let mut reactant_offsets = Vec::with_capacity(m + 1);
        let mut reactant_species = Vec::new();
        let mut reactant_orders = Vec::new();
        let mut net_offsets = Vec::with_capacity(m + 1);
        let mut net_species = Vec::new();
        let mut net_delta = Vec::new();
        reactant_offsets.push(0u32);
        net_offsets.push(0u32);
        let mut all_mass_action = true;
        for r in model.reactions() {
            all_mass_action &= r.kinetics().is_mass_action();
            for &(s, order) in r.reactants() {
                reactant_species.push(s as u32);
                reactant_orders.push(order);
            }
            reactant_offsets.push(reactant_species.len() as u32);
            // Merge reactants and products into net changes; catalysts
            // cancel and zero entries are dropped.
            let mut entries: Vec<(usize, i64)> = Vec::new();
            for &(s, a) in r.reactants() {
                entries.push((s, -(a as i64)));
            }
            for &(s, b) in r.products() {
                match entries.iter_mut().find(|(sp, _)| *sp == s) {
                    Some((_, c)) => *c += b as i64,
                    None => entries.push((s, b as i64)),
                }
            }
            entries.retain(|&(_, c)| c != 0);
            for (s, c) in entries {
                net_species.push(s as u32);
                net_delta.push(c);
            }
            net_offsets.push(net_species.len() as u32);
        }
        // Species-major transpose, reaction order preserved within each
        // species so sweep accumulation matches a reaction-ordered scan.
        let mut per_species: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for r in 0..m {
            for e in net_offsets[r] as usize..net_offsets[r + 1] as usize {
                per_species[net_species[e] as usize].push((r as u32, net_delta[e] as f64));
            }
        }
        let mut species_offsets = Vec::with_capacity(n + 1);
        let mut species_reactions = Vec::new();
        let mut species_delta = Vec::new();
        species_offsets.push(0u32);
        for entries in per_species {
            for (r, v) in entries {
                species_reactions.push(r);
                species_delta.push(v);
            }
            species_offsets.push(species_reactions.len() as u32);
        }
        CompiledStoich {
            n_species: n,
            rates: model.rate_constants(),
            all_mass_action,
            reactant_offsets,
            reactant_species,
            reactant_orders,
            net_offsets,
            net_species,
            net_delta,
            species_offsets,
            species_reactions,
            species_delta,
        }
    }

    /// Number of species.
    pub fn n_species(&self) -> usize {
        self.n_species
    }

    /// Number of reactions.
    pub fn n_reactions(&self) -> usize {
        self.rates.len()
    }

    /// Whether every reaction carries plain mass-action kinetics — the
    /// only kinetics the falling-factorial propensity is faithful for.
    pub fn all_mass_action(&self) -> bool {
        self.all_mass_action
    }

    /// The stochastic rate constants.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    #[inline]
    fn factor(order: u32, n: u64) -> f64 {
        match order {
            1 => n as f64,
            2 => n as f64 * n.saturating_sub(1) as f64 / 2.0,
            o => {
                // General falling factorial / o! for higher orders.
                let mut c = 1.0;
                for k in 0..o as u64 {
                    c *= n.saturating_sub(k) as f64;
                }
                let mut fact = 1.0;
                for k in 2..=o as u64 {
                    fact *= k as f64;
                }
                c / fact
            }
        }
    }

    /// The propensity of reaction `r` at state `x`.
    pub fn propensity(&self, r: usize, x: &[u64]) -> f64 {
        let mut a = self.rates[r];
        for e in self.reactant_offsets[r] as usize..self.reactant_offsets[r + 1] as usize {
            a *= Self::factor(self.reactant_orders[e], x[self.reactant_species[e] as usize]);
        }
        a
    }

    /// Writes all propensities into `out` and returns their sum.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != n_reactions`.
    pub fn propensities_into(&self, x: &[u64], out: &mut [f64]) -> f64 {
        assert_eq!(out.len(), self.n_reactions());
        let mut total = 0.0;
        for r in 0..self.n_reactions() {
            let a = self.propensity(r, x);
            out[r] = a;
            total += a;
        }
        total
    }

    /// Lane-batched propensity evaluation over SoA counts.
    ///
    /// `counts` is species-major/lane-minor (`counts[s·L + l]`), `out` is
    /// reaction-major/lane-minor (`out[r·L + l]`). Every lane performs the
    /// scalar [`propensity`](Self::propensity) operations in the same
    /// order, so lane `l` of `out` is bitwise equal to scalar evaluation
    /// of that lane's counts.
    ///
    /// # Panics
    ///
    /// Panics unless `counts.len() == n_species·lanes` and
    /// `out.len() == n_reactions·lanes`.
    pub fn propensities_lanes(&self, counts: &[u64], lanes: usize, out: &mut [f64]) {
        assert_eq!(counts.len(), self.n_species * lanes);
        assert_eq!(out.len(), self.n_reactions() * lanes);
        for r in 0..self.n_reactions() {
            let head = &mut out[r * lanes..(r + 1) * lanes];
            head.fill(self.rates[r]);
            for e in self.reactant_offsets[r] as usize..self.reactant_offsets[r + 1] as usize {
                let s = self.reactant_species[e] as usize;
                let order = self.reactant_orders[e];
                let xrow = &counts[s * lanes..(s + 1) * lanes];
                match order {
                    1 => {
                        for l in 0..lanes {
                            head[l] *= xrow[l] as f64;
                        }
                    }
                    2 => {
                        for l in 0..lanes {
                            let n = xrow[l];
                            head[l] *= n as f64 * n.saturating_sub(1) as f64 / 2.0;
                        }
                    }
                    o => {
                        for l in 0..lanes {
                            head[l] *= Self::factor(o, xrow[l]);
                        }
                    }
                }
            }
        }
    }

    /// Per-lane propensity sums `a₀[l] = Σ_r a[r·L + l]`, accumulated in
    /// reaction order (bitwise equal to the scalar running sum of
    /// [`propensities_into`](Self::propensities_into)).
    ///
    /// # Panics
    ///
    /// Panics unless `a.len() == n_reactions·lanes` and
    /// `a0.len() == lanes`.
    pub fn propensity_sums_lanes(&self, a: &[f64], lanes: usize, a0: &mut [f64]) {
        assert_eq!(a.len(), self.n_reactions() * lanes);
        assert_eq!(a0.len(), lanes);
        a0.fill(0.0);
        for r in 0..self.n_reactions() {
            let row = &a[r * lanes..(r + 1) * lanes];
            for l in 0..lanes {
                a0[l] += row[l];
            }
        }
    }

    /// Applies `count` firings of reaction `r` at once; returns `false`
    /// and leaves `x` untouched if that would drive a population negative.
    pub fn apply(&self, r: usize, count: u64, x: &mut [u64]) -> bool {
        let range = self.net_offsets[r] as usize..self.net_offsets[r + 1] as usize;
        // Check first.
        for e in range.clone() {
            let c = self.net_delta[e];
            if c < 0 {
                let need = (-c) as u64 * count;
                if x[self.net_species[e] as usize] < need {
                    return false;
                }
            }
        }
        for e in range {
            let s = self.net_species[e] as usize;
            let c = self.net_delta[e];
            if c < 0 {
                x[s] -= (-c) as u64 * count;
            } else {
                x[s] += c as u64 * count;
            }
        }
        true
    }

    /// Like [`apply`](Self::apply) but on one lane of a species-major SoA
    /// state (`x[s·L + l]`).
    pub fn apply_lane(
        &self,
        r: usize,
        count: u64,
        x: &mut [u64],
        lanes: usize,
        lane: usize,
    ) -> bool {
        let range = self.net_offsets[r] as usize..self.net_offsets[r + 1] as usize;
        for e in range.clone() {
            let c = self.net_delta[e];
            if c < 0 {
                let need = (-c) as u64 * count;
                if x[self.net_species[e] as usize * lanes + lane] < need {
                    return false;
                }
            }
        }
        for e in range {
            let idx = self.net_species[e] as usize * lanes + lane;
            let c = self.net_delta[e];
            if c < 0 {
                x[idx] -= (-c) as u64 * count;
            } else {
                x[idx] += c as u64 * count;
            }
        }
        true
    }

    /// Net change of species `s` per firing of reaction `r` (0 if
    /// untouched).
    pub fn net_change(&self, r: usize, s: usize) -> i64 {
        let range = self.net_offsets[r] as usize..self.net_offsets[r + 1] as usize;
        for e in range {
            if self.net_species[e] as usize == s {
                return self.net_delta[e];
            }
        }
        0
    }

    /// Whether reaction `r` consumes any molecules (sources never do).
    pub fn consumes(&self, r: usize) -> bool {
        let range = self.net_offsets[r] as usize..self.net_offsets[r + 1] as usize;
        self.net_delta[range].iter().any(|&c| c < 0)
    }

    /// The reactions touching species `s`, sorted by reaction index.
    pub fn species_net_reactions(&self, s: usize) -> &[u32] {
        let range = self.species_offsets[s] as usize..self.species_offsets[s + 1] as usize;
        &self.species_reactions[range]
    }

    /// The net changes `ν_rs` (as `f64`) matching
    /// [`species_net_reactions`](Self::species_net_reactions).
    pub fn species_net_deltas(&self, s: usize) -> &[f64] {
        let range = self.species_offsets[s] as usize..self.species_offsets[s + 1] as usize;
        &self.species_delta[range]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Reaction;

    fn model() -> ReactionBasedModel {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 10.0);
        let b = m.add_species("B", 5.0);
        let c = m.add_species("C", 0.0);
        m.add_reaction(Reaction::mass_action(&[], &[(a, 1)], 3.0)).unwrap(); // source
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 2.0)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(a, 1), (b, 1)], &[(c, 1)], 0.5)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(a, 2)], &[(c, 1)], 1.0)).unwrap(); // dimer
        m
    }

    #[test]
    fn propensities_use_combinatorial_counts() {
        let t = CompiledStoich::new(&model());
        let x = [10u64, 5, 0];
        assert_eq!(t.propensity(0, &x), 3.0);
        assert_eq!(t.propensity(1, &x), 20.0);
        assert_eq!(t.propensity(2, &x), 0.5 * 10.0 * 5.0);
        assert_eq!(t.propensity(3, &x), 10.0 * 9.0 / 2.0);
    }

    #[test]
    fn lane_kernel_is_bitwise_equal_to_scalar_per_lane() {
        let t = CompiledStoich::new(&model());
        let lanes = 4;
        // Four distinct states, packed species-major/lane-minor.
        let states = [[10u64, 5, 0], [0, 5, 0], [1, 0, 3], [7, 2, 1]];
        let mut counts = vec![0u64; t.n_species() * lanes];
        for (l, x) in states.iter().enumerate() {
            for s in 0..t.n_species() {
                counts[s * lanes + l] = x[s];
            }
        }
        let mut out = vec![0.0; t.n_reactions() * lanes];
        t.propensities_lanes(&counts, lanes, &mut out);
        let mut a0 = vec![0.0; lanes];
        t.propensity_sums_lanes(&out, lanes, &mut a0);
        for (l, x) in states.iter().enumerate() {
            let mut scalar = vec![0.0; t.n_reactions()];
            let total = t.propensities_into(x, &mut scalar);
            for r in 0..t.n_reactions() {
                assert_eq!(out[r * lanes + l].to_bits(), scalar[r].to_bits(), "r={r} l={l}");
            }
            assert_eq!(a0[l].to_bits(), total.to_bits(), "sum lane {l}");
        }
    }

    #[test]
    fn apply_refuses_negative_populations() {
        let t = CompiledStoich::new(&model());
        let mut x = [1u64, 0, 0];
        assert!(!t.apply(3, 1, &mut x), "dimerization needs two A");
        assert_eq!(x, [1, 0, 0], "state untouched on refusal");
        assert!(t.apply(1, 1, &mut x));
        assert_eq!(x, [0, 1, 0]);
    }

    #[test]
    fn apply_lane_matches_apply() {
        let t = CompiledStoich::new(&model());
        let lanes = 2;
        let mut soa = vec![0u64; t.n_species() * lanes];
        let mut flat = [10u64, 5, 0];
        for s in 0..3 {
            soa[s * lanes + 1] = flat[s];
        }
        assert_eq!(t.apply_lane(2, 3, &mut soa, lanes, 1), t.apply(2, 3, &mut flat));
        for s in 0..3 {
            assert_eq!(soa[s * lanes + 1], flat[s]);
            assert_eq!(soa[s * lanes], 0, "other lane untouched");
        }
    }

    #[test]
    fn species_major_view_transposes_net_changes() {
        let t = CompiledStoich::new(&model());
        // Species A is touched by all four reactions: +1, −1, −1, −2.
        assert_eq!(t.species_net_reactions(0), &[0, 1, 2, 3]);
        assert_eq!(t.species_net_deltas(0), &[1.0, -1.0, -1.0, -2.0]);
        // Cross-check against the reaction-major lookup.
        for s in 0..t.n_species() {
            for (r, v) in t.species_net_reactions(s).iter().zip(t.species_net_deltas(s)) {
                assert_eq!(t.net_change(*r as usize, s) as f64, *v);
            }
        }
    }

    #[test]
    fn catalysts_cancel_and_sources_do_not_consume() {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 5.0);
        let e = m.add_species("E", 2.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1), (e, 1)], &[(e, 1)], 1.0)).unwrap();
        let t = CompiledStoich::new(&m);
        assert_eq!(t.net_change(0, 0), -1);
        assert_eq!(t.net_change(0, 1), 0, "catalyst must cancel");
        assert_eq!(t.propensity(0, &[5, 2]), 10.0);
        let src = CompiledStoich::new(&model());
        assert!(!src.consumes(0));
        assert!(src.consumes(1));
    }

    #[test]
    fn mass_action_flag_tracks_kinetics() {
        use crate::kinetics::Kinetics;
        assert!(CompiledStoich::new(&model()).all_mass_action());
        let mut m = ReactionBasedModel::new();
        let s = m.add_species("S", 1.0);
        let p = m.add_species("P", 0.0);
        m.add_reaction(Reaction::with_kinetics(
            &[(s, 1)],
            &[(p, 1)],
            1.0,
            Kinetics::MichaelisMenten { km: 0.5 },
        ))
        .unwrap();
        assert!(!CompiledStoich::new(&m).all_mass_action());
    }
}
