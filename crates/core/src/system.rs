//! Adapter presenting a compiled RBM (plus one parameterization's rate
//! constants) as an [`OdeSystem`], and its lane-batched counterpart
//! ([`RbmBatchSystem`]) feeding a whole member queue to the lockstep
//! solver.

use paraspace_linalg::{Matrix, SparsityPattern};
use paraspace_rbm::CompiledOdes;
use paraspace_solvers::{BatchOdeSystem, BatchState, OdeSystem, SensOdeSystem};
use std::cell::RefCell;

/// One simulation's ODE system: the shared compiled network plus this
/// member's kinetic constants.
///
/// The right-hand side is allocation-free after construction (an internal
/// flux buffer is reused across calls) and the Jacobian is analytic, both
/// of which the solvers exploit heavily.
///
/// # Example
///
/// ```
/// use paraspace_core::RbmOdeSystem;
/// use paraspace_rbm::{Reaction, ReactionBasedModel};
/// use paraspace_solvers::OdeSystem;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = ReactionBasedModel::new();
/// let a = m.add_species("A", 1.0);
/// m.add_reaction(Reaction::mass_action(&[(a, 1)], &[], 1.0))?;
/// let odes = m.compile()?;
/// let sys = RbmOdeSystem::new(&odes, vec![5.0]); // override k = 5
/// let mut d = [0.0];
/// sys.rhs(0.0, &[2.0], &mut d);
/// assert_eq!(d[0], -10.0);
/// # Ok(())
/// # }
/// ```
pub struct RbmOdeSystem<'a> {
    odes: &'a CompiledOdes,
    rate_constants: Vec<f64>,
    flux_buf: RefCell<Vec<f64>>,
}

impl<'a> RbmOdeSystem<'a> {
    /// Binds `odes` to one parameterization's rate constants.
    ///
    /// # Panics
    ///
    /// Panics if `rate_constants.len() != odes.n_reactions()`.
    pub fn new(odes: &'a CompiledOdes, rate_constants: Vec<f64>) -> Self {
        assert_eq!(
            rate_constants.len(),
            odes.n_reactions(),
            "one rate constant per reaction required"
        );
        let m = odes.n_reactions();
        RbmOdeSystem { odes, rate_constants, flux_buf: RefCell::new(vec![0.0; m]) }
    }

    /// The bound rate constants.
    pub fn rate_constants(&self) -> &[f64] {
        &self.rate_constants
    }

    /// The compiled network this system evaluates.
    pub fn odes(&self) -> &CompiledOdes {
        self.odes
    }
}

impl std::fmt::Debug for RbmOdeSystem<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RbmOdeSystem")
            .field("n_species", &self.odes.n_species())
            .field("n_reactions", &self.odes.n_reactions())
            .finish()
    }
}

impl OdeSystem for RbmOdeSystem<'_> {
    fn dim(&self) -> usize {
        self.odes.n_species()
    }

    fn rhs(&self, _t: f64, y: &[f64], dydt: &mut [f64]) {
        let mut flux = self.flux_buf.borrow_mut();
        self.odes.rhs_with_buffer(y, &self.rate_constants, &mut flux, dydt);
    }

    fn jacobian(&self, _t: f64, y: &[f64], jac: &mut Matrix) {
        self.odes.jacobian_with(y, &self.rate_constants, jac);
    }

    fn has_analytic_jacobian(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraspace_rbm::{Reaction, ReactionBasedModel};
    use paraspace_solvers::{Dopri5, OdeSolver, SolverOptions};

    fn decay_dimer_model() -> ReactionBasedModel {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let b = m.add_species("B", 0.0);
        m.add_reaction(Reaction::mass_action(&[(a, 2)], &[(b, 1)], 0.3)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(b, 1)], &[], 0.1)).unwrap();
        m
    }

    #[test]
    fn rhs_uses_bound_constants() {
        let m = decay_dimer_model();
        let odes = m.compile().unwrap();
        let sys = RbmOdeSystem::new(&odes, vec![1.0, 0.0]);
        let mut d = [0.0, 0.0];
        sys.rhs(0.0, &[2.0, 3.0], &mut d);
        // flux = 1·[A]² = 4: dA = -8, dB = +4 (no B decay: k2 = 0).
        assert_eq!(d[0], -8.0);
        assert_eq!(d[1], 4.0);
    }

    #[test]
    fn analytic_jacobian_is_advertised_and_correct() {
        let m = decay_dimer_model();
        let odes = m.compile().unwrap();
        let sys = RbmOdeSystem::new(&odes, m.rate_constants());
        assert!(sys.has_analytic_jacobian());
        let mut jac = Matrix::zeros(2, 2);
        sys.jacobian(0.0, &[1.5, 0.5], &mut jac);
        // dA/dt = -2·0.3·[A]² → ∂/∂A = -4·0.3·[A] = -1.8.
        assert!((jac[(0, 0)] + 1.8).abs() < 1e-12);
        assert!((jac[(1, 1)] + 0.1).abs() < 1e-12);
    }

    #[test]
    fn integrates_with_solvers() {
        let m = decay_dimer_model();
        let odes = m.compile().unwrap();
        let sys = RbmOdeSystem::new(&odes, m.rate_constants());
        let sol = Dopri5::new()
            .solve(&sys, 0.0, &m.initial_state(), &[5.0], &SolverOptions::default())
            .unwrap();
        // Mass: 2·B-formation consumes 2 A; A + ... monotone decay of A.
        assert!(sol.state_at(0)[0] < 1.0);
        assert!(sol.state_at(0)[0] > 0.0);
    }

    #[test]
    #[should_panic(expected = "one rate constant per reaction")]
    fn wrong_constant_count_panics() {
        let m = decay_dimer_model();
        let odes = m.compile().unwrap();
        let _ = RbmOdeSystem::new(&odes, vec![1.0]);
    }
}

/// A member queue of same-network parameterizations presented as a
/// [`BatchOdeSystem`] for the lockstep lane solver.
///
/// The adapter owns the lane-resident rate-constant block (`M × L`,
/// species-major/lane-minor like every SoA buffer) and the shared flux
/// workspace; [`bind_lane`](BatchOdeSystem::bind_lane) scatters one
/// member's constants into a lane column, and the batched right-hand side
/// delegates to [`CompiledOdes::rhs_batch`], which runs the flux and
/// accumulation passes across all lanes per op and per term.
pub struct RbmBatchSystem<'a> {
    odes: &'a CompiledOdes,
    members: MemberTable<'a>,
    lanes: usize,
    k_lanes: Vec<f64>, // M × L lane-bound rate constants
    flux: Vec<f64>,    // M × L flux workspace
    slots: Vec<f64>,   // slots × L Jacobian derivative-pass workspace
}

/// Where a queue's `(x0, k)` pairs live.
enum MemberTable<'a> {
    /// Appended one by one through [`RbmBatchSystem::push_member`].
    Pushed(Vec<(&'a [f64], &'a [f64])>),
    /// A job's whole resolved batch, borrowed in place.
    Batch(&'a [(Vec<f64>, Vec<f64>)]),
}

impl<'a> MemberTable<'a> {
    fn len(&self) -> usize {
        match self {
            MemberTable::Pushed(members) => members.len(),
            MemberTable::Batch(batch) => batch.len(),
        }
    }

    fn get(&self, member: usize) -> (&'a [f64], &'a [f64]) {
        match self {
            MemberTable::Pushed(members) => members[member],
            MemberTable::Batch(batch) => {
                let (x0, k) = &batch[member];
                (x0, k)
            }
        }
    }
}

impl<'a> RbmBatchSystem<'a> {
    /// An empty queue integrating `lanes` members at a time.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(odes: &'a CompiledOdes, lanes: usize) -> Self {
        Self::with_members(odes, MemberTable::Pushed(Vec::new()), lanes)
    }

    /// The queue behind [`SimulationJob::lane_system`](crate::SimulationJob::lane_system):
    /// every `(x0, k)` of a resolved batch, borrowed where it lies.
    pub(crate) fn over_batch(
        odes: &'a CompiledOdes,
        batch: &'a [(Vec<f64>, Vec<f64>)],
        lanes: usize,
    ) -> Self {
        Self::with_members(odes, MemberTable::Batch(batch), lanes)
    }

    fn with_members(odes: &'a CompiledOdes, members: MemberTable<'a>, lanes: usize) -> Self {
        assert!(lanes > 0, "lane width must be positive");
        let m = odes.n_reactions();
        RbmBatchSystem {
            odes,
            members,
            lanes,
            k_lanes: vec![0.0; m * lanes],
            flux: vec![0.0; m * lanes],
            slots: vec![0.0; odes.n_reactant_slots() * lanes],
        }
    }

    /// Appends one member's `(x0, k)` to the queue.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch with the compiled network, or if the
    /// queue borrows a job's batch (it is complete as built).
    pub fn push_member(&mut self, x0: &'a [f64], k: &'a [f64]) {
        assert_eq!(x0.len(), self.odes.n_species(), "initial-state length");
        assert_eq!(k.len(), self.odes.n_reactions(), "rate-constant length");
        match &mut self.members {
            MemberTable::Pushed(members) => members.push((x0, k)),
            MemberTable::Batch(_) => panic!("a queue over a job's batch takes no further members"),
        }
    }
}

impl std::fmt::Debug for RbmBatchSystem<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RbmBatchSystem")
            .field("members", &self.members.len())
            .field("lanes", &self.lanes)
            .finish()
    }
}

impl BatchOdeSystem for RbmBatchSystem<'_> {
    fn dim(&self) -> usize {
        self.odes.n_species()
    }

    fn lanes(&self) -> usize {
        self.lanes
    }

    fn members(&self) -> usize {
        self.members.len()
    }

    fn initial_state(&self, member: usize, y0: &mut [f64]) {
        y0.copy_from_slice(self.members.get(member).0);
    }

    fn bind_lane(&mut self, lane: usize, member: usize) {
        let k = self.members.get(member).1;
        for (r, &kr) in k.iter().enumerate() {
            self.k_lanes[r * self.lanes + lane] = kr;
        }
    }

    fn rhs_batch(&mut self, _t: &[f64], y: &BatchState, dydt: &mut BatchState) {
        self.odes.rhs_batch(
            self.lanes,
            y.as_slice(),
            &self.k_lanes,
            &mut self.flux,
            dydt.as_mut_slice(),
        );
    }

    fn supports_jacobian_batch(&self) -> bool {
        // Mass-action networks (the only ones this adapter accepts) have the
        // batched analytic Jacobian; it is exact, so the scalar path's
        // `has_analytic_jacobian` contract carries over lane by lane.
        true
    }

    fn jacobian_batch(&mut self, _t: &[f64], y: &BatchState, jac: &mut [f64]) {
        self.odes.jacobian_batch(self.lanes, y.as_slice(), &self.k_lanes, &mut self.slots, jac);
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use paraspace_rbm::{Reaction, ReactionBasedModel};
    use paraspace_solvers::{Dopri5, Dopri5Batch, OdeSolver, SolverOptions, SolverScratch};

    #[test]
    fn lane_group_matches_scalar_dopri5_bitwise() {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let b = m.add_species("B", 0.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1.0)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 0.4)).unwrap();
        let odes = m.compile().unwrap();

        // Five members with distinct rate constants, three lanes: the
        // lockstep trajectories must be bitwise identical to one-at-a-time
        // scalar DOPRI5 on the equivalent RbmOdeSystem.
        let ks: Vec<Vec<f64>> = (0..5).map(|i| vec![1.0 + 0.25 * i as f64, 0.4]).collect();
        let x0 = [1.0, 0.0];
        let times = [0.5, 1.0, 2.0];
        let opts = SolverOptions::default();

        let mut sys = RbmBatchSystem::new(&odes, 3);
        for k in &ks {
            sys.push_member(&x0, k);
        }
        let mut scratch = SolverScratch::new();
        let (results, report) =
            Dopri5Batch::new().solve_group(&mut sys, 0.0, &times, &opts, &mut scratch);

        assert_eq!(results.len(), 5);
        assert!(report.lockstep_iters > 0);
        for (i, res) in results.iter().enumerate() {
            let batch_sol = res.as_ref().expect("member must integrate");
            let scalar_sys = RbmOdeSystem::new(&odes, ks[i].clone());
            let scalar_sol = Dopri5::new().solve(&scalar_sys, 0.0, &x0, &times, &opts).unwrap();
            assert_eq!(batch_sol.states, scalar_sol.states, "member {i}");
            assert_eq!(batch_sol.stats, scalar_sol.stats, "member {i}");
        }
    }
}

/// An [`RbmOdeSystem`] that additionally exposes the analytic parameter
/// Jacobian `∂f/∂k` for a chosen subset of reactions, making it a
/// [`SensOdeSystem`] both the augmented-DOPRI5 and the staggered-RADAU5
/// forward-sensitivity integrators consume.
///
/// A mass-action flux is `flux = k · g(x)`, so `∂fluxᵣ/∂kᵣ` is
/// the exact unit flux `g(x)` and `∂f/∂kⱼ` a single scaled stoichiometry
/// column (`CompiledOdes::dfdk_with`) — no finite differences anywhere.
///
/// # Example
///
/// ```
/// use paraspace_core::RbmSensSystem;
/// use paraspace_rbm::{Reaction, ReactionBasedModel};
/// use paraspace_solvers::{Radau5Sens, SolverOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = ReactionBasedModel::new();
/// let a = m.add_species("A", 1.0);
/// m.add_reaction(Reaction::mass_action(&[(a, 1)], &[], 2.0))?;
/// let odes = m.compile()?;
/// let sys = RbmSensSystem::new(&odes, vec![2.0], vec![0]);
/// let sol = Radau5Sens::new().solve(&sys, 0.0, &[1.0], &[1.0], &SolverOptions::default())?;
/// // ∂y/∂k at t=1 for y' = -k y is -t·e^{-kt}.
/// assert!((sol.sens[0][0] + (-2.0f64).exp()).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub struct RbmSensSystem<'a> {
    odes: &'a CompiledOdes,
    rate_constants: Vec<f64>,
    which: Vec<usize>,
    flux_buf: RefCell<Vec<f64>>,
}

impl<'a> RbmSensSystem<'a> {
    /// Binds `odes` to one parameterization, carrying sensitivities for
    /// the reactions listed in `which`.
    ///
    /// # Panics
    ///
    /// Panics on a rate-constant length mismatch or an out-of-range
    /// reaction index.
    pub fn new(odes: &'a CompiledOdes, rate_constants: Vec<f64>, which: Vec<usize>) -> Self {
        assert_eq!(
            rate_constants.len(),
            odes.n_reactions(),
            "one rate constant per reaction required"
        );
        for &r in &which {
            assert!(r < odes.n_reactions(), "sensitivity reaction index {r} out of range");
        }
        let m = odes.n_reactions();
        RbmSensSystem { odes, rate_constants, which, flux_buf: RefCell::new(vec![0.0; m]) }
    }

    /// The reactions sensitivities are carried for.
    pub fn which(&self) -> &[usize] {
        &self.which
    }

    /// The bound rate constants.
    pub fn rate_constants(&self) -> &[f64] {
        &self.rate_constants
    }
}

impl std::fmt::Debug for RbmSensSystem<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RbmSensSystem")
            .field("n_species", &self.odes.n_species())
            .field("n_params", &self.which.len())
            .finish()
    }
}

impl OdeSystem for RbmSensSystem<'_> {
    fn dim(&self) -> usize {
        self.odes.n_species()
    }

    fn rhs(&self, _t: f64, y: &[f64], dydt: &mut [f64]) {
        let mut flux = self.flux_buf.borrow_mut();
        self.odes.rhs_with_buffer(y, &self.rate_constants, &mut flux, dydt);
    }

    fn jacobian(&self, _t: f64, y: &[f64], jac: &mut Matrix) {
        self.odes.jacobian_with(y, &self.rate_constants, jac);
    }

    fn has_analytic_jacobian(&self) -> bool {
        true
    }
}

impl SensOdeSystem for RbmSensSystem<'_> {
    fn n_params(&self) -> usize {
        self.which.len()
    }

    fn dfdk(&self, _t: f64, y: &[f64], out: &mut [f64]) {
        self.odes.dfdk_with(y, &self.which, out);
    }

    fn jacobian_sparsity(&self) -> Option<&SparsityPattern> {
        Some(self.odes.jacobian_sparsity())
    }
}
