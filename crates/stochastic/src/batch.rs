//! The stochastic ensemble engine (cuTauLeaping-class).
//!
//! Stochastic analyses need *ensembles*: hundreds or thousands of
//! replicates of the same model. Exactly like the deterministic engines,
//! one virtual device thread runs one replicate; heterogeneous event
//! counts across replicates become warp divergence. On the host the
//! engine runs two routes:
//!
//! * the **lane-group path** — simulators exposing a lockstep kernel
//!   ([`TauLeaping`](crate::TauLeaping) via [`TauLeapBatch`]) run
//!   replicates in SoA lane groups with batched propensity/tau sweeps, at
//!   [`MAX_LANE_WIDTH`] unless pinned, one group per worker on the ODE
//!   engines' lockstep phase ([`Executor::lockstep_phase`]);
//! * the **scalar path** — everything else (the exact
//!   [`DirectMethod`](crate::DirectMethod), non-mass-action models whose
//!   falling-factorial propensities the batched kernel is gated off) runs
//!   one replicate per executor item.
//!
//! A chaos fault plan's replicates take the route every other replicate
//! takes: the lane kernel poisons their propensities as the scalar path
//! does.
//!
//! Which group ran a replicate shows nowhere: the device is billed on the
//! calling thread, in replicate order, per *modelled* group of
//! `CAPACITY_LANES·L` lane replicates ([`LaneGroupStats::packed`] over their
//! ticks). Both routes stop at the batch's [`CancelToken`].
//!
//! Every replicate draws from its own counter-based [`CounterRng`] stream
//! keyed by `(seed, member, replicate)` — see the [`rng`](crate::rng)
//! stream-layout docs — so both routes produce bitwise-identical
//! trajectories at any lane width, packing order, or thread count, and a
//! shard `run_range(lo..hi)` reproduces exactly the replicates the full
//! run would. The batch returns per-replicate outcomes, ensemble
//! statistics (per-species mean and variance at each sample time, over
//! the successful replicates), lane-occupancy accounting, and the
//! simulated device time.

use crate::chaos::StochFaultPlan;
use crate::rng::CounterRng;
use crate::{
    initial_counts, PropensityTable, StochasticError, StochasticSimulator, StochasticTrajectory,
};
use paraspace_exec::{CancelToken, Executor, MAX_LANE_WIDTH};
use paraspace_rbm::ReactionBasedModel;
use paraspace_vgpu::{
    Device, DeviceConfig, KernelLaunch, LaneAccounting, LaneGroupStats, MemorySpace, ThreadWork,
    THREADS_PER_BLOCK,
};
use std::ops::Range;

/// Replicates per lane slot of a *modelled* lane group (the ODE engines'
/// `MEMBERS_PER_LANE`): the device serves `CAPACITY_LANES·L` lane replicates
/// per group of width `L` in replicate order, however the host's groups
/// fell. This depth fixes the ensemble's [`LaneAccounting`].
const CAPACITY_LANES: usize = 4;

/// Ensemble statistics at the sampled time points.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleStats {
    /// Sample times.
    pub times: Vec<f64>,
    /// `mean[t][s]`: mean copy number of species `s` at time index `t`.
    pub mean: Vec<Vec<f64>>,
    /// `variance[t][s]`: unbiased variance across replicates.
    pub variance: Vec<Vec<f64>>,
}

impl EnsembleStats {
    /// Computes per-species mean and unbiased variance at each sample time
    /// over the *successful* outcomes. Deterministic: the accumulation
    /// order is replicate order, so reassembled shards produce bitwise the
    /// same statistics as an uninterrupted run.
    #[must_use]
    pub fn from_outcomes(
        times: &[f64],
        n_species: usize,
        outcomes: &[Result<StochasticTrajectory, StochasticError>],
    ) -> Self {
        let ok: Vec<&StochasticTrajectory> =
            outcomes.iter().filter_map(|o| o.as_ref().ok()).collect();
        let k = ok.len();
        let mut mean = vec![vec![0.0; n_species]; times.len()];
        let mut variance = vec![vec![0.0; n_species]; times.len()];
        for t in 0..times.len() {
            for s in 0..n_species {
                let vals: Vec<f64> = ok.iter().map(|tr| tr.states[t][s] as f64).collect();
                let mu = if k > 0 { vals.iter().sum::<f64>() / k as f64 } else { 0.0 };
                mean[t][s] = mu;
                variance[t][s] = if k > 1 {
                    vals.iter().map(|v| (v - mu).powi(2)).sum::<f64>() / (k - 1) as f64
                } else {
                    0.0
                };
            }
        }
        EnsembleStats { times: times.to_vec(), mean, variance }
    }
}

/// Result of a stochastic batch run.
#[derive(Debug)]
pub struct StochasticBatchResult {
    /// Per-replicate outcomes, in replicate order: a trajectory, or the
    /// typed error that retired the replicate (propensity hardening,
    /// injected faults). One failed replicate never poisons its
    /// neighbours.
    pub outcomes: Vec<Result<StochasticTrajectory, StochasticError>>,
    /// Ensemble statistics over the successful replicates.
    pub stats: EnsembleStats,
    /// Lane-group occupancy/divergence accounting (`None` when the whole
    /// ensemble ran the scalar path).
    pub lanes: Option<LaneAccounting>,
    /// The lane width the run resolved (1 = scalar path).
    pub lane_width: usize,
    /// Simulated device time (ns).
    pub simulated_ns: f64,
    /// Real host time.
    pub host_wall: std::time::Duration,
}

impl StochasticBatchResult {
    /// The successful trajectories, in replicate order.
    pub fn trajectories(&self) -> Vec<&StochasticTrajectory> {
        self.outcomes.iter().filter_map(|o| o.as_ref().ok()).collect()
    }

    /// The failed replicates as `(replicate index, error)`, in replicate
    /// order. Indices are relative to the run's range.
    pub fn failures(&self) -> Vec<(usize, &StochasticError)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.as_ref().err().map(|e| (i, e)))
            .collect()
    }
}

/// The stochastic ensemble runner.
///
/// # Example
///
/// ```
/// use paraspace_rbm::{Reaction, ReactionBasedModel};
/// use paraspace_stochastic::{DirectMethod, StochasticBatch};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = ReactionBasedModel::new();
/// let a = m.add_species("A", 200.0);
/// m.add_reaction(Reaction::mass_action(&[(a, 1)], &[], 1.0))?;
/// let batch = StochasticBatch::new(DirectMethod::new()).with_seed(3);
/// let r = batch.run(&m, &[0.5], 64)?;
/// // Ensemble mean tracks the ODE: 200·e^{-0.5} ≈ 121.
/// assert!((r.stats.mean[0][0] - 121.3).abs() < 8.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StochasticBatch<S> {
    simulator: S,
    seed: u64,
    member: u64,
    executor: Executor,
    cancel: CancelToken,
    lane_width: Option<usize>,
    faults: StochFaultPlan,
}

impl<S: StochasticSimulator + Sync> StochasticBatch<S> {
    /// A batch runner on the published GPU.
    pub fn new(simulator: S) -> Self {
        StochasticBatch {
            simulator,
            seed: 0,
            member: 0,
            executor: Executor::sequential(),
            cancel: CancelToken::new(),
            lane_width: None,
            faults: StochFaultPlan::new(),
        }
    }

    /// Sets the ensemble's campaign seed. Replicate `i` draws from the
    /// counter-based stream keyed by `(seed, member, i)` —
    /// [`CounterRng::replicate_stream`] — regardless of how the run is
    /// scheduled. (Before the counter-based layout, replicate `i` was
    /// seeded sequentially with `seed + i`; old seeds reproduce different
    /// ensembles. See the [`CounterRng`] migration note.)
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the campaign member (parameterization) index keying the RNG
    /// streams (default 0).
    pub fn with_member(mut self, member: u64) -> Self {
        self.member = member;
        self
    }

    /// Sets the host worker-thread count (default 1; 0 = one per core).
    /// Pure scheduling: results are bitwise identical at any thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.executor = Executor::new(threads);
        self
    }

    /// Installs a cooperative cancellation token (builder style), as the
    /// ODE engines' `with_cancel` does: once it trips no replicate starts
    /// or binds a lane, those in flight drain, and the run returns
    /// [`StochasticError::Cancelled`] (a rerun reproduces it bitwise).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Pins the lane width for the lockstep path (default: the full
    /// [`MAX_LANE_WIDTH`], narrowed to the lane replicates when there are
    /// fewer). `1` forces the scalar path. Pure scheduling: per-replicate
    /// trajectories, and the modelled clock, are bitwise independent of the
    /// width.
    pub fn with_lane_width(mut self, width: Option<usize>) -> Self {
        self.lane_width = width;
        self
    }

    /// Installs a deterministic fault plan (replicate indices are
    /// absolute, i.e. relative to replicate 0 of the full ensemble). On
    /// either path the poison trips the propensity hardening into a
    /// contained per-replicate error.
    pub fn with_faults(mut self, faults: StochFaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The simulator this batch drives.
    pub fn simulator(&self) -> &S {
        &self.simulator
    }

    /// The campaign seed keying the replicate streams.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The campaign member index keying the replicate streams.
    pub fn member(&self) -> u64 {
        self.member
    }

    /// The pinned lane width, if any (`None` = [`MAX_LANE_WIDTH`]).
    pub fn lane_width(&self) -> Option<usize> {
        self.lane_width
    }

    /// Runs `replicates` realizations and aggregates them.
    ///
    /// # Errors
    ///
    /// Model-validation failures; an empty ensemble is rejected;
    /// [`StochasticError::Cancelled`] when the token trips first.
    /// Per-replicate failures are *contained* in
    /// [`StochasticBatchResult::outcomes`], not returned here.
    pub fn run(
        &self,
        model: &ReactionBasedModel,
        times: &[f64],
        replicates: usize,
    ) -> Result<StochasticBatchResult, StochasticError> {
        self.run_range(model, times, 0..replicates)
    }

    /// Runs the replicate range `range` of the (conceptually unbounded)
    /// ensemble: replicate `i` of the full ensemble is bitwise identical
    /// whether it arrives via `run(n)` or any shard decomposition into
    /// `run_range` calls — the property the durable campaign layer builds
    /// on.
    ///
    /// # Errors
    ///
    /// Model-validation failures; an empty range is rejected;
    /// [`StochasticError::Cancelled`] when the token trips first.
    pub fn run_range(
        &self,
        model: &ReactionBasedModel,
        times: &[f64],
        range: Range<usize>,
    ) -> Result<StochasticBatchResult, StochasticError> {
        if range.is_empty() {
            return Err(StochasticError::EmptyEnsemble);
        }
        model.validate()?;
        let start = std::time::Instant::now();
        let device = Device::new(DeviceConfig::titan_x());
        let table = PropensityTable::new(model);
        let x0 = initial_counts(model);

        // Replicates drain through tau-leaping lane groups, or without a
        // lockstep kernel run the scalar simulator one per item. Lane
        // values carry ticks.
        let kernel = self.simulator.lane_kernel();
        let width = kernel.as_ref().map_or(1, |_| self.lane_width.unwrap_or(MAX_LANE_WIDTH).max(1));
        let stream = |abs: usize| CounterRng::replicate_stream(self.seed, self.member, abs as u64);
        let replicates: Vec<usize> = range.collect();
        let values = self.executor.lockstep_phase(
            &self.cancel,
            &replicates,
            width,
            |lanes, next| {
                let kernel = kernel.as_ref().expect("lanes run only with a lockstep kernel");
                let mut next_replicate = || next().map(|abs| (abs, stream(abs)));
                let (settled, _report) =
                    kernel.run_queue(&table, &x0, times, lanes, &self.faults, &mut next_replicate);
                settled
                    .into_iter()
                    .map(|(abs, outcome, ticks)| (abs, (outcome, Some(ticks))))
                    .collect()
            },
            || (),
            |(), abs| {
                let faults = self.faults.faults_for(abs);
                (self.simulator.simulate_counts(&table, &x0, times, &mut stream(abs), faults), None)
            },
        )?;
        let (outcomes, ticks): (Vec<_>, Vec<Option<u64>>) = values.into_iter().unzip();
        let ticks: Vec<u64> = ticks.into_iter().flatten().collect();

        // The bill, on this thread in replicate order: one lane group per
        // `CAPACITY_LANES·width` lane replicates, packed from their ticks.
        for group in ticks.chunks(CAPACITY_LANES * width) {
            let occupancy = LaneGroupStats::packed(width.min(group.len()), group.iter().copied());
            device.record_lane_group(&occupancy);
        }

        // Device pass: one thread per replicate; per-thread work from the
        // replicate's own event count (divergence across the warp).
        let n = model.n_species();
        let m = model.n_reactions();
        let per_event_flops = (2 * m + n) as u64; // propensities + selection
        let per_event_bytes = (m + n) as u64 * 8;
        let mut work: Vec<ThreadWork> = outcomes
            .iter()
            .map(|out| match out {
                Ok(tr) => ThreadWork::new()
                    .with_flops(tr.steps * per_event_flops)
                    .with_read(MemorySpace::CachedGlobal, tr.steps * per_event_bytes)
                    .with_global_write(times.len() as u64 * n as u64 * 8),
                Err(_) => ThreadWork::new(),
            })
            .collect();
        let tpb = THREADS_PER_BLOCK;
        let blocks = replicates.len().div_ceil(tpb);
        work.resize(blocks * tpb, ThreadWork::new());
        device.launch(
            &KernelLaunch::per_thread(
                format!("integrate::{}", self.simulator.name()),
                blocks,
                tpb,
                work,
            )
            .with_registers(48),
        );

        Ok(StochasticBatchResult {
            stats: EnsembleStats::from_outcomes(times, n, &outcomes),
            outcomes,
            lanes: (!ticks.is_empty()).then(|| device.lane_accounting()),
            lane_width: width,
            simulated_ns: device.elapsed_ns(),
            host_wall: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DirectMethod, StochFault, TauLeaping};
    use paraspace_rbm::{Reaction, ReactionBasedModel};

    fn decay(x0: f64) -> ReactionBasedModel {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", x0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[], 1.0)).unwrap();
        m
    }

    #[test]
    fn ensemble_mean_and_variance_match_linear_theory() {
        // First-order decay from x0: mean = x0·e^{-t}, variance =
        // x0·e^{-t}(1−e^{-t}) (binomial survival).
        let m = decay(1000.0);
        let t = 0.6f64;
        let r = StochasticBatch::new(DirectMethod::new()).with_seed(7).run(&m, &[t], 400).unwrap();
        let p = (-t).exp();
        let mean_exact = 1000.0 * p;
        let var_exact = 1000.0 * p * (1.0 - p);
        assert!((r.stats.mean[0][0] - mean_exact).abs() < 4.0, "mean {}", r.stats.mean[0][0]);
        assert!(
            (r.stats.variance[0][0] - var_exact).abs() < 60.0,
            "variance {} vs {var_exact}",
            r.stats.variance[0][0]
        );
    }

    #[test]
    fn replicates_differ_but_seeding_is_reproducible() {
        let m = decay(100.0);
        let batch = StochasticBatch::new(DirectMethod::new()).with_seed(1);
        let a = batch.run(&m, &[0.5], 16).unwrap();
        let b = batch.run(&m, &[0.5], 16).unwrap();
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x, y, "same seed ⇒ same ensemble");
        }
        let distinct: std::collections::HashSet<u64> =
            a.trajectories().iter().map(|t| t.states[0][0]).collect();
        assert!(distinct.len() > 3, "replicates must vary");
    }

    #[test]
    fn device_time_reflects_event_counts() {
        // Ten times the molecules ⇒ roughly ten times the SSA events ⇒
        // more simulated device time.
        let small = StochasticBatch::new(DirectMethod::new())
            .with_seed(2)
            .run(&decay(200.0), &[1.0], 32)
            .unwrap();
        let large = StochasticBatch::new(DirectMethod::new())
            .with_seed(2)
            .run(&decay(2000.0), &[1.0], 32)
            .unwrap();
        assert!(large.simulated_ns > small.simulated_ns);
    }

    #[test]
    fn tau_leaping_batch_is_cheaper_on_device_than_ssa() {
        let m = decay(100_000.0);
        let ssa =
            StochasticBatch::new(DirectMethod::new()).with_seed(3).run(&m, &[0.5], 8).unwrap();
        let tau = StochasticBatch::new(TauLeaping::new()).with_seed(3).run(&m, &[0.5], 8).unwrap();
        assert!(
            tau.simulated_ns * 5.0 < ssa.simulated_ns,
            "tau {} vs ssa {}",
            tau.simulated_ns,
            ssa.simulated_ns
        );
    }

    #[test]
    fn zero_replicates_rejected() {
        let m = decay(10.0);
        assert!(matches!(
            StochasticBatch::new(DirectMethod::new()).run(&m, &[1.0], 0),
            Err(StochasticError::EmptyEnsemble)
        ));
    }

    #[test]
    fn lane_path_engages_for_tau_leaping_and_reports_occupancy() {
        let m = decay(100_000.0);
        let r = StochasticBatch::new(TauLeaping::new()).with_seed(5).run(&m, &[0.5], 32).unwrap();
        assert!(r.lane_width >= 2, "an unpinned ensemble runs wide lanes");
        let lanes = r.lanes.expect("lane path must record groups");
        assert!(lanes.groups > 0);
        assert!(lanes.occupancy() > 0.0 && lanes.occupancy() <= 1.0);
        // SSA has no lockstep kernel: scalar path, no lane accounting.
        let ssa =
            StochasticBatch::new(DirectMethod::new()).with_seed(5).run(&m, &[0.5], 8).unwrap();
        assert!(ssa.lanes.is_none());
        assert_eq!(ssa.lane_width, 1);
    }

    #[test]
    fn lane_and_scalar_paths_are_bitwise_identical() {
        let m = decay(50_000.0);
        let batch = StochasticBatch::new(TauLeaping::new()).with_seed(11);
        let widths = [1usize, 2, 4, 8];
        let runs: Vec<_> = widths
            .iter()
            .map(|&w| batch.clone().with_lane_width(Some(w)).run(&m, &[0.2, 0.5], 13).unwrap())
            .collect();
        for (w, r) in widths.iter().zip(&runs).skip(1) {
            assert_eq!(r.outcomes, runs[0].outcomes, "width {w} vs scalar");
            assert_eq!(r.stats, runs[0].stats, "stats width {w}");
        }
        assert_eq!(runs[0].lane_width, 1);
        assert!(runs[0].lanes.is_none(), "pinned width 1 is the scalar path");
    }

    #[test]
    fn thread_count_is_invisible_in_results() {
        let m = decay(30_000.0);
        let base = StochasticBatch::new(TauLeaping::new()).with_seed(13);
        let one = base.clone().with_threads(1).run(&m, &[0.3], 40).unwrap();
        let eight = base.clone().with_threads(8).run(&m, &[0.3], 40).unwrap();
        assert_eq!(one.outcomes, eight.outcomes);
        assert_eq!(one.stats, eight.stats);
    }

    #[test]
    fn sharded_ranges_reassemble_the_full_ensemble() {
        let m = decay(20_000.0);
        let batch = StochasticBatch::new(TauLeaping::new()).with_seed(17);
        let full = batch.run(&m, &[0.4], 24).unwrap();
        let mut stitched = Vec::new();
        for lo in (0..24).step_by(7) {
            let hi = (lo + 7).min(24);
            stitched.extend(batch.run_range(&m, &[0.4], lo..hi).unwrap().outcomes);
        }
        assert_eq!(full.outcomes, stitched, "shard decomposition must be invisible");
    }

    #[test]
    fn fault_planned_replicates_are_contained() {
        let m = decay(60_000.0);
        let clean = StochasticBatch::new(TauLeaping::new()).with_seed(19);
        let faulty =
            clean.clone().with_faults(StochFaultPlan::new().poison(5, StochFault::nan(0, 2)));
        let a = clean.run(&m, &[0.2], 12).unwrap();
        let b = faulty.run(&m, &[0.2], 12).unwrap();
        assert!(
            matches!(b.outcomes[5], Err(StochasticError::BadPropensity { reaction: 0, .. })),
            "poisoned replicate fails typed: {:?}",
            b.outcomes[5]
        );
        for i in (0..12).filter(|&i| i != 5) {
            assert_eq!(a.outcomes[i], b.outcomes[i], "replicate {i} must be untouched");
        }
        // Deterministic containment: the retry re-faults identically.
        let c = faulty.run(&m, &[0.2], 12).unwrap();
        assert_eq!(b.outcomes, c.outcomes);
        // The poison strikes a lane where it strikes the scalar path: the
        // lanes' error payload is the scalar one, bit for bit.
        let scalar = faulty.clone().with_lane_width(Some(1)).run(&m, &[0.2], 12).unwrap();
        for width in [2, 8] {
            let lanes = faulty.clone().with_lane_width(Some(width)).run(&m, &[0.2], 12).unwrap();
            assert_eq!(lanes.lane_width, width);
            assert_eq!(lanes.outcomes, scalar.outcomes, "width {width}");
        }
    }

    #[test]
    fn member_index_separates_campaign_streams() {
        let m = decay(5_000.0);
        let base = StochasticBatch::new(TauLeaping::new()).with_seed(23);
        let m0 = base.clone().with_member(0).run(&m, &[0.3], 8).unwrap();
        let m1 = base.clone().with_member(1).run(&m, &[0.3], 8).unwrap();
        assert_ne!(m0.outcomes, m1.outcomes, "members must decorrelate");
    }
}
