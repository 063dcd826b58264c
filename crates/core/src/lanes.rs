//! Lane scheduling and per-model lane-width autotuning for the fine-coarse
//! engine's lockstep phases.
//!
//! The lockstep lane path amortizes host-launch latency and structure
//! decoding `L`-fold, so wider is better — **until** the stiff class's
//! Newton machinery stops paying for the extra lanes. The dominant term
//! there is the pair of iteration-matrix factorizations (one real + one
//! complex LU per lane): `n²` reals and `n²` complex values per lane per
//! refresh, ~2.3 MB of live factor state at `n = 114` and `L = 8`. The
//! dense factors are lane-major now (a lane's elimination touches only its
//! own contiguous block), which took most of the width penalty away but
//! not its sign (the numbers are on [`FACTOR_CACHE_BUDGET_BYTES`]).
//!
//! [`auto_lane_width`] prices that trade per model instead of hardcoding
//! one width for every network:
//!
//! 1. **Flux-dominated models** (per-step RHS + Jacobian work ≥ LU work)
//!    keep the full width: the LU working set is small where flux work
//!    dominates, and width amortizes both.
//! 2. **LU-dominated models** are width-limited so the *factor storage*
//!    of one lane-group — real + complex values over the dense `n²`
//!    entries of each lane's factors — stays inside a fixed cache budget.
//!
//! The *explicit* lockstep phase has no factorization, hence nothing for
//! that rule to price: the fine-coarse engine's P3 runs at the full width
//! ([`share_narrowed`]). Both phases take their width from one resolver,
//! [`phase_width`]: the pinned width, else the phase's rule, and the
//! scalar route below two members.
//!
//! # Scheduling
//!
//! Every lockstep phase in the crate — the fine-coarse engine's P3 and P4 —
//! is one [`first_attempts`] call, on the workspace's one lockstep phase,
//! `Executor::lockstep_phase` (the tau-leaping ensemble runs on it too):
//! every member runs in a [`lane_group`], fault-planned ones included —
//! their faults strike inside the lane
//! ([`ChaosBatchSystem`](paraspace_solvers::ChaosBatchSystem)), and a
//! group a panic takes down is contained by running the members it held as
//! contained scalar attempts. There is one lane group per executor worker,
//! every group refilling its free lanes from one shared member cursor, so
//! no worker idles while another still has members waiting. The engines
//! bill those attempts and continue each member's
//! recovery ladder from them (`recovery::Billed`). Independent stiff
//! systems integrated side by side diverge in step count (on the autophagy
//! PSA grid a fifth of the re-routed members need 3–5× the Radau steps of
//! the rest), which is why the fine-coarse engine orders its stiff phase's
//! queue longest first by the triage eigenvalue. That is legal because
//! nothing an engine reports depends on which group ran a member: attempts
//! are bitwise independent of packing, and the device is billed from
//! per-member counters in member order, its lane occupancy from a packing
//! the billing computes for itself ([`MEMBERS_PER_LANE`],
//! `LaneGroupStats::packed`).
//!
//! The returned width only ever *narrows* the schedule; it never changes
//! any trajectory (per-member results are bitwise independent of lane
//! width by the lockstep solvers' contract, and every lockstep group
//! integrates under the same options as a scalar first attempt — the
//! recovery policy's step budget applies at every width), so tuning is
//! purely a throughput decision and `--lane-width N` remains a safe manual
//! override.

use crate::cost::COMPLEX_LU_AVG_FACTOR;
use crate::recovery::contained_attempt;
use crate::{Host, SimulationJob};
use paraspace_exec::{Cancelled, MAX_LANE_WIDTH};
use paraspace_linalg::LuFactor;
use paraspace_rbm::CompiledOdes;
use paraspace_solvers::{
    BatchOdeSystem, ChaosBatchSystem, Dopri5, Dopri5Batch, OdeSolver, Radau5, Radau5Batch,
    Solution, SolveFailure, SolverOptions, SolverScratch,
};

/// How one member's integration ended.
type Attempt = Result<Solution, SolveFailure>;

/// The two lockstep kernels a lane group can integrate under.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lockstep {
    /// [`Dopri5Batch`]: the explicit class.
    Dopri5,
    /// [`Radau5Batch`]: the stiff class.
    Radau5,
}

/// Members per lane slot of a *modelled* lane group: the device serves
/// `MEMBERS_PER_LANE·L` members per group of width `L`, in member order,
/// early finishers handing their lane to the next member. The host packs
/// its groups however the shared queue falls ([`lane_group`]); the
/// engines bill this packing regardless (`LaneGroupStats::packed`). Deep
/// enough to keep the lanes occupied, shallow enough that a stiff crowd of
/// a few dozen members still splits into several groups.
pub(crate) const MEMBERS_PER_LANE: usize = 2;

/// The width a lockstep phase over `members` members runs at: the pinned
/// width, else the phase's `rule`, and the scalar route (`1`) below two
/// members. A pinned `1` is the all-scalar route.
pub(crate) fn phase_width(
    pinned: Option<usize>,
    members: usize,
    rule: impl FnOnce() -> usize,
) -> usize {
    if members < 2 {
        return 1;
    }
    pinned.unwrap_or_else(rule).max(1)
}

/// `width` narrowed to a power of two when each of `workers` workers'
/// share of `members` would not fill it: the explicit phase's (P3) host
/// width. Its kernel holds no factorization, so the LU rule of
/// [`auto_lane_width`] has nothing to price there (it answers 1 for a
/// sparse 128-species network whose P3 runs fastest at 8): P3's rule is
/// [`MAX_LANE_WIDTH`].
pub(crate) fn share_narrowed(width: usize, members: usize, workers: usize) -> usize {
    let share = (members / workers.max(1)).max(1);
    if share < width {
        1 << share.ilog2()
    } else {
        width
    }
}

/// One lane group of the lockstep `kernel` over `lanes` lanes of `job`,
/// its fault plan's faults injected when it has any: binds members from
/// `next` until it answers `None` and returns each member's attempt as it
/// settles. A member's attempt does not depend on which group integrated it
/// nor on the group's width (the lockstep contract).
fn lane_group(
    kernel: Lockstep,
    job: &SimulationJob,
    lanes: usize,
    next: &mut dyn FnMut() -> Option<usize>,
    options: &SolverOptions,
) -> Vec<(usize, Attempt)> {
    let mut system = job.lane_system(lanes);
    if job.fault_plan().is_empty() {
        kernel_group(kernel, &mut system, next, job.time_points(), options)
    } else {
        let system = &mut ChaosBatchSystem::new(system, job.fault_plan());
        kernel_group(kernel, system, next, job.time_points(), options)
    }
}

/// One group of the lockstep `kernel` on `system` (see [`lane_group`]).
fn kernel_group(
    kernel: Lockstep,
    system: &mut dyn BatchOdeSystem,
    next: &mut dyn FnMut() -> Option<usize>,
    times: &[f64],
    options: &SolverOptions,
) -> Vec<(usize, Attempt)> {
    let scratch = &mut SolverScratch::new();
    let (settled, _report) = match kernel {
        Lockstep::Dopri5 => {
            Dopri5Batch::new().solve_queue(system, next, 0.0, times, options, scratch)
        }
        Lockstep::Radau5 => {
            Radau5Batch::new().solve_queue(system, next, 0.0, times, options, scratch)
        }
    };
    settled
}

/// The first attempts of one lockstep class's `members` at `width`,
/// **in list order**, under the options every first attempt runs under
/// (`RecoveryPolicy::base_options`): one
/// [`Executor::lockstep_phase`](paraspace_exec::Executor::lockstep_phase)
/// call. When `width ≥ 2` the members integrate as [`lane_group`]s — list
/// the expensive ones first; at width 1, and for the members a panicking
/// group held, they make contained scalar attempts on `kernel`'s scalar
/// twin ([`Dopri5`] / [`Radau5`]) on the host's workers. Each attempt is
/// bitwise the contained scalar one either way.
pub(crate) fn first_attempts(
    host: &Host,
    job: &SimulationJob,
    kernel: Lockstep,
    members: &[usize],
    width: usize,
) -> Result<Vec<Attempt>, Cancelled> {
    let options = host.recovery.base_options(job);
    let (dopri5, radau5) = (Dopri5::new(), Radau5::new());
    let twin: &dyn OdeSolver = match kernel {
        Lockstep::Dopri5 => &dopri5,
        Lockstep::Radau5 => &radau5,
    };
    host.executor.lockstep_phase(
        &host.cancel,
        members,
        width,
        |lanes, next| lane_group(kernel, job, lanes, next, &options),
        SolverScratch::new,
        |scratch, i| contained_attempt(job, i, twin, &options, scratch),
    )
}

/// Cache budget for one lane-group's live factor values (real + complex),
/// sized to a conservative per-core L2 slice: the widest group whose dense
/// factors stay under it is the width LU-dominated models run at.
///
/// The rule was calibrated on the lane-minor dense kernels, where crossing
/// the budget was a cliff, and has been re-measured at every change to what
/// a wide group costs — lane-major factors, then the shared member queue
/// with planar complex factors (fine+coarse engine, P3 + P4 wall, best of
/// the repetitions of two or three interleaved runs per width):
///
/// | model | width | one thread | two threads |
/// |---|---|---|---|
/// | autophagy analogue, 46 × 1649, the 64-member PSA-2D (32 on Radau lanes) | 4 (the rule's choice) | 0.73–0.76 s | 0.38–0.41 s |
/// | | 8 | 0.67–0.73 s | 0.39–0.42 s |
/// | metabolic, 114 × 226, 32 stiff members | 1 (the rule's choice: scalar RADAU5 route) | 1.04–1.08 s | |
/// | | 4 | 1.07–1.10 s | |
/// | | 8 | 1.14–1.16 s | |
///
/// On the queue a wide group no longer idles its lanes behind a long
/// member (on a fixed `2·L` partition width 8 filled 61 % of its lane slots
/// on the autophagy grid and cost +11 %), so on that model width 8 is now
/// level with width 4 — ahead on one thread, where one group serves all 32
/// members, level on two, where each group's 8 lanes see two members each.
/// On metabolic crossing the budget still costs +5–10 % over the rule's
/// choice (+93–123 % lane-minor, +20–44 % lane-major), so the rule and the
/// constant stay as they were: width 8 would have to win on both.
///
/// Re-measured again with the AVX2 twins of the eliminations and the lane
/// RHS (engine wall of an in-process fine+coarse run, best of five per
/// round, the range over three rounds; a noisier day of the same 2-CPU
/// host, so the ranges are wider than above):
///
/// | model | width | one thread | two threads |
/// |---|---|---|---|
/// | autophagy analogue, the 64-member PSA-2D | 4 (the rule's choice) | 0.78–0.85 s | 0.40–0.53 s |
/// | | 8 | 0.54–0.70 s | 0.42–0.48 s |
/// | metabolic, 32 perturbed members | 1 (the rule's choice) | 1.16–1.47 s | |
/// | | 4 | 1.17–1.43 s | |
/// | | 8 | 1.34–1.65 s | |
///
/// Faster factors move every width, and the picture is the one above:
/// autophagy at width 8 is ahead on one thread in every round and level on
/// two, and on metabolic width 8 lost to the rule's choice in two rounds of
/// three (+25 % and +39 %). Width 8 still does not win on both; the
/// constant stays.
const FACTOR_CACHE_BUDGET_BYTES: usize = 256 * 1024;

/// Bytes of factor state per matrix entry per lane: one `f64` (real E1
/// factor) + one `Complex64` (complex E2 factor).
const FACTOR_BYTES_PER_ENTRY: usize = 8 + 16;

/// The lane width the stiff lockstep phase should run `odes` at, from the
/// model's flux-cost-vs-LU-cost ratio and factorization working set.
///
/// Returns a power of two in `1..=8`. `1` means lockstep lanes do not pay
/// for this model — the LU working set swamps the cache at any width (the
/// measured regime where even width-1 lanes trail scalar RADAU5), and the
/// fine-coarse engine routes its stiff members to the scalar RADAU5 P4
/// path. Deterministic per model — it reads only compiled-model structure,
/// never timings.
///
/// # Example
///
/// ```
/// use paraspace_core::auto_lane_width;
/// use paraspace_rbm::{Reaction, ReactionBasedModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = ReactionBasedModel::new();
/// let a = m.add_species("A", 1.0);
/// m.add_reaction(Reaction::mass_action(&[(a, 1)], &[], 1.0))?;
/// // Tiny flux-dominated model: full width.
/// assert_eq!(auto_lane_width(&m.compile()?), 8);
/// # Ok(())
/// # }
/// ```
pub fn auto_lane_width(odes: &CompiledOdes) -> usize {
    let n = odes.n_species();
    // Per-step work split: one RHS + one Jacobian evaluation against one
    // real + one complex factorization (the same averaging the cost model
    // applies to RADAU5's lumped LU counter).
    let flux_flops = (odes.rhs_flops() + odes.jacobian_flops()) as f64;
    let lu_flops = LuFactor::flops(n) as f64 * (1.0 + COMPLEX_LU_AVG_FACTOR);
    if lu_flops <= flux_flops {
        return MAX_LANE_WIDTH;
    }
    // LU-dominated: bound the lane-group's dense factor working set by the
    // cache budget.
    let bytes_per_lane = n * n * FACTOR_BYTES_PER_ENTRY;
    let mut width = MAX_LANE_WIDTH;
    while width > 1 && bytes_per_lane * width > FACTOR_CACHE_BUDGET_BYTES {
        width /= 2;
    }
    width
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraspace_exec::{CancelToken, Executor};
    use paraspace_rbm::{Reaction, ReactionBasedModel};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn chain_model(n_species: usize, reactions_per_species: usize) -> CompiledOdes {
        let mut m = ReactionBasedModel::new();
        let ids: Vec<_> = (0..n_species).map(|i| m.add_species(format!("S{i}"), 1.0)).collect();
        for s in 0..n_species.saturating_sub(1) {
            for _ in 0..reactions_per_species {
                m.add_reaction(Reaction::mass_action(&[(ids[s], 1)], &[(ids[s + 1], 1)], 1.0))
                    .unwrap();
            }
        }
        m.compile().unwrap()
    }

    #[test]
    fn explicit_width_is_eight_unless_pinned_or_starved() {
        let explicit_lane_width = |pinned, members, workers| {
            share_narrowed(phase_width(pinned, members, || MAX_LANE_WIDTH), members, workers)
        };
        // Auto: the full width once every worker's share fills it...
        assert_eq!(explicit_lane_width(None, 192, 2), 8);
        assert_eq!(explicit_lane_width(None, 16, 2), 8);
        // ...narrowed to a power of two when it does not...
        assert_eq!(explicit_lane_width(None, 15, 2), 4);
        assert_eq!(explicit_lane_width(None, 20, 4), 4);
        assert_eq!(explicit_lane_width(None, 7, 2), 2);
        assert_eq!(explicit_lane_width(None, 3, 2), 1);
        assert_eq!(explicit_lane_width(None, 5, 64), 1);
        // ...and scalar for a single member.
        assert_eq!(explicit_lane_width(None, 1, 1), 1);
        // A pin is honored (1 = the all-scalar route), and starved alike.
        assert_eq!(explicit_lane_width(Some(1), 192, 2), 1);
        assert_eq!(explicit_lane_width(Some(3), 192, 2), 3);
        assert_eq!(explicit_lane_width(Some(8), 6, 1), 4);
    }

    /// A lane system that trips `cancel` from its `trip_at`-th RHS sweep
    /// (counted over all groups) and counts the lanes bound by a group
    /// whose own sweeps had already seen the token tripped.
    struct Tripwire<'a> {
        inner: crate::RbmBatchSystem<'a>,
        cancel: &'a CancelToken,
        sweeps: &'a AtomicUsize,
        trip_at: usize,
        saw_trip: bool,
        late_binds: &'a AtomicUsize,
    }

    impl BatchOdeSystem for Tripwire<'_> {
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn lanes(&self) -> usize {
            self.inner.lanes()
        }
        fn members(&self) -> usize {
            self.inner.members()
        }
        fn initial_state(&self, member: usize, y0: &mut [f64]) {
            self.inner.initial_state(member, y0);
        }
        fn bind_lane(&mut self, lane: usize, member: usize) {
            if self.saw_trip {
                self.late_binds.fetch_add(1, Ordering::SeqCst);
            }
            self.inner.bind_lane(lane, member);
        }
        fn rhs_batch(
            &mut self,
            t: &[f64],
            y: &paraspace_solvers::BatchState,
            dydt: &mut paraspace_solvers::BatchState,
        ) {
            if self.sweeps.fetch_add(1, Ordering::SeqCst) + 1 >= self.trip_at {
                self.cancel.cancel();
            }
            self.saw_trip = self.cancel.is_cancelled();
            self.inner.rhs_batch(t, y, dydt);
        }
        fn supports_jacobian_batch(&self) -> bool {
            self.inner.supports_jacobian_batch()
        }
        fn jacobian_batch(
            &mut self,
            t: &[f64],
            y: &paraspace_solvers::BatchState,
            jac: &mut [f64],
        ) {
            self.inner.jacobian_batch(t, y, jac);
        }
    }

    /// `job`'s members through 4-wide [`kernel_group`]s on tripwired systems:
    /// the outcome and how many lanes were bound by a group that had
    /// already seen the token tripped.
    fn run_tripwired(
        job: &SimulationJob,
        kernel: Lockstep,
        threads: usize,
        trip_at: usize,
    ) -> (Result<Vec<Attempt>, Cancelled>, usize) {
        let cancel = CancelToken::new();
        let members: Vec<usize> = (0..job.batch_size()).collect();
        let (sweeps, late_binds) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let tripwire = |width| Tripwire {
            inner: job.lane_system(width),
            cancel: &cancel,
            sweeps: &sweeps,
            trip_at,
            saw_trip: false,
            late_binds: &late_binds,
        };
        let outcome = Executor::new(threads).lockstep_phase(
            &cancel,
            &members,
            4,
            |width, next| {
                kernel_group(kernel, &mut tripwire(width), next, job.time_points(), job.options())
            },
            || (),
            |(), _| unreachable!("no group panics"),
        );
        (outcome, late_binds.into_inner())
    }

    /// The token trips from the RHS while the first members of `job` are
    /// still integrating: the lanes in flight drain, no group that has seen
    /// the trip binds another member, the phase reports Cancelled — at one
    /// worker and at two sharing the cursor — and nothing of the cancelled
    /// attempt survives into the next one.
    fn assert_cancels_mid_phase_without_refilling(job: &SimulationJob, kernel: Lockstep) {
        let (uninterrupted, _) = run_tripwired(job, kernel, 1, usize::MAX);
        let uninterrupted = uninterrupted.expect("an untripped token cancels nothing");
        assert!(uninterrupted.iter().all(|attempt| attempt.is_ok()));
        for threads in [1, 2] {
            let (outcome, late_binds) = run_tripwired(job, kernel, threads, 12);
            assert_eq!(outcome, Err(Cancelled), "{threads} threads");
            assert_eq!(late_binds, 0, "{threads} threads: refilled after the trip");
            let (rerun, _) = run_tripwired(job, kernel, threads, usize::MAX);
            assert_eq!(rerun.as_ref(), Ok(&uninterrupted), "{threads} threads");
        }
    }

    #[test]
    fn explicit_queue_cancels_mid_phase_without_refilling() {
        // 40 members through 4-wide DOPRI5 groups.
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let b = m.add_species("B", 0.2);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 0.9)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 0.4)).unwrap();
        let job = SimulationJob::builder(&m)
            .time_points(vec![0.5, 1.0, 2.0])
            .replicate(40)
            .build()
            .unwrap();
        assert_cancels_mid_phase_without_refilling(&job, Lockstep::Dopri5);
    }

    #[test]
    fn stiff_queue_cancels_mid_phase_without_refilling() {
        // 24 stiff members, rates spread so their step counts differ,
        // through 4-wide RADAU5 groups: the token trips mid-P4.
        use paraspace_rbm::Parameterization;
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let b = m.add_species("B", 0.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1.0)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 1.0)).unwrap();
        let mut builder = SimulationJob::builder(&m).time_points(vec![0.5, 1.0, 2.0]);
        for i in 0..24 {
            let fast = 1e3 * 1.5f64.powi(i);
            builder = builder.parameterization(
                Parameterization::new().with_rate_constants(vec![fast, 2.0 * fast]),
            );
        }
        let job = builder.build().unwrap();
        assert_cancels_mid_phase_without_refilling(&job, Lockstep::Radau5);
    }

    #[test]
    fn first_attempts_are_the_contained_scalar_ones_in_list_order() {
        // Six members listed out of member order, member 2 fault-planned: a
        // NaN its lane meets exactly where its scalar attempt does. At every
        // width and worker count each attempt equals the contained scalar
        // one.
        use paraspace_rbm::Parameterization;
        use paraspace_solvers::{FaultPlan, FaultSpec};
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1.0);
        let b = m.add_species("B", 0.2);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 0.9)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 0.4)).unwrap();
        let mut builder = SimulationJob::builder(&m).time_points(vec![0.5, 1.0, 2.0]);
        for i in 0..6 {
            builder = builder.parameterization(
                Parameterization::new().with_rate_constants(vec![0.5 + 0.3 * i as f64, 0.4]),
            );
        }
        let plan = FaultPlan::new().with_fault(2, FaultSpec::nan_at_time(0.1));
        let job = builder.fault_plan(plan).build().unwrap();
        let members = [4, 2, 0, 5, 1, 3];
        let (dopri5, radau5) = (Dopri5::new(), Radau5::new());
        let mut scratch = SolverScratch::new();
        for (kernel, twin) in
            [(Lockstep::Dopri5, &dopri5 as &dyn OdeSolver), (Lockstep::Radau5, &radau5)]
        {
            let scalar: Vec<Attempt> = members
                .iter()
                .map(|&i| contained_attempt(&job, i, twin, job.options(), &mut scratch))
                .collect();
            assert!(scalar[1].is_err(), "{kernel:?}: the planned fault fires");
            assert_eq!(scalar.iter().filter(|a| a.is_ok()).count(), 5, "{kernel:?}");
            for width in [1, 2, 4] {
                for threads in [1, 2] {
                    let host = Host { executor: Executor::new(threads), ..Host::default() };
                    let attempts = first_attempts(&host, &job, kernel, &members, width).unwrap();
                    assert_eq!(attempts, scalar, "{kernel:?}, width {width}, {threads} threads");
                }
            }
        }
    }

    #[test]
    fn small_models_keep_full_width() {
        // The determinism suite's 2-species stiff rows must be unaffected.
        assert_eq!(auto_lane_width(&chain_model(2, 1)), MAX_LANE_WIDTH);
    }

    #[test]
    fn reaction_dense_models_keep_full_width() {
        // Many reactions per species: flux work dominates the LU.
        assert_eq!(auto_lane_width(&chain_model(12, 40)), MAX_LANE_WIDTH);
    }

    #[test]
    fn large_sparse_chains_narrow() {
        // One reaction per species at n = 114: LU-dominated, and the factor
        // working set cannot justify width 8's cache pressure...
        let w = auto_lane_width(&chain_model(114, 1));
        assert!(w < MAX_LANE_WIDTH, "got {w}");
        assert!(w >= 1);
        // ...but the choice is deterministic.
        assert_eq!(w, auto_lane_width(&chain_model(114, 1)));
    }

    #[test]
    fn autotuned_width_one_is_honored() {
        // A 114-species single chain is LU-dominated past the cache budget
        // at every width, so the tuner answers 1 — the scalar RADAU5 route —
        // and a pin overrides it.
        let mut m = ReactionBasedModel::new();
        let ids: Vec<_> = (0..114).map(|i| m.add_species(format!("S{i}"), 1.0)).collect();
        for s in 0..113 {
            m.add_reaction(Reaction::mass_action(&[(ids[s], 1)], &[(ids[s + 1], 1)], 1.0)).unwrap();
        }
        assert_eq!(auto_lane_width(&m.compile().unwrap()), 1);
        let job =
            crate::SimulationJob::builder(&m).time_points(vec![1.0]).replicate(8).build().unwrap();
        let p4_width =
            |pinned, members| phase_width(pinned, members, || auto_lane_width(job.odes()));
        assert_eq!(p4_width(None, job.batch_size()), 1);
        assert_eq!(p4_width(Some(4), job.batch_size()), 4);
        assert_eq!(p4_width(Some(4), 1), 1);
    }

    #[test]
    fn width_is_a_power_of_two_in_range() {
        for (n, r) in [(2, 1), (12, 3), (40, 1), (114, 1), (200, 1)] {
            let w = auto_lane_width(&chain_model(n, r));
            assert!((1..=MAX_LANE_WIDTH).contains(&w) && w.is_power_of_two(), "n={n} w={w}");
        }
    }
}
