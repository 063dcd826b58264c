//! Cooperative cancellation of the stochastic ensemble engine.
//!
//! A tripped [`CancelToken`] stops an ensemble on both of its routes: no
//! scalar replicate starts and no lane binds a replicate once a worker has
//! seen the trip, the replicates in flight drain, and the run returns the
//! typed [`StochasticError::Cancelled`] with nothing of the partial
//! ensemble kept — so an untripped rerun is bitwise the uninterrupted run.
//! Which group or worker served a replicate depends on timing, which is why
//! these run in the release determinism step too.

use paraspace_exec::{CancelToken, Executor};
use paraspace_rbm::{Reaction, ReactionBasedModel};
use paraspace_stochastic::{
    initial_counts, CounterRng, PropensityTable, StochFault, StochasticBatch, StochasticError,
    StochasticSimulator, StochasticTrajectory, TauLeapBatch, TauLeaping,
};
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Reversible isomerization with populations large enough to leap.
fn isomerization() -> ReactionBasedModel {
    let mut m = ReactionBasedModel::new();
    let a = m.add_species("A", 4_000.0);
    let b = m.add_species("B", 1_000.0);
    m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 2.0)).unwrap();
    m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 1.0)).unwrap();
    m
}

/// The exact direct method (no lane kernel: every replicate takes the
/// scalar route) that trips `cancel` from inside its `trip_at`-th
/// propensity sweep, counted over every replicate of the run, and counts
/// the replicates started before and after the trip.
struct Tripwire<'a> {
    cancel: &'a CancelToken,
    trip_at: usize,
    sweeps: AtomicUsize,
    starts: AtomicUsize,
    starts_at_trip: AtomicUsize,
}

impl<'a> Tripwire<'a> {
    fn new(cancel: &'a CancelToken, trip_at: usize) -> Self {
        let zero = || AtomicUsize::new(0);
        Tripwire { cancel, trip_at, sweeps: zero(), starts: zero(), starts_at_trip: zero() }
    }
}

impl StochasticSimulator for Tripwire<'_> {
    fn name(&self) -> &'static str {
        "tripwire"
    }

    fn simulate_counts<R: Rng + ?Sized>(
        &self,
        table: &PropensityTable,
        x0: &[u64],
        times: &[f64],
        rng: &mut R,
        _faults: &[StochFault],
    ) -> Result<StochasticTrajectory, StochasticError> {
        self.starts.fetch_add(1, Ordering::SeqCst);
        let (mut x, mut a, mut t) = (x0.to_vec(), vec![0.0; table.n_reactions()], 0.0);
        let mut traj = StochasticTrajectory { times: vec![], states: vec![], firings: 0, steps: 0 };
        for &ts in times {
            while t < ts {
                let a0 = table.propensities_into(&x, &mut a);
                if self.sweeps.fetch_add(1, Ordering::SeqCst) + 1 == self.trip_at {
                    self.cancel.cancel();
                    self.starts_at_trip.store(self.starts.load(Ordering::SeqCst), Ordering::SeqCst);
                }
                let dt = -rng.gen::<f64>().max(f64::MIN_POSITIVE).ln() / a0;
                t = (t + dt).min(ts);
                if t < ts {
                    let mut target = rng.gen::<f64>() * a0;
                    let mut chosen = a.len() - 1;
                    for (r, &ar) in a.iter().enumerate() {
                        if target < ar {
                            chosen = r;
                            break;
                        }
                        target -= ar;
                    }
                    assert!(table.fire(chosen, &mut x));
                    traj.firings += 1;
                    traj.steps += 1;
                }
            }
            traj.times.push(ts);
            traj.states.push(x.clone());
        }
        Ok(traj)
    }
}

#[test]
fn a_trip_inside_a_propensity_sweep_cancels_the_ensemble() {
    let model = isomerization();
    let times = [0.002, 0.004];
    let run = |threads: usize, cancel: &CancelToken, trip_at: usize| {
        let tripwire = Tripwire::new(cancel, trip_at);
        let batch = StochasticBatch::new(tripwire)
            .with_seed(9)
            .with_threads(threads)
            .with_cancel(cancel.clone());
        let result = batch.run(&model, &times, 24).map(|r| r.outcomes);
        let wire = batch.simulator();
        let starts = wire.starts.load(Ordering::SeqCst);
        (result, starts, wire.starts_at_trip.load(Ordering::SeqCst))
    };
    let (uninterrupted, _, _) = run(1, &CancelToken::new(), usize::MAX);
    let uninterrupted = uninterrupted.expect("an untripped token cancels nothing");
    for threads in [1, 2] {
        // Each replicate takes a few dozen sweeps: the trip lands in the
        // third or fourth replicate, mid-trajectory.
        let cancel = CancelToken::new();
        let (outcome, starts, starts_at_trip) = run(threads, &cancel, 100);
        assert_eq!(outcome, Err(StochasticError::Cancelled), "{threads} threads");
        assert!(starts_at_trip > 0, "{threads} threads: the trip fired inside a replicate");
        // A worker other than the tripping one may have passed its check
        // just before the trip; nobody who has seen it starts another.
        assert!(starts < 24, "{threads} threads: ran to the end");
        assert!(starts < starts_at_trip + threads, "{threads} threads: {starts} started");
        let (rerun, _, _) = run(threads, &CancelToken::new(), usize::MAX);
        assert_eq!(rerun.as_ref(), Ok(&uninterrupted), "{threads} threads");
    }
}

#[test]
fn a_tripped_token_stops_the_lane_route() {
    let model = isomerization();
    let cancel = CancelToken::new();
    cancel.cancel();
    for threads in [1, 2] {
        let batch = StochasticBatch::new(TauLeaping::new())
            .with_seed(3)
            .with_threads(threads)
            .with_lane_width(Some(4))
            .with_cancel(cancel.clone());
        let outcome = batch.run(&model, &[0.5], 64).map(|r| r.outcomes);
        assert_eq!(outcome, Err(StochasticError::Cancelled), "{threads} threads");
    }
}

/// `replicates` of `model` through the lane route `StochasticBatch` takes —
/// tau-leaping groups of 4 on [`Executor::lockstep_phase`] — with the
/// token tripped from inside a tick when the `trip_at`-th replicate binds.
/// Returns the outcome and how many replicates were bound by a group that
/// had already seen the trip.
fn run_lanes_tripwired(
    model: &ReactionBasedModel,
    replicates: usize,
    threads: usize,
    trip_at: usize,
) -> (Result<Vec<Result<StochasticTrajectory, StochasticError>>, StochasticError>, usize) {
    let (table, x0, times) = (PropensityTable::new(model), initial_counts(model), [0.2, 0.5]);
    let cancel = CancelToken::new();
    let (binds, late_binds) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let queue: Vec<usize> = (0..replicates).collect();
    let group = |lanes, next: &mut dyn FnMut() -> Option<usize>| {
        let mut next_replicate = || {
            let seen = cancel.is_cancelled();
            let replicate = next()?;
            if seen {
                late_binds.fetch_add(1, Ordering::SeqCst);
            }
            if binds.fetch_add(1, Ordering::SeqCst) + 1 == trip_at {
                cancel.cancel();
            }
            Some((replicate, CounterRng::replicate_stream(5, 0, replicate as u64)))
        };
        let (settled, _) =
            TauLeapBatch::new().run_queue(&table, &x0, &times, lanes, &mut next_replicate);
        settled.into_iter().map(|(replicate, outcome, _ticks)| (replicate, outcome)).collect()
    };
    let single = |(): &mut (), _| unreachable!("every replicate is admitted");
    let outcome =
        Executor::new(threads).lockstep_phase(&cancel, &queue, 4, |_| true, group, || (), single);
    (outcome.map_err(StochasticError::from), late_binds.into_inner())
}

#[test]
fn lane_groups_bind_no_replicate_after_the_trip() {
    // The trip fires when a lane that retired mid-tick asks for its next
    // replicate: the lanes in flight drain, no group that has seen the
    // trip binds another, the ensemble reports Cancelled — at one worker
    // and at two sharing the cursor — and nothing survives into the rerun.
    let model = isomerization();
    let (uninterrupted, _) = run_lanes_tripwired(&model, 40, 1, usize::MAX);
    let uninterrupted = uninterrupted.expect("an untripped token cancels nothing");
    for threads in [1, 2] {
        let (outcome, late_binds) = run_lanes_tripwired(&model, 40, threads, 10);
        assert_eq!(outcome, Err(StochasticError::Cancelled), "{threads} threads");
        assert_eq!(late_binds, 0, "{threads} threads: bound after the trip");
        let (rerun, _) = run_lanes_tripwired(&model, 40, threads, usize::MAX);
        assert_eq!(rerun.as_ref(), Ok(&uninterrupted), "{threads} threads");
    }
}
