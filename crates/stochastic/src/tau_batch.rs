//! Lockstep tau-leaping lanes: SoA-batched stochastic ensembles.
//!
//! [`TauLeapBatch`] advances `L` replicates of one parameterization in
//! lockstep through the tau-leaping loop, the stochastic sibling of the
//! deterministic `Dopri5Batch`/`Radau5Batch` lane kernels. All lanes share
//! the compiled propensity structure and rate constants; the per-tick
//! work splits into
//!
//! * **batched sweeps** (lanes innermost, autovectorizable): propensity
//!   evaluation over the species-major/lane-minor `u64` count state via
//!   [`CompiledStoich::propensities_lanes`], per-lane propensity sums,
//!   and the Cao tau-selection sweep `μ_s/σ²_s` over the species-major
//!   net-change CSR — the parts a GPU would run as coalesced warps;
//! * **per-lane tails** (inherently divergent): Poisson firing draws, the
//!   τ-halving rejection loop, the exact-SSA fallback for near-critical
//!   populations, and sample delivery — the parts a GPU serializes as
//!   divergent branches, and the host runs as short scalar code per lane.
//!
//! # The determinism contract
//!
//! Each lane executes *exactly* the scalar [`TauLeaping`] iteration — the
//! same floating-point operations in the same order, the same RNG draw
//! sequence against its own [`CounterRng`] stream — so every lane's
//! trajectory is bitwise identical to `TauLeaping::simulate_counts` with
//! that replicate's stream. Lane width, lane packing order, and lane
//! compaction (a retired lane rebinds the next pending replicate, the
//! mask-and-compact discipline of the ODE lane kernels) are therefore
//! pure scheduling decisions: they change throughput and occupancy, never
//! a trajectory. The tests assert the equality bit-for-bit.
//!
//! # Scheduling and occupancy
//!
//! [`TauLeapBatch::run_queue`] pulls replicates from a closure, as the ODE
//! lane kernels pull members, so groups can share one queue
//! (`paraspace_exec::Executor::lockstep_phase`). No lane ever waits, so a
//! group's counters are [`LaneGroupStats::packed`] over its replicates'
//! ticks in pull order — which is what the ensemble bills, in replicate
//! order, whichever host group ran them.
//!
//! [`TauLeaping`]: crate::TauLeaping
//! [`CompiledStoich::propensities_lanes`]: paraspace_rbm::CompiledStoich::propensities_lanes

use crate::error::validate_propensities;
use crate::propensity::PropensityTable;
use crate::rng::CounterRng;
use crate::sampling::poisson;
use crate::tau::{EPSILON, SSA_THRESHOLD};
use crate::{StochasticError, StochasticTrajectory};
use paraspace_vgpu::LaneGroupStats;
use rand::Rng;

/// How one replicate ended.
type Outcome = Result<StochasticTrajectory, StochasticError>;

/// One lane's bookkeeping: which replicate it runs and where that
/// replicate stands.
struct Lane {
    replicate: usize,
    t: f64,
    sample_idx: usize,
    rng: CounterRng,
    out_times: Vec<f64>,
    out_states: Vec<Vec<u64>>,
    firings: u64,
    steps: u64,
    /// Lockstep ticks the replicate has been live for.
    ticks: u64,
}

impl Lane {
    /// The finished replicate: its index, its trajectory, its ticks.
    fn finish(self) -> (usize, Outcome, u64) {
        let trajectory = StochasticTrajectory {
            times: self.out_times,
            states: self.out_states,
            firings: self.firings,
            steps: self.steps,
        };
        (self.replicate, Ok(trajectory), self.ticks)
    }
}

/// The lockstep tau-leaping lane kernel, with [`TauLeaping`](crate::TauLeaping)'s
/// ε and SSA threshold; [`StochasticBatch`](crate::StochasticBatch) takes it
/// from [`lane_kernel`](crate::StochasticSimulator::lane_kernel).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TauLeapBatch {
    _private: (),
}

impl Default for TauLeapBatch {
    fn default() -> Self {
        TauLeapBatch::new()
    }
}

impl TauLeapBatch {
    /// A kernel with the scalar simulator's ε = 0.03 and SSA threshold 10.
    pub fn new() -> Self {
        TauLeapBatch { _private: () }
    }

    /// [`run_queue`](Self::run_queue) over `streams` in order, at most one
    /// lane per stream: replicate `i` draws from `streams[i]`. Returns the
    /// outcomes in stream order and the group's occupancy.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `x0.len() != table.n_species()`.
    pub fn run(
        &self,
        table: &PropensityTable,
        x0: &[u64],
        times: &[f64],
        width: usize,
        streams: &[CounterRng],
    ) -> (Vec<Outcome>, LaneGroupStats) {
        let mut pending = streams.iter().cloned().enumerate();
        let lanes = width.min(streams.len().max(1));
        let (mut settled, report) = self.run_queue(table, x0, times, lanes, &mut || pending.next());
        settled.sort_by_key(|&(replicate, ..)| replicate);
        (settled.into_iter().map(|(_, outcome, _)| outcome).collect(), report)
    }

    /// One lane group of `width` over the replicates `next_replicate` hands
    /// out, each as its index and its own stream, from `x0` and sampled at
    /// `times` (non-decreasing). A lane freed by a finished (or hardening-
    /// tripped) replicate asks for the next one at once; the group stops
    /// asking at the first `None`, drains its live lanes and returns.
    ///
    /// Returns `(replicate, outcome, ticks)` as they settled — `ticks` the
    /// lockstep iterations the replicate was live for, which like its
    /// outcome does not depend on the group — and the group's occupancy.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `x0.len() != table.n_species()`.
    pub fn run_queue(
        &self,
        table: &PropensityTable,
        x0: &[u64],
        times: &[f64],
        width: usize,
        next_replicate: &mut dyn FnMut() -> Option<(usize, CounterRng)>,
    ) -> (Vec<(usize, Outcome, u64)>, LaneGroupStats) {
        assert!(width > 0, "lane width must be positive");
        let stoich = table.stoich();
        let n = stoich.n_species();
        let m = stoich.n_reactions();
        assert_eq!(x0.len(), n, "initial counts must cover every species");
        let lanes = width;
        let mut report = LaneGroupStats { width: lanes, lockstep_iters: 0, lane_steps: 0 };
        let mut settled = Vec::new();

        // Species-major, lane-minor count state.
        let mut counts = vec![0u64; n * lanes];
        let mut a = vec![0.0f64; m * lanes];
        let mut a0 = vec![0.0f64; lanes];
        let mut tau_sel = vec![0.0f64; lanes];
        let mut mu = vec![0.0f64; lanes];
        let mut sigma2 = vec![0.0f64; lanes];
        let mut cand = vec![0u64; n];
        let mut slots: Vec<Option<Lane>> = (0..lanes).map(|_| None).collect();
        let mut exhausted = false;

        // Binds pending replicates to lane `l`, delivering any samples due
        // at t = 0 immediately (mirroring the scalar `while t < ts` guard,
        // which never enters the loop for ts ≤ 0). Replicates whose entire
        // schedule is due at once complete here and the next one binds.
        let mut bind = |l: usize,
                        slots: &mut Vec<Option<Lane>>,
                        counts: &mut Vec<u64>,
                        settled: &mut Vec<(usize, Outcome, u64)>| {
            slots[l] = None;
            while !exhausted {
                let Some((replicate, rng)) = next_replicate() else {
                    exhausted = true;
                    break;
                };
                for s in 0..n {
                    counts[s * lanes + l] = x0[s];
                }
                let mut lane = Lane {
                    replicate,
                    t: 0.0,
                    sample_idx: 0,
                    rng,
                    out_times: Vec::with_capacity(times.len()),
                    out_states: Vec::with_capacity(times.len()),
                    firings: 0,
                    steps: 0,
                    ticks: 0,
                };
                while lane.sample_idx < times.len() && lane.t >= times[lane.sample_idx] {
                    lane.out_times.push(times[lane.sample_idx]);
                    lane.out_states.push(x0.to_vec());
                    lane.sample_idx += 1;
                }
                if lane.sample_idx == times.len() {
                    settled.push(lane.finish());
                    continue;
                }
                slots[l] = Some(lane);
                break;
            }
        };
        for l in 0..lanes {
            bind(l, &mut slots, &mut counts, &mut settled);
        }

        while slots.iter().any(Option::is_some) {
            report.lockstep_iters += 1;
            report.lane_steps += slots.iter().filter(|s| s.is_some()).count() as u64;

            // Batched sweeps over all lane slots (idle slots carry stale
            // counts; their results are never read).
            stoich.propensities_lanes(&counts, lanes, &mut a);
            stoich.propensity_sums_lanes(&a, lanes, &mut a0);
            // Cao tau selection, species outer / reactions inner / lanes
            // innermost: each lane accumulates μ/σ² in exactly the scalar
            // `select_tau` order.
            tau_sel.fill(f64::INFINITY);
            for s in 0..n {
                mu.fill(0.0);
                sigma2.fill(0.0);
                let rs = stoich.species_net_reactions(s);
                let vs = stoich.species_net_deltas(s);
                for (r, &v) in rs.iter().zip(vs) {
                    let row = &a[*r as usize * lanes..(*r as usize + 1) * lanes];
                    for l in 0..lanes {
                        mu[l] += v * row[l];
                        sigma2[l] += v * v * row[l];
                    }
                }
                let xrow = &counts[s * lanes..(s + 1) * lanes];
                for l in 0..lanes {
                    if mu[l] == 0.0 && sigma2[l] == 0.0 {
                        continue;
                    }
                    let bound = (EPSILON * xrow[l] as f64 / 2.0).max(1.0);
                    if mu[l] != 0.0 {
                        tau_sel[l] = tau_sel[l].min(bound / mu[l].abs());
                    }
                    if sigma2[l] != 0.0 {
                        tau_sel[l] = tau_sel[l].min(bound * bound / sigma2[l]);
                    }
                }
            }

            // Per-lane tails: one scalar tau-leaping iteration each.
            for l in 0..lanes {
                let Some(lane) = slots[l].as_mut() else { continue };
                lane.ticks += 1;
                let ts = times[lane.sample_idx];
                // Hardening: the same check the scalar path runs right
                // after its propensity evaluation.
                let lane_a = |r: usize| a[r * lanes + l];
                let bad = (0..m).any(|r| !lane_a(r).is_finite() || lane_a(r) < 0.0);
                if bad {
                    // Gather the lane's row and report through the shared
                    // validator for identical error payloads.
                    let mut row = vec![0.0; m];
                    for r in 0..m {
                        row[r] = lane_a(r);
                    }
                    let err = validate_propensities(&row, lane.t, lane.steps)
                        .expect_err("offender found above");
                    settled.push((lane.replicate, Err(err), lane.ticks));
                    bind(l, &mut slots, &mut counts, &mut settled);
                    continue;
                }
                let al0 = a0[l];
                if al0 <= 0.0 {
                    lane.t = ts;
                } else {
                    let tau = tau_sel[l].min(ts - lane.t);
                    if tau * al0 < SSA_THRESHOLD {
                        // Exact fallback: one SSA event.
                        let dt = -lane.rng.gen::<f64>().max(f64::MIN_POSITIVE).ln() / al0;
                        if lane.t + dt > ts {
                            lane.t = ts;
                        } else {
                            lane.t += dt;
                            let mut target = lane.rng.gen::<f64>() * al0;
                            let mut chosen = m - 1;
                            for r in 0..m {
                                let ar = a[r * lanes + l];
                                if target < ar {
                                    chosen = r;
                                    break;
                                }
                                target -= ar;
                            }
                            stoich.apply_lane(chosen, 1, &mut counts, lanes, l);
                            lane.firings += 1;
                            lane.steps += 1;
                        }
                    } else {
                        // Leap: sample firings against a gathered
                        // candidate, halving τ on a negative excursion.
                        let mut leap_tau = tau;
                        'leap: loop {
                            for s in 0..n {
                                cand[s] = counts[s * lanes + l];
                            }
                            let mut fired = 0u64;
                            for r in 0..m {
                                let ar = a[r * lanes + l];
                                if ar <= 0.0 {
                                    continue;
                                }
                                let k = poisson(ar * leap_tau, &mut lane.rng);
                                if k > 0 && !stoich.apply(r, k, &mut cand) {
                                    leap_tau *= 0.5;
                                    if leap_tau * al0 < 1.0 {
                                        // Too constrained: one SSA event
                                        // next tick instead.
                                        break 'leap;
                                    }
                                    continue 'leap;
                                }
                                fired += k;
                            }
                            for s in 0..n {
                                counts[s * lanes + l] = cand[s];
                            }
                            lane.t += leap_tau;
                            lane.firings += fired;
                            lane.steps += 1;
                            break;
                        }
                    }
                }
                // Sample delivery (the scalar loop records when `t`
                // reaches each window's end).
                while lane.sample_idx < times.len() && lane.t >= times[lane.sample_idx] {
                    lane.out_times.push(times[lane.sample_idx]);
                    let mut state = Vec::with_capacity(n);
                    for s in 0..n {
                        state.push(counts[s * lanes + l]);
                    }
                    lane.out_states.push(state);
                    lane.sample_idx += 1;
                }
                if lane.sample_idx == times.len() {
                    settled.push(slots[l].take().expect("lane present").finish());
                    bind(l, &mut slots, &mut counts, &mut settled);
                }
            }
        }

        (settled, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{initial_counts, StochasticSimulator, TauLeaping};
    use paraspace_rbm::{Reaction, ReactionBasedModel};

    fn two_species_model() -> ReactionBasedModel {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 30_000.0);
        let b = m.add_species("B", 50.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 2.0)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 1.0)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(b, 2)], &[], 0.01)).unwrap();
        m
    }

    fn streams(n: usize) -> Vec<CounterRng> {
        (0..n).map(|i| CounterRng::replicate_stream(42, 0, i as u64)).collect()
    }

    #[test]
    fn lanes_are_bitwise_equal_to_scalar_at_every_width() {
        let m = two_species_model();
        let table = PropensityTable::new(&m);
        let x0 = initial_counts(&m);
        let times = [0.05, 0.1, 0.3];
        let n_rep = 11; // deliberately not a multiple of any width
        let scalar: Vec<StochasticTrajectory> = (0..n_rep)
            .map(|i| {
                let mut rng = CounterRng::replicate_stream(42, 0, i as u64);
                TauLeaping::new().simulate_counts(&table, &x0, &times, &mut rng, &[]).unwrap()
            })
            .collect();
        for width in [1, 2, 4, 8] {
            let (outcomes, report) =
                TauLeapBatch::new().run(&table, &x0, &times, width, &streams(n_rep));
            assert_eq!(outcomes.len(), n_rep);
            for (i, (o, s)) in outcomes.iter().zip(&scalar).enumerate() {
                assert_eq!(o.as_ref().unwrap(), s, "width {width} replicate {i}");
            }
            assert!(report.lane_steps <= report.width as u64 * report.lockstep_iters);
            assert!(report.lane_steps > 0);
        }
    }

    #[test]
    fn compaction_keeps_retired_lanes_productive() {
        let m = two_species_model();
        let table = PropensityTable::new(&m);
        let x0 = initial_counts(&m);
        // Many more replicates than lanes: occupancy should stay high
        // because retiring lanes rebind pending replicates.
        let (outcomes, report) = TauLeapBatch::new().run(&table, &x0, &[0.1], 4, &streams(32));
        assert_eq!(outcomes.len(), 32);
        assert!(outcomes.iter().all(Result::is_ok));
        let occupancy =
            report.lane_steps as f64 / (report.width as u64 * report.lockstep_iters) as f64;
        assert!(occupancy > 0.8, "occupancy {occupancy}");
    }

    #[test]
    fn zero_time_samples_record_the_initial_state() {
        let m = two_species_model();
        let table = PropensityTable::new(&m);
        let x0 = initial_counts(&m);
        let (outcomes, _) = TauLeapBatch::new().run(&table, &x0, &[0.0, 0.05], 2, &streams(3));
        for o in &outcomes {
            let traj = o.as_ref().unwrap();
            assert_eq!(traj.states[0], x0, "t = 0 sample is the initial state");
        }
        // And it matches the scalar simulator exactly.
        let mut rng = CounterRng::replicate_stream(42, 0, 0);
        let scalar =
            TauLeaping::new().simulate_counts(&table, &x0, &[0.0, 0.05], &mut rng, &[]).unwrap();
        assert_eq!(outcomes[0].as_ref().unwrap(), &scalar);
    }

    #[test]
    fn empty_schedules_and_empty_ensembles_are_clean() {
        let m = two_species_model();
        let table = PropensityTable::new(&m);
        let x0 = initial_counts(&m);
        let (outcomes, report) = TauLeapBatch::new().run(&table, &x0, &[0.1], 4, &[]);
        assert!(outcomes.is_empty());
        assert_eq!(report.lockstep_iters, 0);
        let (outcomes, _) = TauLeapBatch::new().run(&table, &x0, &[], 4, &streams(5));
        assert_eq!(outcomes.len(), 5);
        for o in outcomes {
            let traj = o.unwrap();
            assert!(traj.times.is_empty() && traj.steps == 0);
        }
    }

    #[test]
    fn bad_propensities_retire_the_lane_without_touching_others() {
        // A finite-but-huge rate constant passes model validation, then
        // overflows every lane's propensity to +∞ at the first batched
        // evaluation; each lane must retire with the typed error.
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 1000.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[], f64::MAX)).unwrap();
        let table = PropensityTable::new(&m);
        let x0 = initial_counts(&m);
        let (outcomes, _) = TauLeapBatch::new().run(&table, &x0, &[1.0], 4, &streams(6));
        assert_eq!(outcomes.len(), 6);
        for o in outcomes {
            assert!(
                matches!(o, Err(StochasticError::BadPropensity { reaction: 0, .. })),
                "lane hardening must trip"
            );
        }
    }

    #[test]
    fn report_width_caps_at_replicate_count() {
        let m = two_species_model();
        let table = PropensityTable::new(&m);
        let x0 = initial_counts(&m);
        let (_, report) = TauLeapBatch::new().run(&table, &x0, &[0.05], 8, &streams(3));
        assert_eq!(report.width, 3, "no point sweeping empty lanes");
    }

    #[test]
    fn packed_report_is_the_report_a_divergent_group_returns() {
        // What the ensemble bills a modelled lane group from: the
        // replicates' ticks, list-scheduled in the order they were pulled,
        // give the ticks and lane-steps the kernel itself counts for that
        // group — at every width, on replicates whose tick counts differ,
        // and on the edges: every sample due at t = 0, no sample at all,
        // and replicates the propensity hardening retires.
        let m = two_species_model();
        let mut overflow = ReactionBasedModel::new();
        let a = overflow.add_species("A", 1000.0);
        overflow.add_reaction(Reaction::mass_action(&[(a, 1)], &[], f64::MAX)).unwrap();
        let cases: [(&ReactionBasedModel, &[f64]); 4] =
            [(&m, &[0.05, 0.1, 0.3]), (&m, &[0.0, 0.0]), (&m, &[]), (&overflow, &[1.0])];
        let n_rep = 13;
        for (case, (model, times)) in cases.into_iter().enumerate() {
            let table = PropensityTable::new(model);
            let x0 = initial_counts(model);
            for width in [1, 2, 3, 4, 8] {
                let mut pending = streams(n_rep).into_iter().enumerate();
                let (settled, report) =
                    TauLeapBatch::new()
                        .run_queue(&table, &x0, times, width, &mut || pending.next());
                let mut ticks = vec![None; n_rep];
                for (replicate, _, t) in settled {
                    ticks[replicate] = Some(t);
                }
                let ticks: Vec<u64> = ticks.into_iter().map(|t| t.expect("settled")).collect();
                assert_eq!(
                    report,
                    LaneGroupStats::packed(width, ticks.clone()),
                    "case {case} width {width}"
                );
                let (idlest, busiest) = (ticks.iter().min().unwrap(), ticks.iter().max().unwrap());
                match case {
                    0 => assert!(busiest > idlest, "replicates must diverge: {ticks:?}"),
                    1 | 2 => assert_eq!(*busiest, 0, "nothing is due after t = 0"),
                    _ => assert_eq!((*idlest, *busiest), (1, 1), "retired at the first tick"),
                }
            }
        }
    }

    #[test]
    fn run_queue_stops_asking_at_the_first_none() {
        // A source that runs dry (a cancelled cursor answers `None` from
        // then on): the group settles the replicates it holds and never
        // asks again.
        let m = two_species_model();
        let table = PropensityTable::new(&m);
        let x0 = initial_counts(&m);
        let mut pending = streams(5).into_iter().enumerate();
        let (mut dry, mut asked_when_dry) = (false, 0);
        let (mut settled, _) = TauLeapBatch::new().run_queue(&table, &x0, &[0.1], 2, &mut || {
            asked_when_dry += usize::from(dry);
            let next = pending.next();
            dry |= next.is_none();
            next
        });
        assert_eq!(asked_when_dry, 0);
        settled.sort_by_key(|(replicate, _, _)| *replicate);
        let (whole, _) = TauLeapBatch::new().run(&table, &x0, &[0.1], 2, &streams(5));
        let settled: Vec<_> = settled.into_iter().map(|(_, outcome, _)| outcome).collect();
        assert_eq!(settled, whole);
    }
}
