//! Durable stochastic ensemble campaigns: crash-safe checkpoint/resume
//! for replicate ensembles, on the same write-ahead shard journal the
//! deterministic drivers use.
//!
//! An ensemble of `R` replicates is decomposed into numbered shards of
//! `shard_size` consecutive replicates. Because every replicate's RNG
//! stream is a pure function of `(seed, member, replicate)` — the
//! counter-based [`CounterRng`](paraspace_stochastic::CounterRng) layout —
//! a shard `lo..hi` produces bitwise the replicates the uninterrupted run
//! would, so a killed campaign resumes to *byte-identical* artifacts. The
//! manifest pins everything that changes shard bytes: model digest, sample
//! times, seed, member, lane width, simulator, shard size. Host thread
//! count is deliberately **not** part of the world — scheduling is
//! invisible in the bytes, so a campaign checkpointed on one machine can
//! resume with a different thread count and still reassemble identically.

use crate::campaign::{
    f64s_digest, model_digest, CampaignError, Checkpoint, ShardLog, ShardRecord, ShardReport,
};
use paraspace_core::SimError;
use paraspace_journal::codec::{Dec, Enc};
use paraspace_journal::{CampaignManifest, JournalError};
use paraspace_rbm::ReactionBasedModel;
use paraspace_stochastic::{
    EnsembleStats, LaneAccounting, StochasticBatch, StochasticError, StochasticSimulator,
    StochasticTrajectory,
};
use std::borrow::Cow;

/// One journaled ensemble shard: the outcomes of a consecutive replicate
/// range, plus the simulated device time the shard billed.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleShard {
    /// Per-replicate outcomes, in replicate order within the shard.
    pub outcomes: Vec<Result<StochasticTrajectory, StochasticError>>,
    /// Simulated device time billed by this shard (ns).
    pub simulated_ns: f64,
}

impl EnsembleShard {
    /// Serializes the shard (deterministic bytes: exact f64/u64 values).
    ///
    /// # Errors
    ///
    /// [`JournalError::MalformedPayload`] if an outcome carries an error
    /// the batch engine cannot produce per-replicate (model errors are
    /// fatal before sharding starts, so only propensity failures are
    /// journal-able).
    pub fn encode(&self) -> Result<Vec<u8>, JournalError> {
        let mut enc = Enc::new();
        enc.put_u64(self.outcomes.len() as u64);
        for outcome in &self.outcomes {
            match outcome {
                Ok(tr) => {
                    enc.put_u32(0);
                    enc.put_f64_slice(&tr.times);
                    let n = tr.states.first().map_or(0, Vec::len);
                    enc.put_u64(n as u64);
                    for state in &tr.states {
                        for &c in state {
                            enc.put_u64(c);
                        }
                    }
                    enc.put_u64(tr.firings).put_u64(tr.steps);
                }
                Err(StochasticError::BadPropensity { reaction, value, t, step }) => {
                    enc.put_u32(1)
                        .put_u64(*reaction as u64)
                        .put_f64(*value)
                        .put_f64(*t)
                        .put_u64(*step);
                }
                Err(other) => {
                    return Err(JournalError::MalformedPayload {
                        message: format!("non-journalable replicate outcome: {other}"),
                    });
                }
            }
        }
        enc.put_f64(self.simulated_ns);
        Ok(enc.finish())
    }

    /// Deserializes a shard payload.
    ///
    /// # Errors
    ///
    /// [`JournalError::MalformedPayload`] on truncated or corrupt bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, JournalError> {
        let mut dec = Dec::new(bytes);
        let count = dec.u64()? as usize;
        let mut outcomes = Vec::with_capacity(count);
        for _ in 0..count {
            match dec.u32()? {
                0 => {
                    let times = dec.f64_vec()?;
                    let n = dec.u64()? as usize;
                    let mut states = Vec::with_capacity(times.len());
                    for _ in 0..times.len() {
                        let mut state = Vec::with_capacity(n);
                        for _ in 0..n {
                            state.push(dec.u64()?);
                        }
                        states.push(state);
                    }
                    let firings = dec.u64()?;
                    let steps = dec.u64()?;
                    outcomes.push(Ok(StochasticTrajectory { times, states, firings, steps }));
                }
                1 => {
                    let reaction = dec.u64()? as usize;
                    let value = dec.f64()?;
                    let t = dec.f64()?;
                    let step = dec.u64()?;
                    outcomes.push(Err(StochasticError::BadPropensity { reaction, value, t, step }));
                }
                tag => {
                    return Err(JournalError::MalformedPayload {
                        message: format!("unknown ensemble-shard tag {tag}"),
                    })
                }
            }
        }
        let simulated_ns = dec.f64()?;
        dec.expect_exhausted()?;
        Ok(EnsembleShard { outcomes, simulated_ns })
    }
}

impl ShardRecord for EnsembleShard {
    fn to_payload(&self) -> Result<Cow<'_, [u8]>, JournalError> {
        self.encode().map(Cow::Owned)
    }

    fn from_payload(bytes: &[u8]) -> Result<Self, JournalError> {
        Self::decode(bytes)
    }
}

/// Output of an ensemble campaign.
#[derive(Debug)]
pub struct EnsembleOutputs {
    /// Per-replicate outcomes, in replicate order (recovered shards and
    /// freshly executed shards are indistinguishable).
    pub outcomes: Vec<Result<StochasticTrajectory, StochasticError>>,
    /// Ensemble statistics over the successful replicates.
    pub stats: EnsembleStats,
    /// Total simulated device time (ns), folded in shard order.
    pub simulated_ns: f64,
    /// What the journal recovered and executed.
    pub report: ShardReport,
    /// The lane width the shards executed by this run resolved (1 = the
    /// scalar path); `None` when every shard replayed from the journal,
    /// which records outcomes and billed time only.
    pub lane_width: Option<usize>,
    /// Lane-group accounting summed over the shards executed by this run
    /// (`None` when none of them ran lanes).
    pub lanes: Option<LaneAccounting>,
}

/// Runs a replicate ensemble as a campaign. With a checkpoint, replicates
/// are chunked into `shard_size` journaled shards; a restarted run skips
/// committed shards and produces byte-identical outcomes, statistics, and
/// billed time. Without one there is nothing to cut shards for: the whole
/// ensemble is one batch, exactly [`StochasticBatch::run`]. Per-replicate
/// propensity failures are shard *outcomes* (journaled and reassembled),
/// not campaign killers.
///
/// # Errors
///
/// [`CampaignError::Journal`] on checkpoint I/O or a mismatched world,
/// [`CampaignError::Interrupted`] when the checkpoint's cancellation token
/// trips — at a shard boundary, or mid-shard when `batch` carries the same
/// token ([`StochasticBatch::with_cancel`]; the partial shard is discarded)
/// — or a fatal model/ensemble error from the batch engine. Without a
/// checkpoint a tripped batch token surfaces as [`SimError::Cancelled`] in
/// [`CampaignError::Sim`].
pub fn run_ensemble<S: StochasticSimulator + Sync>(
    model: &ReactionBasedModel,
    times: &[f64],
    replicates: usize,
    batch: &StochasticBatch<S>,
    shard_size: usize,
    checkpoint: Option<&Checkpoint>,
) -> Result<EnsembleOutputs, CampaignError> {
    let shard_size = if checkpoint.is_some() { shard_size } else { replicates }.max(1);
    let shards = replicates.div_ceil(shard_size).max(1) as u64;
    let mut log = ShardLog::open(checkpoint, || {
        CampaignManifest::new("ensemble", shards)
            .with_digest("model", model_digest(model))
            .with_digest("times", f64s_digest(times))
            .with_field("simulator", batch.simulator().name().to_string())
            .with_field("seed", batch.seed().to_string())
            .with_field("member", batch.member().to_string())
            .with_field(
                "lane_width",
                batch.lane_width().map_or_else(|| "auto".to_string(), |w| w.to_string()),
            )
            .with_field("replicates", replicates.to_string())
            .with_field("shard_size", shard_size.to_string())
    })?;

    let mut outcomes = Vec::with_capacity(replicates);
    let mut simulated_ns = 0.0;
    let mut lane_width = None;
    let mut lanes: Option<LaneAccounting> = None;
    for shard in 0..shards {
        let record: EnsembleShard = log.step(shard, || {
            let lo = shard as usize * shard_size;
            let hi = (lo + shard_size).min(replicates);
            let result = batch.run_range(model, times, lo..hi).map_err(|e| match e {
                // The campaign layer's one cancellation signal, which a
                // journaled run turns into `Interrupted`.
                StochasticError::Cancelled => CampaignError::Sim(SimError::Cancelled),
                e => CampaignError::Stochastic(e),
            })?;
            lane_width = Some(result.lane_width);
            if let Some(ran) = result.lanes {
                let total = lanes.get_or_insert_with(LaneAccounting::default);
                total.groups += ran.groups;
                total.slot_steps += ran.slot_steps;
                total.lane_steps += ran.lane_steps;
                total.max_width = total.max_width.max(ran.max_width);
            }
            Ok(EnsembleShard { outcomes: result.outcomes, simulated_ns: result.simulated_ns })
        })?;
        outcomes.extend(record.outcomes);
        simulated_ns += record.simulated_ns;
    }
    let report = log.finish()?;
    let stats = EnsembleStats::from_outcomes(times, model.n_species(), &outcomes);
    Ok(EnsembleOutputs { outcomes, stats, simulated_ns, report, lane_width, lanes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_journaled;
    use paraspace_core::CancelToken;
    use paraspace_rbm::Reaction;
    use paraspace_stochastic::TauLeaping;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("paraspace_ensemble_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn isomerization() -> ReactionBasedModel {
        let mut m = ReactionBasedModel::new();
        let a = m.add_species("A", 30_000.0);
        let b = m.add_species("B", 0.0);
        m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 2.0)).unwrap();
        m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 1.0)).unwrap();
        m
    }

    #[test]
    fn ensemble_shard_round_trips_exactly() {
        let shard = EnsembleShard {
            outcomes: vec![
                Ok(StochasticTrajectory {
                    times: vec![0.5, 1.0],
                    states: vec![vec![7, 3], vec![5, 5]],
                    firings: 12,
                    steps: 9,
                }),
                Err(StochasticError::BadPropensity {
                    reaction: 1,
                    value: f64::NAN,
                    t: 0.25,
                    step: 4,
                }),
            ],
            simulated_ns: 321.75,
        };
        let decoded = EnsembleShard::decode(&shard.encode().unwrap()).unwrap();
        assert_eq!(decoded, shard);
    }

    #[test]
    fn durable_ensemble_matches_direct_run_and_resumes_identically() {
        let dir = temp_dir("resume");
        let model = isomerization();
        let times = [0.2, 0.5];
        let batch = StochasticBatch::new(TauLeaping::new()).with_seed(77).with_threads(2);
        let direct = batch.run(&model, &times, 23).unwrap();

        // Interrupt after shard 1 commits.
        let cancel = CancelToken::new();
        let cp = Checkpoint::new(&dir).with_cancel(cancel.clone());
        let counting = std::cell::Cell::new(0u32);
        let err = {
            let model = &model;
            let batch2 = batch.clone();
            run_journaled(
                &cp,
                cp.apply_world(
                    CampaignManifest::new("ensemble", 3)
                        .with_digest("model", model_digest(model))
                        .with_digest("times", f64s_digest(&times))
                        .with_field("simulator", "tau-leaping")
                        .with_field("seed", "77")
                        .with_field("member", "0")
                        .with_field("lane_width", "auto")
                        .with_field("replicates", "23")
                        .with_field("shard_size", "8"),
                ),
                |shard| {
                    counting.set(counting.get() + 1);
                    if counting.get() == 2 {
                        cancel.cancel();
                    }
                    let lo = shard as usize * 8;
                    let hi = (lo + 8).min(23);
                    let r = batch2.run_range(model, &times, lo..hi).unwrap();
                    EnsembleShard { outcomes: r.outcomes, simulated_ns: r.simulated_ns }
                        .encode()
                        .map_err(CampaignError::Journal)
                },
            )
            .unwrap_err()
        };
        assert!(matches!(err, CampaignError::Interrupted { completed: 2, shards: 3, .. }), "{err}");

        // Resume with a *different thread count*: scheduling is not part
        // of the world, and the bytes must still match the direct run.
        let cp = Checkpoint::new(&dir);
        let resumed =
            run_ensemble(&model, &times, 23, &batch.clone().with_threads(8), 8, Some(&cp)).unwrap();
        assert!(resumed.report.resumed);
        assert_eq!(resumed.report.recovered, 2);
        assert_eq!(resumed.report.executed, 1);
        assert_eq!(resumed.outcomes, direct.outcomes, "resume must be byte-identical");
        assert_eq!(resumed.stats, direct.stats);

        // The same call without a checkpoint runs one batch instead of
        // three shards: the same replicates, billed as one batch.
        let plain = run_ensemble(&model, &times, 23, &batch, 8, None).unwrap();
        assert_eq!(plain.outcomes, resumed.outcomes);
        assert_eq!(plain.stats, resumed.stats);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Tau-leaping on the scalar route that trips `cancel` as its
    /// `trip_at`-th replicate starts.
    struct TripAt<'a> {
        cancel: &'a CancelToken,
        trip_at: usize,
        starts: std::sync::atomic::AtomicUsize,
    }

    impl StochasticSimulator for TripAt<'_> {
        fn name(&self) -> &'static str {
            "tau-leaping"
        }

        fn simulate_counts<R: rand::Rng + ?Sized>(
            &self,
            table: &paraspace_stochastic::PropensityTable,
            x0: &[u64],
            times: &[f64],
            rng: &mut R,
            faults: &[paraspace_stochastic::StochFault],
        ) -> Result<StochasticTrajectory, StochasticError> {
            if self.starts.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1 == self.trip_at {
                self.cancel.cancel();
            }
            TauLeaping::new().simulate_counts(table, x0, times, rng, faults)
        }
    }

    #[test]
    fn a_trip_mid_shard_interrupts_and_resumes_identically() {
        let (dir, reference_dir) = (temp_dir("midshard"), temp_dir("midshard_ref"));
        let model = isomerization();
        let times = [0.2, 0.5];
        let batch = StochasticBatch::new(TauLeaping::new()).with_seed(77);
        let reference =
            run_ensemble(&model, &times, 23, &batch, 8, Some(&Checkpoint::new(&reference_dir)))
                .unwrap();

        // The checkpoint's token is the batch's: it trips inside shard 1,
        // whose partial replicates are discarded.
        let cancel = CancelToken::new();
        let starts = std::sync::atomic::AtomicUsize::new(0);
        let tripping = StochasticBatch::new(TripAt { cancel: &cancel, trip_at: 12, starts })
            .with_seed(77)
            .with_cancel(cancel.clone());
        let cp = Checkpoint::new(&dir).with_cancel(cancel.clone());
        let err = run_ensemble(&model, &times, 23, &tripping, 8, Some(&cp)).unwrap_err();
        assert!(matches!(err, CampaignError::Interrupted { completed: 1, shards: 3, .. }), "{err}");
        let plain = run_ensemble(&model, &times, 23, &tripping, 8, None).unwrap_err();
        assert!(matches!(plain, CampaignError::Sim(SimError::Cancelled)), "{plain}");

        let resumed =
            run_ensemble(&model, &times, 23, &batch, 8, Some(&Checkpoint::new(&dir))).unwrap();
        assert_eq!((resumed.report.recovered, resumed.report.executed), (1, 2));
        assert_eq!(resumed.outcomes, reference.outcomes);
        assert_eq!(resumed.stats, reference.stats);
        assert_eq!(resumed.simulated_ns.to_bits(), reference.simulated_ns.to_bits());
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&reference_dir).ok();
    }

    #[test]
    fn mismatched_seed_refuses_resume() {
        let dir = temp_dir("world");
        let model = isomerization();
        let times = [0.1];
        let batch = StochasticBatch::new(TauLeaping::new()).with_seed(1);
        run_ensemble(&model, &times, 6, &batch, 4, Some(&Checkpoint::new(&dir))).unwrap();
        let err = run_ensemble(
            &model,
            &times,
            6,
            &batch.clone().with_seed(2),
            4,
            Some(&Checkpoint::new(&dir)),
        )
        .unwrap_err();
        match err {
            CampaignError::Journal(JournalError::ManifestMismatch { field, .. }) => {
                assert_eq!(field, "seed");
            }
            other => panic!("expected ManifestMismatch, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replicate_failures_are_journaled_outcomes_not_campaign_killers() {
        use paraspace_stochastic::{StochFault, StochFaultPlan};
        let dir = temp_dir("faults");
        let model = isomerization();
        let times = [0.2];
        let batch = StochasticBatch::new(TauLeaping::new())
            .with_seed(5)
            .with_faults(StochFaultPlan::new().poison(3, StochFault::nan(0, 1)));
        let out =
            run_ensemble(&model, &times, 10, &batch, 4, Some(&Checkpoint::new(&dir))).unwrap();
        assert!(matches!(out.outcomes[3], Err(StochasticError::BadPropensity { reaction: 0, .. })));
        assert_eq!(out.outcomes.iter().filter(|o| o.is_ok()).count(), 9);
        // And the journaled failure reassembles identically on resume.
        let again =
            run_ensemble(&model, &times, 10, &batch, 4, Some(&Checkpoint::new(&dir))).unwrap();
        assert!(again.report.resumed);
        assert_eq!(again.report.executed, 0);
        assert_eq!(again.outcomes, out.outcomes);
        std::fs::remove_dir_all(&dir).ok();
    }
}
