//! Campaign execution: the one path every analysis driver runs on, and
//! crash-safe checkpoint/resume for it.
//!
//! Every analysis is the same shape — a parameter space cut into batches
//! of independent simulations, mapped through an engine, reduced and
//! collected — and each is written once over [`ShardLog`], a shard log
//! opened from an *optional* [`Checkpoint`]. So each has one public entry
//! ([`evaluate_points`], [`crate::psa::Psa2d::run`],
//! [`crate::gradient::estimate_gradient`], [`crate::pe::estimate_with`],
//! [`crate::ensemble::run_ensemble`]) that takes the checkpoint as an
//! argument (a builder for `Psa2d`) and returns its [`ShardReport`] inside
//! the result (only `executed` counts without one). Without one the log's
//! get-or-run step just runs; with one, what follows applies.
//!
//! A *campaign* is a long-running parameter-space analysis (a sweep, a
//! Sobol evaluation, an estimation run) decomposed into deterministic,
//! numbered **shards** — one engine batch each. Before any shard executes,
//! a [`CampaignManifest`] describing the world (model digest, axis/plan
//! digests, engine configuration) is written atomically to the checkpoint
//! directory; each completed shard is then appended to a checksummed
//! write-ahead journal. Killing the process at any point — including
//! `kill -9` mid-shard — loses at most the shards whose records had not
//! reached the log; on restart the journal is replayed, committed shards
//! are skipped, and the remainder re-executes. Because every engine is
//! bitwise deterministic, the resumed campaign's final grid, outputs, and
//! billed simulated time are byte-identical to an uninterrupted run.
//!
//! Resume refuses a mismatched world: any difference between the on-disk
//! manifest and the one the caller reconstructs (different model, axes,
//! engine, thread count, lane width, shard size…) is a
//! [`JournalError::ManifestMismatch`], not a silent wrong answer.
//!
//! Validation failures are *shard outcomes*, not campaign killers, with or
//! without a journal: a shard whose job is rejected before reaching a
//! solver (non-finite member, bad grid) is recorded as an invalid shard and
//! its grid cells take the configured failed-member value, while the rest
//! of the campaign proceeds.

use paraspace_core::{CancelToken, SimError, SimulationJob, Simulator};
use paraspace_journal::codec::{Dec, Enc};
use paraspace_journal::{fnv64, CampaignManifest, Journal, JournalError};
use paraspace_rbm::{sbml, Parameterization, ReactionBasedModel};
use paraspace_solvers::{Solution, SolverOptions};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Where and how a campaign checkpoints.
#[derive(Debug, Clone, Default)]
pub struct Checkpoint {
    dir: PathBuf,
    cancel: CancelToken,
    world: BTreeMap<String, String>,
}

impl Checkpoint {
    /// Checkpoints into `dir` (created if missing).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Checkpoint { dir: dir.into(), cancel: CancelToken::new(), world: BTreeMap::new() }
    }

    /// Installs the cooperative cancellation token the campaign polls at
    /// shard boundaries (builder style). The same token should be handed
    /// to the engine via `with_cancel` so in-flight batch members drain.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Adds a world-defining field to the manifest (builder style) —
    /// engine name, thread count, lane width, anything that changes the
    /// bytes a shard produces. Resume refuses a checkpoint whose manifest
    /// disagrees on any field.
    pub fn with_world(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.world.insert(key.into(), value.into());
        self
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The cancellation token shards poll.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Merges the world fields into `manifest` (as `world.<key>` entries).
    /// Drivers that manage their own journal call this before opening it;
    /// [`ShardLog::open`] applies it automatically.
    #[must_use]
    pub fn apply_world(&self, mut manifest: CampaignManifest) -> CampaignManifest {
        for (k, v) in &self.world {
            manifest = manifest.with_field(format!("world.{k}"), v.clone());
        }
        manifest
    }
}

/// Why a durable campaign stopped before producing a result.
#[derive(Debug)]
#[non_exhaustive]
pub enum CampaignError {
    /// A non-recoverable engine/job failure (validation failures are
    /// journaled as shard outcomes instead and do not surface here).
    Sim(SimError),
    /// A non-recoverable stochastic ensemble failure (per-replicate
    /// propensity failures are journaled as shard outcomes instead).
    Stochastic(paraspace_stochastic::StochasticError),
    /// The checkpoint could not be read, written, or matched.
    Journal(JournalError),
    /// A dispatch worker's lease store failed for a reason other than
    /// checkpoint I/O — a networked worker lost its coordinator, or the
    /// coordinator refused it.
    Store(Box<dyn std::error::Error + Send + Sync>),
    /// The cancellation token tripped; completed shards are committed and
    /// a later run with the same checkpoint resumes exactly.
    Interrupted {
        /// Shards committed to the journal so far.
        completed: u64,
        /// Total shards in the campaign.
        shards: u64,
        /// The checkpoint directory holding the committed shards — where
        /// `resume` must be pointed.
        checkpoint_dir: PathBuf,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Sim(e) => write!(f, "campaign failed: {e}"),
            CampaignError::Stochastic(e) => write!(f, "ensemble campaign failed: {e}"),
            CampaignError::Journal(e) => write!(f, "campaign checkpoint: {e}"),
            CampaignError::Store(e) => write!(f, "lease store: {e}"),
            CampaignError::Interrupted { completed, shards, checkpoint_dir } => {
                write!(
                    f,
                    "campaign interrupted: {completed}/{shards} shards checkpointed in \
                     {} — point `resume` at that directory to continue",
                    checkpoint_dir.display()
                )
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Sim(e) => Some(e),
            CampaignError::Stochastic(e) => Some(e),
            CampaignError::Journal(e) => Some(e),
            CampaignError::Store(e) => Some(e.as_ref()),
            CampaignError::Interrupted { .. } => None,
        }
    }
}

impl From<SimError> for CampaignError {
    fn from(e: SimError) -> Self {
        CampaignError::Sim(e)
    }
}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> Self {
        CampaignError::Journal(e)
    }
}

/// What the journal found when a campaign (re)started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Whether an existing checkpoint was resumed.
    pub resumed: bool,
    /// Shards recovered from the journal (skipped this run).
    pub recovered: u64,
    /// Shards executed by this run.
    pub executed: u64,
    /// Torn/corrupt journal bytes truncated on open.
    pub truncated_bytes: u64,
}

/// What a shard leaves in the journal: deterministic bytes out, the typed
/// value back. Only a journaled campaign ever calls either side.
pub trait ShardRecord: Sized {
    /// The shard's journal payload (exact `f64` bits, no decimal round
    /// trips — a resumed campaign must reproduce the uninterrupted bytes).
    ///
    /// # Errors
    ///
    /// [`JournalError::MalformedPayload`] for a value the layout cannot
    /// hold.
    fn to_payload(&self) -> Result<Cow<'_, [u8]>, JournalError>;

    /// Rebuilds the value from a committed payload.
    ///
    /// # Errors
    ///
    /// [`JournalError::MalformedPayload`] on truncated or corrupt bytes.
    fn from_payload(bytes: &[u8]) -> Result<Self, JournalError>;
}

/// Raw bytes journal as themselves (the [`run_journaled`] payloads).
impl ShardRecord for Vec<u8> {
    fn to_payload(&self) -> Result<Cow<'_, [u8]>, JournalError> {
        Ok(Cow::Borrowed(self))
    }

    fn from_payload(bytes: &[u8]) -> Result<Self, JournalError> {
        Ok(bytes.to_vec())
    }
}

/// The memoised-shard primitive every campaign driver runs on: a shard log
/// opened from an *optional* checkpoint, with one get-or-run
/// [`step`](ShardLog::step). With a checkpoint, a committed shard comes
/// back decoded from the journal and an uncommitted one runs, is encoded
/// and is committed; without one every shard just runs — no manifest or
/// digest is built and nothing is encoded, so a plain analysis *is* the
/// durable one with no journal under it ([`ShardLog::default`]).
#[derive(Debug, Default)]
pub struct ShardLog {
    journal: Option<(Journal, Checkpoint)>,
    report: ShardReport,
}

impl ShardLog {
    /// Opens (or resumes) the checkpoint's journal under `manifest()` plus
    /// the checkpoint's world fields. Without a checkpoint `manifest` is
    /// never called and the filesystem is never touched.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Journal`] on checkpoint I/O or manifest mismatch.
    pub fn open(
        checkpoint: Option<&Checkpoint>,
        manifest: impl FnOnce() -> CampaignManifest,
    ) -> Result<Self, CampaignError> {
        let Some(checkpoint) = checkpoint else {
            return Ok(ShardLog::default());
        };
        let (journal, open) =
            Journal::open_or_create(&checkpoint.dir, &checkpoint.apply_world(manifest()))?;
        let report = ShardReport {
            resumed: open.resumed,
            recovered: open.committed,
            executed: 0,
            truncated_bytes: open.truncated_bytes,
        };
        Ok(ShardLog { journal: Some((journal, checkpoint.clone())), report })
    }

    /// The committed record of `shard`, or the result of `run` — committed
    /// before it is returned. Shards may be asked for in any order, each at
    /// most once per campaign.
    ///
    /// # Errors
    ///
    /// With a checkpoint: [`CampaignError::Interrupted`] when the token has
    /// tripped before an uncommitted shard runs, or `run` drained as
    /// [`SimError::Cancelled`] (the partial shard is discarded, committed
    /// shards are synced); [`CampaignError::Journal`] when a committed
    /// record does not decode or the commit fails. Without one, and for
    /// every other failure, whatever `run` returns — `Cancelled` included.
    pub fn step<T: ShardRecord>(
        &mut self,
        shard: u64,
        run: impl FnOnce() -> Result<T, CampaignError>,
    ) -> Result<T, CampaignError> {
        let Some((journal, checkpoint)) = &mut self.journal else {
            let value = run()?;
            self.report.executed += 1;
            return Ok(value);
        };
        if let Some(bytes) = journal.get(shard) {
            return Ok(T::from_payload(bytes)?);
        }
        let outcome = if checkpoint.cancel.is_cancelled() {
            Err(CampaignError::Sim(SimError::Cancelled))
        } else {
            run()
        };
        match outcome {
            Ok(value) => {
                journal.commit(shard, &value.to_payload()?)?;
                self.report.executed += 1;
                Ok(value)
            }
            Err(CampaignError::Sim(SimError::Cancelled)) => {
                journal.sync()?;
                Err(CampaignError::Interrupted {
                    completed: journal.committed(),
                    shards: journal.shards(),
                    checkpoint_dir: checkpoint.dir.clone(),
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Forces the committed shards to stable storage and hands back the
    /// campaign's accounting.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Journal`] if the sync fails.
    pub fn finish(self) -> Result<ShardReport, CampaignError> {
        if let Some((mut journal, _)) = self.journal {
            journal.sync()?;
        }
        Ok(self.report)
    }
}

/// Runs the manifest's numbered shards as raw payloads under the
/// write-ahead journal: committed shards are returned from the journal
/// without re-executing, the rest run through `execute` and are committed
/// as they finish. The returned payloads are in shard order, so callers
/// reassemble results with a deterministic in-order fold.
///
/// # Errors
///
/// As [`ShardLog::open`] and [`ShardLog::step`].
pub fn run_journaled<F>(
    checkpoint: &Checkpoint,
    manifest: CampaignManifest,
    mut execute: F,
) -> Result<(Vec<Vec<u8>>, ShardReport), CampaignError>
where
    F: FnMut(u64) -> Result<Vec<u8>, CampaignError>,
{
    let shards = manifest.shards();
    let mut log = ShardLog::open(Some(checkpoint), || manifest)?;
    let payloads =
        (0..shards).map(|shard| log.step(shard, || execute(shard))).collect::<Result<_, _>>()?;
    Ok((payloads, log.finish()?))
}

/// A digest of a model's full dynamics (species, initial state, kinetics),
/// via its canonical SBML serialization — the model identity a campaign
/// manifest pins.
#[must_use]
pub fn model_digest(model: &ReactionBasedModel) -> u64 {
    fnv64(sbml::to_string(model).as_bytes())
}

/// A digest of an `f64` sequence by exact IEEE-754 bits.
#[must_use]
pub fn f64s_digest(values: &[f64]) -> u64 {
    let mut enc = Enc::new();
    enc.put_f64_slice(values);
    fnv64(&enc.finish())
}

/// A digest of the solver options a campaign runs under.
#[must_use]
pub fn options_digest(options: &SolverOptions) -> u64 {
    let mut enc = Enc::new();
    enc.put_f64(options.rel_tol)
        .put_f64(options.abs_tol)
        .put_u64(options.max_steps as u64)
        .put_f64(options.initial_step.unwrap_or(f64::NAN));
    fnv64(&enc.finish())
}

/// One journaled metric shard: either the metric values for each item of
/// the shard (plus its billed simulated time), or a validation failure
/// that was journaled as the shard's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricShard {
    /// Metric value per shard item, in item order (empty for invalid
    /// shards — the driver substitutes its failed-member value).
    pub values: Vec<f64>,
    /// Simulated engine time billed by this shard (ns).
    pub simulated_ns: f64,
    /// Simulations executed by this shard.
    pub simulations: u64,
    /// `Some(message)` when the shard's job was rejected before reaching
    /// a solver (the validation error, preserved for post-mortems).
    pub invalid: Option<String>,
}

impl MetricShard {
    /// A successfully executed shard.
    #[must_use]
    pub fn ok(values: Vec<f64>, simulated_ns: f64, simulations: u64) -> Self {
        MetricShard { values, simulated_ns, simulations, invalid: None }
    }

    /// A shard whose job failed validation; `items` cells take the failed
    /// value downstream.
    #[must_use]
    pub fn invalid(message: impl Into<String>) -> Self {
        MetricShard {
            values: Vec::new(),
            simulated_ns: 0.0,
            simulations: 0,
            invalid: Some(message.into()),
        }
    }

    /// Serializes the shard payload (deterministic bytes: exact f64 bits).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        match &self.invalid {
            None => {
                enc.put_u32(0);
            }
            Some(msg) => {
                enc.put_u32(1).put_str(msg);
            }
        }
        enc.put_f64_slice(&self.values).put_f64(self.simulated_ns).put_u64(self.simulations);
        enc.finish()
    }

    /// Deserializes a shard payload.
    ///
    /// # Errors
    ///
    /// [`JournalError::MalformedPayload`] on truncated or corrupt bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, JournalError> {
        let mut dec = Dec::new(bytes);
        let invalid = match dec.u32()? {
            0 => None,
            1 => Some(dec.str()?.to_string()),
            tag => {
                return Err(JournalError::MalformedPayload {
                    message: format!("unknown metric-shard tag {tag}"),
                })
            }
        };
        let values = dec.f64_vec()?;
        let simulated_ns = dec.f64()?;
        let simulations = dec.u64()?;
        dec.expect_exhausted()?;
        Ok(MetricShard { values, simulated_ns, simulations, invalid })
    }
}

impl ShardRecord for MetricShard {
    fn to_payload(&self) -> Result<Cow<'_, [u8]>, JournalError> {
        Ok(Cow::Owned(self.encode()))
    }

    fn from_payload(bytes: &[u8]) -> Result<Self, JournalError> {
        Self::decode(bytes)
    }
}

/// Output of a point-set evaluation: per-point metric values plus the
/// campaign accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalOutputs {
    /// One metric value per evaluation point, in point order.
    pub outputs: Vec<f64>,
    /// Total simulated engine time (ns), folded in shard order.
    pub simulated_ns: f64,
    /// Total simulations executed (including recovered shards).
    pub simulations: usize,
    /// What the journal recovered and executed.
    pub report: ShardReport,
}

/// What every point of a batched evaluation shares.
pub(crate) struct PointEval<'a> {
    pub model: &'a ReactionBasedModel,
    pub time_points: &'a [f64],
    pub options: &'a SolverOptions,
    pub engine: &'a dyn Simulator,
    /// Points per engine batch — one shard each.
    pub batch: usize,
    /// The value of a failed member, and of every point of a shard whose
    /// job fails validation.
    pub failed: f64,
}

/// The one body under every sweep and point-set driver: `points` are cut
/// into `spec.batch` chunks, one engine batch and one step of the shard
/// log `open` returns (given the shard count) each, and the per-point
/// metric values fold back in point order.
///
/// On the executing path `parameterize` is called once per point in point
/// order and `metric` once per *successful* member in member order; a
/// replayed shard calls neither. A shard whose job fails validation
/// ([`SimError::InvalidJob`]) is a shard outcome — every one of its points
/// takes `spec.failed` — with or without a journal.
pub(crate) fn evaluate_batched<T, P, M>(
    spec: &PointEval<'_>,
    points: &[T],
    mut parameterize: P,
    mut metric: M,
    open: impl FnOnce(u64) -> Result<ShardLog, CampaignError>,
) -> Result<EvalOutputs, CampaignError>
where
    P: FnMut(&T) -> Parameterization,
    M: FnMut(&Solution) -> f64,
{
    let chunks: Vec<&[T]> = points.chunks(spec.batch.max(1)).collect();
    let mut log = open(chunks.len() as u64)?;
    let mut outputs = Vec::with_capacity(points.len());
    let mut simulated_ns = 0.0;
    let mut simulations = 0usize;
    for (shard, chunk) in chunks.iter().enumerate() {
        let record: MetricShard = log.step(shard as u64, || {
            let batch: Vec<Parameterization> = chunk.iter().map(&mut parameterize).collect();
            let job = match SimulationJob::builder(spec.model)
                .time_points(spec.time_points.to_vec())
                .parameterizations(batch)
                .options(spec.options.clone())
                .build()
            {
                Ok(job) => job,
                Err(e @ SimError::InvalidJob { .. }) => {
                    return Ok(MetricShard::invalid(e.to_string()));
                }
                Err(e) => return Err(e.into()),
            };
            let result = spec.engine.run(&job)?;
            let values = result
                .outcomes
                .iter()
                .map(|o| match &o.solution {
                    Ok(sol) => metric(sol),
                    Err(_) => spec.failed,
                })
                .collect();
            Ok(MetricShard::ok(values, result.timing.simulated_total_ns, job.batch_size() as u64))
        })?;
        if record.invalid.is_some() {
            outputs.extend(std::iter::repeat_n(spec.failed, chunk.len()));
        } else {
            outputs.extend_from_slice(&record.values);
        }
        simulated_ns += record.simulated_ns;
        simulations += record.simulations as usize;
    }
    Ok(EvalOutputs { outputs, simulated_ns, simulations, report: log.finish()? })
}

/// The manifest kind of a point-set evaluation. Two campaigns over one
/// checkpoint directory are told apart by their digests and by
/// [`Checkpoint::with_world`].
const POINTS_KIND: &str = "points";

/// Evaluates a fixed point set (e.g. a Saltelli design, or one PSA axis's
/// values) through an engine in batches of `batch_size`: `to_param` maps
/// each point to a parameterization of `model`, `metric` reduces each
/// trajectory. Failed members — and every point of a batch whose job fails
/// validation — yield `NaN`.
///
/// With a checkpoint every batch is one journaled shard and a restarted
/// run skips the committed ones; outputs, counts and billed time are
/// byte-identical to an uninterrupted run and to the run without one.
///
/// # Errors
///
/// As [`ShardLog::step`]: checkpoint I/O or mismatch, interruption at a
/// shard boundary, or a fatal engine error (without a checkpoint,
/// `SimError::Cancelled` included: there is nothing to interrupt into).
#[allow(clippy::too_many_arguments)]
pub fn evaluate_points<P, M>(
    model: &ReactionBasedModel,
    points: &[Vec<f64>],
    mut to_param: P,
    time_points: &[f64],
    options: &SolverOptions,
    engine: &dyn Simulator,
    metric: M,
    batch_size: usize,
    checkpoint: Option<&Checkpoint>,
) -> Result<EvalOutputs, CampaignError>
where
    P: FnMut(&[f64]) -> Parameterization,
    M: FnMut(&Solution) -> f64,
{
    let batch = batch_size.max(1);
    let manifest = |shards| {
        let mut points_enc = Enc::new();
        for p in points {
            points_enc.put_f64_slice(p);
        }
        CampaignManifest::new(POINTS_KIND, shards)
            .with_digest("model", model_digest(model))
            .with_digest("points", fnv64(&points_enc.finish()))
            .with_digest("times", f64s_digest(time_points))
            .with_digest("options", options_digest(options))
            .with_field("shard_size", batch.to_string())
    };
    let spec = PointEval { model, time_points, options, engine, batch, failed: f64::NAN };
    evaluate_batched(
        &spec,
        points,
        |p| to_param(p),
        metric,
        |shards| ShardLog::open(checkpoint, || manifest(shards)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("paraspace_campaign_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn default_options_digest_is_pinned() {
        // Checkpoints written by earlier builds store this value in their
        // manifests; a change here makes every one of them refuse to resume.
        assert_eq!(
            format!("{:016x}", options_digest(&SolverOptions::default())),
            "4162eb70ab6042a2"
        );
    }

    #[test]
    fn metric_shard_round_trips_exactly() {
        let s = MetricShard::ok(vec![1.5, f64::NAN, -0.0, 1e-300], 123.456, 4);
        let d = MetricShard::decode(&s.encode()).unwrap();
        assert_eq!(d.values.len(), 4);
        for (a, b) in s.values.iter().zip(&d.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(d.simulated_ns.to_bits(), s.simulated_ns.to_bits());
        assert_eq!(d.simulations, 4);
        assert_eq!(d.invalid, None);

        let inv = MetricShard::invalid("member 3 has a non-finite initial state");
        let d = MetricShard::decode(&inv.encode()).unwrap();
        assert_eq!(d.invalid.as_deref(), Some("member 3 has a non-finite initial state"));
        assert!(d.values.is_empty());
    }

    #[test]
    fn run_journaled_skips_committed_shards_on_resume() {
        let dir = temp_dir("skip");
        let manifest = CampaignManifest::new("test", 4).with_digest("d", 7);
        let cp = Checkpoint::new(&dir).with_world("engine", "fake");
        let mut executed = Vec::new();
        let (payloads, report) = run_journaled(&cp, manifest.clone(), |s| {
            executed.push(s);
            Ok(vec![s as u8; 3])
        })
        .unwrap();
        assert_eq!(executed, vec![0, 1, 2, 3]);
        assert_eq!(payloads.len(), 4);
        assert!(!report.resumed);
        assert_eq!(report.executed, 4);

        // Second run: everything recovered, nothing executes.
        let mut executed = Vec::new();
        let (payloads2, report2) = run_journaled(&cp, manifest, |s| {
            executed.push(s);
            Ok(vec![0])
        })
        .unwrap();
        assert!(executed.is_empty(), "committed shards must not re-execute");
        assert_eq!(payloads2, payloads);
        assert!(report2.resumed);
        assert_eq!(report2.recovered, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancellation_checkpoints_and_resume_completes() {
        let dir = temp_dir("cancel");
        let manifest = CampaignManifest::new("test", 5);
        let cancel = CancelToken::new();
        let cp = Checkpoint::new(&dir).with_cancel(cancel.clone());
        let err = run_journaled(&cp, manifest.clone(), |s| {
            if s == 2 {
                cancel.cancel(); // trips *after* shard 2 commits
            }
            Ok(vec![s as u8])
        })
        .unwrap_err();
        match &err {
            CampaignError::Interrupted { completed, shards, checkpoint_dir } => {
                assert_eq!(*completed, 3);
                assert_eq!(*shards, 5);
                assert_eq!(checkpoint_dir, &dir, "the error must name the checkpoint");
            }
            other => panic!("expected Interrupted, got {other}"),
        }
        // The display tells the user where to point `resume`.
        let text = err.to_string();
        assert!(text.contains("3/5"), "{text}");
        assert!(text.contains(dir.to_str().unwrap()), "display must include the dir: {text}");
        assert!(text.contains("resume"), "{text}");

        let cp = Checkpoint::new(&dir); // fresh token
        let (payloads, report) = run_journaled(&cp, manifest, |s| Ok(vec![s as u8])).unwrap();
        assert_eq!(report.recovered, 3);
        assert_eq!(report.executed, 2);
        assert_eq!(payloads, vec![vec![0], vec![1], vec![2], vec![3], vec![4]]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn without_a_checkpoint_a_step_only_runs_the_closure() {
        struct NeverJournaled(u32);
        impl ShardRecord for NeverJournaled {
            fn to_payload(&self) -> Result<Cow<'_, [u8]>, JournalError> {
                panic!("a plain campaign encodes nothing")
            }
            fn from_payload(_: &[u8]) -> Result<Self, JournalError> {
                panic!("a plain campaign decodes nothing")
            }
        }
        // No checkpoint means no directory to touch, and the manifest (with
        // its digests) is never even built.
        let mut log =
            ShardLog::open(None, || panic!("a plain campaign builds no manifest")).unwrap();
        assert_eq!(log.step(0, || Ok(NeverJournaled(7))).unwrap().0, 7);
        assert_eq!(log.step(1, || Ok(NeverJournaled(8))).unwrap().0, 8);
        // Cancellation has no checkpoint to interrupt into: it propagates.
        let cancelled =
            log.step::<NeverJournaled>(2, || Err(CampaignError::Sim(SimError::Cancelled)));
        assert!(matches!(cancelled, Err(CampaignError::Sim(SimError::Cancelled))));
        let report = log.finish().unwrap();
        assert_eq!(report, ShardReport { executed: 2, ..ShardReport::default() });
    }

    #[test]
    fn undecodable_committed_record_is_a_typed_journal_error() {
        let dir = temp_dir("undecodable");
        let manifest = CampaignManifest::new("test", 1);
        let cp = Checkpoint::new(&dir);
        run_journaled(&cp, manifest.clone(), |_| Ok(b"not a metric shard".to_vec())).unwrap();

        let mut log = ShardLog::open(Some(&cp), || manifest).unwrap();
        let err = log
            .step::<MetricShard>(0, || panic!("a committed shard must not re-execute"))
            .unwrap_err();
        assert!(
            matches!(err, CampaignError::Journal(JournalError::MalformedPayload { .. })),
            "expected a malformed-payload journal error, got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn world_mismatch_refuses_resume() {
        let dir = temp_dir("world");
        let manifest = CampaignManifest::new("test", 1);
        let cp = Checkpoint::new(&dir).with_world("threads", "1");
        run_journaled(&cp, manifest.clone(), |_| Ok(vec![1])).unwrap();

        let cp8 = Checkpoint::new(&dir).with_world("threads", "8");
        let err = run_journaled(&cp8, manifest, |_| Ok(vec![1])).unwrap_err();
        match err {
            CampaignError::Journal(JournalError::ManifestMismatch { field, .. }) => {
                assert_eq!(field, "world.threads");
            }
            other => panic!("expected ManifestMismatch, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn digests_are_stable_and_sensitive() {
        let a = f64s_digest(&[1.0, 2.0]);
        assert_eq!(a, f64s_digest(&[1.0, 2.0]));
        assert_ne!(a, f64s_digest(&[1.0, 2.0000000001]));
        let o = SolverOptions::default();
        let mut o2 = SolverOptions::default();
        o2.rel_tol *= 10.0;
        assert_ne!(options_digest(&o), options_digest(&o2));
    }
}
