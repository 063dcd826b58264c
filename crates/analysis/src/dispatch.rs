//! Fault-tolerant multi-worker shard execution over the shard journal.
//!
//! [`run_journaled`](crate::campaign::run_journaled) executes shards one
//! process, one loop. This module promotes the journal's shard to a
//! *distribution contract*: a **coordinator** owns the campaign manifest
//! and the main `shards.log`, while N **workers** — in-process threads via
//! [`run_dispatched`], or separate OS processes attached with the CLI's
//! `worker` subcommand — share the checkpoint directory and coordinate
//! purely through the lease files of [`paraspace_journal::lease`]:
//!
//! ```text
//!            claim (O_CREAT|O_EXCL)        append + flush        rename
//! UNCLAIMED ───────────────────────▶ LEASED ─────────────▶ … ──────────▶ DONE
//!     ▲                                │ heartbeat missed                 │ merge
//!     │ release after backoff          ▼                                  ▼
//!     └─────────────────────────── EXPIRED ── K distinct deaths ──▶ QUARANTINED
//!                                                                 (poisoned record)
//! ```
//!
//! **Robustness model.** A worker may be SIGKILLed, hang, or stall at any
//! instruction. Leases carry heartbeat deadlines: a worker whose heartbeat
//! goes stale is presumed dead, its death is appended to the retry ledger,
//! and its shard is reassigned after a capped exponential backoff. A shard
//! that kills [`LeaseConfig::max_worker_deaths`] *distinct* workers is
//! **quarantined**: the coordinator journals a driver-supplied poisoned
//! record carrying the failure taxonomy and the campaign completes
//! degraded instead of dying. Torn segment tails truncate on open exactly
//! as `shards.log` does. Every failure path is reproducible via
//! [`WorkerChaos`] (kill-at-ordinal, heartbeat suppression, stall, torn
//! segment write).
//!
//! **Exactly-once, byte-identical.** A shard may *execute* more than once
//! (a slow worker's lease expires, another re-runs it), but every engine
//! is bitwise deterministic, so all copies of a record are byte-identical
//! and the first-wins merge commits exactly one. Final artifacts are
//! therefore byte-identical to a single-process run regardless of worker
//! count, crashes, or reassignment order — the durability suite proves
//! this across workers × threads with chaos injection.
//!
//! **Transport-generic.** [`worker_loop`] is the only claim → execute →
//! append → complete loop, generic over a [`LeaseStore`]: a
//! [`FileStore`] for threads and `worker <ckpt>` processes sharing the
//! checkpoint directory, the transport crate's `WorkerClient` for
//! `worker --connect ADDR` processes (whose RPCs the transport server
//! answers through a `FileStore` it holds for each of them). The
//! coordinator loop never asks how a worker reached the lease directory:
//! every store looks identical to [`coordinate`]. When a worker or a
//! transport knows *why* a lease went silent — an execution error, a lost
//! connection — it records a `leases/blame_<worker>` note; the expiry scan
//! ledgers that taxonomy as the death reason instead of the generic
//! `heartbeat-expired`, so quarantine records distinguish "connection
//! lost" from "solver diverged" without this crate depending on any
//! transport.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use paraspace_core::{classify_batch, CancelToken, SimulationJob};
use paraspace_journal::lease::{
    now_ms, Claim, FileStore, Lease, LeaseConfig, LeaseDir, LeaseStore, RetryLedger, RetryState,
    SegmentReader,
};
use paraspace_journal::{record, CampaignManifest, Journal, JournalError};

use crate::campaign::{CampaignError, Checkpoint};

/// Scheduling knobs of the dispatch runtime. Like [`LeaseConfig`], nothing
/// here is world-defining: these change when work happens, never what
/// bytes a shard produces. The timing knobs (`lease_ttl`, `retry_base`)
/// are nonetheless journaled in the campaign manifest once a campaign is
/// dispatched, because a resume that silently halves the TTL would turn
/// live workers from the previous incarnation into false expiries —
/// `resume` refuses mismatched timing the same way it refuses a mismatched
/// model digest.
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Lease TTL, backoff schedule, and quarantine threshold.
    pub lease: LeaseConfig,
    /// Coordinator merge/expiry cadence and idle-worker poll cadence.
    pub poll_ms: u64,
}

impl Default for DispatchConfig {
    fn default() -> Self {
        DispatchConfig { lease: LeaseConfig::default(), poll_ms: 50 }
    }
}

/// Deterministic failure injection for one worker. All triggers count
/// *claims* made by this worker (its shard ordinals), so a scenario
/// replays identically whatever the interleaving.
#[derive(Debug, Clone, Default)]
pub struct WorkerChaos {
    /// Die (as if SIGKILLed: no cleanup, lease left behind, heartbeat
    /// stops) while holding the Nth claimed shard.
    pub kill_at_ordinal: Option<u64>,
    /// Die whenever this worker claims this *specific* shard — the
    /// poisoned-shard model (a shard whose evaluation segfaults or OOMs
    /// the process kills every worker that touches it).
    pub kill_on_shard: Option<u64>,
    /// When the kill fires, first write a deterministically torn record to
    /// the worker's segment — the crash-mid-append case.
    pub torn_write_on_kill: bool,
    /// Stop heartbeating from the Nth claimed shard onward; the worker
    /// exits after that shard (a worker gone silent is dead to the
    /// coordinator even if it is still scheduled).
    pub suppress_heartbeat_at: Option<u64>,
    /// Hold the Nth claimed shard for an extra stall (ms) before
    /// executing — the slow-worker case.
    pub stall_at: Option<(u64, u64)>,
}

/// What one worker loop did before exiting.
#[derive(Debug, Clone, Default)]
pub struct WorkerReport {
    /// Shards this worker executed and appended to its segment.
    pub executed: u64,
    /// Shards whose lease was lost before completion: a heartbeat answer
    /// drained the shard, or completion found the lease reassigned (the
    /// appended record still merges, first wins).
    pub lost_leases: u64,
    /// The worker died by chaos injection.
    pub died: bool,
    /// The external cancellation token tripped.
    pub cancelled: bool,
}

/// Why the worker loop stopped claiming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerExit {
    CampaignComplete,
    Cancelled,
    Died,
}

/// Everything a completed dispatch hands back: the merged shard payloads
/// in shard order, the coordinator's accounting, and one report per worker
/// incarnation (including respawns).
pub type DispatchOutcome = (Vec<Vec<u8>>, DispatchReport, Vec<WorkerReport>);

/// Coordinator-side accounting for one dispatch run.
#[derive(Debug, Clone, Default)]
pub struct DispatchReport {
    /// Total shards declared by the manifest.
    pub shards: u64,
    /// Shards already committed when the coordinator opened the journal.
    pub recovered: u64,
    /// Records merged from worker segments into `shards.log` this run.
    pub merged: u64,
    /// Worker deaths recorded (each schedules a reassignment).
    pub reassignments: u64,
    /// Shards committed as poisoned outcomes, ascending.
    pub quarantined: Vec<u64>,
    /// Byte-identical duplicate records skipped by the first-wins merge.
    pub duplicate_records: u64,
    /// Duplicates whose bytes differed from the committed record. Always
    /// zero for deterministic drivers unless a quarantine raced a late
    /// success (the poison record wins, by design).
    pub divergent_duplicates: u64,
    /// Worker segments discovered.
    pub workers_seen: u64,
    /// Coordinator poll rounds.
    pub rounds: u64,
}

/// What the coordinator tells its caller each round.
#[derive(Debug, Clone, Copy)]
pub struct CoordinatorStatus {
    /// Shards committed so far.
    pub committed: u64,
    /// Total shards.
    pub shards: u64,
    /// Live lease files at the last scan.
    pub live_leases: usize,
    /// Poll rounds completed.
    pub rounds: u64,
}

/// Caller's directive after each coordinator round — the hook process
/// supervisors use to respawn dead workers or give up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickDirective {
    /// Keep coordinating.
    Continue,
    /// Stop now: sync the journal and return
    /// [`CampaignError::Interrupted`] (completed shards stay committed;
    /// the checkpoint resumes exactly).
    GiveUp,
}

/// The coordinator loop: merge worker segments into the main journal
/// (first-wins by shard id), expire leases whose workers missed their
/// heartbeat deadline, schedule reassignment with capped exponential
/// backoff through the retry ledger, quarantine shards that killed too
/// many distinct workers, and return every payload in shard order once the
/// journal is complete.
///
/// Spawns nothing: workers are threads ([`run_dispatched`]), processes
/// (the CLI), or both, attached to the same checkpoint directory. `tick`
/// runs once per round; supervisors use it to respawn workers or
/// [`TickDirective::GiveUp`].
///
/// `poison` renders the journaled payload for a quarantined shard from its
/// ledger state (failure taxonomy included) — the driver owns the payload
/// layout, so it owns the poisoned variant too.
///
/// # Errors
///
/// [`CampaignError::Journal`] on checkpoint I/O or manifest mismatch;
/// [`CampaignError::Interrupted`] on cancellation or `GiveUp` (committed
/// shards remain; resume continues exactly).
pub fn coordinate<P, T>(
    checkpoint: &Checkpoint,
    manifest: CampaignManifest,
    config: &DispatchConfig,
    mut poison: P,
    mut tick: T,
) -> Result<(Vec<Vec<u8>>, DispatchReport), CampaignError>
where
    P: FnMut(u64, &RetryState) -> Vec<u8>,
    T: FnMut(&CoordinatorStatus) -> TickDirective,
{
    let manifest = checkpoint.apply_world(manifest);
    let shards = manifest.shards();
    let (mut journal, open) = Journal::open_or_create(checkpoint.dir(), &manifest)?;
    let leases = LeaseDir::new(checkpoint.dir());
    leases.ensure()?;
    let mut ledger = RetryLedger::open(checkpoint.dir())?;

    let mut report = DispatchReport {
        shards,
        recovered: open.committed,
        quarantined: ledger
            .states()
            .filter(|(_, st)| st.quarantined)
            .map(|(shard, _)| shard)
            .collect(),
        ..DispatchReport::default()
    };
    let quarantined_preexisting = report.quarantined.len();
    let mut readers: HashMap<PathBuf, SegmentReader> = HashMap::new();
    // Lease instances already condemned this run, keyed by
    // (shard, worker, granted_at) so a reassigned lease is judged afresh.
    let mut condemned: BTreeSet<(u64, String, u64)> = BTreeSet::new();

    loop {
        // 1. Discover worker segments (workers may attach at any time).
        for path in leases.list_segments()? {
            readers.entry(path).or_insert_with_key(|path| {
                report.workers_seen += 1;
                SegmentReader::new(path)
            });
        }

        // 2. Merge: first-wins by shard id; duplicates are byte-compared.
        let quarantined_now: BTreeSet<u64> = report.quarantined.iter().copied().collect();
        for reader in readers.values_mut() {
            for (shard, payload) in reader.poll()? {
                match journal.get(shard) {
                    None => {
                        journal.commit(shard, &payload)?;
                        report.merged += 1;
                    }
                    Some(prev) if prev == payload => report.duplicate_records += 1,
                    Some(_) if quarantined_now.contains(&shard) => {
                        // A late success raced the quarantine decision; the
                        // poison record won and stays (first wins).
                        report.duplicate_records += 1;
                    }
                    Some(_) => report.divergent_duplicates += 1,
                }
            }
        }
        for shard in leases.list_done()? {
            if journal.is_committed(shard) {
                leases.clear_done(shard)?;
            }
        }

        // 3. Expire leases whose worker missed its heartbeat deadline, and
        // release condemned leases once their backoff elapses.
        let now = now_ms();
        let live = leases.list_leases()?;
        let mut live_leases = 0usize;
        for info in &live {
            if journal.is_committed(info.shard) {
                continue; // merged already; a holdover lease is harmless
            }
            let heartbeat = if info.worker.is_empty() {
                None
            } else {
                leases.last_heartbeat_ms(&info.worker)?
            };
            let last_alive = heartbeat.unwrap_or(0).max(info.granted_at_ms);
            let key = (info.shard, info.worker.clone(), info.granted_at_ms);
            if now.saturating_sub(last_alive) <= config.lease.ttl_ms {
                live_leases += 1;
                continue;
            }
            if !condemned.contains(&key) {
                condemned.insert(key.clone());
                let deaths = ledger.state(info.shard).map_or(0, |s| s.deaths) + 1;
                let not_before = now + config.lease.backoff_ms(deaths);
                let worker = if info.worker.is_empty() { "unknown" } else { &info.worker };
                // A transport (or any other observer) may have recorded
                // *why* this worker went silent — connection lost, a
                // worker-reported execution failure — as a blame note.
                // Ledger that taxonomy instead of the generic reason, and
                // consume the note so a later incarnation starts clean.
                let reason =
                    leases.read_blame(worker)?.unwrap_or_else(|| "heartbeat-expired".to_string());
                ledger.record_death(info.shard, worker, &reason, now, not_before)?;
                leases.clear_blame(worker)?;
                report.reassignments += 1;
            }
            let not_before = ledger.state(info.shard).map_or(0, |s| s.not_before_ms);
            if now >= not_before {
                leases.release(info.shard)?;
            }
        }

        // 4. Quarantine shards that have killed too many distinct workers.
        let to_quarantine: Vec<u64> = ledger
            .states()
            .filter(|(shard, st)| {
                !st.quarantined
                    && !journal.is_committed(*shard)
                    && st.workers.len() as u32 >= config.lease.max_worker_deaths
            })
            .map(|(shard, _)| shard)
            .collect();
        for shard in to_quarantine {
            let state = ledger.state(shard).cloned().unwrap_or_default();
            let payload = poison(shard, &state);
            let reason = format!(
                "{} deaths by {} distinct workers ({})",
                state.deaths,
                state.workers.len(),
                state.reasons.join(", ")
            );
            ledger.record_quarantine(shard, &reason, now)?;
            journal.commit(shard, &payload)?;
            leases.release(shard)?;
            report.quarantined.push(shard);
        }
        report.quarantined.sort_unstable();

        report.rounds += 1;

        // 5. Done?
        if journal.is_complete() {
            journal.sync()?;
            let payloads = (0..shards)
                .map(|s| journal.get(s).expect("complete journal has every shard").to_vec())
                .collect();
            if quarantined_preexisting == 0 && report.quarantined.is_empty() {
                debug_assert_eq!(report.divergent_duplicates, 0);
            }
            return Ok((payloads, report));
        }

        // 6. Cancelled, or the supervisor gave up?
        let status = CoordinatorStatus {
            committed: journal.committed(),
            shards,
            live_leases,
            rounds: report.rounds,
        };
        let give_up =
            checkpoint.cancel_token().is_cancelled() || tick(&status) == TickDirective::GiveUp;
        if give_up {
            journal.sync()?;
            return Err(CampaignError::Interrupted {
                completed: journal.committed(),
                shards,
                checkpoint_dir: checkpoint.dir().to_path_buf(),
            });
        }

        std::thread::sleep(Duration::from_millis(config.poll_ms));
    }
}

/// One worker's claim → execute → append → complete loop over `store`.
/// Runs until the campaign completes, the external token cancels, or
/// chaos kills the worker.
///
/// Each claimed shard executes through `execute` under a token of its
/// own. One heartbeat thread beats every TTL/4 and applies the one rule
/// for a lost lease: the shard's token is cancelled only when a beat's
/// answer says the lease is no longer this worker's, or when `external`
/// trips — silence (a failed beat) never cancels. A drained shard counts
/// as a lost lease and the worker claims on. A completed shard's record
/// is appended and its lease completed; a lease lost by then costs only
/// the wasted work, since determinism makes the copies byte-identical and
/// the coordinator's merge keeps the first.
///
/// # Errors
///
/// [`CampaignError::Journal`] or [`CampaignError::Store`] when the store
/// fails, or any fatal error from `execute`. A failed shard's lease stays
/// behind with a blame note carrying the error, so the coordinator
/// ledgers the death with that reason once the lease expires.
pub fn worker_loop<S, E>(
    store: &S,
    config: &DispatchConfig,
    external: &CancelToken,
    chaos: &WorkerChaos,
    mut execute: E,
) -> Result<WorkerReport, CampaignError>
where
    S: LeaseStore,
    E: FnMut(u64, &CancelToken) -> Result<Vec<u8>, CampaignError>,
{
    // The lease being executed and its shard's token, shared with the
    // heartbeat thread.
    let held: &Mutex<Option<(Lease, CancelToken)>> = &Mutex::new(None);
    let suppressed = &AtomicBool::new(false);
    let beat_every = Duration::from_millis((config.lease.ttl_ms / 4).max(5));
    store.beat(0, None).map_err(store_error)?;
    let (stop, stopped) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut counter = 0u64;
            // Dropping `stop` ends the wait at once, whatever the interval.
            while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(beat_every) {
                let current = held.lock().unwrap().clone();
                let lease = current.as_ref().map(|(lease, _)| lease);
                let lost = !suppressed.load(Ordering::Relaxed) && {
                    counter += 1;
                    matches!(store.beat(counter, lease), Ok(false))
                };
                if let Some((_, token)) = &current {
                    if lost || external.is_cancelled() {
                        token.cancel();
                    }
                }
            }
        });
        let report = claim_loop(store, config, external, chaos, held, suppressed, &mut execute);
        drop(stop);
        report
    })
}

/// The body of [`worker_loop`] on the worker's own thread.
fn claim_loop<S, E>(
    store: &S,
    config: &DispatchConfig,
    external: &CancelToken,
    chaos: &WorkerChaos,
    held: &Mutex<Option<(Lease, CancelToken)>>,
    suppressed: &AtomicBool,
    execute: &mut E,
) -> Result<WorkerReport, CampaignError>
where
    S: LeaseStore,
    E: FnMut(u64, &CancelToken) -> Result<Vec<u8>, CampaignError>,
{
    let mut report = WorkerReport::default();
    let mut ordinal = 0u64;
    let exit = loop {
        if external.is_cancelled() {
            break WorkerExit::Cancelled;
        }
        let lease = match store.claim().map_err(store_error)? {
            Claim::Granted(lease) => lease,
            Claim::Wait => {
                std::thread::sleep(Duration::from_millis(config.poll_ms));
                continue;
            }
            Claim::Complete => break WorkerExit::CampaignComplete,
        };

        // Chaos triggers count this worker's claims.
        let suppress_now = chaos.suppress_heartbeat_at.is_some_and(|n| ordinal >= n);
        if suppress_now {
            suppressed.store(true, Ordering::Relaxed);
        }
        if let Some((at, stall_ms)) = chaos.stall_at {
            if ordinal == at {
                std::thread::sleep(Duration::from_millis(stall_ms));
            }
        }
        let kill_now =
            chaos.kill_at_ordinal == Some(ordinal) || chaos.kill_on_shard == Some(lease.shard);
        if kill_now && !chaos.torn_write_on_kill {
            // SIGKILL mid-shard: lease stays, heartbeat stops, no cleanup.
            break WorkerExit::Died;
        }

        let token = CancelToken::new();
        *held.lock().unwrap() = Some((lease.clone(), token.clone()));
        let outcome = execute(lease.shard, &token);
        *held.lock().unwrap() = None;
        let payload = match outcome {
            Ok(payload) => payload,
            Err(_) if external.is_cancelled() => {
                // Clean shutdown: hand the shard back.
                store.release(&lease).map_err(store_error)?;
                break WorkerExit::Cancelled;
            }
            Err(_) if token.is_cancelled() => {
                // A beat said the lease is someone else's now.
                report.lost_leases += 1;
                ordinal += 1;
                continue;
            }
            Err(e) => {
                // Best effort: the error surfaces either way.
                let _ = store.blame(&lease, &e.to_string());
                return Err(e);
            }
        };

        let framed = record::frame(lease.shard, &payload)?;
        if kill_now {
            // Torn-write kill: die mid-append, leaving a torn record and
            // the lease behind.
            let _ = store.append(&framed[..TORN_CUT.min(framed.len() - 1)]);
            break WorkerExit::Died;
        }
        store.append(&framed).map_err(store_error)?;
        report.executed += 1;
        if !store.complete(&lease).map_err(store_error)? {
            report.lost_leases += 1;
        }
        ordinal += 1;

        if suppress_now {
            // A worker gone silent finishes its shard (the record is in
            // the segment) but must not keep claiming: to the coordinator
            // it is dead.
            break WorkerExit::Died;
        }
    };
    report.cancelled = exit == WorkerExit::Cancelled;
    report.died = exit == WorkerExit::Died;
    Ok(report)
}

/// Bytes of a framed record a torn-write kill leaves in the segment.
const TORN_CUT: usize = 13;

/// A store's failure as a campaign error: checkpoint I/O stays
/// [`CampaignError::Journal`], anything else (a transport) is
/// [`CampaignError::Store`].
fn store_error<E: std::error::Error + Send + Sync + 'static>(e: E) -> CampaignError {
    let boxed: Box<dyn std::error::Error + Send + Sync> = Box::new(e);
    match boxed.downcast::<JournalError>() {
        Ok(journal) => CampaignError::Journal(*journal),
        Err(other) => CampaignError::Store(other),
    }
}

/// Worker ids must be unique per *incarnation*, not just per slot: a
/// stale lease left by a dead worker is judged by the liveness of the
/// worker *named in the lease*, so a successor reusing the name would keep
/// the orphaned lease alive forever with its own heartbeats. (The CLI
/// worker subcommand bakes the process id into its default worker id for
/// the same reason.)
fn unique_worker_id(prefix: &str, slot: u64) -> String {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    format!("{prefix}{slot}-{}-{}", std::process::id(), NONCE.fetch_add(1, Ordering::Relaxed))
}

/// Coordinator plus `workers` in-process worker threads, with per-worker
/// chaos injection and optional respawn of dead workers — the reference
/// implementation of the dispatch protocol (the CLI runs the same
/// coordinator over worker *processes*).
///
/// When every worker is dead and shards remain, a supervisor either
/// respawns a fresh worker (`respawn = true`, chaos-free — the recovery
/// path) or gives up with [`CampaignError::Interrupted`] so a later call
/// resumes from the checkpoint.
///
/// # Errors
///
/// As [`coordinate`]; a fatal worker error surfaces in preference to the
/// `Interrupted` it causes.
#[allow(clippy::too_many_arguments)]
pub fn run_dispatched<E, P>(
    checkpoint: &Checkpoint,
    manifest: CampaignManifest,
    workers: usize,
    config: &DispatchConfig,
    chaos: &[WorkerChaos],
    respawn: bool,
    execute: E,
    poison: P,
) -> Result<DispatchOutcome, CampaignError>
where
    E: Fn(u64, &CancelToken) -> Result<Vec<u8>, CampaignError> + Sync,
    P: FnMut(u64, &RetryState) -> Vec<u8>,
{
    let workers = workers.max(1);
    let shards = manifest.shards();
    let worker_reports: Mutex<Vec<WorkerReport>> = Mutex::new(Vec::new());
    let worker_errors: Mutex<Vec<CampaignError>> = Mutex::new(Vec::new());
    let execute = &execute;

    let result = std::thread::scope(|scope| {
        let spawn_worker = |name: String, chaos: WorkerChaos| {
            let dir = checkpoint.dir().to_path_buf();
            let cfg = config.clone();
            let external = checkpoint.cancel_token().clone();
            let reports = &worker_reports;
            let errors = &worker_errors;
            scope.spawn(move || {
                let run = FileStore::open(&dir, &name, shards)
                    .map_err(CampaignError::from)
                    .and_then(|(store, _)| {
                        worker_loop(&store, &cfg, &external, &chaos, |s, t| execute(s, t))
                    });
                match run {
                    Ok(r) => reports.lock().unwrap().push(r),
                    Err(e) => errors.lock().unwrap().push(e),
                }
            })
        };

        let handles = RefCell::new(Vec::new());
        for i in 0..workers {
            let c = chaos.get(i).cloned().unwrap_or_default();
            handles.borrow_mut().push(spawn_worker(unique_worker_id("w", i as u64), c));
        }

        let respawned = RefCell::new(0u64);
        let out = coordinate(checkpoint, manifest, config, poison, |status| {
            let mut hs = handles.borrow_mut();
            let all_dead = hs.iter().all(|h| h.is_finished());
            if all_dead && status.committed < status.shards {
                if !worker_errors.lock().unwrap().is_empty() || !respawn {
                    return TickDirective::GiveUp;
                }
                // Respawn one replacement and keep going. Chaos entries
                // beyond the initial worker count apply to respawns in
                // spawn order — how tests model a shard that keeps killing
                // fresh workers; past the slice, respawns are chaos-free.
                let n = *respawned.borrow();
                *respawned.borrow_mut() = n + 1;
                let c = chaos.get(workers + n as usize).cloned().unwrap_or_default();
                hs.push(spawn_worker(unique_worker_id("r", n), c));
            }
            TickDirective::Continue
        });
        // Unblock workers still polling: completion they will observe via
        // the journal; interruption they observe via the token.
        if out.is_err() {
            checkpoint.cancel_token().cancel();
        }
        out
    });

    let mut errors = worker_errors.into_inner().unwrap();
    if let Some(e) = errors.drain(..).next() {
        return Err(e);
    }
    let (payloads, report) = result?;
    Ok((payloads, report, worker_reports.into_inner().unwrap()))
}

/// Cost-model shard packing: stiff members (dominant Jacobian eigenvalue
/// over the triage threshold, per `core::select`'s estimate) land in
/// shards of `stiff_size`, non-stiff members in shards of `size` — a stiff
/// shard of Radau solves costs far more than a non-stiff DOPRI5 shard of
/// the same member count, and evening out shard cost is what keeps N
/// workers busy instead of one worker stuck with the lone huge shard.
///
/// Deterministic and order-stable: non-stiff shards first, then stiff
/// shards, members in ascending index order within each — so the packing
/// is a pure function of the job and can be pinned in the manifest.
#[must_use]
pub fn pack_shards(job: &SimulationJob, stiff_size: usize, size: usize) -> Vec<Vec<usize>> {
    let classes = classify_batch(job);
    let stiff: Vec<usize> = (0..classes.len()).filter(|&i| classes[i].stiff).collect();
    let nonstiff: Vec<usize> = (0..classes.len()).filter(|&i| !classes[i].stiff).collect();
    let mut shards: Vec<Vec<usize>> = Vec::new();
    for chunk in nonstiff.chunks(size.max(1)) {
        shards.push(chunk.to_vec());
    }
    for chunk in stiff.chunks(stiff_size.max(1)) {
        shards.push(chunk.to_vec());
    }
    shards
}

/// Uniform packing: member indices `0..members` in ascending chunks of
/// `size` — the layout [`run_journaled`](crate::campaign::run_journaled)
/// drivers have always used, expressed as an explicit plan.
#[must_use]
pub fn uniform_shards(members: usize, size: usize) -> Vec<Vec<usize>> {
    (0..members).collect::<Vec<usize>>().chunks(size.max(1)).map(<[usize]>::to_vec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraspace_journal::codec::{Dec, Enc};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("paraspace_dispatch_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn fast_config() -> DispatchConfig {
        DispatchConfig {
            lease: LeaseConfig {
                ttl_ms: 400,
                backoff_base_ms: 20,
                backoff_cap_ms: 200,
                max_worker_deaths: 3,
            },
            poll_ms: 10,
        }
    }

    fn payload_for(shard: u64) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.put_u64(shard).put_f64(shard as f64 * 1.5);
        enc.finish()
    }

    fn poison_payload(shard: u64, st: &RetryState) -> Vec<u8> {
        let taxonomy = format!("{} distinct workers: {}", st.workers.len(), st.reasons.join(";"));
        let mut enc = Enc::new();
        enc.put_u64(u64::MAX).put_u64(shard).put_str(&taxonomy);
        enc.finish()
    }

    fn manifest(shards: u64) -> CampaignManifest {
        CampaignManifest::new("dispatch-test", shards).with_digest("spec", 0xd15b)
    }

    #[test]
    fn single_worker_dispatch_matches_direct_payloads() {
        let dir = temp_dir("single");
        let cp = Checkpoint::new(&dir);
        let (payloads, report, workers) = run_dispatched(
            &cp,
            manifest(6),
            1,
            &fast_config(),
            &[],
            false,
            |s, _| Ok(payload_for(s)),
            poison_payload,
        )
        .unwrap();
        assert_eq!(payloads, (0..6).map(payload_for).collect::<Vec<_>>());
        assert_eq!(report.merged, 6);
        assert_eq!(report.reassignments, 0);
        assert_eq!(report.divergent_duplicates, 0);
        assert!(report.quarantined.is_empty());
        assert_eq!(workers.iter().map(|w| w.executed).sum::<u64>(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn many_workers_produce_identical_payloads_and_share_work() {
        let dir1 = temp_dir("many1");
        let dir4 = temp_dir("many4");
        let run = |dir: &PathBuf, workers: usize| {
            let cp = Checkpoint::new(dir);
            run_dispatched(
                &cp,
                manifest(16),
                workers,
                &fast_config(),
                &[],
                false,
                |s, _| Ok(payload_for(s)),
                poison_payload,
            )
            .unwrap()
        };
        let (p1, ..) = run(&dir1, 1);
        let (p4, _, w4) = run(&dir4, 4);
        assert_eq!(p1, p4, "payloads must be independent of worker count");
        assert!(w4.len() >= 2, "four workers were spawned");
        std::fs::remove_dir_all(&dir1).ok();
        std::fs::remove_dir_all(&dir4).ok();
    }

    #[test]
    fn killed_worker_is_reassigned_and_result_is_exact() {
        let dir = temp_dir("kill");
        let cp = Checkpoint::new(&dir);
        // One doomed worker and a respawn: with instant payloads a healthy
        // second worker could drain every shard before the doomed one
        // reaches the claim it dies on, and nobody would die. Alone, it
        // must die holding its second shard whatever the interleaving, so
        // the lease expiry and the reassignment always happen.
        let chaos = vec![WorkerChaos { kill_at_ordinal: Some(1), ..WorkerChaos::default() }];
        let (payloads, report, workers) = run_dispatched(
            &cp,
            manifest(8),
            1,
            &fast_config(),
            &chaos,
            true,
            |s, _| Ok(payload_for(s)),
            poison_payload,
        )
        .unwrap();
        assert_eq!(payloads, (0..8).map(payload_for).collect::<Vec<_>>());
        assert!(report.reassignments >= 1, "the killed worker's shard was reassigned");
        assert!(workers.iter().any(|w| w.died));
        assert_eq!(report.divergent_duplicates, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_segment_write_is_discarded_and_shard_reexecutes() {
        let dir = temp_dir("torn");
        let cp = Checkpoint::new(&dir);
        let chaos = vec![WorkerChaos {
            kill_at_ordinal: Some(0),
            torn_write_on_kill: true,
            ..WorkerChaos::default()
        }];
        let (payloads, report, _) = run_dispatched(
            &cp,
            manifest(4),
            1,
            &fast_config(),
            &chaos,
            true,
            |s, _| Ok(payload_for(s)),
            poison_payload,
        )
        .unwrap();
        assert_eq!(payloads, (0..4).map(payload_for).collect::<Vec<_>>());
        assert!(report.reassignments >= 1);
        assert_eq!(report.divergent_duplicates, 0, "the torn record never merged");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_workers_dead_without_respawn_interrupts_then_resume_completes() {
        let dir = temp_dir("resume");
        let chaos = vec![WorkerChaos { kill_at_ordinal: Some(2), ..WorkerChaos::default() }];
        let err = run_dispatched(
            &Checkpoint::new(&dir),
            manifest(6),
            1,
            &fast_config(),
            &chaos,
            false,
            |s, _| Ok(payload_for(s)),
            poison_payload,
        )
        .unwrap_err();
        match err {
            CampaignError::Interrupted { completed, shards, ref checkpoint_dir } => {
                assert!(completed < shards);
                assert_eq!(checkpoint_dir, &dir);
            }
            ref other => panic!("expected Interrupted, got {other}"),
        }

        // Resume with fresh chaos-free workers: byte-identical completion.
        let (payloads, report, _) = run_dispatched(
            &Checkpoint::new(&dir),
            manifest(6),
            2,
            &fast_config(),
            &[],
            false,
            |s, _| Ok(payload_for(s)),
            poison_payload,
        )
        .unwrap();
        assert_eq!(payloads, (0..6).map(payload_for).collect::<Vec<_>>());
        assert!(report.recovered >= 1, "first run's commits were recovered");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poisoned_shard_is_quarantined_with_taxonomy_and_campaign_completes_degraded() {
        let dir = temp_dir("quarantine");
        let cp = Checkpoint::new(&dir);
        let mut config = fast_config();
        config.lease.max_worker_deaths = 2;
        // Shard 1 kills every worker that touches it (the poisoned-shard
        // model: the evaluation itself takes the process down, so the
        // heartbeat stops with it). The initial worker and the first
        // respawn both die on it — two distinct workers — then quarantine
        // fires and a chaos-free respawn completes the rest degraded.
        let poisoned = WorkerChaos { kill_on_shard: Some(1), ..WorkerChaos::default() };
        let chaos = vec![poisoned.clone(), poisoned];
        let (payloads, report, workers) = run_dispatched(
            &cp,
            manifest(4),
            1,
            &config,
            &chaos,
            true,
            |s, _| Ok(payload_for(s)),
            poison_payload,
        )
        .unwrap();
        assert_eq!(report.quarantined, vec![1]);
        assert!(report.reassignments >= 2);
        assert!(workers.iter().filter(|w| w.died).count() >= 1);
        let mut dec = Dec::new(&payloads[1]);
        assert_eq!(dec.u64().unwrap(), u64::MAX, "poison marker");
        assert_eq!(dec.u64().unwrap(), 1);
        let taxonomy = dec.str().unwrap();
        assert!(taxonomy.contains("heartbeat-expired"), "{taxonomy}");
        assert!(taxonomy.contains("2 distinct workers"), "{taxonomy}");
        for s in [0u64, 2, 3] {
            assert_eq!(payloads[s as usize], payload_for(s), "healthy shards are exact");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn heartbeat_suppression_with_stall_expires_the_lease_and_reassigns() {
        let dir = temp_dir("suppress");
        let cp = Checkpoint::new(&dir);
        let config = fast_config();
        let chaos = vec![WorkerChaos {
            suppress_heartbeat_at: Some(0),
            stall_at: Some((0, 900)), // well past the 400 ms TTL
            ..WorkerChaos::default()
        }];
        let (payloads, report, workers) = run_dispatched(
            &cp,
            manifest(4),
            1,
            &config,
            &chaos,
            true,
            |s, _| Ok(payload_for(s)),
            poison_payload,
        )
        .unwrap();
        assert_eq!(payloads, (0..4).map(payload_for).collect::<Vec<_>>());
        assert!(report.reassignments >= 1, "silent worker's lease expired");
        assert!(workers.iter().any(|w| w.died));
        assert_eq!(report.divergent_duplicates, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uniform_shards_chunk_in_order() {
        assert_eq!(uniform_shards(5, 2), vec![vec![0, 1], vec![2, 3], vec![4]]);
        assert_eq!(uniform_shards(0, 3), Vec::<Vec<usize>>::new());
        assert_eq!(uniform_shards(2, 0), vec![vec![0], vec![1]], "size clamps to 1");
    }
}
