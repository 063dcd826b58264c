//! Lease-based multi-process coordination over a shared checkpoint
//! directory.
//!
//! The shard journal makes a shard the deterministic, order-free unit of
//! work; this module promotes it to a *distribution contract*. A
//! **coordinator** owns the campaign manifest and the main `shards.log`;
//! N **workers** (threads or separate processes) share the checkpoint
//! directory and coordinate exclusively through files — no sockets, no
//! shared memory — so a worker can be SIGKILLed at any instruction and
//! leave nothing worse than a stale file behind:
//!
//! * `leases/shard_<id>.lease` — an exclusive claim, written in full to a
//!   temp file and published with a hard link (which, like `O_CREAT|O_EXCL`,
//!   fails if the lease exists). The file names the claiming worker and
//!   the grant time. A worker that finishes a shard atomically renames its
//!   lease to `leases/shard_<id>.done`, closing the window in which a
//!   completed but unmerged shard could be claimed again.
//! * `leases/hb_<worker>` — the worker's heartbeat, rewritten via
//!   tempfile+rename on a cadence well under the lease TTL. A lease whose
//!   worker's heartbeat is older than the TTL is **expired**: the worker
//!   is presumed dead (SIGKILL, hang, stall) and the shard is eligible
//!   for reassignment.
//! * `leases/blame_<worker>` — an optional note (tempfile+rename) saying
//!   *why* the worker should be presumed dead. Transports record blame on
//!   connection loss or worker-reported quarantine so the coordinator's
//!   expiry scan can ledger a transport-failure taxonomy instead of the
//!   generic `heartbeat-expired`.
//! * `segments/<worker>.log` — the worker's private append-only journal
//!   segment, framed and checksummed exactly like `shards.log`. Only the
//!   owning worker writes (and on open truncates the torn tail of) its
//!   segment; the coordinator tails segments read-only and merges intact
//!   records into the main journal by shard id, first-wins.
//! * `retries.log` — the coordinator's append-only retry ledger: one
//!   checksummed record per worker death or quarantine decision, so the
//!   backoff and poison state survives a coordinator restart.
//!
//! Exactly-once is by construction, not by locking: a shard may *execute*
//! more than once (the lease of a dead — or merely slow — worker expires
//! and another worker re-runs it), but engines are bitwise deterministic,
//! so every copy of the record is byte-identical and the first-wins merge
//! into `shards.log` commits exactly one of them.
//!
//! A worker reaches these files through a [`LeaseStore`]. [`FileStore`] is
//! the one implementation that touches them: a worker sharing the
//! checkpoint directory holds its own, and the transport server holds one
//! per networked worker and answers that worker's RPCs through it. So the
//! worker side of the protocol is written once, here; the coordinator
//! reaches the same files through [`LeaseDir`].

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::codec::{Dec, Enc};
use crate::record;
use crate::{JournalError, LOG_FILE};

/// Subdirectory holding lease, done-marker, and heartbeat files.
pub const LEASES_DIR: &str = "leases";
/// Subdirectory holding per-worker journal segments.
pub const SEGMENTS_DIR: &str = "segments";
/// The coordinator's append-only retry/quarantine ledger.
pub const RETRY_LOG: &str = "retries.log";

/// Milliseconds since the UNIX epoch — the shared clock for heartbeat
/// deadlines. Wall-clock is acceptable because every timestamp that gets
/// *compared* is written on the coordinator's machine: local workers share
/// its filesystem (and clock), and for networked workers the transport
/// server stamps heartbeats and lease grants on RPC receipt, so remote
/// clocks never enter the expiry arithmetic.
#[must_use]
pub fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default().as_millis() as u64
}

/// Timing and tolerance knobs for the lease protocol.
///
/// None of these are world-defining: they change *when* work happens,
/// never *what bytes* a shard produces. They are nonetheless journaled in
/// the campaign manifest (`lease_ttl`, `retry_base`) once a campaign is
/// dispatched, because every participant — coordinator, local workers,
/// networked workers — must agree on what "silence past TTL" means; a
/// resume with different timing would judge liveness by different rules
/// than the run it continues, so `resume` refuses mismatched timing the
/// same way it refuses a mismatched model digest.
#[derive(Debug, Clone)]
pub struct LeaseConfig {
    /// A lease is expired once its worker's heartbeat (or, if newer, the
    /// lease grant itself) is older than this.
    pub ttl_ms: u64,
    /// First reassignment delay after a worker death on a shard.
    pub backoff_base_ms: u64,
    /// Ceiling on the exponential reassignment delay.
    pub backoff_cap_ms: u64,
    /// A shard that has killed this many *distinct* workers is quarantined
    /// as a poisoned outcome instead of being reassigned forever.
    pub max_worker_deaths: u32,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig {
            ttl_ms: 2_000,
            backoff_base_ms: 100,
            backoff_cap_ms: 5_000,
            max_worker_deaths: 3,
        }
    }
}

impl LeaseConfig {
    /// Reassignment delay after the `deaths`-th death on a shard:
    /// `base · 2^(deaths−1)`, capped.
    #[must_use]
    pub fn backoff_ms(&self, deaths: u32) -> u64 {
        let shift = deaths.saturating_sub(1).min(20);
        self.backoff_base_ms.saturating_mul(1u64 << shift).min(self.backoff_cap_ms)
    }
}

fn validate_worker_id(worker: &str) -> Result<(), JournalError> {
    let ok = !worker.is_empty()
        && worker.len() <= 64
        && worker.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_');
    if ok {
        Ok(())
    } else {
        Err(JournalError::Io(std::io::Error::other(format!(
            "invalid worker id {worker:?}: use 1-64 ASCII letters, digits, '-' or '_'"
        ))))
    }
}

/// A granted, still-held lease on one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// The claimed shard.
    pub shard: u64,
    /// The worker holding the claim.
    pub worker: String,
    /// Grant time (UNIX ms) — the heartbeat deadline baseline.
    pub granted_at_ms: u64,
}

/// What a lease file says about its holder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseInfo {
    /// The shard the lease covers.
    pub shard: u64,
    /// Claiming worker (empty if the lease file itself was torn).
    pub worker: String,
    /// Grant time in UNIX ms (0 if the lease file was torn).
    pub granted_at_ms: u64,
}

/// Path layout and file-level operations of the lease protocol, rooted at
/// a checkpoint directory. Cheap to construct; both coordinator and
/// workers hold one.
#[derive(Debug, Clone)]
pub struct LeaseDir {
    root: PathBuf,
}

impl LeaseDir {
    /// The lease layout under checkpoint directory `root`.
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> Self {
        LeaseDir { root: root.into() }
    }

    /// Create the `leases/` and `segments/` subdirectories (idempotent).
    pub fn ensure(&self) -> Result<(), JournalError> {
        fs::create_dir_all(self.root.join(LEASES_DIR))?;
        fs::create_dir_all(self.root.join(SEGMENTS_DIR))?;
        Ok(())
    }

    fn lease_path(&self, shard: u64) -> PathBuf {
        self.root.join(LEASES_DIR).join(format!("shard_{shard}.lease"))
    }

    fn done_path(&self, shard: u64) -> PathBuf {
        self.root.join(LEASES_DIR).join(format!("shard_{shard}.done"))
    }

    fn heartbeat_path(&self, worker: &str) -> PathBuf {
        self.root.join(LEASES_DIR).join(format!("hb_{worker}"))
    }

    fn blame_path(&self, worker: &str) -> PathBuf {
        self.root.join(LEASES_DIR).join(format!("blame_{worker}"))
    }

    /// Path of `worker`'s journal segment.
    #[must_use]
    pub fn segment_path(&self, worker: &str) -> PathBuf {
        self.root.join(SEGMENTS_DIR).join(format!("{worker}.log"))
    }

    /// Paths of every worker segment written so far (coordinator: workers
    /// may attach at any time).
    pub fn list_segments(&self) -> Result<Vec<PathBuf>, JournalError> {
        Ok(read_dir_tolerant(&self.root.join(SEGMENTS_DIR))?
            .into_iter()
            .map(|entry| entry.path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "log"))
            .collect())
    }

    /// Atomically claim `shard` for `worker`. Returns `Ok(None)` if some
    /// other claim (lease or done marker) already exists — losing the race
    /// is not an error.
    ///
    /// The record is written to a per-worker temp file first and published
    /// with a hard link, which fails on an existing lease exactly as
    /// `O_CREAT|O_EXCL` does; a lease file is therefore never seen
    /// half-written, and a fresh claim never reads as a torn, expired one.
    pub fn try_claim(&self, shard: u64, worker: &str) -> Result<Option<Lease>, JournalError> {
        validate_worker_id(worker)?;
        if self.done_path(shard).exists() {
            return Ok(None);
        }
        let granted_at_ms = now_ms();
        let tmp = self.root.join(LEASES_DIR).join(format!("claim_{worker}_{shard}.tmp"));
        let mut enc = Enc::new();
        enc.put_str(worker).put_u64(granted_at_ms);
        let mut f = File::create(&tmp)?;
        f.write_all(&enc.finish())?;
        f.flush()?;
        drop(f);
        let linked = fs::hard_link(&tmp, self.lease_path(shard));
        fs::remove_file(&tmp)?;
        match linked {
            // Completing renames a lease to its done marker, which frees
            // the lease path: a link that raced past the check above may
            // have claimed a shard that is already done.
            Ok(()) if self.is_done(shard) => {
                self.release(shard)?;
                Ok(None)
            }
            Ok(()) => Ok(Some(Lease { shard, worker: worker.to_string(), granted_at_ms })),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Mark a claimed shard complete: atomically rename the lease to a done
    /// marker, after the shard's record reached the worker's segment.
    /// Returns `false` if the lease is gone or no longer ours — the
    /// coordinator expired it (this worker looked dead) and the shard was
    /// or will be re-executed elsewhere. Either way this worker's record is
    /// already in its segment, and determinism makes duplicates
    /// byte-identical, so a lost lease costs nothing but the wasted work.
    pub fn complete(&self, lease: &Lease) -> Result<bool, JournalError> {
        // After an expiry + reassignment the path may hold another worker's
        // claim, which a blind rename would clobber.
        if self.owns(lease)? != Some(true) {
            return Ok(false);
        }
        match fs::rename(self.lease_path(lease.shard), self.done_path(lease.shard)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// Delete the lease file for `shard` (coordinator: reassign an expired
    /// lease once its backoff elapses). Missing file is fine.
    pub fn release(&self, shard: u64) -> Result<(), JournalError> {
        match fs::remove_file(self.lease_path(shard)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Delete the done marker for `shard` (coordinator: after the shard is
    /// merged into the main journal). Missing file is fine.
    pub fn clear_done(&self, shard: u64) -> Result<(), JournalError> {
        match fs::remove_file(self.done_path(shard)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// All live lease files, ascending by shard id. A lease file that is
    /// unreadable or torn reports an empty worker and grant time 0 — it
    /// will look expired and be reassigned, which is the safe direction.
    /// One that vanished since the listing (completed into a done marker,
    /// or released) is not live and is skipped.
    pub fn list_leases(&self) -> Result<Vec<LeaseInfo>, JournalError> {
        let mut out = Vec::new();
        for entry in read_dir_tolerant(&self.root.join(LEASES_DIR))? {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(shard) = parse_marker(name, "shard_", ".lease") else { continue };
            let info = match fs::read(entry.path()) {
                Ok(bytes) => parse_lease(shard, &bytes),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(_) => LeaseInfo { shard, worker: String::new(), granted_at_ms: 0 },
            };
            out.push(info);
        }
        out.sort_by_key(|l| l.shard);
        Ok(out)
    }

    /// Shard ids with a done marker (completed but not yet merged).
    pub fn list_done(&self) -> Result<Vec<u64>, JournalError> {
        let mut out = Vec::new();
        for entry in read_dir_tolerant(&self.root.join(LEASES_DIR))? {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(shard) = parse_marker(name, "shard_", ".done") {
                out.push(shard);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// True if `shard` currently has a lease or done marker — i.e. is not
    /// claimable.
    pub fn is_claimed(&self, shard: u64) -> bool {
        self.lease_path(shard).exists() || self.done_path(shard).exists()
    }

    /// True if `shard` has a done marker (completed but not yet merged).
    #[must_use]
    pub fn is_done(&self, shard: u64) -> bool {
        self.done_path(shard).exists()
    }

    /// The live lease on `shard`, if any. A torn lease file reads as an
    /// empty worker with grant time 0, same as [`LeaseDir::list_leases`].
    fn lease_info(&self, shard: u64) -> Result<Option<LeaseInfo>, JournalError> {
        match fs::read(self.lease_path(shard)) {
            Ok(bytes) => Ok(Some(parse_lease(shard, &bytes))),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// The one ownership check: `Some(true)` while the lease file on
    /// `lease.shard` names `lease`'s worker and grant time, `Some(false)`
    /// once another claim (or a torn file) replaced it, `None` when there
    /// is no lease file — released by the coordinator, or renamed to a
    /// done marker.
    fn owns(&self, lease: &Lease) -> Result<Option<bool>, JournalError> {
        Ok(self.lease_info(lease.shard)?.map(|on_disk| {
            on_disk.worker == lease.worker && on_disk.granted_at_ms == lease.granted_at_ms
        }))
    }

    /// Claim for `worker`: hand `held` back while it is still the worker's
    /// own (a retried claim must not take a second shard), otherwise claim
    /// the lowest shard below `shards` that is neither `committed` nor
    /// claimed. `held` tracks the result; `Ok(None)` means nothing is
    /// claimable right now.
    fn claim(
        &self,
        worker: &str,
        shards: u64,
        held: &mut Option<Lease>,
        committed: &mut CommittedShards,
    ) -> Result<Option<Lease>, JournalError> {
        if let Some(lease) = held.take() {
            if self.owns(&lease)? == Some(true) {
                *held = Some(lease.clone());
                return Ok(Some(lease));
            }
        }
        for shard in 0..shards {
            if committed.contains(shard) || self.is_claimed(shard) {
                continue;
            }
            if let Some(lease) = self.try_claim(shard, worker)? {
                // The coordinator merges a shard before it clears the done
                // marker, so a claim that raced past a marker cleared since
                // the last refresh finds the shard in the journal now: hand
                // it back rather than run a committed shard again.
                committed.refresh()?;
                if committed.contains(shard) {
                    self.release(shard)?;
                    continue;
                }
                *held = Some(lease.clone());
                return Ok(Some(lease));
            }
        }
        Ok(None)
    }

    /// Record *why* `worker` should be presumed dead (atomic
    /// tempfile+rename; the latest note wins). Transports write blame notes
    /// — `transport: connection lost`, a worker-reported quarantine reason —
    /// so the coordinator's expiry scan can attach a failure taxonomy to
    /// the death instead of the generic `heartbeat-expired`.
    pub fn blame(&self, worker: &str, reason: &str) -> Result<(), JournalError> {
        validate_worker_id(worker)?;
        let path = self.blame_path(worker);
        let tmp = self.root.join(LEASES_DIR).join(format!("blame_{worker}.tmp"));
        let mut f = File::create(&tmp)?;
        f.write_all(reason.as_bytes())?;
        f.flush()?;
        fs::rename(&tmp, &path)?;
        Ok(())
    }

    /// The blame note for `worker`, if one was recorded.
    pub fn read_blame(&self, worker: &str) -> Result<Option<String>, JournalError> {
        match fs::read(self.blame_path(worker)) {
            Ok(bytes) => Ok(Some(String::from_utf8_lossy(&bytes).into_owned())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Remove `worker`'s blame note (after its death is ledgered, so a
    /// later incarnation of the same worker id starts clean).
    pub fn clear_blame(&self, worker: &str) -> Result<(), JournalError> {
        match fs::remove_file(self.blame_path(worker)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Write `worker`'s heartbeat (atomic tempfile+rename, so a reader
    /// never observes a torn heartbeat).
    pub fn beat(&self, worker: &str, counter: u64) -> Result<(), JournalError> {
        validate_worker_id(worker)?;
        let path = self.heartbeat_path(worker);
        let tmp = self.root.join(LEASES_DIR).join(format!("hb_{worker}.tmp"));
        let mut enc = Enc::new();
        enc.put_u64(counter).put_u64(now_ms());
        let mut f = File::create(&tmp)?;
        f.write_all(&enc.finish())?;
        f.flush()?;
        fs::rename(&tmp, &path)?;
        Ok(())
    }

    /// The UNIX-ms timestamp of `worker`'s last heartbeat, if any.
    pub fn last_heartbeat_ms(&self, worker: &str) -> Result<Option<u64>, JournalError> {
        let bytes = match fs::read(self.heartbeat_path(worker)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut dec = Dec::new(&bytes);
        let _counter = dec.u64()?;
        Ok(Some(dec.u64()?))
    }
}

fn parse_lease(shard: u64, bytes: &[u8]) -> LeaseInfo {
    let mut dec = Dec::new(bytes);
    match (|| -> Result<(String, u64), JournalError> {
        let worker = dec.str()?.to_string();
        let granted = dec.u64()?;
        Ok((worker, granted))
    })() {
        Ok((worker, granted_at_ms)) => LeaseInfo { shard, worker, granted_at_ms },
        Err(_) => LeaseInfo { shard, worker: String::new(), granted_at_ms: 0 },
    }
}

fn parse_marker(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
}

fn read_dir_tolerant(dir: &Path) -> Result<Vec<fs::DirEntry>, JournalError> {
    match fs::read_dir(dir) {
        Ok(entries) => Ok(entries.filter_map(Result::ok).collect()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e.into()),
    }
}

/// A worker's private append-only journal segment (writer side).
///
/// Same framing and torn-tail semantics as `shards.log`, but with a strict
/// single-writer ownership rule: only the owning worker may append to or
/// truncate its segment. Opening the segment truncates any torn tail left
/// by a previous incarnation of the same worker id — safe because the
/// coordinator's reader only ever advances past *verified* records, so the
/// truncated bytes were never merged.
#[derive(Debug)]
pub struct Segment {
    file: File,
    path: PathBuf,
}

impl Segment {
    /// Open (or create) `worker`'s segment, truncating a torn tail.
    /// Returns the segment and the number of intact records it holds.
    pub fn open(dir: &LeaseDir, worker: &str) -> Result<(Self, u64), JournalError> {
        validate_worker_id(worker)?;
        let path = dir.segment_path(worker);
        let bytes = record::read_log(&path)?;
        let (records, good) = record::scan_bytes(&bytes);
        if (bytes.len() as u64) > good {
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(good)?;
            f.sync_all()?;
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok((Segment { file, path }, records.len() as u64))
    }

    /// Append one shard record and flush it to the OS.
    pub fn append(&mut self, shard: u64, payload: &[u8]) -> Result<(), JournalError> {
        self.append_framed(&record::frame(shard, payload)?)
    }

    /// Append bytes already framed by [`record::frame`], verbatim, and
    /// flush them to the OS. A prefix of a frame is a torn write — what
    /// chaos injection writes for a worker that dies mid-append.
    fn append_framed(&mut self, framed: &[u8]) -> Result<(), JournalError> {
        self.file.write_all(framed)?;
        self.file.flush()?;
        Ok(())
    }

    /// Path of the segment file (diagnostics and tests).
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Read-only incremental tail over one worker segment (coordinator side).
///
/// Never truncates: a torn tail in a *live* segment is usually just a
/// record whose flush hasn't completed yet, so the reader stops before it
/// and re-scans from the same offset on the next poll.
#[derive(Debug)]
pub struct SegmentReader {
    path: PathBuf,
    offset: u64,
}

impl SegmentReader {
    /// A reader over the segment file at `path`, starting at byte 0.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> Self {
        SegmentReader { path: path.into(), offset: 0 }
    }

    /// Verified records appended since the last poll, in append order.
    /// Reads only the bytes past the offset, and advances only past
    /// records that verified; a missing file or torn tail yields what is
    /// intact and waits.
    pub fn poll(&mut self) -> Result<Vec<(u64, Vec<u8>)>, JournalError> {
        let mut bytes = Vec::new();
        match File::open(&self.path) {
            Ok(mut file) => {
                // The owner truncated a torn tail below our offset; that can
                // only cut unverified bytes, so rewinding to the end is safe.
                self.offset = self.offset.min(file.metadata()?.len());
                file.seek(SeekFrom::Start(self.offset))?;
                file.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => self.offset = 0,
            Err(e) => return Err(e.into()),
        }
        let (records, good) = record::scan_bytes(&bytes);
        self.offset += good;
        Ok(records)
    }
}

/// The shards committed to the main journal, kept current by tailing
/// `shards.log` read-only — how a [`FileStore`] learns which shards no
/// longer need claiming.
#[derive(Debug)]
struct CommittedShards {
    reader: SegmentReader,
    set: BTreeSet<u64>,
}

impl CommittedShards {
    /// A view of the journal under checkpoint directory `root`, empty
    /// until the first [`refresh`](Self::refresh).
    fn new(root: &Path) -> Self {
        CommittedShards { reader: SegmentReader::new(root.join(LOG_FILE)), set: BTreeSet::new() }
    }

    /// Fold in the records committed since the last call; returns how
    /// many shards are committed.
    fn refresh(&mut self) -> Result<u64, JournalError> {
        for (shard, _) in self.reader.poll()? {
            self.set.insert(shard);
        }
        Ok(self.set.len() as u64)
    }

    /// True if `shard` was committed as of the last refresh.
    fn contains(&self, shard: u64) -> bool {
        self.set.contains(&shard)
    }
}

/// What a [`LeaseStore::claim`] came back with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Claim {
    /// A lease on a shard to execute (the held one again, if the caller
    /// still holds it).
    Granted(Lease),
    /// Every uncommitted shard is leased or done; ask again later.
    Wait,
    /// Every shard is committed.
    Complete,
}

/// The worker side of the lease protocol — everything a worker does to
/// the shared lease state, whatever carries it there. `beat` runs on a
/// heartbeat thread while the other calls run on the worker's own, so the
/// store is shared between threads.
pub trait LeaseStore: Sync {
    /// What a failed call reports.
    type Error: std::error::Error + Send + Sync + 'static;

    /// Claim the lowest eligible shard, or the held one again.
    fn claim(&self) -> Result<Claim, Self::Error>;

    /// Write this worker's `counter`-th heartbeat and answer whether
    /// `held` is still this worker's; true when nothing is held. A lease
    /// that turned into a done marker or a committed record still answers
    /// true — completion is not loss. False once the coordinator released
    /// it or another worker holds the shard.
    fn beat(&self, counter: u64, held: Option<&Lease>) -> Result<bool, Self::Error>;

    /// Append one record framed by [`record::frame`] to this worker's
    /// segment.
    fn append(&self, framed: &[u8]) -> Result<(), Self::Error>;

    /// Turn `lease` into a done marker; false when the lease is no longer
    /// this worker's (its record still merges, first wins).
    fn complete(&self, lease: &Lease) -> Result<bool, Self::Error>;

    /// Hand `lease` back on clean cancellation so the shard reassigns at
    /// once; a lease no longer this worker's is left alone.
    fn release(&self, lease: &Lease) -> Result<(), Self::Error>;

    /// Record that executing `lease`'s shard failed with `reason`. The
    /// lease stays: at expiry the coordinator ledgers the death with this
    /// note as its reason.
    fn blame(&self, lease: &Lease, reason: &str) -> Result<(), Self::Error>;
}

/// The [`LeaseStore`] that performs every call as file operations on the
/// checkpoint directory: a worker sharing that directory holds its own,
/// and the transport server holds one per networked worker.
#[derive(Debug)]
pub struct FileStore {
    dir: LeaseDir,
    worker: String,
    shards: u64,
    segment: Mutex<Segment>,
    committed: Mutex<CommittedShards>,
    held: Mutex<Option<Lease>>,
}

impl FileStore {
    /// Attach `worker` to the `shards`-shard campaign checkpointed under
    /// `root`: check the worker id before touching any file, create the
    /// lease layout, and open the worker's segment, truncating a torn tail
    /// left by an earlier incarnation. Returns the store and the number of
    /// intact records the segment holds.
    pub fn open(root: &Path, worker: &str, shards: u64) -> Result<(Self, u64), JournalError> {
        validate_worker_id(worker)?;
        let dir = LeaseDir::new(root);
        dir.ensure()?;
        let (segment, records) = Segment::open(&dir, worker)?;
        let store = FileStore {
            dir,
            worker: worker.to_string(),
            shards,
            segment: Mutex::new(segment),
            committed: Mutex::new(CommittedShards::new(root)),
            held: Mutex::new(None),
        };
        Ok((store, records))
    }

    /// Shards committed to the main journal as of the last claim or beat.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.committed.lock().unwrap().set.len() as u64
    }

    /// True while the worker holds a lease it has neither completed nor
    /// released.
    #[must_use]
    pub fn holds_lease(&self) -> bool {
        self.held.lock().unwrap().is_some()
    }
}

impl LeaseStore for FileStore {
    type Error = JournalError;

    fn claim(&self) -> Result<Claim, JournalError> {
        let mut committed = self.committed.lock().unwrap();
        if committed.refresh()? >= self.shards {
            return Ok(Claim::Complete);
        }
        let mut held = self.held.lock().unwrap();
        Ok(match self.dir.claim(&self.worker, self.shards, &mut held, &mut committed)? {
            Some(lease) => Claim::Granted(lease),
            None => Claim::Wait,
        })
    }

    fn beat(&self, counter: u64, held: Option<&Lease>) -> Result<bool, JournalError> {
        self.dir.beat(&self.worker, counter)?;
        let owned = match held {
            Some(lease) => self.dir.owns(lease)?,
            None => Some(true),
        };
        // The coordinator merges a shard before it clears the done marker,
        // so the marker is read before the journal: a lease completed
        // between the two reads is seen in one of them.
        let done = held.is_some_and(|lease| self.dir.is_done(lease.shard));
        let mut committed = self.committed.lock().unwrap();
        committed.refresh()?;
        Ok(owned.unwrap_or_else(|| done || held.is_some_and(|l| committed.contains(l.shard))))
    }

    fn append(&self, framed: &[u8]) -> Result<(), JournalError> {
        self.segment.lock().unwrap().append_framed(framed)
    }

    fn complete(&self, lease: &Lease) -> Result<bool, JournalError> {
        self.held.lock().unwrap().take_if(|held| held.shard == lease.shard);
        self.dir.complete(lease)
    }

    fn release(&self, lease: &Lease) -> Result<(), JournalError> {
        self.held.lock().unwrap().take_if(|held| held.shard == lease.shard);
        if self.dir.owns(lease)? == Some(true) {
            self.dir.release(lease.shard)?;
        }
        Ok(())
    }

    fn blame(&self, lease: &Lease, reason: &str) -> Result<(), JournalError> {
        self.dir.blame(&self.worker, &format!("shard {} failed on worker: {reason}", lease.shard))
    }
}

/// Accumulated ledger state for one shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetryState {
    /// Total recorded deaths on this shard.
    pub deaths: u32,
    /// The distinct workers that died holding this shard's lease.
    pub workers: BTreeSet<String>,
    /// Earliest UNIX-ms time the shard may be reassigned.
    pub not_before_ms: u64,
    /// True once the shard was quarantined.
    pub quarantined: bool,
    /// Failure taxonomy, newest last (e.g. `heartbeat-expired`, `stalled`).
    pub reasons: Vec<String>,
}

/// The coordinator's append-only retry/quarantine ledger.
///
/// Single-writer (the coordinator), checksummed with the shared record
/// framing, torn tail truncated on open. Rebuilding the in-memory state on
/// open is what lets backoff schedules and quarantine decisions survive a
/// coordinator crash.
#[derive(Debug)]
pub struct RetryLedger {
    file: File,
    state: BTreeMap<u64, RetryState>,
}

impl RetryLedger {
    /// Open (or create) the ledger under checkpoint directory `root` and
    /// replay it into memory.
    pub fn open(root: &Path) -> Result<Self, JournalError> {
        let path = root.join(RETRY_LOG);
        let bytes = record::read_log(&path)?;
        let (records, good) = record::scan_bytes(&bytes);
        if (bytes.len() as u64) > good {
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(good)?;
            f.sync_all()?;
        }
        let mut state: BTreeMap<u64, RetryState> = BTreeMap::new();
        for (shard, payload) in &records {
            let entry = state.entry(*shard).or_default();
            apply_ledger_record(entry, payload)?;
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(RetryLedger { file, state })
    }

    /// Record a worker death on `shard` and schedule its reassignment.
    pub fn record_death(
        &mut self,
        shard: u64,
        worker: &str,
        reason: &str,
        at_ms: u64,
        not_before_ms: u64,
    ) -> Result<(), JournalError> {
        let mut enc = Enc::new();
        enc.put_u32(TAG_DEATH)
            .put_str(worker)
            .put_str(reason)
            .put_u64(at_ms)
            .put_u64(not_before_ms);
        let payload = enc.finish();
        self.append(shard, &payload)?;
        apply_ledger_record(self.state.entry(shard).or_default(), &payload)
    }

    /// Record the quarantine decision for `shard`.
    pub fn record_quarantine(
        &mut self,
        shard: u64,
        reason: &str,
        at_ms: u64,
    ) -> Result<(), JournalError> {
        let mut enc = Enc::new();
        enc.put_u32(TAG_QUARANTINE).put_str("").put_str(reason).put_u64(at_ms).put_u64(0);
        let payload = enc.finish();
        self.append(shard, &payload)?;
        apply_ledger_record(self.state.entry(shard).or_default(), &payload)
    }

    fn append(&mut self, shard: u64, payload: &[u8]) -> Result<(), JournalError> {
        let record = record::frame(shard, payload)?;
        self.file.write_all(&record)?;
        self.file.flush()?;
        Ok(())
    }

    /// Ledger state for `shard`, if any event was recorded.
    #[must_use]
    pub fn state(&self, shard: u64) -> Option<&RetryState> {
        self.state.get(&shard)
    }

    /// All shards with ledger state.
    pub fn states(&self) -> impl Iterator<Item = (u64, &RetryState)> {
        self.state.iter().map(|(&s, st)| (s, st))
    }
}

const TAG_DEATH: u32 = 0;
const TAG_QUARANTINE: u32 = 1;

fn apply_ledger_record(entry: &mut RetryState, payload: &[u8]) -> Result<(), JournalError> {
    let mut dec = Dec::new(payload);
    let tag = dec.u32()?;
    let worker = dec.str()?.to_string();
    let reason = dec.str()?.to_string();
    let _at_ms = dec.u64()?;
    let not_before_ms = dec.u64()?;
    dec.expect_exhausted()?;
    match tag {
        TAG_DEATH => {
            entry.deaths += 1;
            entry.workers.insert(worker);
            entry.not_before_ms = entry.not_before_ms.max(not_before_ms);
            entry.reasons.push(reason);
        }
        TAG_QUARANTINE => {
            entry.quarantined = true;
            entry.reasons.push(reason);
        }
        other => {
            return Err(JournalError::MalformedPayload {
                message: format!("unknown retry-ledger tag {other}"),
            })
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("paraspace_lease_{tag}_{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn claim_is_exclusive_and_complete_renames_to_done() {
        let dir = tmp_dir("claim");
        let leases = LeaseDir::new(&dir);
        leases.ensure().unwrap();
        let lease = leases.try_claim(7, "w0").unwrap().expect("first claim wins");
        assert!(leases.try_claim(7, "w1").unwrap().is_none(), "second claim must lose");
        assert!(leases.is_claimed(7));
        let listed = leases.list_leases().unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].worker, "w0");
        assert_eq!(listed[0].shard, 7);
        assert!(listed[0].granted_at_ms > 0);

        assert!(leases.complete(&lease).unwrap());
        assert!(leases.list_leases().unwrap().is_empty());
        assert_eq!(leases.list_done().unwrap(), vec![7]);
        // Done marker still blocks claims until the coordinator merges.
        assert!(leases.try_claim(7, "w1").unwrap().is_none());
        leases.clear_done(7).unwrap();
        assert!(leases.try_claim(7, "w1").unwrap().is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn expired_lease_release_lets_another_worker_claim_and_complete_reports_loss() {
        let dir = tmp_dir("expire");
        let leases = LeaseDir::new(&dir);
        leases.ensure().unwrap();
        let stale = leases.try_claim(3, "dead").unwrap().unwrap();
        leases.release(3).unwrap(); // coordinator expired it
        let fresh = leases.try_claim(3, "alive").unwrap().expect("reassignment claim");
        // The presumed-dead worker finishes anyway: its complete() must not
        // steal or corrupt the new claim.
        assert!(!leases.complete(&stale).unwrap(), "lost lease reports false");
        assert!(leases.complete(&fresh).unwrap());
        assert_eq!(leases.list_done().unwrap(), vec![3]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn heartbeats_round_trip_and_missing_reads_as_none() {
        let dir = tmp_dir("hb");
        let leases = LeaseDir::new(&dir);
        leases.ensure().unwrap();
        assert_eq!(leases.last_heartbeat_ms("w0").unwrap(), None);
        let before = now_ms();
        leases.beat("w0", 1).unwrap();
        let at = leases.last_heartbeat_ms("w0").unwrap().unwrap();
        assert!(at >= before && at <= now_ms() + 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn blame_notes_round_trip_and_clear() {
        let dir = tmp_dir("blame");
        let leases = LeaseDir::new(&dir);
        leases.ensure().unwrap();
        assert_eq!(leases.read_blame("w0").unwrap(), None);
        leases.blame("w0", "transport: connection lost (read timeout)").unwrap();
        leases.blame("w0", "transport: worker quarantined shard").unwrap();
        assert_eq!(
            leases.read_blame("w0").unwrap().as_deref(),
            Some("transport: worker quarantined shard"),
            "latest note wins"
        );
        leases.clear_blame("w0").unwrap();
        leases.clear_blame("w0").unwrap(); // idempotent
        assert_eq!(leases.read_blame("w0").unwrap(), None);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lease_info_reads_one_shard_without_listing() {
        let dir = tmp_dir("info");
        let leases = LeaseDir::new(&dir);
        leases.ensure().unwrap();
        assert_eq!(leases.lease_info(2).unwrap(), None);
        let lease = leases.try_claim(2, "w3").unwrap().unwrap();
        let info = leases.lease_info(2).unwrap().unwrap();
        assert_eq!(info.worker, "w3");
        assert_eq!(info.granted_at_ms, lease.granted_at_ms);
        assert!(!leases.is_done(2));
        leases.complete(&lease).unwrap();
        assert!(leases.is_done(2));
        assert_eq!(leases.lease_info(2).unwrap(), None);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_fresh_claim_never_lists_as_torn() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let dir = tmp_dir("fresh");
        let leases = LeaseDir::new(&dir);
        leases.ensure().unwrap();
        let done = AtomicBool::new(false);
        let torn = std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..5_000 {
                    if let Some(lease) = leases.try_claim(0, "w0").unwrap() {
                        leases.release(lease.shard).unwrap();
                    }
                }
                done.store(true, Ordering::SeqCst);
            });
            let mut torn = 0usize;
            while !done.load(Ordering::SeqCst) {
                let listed = leases.list_leases().unwrap();
                torn += listed.iter().filter(|l| l.worker.is_empty()).count();
            }
            torn
        });
        assert_eq!(torn, 0, "a lease listed between its creation and its write reads as expired");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_claim_on_a_stale_view_hands_a_committed_shard_back() {
        let dir = tmp_dir("stale");
        let leases = LeaseDir::new(&dir);
        leases.ensure().unwrap();
        // Shard 0 is merged, and its done marker cleared, after the
        // claimer's view of the journal last refreshed.
        let mut committed = CommittedShards::new(&dir);
        committed.refresh().unwrap();
        fs::write(dir.join(LOG_FILE), record::frame(0, b"merged").unwrap()).unwrap();
        let lease = leases.claim("w0", 2, &mut None, &mut committed).unwrap().unwrap();
        assert_eq!(lease.shard, 1, "shard 0 is committed");
        assert_eq!(leases.lease_info(0).unwrap(), None, "its lease was handed back");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_ids_with_path_characters_are_refused() {
        let dir = tmp_dir("ids");
        let leases = LeaseDir::new(&dir);
        leases.ensure().unwrap();
        for bad in ["", "a/b", "..", "a b", "x\u{e9}"] {
            assert!(leases.try_claim(0, bad).is_err(), "{bad:?} must be refused");
            assert!(leases.beat(bad, 0).is_err());
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_owner_truncates_torn_tail_but_reader_never_does() {
        let dir = tmp_dir("segment");
        let leases = LeaseDir::new(&dir);
        leases.ensure().unwrap();
        let (mut seg, records) = Segment::open(&leases, "w0").unwrap();
        assert_eq!(records, 0);
        seg.append(0, b"alpha").unwrap();
        seg.append(1, b"beta").unwrap();
        seg.append_framed(&record::frame(2, b"gamma").unwrap()[..9]).unwrap(); // torn write
        let path = seg.path().to_path_buf();
        drop(seg);

        // Reader: sees the two intact records, leaves the torn tail alone.
        let mut reader = SegmentReader::new(&path);
        assert_eq!(reader.poll().unwrap(), vec![(0, b"alpha".to_vec()), (1, b"beta".to_vec())]);
        assert_eq!(reader.poll().unwrap(), Vec::new());
        let len_with_torn = fs::metadata(&path).unwrap().len();

        // Owner re-opens (worker restart): torn tail is truncated.
        let (mut seg, records) = Segment::open(&leases, "w0").unwrap();
        assert_eq!(records, 2, "the two intact records are kept");
        assert!(fs::metadata(&path).unwrap().len() < len_with_torn);
        // The record completes for real this time; the reader picks it up
        // from its remembered offset.
        seg.append(2, b"gamma").unwrap();
        assert_eq!(reader.poll().unwrap(), vec![(2, b"gamma".to_vec())]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_reader_tolerates_missing_file_then_catches_up() {
        let dir = tmp_dir("latecomer");
        let leases = LeaseDir::new(&dir);
        leases.ensure().unwrap();
        let mut reader = SegmentReader::new(leases.segment_path("w9"));
        assert_eq!(reader.poll().unwrap(), Vec::new());
        let (mut seg, _) = Segment::open(&leases, "w9").unwrap();
        seg.append(5, b"late").unwrap();
        assert_eq!(reader.poll().unwrap(), vec![(5, b"late".to_vec())]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retry_ledger_replays_backoff_and_quarantine_across_reopen() {
        let dir = tmp_dir("ledger");
        let cfg = LeaseConfig::default();
        {
            let mut ledger = RetryLedger::open(&dir).unwrap();
            ledger
                .record_death(4, "w0", "heartbeat-expired", 1_000, 1_000 + cfg.backoff_ms(1))
                .unwrap();
            ledger
                .record_death(4, "w1", "heartbeat-expired", 2_000, 2_000 + cfg.backoff_ms(2))
                .unwrap();
            ledger.record_death(4, "w1", "stalled", 3_000, 3_000 + cfg.backoff_ms(3)).unwrap();
            let workers = &ledger.state(4).unwrap().workers;
            assert_eq!(workers.len(), 2, "same worker twice counts once");
            assert!(workers.contains("w0"));
            assert!(!workers.contains("w7"));
        }
        let mut ledger = RetryLedger::open(&dir).unwrap();
        let st = ledger.state(4).unwrap().clone();
        assert_eq!(st.deaths, 3);
        assert_eq!(st.workers.len(), 2);
        assert_eq!(st.not_before_ms, 3_000 + cfg.backoff_ms(3));
        assert!(!st.quarantined);
        assert_eq!(st.reasons, vec!["heartbeat-expired", "heartbeat-expired", "stalled"]);

        ledger.record_quarantine(4, "3 deaths by 2 workers", 4_000).unwrap();
        drop(ledger);
        let ledger = RetryLedger::open(&dir).unwrap();
        assert!(ledger.state(4).unwrap().quarantined);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retry_ledger_truncates_its_own_torn_tail() {
        let dir = tmp_dir("ledger_torn");
        {
            let mut ledger = RetryLedger::open(&dir).unwrap();
            ledger.record_death(0, "w0", "x", 1, 2).unwrap();
            ledger.record_death(1, "w0", "y", 3, 4).unwrap();
        }
        let path = dir.join(RETRY_LOG);
        let full = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 5).unwrap();
        drop(f);
        let ledger = RetryLedger::open(&dir).unwrap();
        assert!(ledger.state(0).is_some());
        assert!(ledger.state(1).is_none(), "torn record must not be trusted");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let cfg = LeaseConfig {
            ttl_ms: 100,
            backoff_base_ms: 100,
            backoff_cap_ms: 1_000,
            max_worker_deaths: 3,
        };
        assert_eq!(cfg.backoff_ms(1), 100);
        assert_eq!(cfg.backoff_ms(2), 200);
        assert_eq!(cfg.backoff_ms(3), 400);
        assert_eq!(cfg.backoff_ms(4), 800);
        assert_eq!(cfg.backoff_ms(5), 1_000, "capped");
        assert_eq!(cfg.backoff_ms(60), 1_000, "shift saturates, no overflow");
    }
}
