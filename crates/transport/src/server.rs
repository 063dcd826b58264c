//! The coordinator-side transport server.
//!
//! The server runs *inside* the coordinator process and is deliberately
//! dumb: it holds no campaign logic, it just performs on a worker's
//! behalf exactly the file operations a local worker would perform
//! against the shared checkpoint directory — claim a lease file, rewrite
//! a heartbeat, append a framed record to `segments/<worker>.log`, rename
//! a lease to a done marker, delete a lease its worker hands back. The
//! coordinator's merge/expiry/quarantine loop
//! (`analysis::dispatch::coordinate`) therefore works unchanged: it cannot
//! tell a networked worker from a local one, and a streamed segment record
//! is byte-identical to a file-journaled one because the server appends
//! the client's framed bytes verbatim.
//!
//! Every timestamp that matters — lease grants, heartbeats — is stamped
//! with the server's clock on RPC receipt, so worker clocks never enter
//! the expiry arithmetic.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use paraspace_journal::lease::{CommittedShards, Lease, LeaseConfig, LeaseDir, Segment};
use paraspace_journal::{record, CampaignManifest};

use crate::wire::{
    decode_request, encode_reply, read_frame, write_frame, ClaimOutcome, Reply, Request, NO_SHARD,
    PROTOCOL_VERSION,
};
use crate::TransportError;

/// Timing contract the server advertises to every worker in `HelloAck`.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Lease timing/tolerance — must match the coordinator loop's config
    /// (both are built from the same manifest fields).
    pub lease: LeaseConfig,
    /// Coordinator poll cadence in ms, advertised as the workers'
    /// idle-claim poll.
    pub poll_ms: u64,
    /// Drop a connection (and blame the worker) after this much silence;
    /// defaults to 2× TTL when `None`.
    pub idle_disconnect_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { lease: LeaseConfig::default(), poll_ms: 50, idle_disconnect_ms: None }
    }
}

/// Per-worker server-side state: the segment file the server appends to
/// on the worker's behalf, and the lease the worker currently holds.
struct WorkerState {
    seg: Segment,
    /// Intact records in the segment (the worker's replay resume offset).
    count: u64,
    /// The live lease granted to this worker.
    lease: Option<Lease>,
    /// `(shard, granted_at_ms)` of the last grant this server completed
    /// for this worker — the one Commit a retry may see acked again.
    completed: Option<(u64, u64)>,
    /// Bumped on every Hello so a superseded connection's teardown cannot
    /// blame a worker that already reconnected.
    generation: u64,
}

struct Shared {
    dir: LeaseDir,
    manifest_text: String,
    shards: u64,
    config: ServerConfig,
    /// The main journal's committed set (the server tails `shards.log`
    /// exactly like a local worker does).
    committed: Mutex<CommittedShards>,
    workers: Mutex<HashMap<String, WorkerState>>,
    stop: AtomicBool,
}

/// A running transport server bound to one checkpoint directory.
///
/// Dropping (or [`shutdown`](Self::shutdown)) stops the accept loop and
/// joins every connection handler.
pub struct CoordinatorServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl CoordinatorServer {
    /// Bind `listen` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving workers of the campaign journaled under `checkpoint_dir`.
    /// The manifest must already be written (the coordinator writes it
    /// before starting the server).
    pub fn start(
        listen: &str,
        checkpoint_dir: &Path,
        manifest: &CampaignManifest,
        config: ServerConfig,
    ) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let dir = LeaseDir::new(checkpoint_dir);
        dir.ensure()?;
        let shared = Arc::new(Shared {
            dir,
            manifest_text: manifest.to_text(),
            shards: manifest.shards(),
            config,
            committed: Mutex::new(CommittedShards::new(checkpoint_dir)),
            workers: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("paraspace-transport-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .map_err(TransportError::Io)?;
        Ok(CoordinatorServer { addr, shared, accept: Some(accept) })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, close every connection, and join the handlers.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for CoordinatorServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_shared = Arc::clone(shared);
                if let Ok(handle) = std::thread::Builder::new()
                    .name("paraspace-transport-conn".into())
                    .spawn(move || serve_conn(&conn_shared, stream))
                {
                    handlers.push(handle);
                }
            }
            // Nobody waiting (`WouldBlock`), or a failed accept: retry.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
        handlers.retain(|h| !h.is_finished());
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

fn serve_conn(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // Short read timeout: the handler's idle/stop polling tick.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream
        .set_write_timeout(Some(Duration::from_millis(shared.config.lease.ttl_ms.max(1_000))));
    let idle_limit = Duration::from_millis(
        shared.config.idle_disconnect_ms.unwrap_or(2 * shared.config.lease.ttl_ms),
    );
    let mut ident: Option<(String, u64)> = None;
    let mut last_frame = Instant::now();
    let mut shutting_down = false;
    let reason: String = loop {
        if shared.stop.load(Ordering::Relaxed) {
            shutting_down = true;
            break "server shutdown".into();
        }
        match read_frame(&mut stream) {
            Ok((seq, payload)) => {
                last_frame = Instant::now();
                let reply = match decode_request(&payload) {
                    Ok(req) => handle_request(shared, &mut ident, req),
                    Err(e) => break format!("undecodable request: {e}"),
                };
                if let Err(e) = write_frame(&mut stream, seq, &encode_reply(&reply)) {
                    break format!("reply write failed: {e}");
                }
            }
            Err(e) if e.is_timeout() => {
                if last_frame.elapsed() > idle_limit {
                    break "idle past the disconnect limit".into();
                }
            }
            Err(TransportError::Closed) => break "peer closed the connection".into(),
            Err(e) => break format!("{e}"),
        }
    };
    // Teardown: blame the worker only if (a) this connection is still its
    // latest one, (b) it holds a live lease (so the blame can actually be
    // ledgered at expiry), (c) no richer blame (a worker-reported
    // quarantine) is already recorded, and (d) we are not shutting down.
    if shutting_down {
        return;
    }
    let Some((worker, generation)) = ident else { return };
    let workers = shared.workers.lock().unwrap();
    let Some(state) = workers.get(&worker) else { return };
    if state.generation != generation || state.lease.is_none() {
        return;
    }
    if let Ok(None) = shared.dir.read_blame(&worker) {
        let _ = shared.dir.blame(&worker, &format!("transport: connection lost ({reason})"));
    }
}

fn handle_request(shared: &Arc<Shared>, ident: &mut Option<(String, u64)>, req: Request) -> Reply {
    match try_handle(shared, ident, req) {
        Ok(reply) => reply,
        Err(e) => Reply::Error { message: e.to_string() },
    }
}

fn try_handle(
    shared: &Arc<Shared>,
    ident: &mut Option<(String, u64)>,
    req: Request,
) -> Result<Reply, TransportError> {
    match req {
        Request::Hello { worker, version } => {
            if version != PROTOCOL_VERSION {
                return Ok(Reply::Error {
                    message: format!(
                        "protocol version mismatch: worker speaks v{version}, \
                         coordinator speaks v{PROTOCOL_VERSION}"
                    ),
                });
            }
            // Count the intact records already in the segment (the replay
            // resume offset), then open it for appending — Segment::open
            // truncates any torn tail below that count.
            let bytes = record::read_log(&shared.dir.segment_path(&worker))?;
            let (records, _) = record::scan_bytes(&bytes);
            let count = records.len() as u64;
            let (seg, _) = Segment::open(&shared.dir, &worker)?;
            shared.dir.clear_blame(&worker)?;
            let mut workers = shared.workers.lock().unwrap();
            // A reconnecting worker keeps the lease it holds and the grant
            // it completed.
            let (lease, completed, generation) = match workers.remove(&worker) {
                Some(s) => (s.lease, s.completed, s.generation + 1),
                None => (None, None, 0),
            };
            workers
                .insert(worker.clone(), WorkerState { seg, count, lease, completed, generation });
            *ident = Some((worker, generation));
            let cfg = &shared.config.lease;
            Ok(Reply::HelloAck {
                manifest_text: shared.manifest_text.clone(),
                ttl_ms: cfg.ttl_ms,
                backoff_base_ms: cfg.backoff_base_ms,
                backoff_cap_ms: cfg.backoff_cap_ms,
                max_worker_deaths: cfg.max_worker_deaths,
                poll_ms: shared.config.poll_ms,
                acked_records: count,
            })
        }
        Request::Claim { worker } => {
            let mut workers = shared.workers.lock().unwrap();
            let Some(state) = workers.get_mut(&worker) else {
                return Ok(hello_first(&worker));
            };
            let mut committed = shared.committed.lock().unwrap();
            let count = committed.refresh()?;
            // A held lease still the worker's own is handed back: a retried
            // Claim whose ack was lost must not claim a second shard. The
            // grant is stamped with the server's clock.
            let shards = shared.shards;
            let outcome =
                match shared.dir.claim(&worker, shards, &mut state.lease, &mut committed)? {
                    Some(lease) => ClaimOutcome::Granted {
                        shard: lease.shard,
                        granted_at_ms: lease.granted_at_ms,
                    },
                    None if count >= shards => ClaimOutcome::Complete,
                    None => ClaimOutcome::NoneEligible { committed: count, shards },
                };
            Ok(Reply::ClaimAck(outcome))
        }
        Request::Heartbeat { worker, counter, shard, granted_at_ms } => {
            // Server clock: the beat is stamped on receipt.
            shared.dir.beat(&worker, counter)?;
            let mut committed = shared.committed.lock().unwrap();
            let count = committed.refresh()?;
            let lease_ok = shard == NO_SHARD
                || shared.dir.still_held(
                    &Lease { shard, worker, granted_at_ms },
                    committed.contains(shard),
                )?;
            Ok(Reply::HeartbeatAck { committed: count, shards: shared.shards, lease_ok })
        }
        Request::SegmentRecord { worker, index, framed } => {
            let mut workers = shared.workers.lock().unwrap();
            let Some(state) = workers.get_mut(&worker) else {
                return Ok(hello_first(&worker));
            };
            if index < state.count {
                // Duplicate of a record we already hold (half-open retry):
                // ack without a second append.
                return Ok(Reply::RecordAck { total: state.count });
            }
            if index > state.count {
                return Ok(Reply::Error {
                    message: format!(
                        "record index {index} skips ahead of the {} records held for {worker}",
                        state.count
                    ),
                });
            }
            // The framed bytes must be exactly one intact record; they are
            // appended verbatim so the segment stays byte-identical to one
            // a local worker would have written.
            let (records, good) = record::scan_bytes(&framed);
            if records.len() != 1 || good as usize != framed.len() {
                return Ok(Reply::Error {
                    message: format!("record {index} from {worker} failed verification"),
                });
            }
            state.seg.append_framed(&framed)?;
            state.count += 1;
            Ok(Reply::RecordAck { total: state.count })
        }
        Request::Commit { worker, shard, granted_at_ms } => {
            let mut workers = shared.workers.lock().unwrap();
            let Some(state) = workers.get_mut(&worker) else {
                return Ok(hello_first(&worker));
            };
            // Idempotent for the grant this server completed for this
            // worker (a retry whose ack was lost); a lease completed by
            // anyone else is lost, as `LeaseDir::complete` says.
            let grant = (shard, granted_at_ms);
            let ok = state.completed == Some(grant)
                || shared.dir.complete(&Lease { shard, worker, granted_at_ms })?;
            if ok {
                state.completed = Some(grant);
            }
            if state.lease.as_ref().is_some_and(|l| l.shard == shard) {
                state.lease = None;
            }
            Ok(Reply::CommitAck { ok })
        }
        Request::Quarantine { worker, shard, reason } => {
            // Record the taxonomy but leave the lease in place: silence
            // past the TTL turns it into a ledgered death carrying this
            // blame, which is what feeds the quarantine threshold.
            shared
                .dir
                .blame(&worker, &format!("transport: shard {shard} failed on worker: {reason}"))?;
            Ok(Reply::QuarantineAck)
        }
        Request::Release { worker, shard, granted_at_ms } => {
            let mut workers = shared.workers.lock().unwrap();
            let Some(state) = workers.get_mut(&worker) else {
                return Ok(hello_first(&worker));
            };
            state.lease.take_if(|l| l.shard == shard);
            shared.dir.release_owned(&Lease { shard, worker, granted_at_ms })?;
            Ok(Reply::ReleaseAck)
        }
    }
}

fn hello_first(worker: &str) -> Reply {
    Reply::Error { message: format!("worker {worker} must Hello before other requests") }
}
