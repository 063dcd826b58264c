//! The coordinator-side transport server.
//!
//! The server runs *inside* the coordinator process and holds no campaign
//! logic: on `Hello` it opens the [`FileStore`] a local worker of that id
//! would use (or keeps the one it opened before the worker reconnected),
//! and answers that worker's `Claim`, `Heartbeat`, `SegmentRecord`,
//! `Commit` and `Release` through the store's [`LeaseStore`] calls. Each
//! request is served for the worker its connection said `Hello` as. The
//! coordinator's merge/expiry/quarantine loop
//! (`analysis::dispatch::coordinate`) therefore works unchanged: it cannot
//! tell a networked worker from a local one, and a streamed segment record
//! is byte-identical to a file-journaled one because the store appends
//! the client's framed bytes verbatim.
//!
//! What the server adds is only what the network needs: the per-worker
//! record index that makes a replayed `SegmentRecord` exactly-once, the
//! check that it carries one intact record, the grant a retried `Commit`
//! is acked for again, and the `Hello` generation that keeps a superseded
//! connection from blaming a worker that already reconnected. Every
//! timestamp that matters — lease grants, heartbeats — is stamped with
//! the server's clock on RPC receipt, so worker clocks never enter the
//! expiry arithmetic.

use std::collections::hash_map::{Entry, HashMap};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use paraspace_journal::lease::{Claim, FileStore, Lease, LeaseConfig, LeaseDir, LeaseStore};
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

/// One worker that said `Hello`: the store a local worker of that id
/// would use, and what only the network needs on top of it.
struct Worker {
    name: String,
    store: FileStore,
    net: Mutex<NetState>,
}

struct NetState {
    /// Intact records in the segment — the index the next
    /// `SegmentRecord` must carry.
    records: u64,
    /// `(shard, granted_at_ms)` of the last grant this server completed
    /// for this worker — the one Commit a retry may see acked again.
    completed: Option<(u64, u64)>,
    /// Bumped on every Hello so a superseded connection's teardown cannot
    /// blame a worker that already reconnected.
    generation: u64,
}

/// The worker a connection said `Hello` as, and that Hello's generation.
type Hello = (Arc<Worker>, u64);

struct Shared {
    root: PathBuf,
    /// Blame notes only; every lease event goes through a worker's store.
    dir: LeaseDir,
    manifest_text: String,
    shards: u64,
    config: ServerConfig,
    workers: Mutex<HashMap<String, Arc<Worker>>>,
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
        let shared = Arc::new(Shared {
            root: checkpoint_dir.to_path_buf(),
            dir: LeaseDir::new(checkpoint_dir),
            manifest_text: manifest.to_text(),
            shards: manifest.shards(),
            config,
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
    let mut hello: Option<Hello> = None;
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
                    Ok(req) => handle_request(shared, &mut hello, req),
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
    let Some((me, generation)) = hello else { return };
    let net = me.net.lock().unwrap();
    if net.generation != generation || !me.store.holds_lease() {
        return;
    }
    if let Ok(None) = shared.dir.read_blame(&me.name) {
        let _ = shared.dir.blame(&me.name, &format!("transport: connection lost ({reason})"));
    }
}

fn handle_request(shared: &Shared, hello: &mut Option<Hello>, req: Request) -> Reply {
    let served = match (req, hello.as_ref()) {
        (Request::Hello { worker, version }, _) => say_hello(shared, hello, worker, version),
        (req, Some((me, _))) if req.worker() == me.name => serve(shared, me, req),
        (req, None) => Ok(Reply::Error {
            message: format!("worker {} must Hello before other requests", req.worker()),
        }),
        (req, Some((me, _))) => Ok(Reply::Error {
            message: format!(
                "the connection of worker {} cannot speak for {}",
                me.name,
                req.worker()
            ),
        }),
    };
    served.unwrap_or_else(|e| Reply::Error { message: e.to_string() })
}

fn say_hello(
    shared: &Shared,
    hello: &mut Option<Hello>,
    worker: String,
    version: u32,
) -> Result<Reply, TransportError> {
    if version != PROTOCOL_VERSION {
        return Ok(Reply::Error {
            message: format!(
                "protocol version mismatch: worker speaks v{version}, \
                 coordinator speaks v{PROTOCOL_VERSION}"
            ),
        });
    }
    // A reconnecting worker keeps its store: the lease it holds, and the
    // segment the server has been appending to.
    let me = match shared.workers.lock().unwrap().entry(worker) {
        Entry::Occupied(known) => Arc::clone(known.get()),
        Entry::Vacant(new) => {
            let (store, records) = FileStore::open(&shared.root, new.key(), shared.shards)?;
            let net = Mutex::new(NetState { records, completed: None, generation: 0 });
            let name = new.key().clone();
            Arc::clone(new.insert(Arc::new(Worker { name, store, net })))
        }
    };
    let mut net = me.net.lock().unwrap();
    net.generation += 1;
    shared.dir.clear_blame(&me.name)?;
    *hello = Some((Arc::clone(&me), net.generation));
    let cfg = &shared.config.lease;
    Ok(Reply::HelloAck {
        manifest_text: shared.manifest_text.clone(),
        ttl_ms: cfg.ttl_ms,
        backoff_base_ms: cfg.backoff_base_ms,
        backoff_cap_ms: cfg.backoff_cap_ms,
        max_worker_deaths: cfg.max_worker_deaths,
        poll_ms: shared.config.poll_ms,
        acked_records: net.records,
    })
}

/// Answer a request of worker `me` through its store.
fn serve(shared: &Shared, me: &Worker, req: Request) -> Result<Reply, TransportError> {
    let lease = |shard, granted_at_ms| Lease { shard, worker: me.name.clone(), granted_at_ms };
    Ok(match req {
        Request::Hello { .. } => unreachable!("Hello is answered by say_hello"),
        Request::Claim { .. } => Reply::ClaimAck(match me.store.claim()? {
            Claim::Granted(lease) => {
                ClaimOutcome::Granted { shard: lease.shard, granted_at_ms: lease.granted_at_ms }
            }
            Claim::Wait => ClaimOutcome::NoneEligible {
                committed: me.store.committed(),
                shards: shared.shards,
            },
            Claim::Complete => ClaimOutcome::Complete,
        }),
        Request::Heartbeat { counter, shard, granted_at_ms, .. } => {
            let held = (shard != NO_SHARD).then(|| lease(shard, granted_at_ms));
            let lease_ok = me.store.beat(counter, held.as_ref())?;
            Reply::HeartbeatAck { committed: me.store.committed(), shards: shared.shards, lease_ok }
        }
        Request::SegmentRecord { index, framed, .. } => {
            let mut net = me.net.lock().unwrap();
            if index < net.records {
                // Duplicate of a record we already hold (half-open retry):
                // ack without a second append.
                return Ok(Reply::RecordAck { total: net.records });
            }
            if index > net.records {
                return Ok(Reply::Error {
                    message: format!(
                        "record index {index} skips ahead of the {} records held for {}",
                        net.records, me.name
                    ),
                });
            }
            // The framed bytes must be exactly one intact record; the
            // store appends them verbatim.
            let (records, good) = record::scan_bytes(&framed);
            if records.len() != 1 || good as usize != framed.len() {
                return Ok(Reply::Error {
                    message: format!("record {index} from {} failed verification", me.name),
                });
            }
            me.store.append(&framed)?;
            net.records += 1;
            Reply::RecordAck { total: net.records }
        }
        Request::Commit { shard, granted_at_ms, .. } => {
            // Idempotent for the grant this server completed for this
            // worker (a retry whose ack was lost); a lease completed by
            // anyone else is lost, as `LeaseDir::complete` says.
            let mut net = me.net.lock().unwrap();
            let grant = (shard, granted_at_ms);
            let ok =
                net.completed == Some(grant) || me.store.complete(&lease(shard, granted_at_ms))?;
            if ok {
                net.completed = Some(grant);
            }
            Reply::CommitAck { ok }
        }
        Request::Quarantine { shard, reason, .. } => {
            // Record the taxonomy but leave the lease in place: silence
            // past the TTL turns it into a ledgered death carrying this
            // blame, which is what feeds the quarantine threshold.
            let note = format!("transport: shard {shard} failed on worker: {reason}");
            shared.dir.blame(&me.name, &note)?;
            Reply::QuarantineAck
        }
        Request::Release { shard, granted_at_ms, .. } => {
            me.store.release(&lease(shard, granted_at_ms))?;
            Reply::ReleaseAck
        }
    })
}
