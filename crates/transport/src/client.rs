//! The worker-side transport client: a [`LeaseStore`] whose calls are
//! RPCs to the coordinator's transport server.
//!
//! Every RPC gets a deadline (socket read/write timeouts), an idempotency
//! key (the per-client monotonic frame sequence number), and a
//! capped-exponential-backoff retry ladder whose base/cap come from the
//! campaign's lease config (learned in the `Hello` handshake, so every
//! participant retries by the same rules the coordinator expires by).
//!
//! The claim → execute → append → complete loop is
//! `paraspace_analysis::dispatch::worker_loop`, the same loop file workers
//! run. A worker that loses the coordinator **keeps computing its claimed
//! shard**: a heartbeat is one attempt over the current connection and
//! soft-fails (it drops the connection but never retries or reconnects),
//! and the loop cancels a shard only on external cancellation or a beat
//! answering that the lease is gone. On reconnect the client
//! re-handshakes, learns how many of its segment records the server
//! holds, and replays the unacknowledged tail before resuming — resumable
//! segment offsets over the wire, exactly like a `SegmentReader` resuming
//! a file scan. A worker cancelled mid-shard hands its lease back with a
//! `Release` RPC, so the shard reassigns at once.

use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use paraspace_journal::lease::{Claim, Lease, LeaseConfig, LeaseStore};

use crate::chaos::NetChaos;
use crate::wire::{
    decode_reply, encode_request, read_frame, write_frame, ClaimOutcome, Reply, Request, NO_SHARD,
    PROTOCOL_VERSION,
};
use crate::TransportError;

/// Client-side knobs. Retry *backoff* comes from the campaign's lease
/// config once the handshake completes; these are the local bounds.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// TCP connect timeout per attempt, ms.
    pub connect_timeout_ms: u64,
    /// Per-RPC read/write deadline, ms.
    pub rpc_timeout_ms: u64,
    /// Attempts per RPC before the ladder is exhausted (each failed
    /// attempt reconnects and replays before retrying).
    pub max_attempts: u32,
    /// Deterministic fault plan (quiet by default).
    pub chaos: NetChaos,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            connect_timeout_ms: 2_000,
            rpc_timeout_ms: 2_000,
            max_attempts: 8,
            chaos: NetChaos::default(),
        }
    }
}

/// What the `Hello` handshake taught us about the campaign.
#[derive(Debug, Clone)]
pub struct HelloInfo {
    /// The coordinator's manifest, verbatim — verify the locally rebuilt
    /// world against it before executing anything.
    pub manifest_text: String,
    /// The campaign's lease timing (shared by every participant).
    pub lease: LeaseConfig,
    /// Idle-claim poll cadence, ms.
    pub poll_ms: u64,
    /// Segment records the server already held for this worker id.
    pub acked_records: u64,
}

struct Conn {
    stream: Option<TcpStream>,
    /// Chaos-eligible send attempts so far (heartbeats excluded).
    ordinal: u64,
    ever_connected: bool,
}

struct SentLog {
    /// Records the server held before this client's first record.
    base: u64,
    /// Framed records streamed by this client, in index order.
    records: Vec<Vec<u8>>,
}

struct Inner {
    addr: String,
    worker: String,
    opts: ClientOptions,
    conn: Mutex<Conn>,
    seq: AtomicU64,
    sent: Mutex<SentLog>,
    lease_cfg: Mutex<LeaseConfig>,
    partitioned: AtomicBool,
}

/// A connected worker client. Cheap to clone (shared state); the
/// heartbeat thread and the worker loop share one connection under a lock.
#[derive(Clone)]
pub struct WorkerClient {
    inner: Arc<Inner>,
}

impl WorkerClient {
    /// Connect to the coordinator at `addr`, handshake as `worker`, and
    /// return the campaign info. The initial connect walks the same retry
    /// ladder as every other RPC (with default backoff until the
    /// handshake supplies the campaign's).
    pub fn connect(
        addr: &str,
        worker: &str,
        opts: ClientOptions,
    ) -> Result<(Self, HelloInfo), TransportError> {
        let client = WorkerClient {
            inner: Arc::new(Inner {
                addr: addr.to_string(),
                worker: worker.to_string(),
                opts,
                conn: Mutex::new(Conn { stream: None, ordinal: 0, ever_connected: false }),
                seq: AtomicU64::new(0),
                sent: Mutex::new(SentLog { base: 0, records: Vec::new() }),
                lease_cfg: Mutex::new(LeaseConfig::default()),
                partitioned: AtomicBool::new(false),
            }),
        };
        let mut last_err = TransportError::Closed;
        for attempt in 1..=client.inner.opts.max_attempts {
            if attempt > 1 {
                std::thread::sleep(Duration::from_millis(client.backoff_ms(attempt - 1)));
            }
            let mut conn = client.inner.conn.lock().unwrap();
            match client.inner.establish(&mut conn) {
                Ok(info) => {
                    // First contact: records already on the server belong
                    // to a prior incarnation of this worker id.
                    client.inner.sent.lock().unwrap().base = info.acked_records;
                    drop(conn);
                    return Ok((client, info));
                }
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Stream one framed record, assigning it the next per-worker index.
    fn stream_record(&self, framed: &[u8]) -> Result<(), TransportError> {
        let framed = framed.to_vec();
        let index = {
            let mut sent = self.inner.sent.lock().unwrap();
            let index = sent.base + sent.records.len() as u64;
            sent.records.push(framed.clone());
            index
        };
        match self.rpc(&Request::SegmentRecord {
            worker: self.inner.worker.clone(),
            index,
            framed,
        })? {
            Reply::RecordAck { .. } => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// One RPC through the retry ladder: every failed attempt drops the
    /// connection; the next attempt reconnects, replays unacknowledged
    /// records, and retries. Protocol errors are not retried.
    fn rpc(&self, req: &Request) -> Result<Reply, TransportError> {
        let mut last_err = TransportError::Closed;
        for attempt in 1..=self.inner.opts.max_attempts {
            if attempt > 1 {
                std::thread::sleep(Duration::from_millis(self.backoff_ms(attempt - 1)));
            }
            match self.try_once(req) {
                Ok(Reply::Error { message }) => return Err(TransportError::Protocol(message)),
                Ok(reply) => return Ok(reply),
                Err(e @ TransportError::Protocol(_)) => return Err(e),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    fn backoff_ms(&self, failures: u32) -> u64 {
        self.inner.lease_cfg.lock().unwrap().backoff_ms(failures)
    }

    fn try_once(&self, req: &Request) -> Result<Reply, TransportError> {
        let mut conn = self.inner.conn.lock().unwrap();
        if conn.stream.is_none() {
            self.inner.establish(&mut conn)?;
        }
        let ord = conn.ordinal;
        conn.ordinal += 1;
        let chaos = &self.inner.opts.chaos;
        if chaos.partition_at == Some(ord) {
            self.inner.partitioned.store(true, Ordering::Relaxed);
            sever(&mut conn);
            return Err(TransportError::Io(std::io::Error::other("chaos: network partitioned")));
        }
        if chaos.sever_at.contains(&ord) {
            sever(&mut conn);
            return Err(TransportError::Io(std::io::Error::other(
                "chaos: connection severed before send",
            )));
        }
        if let Some(ms) = chaos.delay_ms_at(ord) {
            std::thread::sleep(Duration::from_millis(ms));
        }
        let seq = self.inner.next_seq();
        let payload = encode_request(req);
        let stream = conn.stream.take().expect("stream present after establish");
        if !chaos.drop_at.contains(&ord) {
            if let Err(e) = write_frame(&mut (&stream), seq, &payload) {
                let _ = stream.shutdown(Shutdown::Both);
                return Err(e);
            }
            if chaos.duplicate_at.contains(&ord) {
                if let Err(e) = write_frame(&mut (&stream), seq, &payload) {
                    let _ = stream.shutdown(Shutdown::Both);
                    return Err(e);
                }
            }
        }
        if chaos.drop_replies_at.contains(&ord) {
            // Half-open: the server will process the request, but the ack
            // is lost with the connection.
            let _ = stream.shutdown(Shutdown::Both);
            return Err(TransportError::Io(std::io::Error::other(
                "chaos: reply dropped (half-open partition)",
            )));
        }
        match read_reply_for(&stream, seq) {
            Ok(reply) => {
                conn.stream = Some(stream);
                Ok(reply)
            }
            Err(e) => {
                let _ = stream.shutdown(Shutdown::Both);
                Err(e)
            }
        }
    }
}

impl Inner {
    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Connect, handshake, and replay unacknowledged records. Called with
    /// the connection lock held; on success the connection is installed.
    fn establish(&self, conn: &mut Conn) -> Result<HelloInfo, TransportError> {
        if self.partitioned.load(Ordering::Relaxed) {
            return Err(TransportError::Io(std::io::Error::other("chaos: network partitioned")));
        }
        let target = self.addr.to_socket_addrs()?.next().ok_or_else(|| {
            TransportError::Protocol(format!("unresolvable address {}", self.addr))
        })?;
        let stream = TcpStream::connect_timeout(
            &target,
            Duration::from_millis(self.opts.connect_timeout_ms.max(1)),
        )?;
        let _ = stream.set_nodelay(true);
        let timeout = Duration::from_millis(self.opts.rpc_timeout_ms.max(1));
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;

        let seq = self.next_seq();
        let hello = Request::Hello { worker: self.worker.clone(), version: PROTOCOL_VERSION };
        write_frame(&mut (&stream), seq, &encode_request(&hello))?;
        let reply = read_reply_for(&stream, seq)?;
        let Reply::HelloAck {
            manifest_text,
            ttl_ms,
            backoff_base_ms,
            backoff_cap_ms,
            max_worker_deaths,
            poll_ms,
            acked_records,
        } = reply
        else {
            if let Reply::Error { message } = reply {
                return Err(TransportError::Protocol(message));
            }
            return Err(unexpected(&reply));
        };
        let lease = LeaseConfig { ttl_ms, backoff_base_ms, backoff_cap_ms, max_worker_deaths };
        *self.lease_cfg.lock().unwrap() = lease.clone();

        // Replay the unacknowledged tail: the server told us how many
        // records it holds; everything past that is resent, in order,
        // under its original index.
        {
            let sent = self.sent.lock().unwrap();
            if conn.ever_connected {
                if acked_records < sent.base {
                    return Err(TransportError::Protocol(format!(
                        "server regressed below {} acknowledged records (now {acked_records})",
                        sent.base
                    )));
                }
                let skip = (acked_records - sent.base) as usize;
                for (k, framed) in sent.records.iter().enumerate().skip(skip) {
                    let index = sent.base + k as u64;
                    let seq = self.next_seq();
                    let req = Request::SegmentRecord {
                        worker: self.worker.clone(),
                        index,
                        framed: framed.clone(),
                    };
                    write_frame(&mut (&stream), seq, &encode_request(&req))?;
                    match read_reply_for(&stream, seq)? {
                        Reply::RecordAck { .. } => {}
                        Reply::Error { message } => return Err(TransportError::Protocol(message)),
                        other => return Err(unexpected(&other)),
                    }
                }
            }
        }
        conn.ever_connected = true;
        conn.stream = Some(stream);
        Ok(HelloInfo { manifest_text, lease, poll_ms, acked_records })
    }
}

fn sever(conn: &mut Conn) {
    if let Some(stream) = conn.stream.take() {
        let _ = stream.shutdown(Shutdown::Both);
    }
}

fn unexpected(reply: &Reply) -> TransportError {
    TransportError::Protocol(format!("unexpected reply {reply:?}"))
}

/// Read frames until the one answering `seq`: replies to earlier sequence
/// numbers are stale (a duplicated request was answered twice, or a
/// timed-out request's answer finally arrived) and are discarded; a reply
/// from the future means frame desync.
fn read_reply_for(stream: &TcpStream, seq: u64) -> Result<Reply, TransportError> {
    loop {
        let (rseq, payload) = read_frame(&mut (&*stream))?;
        if rseq < seq {
            continue;
        }
        if rseq > seq {
            return Err(TransportError::Corrupt(format!(
                "reply sequence {rseq} ahead of request {seq}"
            )));
        }
        return decode_reply(&payload);
    }
}

impl LeaseStore for WorkerClient {
    type Error = TransportError;

    fn claim(&self) -> Result<Claim, TransportError> {
        match self.rpc(&Request::Claim { worker: self.inner.worker.clone() })? {
            Reply::ClaimAck(ClaimOutcome::Granted { shard, granted_at_ms }) => {
                Ok(Claim::Granted(Lease {
                    shard,
                    worker: self.inner.worker.clone(),
                    granted_at_ms,
                }))
            }
            Reply::ClaimAck(ClaimOutcome::NoneEligible { committed, shards })
                if committed < shards =>
            {
                Ok(Claim::Wait)
            }
            Reply::ClaimAck(_) => Ok(Claim::Complete),
            other => Err(unexpected(&other)),
        }
    }

    /// One attempt over the current connection, outside the retry ladder
    /// and the chaos ordinals: a failed beat drops the connection for the
    /// next RPC to re-establish, so a partitioned worker's heartbeat
    /// thread cannot start a reconnect storm while the worker computes.
    fn beat(&self, counter: u64, held: Option<&Lease>) -> Result<bool, TransportError> {
        let (shard, granted_at_ms) = held.map_or((NO_SHARD, 0), |l| (l.shard, l.granted_at_ms));
        let mut conn = self.inner.conn.lock().unwrap();
        let stream = conn.stream.take().ok_or(TransportError::Closed)?;
        let seq = self.inner.next_seq();
        let req =
            Request::Heartbeat { worker: self.inner.worker.clone(), counter, shard, granted_at_ms };
        let result = write_frame(&mut (&stream), seq, &encode_request(&req))
            .and_then(|()| read_reply_for(&stream, seq));
        match result {
            Ok(Reply::HeartbeatAck { lease_ok, .. }) => {
                conn.stream = Some(stream);
                Ok(lease_ok)
            }
            other => {
                let _ = stream.shutdown(Shutdown::Both);
                Err(other.map_or_else(|e| e, |reply| unexpected(&reply)))
            }
        }
    }

    fn append(&self, framed: &[u8]) -> Result<(), TransportError> {
        self.stream_record(framed)
    }

    fn complete(&self, lease: &Lease) -> Result<bool, TransportError> {
        let commit = Request::Commit {
            worker: self.inner.worker.clone(),
            shard: lease.shard,
            granted_at_ms: lease.granted_at_ms,
        };
        match self.rpc(&commit)? {
            Reply::CommitAck { ok } => Ok(ok),
            other => Err(unexpected(&other)),
        }
    }

    fn release(&self, lease: &Lease) -> Result<(), TransportError> {
        let (worker, shard, granted_at_ms) =
            (self.inner.worker.clone(), lease.shard, lease.granted_at_ms);
        match self.rpc(&Request::Release { worker, shard, granted_at_ms })? {
            Reply::ReleaseAck => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    fn blame(&self, lease: &Lease, reason: &str) -> Result<(), TransportError> {
        let note = Request::Quarantine {
            worker: self.inner.worker.clone(),
            shard: lease.shard,
            reason: reason.to_string(),
        };
        match self.rpc(&note)? {
            Reply::QuarantineAck => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}
