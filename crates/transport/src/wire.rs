//! Wire format: every message is one [`paraspace_journal::record`] frame
//! — `[u64 seq][u32 len][payload][u64 fnv64]` — whose id slot carries the
//! client's monotonic sequence number (the idempotency key; the reply
//! echoes it) and whose payload is a tagged little-endian message encoded
//! with the journal's [`codec`](paraspace_journal::codec).
//!
//! Reusing the record framing buys the wire the exact hardening the logs
//! already have: a truncated or bit-flipped frame fails the fnv64 checksum
//! and is rejected at exactly the damaged message (see
//! `tests/wire_hardening.rs`), and the nested segment-record bytes inside
//! a [`Request::SegmentRecord`] are appended to the worker's segment file
//! *verbatim*, making a streamed record byte-identical to a file-journaled
//! one by construction.

use std::io::{Read, Write};

use paraspace_journal::codec::{Dec, Enc};
use paraspace_journal::record;

use crate::TransportError;

/// Bumped on any incompatible change to the message set; `Hello` carries
/// it and the server refuses a mismatch.
pub const PROTOCOL_VERSION: u32 = 2;

const REQ_HELLO: u32 = 0;
const REQ_CLAIM: u32 = 1;
const REQ_HEARTBEAT: u32 = 2;
const REQ_RECORD: u32 = 3;
const REQ_COMMIT: u32 = 4;
const REQ_QUARANTINE: u32 = 5;
const REQ_RELEASE: u32 = 6;

const REP_HELLO_ACK: u32 = 100;
const REP_CLAIM_ACK: u32 = 101;
const REP_HEARTBEAT_ACK: u32 = 102;
const REP_RECORD_ACK: u32 = 103;
const REP_COMMIT_ACK: u32 = 104;
const REP_QUARANTINE_ACK: u32 = 105;
const REP_RELEASE_ACK: u32 = 106;
const REP_ERROR: u32 = 199;

const CLAIM_GRANTED: u32 = 0;
const CLAIM_NONE_ELIGIBLE: u32 = 1;
const CLAIM_COMPLETE: u32 = 2;

/// Sentinel shard id in a heartbeat from a worker holding no lease.
pub const NO_SHARD: u64 = u64::MAX;

/// Worker → coordinator messages: the lease lifecycle verbs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Handshake (and re-handshake on reconnect): announce the worker id,
    /// learn the campaign, and learn how many of this worker's segment
    /// records the server already holds (the replay resume offset).
    Hello {
        /// Worker id (1-64 ASCII alnum/`-`/`_`, unique per incarnation).
        worker: String,
        /// Must equal [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Ask for the lowest eligible shard. Idempotent: a worker already
    /// holding a live lease is re-granted the same lease.
    Claim {
        /// Requesting worker.
        worker: String,
    },
    /// Liveness. The server stamps its own clock into the heartbeat file,
    /// so worker clocks never enter the expiry arithmetic.
    Heartbeat {
        /// Beating worker.
        worker: String,
        /// Monotonic beat counter.
        counter: u64,
        /// Shard currently held, or [`NO_SHARD`].
        shard: u64,
        /// Grant time of the held lease (server clock, echoed back).
        granted_at_ms: u64,
    },
    /// Stream one completed shard record. `framed` is a complete
    /// [`record`]-framed record (id = shard), appended verbatim to
    /// `segments/<worker>.log`. `index` is the worker's record ordinal:
    /// the server appends only when `index` equals its current count,
    /// which makes retries and duplicates exactly-once.
    SegmentRecord {
        /// Owning worker.
        worker: String,
        /// Per-worker record ordinal (0-based).
        index: u64,
        /// One complete framed record.
        framed: Vec<u8>,
    },
    /// Rename the lease to a done marker (same semantics as
    /// [`paraspace_journal::lease::LeaseDir::complete`]). Idempotent for
    /// this worker's own grant: a retry of a commit the server already
    /// made acks `ok` again. A lease completed by anyone else answers
    /// lost, even once its shard is done or merged.
    Commit {
        /// Committing worker.
        worker: String,
        /// Completed shard.
        shard: u64,
        /// Grant time of the lease being completed.
        granted_at_ms: u64,
    },
    /// Worker-reported execution failure: the server records a blame note
    /// so the death the coordinator ledgers at lease expiry carries the
    /// worker's taxonomy instead of the generic `heartbeat-expired`.
    Quarantine {
        /// Failing worker.
        worker: String,
        /// Shard whose execution failed.
        shard: u64,
        /// Failure taxonomy, verbatim from the executor.
        reason: String,
    },
    /// Hand the lease back on clean cancellation, so the shard reassigns at
    /// once; a lease no longer this worker's is left alone. Idempotent.
    Release {
        /// Releasing worker.
        worker: String,
        /// Released shard.
        shard: u64,
        /// Grant time of the lease being released.
        granted_at_ms: u64,
    },
}

impl Request {
    /// The worker the request speaks for.
    pub(crate) fn worker(&self) -> &str {
        match self {
            Request::Hello { worker, .. }
            | Request::Claim { worker }
            | Request::Heartbeat { worker, .. }
            | Request::SegmentRecord { worker, .. }
            | Request::Commit { worker, .. }
            | Request::Quarantine { worker, .. }
            | Request::Release { worker, .. } => worker,
        }
    }
}

/// Outcome of a [`Request::Claim`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// A lease was granted (or re-granted).
    Granted {
        /// Claimed shard.
        shard: u64,
        /// Grant time (server clock) — needed for `Commit`/`Heartbeat`.
        granted_at_ms: u64,
    },
    /// Nothing claimable right now (other workers hold the remaining
    /// leases, or reassignment backoff is pending). Poll again later.
    NoneEligible {
        /// Shards merged into the main journal so far.
        committed: u64,
        /// Total shards in the campaign.
        shards: u64,
    },
    /// Every shard is merged; the worker can exit.
    Complete,
}

/// Coordinator → worker replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Handshake reply: the campaign world and the timing contract.
    HelloAck {
        /// The campaign manifest, verbatim, so the worker can verify it
        /// rebuilt the same world before executing anything.
        manifest_text: String,
        /// Lease TTL in ms (shared by all participants).
        ttl_ms: u64,
        /// Retry/reassignment backoff base in ms.
        backoff_base_ms: u64,
        /// Backoff ceiling in ms.
        backoff_cap_ms: u64,
        /// Quarantine threshold (distinct worker deaths per shard).
        max_worker_deaths: u32,
        /// Coordinator poll cadence in ms (the worker's idle-claim poll).
        poll_ms: u64,
        /// Segment records the server already holds for this worker id —
        /// the resume offset for replay after a reconnect.
        acked_records: u64,
    },
    /// Reply to `Claim`.
    ClaimAck(ClaimOutcome),
    /// Reply to `Heartbeat`.
    HeartbeatAck {
        /// Shards merged so far.
        committed: u64,
        /// Total shards.
        shards: u64,
        /// False once the worker's lease was expired and reassigned: the
        /// affirmative lease-loss signal on which the worker cancels the
        /// shard's token so in-flight work drains at once.
        lease_ok: bool,
    },
    /// Reply to `SegmentRecord`.
    RecordAck {
        /// Records the server now holds for this worker.
        total: u64,
    },
    /// Reply to `Commit`.
    CommitAck {
        /// False if the lease was no longer this worker's — the shard was
        /// reassigned, even if another worker has completed it since; the
        /// streamed record still merges first-wins.
        ok: bool,
    },
    /// Reply to `Quarantine`.
    QuarantineAck,
    /// Reply to `Release`.
    ReleaseAck,
    /// Server-side rejection (protocol violation); not retryable.
    Error {
        /// What was wrong.
        message: String,
    },
}

/// Encode a request payload (goes inside a record frame).
#[must_use]
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut enc = Enc::new();
    match req {
        Request::Hello { worker, version } => {
            enc.put_u32(REQ_HELLO).put_str(worker).put_u32(*version);
        }
        Request::Claim { worker } => {
            enc.put_u32(REQ_CLAIM).put_str(worker);
        }
        Request::Heartbeat { worker, counter, shard, granted_at_ms } => {
            enc.put_u32(REQ_HEARTBEAT)
                .put_str(worker)
                .put_u64(*counter)
                .put_u64(*shard)
                .put_u64(*granted_at_ms);
        }
        Request::SegmentRecord { worker, index, framed } => {
            enc.put_u32(REQ_RECORD).put_str(worker).put_u64(*index).put_bytes(framed);
        }
        Request::Commit { worker, shard, granted_at_ms } => {
            enc.put_u32(REQ_COMMIT).put_str(worker).put_u64(*shard).put_u64(*granted_at_ms);
        }
        Request::Quarantine { worker, shard, reason } => {
            enc.put_u32(REQ_QUARANTINE).put_str(worker).put_u64(*shard).put_str(reason);
        }
        Request::Release { worker, shard, granted_at_ms } => {
            enc.put_u32(REQ_RELEASE).put_str(worker).put_u64(*shard).put_u64(*granted_at_ms);
        }
    }
    enc.finish()
}

/// Decode a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, TransportError> {
    let mut dec = Dec::new(payload);
    let kind = dec.u32().map_err(bad)?;
    let req = match kind {
        REQ_HELLO => Request::Hello {
            worker: dec.str().map_err(bad)?.to_string(),
            version: dec.u32().map_err(bad)?,
        },
        REQ_CLAIM => Request::Claim { worker: dec.str().map_err(bad)?.to_string() },
        REQ_HEARTBEAT => Request::Heartbeat {
            worker: dec.str().map_err(bad)?.to_string(),
            counter: dec.u64().map_err(bad)?,
            shard: dec.u64().map_err(bad)?,
            granted_at_ms: dec.u64().map_err(bad)?,
        },
        REQ_RECORD => Request::SegmentRecord {
            worker: dec.str().map_err(bad)?.to_string(),
            index: dec.u64().map_err(bad)?,
            framed: dec.bytes().map_err(bad)?.to_vec(),
        },
        REQ_COMMIT => Request::Commit {
            worker: dec.str().map_err(bad)?.to_string(),
            shard: dec.u64().map_err(bad)?,
            granted_at_ms: dec.u64().map_err(bad)?,
        },
        REQ_QUARANTINE => Request::Quarantine {
            worker: dec.str().map_err(bad)?.to_string(),
            shard: dec.u64().map_err(bad)?,
            reason: dec.str().map_err(bad)?.to_string(),
        },
        REQ_RELEASE => Request::Release {
            worker: dec.str().map_err(bad)?.to_string(),
            shard: dec.u64().map_err(bad)?,
            granted_at_ms: dec.u64().map_err(bad)?,
        },
        other => return Err(TransportError::Protocol(format!("unknown request kind {other}"))),
    };
    dec.expect_exhausted().map_err(bad)?;
    Ok(req)
}

/// Encode a reply payload.
#[must_use]
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut enc = Enc::new();
    match reply {
        Reply::HelloAck {
            manifest_text,
            ttl_ms,
            backoff_base_ms,
            backoff_cap_ms,
            max_worker_deaths,
            poll_ms,
            acked_records,
        } => {
            enc.put_u32(REP_HELLO_ACK)
                .put_str(manifest_text)
                .put_u64(*ttl_ms)
                .put_u64(*backoff_base_ms)
                .put_u64(*backoff_cap_ms)
                .put_u32(*max_worker_deaths)
                .put_u64(*poll_ms)
                .put_u64(*acked_records);
        }
        Reply::ClaimAck(outcome) => {
            enc.put_u32(REP_CLAIM_ACK);
            match outcome {
                ClaimOutcome::Granted { shard, granted_at_ms } => {
                    enc.put_u32(CLAIM_GRANTED).put_u64(*shard).put_u64(*granted_at_ms);
                }
                ClaimOutcome::NoneEligible { committed, shards } => {
                    enc.put_u32(CLAIM_NONE_ELIGIBLE).put_u64(*committed).put_u64(*shards);
                }
                ClaimOutcome::Complete => {
                    enc.put_u32(CLAIM_COMPLETE);
                }
            }
        }
        Reply::HeartbeatAck { committed, shards, lease_ok } => {
            enc.put_u32(REP_HEARTBEAT_ACK)
                .put_u64(*committed)
                .put_u64(*shards)
                .put_u32(u32::from(*lease_ok));
        }
        Reply::RecordAck { total } => {
            enc.put_u32(REP_RECORD_ACK).put_u64(*total);
        }
        Reply::CommitAck { ok } => {
            enc.put_u32(REP_COMMIT_ACK).put_u32(u32::from(*ok));
        }
        Reply::QuarantineAck => {
            enc.put_u32(REP_QUARANTINE_ACK);
        }
        Reply::ReleaseAck => {
            enc.put_u32(REP_RELEASE_ACK);
        }
        Reply::Error { message } => {
            enc.put_u32(REP_ERROR).put_str(message);
        }
    }
    enc.finish()
}

/// Decode a reply payload.
pub fn decode_reply(payload: &[u8]) -> Result<Reply, TransportError> {
    let mut dec = Dec::new(payload);
    let kind = dec.u32().map_err(bad)?;
    let reply = match kind {
        REP_HELLO_ACK => Reply::HelloAck {
            manifest_text: dec.str().map_err(bad)?.to_string(),
            ttl_ms: dec.u64().map_err(bad)?,
            backoff_base_ms: dec.u64().map_err(bad)?,
            backoff_cap_ms: dec.u64().map_err(bad)?,
            max_worker_deaths: dec.u32().map_err(bad)?,
            poll_ms: dec.u64().map_err(bad)?,
            acked_records: dec.u64().map_err(bad)?,
        },
        REP_CLAIM_ACK => {
            let sub = dec.u32().map_err(bad)?;
            Reply::ClaimAck(match sub {
                CLAIM_GRANTED => ClaimOutcome::Granted {
                    shard: dec.u64().map_err(bad)?,
                    granted_at_ms: dec.u64().map_err(bad)?,
                },
                CLAIM_NONE_ELIGIBLE => ClaimOutcome::NoneEligible {
                    committed: dec.u64().map_err(bad)?,
                    shards: dec.u64().map_err(bad)?,
                },
                CLAIM_COMPLETE => ClaimOutcome::Complete,
                other => {
                    return Err(TransportError::Protocol(format!("unknown claim outcome {other}")))
                }
            })
        }
        REP_HEARTBEAT_ACK => Reply::HeartbeatAck {
            committed: dec.u64().map_err(bad)?,
            shards: dec.u64().map_err(bad)?,
            lease_ok: dec.u32().map_err(bad)? != 0,
        },
        REP_RECORD_ACK => Reply::RecordAck { total: dec.u64().map_err(bad)? },
        REP_COMMIT_ACK => Reply::CommitAck { ok: dec.u32().map_err(bad)? != 0 },
        REP_QUARANTINE_ACK => Reply::QuarantineAck,
        REP_RELEASE_ACK => Reply::ReleaseAck,
        REP_ERROR => Reply::Error { message: dec.str().map_err(bad)?.to_string() },
        other => return Err(TransportError::Protocol(format!("unknown reply kind {other}"))),
    };
    dec.expect_exhausted().map_err(bad)?;
    Ok(reply)
}

fn bad(e: paraspace_journal::JournalError) -> TransportError {
    TransportError::Protocol(format!("malformed message payload: {e}"))
}

/// Write one frame: `seq` in the record id slot, `payload` checksummed.
pub fn write_frame(w: &mut impl Write, seq: u64, payload: &[u8]) -> Result<(), TransportError> {
    let frame = record::frame(seq, payload)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame, verifying its checksum. Returns `(seq, payload)`.
///
/// * clean EOF at a frame boundary → [`TransportError::Closed`];
/// * a timeout with **zero** bytes consumed surfaces as a plain
///   [`TransportError::Io`] for which [`TransportError::is_timeout`] is
///   true — the server handler's idle/stop polling tick;
/// * EOF or timeout *mid-frame*, an oversized length field, or a checksum
///   mismatch → [`TransportError::Corrupt`] — the stream has lost frame
///   sync and the connection must be dropped.
pub fn read_frame(r: &mut impl Read) -> Result<(u64, Vec<u8>), TransportError> {
    let mut header = [0u8; 12];
    fill(r, &mut header, true)?;
    let len = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if len > record::MAX_PAYLOAD {
        return Err(TransportError::Corrupt(format!(
            "frame length {len} exceeds the {}-byte record limit",
            record::MAX_PAYLOAD
        )));
    }
    let mut rest = vec![0u8; len as usize + 8];
    fill(r, &mut rest, false)?;
    let mut full = Vec::with_capacity(12 + rest.len());
    full.extend_from_slice(&header);
    full.extend_from_slice(&rest);
    let (mut records, good) = record::scan_bytes(&full);
    if records.len() != 1 || good as usize != full.len() {
        return Err(TransportError::Corrupt("frame checksum mismatch".into()));
    }
    Ok(records.pop().unwrap())
}

/// Read exactly `buf.len()` bytes. `at_boundary` is true for the first
/// read of a frame, where a clean close or a zero-byte timeout is normal;
/// once any byte of a frame has been consumed, every early exit is
/// connection-fatal (frame sync is lost).
fn fill(r: &mut impl Read, buf: &mut [u8], at_boundary: bool) -> Result<(), TransportError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_boundary && filled == 0 {
                    TransportError::Closed
                } else {
                    TransportError::Corrupt("peer closed mid-frame".into())
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if at_boundary && filled == 0 {
                    return Err(TransportError::Io(e));
                }
                return Err(TransportError::Corrupt(format!("timed out mid-frame: {e}")));
            }
            Err(e) => return Err(TransportError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn round_trip_request(req: Request) {
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
    }

    fn round_trip_reply(reply: Reply) {
        assert_eq!(decode_reply(&encode_reply(&reply)).unwrap(), reply);
    }

    #[test]
    fn every_message_round_trips() {
        round_trip_request(Request::Hello { worker: "w0-1-2".into(), version: PROTOCOL_VERSION });
        round_trip_request(Request::Claim { worker: "w0".into() });
        round_trip_request(Request::Heartbeat {
            worker: "w0".into(),
            counter: 7,
            shard: NO_SHARD,
            granted_at_ms: 0,
        });
        round_trip_request(Request::SegmentRecord {
            worker: "w0".into(),
            index: 3,
            framed: record::frame(5, b"payload").unwrap(),
        });
        round_trip_request(Request::Commit { worker: "w0".into(), shard: 5, granted_at_ms: 99 });
        round_trip_request(Request::Quarantine {
            worker: "w0".into(),
            shard: 5,
            reason: "solver diverged".into(),
        });
        round_trip_request(Request::Release { worker: "w0".into(), shard: 5, granted_at_ms: 99 });

        round_trip_reply(Reply::HelloAck {
            manifest_text: "paraspace-campaign-manifest v1\nkind=x\n".into(),
            ttl_ms: 2_000,
            backoff_base_ms: 100,
            backoff_cap_ms: 5_000,
            max_worker_deaths: 3,
            poll_ms: 50,
            acked_records: 2,
        });
        round_trip_reply(Reply::ClaimAck(ClaimOutcome::Granted { shard: 4, granted_at_ms: 10 }));
        round_trip_reply(Reply::ClaimAck(ClaimOutcome::NoneEligible { committed: 3, shards: 9 }));
        round_trip_reply(Reply::ClaimAck(ClaimOutcome::Complete));
        round_trip_reply(Reply::HeartbeatAck { committed: 1, shards: 2, lease_ok: false });
        round_trip_reply(Reply::RecordAck { total: 8 });
        round_trip_reply(Reply::CommitAck { ok: true });
        round_trip_reply(Reply::QuarantineAck);
        round_trip_reply(Reply::ReleaseAck);
        round_trip_reply(Reply::Error { message: "hello first".into() });
    }

    #[test]
    fn frames_round_trip_and_stream_in_order() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"alpha").unwrap();
        write_frame(&mut buf, 2, b"").unwrap();
        write_frame(&mut buf, 3, b"gamma").unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), (1, b"alpha".to_vec()));
        assert_eq!(read_frame(&mut cursor).unwrap(), (2, Vec::new()));
        assert_eq!(read_frame(&mut cursor).unwrap(), (3, b"gamma".to_vec()));
        assert!(matches!(read_frame(&mut cursor), Err(TransportError::Closed)));
    }

    #[test]
    fn mid_frame_close_is_corrupt_not_clean() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 9, b"torn").unwrap();
        let cut = buf.len() - 3;
        let mut cursor = Cursor::new(&buf[..cut]);
        assert!(matches!(read_frame(&mut cursor), Err(TransportError::Corrupt(_))));
    }

    #[test]
    fn oversized_length_field_is_refused_before_allocation() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&7u64.to_le_bytes());
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame.extend_from_slice(&[0u8; 32]);
        let mut cursor = Cursor::new(frame);
        assert!(matches!(read_frame(&mut cursor), Err(TransportError::Corrupt(_))));
    }

    #[test]
    fn unknown_kinds_are_protocol_errors() {
        let mut enc = Enc::new();
        enc.put_u32(77);
        assert!(matches!(decode_request(&enc.finish()), Err(TransportError::Protocol(_))));
        let mut enc = Enc::new();
        enc.put_u32(77);
        assert!(matches!(decode_reply(&enc.finish()), Err(TransportError::Protocol(_))));
    }

    #[test]
    fn trailing_bytes_after_a_message_are_refused() {
        let mut payload = encode_request(&Request::Claim { worker: "w0".into() });
        payload.push(0);
        assert!(matches!(decode_request(&payload), Err(TransportError::Protocol(_))));
    }
}
