//! Networked shard transport: the lease lifecycle over TCP.
//!
//! Workers sharing a checkpoint directory coordinate through the lease
//! files of [`paraspace_journal::lease`]; this crate carries the same
//! lease lifecycle off the shared filesystem onto a length-prefixed,
//! checksummed wire protocol over `std::net` TCP — no new dependencies.
//! A [`server::CoordinatorServer`] runs inside the coordinator process and
//! holds, for each worker that says `Hello`, the
//! [`FileStore`](paraspace_journal::lease::FileStore) a local worker of
//! that id would use; it answers the worker's RPCs through that store. So
//! the coordinator's merge/expiry/quarantine loop is unchanged, the lease
//! events map to files in one place, and a streamed segment record is
//! **byte-identical** to a file-journaled one: both are
//! [`paraspace_journal::record`] frames, appended verbatim. On the worker
//! side, [`client::WorkerClient`] is a
//! [`LeaseStore`](paraspace_journal::lease::LeaseStore) sending those
//! calls as RPCs; the loop that drives it is the one file workers run.
//!
//! # Delivery semantics
//!
//! The transport is *at-least-once*; the merge is *exactly-once by
//! determinism*:
//!
//! * every RPC carries a per-client monotonic sequence number as its
//!   idempotency key, a deadline (socket read/write timeouts), and a
//!   capped-exponential-backoff retry ladder;
//! * every retryable RPC is idempotent server-side — a re-claimed lease is
//!   re-granted, an already-appended segment record is acknowledged
//!   without a second append (records carry explicit per-worker indices),
//!   a commit of the grant the server already completed for this worker
//!   acks `ok` again;
//! * a connection speaks only for the worker it said `Hello` as: any other
//!   request before `Hello`, or naming another worker, is refused;
//! * duplicate, stale, and reordered deliveries are survived by
//!   construction: duplicated requests hit the idempotent handlers, stale
//!   replies (sequence number below the one awaited) are discarded, and a
//!   record that executes twice is byte-identical anyway, so the
//!   first-wins merge commits exactly one copy.
//!
//! # Failure semantics
//!
//! The coordinator's clock is the only clock: heartbeats and lease grants
//! are stamped server-side on RPC receipt, so worker clocks never enter
//! the expiry arithmetic. Silence past the TTL is death — the lease is
//! reassigned and the first-wins merge is unchanged. A worker that loses
//! the coordinator *keeps computing its claimed shard* and replays its
//! unacknowledged segment records on reconnect, resuming at the offset the
//! server acknowledged in the handshake. Failures the transport can name —
//! connection loss, worker-reported execution errors — are recorded as
//! *blame notes* ([`paraspace_journal::lease::LeaseDir::blame`]) so the
//! death ledgered at expiry carries a transport-failure taxonomy instead
//! of the generic `heartbeat-expired`, and a campaign facing an
//! unreachable worker completes **degraded** (shard quarantined, poison
//! payload committed) instead of wedging.
//!
//! The [`chaos::NetChaos`] layer mirrors `WorkerChaos`: deterministic
//! drop/delay/duplicate/sever/half-open/partition injection at message
//! ordinals, so every failure mode above is a replayable test.

pub mod chaos;
pub mod client;
pub mod server;
pub mod wire;

use std::fmt;

use paraspace_journal::JournalError;

/// Transport-layer failures.
#[derive(Debug)]
#[non_exhaustive]
pub enum TransportError {
    /// Socket-level failure (includes timeouts: `WouldBlock`/`TimedOut`).
    Io(std::io::Error),
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// A frame failed its checksum or framing invariants — the connection
    /// can no longer be trusted and must be dropped.
    Corrupt(String),
    /// A checksum-intact message violated the protocol (unknown kind,
    /// version mismatch, server-reported error). Not retryable.
    Protocol(String),
    /// Durability-layer failure underneath a server-side file operation.
    Journal(JournalError),
}

impl TransportError {
    /// True for a socket timeout at a frame boundary (no bytes consumed) —
    /// the one I/O error that is *not* connection-fatal for a server
    /// handler, which uses it as its idle/stop polling tick.
    #[must_use]
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            TransportError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
            TransportError::Closed => write!(f, "connection closed by peer"),
            TransportError::Corrupt(m) => write!(f, "corrupt frame: {m}"),
            TransportError::Protocol(m) => write!(f, "protocol violation: {m}"),
            TransportError::Journal(e) => write!(f, "journal error under transport: {e}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            TransportError::Journal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

impl From<JournalError> for TransportError {
    fn from(e: JournalError) -> Self {
        TransportError::Journal(e)
    }
}
