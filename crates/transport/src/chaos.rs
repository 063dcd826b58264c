//! Deterministic network fault injection, mirroring `WorkerChaos`.
//!
//! Faults are keyed to **message ordinals**: the client numbers its
//! chaos-eligible sends (every main-loop RPC attempt — claims, segment
//! records, commits, quarantines, including retries; heartbeats are
//! exempt so liveness stays an independent variable) and consults the
//! chaos plan before each one. Because the worker main loop is a single
//! thread issuing RPCs in a deterministic order, a chaos plan replays the
//! same fault at the same protocol step every run — every failure mode in
//! the durability suite is a replayable test, not a flake.

/// A deterministic network fault plan for one client.
///
/// The default plan is quiet (no faults). Ordinals count chaos-eligible
/// send attempts from 0.
#[derive(Debug, Clone, Default)]
pub struct NetChaos {
    /// Swallow the send at these ordinals: the request never leaves the
    /// client, the reply read times out, and the retry ladder engages.
    pub drop_at: Vec<u64>,
    /// Sleep `(ordinal, millis)` before sending — reordering/latency
    /// pressure against the TTL without killing the connection.
    pub delay_at: Vec<(u64, u64)>,
    /// Send the frame twice at these ordinals: the server answers both
    /// (idempotently), and the client must discard the stale extra reply.
    pub duplicate_at: Vec<u64>,
    /// Sever the connection *before* sending at these ordinals: the server
    /// never sees the request; the client reconnects, replays
    /// unacknowledged records, and retries.
    pub sever_at: Vec<u64>,
    /// Half-open partition: send the request, then sever *before reading
    /// the reply*. The server processed the RPC but the client never saw
    /// the ack — the retry after reconnect must be absorbed idempotently.
    pub drop_replies_at: Vec<u64>,
    /// Full partition from this ordinal on: sever and refuse every
    /// reconnect, as if the route to the coordinator vanished. The worker
    /// keeps computing its claimed shard, exhausts its reconnect ladder,
    /// and exits; the coordinator expires the lease, records a
    /// `transport:` blame, and reassigns the shard.
    pub partition_at: Option<u64>,
}

impl NetChaos {
    /// The delay in ms scheduled at `ordinal`, if any.
    #[must_use]
    pub fn delay_ms_at(&self, ordinal: u64) -> Option<u64> {
        self.delay_at.iter().find(|(o, _)| *o == ordinal).map(|(_, ms)| *ms)
    }
}
