//! The one host pipeline under every engine.
//!
//! An engine is a [`Host`] — the worker pool the numerics run on, the
//! failed-member recovery policy, the cancellation token — plus a cost
//! model that says how the measured work is scheduled on its modeled
//! hardware. Everything that is not cost model lives here once — the
//! builders, the folding of settled members into outcomes and health, the
//! input-staging size, and the P5 tail that turns a finished batch into a
//! [`BatchResult`] — or beside it: the lockstep phase
//! (`lanes::first_attempts`, the ODE instance of
//! [`Executor::lockstep_phase`]) and the recovery ladder
//! (`recovery::solve_members_recovered`), both run on the host's executor
//! under its token.

use crate::engines::{
    BatchHealth, BatchResult, BatchTiming, MemberSink, SimOutcome, IO_BYTES_PER_NS,
};
use crate::job::write_dynamics;
use crate::recovery::{RecoveryLog, RecoveryPolicy};
use crate::SimulationJob;
use paraspace_exec::{CancelToken, Executor};
use paraspace_solvers::{Solution, SolverError};
use paraspace_vgpu::{Device, LaneAccounting};
use std::time::Instant;

/// Host↔device transfer throughput in bytes/ns (PCIe 3.0-class ≈ 8 GB/s).
pub(crate) const PCIE_BYTES_PER_NS: f64 = 8.0;

/// The host side of an engine: what runs the numerics, whichever hardware
/// the engine then prices them on.
///
/// # Example
///
/// ```
/// use paraspace_core::{Executor, FineCoarseEngine, Host};
///
/// // Two workers, the default recovery policy, a fresh token.
/// let host = Host { executor: Executor::new(2), ..Host::default() };
/// let engine = FineCoarseEngine::new().with_host(host);
/// # let _ = engine;
/// ```
#[derive(Debug, Clone)]
pub struct Host {
    /// The worker pool the batch numerics run on. Results are bitwise
    /// identical at any worker count.
    pub executor: Executor,
    /// How failed members are retried.
    pub recovery: RecoveryPolicy,
    /// Cooperative cancellation: once tripped, in-flight members (or
    /// lane-groups) drain, the run returns [`crate::SimError::Cancelled`]
    /// and partial results are discarded.
    pub cancel: CancelToken,
}

impl Default for Host {
    /// One sequential worker, the default recovery policy, a fresh token.
    fn default() -> Self {
        Host {
            executor: Executor::sequential(),
            recovery: RecoveryPolicy::default(),
            cancel: CancelToken::new(),
        }
    }
}

/// A batch engine: one [`Host`] under the cost model `M` of its modeled
/// hardware. The five engines of the comparison are aliases of this type
/// ([`crate::FineCoarseEngine`], [`crate::FineEngine`],
/// [`crate::CoarseEngine`], [`crate::CpuEngine`], [`crate::AutoEngine`]).
#[derive(Debug, Clone, Default)]
pub struct Engine<M> {
    pub(crate) host: Host,
    pub(crate) model: M,
}

impl<M: Default> Engine<M> {
    /// The engine with its published defaults (GPU engines: the simulated
    /// Titan X) on a sequential host.
    pub fn new() -> Self {
        Engine::default()
    }
}

impl<M> Engine<M> {
    /// Sets the host worker-thread count used to run the batch numerics
    /// (builder style): `1` is the sequential path, `0` means one worker
    /// per available core. The result is bitwise identical at any setting
    /// (the *modeled* hardware does not change — this only accelerates the
    /// host-side reproduction of its numerics).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.host.executor = Executor::new(threads);
        self
    }

    /// Overrides the failed-member recovery policy (builder style).
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.host.recovery = recovery;
        self
    }

    /// Installs a cooperative cancellation token (builder style). When the
    /// token trips mid-batch, in-flight members (or lane-groups) drain,
    /// [`crate::Simulator::run`] returns [`crate::SimError::Cancelled`],
    /// and partial results are discarded — re-running the batch later
    /// reproduces it bitwise.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.host.cancel = cancel;
        self
    }

    /// Replaces the whole host — workers, recovery policy and token — in
    /// one call (builder style).
    pub fn with_host(mut self, host: Host) -> Self {
        self.host = host;
        self
    }
}

/// The members settled so far, in member order, and their tally.
#[derive(Debug, Default)]
pub(crate) struct Settled {
    pub(crate) outcomes: Vec<SimOutcome>,
    pub(crate) health: BatchHealth,
}

impl Settled {
    /// Appends one member's final result: the outcome record plus its
    /// contribution to the batch health.
    pub(crate) fn settle(
        &mut self,
        solution: Result<Solution, SolverError>,
        stiff: bool,
        solver: &'static str,
        log: RecoveryLog,
    ) {
        self.health.observe(&solution, &log);
        self.outcomes.push(SimOutcome { solution, stiff, rerouted: log.rerouted, solver, log });
    }
}

impl Host {
    /// The shared tail: hands every member to `sink`, prices P5 on the
    /// size of the texts the sink was given, and assembles the result.
    /// `clocks` gets the output bytes and answers the modeled `[total,
    /// integration, io]` times in ns.
    pub(crate) fn finish(
        &self,
        engine: &'static str,
        start: Instant,
        settled: Settled,
        lanes: Option<LaneAccounting>,
        sink: &dyn MemberSink,
        clocks: impl FnOnce(u64) -> [f64; 3],
    ) -> BatchResult {
        let [total, integration, io] = clocks(deliver(&self.executor, &settled.outcomes, sink));
        BatchResult {
            engine,
            outcomes: settled.outcomes,
            timing: BatchTiming {
                host_wall: start.elapsed(),
                simulated_total_ns: total,
                simulated_integration_ns: integration,
                simulated_io_ns: io,
            },
            lanes,
            health: settled.health,
        }
    }
}

/// Phase P5 on the host: each successful member's dynamics text is
/// formatted once, on `executor`'s workers, into a buffer its worker
/// reuses, and every member goes to `sink`. Returns the total bytes of
/// those texts (the P5 cost driver; a `u64` sum does not depend on the
/// order it is taken in).
pub(crate) fn deliver(executor: &Executor, outcomes: &[SimOutcome], sink: &dyn MemberSink) -> u64 {
    let member_bytes = |text: &mut String, i: usize| {
        let outcome = &outcomes[i];
        match &outcome.solution {
            Ok(solution) => {
                text.clear();
                write_dynamics(solution, text);
                sink.member(i, outcome, Some(text));
                text.len() as u64
            }
            Err(_) => {
                sink.member(i, outcome, None);
                0
            }
        }
    };
    executor.map_with(outcomes.len(), String::new, member_bytes).into_iter().sum()
}

/// The clocks of an engine that bills on a modeled device: records the
/// device→host transfer and the output write as the host phases named
/// `d2h` and `write`, then reads the timeline.
pub(crate) fn device_clocks<'d>(
    device: &'d Device,
    d2h: &'d str,
    write: &'d str,
) -> impl FnOnce(u64) -> [f64; 3] + 'd {
    move |out_bytes| {
        device.record_host_phase(d2h, out_bytes as f64 / PCIE_BYTES_PER_NS);
        device.record_host_phase(write, out_bytes as f64 / IO_BYTES_PER_NS);
        let timeline = device.timeline();
        [timeline.total_ns(), timeline.time_tagged_ns("integrate"), timeline.time_tagged_ns("io")]
    }
}

/// Bytes of the flat ODE encoding (the structure every member shares).
pub(crate) fn encoding_bytes(job: &SimulationJob) -> u64 {
    job.odes().n_terms() as u64 * 12 + job.odes().n_reactions() as u64 * 8
}

/// Input-staging bytes of one upload: the encoding plus the state and
/// constants of `members` members.
pub(crate) fn h2d_bytes(job: &SimulationJob, members: usize) -> u64 {
    let per_member = (job.odes().n_species() + job.odes().n_reactions()) as u64 * 8;
    encoding_bytes(job) + members as u64 * per_member
}
