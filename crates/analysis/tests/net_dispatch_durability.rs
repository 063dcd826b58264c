//! Networked rows of the dispatch acceptance suite: the same
//! byte-identity contract as `dispatch_durability.rs`, but with workers
//! attached over real localhost TCP through the transport crate instead
//! of threads sharing the checkpoint directory. The coordinator loop
//! ([`coordinate`]) is the production one — the `CoordinatorServer`
//! translates worker RPCs into the same lease/segment file operations a
//! local worker performs, so the merge cannot tell the difference.
//!
//! Rows: (1) deterministic network chaos (drop/delay/duplicate/sever/
//! half-open) across worker counts {1, 2, 4} converges to payloads
//! byte-identical to the single-process reference; (2) a fully
//! partitioned worker's shard is reassigned, merged first-wins, and its
//! death is ledgered under the transport taxonomy; (3) a campaign whose
//! only worker becomes unreachable completes *degraded* — the abandoned
//! shard quarantined with transport blame — within the 2× TTL contract
//! instead of hanging.
//!
//! The model/payload/poison helpers mirror `dispatch_durability.rs`
//! verbatim so both suites assert against the same reference bytes.

mod watchdog;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use paraspace_analysis::campaign::CampaignError;
use paraspace_analysis::dispatch::{
    coordinate, worker_loop, DispatchConfig, DispatchReport, TickDirective, WorkerChaos,
    WorkerReport,
};
use paraspace_core::{CancelToken, FineCoarseEngine, SimulationJob, Simulator};
use paraspace_journal::codec::Enc;
use paraspace_journal::lease::{LeaseConfig, LeaseDir, RetryLedger, RetryState};
use paraspace_journal::CampaignManifest;
use paraspace_rbm::{Parameterization, Reaction, ReactionBasedModel};
use paraspace_transport::chaos::NetChaos;
use paraspace_transport::client::{ClientOptions, WorkerClient};
use paraspace_transport::server::{CoordinatorServer, ServerConfig};
use watchdog::watched;

const SHARDS: u64 = 12;
const MEMBERS_PER_SHARD: usize = 3;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paraspace_netdd_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn model() -> ReactionBasedModel {
    let mut m = ReactionBasedModel::new();
    let a = m.add_species("A", 1.0);
    let b = m.add_species("B", 0.2);
    m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 0.8)).unwrap();
    m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 0.3)).unwrap();
    m
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

fn manifest() -> CampaignManifest {
    CampaignManifest::new("net-dispatch-acceptance", SHARDS)
}

/// Identical to `dispatch_durability::shard_payload`: the byte-identity
/// acceptance check is equality of the merged payload vectors.
fn shard_payload(engine: &dyn Simulator, shard: u64) -> Result<Vec<u8>, CampaignError> {
    let m = model();
    let params: Vec<Parameterization> = (0..MEMBERS_PER_SHARD)
        .map(|j| {
            let k = 0.4 + 0.07 * (shard as f64) + 0.11 * (j as f64);
            Parameterization::new().with_rate_constants(vec![k, 0.3])
        })
        .collect();
    let job = SimulationJob::builder(&m)
        .time_points(vec![0.25, 0.5, 1.0])
        .parameterizations(params)
        .build()
        .map_err(CampaignError::Sim)?;
    let result = engine.run(&job).map_err(CampaignError::Sim)?;
    let mut enc = Enc::new();
    enc.put_u64(shard).put_f64(result.timing.simulated_total_ns);
    enc.put_u64(result.outcomes.len() as u64);
    for outcome in &result.outcomes {
        match &outcome.solution {
            Ok(sol) => {
                enc.put_u32(1);
                for t in 0..3 {
                    enc.put_f64_slice(sol.state_at(t));
                }
            }
            Err(e) => {
                enc.put_u32(0);
                enc.put_str(&e.to_string());
            }
        }
    }
    Ok(enc.finish())
}

fn engine() -> FineCoarseEngine {
    FineCoarseEngine::new().with_threads(1).with_lane_width(4)
}

fn poison(shard: u64, st: &RetryState) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.put_u64(shard).put_u64(u64::MAX);
    enc.put_str(&format!(
        "quarantined after {} deaths by {} distinct workers: {}",
        st.deaths,
        st.workers.len(),
        st.reasons.join("; ")
    ));
    enc.finish()
}

/// Single-process reference payloads.
fn reference(tag: &str) -> Vec<Vec<u8>> {
    let dir = temp_dir(tag);
    let eng = engine();
    let (checkpoint, _watchdog) = watched(&dir);
    let (payloads, _) =
        paraspace_analysis::campaign::run_journaled(&checkpoint, manifest(), |shard| {
            shard_payload(&eng, shard)
        })
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    payloads
}

type WorkerOutcome = Result<WorkerReport, CampaignError>;

/// Connect as `worker` and run the dispatch worker loop over the
/// connection, with the timing the handshake taught, until the campaign
/// completes or `external` trips.
fn net_worker(
    addr: &str,
    worker: &str,
    opts: ClientOptions,
    external: &CancelToken,
) -> WorkerOutcome {
    let (client, info) =
        WorkerClient::connect(addr, worker, opts).map_err(|e| CampaignError::Store(Box::new(e)))?;
    let config = DispatchConfig { lease: info.lease, poll_ms: info.poll_ms };
    let eng = engine();
    worker_loop(&client, &config, external, &WorkerChaos::default(), |shard, _token| {
        shard_payload(&eng, shard)
    })
}

struct NetOutcome {
    payloads: Vec<Vec<u8>>,
    report: DispatchReport,
    workers: Vec<WorkerOutcome>,
    dir: PathBuf,
}

/// One networked campaign: the production `coordinate` loop in this
/// thread, a `CoordinatorServer` on an ephemeral localhost port, and one
/// `WorkerClient` thread per chaos plan. With `stagger`, workers after
/// the first wait until shard 0 is claimed before connecting — making
/// tests deterministic about *which* worker holds shard 0 when its fault
/// plan fires.
fn net_campaign(
    tag: &str,
    config: &DispatchConfig,
    chaos_plans: Vec<NetChaos>,
    max_attempts: u32,
    stagger: bool,
) -> NetOutcome {
    let dir = temp_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    let mut server = CoordinatorServer::start(
        "127.0.0.1:0",
        &dir,
        &manifest(),
        ServerConfig {
            lease: config.lease.clone(),
            poll_ms: config.poll_ms,
            idle_disconnect_ms: None,
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let (checkpoint, _watchdog) = watched(&dir);

    let handles: Vec<_> = chaos_plans
        .into_iter()
        .enumerate()
        .map(|(i, chaos)| {
            let addr = addr.clone();
            let gate_dir = dir.clone();
            let gated = stagger && i > 0;
            let external = checkpoint.cancel_token().clone();
            std::thread::spawn(move || -> WorkerOutcome {
                if gated {
                    let leases = LeaseDir::new(&gate_dir);
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while !leases.is_claimed(0) && !leases.is_done(0) {
                        assert!(Instant::now() < deadline, "shard 0 was never claimed");
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
                let opts = ClientOptions {
                    connect_timeout_ms: 1_000,
                    rpc_timeout_ms: 300,
                    max_attempts,
                    chaos,
                };
                net_worker(&addr, &format!("nw{i}"), opts, &external)
            })
        })
        .collect();

    let (payloads, report) =
        coordinate(&checkpoint, manifest(), config, poison, |_| TickDirective::Continue).unwrap();
    let workers: Vec<WorkerOutcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    server.shutdown();
    NetOutcome { payloads, report, workers, dir }
}

/// The networked acceptance matrix: worker counts {1, 2, 4}, every
/// worker with one fault of each flavor (drop, delay, duplicate, sever,
/// half-open reply loss) staggered across its RPC ordinals, merged
/// payloads byte-identical to the single-process reference.
#[test]
fn net_dispatch_under_chaos_is_byte_identical_across_worker_counts() {
    let expected = reference("chaos_ref");
    for &workers in &[1usize, 2, 4] {
        let tag = format!("chaos_w{workers}");
        let plans = (0..workers as u64)
            .map(|i| NetChaos {
                drop_at: vec![1 + i],
                delay_at: vec![(4 + i, 80)],
                duplicate_at: vec![7 + i],
                sever_at: vec![10 + i],
                drop_replies_at: vec![13 + i],
                partition_at: None,
            })
            .collect();
        let out = net_campaign(&tag, &fast_config(), plans, 6, false);
        assert_eq!(out.report.shards, SHARDS, "{tag}");
        assert!(out.report.quarantined.is_empty(), "{tag}: nothing is poisoned here");
        let mut executed = 0;
        for (i, res) in out.workers.iter().enumerate() {
            let report = res.as_ref().unwrap_or_else(|e| {
                panic!("{tag}: worker {i} must survive its fault plan, got {e}")
            });
            executed += report.executed;
        }
        assert!(executed >= SHARDS, "{tag}: every shard was executed by someone");
        assert_eq!(
            out.payloads, expected,
            "{tag}: networked payloads must be byte-identical to single-process"
        );
        std::fs::remove_dir_all(&out.dir).ok();
    }
}

/// A worker that claims shard 0 and then falls off the network forever:
/// its lease expires, the death is ledgered under the *transport*
/// taxonomy (the server blamed the dropped connection), the shard is
/// reassigned to the healthy worker, and the merged campaign is
/// byte-identical — the first-wins merge absorbs whatever the partitioned
/// worker never managed to stream.
#[test]
fn partitioned_workers_shard_is_reassigned_and_merged_first_wins() {
    let expected = reference("part_ref");
    // Ordinal 0 is nw0's first Claim (shard 0), ordinal 1 the record
    // send: nw0 computes shard 0, then the route vanishes.
    let plans =
        vec![NetChaos { partition_at: Some(1), ..NetChaos::default() }, NetChaos::default()];
    let out = net_campaign("part", &fast_config(), plans, 6, true);
    assert_eq!(out.payloads, expected, "reassigned shard must merge byte-identically");
    assert!(out.report.quarantined.is_empty(), "one death of three allowed: no quarantine");
    assert!(out.report.reassignments >= 1, "shard 0's death must schedule a reassignment");
    assert!(
        matches!(out.workers[0], Err(CampaignError::Store(_))),
        "the partitioned worker exits through the transport ladder, got {:?}",
        out.workers[0].as_ref().map(|r| r.executed)
    );
    out.workers[1].as_ref().expect("the healthy worker completes the campaign");

    // The ledgered death carries the transport taxonomy, not the generic
    // heartbeat fallback: the server blamed the connection loss and the
    // coordinator's expiry scan picked the note up.
    let ledger = RetryLedger::open(&out.dir).unwrap();
    let st = ledger.state(0).expect("shard 0 must have a ledgered death");
    assert!(st.deaths >= 1);
    assert!(st.workers.iter().any(|w| w == "nw0"), "nw0 is the blamed worker: {:?}", st.workers);
    assert!(
        st.reasons.iter().any(|r| r.contains("transport: connection lost")),
        "death reason must carry the transport taxonomy, got {:?}",
        st.reasons
    );
    std::fs::remove_dir_all(&out.dir).ok();
}

/// Degraded completion: the campaign's only worker executes every shard
/// but the last, then becomes unreachable while holding it. With
/// `max_worker_deaths: 1` the coordinator quarantines the abandoned shard
/// on its first transport death — the campaign completes (poisoned
/// outcome journaled, every other shard exact) within the 2× TTL
/// contract instead of hanging.
#[test]
fn unreachable_worker_completes_degraded_with_transport_quarantine() {
    let expected = reference("quar_ref");
    let mut config = fast_config();
    config.lease.max_worker_deaths = 1;
    let last = SHARDS - 1;
    // Quiet network up to the fault: 3 RPCs per shard (claim, record,
    // commit), so ordinal 3*last is the last shard's Claim and 3*last+1
    // its record send — the worker claims it, computes, then partitions.
    let plans = vec![NetChaos { partition_at: Some(3 * last + 1), ..NetChaos::default() }];

    let dir = temp_dir("quar");
    std::fs::create_dir_all(&dir).unwrap();
    let mut server = CoordinatorServer::start(
        "127.0.0.1:0",
        &dir,
        &manifest(),
        ServerConfig {
            lease: config.lease.clone(),
            poll_ms: config.poll_ms,
            idle_disconnect_ms: None,
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let (checkpoint, _watchdog) = watched(&dir);
    let external = checkpoint.cancel_token().clone();
    let worker = std::thread::spawn(move || -> WorkerOutcome {
        // A deep retry ladder: the worker keeps trying well past the
        // point the coordinator has already moved on, proving degraded
        // completion never waits on the unreachable side.
        let opts = ClientOptions {
            connect_timeout_ms: 1_000,
            rpc_timeout_ms: 300,
            max_attempts: 8,
            chaos: plans.into_iter().next().unwrap(),
        };
        net_worker(&addr, "nw0", opts, &external)
    });

    let coord = {
        let checkpoint = checkpoint.clone();
        let config = config.clone();
        std::thread::spawn(move || {
            coordinate(&checkpoint, manifest(), &config, poison, |_| TickDirective::Continue)
        })
    };
    // The partitioned worker exhausts its ladder strictly after the
    // partition; from that moment the coordinator owes a degraded
    // completion within 2x TTL (expiry scan + quarantine + poison
    // commit — in practice one TTL plus a poll round).
    let worker_outcome = worker.join().unwrap();
    let abandoned_at = Instant::now();
    let (payloads, report) = coord.join().unwrap().unwrap();
    let degrade_window = abandoned_at.elapsed();
    server.shutdown();

    assert!(
        matches!(worker_outcome, Err(CampaignError::Store(_))),
        "the unreachable worker exits through the transport ladder"
    );
    assert!(
        degrade_window < Duration::from_millis(2 * config.lease.ttl_ms),
        "degraded completion took {degrade_window:?}, contract is 2x TTL \
         ({}ms) past the worker's abandonment",
        2 * config.lease.ttl_ms
    );
    assert_eq!(report.quarantined, vec![last], "the abandoned shard is quarantined");
    let text = String::from_utf8_lossy(&payloads[last as usize]);
    assert!(
        text.contains("transport: connection lost"),
        "poisoned payload must carry the transport taxonomy, got {text:?}"
    );
    for (shard, payload) in payloads.iter().enumerate() {
        if shard as u64 != last {
            assert_eq!(payload, &expected[shard], "healthy shard {shard} must stay exact");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
