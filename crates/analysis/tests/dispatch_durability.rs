//! Acceptance suite for fault-tolerant dispatch: shard payloads computed
//! by real engines through [`run_dispatched`] must be byte-identical to
//! the single-process [`run_journaled`] reference across worker counts
//! {1, 2, 4} × engine thread counts {1, 8}, with workers SIGKILL-style
//! dying (lease left behind, torn segment tails) and shards reassigned
//! along the way; a poisoned shard must be quarantined with its failure
//! taxonomy while the rest of the campaign stays exact; and a campaign
//! whose workers all die must interrupt, then resume to the exact result.

mod watchdog;

use paraspace_analysis::campaign::CampaignError;
use paraspace_analysis::dispatch::{run_dispatched, DispatchConfig, WorkerChaos};
use paraspace_core::{FineCoarseEngine, SimulationJob, Simulator};
use paraspace_journal::codec::Enc;
use paraspace_journal::lease::{LeaseConfig, RetryState};
use paraspace_journal::CampaignManifest;
use paraspace_rbm::{Parameterization, Reaction, ReactionBasedModel};
use std::path::PathBuf;
use watchdog::watched;

const SHARDS: u64 = 12;
const MEMBERS_PER_SHARD: usize = 3;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paraspace_dispd_{tag}_{}", std::process::id()));
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

/// The real work: run one shard's parameter batch through an engine and
/// encode every member's trajectory bit-exactly. This single function is
/// shared by the reference and every dispatched variant, so equality of
/// the merged payload vectors is the byte-identity acceptance check.
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

fn engine(threads: usize) -> FineCoarseEngine {
    FineCoarseEngine::new().with_threads(threads).with_lane_width(4)
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

/// Single-process reference payloads for a given engine thread count.
fn reference(threads: usize, tag: &str) -> Vec<Vec<u8>> {
    let dir = temp_dir(tag);
    let eng = engine(threads);
    let (checkpoint, _watchdog) = watched(&dir);
    let (payloads, _) = paraspace_analysis::campaign::run_journaled(
        &checkpoint,
        CampaignManifest::new("dispatch-acceptance", SHARDS),
        |shard| shard_payload(&eng, shard),
    )
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    payloads
}

/// The acceptance matrix: workers {1, 2, 4} × threads {1, 8}, every cell
/// with SIGKILL-style chaos (worker 0 dies holding its second shard and
/// leaves a torn segment tail behind), compared byte-for-byte against the
/// single-process reference for the same thread count.
#[test]
fn dispatch_with_kills_is_byte_identical_across_workers_and_threads() {
    for &threads in &[1usize, 8] {
        let expected = reference(threads, &format!("ref_t{threads}"));
        for &workers in &[1usize, 2, 4] {
            let tag = format!("mx_w{workers}_t{threads}");
            let dir = temp_dir(&tag);
            let eng = engine(threads);
            let chaos = vec![
                WorkerChaos {
                    kill_at_ordinal: Some(1),
                    torn_write_on_kill: true,
                    ..WorkerChaos::default()
                };
                workers
            ];
            let (checkpoint, _watchdog) = watched(&dir);
            let (payloads, report, worker_reports) = run_dispatched(
                &checkpoint,
                CampaignManifest::new("dispatch-acceptance", SHARDS),
                workers,
                &fast_config(),
                &chaos,
                true,
                |shard, _| shard_payload(&eng, shard),
                poison,
            )
            .unwrap();
            assert_eq!(report.shards, SHARDS, "{tag}");
            assert!(report.quarantined.is_empty(), "{tag}: no shard is poisoned here");
            // A worker dies at its second claim only if it gets one, so how
            // many die depends on the schedule. That at least one does is
            // pigeonhole: 12 shards cannot go one apiece to at most 4
            // initial workers.
            let died = worker_reports.iter().filter(|w| w.died).count() as u64;
            assert!(died >= 1, "{tag}: some initial worker reached its second claim");
            assert!(
                report.reassignments >= died,
                "{tag}: every dead worker's shard was reassigned ({died} died)"
            );
            assert_eq!(
                payloads, expected,
                "{tag}: dispatched payloads must be byte-identical to single-process"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// All workers die without respawn: the campaign interrupts with its
/// checkpoint directory; resuming with healthy workers completes to the
/// exact single-process payloads (recovered shards included).
#[test]
fn killed_campaign_resumes_to_exact_payloads() {
    let expected = reference(1, "resume_ref");
    let dir = temp_dir("resume");
    let eng = engine(1);
    let chaos = vec![WorkerChaos { kill_at_ordinal: Some(1), ..WorkerChaos::default() }; 2];
    let (checkpoint, _watchdog) = watched(&dir);
    let err = run_dispatched(
        &checkpoint,
        CampaignManifest::new("dispatch-acceptance", SHARDS),
        2,
        &fast_config(),
        &chaos,
        false, // no respawn: the campaign is left incomplete
        |shard, _| shard_payload(&eng, shard),
        poison,
    )
    .unwrap_err();
    let completed = match err {
        CampaignError::Interrupted { completed, shards, checkpoint_dir } => {
            assert_eq!(shards, SHARDS);
            assert!(completed < SHARDS);
            assert_eq!(checkpoint_dir, dir, "the error must name the checkpoint dir");
            completed
        }
        other => panic!("expected Interrupted, got {other}"),
    };

    let (checkpoint, _watchdog) = watched(&dir);
    let (payloads, report, _) = run_dispatched(
        &checkpoint,
        CampaignManifest::new("dispatch-acceptance", SHARDS),
        2,
        &fast_config(),
        &[],
        true,
        |shard, _| shard_payload(&eng, shard),
        poison,
    )
    .unwrap();
    assert_eq!(report.recovered, completed, "committed shards must not re-execute");
    assert_eq!(payloads, expected, "resume must complete to the exact payloads");
    std::fs::remove_dir_all(&dir).ok();
}

/// A shard whose evaluation kills every worker that touches it is
/// quarantined after `max_worker_deaths` distinct workers: the campaign
/// completes degraded, the poisoned outcome carries the failure taxonomy,
/// and every *other* shard stays byte-identical to the single-process run.
#[test]
fn poisoned_shard_quarantine_preserves_all_other_shards_exactly() {
    let expected = reference(1, "quar_ref");
    let dir = temp_dir("quar");
    let eng = engine(1);
    let mut config = fast_config();
    config.lease.max_worker_deaths = 2;
    // Worker 0 plus its respawn both die on shard 5; after two distinct
    // deaths the coordinator quarantines it.
    let chaos = vec![
        WorkerChaos { kill_on_shard: Some(5), ..WorkerChaos::default() },
        WorkerChaos { kill_on_shard: Some(5), ..WorkerChaos::default() },
        WorkerChaos { kill_on_shard: Some(5), ..WorkerChaos::default() },
    ];
    let (checkpoint, _watchdog) = watched(&dir);
    let (payloads, report, _) = run_dispatched(
        &checkpoint,
        CampaignManifest::new("dispatch-acceptance", SHARDS),
        1,
        &config,
        &chaos,
        true,
        |shard, _| shard_payload(&eng, shard),
        poison,
    )
    .unwrap();
    assert_eq!(report.quarantined, vec![5], "shard 5 must be quarantined");
    for (shard, payload) in payloads.iter().enumerate() {
        if shard == 5 {
            let text = String::from_utf8_lossy(payload);
            assert!(
                text.contains("2 distinct workers"),
                "poisoned payload must carry the failure taxonomy"
            );
            assert_ne!(payload, &expected[shard]);
        } else {
            assert_eq!(payload, &expected[shard], "healthy shard {shard} must stay exact");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
