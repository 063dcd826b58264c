//! One conformance suite for every `LeaseStore`: the file store a worker
//! sharing the checkpoint directory uses, and a `WorkerClient` talking to a
//! real `CoordinatorServer` over localhost TCP. The same lease events must
//! get the same answers from both, because `dispatch::worker_loop` is one
//! loop over either.

mod watchdog;

use std::path::{Path, PathBuf};

use paraspace_analysis::campaign::CampaignError;
use paraspace_analysis::dispatch::{
    coordinate, worker_loop, DispatchConfig, TickDirective, WorkerChaos,
};
use paraspace_core::SimError;
use paraspace_journal::lease::{
    Claim, FileStore, LeaseConfig, LeaseDir, LeaseStore, RetryLedger, RetryState,
};
use paraspace_journal::{record, CampaignManifest, Journal};
use paraspace_transport::client::{ClientOptions, WorkerClient};
use paraspace_transport::server::{CoordinatorServer, ServerConfig};
use watchdog::watched;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paraspace_stores_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config() -> DispatchConfig {
    DispatchConfig {
        lease: LeaseConfig {
            ttl_ms: 200,
            backoff_base_ms: 20,
            backoff_cap_ms: 100,
            max_worker_deaths: 1,
        },
        poll_ms: 10,
    }
}

fn manifest(shards: u64) -> CampaignManifest {
    CampaignManifest::new("lease-store-conformance", shards)
}

/// A transport server for the campaign under `dir` and a client attached
/// to it as `worker`.
fn served(dir: &Path, shards: u64, worker: &str) -> (CoordinatorServer, WorkerClient) {
    let config = config();
    let server = CoordinatorServer::start(
        "127.0.0.1:0",
        dir,
        &manifest(shards),
        ServerConfig { lease: config.lease, poll_ms: config.poll_ms, idle_disconnect_ms: None },
    )
    .unwrap();
    let opts = ClientOptions { connect_timeout_ms: 500, rpc_timeout_ms: 300, ..Default::default() };
    let (client, _info) = WorkerClient::connect(&server.local_addr().to_string(), worker, opts)
        .expect("loopback connect");
    (server, client)
}

/// Drive `store` (worker `w0`) through the lease events a coordinator and
/// a second worker can cause, recording each answer.
fn lease_events<S: LeaseStore>(store: &S, dir: &Path) -> Vec<String>
where
    S::Error: std::fmt::Debug,
{
    let leases = LeaseDir::new(dir);
    let mut answers = Vec::new();
    let Claim::Granted(first) = store.claim().unwrap() else { panic!("nothing is leased yet") };
    answers.push(format!("claim: shard {}", first.shard));
    let again = store.claim().unwrap();
    answers.push(format!("re-claim: same grant {}", again == Claim::Granted(first.clone())));
    answers.push(format!("beat while held: {}", store.beat(1, Some(&first)).unwrap()));

    // The coordinator expires the lease and releases it.
    leases.release(first.shard).unwrap();
    answers.push(format!("beat after release: {}", store.beat(2, Some(&first)).unwrap()));

    // Reassignment: another worker claims the shard and completes it.
    let other = leases.try_claim(first.shard, "w1").unwrap().expect("reassignment claim");
    assert!(leases.complete(&other).unwrap());
    answers.push(format!("complete after reassignment: {}", store.complete(&first).unwrap()));

    let Claim::Granted(next) = store.claim().unwrap() else { panic!("shard 1 is open") };
    answers.push(format!("next claim: shard {}", next.shard));
    let framed = record::frame(next.shard, b"payload").unwrap();
    store.append(&framed).unwrap();
    let segment = std::fs::read(leases.segment_path("w0")).unwrap();
    answers.push(format!("segment holds the record verbatim: {}", segment == framed));
    answers.push(format!("complete while held: {}", store.complete(&next).unwrap()));

    // A cancelled worker hands its lease back: the shard is free at once.
    let Claim::Granted(released) = store.claim().unwrap() else { panic!("shard 2 is open") };
    store.release(&released).unwrap();
    let reclaimed = leases.try_claim(released.shard, "w1").unwrap();
    answers.push(format!("another worker claims after release: {}", reclaimed.is_some()));

    // The coordinator merges the shard w1 completed and clears its done
    // marker: completion is not loss, merged or not.
    let (mut journal, _) = Journal::open_or_create(dir, &manifest(4)).unwrap();
    journal.commit(first.shard, b"w1's record").unwrap();
    leases.clear_done(first.shard).unwrap();
    let merged = store.beat(3, Some(&first)).unwrap();
    answers.push(format!("beat after another worker's completion merged: {merged}"));
    answers
}

#[test]
fn file_and_tcp_stores_answer_lease_events_alike() {
    let expected = [
        "claim: shard 0",
        "re-claim: same grant true",
        "beat while held: true",
        "beat after release: false",
        "complete after reassignment: false",
        "next claim: shard 1",
        "segment holds the record verbatim: true",
        "complete while held: true",
        "another worker claims after release: true",
        "beat after another worker's completion merged: true",
    ];

    let dir = temp_dir("events_file");
    assert_eq!(lease_events(&FileStore::open(&dir, "w0", 4).unwrap().0, &dir), expected);
    std::fs::remove_dir_all(&dir).ok();

    let dir = temp_dir("events_net");
    let (_server, client) = served(&dir, 4, "w0");
    assert_eq!(lease_events(&client, &dir), expected);
    std::fs::remove_dir_all(&dir).ok();
}

/// Run `store`'s worker over a one-shard campaign whose execution fails,
/// then coordinate it; returns the reasons the retry ledger recorded.
fn failed_execution<S: LeaseStore>(store: &S, dir: &Path, worker: &str) -> Vec<String> {
    let (checkpoint, _watchdog) = watched(dir);
    let external = checkpoint.cancel_token();
    let err = worker_loop(store, &config(), external, &WorkerChaos::default(), |_, _| {
        Err(CampaignError::Sim(SimError::InvalidJob { message: "solver diverged".into() }))
    })
    .unwrap_err();
    assert!(matches!(err, CampaignError::Sim(SimError::InvalidJob { .. })), "got {err}");

    let leases = LeaseDir::new(dir);
    assert!(leases.is_claimed(0), "the failed shard's lease stays for the coordinator");
    let note = leases.read_blame(worker).unwrap().expect("a blame note");
    assert!(note.contains("shard 0 failed on worker") && note.contains("diverged"), "{note:?}");

    let poison = |_: u64, st: &RetryState| st.reasons.join("; ").into_bytes();
    let (payloads, report) =
        coordinate(&checkpoint, manifest(1), &config(), poison, |_| TickDirective::Continue)
            .unwrap();
    assert_eq!(report.quarantined, vec![0], "one death quarantines at max_worker_deaths 1");
    let reasons = RetryLedger::open(dir).unwrap().state(0).unwrap().reasons.clone();
    assert_eq!(payloads[0], reasons[0].as_bytes(), "the poison carries the death's reason");
    reasons
}

#[test]
fn an_execution_failure_leaves_the_lease_and_a_blame_coordinate_ledgers() {
    let ledgered = |reasons: &[String]| {
        reasons.first().is_some_and(|r| {
            r.contains("shard 0 failed on worker: campaign failed: invalid job: solver diverged")
        })
    };

    let dir = temp_dir("blame_file");
    drop(Journal::open_or_create(&dir, &manifest(1)).unwrap());
    let reasons = failed_execution(&FileStore::open(&dir, "fw", 1).unwrap().0, &dir, "fw");
    assert!(ledgered(&reasons), "{reasons:?}");
    std::fs::remove_dir_all(&dir).ok();

    let dir = temp_dir("blame_net");
    drop(Journal::open_or_create(&dir, &manifest(1)).unwrap());
    let (_server, client) = served(&dir, 1, "nw");
    let reasons = failed_execution(&client, &dir, "nw");
    assert!(ledgered(&reasons), "{reasons:?}");
    assert!(reasons[0].starts_with("transport: "), "the server tags its notes: {reasons:?}");
    std::fs::remove_dir_all(&dir).ok();
}
