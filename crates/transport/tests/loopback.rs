//! End-to-end loopback exercises of the transport crate in isolation: a
//! real `CoordinatorServer` on an ephemeral localhost port, real
//! `WorkerClient`s in threads, and a minimal merge loop standing in for
//! the coordinator (discover segments, first-wins commit, clear done
//! markers). The full coordinator integration lives in the analysis
//! crate's dispatch durability suite.

use std::collections::HashMap;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use paraspace_analysis::campaign::CampaignError;
use paraspace_analysis::dispatch::{worker_loop, DispatchConfig, WorkerChaos};
use paraspace_exec::CancelToken;
use paraspace_journal::lease::{LeaseConfig, LeaseDir, SegmentReader, SEGMENTS_DIR};
use paraspace_journal::{record, CampaignManifest, Journal, JournalError};
use paraspace_transport::chaos::NetChaos;
use paraspace_transport::client::{ClientOptions, HelloInfo, WorkerClient};
use paraspace_transport::server::{CoordinatorServer, ServerConfig};
use paraspace_transport::wire::{
    decode_reply, encode_request, read_frame, write_frame, ClaimOutcome, Reply, Request, NO_SHARD,
    PROTOCOL_VERSION,
};

const SHARDS: u64 = 6;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paraspace_loopback_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn manifest() -> CampaignManifest {
    CampaignManifest::new("transport-loopback", SHARDS).with_digest("spec", 0x7ea5)
}

fn fast_server_config() -> ServerConfig {
    ServerConfig {
        lease: LeaseConfig {
            ttl_ms: 400,
            backoff_base_ms: 20,
            backoff_cap_ms: 200,
            max_worker_deaths: 3,
        },
        poll_ms: 10,
        idle_disconnect_ms: None,
    }
}

fn fast_client_options(chaos: NetChaos) -> ClientOptions {
    ClientOptions { connect_timeout_ms: 500, rpc_timeout_ms: 300, max_attempts: 6, chaos }
}

/// The worker loop's timing, as the handshake taught it.
fn dispatch_config(info: &HelloInfo) -> DispatchConfig {
    DispatchConfig { lease: info.lease.clone(), poll_ms: info.poll_ms }
}

fn payload_for(shard: u64) -> Vec<u8> {
    let mut p = format!("loopback-shard-{shard}-").into_bytes();
    p.extend((0..shard + 3).map(|i| (i * 31 + shard) as u8));
    p
}

/// Minimal coordinator merge: tail every segment, first-wins commit into
/// the main journal, clear done markers, until every shard is merged.
fn merge_until_complete(dir: &Path) -> Journal {
    let (mut journal, _) = Journal::open_or_create(dir, &manifest()).unwrap();
    let leases = LeaseDir::new(dir);
    let mut readers: HashMap<String, SegmentReader> = HashMap::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while !journal.is_complete() {
        assert!(Instant::now() < deadline, "merge loop timed out");
        if let Ok(entries) = std::fs::read_dir(dir.join(SEGMENTS_DIR)) {
            for entry in entries.filter_map(Result::ok) {
                let name = entry.file_name().to_string_lossy().into_owned();
                readers.entry(name).or_insert_with(|| SegmentReader::new(entry.path()));
            }
        }
        for reader in readers.values_mut() {
            for (shard, payload) in reader.poll().unwrap() {
                if !journal.is_committed(shard) {
                    journal.commit(shard, &payload).unwrap();
                    leases.clear_done(shard).unwrap();
                }
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    journal.sync().unwrap();
    journal
}

/// Run one networked worker to campaign completion in a thread while this
/// thread merges; returns the merged journal's log bytes.
fn run_campaign(tag: &str, chaos: NetChaos) -> (Vec<u8>, PathBuf) {
    let dir = temp_dir(tag);
    // The coordinator writes the manifest before serving anyone.
    drop(Journal::open_or_create(&dir, &manifest()).unwrap());
    let server =
        CoordinatorServer::start("127.0.0.1:0", &dir, &manifest(), fast_server_config()).unwrap();
    let addr = server.local_addr().to_string();

    let worker = std::thread::spawn(move || {
        let (client, info) =
            WorkerClient::connect(&addr, "w0", fast_client_options(chaos)).unwrap();
        assert!(info.manifest_text.contains("transport-loopback"));
        assert_eq!(info.lease.ttl_ms, 400, "handshake must carry the campaign's timing");
        let external = CancelToken::new();
        let quiet = WorkerChaos::default();
        worker_loop(&client, &dispatch_config(&info), &external, &quiet, |shard, _token| {
            Ok(payload_for(shard))
        })
        .unwrap()
    });

    let journal = merge_until_complete(&dir);
    let report = worker.join().unwrap();
    assert_eq!(report.executed, SHARDS);
    for shard in 0..SHARDS {
        assert_eq!(journal.get(shard).unwrap(), &payload_for(shard)[..]);
    }
    let log = std::fs::read(journal.log_path()).unwrap();
    (log, dir)
}

/// The reference: the same payloads committed by a plain single-process
/// journal, in the same ascending order a single worker claims in.
fn reference_log(tag: &str) -> Vec<u8> {
    let dir = temp_dir(tag);
    let (mut journal, _) = Journal::open_or_create(&dir, &manifest()).unwrap();
    for shard in 0..SHARDS {
        journal.commit(shard, &payload_for(shard)).unwrap();
    }
    journal.sync().unwrap();
    let log = std::fs::read(journal.log_path()).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    log
}

#[test]
fn quiet_network_run_is_byte_identical_to_a_local_journal() {
    let (log, dir) = run_campaign("quiet", NetChaos::default());
    assert_eq!(log, reference_log("quiet_ref"));
    // The streamed segment is byte-identical to what a local worker's
    // Segment::append would have produced: verbatim framed records.
    let seg = std::fs::read(dir.join(SEGMENTS_DIR).join("w0.log")).unwrap();
    let mut expected = Vec::new();
    for shard in 0..SHARDS {
        expected.extend_from_slice(&record::frame(shard, &payload_for(shard)).unwrap());
    }
    assert_eq!(seg, expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drop_delay_duplicate_sever_and_half_open_all_converge_byte_identically() {
    // One fault of each flavor, spread over the campaign's RPC ordinals
    // (ordinal k: 3 RPCs per shard — claim, record, commit — plus the
    // retries the faults themselves cause).
    let chaos = NetChaos {
        drop_at: vec![1],          // first record send swallowed → timeout → retry
        delay_at: vec![(4, 120)],  // a delayed RPC, no disconnect
        duplicate_at: vec![6],     // duplicated request → stale-reply discard
        sever_at: vec![9],         // cut before send → reconnect + replay
        drop_replies_at: vec![12], // half-open: server acts, ack lost → idempotent retry
        partition_at: None,
    };
    let (log, dir) = run_campaign("chaos", chaos);
    assert_eq!(log, reference_log("chaos_ref"));
    // Idempotent appends: despite duplicates and replays, the segment
    // holds exactly one record per shard.
    let seg = std::fs::read(dir.join(SEGMENTS_DIR).join("w0.log")).unwrap();
    let (records, good) = record::scan_bytes(&seg);
    assert_eq!(good as usize, seg.len());
    assert_eq!(records.len(), SHARDS as usize, "no duplicate appends");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fully_partitioned_worker_exits_and_is_blamed() {
    let dir = temp_dir("partition");
    drop(Journal::open_or_create(&dir, &manifest()).unwrap());
    let server =
        CoordinatorServer::start("127.0.0.1:0", &dir, &manifest(), fast_server_config()).unwrap();
    let addr = server.local_addr().to_string();

    // Ordinal 0 is the first Claim, ordinal 1 the first SegmentRecord:
    // the worker finishes computing shard 0, then the route vanishes.
    let chaos = NetChaos { partition_at: Some(1), ..NetChaos::default() };
    let (client, info) = WorkerClient::connect(&addr, "w1", fast_client_options(chaos)).unwrap();
    let external = CancelToken::new();
    let started = Instant::now();
    let quiet = WorkerChaos::default();
    let err = worker_loop(&client, &dispatch_config(&info), &external, &quiet, |shard, _token| {
        Ok(payload_for(shard))
    })
    .unwrap_err();
    assert!(matches!(err, CampaignError::Store(_)), "got: {err}");
    // The ladder is bounded: 6 attempts with 20ms-base/200ms-cap backoff.
    assert!(started.elapsed() < Duration::from_secs(10));

    // The server saw the connection die while w1 held shard 0's lease and
    // recorded transport blame for the coordinator's expiry scan.
    let leases = LeaseDir::new(&dir);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(reason) = leases.read_blame("w1").unwrap() {
            assert!(reason.starts_with("transport:"), "taxonomy prefix, got {reason:?}");
            break;
        }
        assert!(Instant::now() < deadline, "blame note never appeared");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(leases.is_claimed(0), "the lease stays for the coordinator to expire");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantine_rpc_records_the_workers_taxonomy_as_blame() {
    let dir = temp_dir("quarantine");
    drop(Journal::open_or_create(&dir, &manifest()).unwrap());
    let server =
        CoordinatorServer::start("127.0.0.1:0", &dir, &manifest(), fast_server_config()).unwrap();
    let addr = server.local_addr().to_string();

    let (client, info) =
        WorkerClient::connect(&addr, "w2", fast_client_options(NetChaos::default())).unwrap();
    let external = CancelToken::new();
    // Any error from the executor stands for the solver diverging.
    let diverged = || JournalError::MalformedPayload { message: "solver diverged".into() };
    let quiet = WorkerChaos::default();
    let err = worker_loop(&client, &dispatch_config(&info), &external, &quiet, |_shard, _token| {
        Err(CampaignError::Journal(diverged()))
    })
    .unwrap_err();
    assert!(
        matches!(&err, CampaignError::Journal(JournalError::MalformedPayload { message })
            if message == "solver diverged"),
        "got: {err}"
    );

    let leases = LeaseDir::new(&dir);
    let reason = leases.read_blame("w2").unwrap().expect("blame recorded");
    assert!(
        reason.contains("transport: shard 0 failed on worker") && reason.contains("diverged"),
        "got {reason:?}"
    );
    // The lease is deliberately left to expire so the coordinator ledgers
    // a death carrying this taxonomy.
    assert!(leases.is_claimed(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn commit_of_a_lease_reassigned_and_completed_elsewhere_reports_lost() {
    let dir = temp_dir("stolen");
    drop(Journal::open_or_create(&dir, &manifest()).unwrap());
    let server =
        CoordinatorServer::start("127.0.0.1:0", &dir, &manifest(), fast_server_config()).unwrap();
    let mut ask = raw_connection(&server);
    ask(Request::Hello { worker: "w3".into(), version: PROTOCOL_VERSION });
    let Reply::ClaimAck(ClaimOutcome::Granted { shard, granted_at_ms }) =
        ask(Request::Claim { worker: "w3".into() })
    else {
        panic!("the first claim is granted");
    };

    // The coordinator expires w3's lease; w4 claims the shard and
    // completes it before w3's commit arrives.
    let leases = LeaseDir::new(&dir);
    leases.release(shard).unwrap();
    let other = leases.try_claim(shard, "w4").unwrap().expect("reassignment claim");
    assert!(leases.complete(&other).unwrap());

    let reply = ask(Request::Commit { worker: "w3".into(), shard, granted_at_ms });
    assert!(matches!(reply, Reply::CommitAck { ok: false }), "w3 lost its lease, got {reply:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A raw connection to `server`: each call sends one request and returns
/// its reply.
fn raw_connection(server: &CoordinatorServer) -> impl FnMut(Request) -> Reply {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut seq = 0;
    move |req| {
        seq += 1;
        write_frame(&mut (&stream), seq, &encode_request(&req)).unwrap();
        decode_reply(&read_frame(&mut (&stream)).unwrap().1).unwrap()
    }
}

#[test]
fn a_connection_speaks_only_for_the_worker_it_said_hello_as() {
    let dir = temp_dir("identity");
    drop(Journal::open_or_create(&dir, &manifest()).unwrap());
    let server =
        CoordinatorServer::start("127.0.0.1:0", &dir, &manifest(), fast_server_config()).unwrap();
    let leases = LeaseDir::new(&dir);
    let refused = |reply: &Reply, because: &str| matches!(reply, Reply::Error { message } if message.contains(because));
    let hello = |worker: &str| Request::Hello { worker: worker.into(), version: PROTOCOL_VERSION };

    // A Claim naming another connection's worker is refused, not granted
    // on that worker's behalf.
    let mut w5 = raw_connection(&server);
    let mut w6 = raw_connection(&server);
    assert!(matches!(w5(hello("w5")), Reply::HelloAck { .. }));
    assert!(matches!(w6(hello("w6")), Reply::HelloAck { .. }));
    let reply = w6(Request::Claim { worker: "w5".into() });
    assert!(refused(&reply, "cannot speak for w5"), "got {reply:?}");
    assert!(leases.list_leases().unwrap().is_empty(), "no lease was created");

    // A Heartbeat before Hello keeps nobody's leases alive.
    let mut anonymous = raw_connection(&server);
    let beat =
        Request::Heartbeat { worker: "w5".into(), counter: 1, shard: NO_SHARD, granted_at_ms: 0 };
    let reply = anonymous(beat);
    assert!(refused(&reply, "must Hello"), "got {reply:?}");
    assert_eq!(leases.last_heartbeat_ms("w5").unwrap(), None, "no heartbeat was written");

    // Hello checks the worker id before it opens a file named after it:
    // `segments/../probe.log` is a directory here, and reading it would
    // fail with an I/O error instead.
    std::fs::create_dir(dir.join("probe.log")).unwrap();
    let reply = anonymous(hello("../probe"));
    assert!(refused(&reply, "invalid worker id"), "got {reply:?}");
    std::fs::remove_dir_all(&dir).ok();
}
