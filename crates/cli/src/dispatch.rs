//! Multi-process `simulate` campaigns: the coordinator over spawned or
//! attached worker processes (filesystem or TCP lease store), the `worker`
//! and `coordinate` subcommands, and the registry that lets the binary's
//! SIGINT handler kill spawned workers.

use crate::args::{command_from_manifest, read_manifest};
use crate::simulate::{ShardOutcome, SimulateWorld};
use crate::{campaign_error, CancelToken, CliError};
use paraspace_analysis::campaign::{CampaignError, Checkpoint, ShardRecord};
use paraspace_analysis::dispatch::{
    coordinate, worker_loop, DispatchConfig, TickDirective, WorkerChaos,
};
use paraspace_journal::lease::{FileStore, LeaseStore};
use paraspace_journal::{CampaignManifest, Journal};
use paraspace_transport::client::{ClientOptions, WorkerClient};
use paraspace_transport::server::{CoordinatorServer, ServerConfig};
use std::cell::RefCell;
use std::path::Path;

/// The most worker children one coordinator process tracks for SIGINT
/// reaping. Spawns beyond this still run; they just rely on lease TTL
/// expiry if the coordinator dies (the pre-registry behaviour).
const MAX_REGISTERED_CHILDREN: usize = 64;

/// Pids of live spawned worker children, published for the binary's
/// SIGINT handler: a handler cannot touch `Child` handles, locks, or the
/// allocator, but it can read this array and issue `kill(2)`. Slot value
/// 0 means empty.
static CHILD_PIDS: [std::sync::atomic::AtomicU32; MAX_REGISTERED_CHILDREN] =
    [const { std::sync::atomic::AtomicU32::new(0) }; MAX_REGISTERED_CHILDREN];

fn register_child(pid: u32) {
    use std::sync::atomic::Ordering;
    for slot in &CHILD_PIDS {
        if slot.compare_exchange(0, pid, Ordering::Relaxed, Ordering::Relaxed).is_ok() {
            return;
        }
    }
}

fn unregister_child(pid: u32) {
    use std::sync::atomic::Ordering;
    for slot in &CHILD_PIDS {
        let _ = slot.compare_exchange(pid, 0, Ordering::Relaxed, Ordering::Relaxed);
    }
}

/// SIGKILLs every registered worker child. Async-signal-safe (atomic
/// loads plus the `kill` syscall, no allocation, no locks), so the
/// binary's SIGINT handler calls it directly: a coordinator dying to
/// Ctrl-C or a panic must not leave orphan workers holding leases until
/// the TTL expires them one by one.
pub fn kill_registered_children() {
    #[cfg(unix)]
    {
        use std::sync::atomic::Ordering;
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGKILL: i32 = 9;
        for slot in &CHILD_PIDS {
            let pid = slot.load(Ordering::Relaxed);
            if pid != 0 {
                unsafe {
                    kill(pid as i32, SIGKILL);
                }
            }
        }
    }
}

/// Spawned worker children, registered for SIGINT reaping on push and
/// killed + reaped on drop — so a coordinator that panics (or returns
/// any error path) never leaves orphans. The success path waits for the
/// children first, making the drop's kill a no-op.
struct Children {
    inner: RefCell<Vec<std::process::Child>>,
}

impl Children {
    fn new() -> Self {
        Children { inner: RefCell::new(Vec::new()) }
    }

    fn push(&self, child: std::process::Child) {
        register_child(child.id());
        self.inner.borrow_mut().push(child);
    }

    /// Drops children that already exited from the registry and the list.
    fn reap_exited(&self) {
        self.inner.borrow_mut().retain_mut(|c| {
            if matches!(c.try_wait(), Ok(Some(_))) {
                unregister_child(c.id());
                false
            } else {
                true
            }
        });
    }

    fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }

    /// Waits for every child to exit on its own (the success path:
    /// children observe campaign completion through the shard log).
    fn wait_all(&self) {
        for c in self.inner.borrow_mut().iter_mut() {
            let _ = c.wait();
            unregister_child(c.id());
        }
        self.inner.borrow_mut().clear();
    }
}

impl Drop for Children {
    fn drop(&mut self) {
        for c in self.inner.get_mut() {
            unregister_child(c.id());
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Rebuilds the world of a dispatched `simulate` campaign from the
/// manifest its coordinator pinned — what `coordinate`, `worker` and
/// `worker --connect` all start from — and holds it to that manifest, so a
/// world that drifted since (model files edited under the checkpoint,
/// tolerances changed, ...) is refused before any shard runs.
fn world_from_manifest(
    manifest: &CampaignManifest,
    served_from: &str,
    checkpoint_dir: &Path,
    workers: usize,
) -> Result<SimulateWorld, CliError> {
    if manifest.kind() != "cli-simulate" {
        return Err(CliError(format!(
            "{served_from} holds a {:?} campaign; only `simulate` campaigns dispatch to workers",
            manifest.kind()
        )));
    }
    let world = SimulateWorld::load(&command_from_manifest(manifest, checkpoint_dir, workers)?)?;
    manifest.verify_matches(&world.manifest())?;
    Ok(world)
}

/// The `coordinate` subcommand: rebuild the world from an existing
/// checkpoint manifest and run the coordinator over it, optionally
/// spawning worker children (others may attach with `worker`).
pub(crate) fn run_coordinator(
    dir: &Path,
    workers: usize,
    listen: Option<&str>,
    out: &mut dyn std::io::Write,
    cancel: &CancelToken,
) -> Result<(), CliError> {
    let manifest = read_manifest(dir)?;
    let served_from = format!("checkpoint at {}", dir.display());
    let world = world_from_manifest(&manifest, &served_from, dir, workers)?;
    let checkpoint = Checkpoint::new(dir).with_cancel(cancel.clone());
    coordinate_processes(&world, &checkpoint, workers, listen, out)
}

/// The coordinator over worker *processes*: write the manifest, spawn
/// worker children running the `worker` subcommand against the same
/// checkpoint directory, run the merge/expiry/quarantine loop, and
/// materialize the artifacts once every shard commits. When every child
/// has died and shards remain, a replacement is spawned (bounded), so a
/// campaign survives SIGKILL of any or all of its workers.
pub(crate) fn coordinate_processes(
    world: &SimulateWorld,
    checkpoint: &Checkpoint,
    spawn_workers: usize,
    listen: Option<&str>,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    // The manifest must be on disk before the first child starts: workers
    // rebuild their world from it.
    let manifest = world.manifest();
    drop(Journal::open_or_create(checkpoint.dir(), &manifest)?);
    let config = world.dispatch.clone();

    // With --listen, bind the transport server *before* any child spawns
    // so `--listen 127.0.0.1:0` can hand children the resolved port.
    let mut server = match listen {
        Some(addr) => {
            let server = CoordinatorServer::start(
                addr,
                checkpoint.dir(),
                &manifest,
                ServerConfig {
                    lease: config.lease.clone(),
                    poll_ms: config.poll_ms,
                    idle_disconnect_ms: None,
                },
            )
            .map_err(|e| CliError(format!("cannot listen on {addr}: {e}")))?;
            writeln!(out, "coordinator listening on {}", server.local_addr())?;
            Some(server)
        }
        None => None,
    };
    let connect_addr = server.as_ref().map(|s| s.local_addr().to_string());

    let spawn_child = |id: &str| -> std::io::Result<std::process::Child> {
        let mut child = std::process::Command::new(std::env::current_exe()?);
        child.arg("worker");
        match &connect_addr {
            Some(addr) => child.arg("--connect").arg(addr),
            None => child.arg(checkpoint.dir()),
        };
        child
            .arg("--worker-id")
            .arg(id)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
    };
    // Worker ids embed this coordinator's pid and a sequence number so
    // every incarnation (including respawns and coordinator restarts) is
    // unique — a successor reusing a dead worker's id would keep the dead
    // worker's orphaned lease looking alive with its own heartbeats.
    let pid = std::process::id();
    let seq = std::cell::Cell::new(0u64);
    let next_id = |prefix: &str| {
        let n = seq.get();
        seq.set(n + 1);
        format!("{prefix}{n}-{pid}")
    };
    let children = Children::new();
    for _ in 0..spawn_workers {
        children.push(spawn_child(&next_id("w"))?);
    }
    let respawned = std::cell::Cell::new(0u64);
    let respawn_cap = (spawn_workers as u64).max(1) * 4;

    let result = coordinate(
        checkpoint,
        manifest,
        &config,
        |shard, state| world.poison_payload(shard, state),
        |status| {
            children.reap_exited();
            if spawn_workers > 0 && children.is_empty() && status.committed < status.shards {
                if respawned.get() >= respawn_cap {
                    return TickDirective::GiveUp;
                }
                respawned.set(respawned.get() + 1);
                if let Ok(c) = spawn_child(&next_id("r")) {
                    children.push(c);
                }
            }
            TickDirective::Continue
        },
    );

    match result {
        Ok((payloads, report)) => {
            // Children observe completion through the shard log (or the
            // transport's campaign-complete reply) and exit on their own;
            // wait so none outlive the campaign.
            children.wait_all();
            if let Some(server) = &mut server {
                server.shutdown();
            }
            let mut shards = payloads
                .into_iter()
                .map(|payload| ShardOutcome::from_payload(&payload))
                .collect::<Result<Vec<_>, _>>()?;
            let files = world.files();
            world.materialize(&mut shards, &files)?;
            files.summarize(&format!("{} (dispatched)", world.engine_name), &shards, out)?;
            writeln!(
                out,
                "dispatch: {} shards ({} recovered, {} merged); {} reassignments; {} worker segments",
                report.shards, report.recovered, report.merged, report.reassignments,
                report.workers_seen,
            )?;
            if !report.quarantined.is_empty() {
                writeln!(
                    out,
                    "quarantined shards {:?}: journaled as poisoned outcomes; campaign completed degraded",
                    report.quarantined,
                )?;
            }
            writeln!(out, "dynamics written to {}", world.out_path.display())?;
            Ok(())
        }
        // `children` drops here: kill + reap every spawned worker.
        Err(e) => Err(campaign_error(e, Some(checkpoint.dir()), out)),
    }
}

/// The `worker` subcommand: attach through a lease store — the shared
/// checkpoint directory, or with `--connect` the coordinator's transport
/// server — rebuild the world from the campaign's manifest, verify it
/// matches what the coordinator pinned, and run the dispatch worker loop
/// until the campaign completes (or this worker is cancelled or killed by
/// chaos).
pub(crate) fn run_worker(
    dir: Option<&Path>,
    connect: Option<&str>,
    worker_id: Option<&str>,
    chaos: &WorkerChaos,
    out: &mut dyn std::io::Write,
    cancel: &CancelToken,
) -> Result<(), CliError> {
    let id = worker_id.map_or_else(|| format!("pid{}", std::process::id()), str::to_string);
    if let Some(addr) = connect {
        let (client, info) = WorkerClient::connect(addr, &id, ClientOptions::default())
            .map_err(|e| CliError(format!("cannot reach coordinator at {addr}: {e}")))?;
        // The world comes from the streamed manifest exactly as a
        // filesystem worker's comes from the on-disk one; the checkpoint
        // path it names is never touched on this side of the wire (the
        // model directory must be readable at the same path).
        let on_wire = CampaignManifest::from_text(&info.manifest_text)?;
        let world =
            world_from_manifest(&on_wire, &format!("coordinator at {addr}"), Path::new(""), 0)?;
        writeln!(
            out,
            "worker {id}: attached to {addr} ({} shards, lease ttl {} ms)",
            world.plan.len(),
            info.lease.ttl_ms,
        )?;
        let config = DispatchConfig { lease: info.lease, poll_ms: info.poll_ms };
        return serve_shards(&client, &world, &config, &id, chaos, out, cancel);
    }
    let dir = dir.ok_or_else(|| CliError("worker needs a checkpoint directory".into()))?;
    let on_disk = read_manifest(dir)?;
    let world = world_from_manifest(&on_disk, &format!("checkpoint at {}", dir.display()), dir, 0)?;
    let (store, _) = FileStore::open(dir, &id, world.plan.len() as u64)?;
    serve_shards(&store, &world, &world.dispatch, &id, chaos, out, cancel)
}

/// [`run_worker`]'s loop over whichever store it picked, and its summary.
fn serve_shards<S: LeaseStore>(
    store: &S,
    world: &SimulateWorld,
    config: &DispatchConfig,
    id: &str,
    chaos: &WorkerChaos,
    out: &mut dyn std::io::Write,
    cancel: &CancelToken,
) -> Result<(), CliError> {
    let report = worker_loop(store, config, cancel, chaos, |shard, token| {
        // A worker may run a shard again after losing its lease, so it
        // copies the members.
        let batch = world.members(shard).iter().map(|&i| world.parameterizations[i].clone());
        Ok(world.execute(world.engine(token).as_ref(), batch.collect(), None)?.encode())
    })
    .map_err(|e| match e {
        CampaignError::Store(e) => CliError(format!(
            "lost the coordinator ({e}); its lease will expire and the shard will be reassigned"
        )),
        e => e.into(),
    })?;
    writeln!(
        out,
        "worker {id}: executed {} shards ({} leases lost to reassignment)",
        report.executed, report.lost_leases,
    )?;
    if report.died {
        return Err(CliError(format!(
            "worker {id} presumed dead (heartbeat lost) — its shard will be reassigned"
        )));
    }
    if report.cancelled {
        writeln!(out, "worker {id}: cancelled")?;
    }
    Ok(())
}
