//! Process-level measurement and hygiene: CPU time and resident-set peaks
//! from `getrusage`/`wait4`, campaign processes run in their own process
//! group under a hard deadline, and the work directory guard that removes
//! the artifacts and reaps children on every exit path.
//!
//! The libc symbols are declared by hand — `std` already links them — the
//! same way `crates/cli/src/main.rs` declares `signal`.

use std::io;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// `struct rusage` of Linux on 64-bit targets.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    /// `ru_maxrss` in KiB.
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn signal(signum: i32, handler: usize) -> usize;
    fn sysconf(name: i32) -> i64;
}

const RUSAGE_SELF: i32 = 0;
const SIGINT: i32 = 2;
const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const SC_CLK_TCK: i32 = 2;

impl Rusage {
    fn cpu_s(&self) -> f64 {
        (self.utime[0] + self.stime[0]) as f64 + (self.utime[1] + self.stime[1]) as f64 * 1e-6
    }
}

/// User + system CPU seconds this process has consumed so far.
pub fn self_cpu_s() -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a valid, writable `struct rusage`-sized buffer and
    // RUSAGE_SELF is a valid `who`.
    unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    ru.cpu_s()
}

/// Peak resident set of this process in MB (`VmHWM`), 0 when `/proc` does
/// not say.
pub fn self_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What one finished campaign process (and the descendants it reaped) cost.
#[derive(Debug, Clone, Default)]
pub struct ChildRun {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Largest resident set of the child or any descendant it waited for.
    pub peak_rss_mb: f64,
    pub success: bool,
    pub timed_out: bool,
    pub stdout: String,
    /// CPU seconds of the spawned process alone, without the children it
    /// reaped — the last sample taken while it ran; 0 unless sampled.
    pub own_cpu_s: f64,
}

/// The process group of the campaign currently running, for the signal
/// handler and the guard; 0 when none.
static ACTIVE_GROUP: AtomicI32 = AtomicI32::new(0);

fn kill_group(pgid: i32) {
    if pgid > 0 {
        // SAFETY: `kill` with a negative pid signals a process group; a
        // stale group id yields ESRCH, which is ignored.
        unsafe { kill(-pgid, SIGKILL) };
    }
}

/// Kills the running campaign's process group, if any.
pub fn kill_active_group() {
    kill_group(ACTIVE_GROUP.load(Ordering::SeqCst));
}

/// Runs `cmd` to completion in its own process group, timing it from just
/// before the spawn to the moment it is reaped. After `deadline` the whole
/// group is killed and the run is reported as timed out — a hung worker
/// fleet costs one failed repetition, never the benchmark.
///
/// # Errors
///
/// Only a failure to spawn.
pub fn run_campaign(cmd: &mut Command, deadline: Duration) -> io::Result<ChildRun> {
    run_campaign_with(cmd, deadline, None)
}

/// [`run_campaign`], additionally sampling the spawned process's own CPU
/// time every 20 ms (a traced run's way to tell a coordinator from its
/// workers).
///
/// # Errors
///
/// Only a failure to spawn.
pub fn run_campaign_sampled(cmd: &mut Command, deadline: Duration) -> io::Result<ChildRun> {
    run_campaign_with(cmd, deadline, Some(Duration::from_millis(20)))
}

/// `utime + stime` of `pid` itself, in seconds, from `/proc/<pid>/stat`.
fn own_cpu_s(pid: i32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let ticks = fields.next()?.parse::<f64>().ok()? + fields.next()?.parse::<f64>().ok()?;
    // SAFETY: `sysconf` with a valid name has no preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    (hz > 0).then(|| ticks / hz as f64)
}

fn run_campaign_with(
    cmd: &mut Command,
    deadline: Duration,
    sample_every: Option<Duration>,
) -> io::Result<ChildRun> {
    let stdout_file = tempfile_for_stdout()?;
    cmd.process_group(0)
        .stdin(std::process::Stdio::null())
        .stdout(stdout_file.file.try_clone()?)
        .stderr(std::process::Stdio::null());
    let start = Instant::now();
    let child = cmd.spawn()?;
    let pid = child.id() as i32;
    ACTIVE_GROUP.store(pid, Ordering::SeqCst);

    // The watchdog sleeps until the deadline or until the main thread says
    // the child was reaped, whichever is first; when sampling, it wakes in
    // between to read the child's own CPU time.
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        let mut own_cpu = 0.0;
        loop {
            let left = deadline.saturating_sub(start.elapsed());
            let tick = sample_every.map_or(left, |every| every.min(left));
            if done_rx.recv_timeout(tick) != Err(mpsc::RecvTimeoutError::Timeout) {
                return (false, own_cpu);
            }
            if start.elapsed() >= deadline {
                kill_group(pid);
                return (true, own_cpu);
            }
            own_cpu = own_cpu_s(pid).unwrap_or(own_cpu);
        }
    });

    let mut status = 0i32;
    let mut ru = Rusage::default();
    // SAFETY: `pid` is our un-reaped child; `status` and `ru` are valid
    // writable buffers. `std`'s `Child` is dropped without waiting, so the
    // pid is reaped exactly once, here.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut ru) };
    let wall_s = start.elapsed().as_secs_f64();
    drop(child);
    let _ = done_tx.send(());
    let (timed_out, own_cpu_s) = watchdog.join().unwrap_or((false, 0.0));
    // Workers the campaign spawned and did not wait for die with it.
    kill_group(pid);
    ACTIVE_GROUP.store(0, Ordering::SeqCst);

    let exited_ok = reaped == pid && (status & 0x7f) == 0 && ((status >> 8) & 0xff) == 0;
    Ok(ChildRun {
        wall_s,
        cpu_s: ru.cpu_s(),
        peak_rss_mb: ru.maxrss as f64 / 1024.0,
        success: exited_ok && !timed_out,
        timed_out,
        stdout: stdout_file.read(),
        own_cpu_s,
    })
}

/// Campaign stdout goes to an unlinked-on-drop file rather than a pipe, so
/// a chatty child can never block on a full pipe while the driver waits.
struct StdoutFile {
    path: PathBuf,
    file: std::fs::File,
}

fn tempfile_for_stdout() -> io::Result<StdoutFile> {
    static SEQ: AtomicI32 = AtomicI32::new(0);
    let dir = WORK_ROOT.get().cloned().unwrap_or_else(std::env::temp_dir);
    let path =
        dir.join(format!("stdout.{}.{}", std::process::id(), SEQ.fetch_add(1, Ordering::Relaxed)));
    let file = std::fs::File::options().create(true).truncate(true).write(true).open(&path)?;
    Ok(StdoutFile { path, file })
}

impl StdoutFile {
    fn read(&self) -> String {
        std::fs::read_to_string(&self.path).unwrap_or_default()
    }
}

impl Drop for StdoutFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

static WORK_ROOT: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_fatal_signal(_signum: i32) {
    // Async-signal-safe: atomic accesses and `kill`. The blocked `wait4`
    // returns once the group dies; the run loop then sees the flag and
    // unwinds through the `WorkDir` guard.
    INTERRUPTED.store(true, Ordering::SeqCst);
    kill_active_group();
}

/// Whether SIGINT or SIGTERM arrived; the run loop stops at the next
/// repetition boundary.
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

/// The work directory of one driver process. Everything a run writes lives
/// under it; dropping the guard kills any campaign still running and
/// removes the tree, on normal return and on unwinding alike.
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    /// Creates `<base>/paraspace-e2e.<pid>` and installs the SIGINT/SIGTERM
    /// handler that kills the running campaign and raises [`interrupted`].
    ///
    /// # Errors
    ///
    /// Filesystem errors creating the directory.
    pub fn create(base: &Path) -> io::Result<WorkDir> {
        let root = base.join(format!("paraspace-e2e.{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        let _ = WORK_ROOT.set(root.clone());
        let handler: extern "C" fn(i32) = on_fatal_signal;
        // SAFETY: installs an async-signal-safe handler (see
        // `on_fatal_signal`) for two standard signals.
        unsafe {
            signal(SIGINT, handler as *const () as usize);
            signal(SIGTERM, handler as *const () as usize);
        }
        Ok(WorkDir { root })
    }

    pub fn path(&self) -> &Path {
        &self.root
    }

    /// A fresh, empty subdirectory (removed first if it exists).
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn fresh(&self, name: &str) -> io::Result<PathBuf> {
        let p = self.root.join(name);
        if p.exists() {
            std::fs::remove_dir_all(&p)?;
        }
        std::fs::create_dir_all(&p)?;
        Ok(p)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        kill_active_group();
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The filesystem type holding `path`, from the longest matching mount
/// point in `/proc/mounts`; `"unknown"` when that cannot be read.
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (_, mount, fs) = (it.next()?, it.next()?, it.next()?);
            path.starts_with(mount).then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sleeper_alive(pid: i32) -> bool {
        // SAFETY: signal 0 only probes for existence.
        unsafe { kill(pid, 0) == 0 }
    }

    /// A campaign that outlives its deadline is killed with its whole
    /// process group (the grandchild too) and reported as timed out; the
    /// guard kills a campaign still running when it drops and leaves
    /// nothing on disk.
    #[test]
    fn deadline_and_guard_kill_campaigns_and_clean_up() {
        // Beside the test binary, inside the build directory.
        let exe = std::env::current_exe().unwrap();
        let base = exe.parent().unwrap().join(format!("e2e-sys-test.{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let work = WorkDir::create(&base).unwrap();
        let root = work.path().to_path_buf();
        let pidfile = root.join("grandchild.pid");

        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg(format!("sleep 60 & echo $! > {}; wait", pidfile.display()));
        let run = run_campaign(&mut cmd, Duration::from_millis(300)).unwrap();
        assert!(run.timed_out && !run.success);
        assert!(run.wall_s < 5.0, "deadline must bound the wait, took {}", run.wall_s);

        let grandchild: i32 = std::fs::read_to_string(&pidfile).unwrap().trim().parse().unwrap();
        // The kill is asynchronous; the grandchild is re-parented and
        // reaped by init shortly after.
        let gone = (0..200).any(|_| {
            std::thread::sleep(Duration::from_millis(10));
            !sleeper_alive(grandchild)
        });
        assert!(gone, "grandchild {grandchild} survived the group kill");

        // A campaign inside its deadline reports its cost and output. (One
        // test, because the active-group slot is process-global.)
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg("echo hello; exit 0");
        let run = run_campaign(&mut cmd, Duration::from_secs(10)).unwrap();
        assert!(run.success && !run.timed_out);
        assert_eq!(run.stdout.trim(), "hello");
        assert!(run.peak_rss_mb > 0.0);

        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg("exit 3");
        assert!(!run_campaign(&mut cmd, Duration::from_secs(10)).unwrap().success);

        // Dropping the guard — what a panic or an interrupt unwinds through
        // — kills a campaign that is still running and removes the tree.
        let sleeper = std::thread::spawn(|| {
            let mut cmd = Command::new("sleep");
            cmd.arg("60");
            run_campaign(&mut cmd, Duration::from_secs(30)).unwrap()
        });
        while ACTIVE_GROUP.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(work);
        let killed = sleeper.join().unwrap();
        assert!(!killed.success && !killed.timed_out && killed.wall_s < 10.0);
        assert!(!root.exists(), "guard must remove the work directory");
        std::fs::remove_dir_all(&base).unwrap();
    }
}
