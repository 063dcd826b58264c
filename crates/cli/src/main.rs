//! The `paraspace` binary: parse arguments, dispatch, report errors.
//!
//! SIGINT (Ctrl-C) trips a process-global cancellation token instead of
//! killing the process: every engine and ensemble reads it, so no new
//! member or replicate starts and the ones in flight drain. A durable run
//! then commits its checkpoint and prints the resume command; a run
//! without `--checkpoint-dir` discards the unfinished batch, writes no
//! artifacts, and exits with an error naming the cancellation.

use paraspace_cli::CancelToken;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// The flag the signal handler sets. A handler cannot capture state, so
/// the token's flag is published here before the handler is installed.
static CANCEL_FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

extern "C" fn on_sigint(_signum: i32) {
    // Async-signal-safe: relaxed atomic stores/loads and the kill
    // syscall — no allocation, no locks.
    if let Some(flag) = CANCEL_FLAG.get() {
        flag.store(true, Ordering::Relaxed);
    }
    // A coordinator's spawned workers die with it instead of lingering as
    // orphans that keep heartbeating stale leases until the TTL reaps
    // them; their claimed shards free immediately on the next expiry scan.
    paraspace_cli::kill_registered_children();
}

/// Installs `on_sigint` as the SIGINT disposition via the libc `signal`
/// symbol that `std` already links — no extra dependency.
fn install_sigint_handler() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        let handler: extern "C" fn(i32) = on_sigint;
        unsafe {
            signal(SIGINT, handler as *const () as usize);
        }
    }
}

fn main() -> ExitCode {
    let flag = Arc::new(AtomicBool::new(false));
    let _ = CANCEL_FLAG.set(flag.clone());
    install_sigint_handler();
    let cancel = CancelToken::from_flag(flag);

    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match paraspace_cli::parse(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", paraspace_cli::USAGE);
            return ExitCode::FAILURE;
        }
    };
    let mut stdout = std::io::stdout();
    match paraspace_cli::execute_with_cancel(&cmd, &mut stdout, &cancel) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
