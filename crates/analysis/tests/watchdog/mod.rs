//! A deadline for every campaign the dispatch suites run. Past it the
//! watchdog trips the campaign's cancellation token, so a livelocked
//! coordinator or worker ends in `CampaignError::Interrupted { completed,
//! shards, .. }`, printed by the failing test, instead of hanging it.

use std::path::Path;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

use paraspace_analysis::campaign::Checkpoint;

/// Far longer than any campaign of these suites takes on a loaded host.
const DEADLINE: Duration = Duration::from_secs(120);

/// Stands the watchdog down when dropped.
pub struct Watchdog {
    stand_down: Option<mpsc::Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        drop(self.stand_down.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A checkpoint in `dir` whose token the returned watchdog trips once
/// [`DEADLINE`] passes.
pub fn watched(dir: &Path) -> (Checkpoint, Watchdog) {
    let checkpoint = Checkpoint::new(dir);
    let token = checkpoint.cancel_token().clone();
    let (stand_down, stood_down) = mpsc::channel::<()>();
    let thread = std::thread::spawn(move || {
        if stood_down.recv_timeout(DEADLINE) == Err(RecvTimeoutError::Timeout) {
            token.cancel();
        }
    });
    (checkpoint, Watchdog { stand_down: Some(stand_down), thread: Some(thread) })
}
