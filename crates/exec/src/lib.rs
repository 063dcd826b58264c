//! Deterministic host-parallel batch executor.
//!
//! The paper's workloads — parameter-space grids, Saltelli sampling, swarm
//! generations — are batches of *independent* simulations, so the batch
//! dimension parallelizes embarrassingly across host cores. This crate
//! provides the one primitive every engine needs: run `f(i)` for
//! `i in 0..n` on a pool of scoped worker threads and hand back the results
//! **in index order**, so downstream reductions (timeline accounting,
//! f64 accumulation, output serialization) happen in a fixed sequential
//! order and the observable result is bitwise identical at any thread
//! count.
//!
//! Work distribution is dynamic self-scheduling: workers repeatedly claim
//! the next unclaimed index from a shared atomic counter, which
//! load-balances heterogeneous batches (stiff members can cost orders of
//! magnitude more than non-stiff ones) the same way work stealing does for
//! independent items, without any inter-worker queues.
//!
//! # Determinism
//!
//! [`Executor::map`] and [`Executor::map_with`] guarantee: the value at
//! index `i` of the returned `Vec` depends only on `f` and `i`, never on
//! the thread count or claim order. Engines keep *all* order-sensitive
//! state (simulated timelines, accumulated statistics) on the calling
//! thread and fold the returned slots in index order. With `threads == 1`
//! (or `n <= 1`) the executor runs inline on the calling thread — no pool,
//! no spawn — which is exactly the legacy sequential path.
//!
//! # Fault containment
//!
//! Batches at parameter-space scale contain hostile members — divergent
//! parameterizations, panicking user systems — and one poisoned item must
//! not sink the other thousand. [`Executor::try_map_with_cancel`] runs every
//! item under [`std::panic::catch_unwind`] and returns a per-index
//! `Result<T, ItemPanic>`: panicking items yield a failed slot carrying the
//! index and the panic payload, all other slots complete normally, and a
//! worker whose private state may have been corrupted by the unwind
//! rebuilds it before claiming the next index. [`Executor::map_with`] is a
//! thin wrapper that resumes the first (lowest-index) panic on the calling
//! thread, so the abort-on-panic contract survives but the diagnostic now
//! names the faulting index.
//!
//! # Cooperative cancellation
//!
//! Durable campaigns must be killable without aborting members mid-step: a
//! SIGINT should drain the simulations already claimed by workers and then
//! stop cleanly, leaving the batch either wholly observed or wholly
//! discarded. [`Executor::try_map_with_cancel`] takes a shared
//! [`CancelToken`] and checks it at *item boundaries*: once the token
//! trips, workers stop claiming new indices, in-flight items run to
//! completion, and the call returns `Err(`[`Cancelled`]`)` with every
//! partial result dropped. Because batches are deterministic and
//! idempotent, a discarded batch simply re-executes on resume — which is
//! the property the journal layer's exact-resume guarantee is built on.
//!
//! # Lockstep phases
//!
//! [`Executor::lockstep_phase`] is the one lockstep phase of the workspace
//! (the fine-coarse engine's DOPRI5 and RADAU5 phases, the tau-leaping
//! ensemble): every member runs in one lane group per worker, all refilling
//! their lanes from one shared cursor that the token closes, and the values
//! come back in list order. A panic inside a group is contained: the
//! members that group held run one at a time, and a fresh group takes the
//! rest of the queue. Lane width is a scheduling choice only, never part of
//! a result; the widest group is [`MAX_LANE_WIDTH`].
//!
//! # Example
//!
//! ```
//! use paraspace_exec::Executor;
//!
//! let seq = Executor::sequential();
//! let par = Executor::new(4);
//! let square = |i: usize| (i * i) as u64;
//! assert_eq!(seq.map(1000, square), par.map(1000, square));
//! ```

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// The widest lane group a lockstep phase runs: the width both lane
/// families (the ODE kernels and tau-leaping) run at unless pinned or
/// narrowed.
pub const MAX_LANE_WIDTH: usize = 8;

/// A contained panic from one work item.
///
/// Carries the item index and the stringified panic payload so callers can
/// report *which* member of a batch faulted and why, instead of aborting
/// the whole run with an opaque poisoned-lock message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemPanic {
    /// The index of the work item that panicked.
    pub index: usize,
    /// The panic payload, stringified (`&str` and `String` payloads are
    /// preserved verbatim; anything else becomes a placeholder).
    pub message: String,
}

impl std::fmt::Display for ItemPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "work item {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for ItemPanic {}

/// Stringifies a `catch_unwind` payload (`&str` and `String` payloads are
/// preserved verbatim; anything else becomes a placeholder). Shared with
/// callers that run their own member-level containment.
pub fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A shared flag requesting cooperative shutdown of batch work.
///
/// Clones share one flag (it is an `Arc` of an atomic), so a single token
/// can be handed to every engine in a campaign and tripped once — from a
/// signal handler, a watchdog thread, or a test harness. Setting the flag
/// is async-signal-safe (a relaxed atomic store, no allocation, no locks),
/// which is what lets a SIGINT handler trip it directly.
///
/// The executor checks the token only *between* items: work that has
/// already been claimed runs to completion, so no member is ever observed
/// half-integrated.
///
/// A token carries no clock: it trips only when someone calls
/// [`cancel`](Self::cancel). A dispatch worker that learns from a
/// heartbeat answer that its lease was lost cancels that shard's token the
/// same way.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token view over an external flag (e.g. a `static` set by a signal
    /// handler).
    #[must_use]
    pub fn from_flag(flag: Arc<AtomicBool>) -> Self {
        CancelToken { flag }
    }

    /// Request cancellation. Idempotent, async-signal-safe, and visible to
    /// every clone of this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// The batch was cancelled before every item completed; all partial
/// results were discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch cancelled before completion")
    }
}

impl std::error::Error for Cancelled {}

/// An index-addressed result slot written by exactly one worker.
///
/// The executor's claim protocol (a shared atomic cursor handing out
/// disjoint indices) guarantees each slot is written at most once, by the
/// worker that claimed its index, and read only after `thread::scope` has
/// joined every worker — so plain `UnsafeCell` storage is sound and the
/// slot cannot be poisoned by a worker panic the way a `Mutex` can.
struct Slot<T>(UnsafeCell<Option<T>>);

impl<T> Slot<T> {
    fn empty() -> Self {
        Slot(UnsafeCell::new(None))
    }

    /// Writes the slot's value.
    ///
    /// # Safety
    ///
    /// The caller must be the unique claimant of this slot's index: no
    /// other thread may access the slot until the writing thread has been
    /// joined.
    unsafe fn fill(&self, value: T) {
        *self.0.get() = Some(value);
    }

    fn into_inner(self) -> Option<T> {
        self.0.into_inner()
    }
}

// SAFETY: slots are written by at most one worker (disjoint-index claims)
// and read only after scope join, which provides the happens-before edge.
unsafe impl<T: Send> Sync for Slot<T> {}

/// A deterministic batch executor over a fixed number of worker threads.
///
/// Cheap to construct (no threads live between calls): each [`map`] call
/// spawns scoped workers that die when the batch completes, so an
/// `Executor` is plain configuration and can be copied freely into engine
/// builders.
///
/// [`map`]: Executor::map
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    /// One worker per available core.
    fn default() -> Self {
        Executor::new(0)
    }
}

impl Executor {
    /// An executor with `threads` workers; `0` means one per available
    /// core.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 { available_cores() } else { threads };
        Executor { threads }
    }

    /// The inline, no-spawn executor (exactly the legacy sequential path).
    pub fn sequential() -> Self {
        Executor { threads: 1 }
    }

    /// The number of workers this executor uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(i)` for every `i in 0..n` and returns the results in index
    /// order.
    ///
    /// # Panics
    ///
    /// If any item panics, the first (lowest-index) panic is resumed on the
    /// calling thread after all items have run; see
    /// [`map_with`](Executor::map_with).
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.map_with(n, || (), |(), i| f(i))
    }

    /// Like [`map`](Executor::map), but each worker first builds private
    /// state with `init` (a scratch workspace, a shard, a solver pool) that
    /// `f` can mutate freely.
    ///
    /// `init` runs once per worker, on that worker's thread. The returned
    /// vector is in index order regardless of which worker computed which
    /// index.
    ///
    /// # Panics
    ///
    /// If any item panics, every other item still runs to completion and
    /// the lowest-index panic is then re-raised on the calling thread with
    /// the faulting index in the message. Callers that must survive
    /// hostile items use
    /// [`try_map_with_cancel`](Executor::try_map_with_cancel).
    pub fn map_with<S, T, I, F>(&self, n: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        let mut out = Vec::with_capacity(n);
        for result in self.try_map_with(n, init, f) {
            match result {
                Ok(value) => out.push(value),
                Err(fault) => panic!("{fault}"),
            }
        }
        out
    }

    /// [`try_map_with_cancel`](Executor::try_map_with_cancel) under a token
    /// nothing trips.
    fn try_map_with<S, T, I, F>(&self, n: usize, init: I, f: F) -> Vec<Result<T, ItemPanic>>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        self.try_map_with_cancel(n, &CancelToken::new(), init, f)
            .expect("a fresh token is never cancelled")
    }

    /// The fault-contained, cancellable variant of
    /// [`map_with`](Executor::map_with).
    ///
    /// Every item runs under [`catch_unwind`], and the slot of a panicking
    /// item holds an [`ItemPanic`] (index + payload message) instead of
    /// aborting the batch. A worker whose item panicked rebuilds its private
    /// state with `init` before claiming the next index, since the unwind
    /// may have left the state half-mutated. Slot order and values remain
    /// bitwise deterministic across thread counts: which items fault and
    /// what they return depends only on `f` and the index.
    ///
    /// Workers consult `cancel` before claiming each index. Once the token
    /// trips, no further items start; items already in flight *drain* —
    /// they run to completion rather than being aborted mid-integration —
    /// and the whole batch then returns `Err(Cancelled)` with every
    /// partial result discarded. Batches are deterministic, so a discarded
    /// batch re-executes identically later; returning partial output would
    /// instead leak a nondeterministic subset (which indices completed
    /// depends on claim timing).
    ///
    /// When the batch completes before the token trips, the result is
    /// bitwise deterministic across thread counts. A token that is already
    /// tripped on entry yields `Err(Cancelled)` without running anything
    /// (`n == 0` still succeeds with an empty vector).
    pub fn try_map_with_cancel<S, T, I, F>(
        &self,
        n: usize,
        cancel: &CancelToken,
        init: I,
        f: F,
    ) -> Result<Vec<Result<T, ItemPanic>>, Cancelled>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        if n == 0 {
            return Ok(Vec::new());
        }
        if cancel.is_cancelled() {
            return Err(Cancelled);
        }
        let workers = self.threads.min(n);
        if workers <= 1 {
            let mut state = init();
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                if cancel.is_cancelled() {
                    return Err(Cancelled);
                }
                let attempt = catch_unwind(AssertUnwindSafe(|| f(&mut state, i)));
                out.push(attempt.map_err(|payload| {
                    state = init();
                    ItemPanic { index: i, message: payload_message(payload.as_ref()) }
                }));
            }
            return Ok(out);
        }

        // Each worker claims indices from the shared cursor and deposits
        // results into the index-addressed slot vector; the calling thread
        // reassembles in order afterwards.
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Slot<Result<T, ItemPanic>>> = (0..n).map(|_| Slot::empty()).collect();

        std::thread::scope(|scope| {
            let spawn_worker = |_| {
                scope.spawn(|| {
                    // One index per claim: items are heavyweight (a whole
                    // integration), so the finest grain balances best.
                    let mut state = init();
                    while !cancel.is_cancelled() {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(i) else { break };
                        let attempt = catch_unwind(AssertUnwindSafe(|| f(&mut state, i)));
                        let result = attempt.map_err(|payload| {
                            state = init();
                            ItemPanic { index: i, message: payload_message(payload.as_ref()) }
                        });
                        // SAFETY: index `i` was claimed by this worker alone;
                        // the slot is read only after scope join.
                        unsafe { slot.fill(result) };
                    }
                })
            };
            // Joined, not left to the scope's own wait: that one returns
            // when the closures have finished, while the OS threads are
            // still exiting and still hold their allocator arenas — the
            // next batch's workers would then be given fresh ones, and a
            // run of back-to-back batches grows the process.
            let handles: Vec<_> = (0..workers).map(spawn_worker).collect();
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });

        let mut out = Vec::with_capacity(n);
        for slot in slots {
            match slot.into_inner() {
                Some(result) => out.push(result),
                // An empty slot means a worker observed the cancellation
                // before claiming this index; the batch is incomplete and
                // every partial result is discarded.
                None => return Err(Cancelled),
            }
        }
        Ok(out)
    }

    /// Runs one lockstep phase over the distinct `members`, listed in the
    /// order their values come back, expensive ones first. At `width ≥ 2`
    /// every member runs in a lane group of `width`, narrowed to the member
    /// count: at most one group per worker, each a call of
    /// `group(lanes, next)` that pulls members from one shared cursor until
    /// it answers `None` and returns `(member, value)` for each of them.
    /// Below width 2 every member runs one at a time as
    /// `single(state, member)` on a per-worker `init` state, as in
    /// [`try_map_with_cancel`](Self::try_map_with_cancel).
    ///
    /// A panic inside a group is contained: the members that group pulled
    /// run as `single`s on its worker, which then opens a fresh group on
    /// what is left of the queue. `single` must give a member the value a
    /// group gives it, so the values do not show which route ran a member.
    ///
    /// Returns one value per member **in list order**, or `Err(Cancelled)`
    /// once `cancel` trips: the cursor then answers `None`, the groups drain
    /// what they hold, no single member starts, and the partial values are
    /// discarded. A panic escaping `single` is resumed here.
    ///
    /// ```
    /// use paraspace_exec::{CancelToken, Executor};
    ///
    /// let squares = Executor::new(2).lockstep_phase(
    ///     &CancelToken::new(),
    ///     &[7, 3, 9],
    ///     2,
    ///     |_lanes, next| std::iter::from_fn(next).map(|i| (i, i * i)).collect(),
    ///     || (),
    ///     |(), member| member * member,
    /// );
    /// assert_eq!(squares, Ok(vec![49, 9, 81]));
    /// ```
    pub fn lockstep_phase<T: Send, S>(
        &self,
        cancel: &CancelToken,
        members: &[usize],
        width: usize,
        group: impl Fn(usize, &mut dyn FnMut() -> Option<usize>) -> Vec<(usize, T)> + Sync,
        init: impl Fn() -> S + Sync,
        single: impl Fn(&mut S, usize) -> T + Sync,
    ) -> Result<Vec<T>, Cancelled> {
        if width < 2 {
            let values = self.try_map_with_cancel(members.len(), cancel, init, |state, k| {
                single(state, members[k])
            })?;
            return Ok(values
                .into_iter()
                .map(|value| value.unwrap_or_else(|fault| panic!("{fault}")))
                .collect());
        }

        // The cursor publishes nothing but itself (the members and whatever
        // `group` borrows are shared before any worker starts): relaxed.
        let cursor = AtomicUsize::new(0);
        let next = || {
            if cancel.is_cancelled() {
                return None;
            }
            members.get(cursor.fetch_add(1, Ordering::Relaxed)).copied()
        };
        let lanes = width.min(members.len()).max(1);
        let groups = self.threads.min(members.len().div_ceil(lanes));
        // One worker's groups, until one ends without a panic; the members
        // a panicking group pulled are run as singles.
        let worker = |(): &mut (), _| {
            let (mut values, mut state) = (Vec::new(), None);
            loop {
                let mut pulled = Vec::new();
                let settled = catch_unwind(AssertUnwindSafe(|| {
                    group(lanes, &mut || next().inspect(|&i| pulled.push(i)))
                }));
                match settled {
                    Ok(settled) => {
                        values.extend(settled);
                        return values;
                    }
                    // A group that fails before it holds a member would
                    // fail again: nothing of it is a member's fault.
                    Err(payload) if pulled.is_empty() => std::panic::resume_unwind(payload),
                    Err(_) => {}
                }
                let state = state.get_or_insert_with(&init);
                for i in pulled {
                    if cancel.is_cancelled() {
                        return values;
                    }
                    values.push((i, single(state, i)));
                }
            }
        };
        let settled = self.try_map_with_cancel(groups, cancel, || (), worker)?;
        let first = members.iter().min().copied().unwrap_or(0);
        let span = members.iter().max().map_or(0, |&last| last + 1 - first);
        let mut by_member: Vec<Option<T>> = (0..span).map(|_| None).collect();
        for values in settled {
            for (member, value) in values.unwrap_or_else(|fault| panic!("{fault}")) {
                by_member[member - first] = Some(value);
            }
        }
        // A member nobody returned means the cursor refused it: cancelled.
        members.iter().map(|&i| by_member[i - first].take().ok_or(Cancelled)).collect()
    }
}

/// The number of cores the OS reports, with a safe fallback of 1.
fn available_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_returns_index_order() {
        for threads in [1, 2, 4, 7] {
            let exec = Executor::new(threads);
            let out = exec.map(100, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn zero_threads_means_all_cores() {
        assert!(Executor::new(0).threads() >= 1);
        assert_eq!(Executor::sequential().threads(), 1);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // A mildly expensive, purely index-determined computation.
        let work = |i: usize| {
            let mut acc = i as f64 + 1.0;
            for _ in 0..2_000 {
                acc = (acc * 1.000_1).sin().abs() + i as f64 * 1e-9;
            }
            acc.to_bits()
        };
        let reference = Executor::sequential().map(64, work);
        for threads in [2, 4, 8] {
            assert_eq!(Executor::new(threads).map(64, work), reference, "threads={threads}");
        }
    }

    #[test]
    fn worker_state_is_private_and_reused() {
        // Each worker counts its own invocations; totals must cover all
        // indices exactly once.
        let exec = Executor::new(4);
        let out = exec.map_with(
            200,
            || 0usize,
            |calls, i| {
                *calls += 1;
                // Record the running per-worker call count on the last item
                // the worker happens to process; the sum of per-index
                // outputs being 0..200 exactly is checked below.
                i
            },
        );
        assert_eq!(out, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_tiny_batches() {
        let exec = Executor::new(8);
        assert_eq!(exec.map(0, |i| i), Vec::<usize>::new());
        assert_eq!(exec.map(1, |i| i + 10), vec![10]);
        assert_eq!(exec.map(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn propagates_worker_panics() {
        let exec = Executor::new(2);
        let result = std::panic::catch_unwind(|| {
            exec.map(16, |i| {
                if i == 7 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn map_with_panic_names_the_faulting_index() {
        for threads in [1, 4] {
            let exec = Executor::new(threads);
            let result = std::panic::catch_unwind(|| {
                exec.map(16, |i| {
                    if i == 11 {
                        panic!("poisoned member");
                    }
                    i
                })
            });
            let payload = result.expect_err("panic must propagate");
            let message = payload_message(payload.as_ref());
            assert!(
                message.contains("work item 11") && message.contains("poisoned member"),
                "threads={threads}: {message}"
            );
        }
    }

    #[test]
    fn try_map_with_contains_panics_per_index() {
        for threads in [1, 2, 4, 8] {
            let exec = Executor::new(threads);
            let out = exec.try_map_with(
                64,
                || 0usize,
                |calls, i| {
                    *calls += 1;
                    if i % 13 == 5 {
                        panic!("fault at {i}");
                    }
                    i * 2
                },
            );
            assert_eq!(out.len(), 64, "threads={threads}");
            for (i, slot) in out.iter().enumerate() {
                if i % 13 == 5 {
                    let fault = slot.as_ref().expect_err("injected panic must be contained");
                    assert_eq!(fault.index, i);
                    assert_eq!(fault.message, format!("fault at {i}"));
                } else {
                    assert_eq!(slot.as_ref().unwrap(), &(i * 2), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn try_map_with_is_bitwise_stable_across_thread_counts() {
        let work = |state: &mut u64, i: usize| {
            *state += 1;
            if i == 9 || i == 40 {
                panic!("chaos {i}");
            }
            let mut acc = i as f64 + 0.5;
            for _ in 0..500 {
                acc = (acc * 1.000_3).cos().abs() + 1e-6;
            }
            acc.to_bits()
        };
        let reference = Executor::sequential().try_map_with(48, || 0u64, work);
        for threads in [2, 4, 8] {
            let got = Executor::new(threads).try_map_with(48, || 0u64, work);
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn worker_state_is_rebuilt_after_a_contained_panic() {
        // The panicking item increments its private counter before dying;
        // the rebuild must discard that increment, so a subsequent item on
        // the same worker sees fresh state. Observable deterministically on
        // the sequential path.
        let out = Executor::sequential().try_map_with(
            4,
            || 0usize,
            |calls, i| {
                *calls += 1;
                if i == 1 {
                    panic!("die with dirty state");
                }
                *calls
            },
        );
        assert_eq!(out[0], Ok(1));
        assert!(out[1].is_err());
        // Item 2 runs on rebuilt state: its counter restarts at 1.
        assert_eq!(out[2], Ok(1));
        assert_eq!(out[3], Ok(2));
    }

    #[test]
    fn pre_tripped_token_runs_nothing() {
        for threads in [1, 4] {
            let token = CancelToken::new();
            token.cancel();
            let ran = AtomicUsize::new(0);
            let result = Executor::new(threads).try_map_with_cancel(
                32,
                &token,
                || (),
                |(), i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    i
                },
            );
            assert_eq!(result, Err(Cancelled), "threads={threads}");
            assert_eq!(ran.load(Ordering::Relaxed), 0, "threads={threads}");
        }
    }

    #[test]
    fn empty_batch_succeeds_even_when_cancelled() {
        let token = CancelToken::new();
        token.cancel();
        let result = Executor::new(4).try_map_with_cancel(0, &token, || (), |(), i: usize| i);
        assert_eq!(result, Ok(Vec::new()));
    }

    #[test]
    fn untripped_token_matches_try_map_with_bitwise() {
        let work = |state: &mut u64, i: usize| {
            *state += 1;
            if i == 5 {
                panic!("fault");
            }
            ((i as f64 + 0.25).sqrt()).to_bits()
        };
        for threads in [1, 2, 8] {
            let exec = Executor::new(threads);
            let plain = exec.try_map_with(24, || 0u64, work);
            let cancellable =
                exec.try_map_with_cancel(24, &CancelToken::new(), || 0u64, work).unwrap();
            assert_eq!(plain, cancellable, "threads={threads}");
        }
    }

    #[test]
    fn mid_batch_cancellation_discards_partials_and_drains_in_flight() {
        // The token trips partway through; the call must return Err and the
        // item that trips it must still run to completion (drain), which we
        // observe via the side counter.
        for threads in [1, 2, 8] {
            let token = CancelToken::new();
            let completed = AtomicUsize::new(0);
            let result = Executor::new(threads).try_map_with_cancel(
                64,
                &token,
                || (),
                |(), i| {
                    if i == 3 {
                        token.cancel();
                    }
                    // Work *after* the trip still executes: cancellation is
                    // only observed at item boundaries. The sleep gives the
                    // flag store ample time to reach every worker before the
                    // batch could exhaust.
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    completed.fetch_add(1, Ordering::Relaxed);
                    i
                },
            );
            assert_eq!(result, Err(Cancelled), "threads={threads}");
            let done = completed.load(Ordering::Relaxed);
            assert!((1..64).contains(&done), "threads={threads}: {done} items drained");
        }
    }

    #[test]
    fn token_clones_share_one_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
        assert_eq!(Cancelled.to_string(), "batch cancelled before completion");
    }

    /// A lane group of `width` over `next`: each item holds its lane for
    /// `item % 4` ticks, a freed lane pulls the next item at once, and the
    /// items come back as they settle, each with its own value.
    fn lane_group(width: usize, next: &mut dyn FnMut() -> Option<usize>) -> Vec<(usize, usize)> {
        let mut lanes: Vec<Option<(usize, usize)>> = vec![None; width];
        let mut settled = Vec::new();
        let mut exhausted = false;
        loop {
            for lane in lanes.iter_mut().filter(|lane| lane.is_none()) {
                if !exhausted {
                    *lane = next().map(|item| (item, item % 4));
                    exhausted = lane.is_none();
                }
            }
            if lanes.iter().all(Option::is_none) {
                return settled;
            }
            for lane in &mut lanes {
                if let Some((item, left)) = lane {
                    if *left == 0 {
                        settled.push((*item, *item * 3));
                        *lane = None;
                    } else {
                        *left -= 1;
                    }
                }
            }
        }
    }

    #[test]
    fn lockstep_phase_returns_list_order_at_any_width_and_worker_count() {
        // A cost-ordered list of members that do not start at zero; a group
        // that ran below width 2, or a single that ran at width 2, would
        // have to show it.
        let members: Vec<usize> = (0..23).map(|k| 100 + (k * 7) % 23).collect();
        let expected: Vec<usize> = members.iter().map(|&i| i * 3).collect();
        for threads in [1, 2, 4] {
            for width in [1, 2, 3, 8] {
                let got = Executor::new(threads).lockstep_phase(
                    &CancelToken::new(),
                    &members,
                    width,
                    |lanes, next| {
                        assert!(lanes >= 2 && lanes <= width);
                        lane_group(lanes, next)
                    },
                    || (),
                    |(), i| {
                        assert!(width < 2);
                        i * 3
                    },
                );
                assert_eq!(got, Ok(expected.clone()), "threads={threads} width={width}");
            }
        }
        let none = Executor::new(2).lockstep_phase(
            &CancelToken::new(),
            &[],
            4,
            |lanes, next| lane_group(lanes, next),
            || (),
            |(), i| i,
        );
        assert_eq!(none, Ok(Vec::new()));
    }

    /// A phase at `width ≥ 2`, whose members all run in groups.
    fn all_lanes<T: Send>(
        exec: Executor,
        cancel: &CancelToken,
        members: &[usize],
        width: usize,
        group: impl Fn(&mut dyn FnMut() -> Option<usize>) -> Vec<(usize, T)> + Sync,
    ) -> Result<Vec<T>, Cancelled> {
        exec.lockstep_phase(
            cancel,
            members,
            width,
            |_, next| group(next),
            || (),
            |(), _| unreachable!("no group panics"),
        )
    }

    #[test]
    fn lockstep_phase_refuses_every_member_after_the_trip() {
        let queue: Vec<usize> = (0..40).collect();
        for threads in [1, 2] {
            let token = CancelToken::new();
            let (pulled, after_trip) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let result = all_lanes(Executor::new(threads), &token, &queue, 2, |next| {
                lane_group(2, &mut || {
                    let seen = token.is_cancelled();
                    let item = next();
                    if item.is_some() && seen {
                        after_trip.fetch_add(1, Ordering::Relaxed);
                    }
                    if item.is_some() && pulled.fetch_add(1, Ordering::Relaxed) + 1 == 5 {
                        token.cancel();
                    }
                    item
                })
            });
            assert_eq!(result, Err(Cancelled), "threads={threads}");
            assert_eq!(after_trip.into_inner(), 0, "threads={threads}");
        }
        // A token tripped on entry runs no group at all.
        let token = CancelToken::new();
        token.cancel();
        let ran = AtomicUsize::new(0);
        let result = all_lanes(Executor::new(2), &token, &queue, 2, |next| {
            ran.fetch_add(1, Ordering::Relaxed);
            lane_group(2, next)
        });
        assert_eq!((result, ran.into_inner()), (Err(Cancelled), 0));
    }

    #[test]
    fn lockstep_phase_contains_a_group_panic() {
        // The group that pulls member 113 panics after it has settled some
        // of its members: every member it pulled comes back from `single`,
        // every other one from a group — the rest of the queue from a fresh
        // group on the same worker — and all of them in list order.
        let members: Vec<usize> = (0..23).map(|k| 100 + (k * 7) % 23).collect();
        for threads in [1, 2] {
            for width in [2, 4] {
                let opened = AtomicUsize::new(0);
                let panicked = std::sync::Mutex::new(Vec::new());
                let got = Executor::new(threads).lockstep_phase(
                    &CancelToken::new(),
                    &members,
                    width,
                    |lanes, next| {
                        opened.fetch_add(1, Ordering::Relaxed);
                        let mut pulled = Vec::new();
                        let settled = lane_group(lanes, &mut || {
                            let item = next();
                            pulled.extend(item);
                            if item == Some(113) {
                                *panicked.lock().unwrap() = pulled.clone();
                                panic!("lane plumbing");
                            }
                            item
                        });
                        settled.into_iter().map(|(i, value)| (i, (value, "group"))).collect()
                    },
                    || (),
                    |(), i| (i * 3, "single"),
                );
                let at = format!("threads={threads} width={width}");
                let got = got.unwrap();
                let panicked = panicked.into_inner().unwrap();
                assert!(panicked.len() > width, "{at}: the group settled members first");
                for (&i, &(value, route)) in members.iter().zip(&got) {
                    assert_eq!(value, i * 3, "{at}: member {i}");
                    let expected = if panicked.contains(&i) { "single" } else { "group" };
                    assert_eq!(route, expected, "{at}: member {i}");
                }
                let workers = threads.min(members.len().div_ceil(width));
                assert_eq!(opened.into_inner(), workers + 1, "{at}: one fresh group");
            }
        }
    }

    #[test]
    fn lockstep_phase_resumes_a_panic_in_single() {
        let phase = |width: usize| {
            std::panic::catch_unwind(|| {
                Executor::new(2).lockstep_phase(
                    &CancelToken::new(),
                    &[0, 1, 2, 3],
                    width,
                    |lanes, next| {
                        lane_group(lanes, &mut || next().inspect(|&i| assert_ne!(i, 1, "lanes")))
                    },
                    || (),
                    |(), i| {
                        assert_ne!(i, 1, "single plumbing");
                        i
                    },
                )
            })
        };
        // Below width 2, and after the group that met member 1 panicked.
        for width in [1, 2] {
            let message = payload_message(phase(width).expect_err("the panic surfaces").as_ref());
            assert!(message.contains("single plumbing"), "width {width}: {message}");
        }
        // A group that panics before it pulls a member is no member's fault.
        let result = std::panic::catch_unwind(|| {
            let group = |_: &mut dyn FnMut() -> Option<usize>| -> Vec<(usize, ())> {
                panic!("lane plumbing")
            };
            all_lanes(Executor::new(2), &CancelToken::new(), &[0, 1, 2, 3], 2, group)
        });
        let message = payload_message(result.expect_err("the panic surfaces").as_ref());
        assert!(message.contains("lane plumbing"), "{message}");
    }

    #[test]
    fn item_panic_display_and_payload_forms() {
        let fault = ItemPanic { index: 3, message: "bad".into() };
        assert_eq!(fault.to_string(), "work item 3 panicked: bad");
        let out = Executor::sequential().try_map_with(
            1,
            || (),
            |(), _| -> usize { std::panic::panic_any(42usize) },
        );
        assert_eq!(out[0].as_ref().unwrap_err().message, "<non-string panic payload>");
    }
}
