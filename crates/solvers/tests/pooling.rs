//! Workspace-pooling guarantees, verified two ways:
//!
//! 1. **Bitwise identity** — `solve_pooled` must reproduce `solve` exactly
//!    (same trajectories, same step statistics), including when the scratch
//!    is reused across systems of different dimensions and solver families.
//! 2. **Zero per-step allocation** — with a counting global allocator, a
//!    pooled DOPRI5/RADAU5 integration that takes ~an order of magnitude
//!    more steps must not allocate more (DOPRI5: exactly equal; RADAU5: only
//!    the pivot vectors of genuine re-factorization events, which the test
//!    bounds by the measured LU count), and neither may a lockstep
//!    `Radau5Batch` group that runs ~an order of magnitude more Newton
//!    iterations (exactly equal: its factors, and the column each lane
//!    solve gathers into, live in the pooled scratch).
//!
//! Tests share one process-global allocator counter, so every test that
//! measures or mutates allocation state serializes on `TEST_LOCK`.

use paraspace_solvers::{
    AdamsMoulton, BatchOdeSystem, BatchState, Bdf, Dopri5, FnSystem, Lsoda, OdeSolver, Radau5,
    Radau5Batch, SolverOptions, SolverScratch, Vode,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn count_allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Minimum allocation count over `repeats` runs of `f`. The solver's own
/// allocations are deterministic per solve, but the counter is
/// process-global and the libtest harness threads allocate concurrently
/// (output capture, result plumbing), occasionally landing inside a
/// counting window. That noise is strictly additive, so the minimum of a
/// few repeats recovers the solver's true count.
fn min_allocations(repeats: usize, mut f: impl FnMut()) -> usize {
    (0..repeats).map(|_| count_allocations(&mut f)).min().unwrap()
}

/// Forced stiff oscillation: step size stays bounded by the forcing, so the
/// step count scales with the integration window.
fn forced_stiff() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
    FnSystem::new(1, |t, y, d| d[0] = -1e4 * (y[0] - t.cos()))
}

/// Mildly stiff variant every solver (including DOPRI5, whose stiffness
/// detector aborts on the full-strength version) integrates successfully.
fn forced_mild() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
    FnSystem::new(1, |t, y, d| d[0] = -50.0 * (y[0] - t.cos()))
}

fn oscillator() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
    FnSystem::new(2, |_t, y, d| {
        d[0] = y[1];
        d[1] = -y[0];
    })
}

fn sample_times(t_end: f64, count: usize) -> Vec<f64> {
    (1..=count).map(|i| t_end * i as f64 / count as f64).collect()
}

#[test]
fn pooled_solve_is_bitwise_identical_for_every_solver() {
    let _guard = lock();
    let solvers: Vec<Box<dyn OdeSolver>> = vec![
        Box::new(Dopri5::new()),
        Box::new(Radau5::new()),
        Box::new(AdamsMoulton::new()),
        Box::new(Bdf::new()),
        Box::new(Lsoda::new()),
        Box::new(Vode::new()),
    ];
    let sys = oscillator();
    let stiff = forced_mild();
    let times = sample_times(5.0, 7);
    let opts = SolverOptions { max_steps: 200_000, ..SolverOptions::default() };
    let mut scratch = SolverScratch::new();
    for solver in &solvers {
        // Non-stiff then stiff through the SAME scratch: exercises reuse
        // across dimension changes (2 -> 1) and solver families.
        for (system, y0) in
            [(&sys as &dyn paraspace_solvers::OdeSystem, &[1.0, 0.0][..]), (&stiff, &[0.5][..])]
        {
            let fresh = solver.solve(system, 0.0, y0, &times, &opts).unwrap();
            let pooled = solver.solve_pooled(system, 0.0, y0, &times, &opts, &mut scratch).unwrap();
            assert_eq!(fresh.times, pooled.times, "{}: sample times differ", solver.name());
            assert_eq!(
                fresh.states,
                pooled.states,
                "{}: pooled trajectory must be bitwise identical",
                solver.name()
            );
            assert_eq!(
                fresh.stats,
                pooled.stats,
                "{}: pooled step statistics must be identical",
                solver.name()
            );
        }
    }
}

#[test]
fn repeated_pooled_solves_stay_identical() {
    let _guard = lock();
    // The 10th pooled solve through one scratch must equal the 1st: reused
    // buffers carry no state between integrations.
    let sys = forced_mild();
    let times = sample_times(2.0, 5);
    let opts = SolverOptions::default();
    for solver in [&Dopri5::new() as &dyn OdeSolver, &Radau5::new()] {
        let mut scratch = SolverScratch::new();
        let first = solver.solve_pooled(&sys, 0.0, &[0.5], &times, &opts, &mut scratch).unwrap();
        for _ in 0..9 {
            let again =
                solver.solve_pooled(&sys, 0.0, &[0.5], &times, &opts, &mut scratch).unwrap();
            assert_eq!(first.states, again.states, "{}: drift across reuses", solver.name());
            assert_eq!(first.stats, again.stats, "{}", solver.name());
        }
    }
}

#[test]
fn dopri5_steady_state_allocates_nothing_per_step() {
    let _guard = lock();
    // Same problem, same sample count, ~10x the steps: if the per-step loop
    // is allocation-free, the counts must be EQUAL (all remaining
    // allocations are per-solve: output vectors, initial-step probe).
    let sys = oscillator();
    let opts = SolverOptions::default();
    let short = sample_times(10.0, 4);
    let long = sample_times(100.0, 4);
    let mut scratch = SolverScratch::new();
    let solver = Dopri5::new();
    // Warm the scratch to steady state.
    solver.solve_pooled(&sys, 0.0, &[1.0, 0.0], &long, &opts, &mut scratch).unwrap();

    let mut stats_short = None;
    let allocs_short = min_allocations(3, || {
        stats_short = Some(
            solver.solve_pooled(&sys, 0.0, &[1.0, 0.0], &short, &opts, &mut scratch).unwrap().stats,
        );
    });
    let mut stats_long = None;
    let allocs_long = min_allocations(3, || {
        stats_long = Some(
            solver.solve_pooled(&sys, 0.0, &[1.0, 0.0], &long, &opts, &mut scratch).unwrap().stats,
        );
    });
    let (stats_short, stats_long) = (stats_short.unwrap(), stats_long.unwrap());
    assert!(
        stats_long.steps >= 5 * stats_short.steps,
        "long run must take many more steps ({} vs {})",
        stats_long.steps,
        stats_short.steps
    );
    assert_eq!(
        allocs_long, allocs_short,
        "dopri5 allocations must not scale with step count \
         ({allocs_short} allocs / {} steps vs {allocs_long} allocs / {} steps)",
        stats_short.steps, stats_long.steps
    );
}

#[test]
fn radau5_steady_state_allocates_only_on_refactorization() {
    let _guard = lock();
    let sys = forced_stiff();
    let opts = SolverOptions::default();
    let short = sample_times(2.0, 4);
    let long = sample_times(200.0, 4);
    let mut scratch = SolverScratch::new();
    let solver = Radau5::new();
    solver.solve_pooled(&sys, 0.0, &[0.5], &long, &opts, &mut scratch).unwrap();

    let mut stats_short = None;
    let allocs_short = min_allocations(3, || {
        stats_short = Some(
            solver.solve_pooled(&sys, 0.0, &[0.5], &short, &opts, &mut scratch).unwrap().stats,
        );
    });
    let mut stats_long = None;
    let allocs_long = min_allocations(3, || {
        stats_long =
            Some(solver.solve_pooled(&sys, 0.0, &[0.5], &long, &opts, &mut scratch).unwrap().stats);
    });
    let (stats_short, stats_long) = (stats_short.unwrap(), stats_long.unwrap());
    assert!(
        stats_long.steps >= 5 * stats_short.steps,
        "long run must take many more steps ({} vs {})",
        stats_long.steps,
        stats_short.steps
    );
    // Iteration-matrix storage is reclaimed, so a re-factorization costs
    // only the LU pivot vectors: bound the allocation growth by the extra
    // factorizations instead of the ~10x extra steps.
    let extra_lu = stats_long.lu_decompositions.saturating_sub(stats_short.lu_decompositions);
    let budget = allocs_short + 4 * extra_lu;
    assert!(
        allocs_long <= budget,
        "radau5 allocations must scale with re-factorizations, not steps: \
         {allocs_long} allocs / {} steps (budget {budget}: {allocs_short} base + 4*{extra_lu} LU)",
        stats_long.steps
    );
}

/// A lane family of forced stiff two-component systems, member `m` with its
/// own stiffness `λ_m`:
///
///   dy0/dt = −λ·(y0 − cos t) + y1 / 2
///   dy1/dt = y0 − y1
///
/// The forcing bounds the step size, so the Newton iteration count scales
/// with the integration window; the coupling makes every iteration matrix
/// a full 2 × 2.
struct ForcedStiffFamily {
    lambdas: Vec<f64>,
    bound: Vec<f64>,
}

impl BatchOdeSystem for ForcedStiffFamily {
    fn dim(&self) -> usize {
        2
    }
    fn lanes(&self) -> usize {
        self.bound.len()
    }
    fn members(&self) -> usize {
        self.lambdas.len()
    }
    fn initial_state(&self, _member: usize, y0: &mut [f64]) {
        y0.copy_from_slice(&[0.5, 0.0]);
    }
    fn bind_lane(&mut self, lane: usize, member: usize) {
        self.bound[lane] = self.lambdas[member];
    }
    fn rhs_batch(&mut self, t: &[f64], y: &BatchState, dydt: &mut BatchState) {
        for (l, &lambda) in self.bound.iter().enumerate() {
            let (y0, y1) = (y.at(0, l), y.at(1, l));
            dydt.set(0, l, -lambda * (y0 - t[l].cos()) + 0.5 * y1);
            dydt.set(1, l, y0 - y1);
        }
    }
    fn supports_jacobian_batch(&self) -> bool {
        true
    }
    fn jacobian_batch(&mut self, _t: &[f64], _y: &BatchState, jac: &mut [f64]) {
        let lanes = self.bound.len();
        for (l, &lambda) in self.bound.iter().enumerate() {
            for (entry, value) in [-lambda, 0.5, 1.0, -1.0].into_iter().enumerate() {
                jac[entry * lanes + l] = value;
            }
        }
    }
}

#[test]
fn radau5_batch_steady_state_allocates_nothing_per_newton_iteration() {
    let _guard = lock();
    let opts = SolverOptions::default();
    let short = sample_times(2.0, 4);
    let long = sample_times(100.0, 4);
    let mut family =
        ForcedStiffFamily { lambdas: vec![1e3, 3e3, 1e4, 3e4, 1e5], bound: vec![0.0; 4] };
    let mut scratch = SolverScratch::new();
    let solver = Radau5Batch::new();
    // Warm the scratch to steady state.
    solver.solve_group(&mut family, 0.0, &long, &opts, &mut scratch);

    let mut solve = |times: &[f64]| {
        let mut newton_iters = 0;
        let allocs = min_allocations(3, || {
            let (results, _) = solver.solve_group(&mut family, 0.0, times, &opts, &mut scratch);
            newton_iters = results.iter().map(|r| r.as_ref().unwrap().stats.nonlinear_iters).sum();
        });
        (allocs, newton_iters)
    };
    let (allocs_short, iters_short) = solve(&short);
    let (allocs_long, iters_long) = solve(&long);
    assert!(
        iters_long >= 5 * iters_short,
        "long run must take many more Newton iterations ({iters_long} vs {iters_short})"
    );
    assert_eq!(
        allocs_long, allocs_short,
        "radau5 lane-group allocations must not scale with Newton iterations \
         ({allocs_short} allocs / {iters_short} iterations vs \
         {allocs_long} allocs / {iters_long} iterations)"
    );
}
