//! The lane-batched kernels allocate nothing: every buffer they touch is
//! the caller's. The twin of `paraspace-solvers`' `tests/pooling.rs` for
//! the kernels under the lockstep solvers — one Jacobian per lane group and
//! refresh used to allocate and zero-fill its `slots × L` derivative table.
//!
//! Counted with a process-global allocator, so the test holds the only
//! counting window of this binary.

use paraspace_models::autophagy;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Minimum allocation count over a few runs of `f`: the libtest harness
/// allocates on its own threads now and then, which only ever adds.
fn min_allocations(mut f: impl FnMut()) -> usize {
    (0..3)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            f();
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .min()
        .unwrap()
}

#[test]
fn lane_kernels_allocate_nothing() {
    let model = autophagy::scaled_model(1e3, 1e-7, 0.25);
    let odes = model.compile().unwrap();
    let (n, m, slots) = (odes.n_species(), odes.n_reactions(), odes.n_reactant_slots());
    // A fixed-width route and the slice-row route.
    for lanes in [4, 5] {
        let block = |base: &[f64]| -> Vec<f64> {
            base.iter()
                .flat_map(|&v| (0..lanes).map(move |l| v * (1.0 + 0.01 * l as f64)))
                .collect()
        };
        let (x, k) = (block(&model.initial_state()), block(&model.rate_constants()));
        let (mut flux, mut dxdt) = (vec![0.0; m * lanes], vec![0.0; n * lanes]);
        let (mut d, mut jac) = (vec![0.0; slots * lanes], vec![0.0; n * n * lanes]);
        let allocations = min_allocations(|| {
            for _ in 0..8 {
                odes.rhs_batch(lanes, &x, &k, &mut flux, &mut dxdt);
                odes.jacobian_batch(lanes, &x, &k, &mut d, &mut jac);
            }
        });
        assert_eq!(allocations, 0, "width {lanes}");
    }
}
