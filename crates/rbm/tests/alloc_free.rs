//! Building and cloning a model costs allocations per species, not per
//! reaction.
//!
//! A PSA builds one model per grid point, so a heap allocation per
//! reaction side is paid thousands of times per member. Reaction sides
//! are stored inline; this binary counts the allocations a build and a
//! clone make on the test's own thread with a counting global allocator,
//! and holds them to a bound linear in the species count.

use paraspace_models::autophagy;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// `Some(n)` while this thread counts: `n` allocations so far.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn tally() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tally touches only a
// const-initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT.with(|c| c.replace(None)).expect("counting was on");
    (out, n)
}

#[test]
fn building_and_cloning_a_model_allocate_per_species_not_per_reaction() {
    let (model, built) = counted(|| autophagy::scaled_model(1e3, 1e-7, 0.25));
    let (copy, cloned) = counted(|| model.clone());
    let (n, m) = (model.n_species(), model.n_reactions());
    assert_eq!(copy, model);
    assert!(
        built <= 4 * n + 64,
        "building {n} species x {m} reactions made {built} allocations (bound {})",
        4 * n + 64
    );
    assert!(
        cloned <= 2 * n + 16,
        "cloning {n} species x {m} reactions made {cloned} allocations (bound {})",
        2 * n + 16
    );
}
