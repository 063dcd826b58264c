//! Kernel workload descriptors.
//!
//! Engines describe what each thread *did* (the host already computed the
//! numerics); the device model turns the description into simulated time.

use crate::MemorySpace;

/// The block size the batch engines launch their one-thread-per-simulation
/// kernels with: one warp.
pub const THREADS_PER_BLOCK: usize = 32;

/// The work performed by one thread of a kernel.
///
/// # Example
///
/// ```
/// use paraspace_vgpu::{MemorySpace, ThreadWork};
///
/// let w = ThreadWork::new()
///     .with_flops(500)
///     .with_read(MemorySpace::Constant, 64)
///     .with_global_write(8);
/// assert_eq!(w.flops, 500);
/// assert_eq!(w.bytes_touched(MemorySpace::Constant), 64);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThreadWork {
    /// Floating-point operations executed by this thread.
    pub flops: u64,
    /// Bytes read or written in each space (indexed by [`space_index`]).
    bytes: [u64; 5],
    /// Block-level synchronizations this thread participates in.
    pub syncs: u64,
}

fn space_index(space: MemorySpace) -> usize {
    match space {
        MemorySpace::Global => 0,
        MemorySpace::CachedGlobal => 1,
        MemorySpace::Shared => 2,
        MemorySpace::Constant => 3,
        MemorySpace::Register => 4,
    }
}

impl ThreadWork {
    /// No work.
    pub fn new() -> Self {
        ThreadWork::default()
    }

    /// Sets the flop count (builder style).
    pub fn with_flops(mut self, flops: u64) -> Self {
        self.flops = flops;
        self
    }

    /// Adds bytes read from a space (builder style).
    pub fn with_read(mut self, space: MemorySpace, bytes: u64) -> Self {
        self.bytes[space_index(space)] += bytes;
        self
    }

    /// Shorthand for a global-memory read.
    pub fn with_global_read(self, bytes: u64) -> Self {
        self.with_read(MemorySpace::Global, bytes)
    }

    /// Shorthand for a global-memory write.
    pub fn with_global_write(mut self, bytes: u64) -> Self {
        self.bytes[space_index(MemorySpace::Global)] += bytes;
        self
    }

    /// Adds synchronization points (builder style).
    pub fn with_syncs(mut self, syncs: u64) -> Self {
        self.syncs = syncs;
        self
    }

    /// Total bytes touched (read or written) in `space`.
    pub fn bytes_touched(&self, space: MemorySpace) -> u64 {
        self.bytes[space_index(space)]
    }

    /// Merges another descriptor into this one (sequential composition).
    pub fn absorb(&mut self, other: &ThreadWork) {
        self.flops += other.flops;
        for i in 0..5 {
            self.bytes[i] += other.bytes[i];
        }
        self.syncs += other.syncs;
    }

    /// Scales all counters (e.g. "this pattern repeats k times").
    pub fn repeated(mut self, k: u64) -> Self {
        self.flops *= k;
        for b in &mut self.bytes {
            *b *= k;
        }
        self.syncs *= k;
        self
    }
}

/// A child-grid launch performed from device code (dynamic parallelism).
#[derive(Debug, Clone, PartialEq)]
pub struct ChildLaunch {
    /// Blocks in the child grid.
    pub blocks: usize,
    /// Threads per child block.
    pub threads_per_block: usize,
    /// Uniform per-thread work of the child kernel.
    pub work: ThreadWork,
    /// How many times this child launch repeats (e.g. once per solver step).
    pub repeats: u64,
}

/// A kernel launch: geometry plus per-thread work.
///
/// Threads may be uniform (one descriptor for all) or heterogeneous (one
/// descriptor per thread — how batch engines express that different
/// simulations need different step counts, which creates warp divergence).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelLaunch {
    /// Kernel name for reports.
    pub name: String,
    /// Number of blocks in the grid.
    pub blocks: usize,
    /// Threads per block.
    pub threads_per_block: usize,
    /// Per-thread work: either one uniform descriptor or one per thread
    /// (length `blocks × threads_per_block`).
    work: WorkSpec,
    /// 32-bit registers per thread (occupancy input).
    pub registers_per_thread: usize,
    /// Shared memory per block in bytes (occupancy input).
    pub shared_mem_per_block: usize,
    /// Child launches each thread performs (dynamic parallelism).
    pub children: Vec<ChildLaunch>,
}

#[derive(Debug, Clone, PartialEq)]
enum WorkSpec {
    Uniform(ThreadWork),
    PerThread(Vec<ThreadWork>),
}

impl KernelLaunch {
    /// A launch where every thread performs the same work.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is empty.
    pub fn uniform(
        name: impl Into<String>,
        blocks: usize,
        threads_per_block: usize,
        work: ThreadWork,
    ) -> Self {
        assert!(blocks > 0 && threads_per_block > 0, "kernel geometry must be non-empty");
        KernelLaunch {
            name: name.into(),
            blocks,
            threads_per_block,
            work: WorkSpec::Uniform(work),
            registers_per_thread: 32,
            shared_mem_per_block: 0,
            children: Vec::new(),
        }
    }

    /// A launch with per-thread work descriptors (row-major by block).
    ///
    /// # Panics
    ///
    /// Panics if `work.len() != blocks × threads_per_block` or the geometry
    /// is empty.
    pub fn per_thread(
        name: impl Into<String>,
        blocks: usize,
        threads_per_block: usize,
        work: Vec<ThreadWork>,
    ) -> Self {
        assert!(blocks > 0 && threads_per_block > 0, "kernel geometry must be non-empty");
        assert_eq!(work.len(), blocks * threads_per_block, "one descriptor per thread required");
        KernelLaunch {
            name: name.into(),
            blocks,
            threads_per_block,
            work: WorkSpec::PerThread(work),
            registers_per_thread: 32,
            shared_mem_per_block: 0,
            children: Vec::new(),
        }
    }

    /// Sets register pressure (builder style).
    pub fn with_registers(mut self, registers_per_thread: usize) -> Self {
        self.registers_per_thread = registers_per_thread;
        self
    }

    /// Sets per-block shared memory (builder style).
    pub fn with_shared_mem(mut self, bytes: usize) -> Self {
        self.shared_mem_per_block = bytes;
        self
    }

    /// Adds a dynamic-parallelism child launch performed by every thread.
    pub fn with_child(mut self, child: ChildLaunch) -> Self {
        self.children.push(child);
        self
    }

    /// Total threads in the grid.
    pub fn total_threads(&self) -> usize {
        self.blocks * self.threads_per_block
    }

    /// The work of thread `(block, lane)`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range for a per-thread launch.
    pub fn thread_work(&self, block: usize, lane: usize) -> ThreadWork {
        match &self.work {
            WorkSpec::Uniform(w) => *w,
            WorkSpec::PerThread(v) => v[block * self.threads_per_block + lane],
        }
    }

    /// Sum of flops across all threads (useful for utilization reports).
    pub fn total_flops(&self) -> u64 {
        match &self.work {
            WorkSpec::Uniform(w) => w.flops * self.total_threads() as u64,
            WorkSpec::PerThread(v) => v.iter().map(|w| w.flops).sum(),
        }
    }

    /// Total bytes of DRAM traffic (global space only).
    pub fn total_dram_bytes(&self) -> u64 {
        let per = |w: &ThreadWork| w.bytes_touched(MemorySpace::Global);
        match &self.work {
            WorkSpec::Uniform(w) => per(w) * self.total_threads() as u64,
            WorkSpec::PerThread(v) => v.iter().map(per).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_traffic() {
        let w = ThreadWork::new()
            .with_flops(10)
            .with_read(MemorySpace::Global, 100)
            .with_read(MemorySpace::Global, 50)
            .with_global_write(8);
        assert_eq!(w.bytes_touched(MemorySpace::Global), 158);
        assert_eq!(w.bytes_touched(MemorySpace::Shared), 0);
    }

    #[test]
    fn absorb_and_repeated_compose() {
        let mut a = ThreadWork::new().with_flops(5).with_global_read(10);
        let b = ThreadWork::new().with_flops(3).with_global_write(4).with_syncs(1);
        a.absorb(&b);
        assert_eq!(a.flops, 8);
        assert_eq!(a.bytes_touched(MemorySpace::Global), 14);
        let r = b.repeated(10);
        assert_eq!(r.flops, 30);
        assert_eq!(r.syncs, 10);
    }

    #[test]
    fn uniform_launch_totals() {
        let k = KernelLaunch::uniform("k", 4, 32, ThreadWork::new().with_flops(7));
        assert_eq!(k.total_threads(), 128);
        assert_eq!(k.total_flops(), 7 * 128);
        assert_eq!(k.thread_work(3, 31).flops, 7);
    }

    #[test]
    fn per_thread_launch_indexes_row_major() {
        let mut v = vec![ThreadWork::new(); 64];
        v[32 + 5] = ThreadWork::new().with_flops(99);
        let k = KernelLaunch::per_thread("k", 2, 32, v);
        assert_eq!(k.thread_work(1, 5).flops, 99);
        assert_eq!(k.thread_work(0, 5).flops, 0);
        assert_eq!(k.total_flops(), 99);
    }

    #[test]
    #[should_panic(expected = "one descriptor per thread")]
    fn per_thread_length_mismatch_panics() {
        let _ = KernelLaunch::per_thread("k", 2, 32, vec![ThreadWork::new(); 10]);
    }

    #[test]
    fn dram_accounting_ignores_on_chip_spaces() {
        let w = ThreadWork::new()
            .with_read(MemorySpace::Shared, 1000)
            .with_read(MemorySpace::Constant, 1000)
            .with_global_read(16);
        let k = KernelLaunch::uniform("k", 1, 32, w);
        assert_eq!(k.total_dram_bytes(), 16 * 32);
    }
}
