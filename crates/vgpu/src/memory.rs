//! The device memory hierarchy.

/// A memory space of the simulated device.
///
/// The coarse-grained baseline engine's advantage on small models comes
/// from placing kinetic constants in [`Constant`](MemorySpace::Constant)
/// memory and states in [`Shared`](MemorySpace::Shared) memory; the
/// fine+coarse engine cannot (dynamic parallelism does not share variables
/// between parent and child grids) and pays
/// [`Global`](MemorySpace::Global)-memory latency — the trade-off the
/// memory-placement ablation (A4) measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemorySpace {
    /// Off-chip DRAM: high latency, bandwidth-limited.
    Global,
    /// Global memory with a hot L2 working set: read-mostly data shared by
    /// many concurrent grids (the flat ODE encoding every simulation
    /// streams each step) is served from the on-chip L2 cache after the
    /// first touch.
    CachedGlobal,
    /// On-chip per-block scratchpad: low latency, capacity-limited.
    Shared,
    /// Cached read-only broadcast memory: very low latency on hit.
    Constant,
    /// Register file: effectively free, capacity bounds occupancy.
    Register,
}

impl MemorySpace {
    /// All spaces, for exhaustive iteration in tests and reports.
    pub const ALL: [MemorySpace; 5] = [
        MemorySpace::Global,
        MemorySpace::CachedGlobal,
        MemorySpace::Shared,
        MemorySpace::Constant,
        MemorySpace::Register,
    ];
}

impl std::fmt::Display for MemorySpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MemorySpace::Global => "global",
            MemorySpace::CachedGlobal => "cached-global",
            MemorySpace::Shared => "shared",
            MemorySpace::Constant => "constant",
            MemorySpace::Register => "register",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(MemorySpace::Global.to_string(), "global");
        assert_eq!(MemorySpace::Constant.to_string(), "constant");
    }
}
