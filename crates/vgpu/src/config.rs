//! Device descriptions.

use crate::MemorySpace;

/// Architectural parameters of the simulated device.
///
/// The defaults model the GPU the original study used (a GeForce GTX
/// Titan X, Maxwell: 3072 CUDA cores as 24 SMs × 128 cores, 1.075 GHz).
///
/// # Example
///
/// ```
/// let cfg = paraspace_vgpu::DeviceConfig::titan_x();
/// assert_eq!(cfg.sm_count * cfg.cores_per_sm, 3072);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Device display name.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: usize,
    /// CUDA cores per SM (one FLOP per core per cycle).
    pub cores_per_sm: usize,
    /// Threads per warp.
    pub warp_size: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: usize,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: usize,
    /// 32-bit registers per SM.
    pub registers_per_sm: usize,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: usize,
    /// Global-memory latency in cycles.
    pub global_latency_cycles: f64,
    /// L2-cache hit latency in cycles (the `CachedGlobal` space).
    pub l2_latency_cycles: f64,
    /// Global-memory bandwidth in GB/s (device-wide).
    pub global_bandwidth_gbs: f64,
    /// Shared-memory latency in cycles.
    pub shared_latency_cycles: f64,
    /// Constant-cache latency in cycles (hit).
    pub constant_latency_cycles: f64,
    /// Host-side kernel launch overhead in nanoseconds.
    pub kernel_launch_ns: f64,
    /// Base device-side (dynamic parallelism) child-launch overhead in ns.
    pub child_launch_ns: f64,
}

impl DeviceConfig {
    /// The GPU of the original evaluation: GTX Titan X (Maxwell).
    pub fn titan_x() -> Self {
        DeviceConfig {
            name: "Simulated GeForce GTX Titan X (Maxwell)".to_string(),
            sm_count: 24,
            cores_per_sm: 128,
            warp_size: 32,
            clock_ghz: 1.075,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            registers_per_sm: 65_536,
            shared_mem_per_sm: 96 * 1024,
            global_latency_cycles: 400.0,
            l2_latency_cycles: 80.0,
            global_bandwidth_gbs: 336.5,
            shared_latency_cycles: 25.0,
            constant_latency_cycles: 8.0,
            kernel_launch_ns: 5_000.0,
            child_launch_ns: 1_600.0,
        }
    }

    /// A small educational device (one SM) for deterministic unit tests.
    pub fn minimal() -> Self {
        DeviceConfig {
            name: "Minimal test device".to_string(),
            sm_count: 1,
            cores_per_sm: 32,
            warp_size: 32,
            clock_ghz: 1.0,
            max_threads_per_sm: 1024,
            max_blocks_per_sm: 8,
            registers_per_sm: 32_768,
            shared_mem_per_sm: 48 * 1024,
            global_latency_cycles: 400.0,
            l2_latency_cycles: 80.0,
            global_bandwidth_gbs: 100.0,
            shared_latency_cycles: 25.0,
            constant_latency_cycles: 8.0,
            kernel_launch_ns: 5_000.0,
            child_launch_ns: 1_600.0,
        }
    }

    /// Latency in cycles of one access batch to a memory space.
    pub fn latency_cycles(&self, space: MemorySpace) -> f64 {
        match space {
            MemorySpace::Global => self.global_latency_cycles,
            MemorySpace::CachedGlobal => self.l2_latency_cycles,
            MemorySpace::Shared => self.shared_latency_cycles,
            MemorySpace::Constant => self.constant_latency_cycles,
            MemorySpace::Register => 0.0,
        }
    }

    /// Maximum resident warps per SM.
    pub fn max_warps_per_sm(&self) -> usize {
        self.max_threads_per_sm / self.warp_size
    }

    /// Warps that issue simultaneously per cycle on one SM.
    pub fn warp_issue_width(&self) -> usize {
        (self.cores_per_sm / self.warp_size).max(1)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on zero-sized configuration fields (a config bug).
    pub fn validate(&self) {
        assert!(self.sm_count > 0, "device needs at least one SM");
        assert!(self.warp_size > 0 && self.cores_per_sm >= self.warp_size);
        assert!(self.clock_ghz > 0.0);
        assert!(self.max_threads_per_sm >= self.warp_size);
        assert!(self.global_bandwidth_gbs > 0.0);
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig::titan_x()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_x_matches_published_specs() {
        let c = DeviceConfig::titan_x();
        assert_eq!(c.sm_count * c.cores_per_sm, 3072);
        assert!((c.clock_ghz - 1.075).abs() < 1e-12);
        c.validate();
    }

    #[test]
    fn latency_ordering_register_constant_shared_global() {
        let c = DeviceConfig::titan_x();
        assert!(c.latency_cycles(MemorySpace::Register) < c.latency_cycles(MemorySpace::Constant));
        assert!(c.latency_cycles(MemorySpace::Constant) < c.latency_cycles(MemorySpace::Shared));
        assert!(
            c.latency_cycles(MemorySpace::Shared) < c.latency_cycles(MemorySpace::CachedGlobal)
        );
        assert!(
            c.latency_cycles(MemorySpace::CachedGlobal) < c.latency_cycles(MemorySpace::Global)
        );
    }

    #[test]
    fn derived_quantities() {
        let c = DeviceConfig::titan_x();
        assert_eq!(c.max_warps_per_sm(), 64);
        assert_eq!(c.warp_issue_width(), 4);
    }

    #[test]
    fn minimal_device_is_consistent() {
        DeviceConfig::minimal().validate();
    }
}
