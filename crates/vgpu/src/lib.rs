//! A software-simulated SIMT device ("virtual GPU").
//!
//! The reproduction target evaluates its engines on CUDA hardware; this
//! environment has none, and Rust GPU toolchains are immature, so the GPU
//! is **simulated**: engines execute their numerics on the host (bit-exact,
//! via `paraspace-solvers`) and *replay the measured work* through this
//! crate's cost model, which schedules it the way the real device would:
//!
//! * a [`DeviceConfig`] describes the chip — streaming multiprocessors,
//!   cores per SM, warp size, clock, register file, shared-memory size, and
//!   the latency/bandwidth of each [`MemorySpace`];
//! * a [`KernelLaunch`] carries per-thread work descriptors
//!   ([`ThreadWork`]: flops, memory traffic by space, child-kernel
//!   launches);
//! * the scheduler ([`Device::launch`]) groups threads into warps (SIMT
//!   lockstep: a warp is as slow as its slowest thread — this models the
//!   divergence penalty when batched simulations need different step
//!   counts), packs blocks onto SMs subject to occupancy limits (threads,
//!   blocks, registers, shared memory), and exposes memory latency when too
//!   few warps are resident to hide it;
//! * [`DpModel`] reproduces the published dynamic-parallelism behaviour:
//!   child-grid launch overhead grows past ~512 pending launches and blows
//!   up near ~2000 — the effect that makes 512-simulation batches the
//!   engine's sweet spot.
//!
//! Every architectural knob is explicit so the ablation tables (memory
//! placement, DP overhead, granularity) can toggle one effect at a time.
//!
//! # Example
//!
//! ```
//! use paraspace_vgpu::{Device, DeviceConfig, KernelLaunch, ThreadWork};
//!
//! let device = Device::new(DeviceConfig::titan_x());
//! let work = ThreadWork::new().with_flops(10_000).with_global_read(8 * 128);
//! let launch = KernelLaunch::uniform("rhs", 64, 128, work);
//! let stats = device.launch(&launch);
//! assert!(stats.time_ns > 0.0);
//! ```

mod config;
mod device;
mod dynamic;
mod lanes;
mod memory;
mod schedule;
mod workload;

pub use config::DeviceConfig;
pub use device::{cost_launch, Device, Timeline};
pub use dynamic::DpModel;
pub use lanes::{LaneAccounting, LaneGroupStats};
pub use memory::MemorySpace;
pub use schedule::{LaunchStats, Occupancy};
pub use workload::{ChildLaunch, KernelLaunch, ThreadWork, THREADS_PER_BLOCK};
