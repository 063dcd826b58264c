//! The device façade: launches, child grids, and the simulated timeline.

use crate::lanes::{LaneAccounting, LaneGroupStats};
use crate::schedule::{schedule, LaunchStats};
use crate::{DeviceConfig, DpModel, KernelLaunch};
use std::cell::RefCell;

/// A named interval on the simulated timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEntry {
    /// Kernel (or phase) name.
    pub name: String,
    /// Start of the interval (ns since device reset).
    pub start_ns: f64,
    /// Duration (ns).
    pub duration_ns: f64,
}

/// The accumulated execution timeline of a device.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    entries: Vec<TimelineEntry>,
}

impl Timeline {
    /// All recorded intervals in launch order.
    pub fn entries(&self) -> &[TimelineEntry] {
        &self.entries
    }

    /// Total simulated time (ns).
    pub fn total_ns(&self) -> f64 {
        self.entries.last().map_or(0.0, |e| e.start_ns + e.duration_ns)
    }

    /// Total time attributed to kernels whose name contains `tag`.
    pub fn time_tagged_ns(&self, tag: &str) -> f64 {
        self.entries.iter().filter(|e| e.name.contains(tag)).map(|e| e.duration_ns).sum()
    }
}

/// Computes the timing of `launch` on a device described by `config` and
/// `dp` without touching any timeline.
///
/// This is the pure core of [`Device::launch`]: parent-grid execution is
/// scheduled first; each [`ChildLaunch`] contributes (a) the aggregated
/// execution time of all parents' child grids running concurrently and
/// (b) the dynamic-parallelism launch overhead for the pending-launch
/// population (= concurrent parent threads), repeated once per round.
///
/// [`ChildLaunch`]: crate::ChildLaunch
pub fn cost_launch(config: &DeviceConfig, dp: &DpModel, launch: &KernelLaunch) -> LaunchStats {
    let mut stats = schedule(config, launch);
    let parents = launch.total_threads();
    for child in &launch.children {
        if child.repeats == 0 {
            continue;
        }
        // All parents' child grids of one round run concurrently.
        let agg_blocks = (child.blocks * parents).max(1);
        let agg = KernelLaunch::uniform(
            format!("{}::child", launch.name),
            agg_blocks,
            child.threads_per_block,
            child.work,
        )
        .with_registers(launch.registers_per_thread);
        let per_round = schedule(config, &agg);
        // Child rounds replace the host launch overhead with the
        // device-side DP overhead.
        let exec_ns = (per_round.time_ns - config.kernel_launch_ns).max(0.0);
        let overhead_ns = dp.total_overhead_ns(parents, child.repeats, config.child_launch_ns);
        stats.time_ns += exec_ns * child.repeats as f64 + overhead_ns;
    }
    stats
}

/// The simulated device: a [`DeviceConfig`] plus a running [`Timeline`].
///
/// Launching is `&self` (interior mutability) so engines can share one
/// device across batch phases without threading `&mut` everywhere; the
/// device itself mirrors a single CUDA stream and is not `Sync` — engines
/// bill it on the calling thread, in member order.
///
/// # Example
///
/// ```
/// use paraspace_vgpu::{Device, DeviceConfig, KernelLaunch, ThreadWork};
///
/// let dev = Device::new(DeviceConfig::titan_x());
/// dev.launch(&KernelLaunch::uniform("phase1", 24, 128, ThreadWork::new().with_flops(1_000)));
/// dev.launch(&KernelLaunch::uniform("phase2", 24, 128, ThreadWork::new().with_flops(2_000)));
/// assert_eq!(dev.timeline().entries().len(), 2);
/// assert!(dev.elapsed_ns() > 0.0);
/// ```
#[derive(Debug)]
pub struct Device {
    config: DeviceConfig,
    dp: DpModel,
    timeline: RefCell<Timeline>,
    lanes: RefCell<LaneAccounting>,
}

impl Device {
    /// Creates a device with the default dynamic-parallelism model.
    pub fn new(config: DeviceConfig) -> Self {
        config.validate();
        Device {
            config,
            dp: DpModel::default(),
            timeline: RefCell::new(Timeline::default()),
            lanes: RefCell::new(LaneAccounting::default()),
        }
    }

    /// Creates a device with a custom dynamic-parallelism model (used by
    /// the DP ablation).
    pub fn with_dp_model(config: DeviceConfig, dp: DpModel) -> Self {
        config.validate();
        Device {
            config,
            dp,
            timeline: RefCell::new(Timeline::default()),
            lanes: RefCell::new(LaneAccounting::default()),
        }
    }

    /// The architectural configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The dynamic-parallelism model.
    pub fn dp_model(&self) -> &DpModel {
        &self.dp
    }

    /// Total simulated time elapsed on this device (ns).
    pub fn elapsed_ns(&self) -> f64 {
        self.timeline.borrow().total_ns()
    }

    /// A snapshot of the timeline.
    pub fn timeline(&self) -> Timeline {
        self.timeline.borrow().clone()
    }

    /// Clears the timeline and lane accounting (between experiments).
    pub fn reset(&self) {
        self.timeline.borrow_mut().entries.clear();
        *self.lanes.borrow_mut() = LaneAccounting::default();
    }

    /// Folds one lane-group's occupancy counters into the device's
    /// run-wide [`LaneAccounting`]. Engines running the lane-batched path
    /// call this once per group, in group order.
    pub fn record_lane_group(&self, stats: &LaneGroupStats) {
        self.lanes.borrow_mut().record(stats);
    }

    /// A snapshot of the run-wide lane occupancy/divergence accounting.
    pub fn lane_accounting(&self) -> LaneAccounting {
        *self.lanes.borrow()
    }

    /// Launches a kernel, advancing the timeline, and returns its timing.
    ///
    /// Timing comes from the pure [`cost_launch`]; see it for the child-grid
    /// accounting rules.
    pub fn launch(&self, launch: &KernelLaunch) -> LaunchStats {
        let stats = cost_launch(&self.config, &self.dp, launch);
        let mut tl = self.timeline.borrow_mut();
        let start = tl.total_ns();
        tl.entries.push(TimelineEntry {
            name: launch.name.clone(),
            start_ns: start,
            duration_ns: stats.time_ns,
        });
        stats
    }

    /// Records a host-side (CPU) phase on the timeline, e.g. the I/O phases
    /// P1/P5 of the batch pipeline, without device work.
    pub fn record_host_phase(&self, name: impl Into<String>, duration_ns: f64) {
        let mut tl = self.timeline.borrow_mut();
        let start = tl.total_ns();
        tl.entries.push(TimelineEntry { name: name.into(), start_ns: start, duration_ns });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChildLaunch, ThreadWork};

    fn dev() -> Device {
        Device::new(DeviceConfig::titan_x())
    }

    #[test]
    fn timeline_accumulates_in_order() {
        let d = dev();
        d.launch(&KernelLaunch::uniform("a", 24, 128, ThreadWork::new().with_flops(1000)));
        d.launch(&KernelLaunch::uniform("b", 24, 128, ThreadWork::new().with_flops(1000)));
        let tl = d.timeline();
        assert_eq!(tl.entries().len(), 2);
        assert_eq!(tl.entries()[0].name, "a");
        assert!(tl.entries()[1].start_ns >= tl.entries()[0].duration_ns);
        assert!((tl.total_ns() - d.elapsed_ns()).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_timeline() {
        let d = dev();
        d.launch(&KernelLaunch::uniform("a", 1, 32, ThreadWork::new()));
        d.reset();
        assert_eq!(d.elapsed_ns(), 0.0);
    }

    #[test]
    fn child_launches_add_time() {
        let d = dev();
        let plain = KernelLaunch::uniform("plain", 16, 32, ThreadWork::new().with_flops(100));
        let with_child = KernelLaunch::uniform("dp", 16, 32, ThreadWork::new().with_flops(100))
            .with_child(ChildLaunch {
                blocks: 1,
                threads_per_block: 64,
                work: ThreadWork::new().with_flops(50),
                repeats: 10,
            });
        let t_plain = d.launch(&plain).time_ns;
        let t_child = d.launch(&with_child).time_ns;
        assert!(t_child > t_plain);
    }

    #[test]
    fn dp_saturation_penalizes_huge_parent_populations() {
        // Same total child work split across 512 vs 4096 parents: the
        // oversubscribed configuration pays the DP penalty.
        let d = dev();
        let child = |repeats| ChildLaunch {
            blocks: 1,
            threads_per_block: 32,
            work: ThreadWork::new().with_flops(200),
            repeats,
        };
        let modest = KernelLaunch::uniform("m", 16, 32, ThreadWork::new()).with_child(child(64));
        let huge = KernelLaunch::uniform("h", 128, 32, ThreadWork::new()).with_child(child(64));
        let per_sim_modest = d.launch(&modest).time_ns / 512.0;
        let per_sim_huge = d.launch(&huge).time_ns / 4096.0;
        // Per-simulation cost must *not* keep improving past the DP knee.
        assert!(
            per_sim_huge > per_sim_modest * 0.9,
            "DP saturation should erase the scaling win: {per_sim_huge} vs {per_sim_modest}"
        );
    }

    #[test]
    fn tagged_time_accounting() {
        let d = dev();
        d.launch(&KernelLaunch::uniform(
            "integrate::dopri5",
            24,
            128,
            ThreadWork::new().with_flops(5000),
        ));
        d.record_host_phase("io::write", 1e6);
        let tl = d.timeline();
        assert!(tl.time_tagged_ns("integrate") > 0.0);
        assert_eq!(tl.time_tagged_ns("io"), 1e6);
        assert_eq!(tl.time_tagged_ns("nonexistent"), 0.0);
    }

    #[test]
    fn lane_accounting_accumulates_and_resets() {
        let d = dev();
        assert_eq!(d.lane_accounting().groups, 0);
        d.record_lane_group(&LaneGroupStats { width: 8, lockstep_iters: 10, lane_steps: 60 });
        d.record_lane_group(&LaneGroupStats { width: 8, lockstep_iters: 5, lane_steps: 40 });
        let acc = d.lane_accounting();
        assert_eq!(acc.groups, 2);
        assert_eq!(acc.slot_steps, 120);
        assert_eq!(acc.lane_steps, 100);
        assert!((acc.occupancy() - 100.0 / 120.0).abs() < 1e-12);
        d.reset();
        assert_eq!(d.lane_accounting(), LaneAccounting::default());
    }

    #[test]
    fn host_phase_advances_clock() {
        let d = dev();
        d.record_host_phase("p1", 123.0);
        assert_eq!(d.elapsed_ns(), 123.0);
    }

    #[test]
    fn cost_launch_matches_device_launch() {
        let d = dev();
        let k = KernelLaunch::uniform("k", 24, 128, ThreadWork::new().with_flops(5000)).with_child(
            ChildLaunch {
                blocks: 2,
                threads_per_block: 64,
                work: ThreadWork::new().with_flops(50),
                repeats: 3,
            },
        );
        let pure = cost_launch(d.config(), d.dp_model(), &k);
        let recorded = d.launch(&k);
        assert_eq!(pure, recorded);
    }
}
